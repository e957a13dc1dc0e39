import hashlib
import json
import os
import random
import subprocess
import sys

import pytest


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "polyverse.cli", *args],
        capture_output=True, text=True, **kwargs
    )


def test_builtin_universe_roundtrips_through_check(tmp_path):
    out = tmp_path / "bool.json"
    proc = run_cli("model", "builtin", "bool", "-o", str(out))
    assert proc.returncode == 0
    proc = run_cli("model", "check", str(out))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["valid"] is True


def test_model_pseudomonad_builtables():
    proc = run_cli("model", "pseudomonad", "bool")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["strict_monad"] is True
    proc = run_cli("model", "pseudomonad", "skewed")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["strict_monad"] is False
    assert payload["strict_right_unit"] is False
    assert payload["pseudomonad_pastings"]["ok"] is True


def test_model_isos():
    proc = run_cli("model", "isos", "skewed")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_poly_compose_and_extend(tmp_path):
    f = tmp_path / "f.json"
    run_cli("generate", "polynomial", "--seed", "3", "-o", str(f))
    record = json.loads(f.read_text())
    g = tmp_path / "g.json"
    record2 = dict(record)
    record2["I"] = record["J"]
    record2["s"] = {
        "dom": record["B"], "cod": record["J"],
        "map": [[b, record["J"][0]] for b in record["B"]],
    }
    g.write_text(json.dumps(record2))
    proc = run_cli("poly", "compose", "--outer", str(g), "--inner", str(f))
    assert proc.returncode == 0
    composite = json.loads(proc.stdout)
    assert set(composite) == {"I", "B", "A", "J", "s", "f", "t"}

    fam = tmp_path / "x.json"
    fam.write_text(
        json.dumps({"index": record["I"], "fibres": [[i, ["x0"]] for i in record["I"]]})
    )
    proc = run_cli("poly", "extend", "--poly", str(f), "--family", str(fam))
    assert proc.returncode == 0


def test_cell_check_and_compose(tmp_path):
    m = tmp_path / "m.json"
    run_cli("generate", "morphism", "--seed", "4", "-o", str(m))
    proc = run_cli("cell", "check", str(m))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_suite_run_and_exit_codes(tmp_path):
    proc = run_cli(
        "suite", "run", "type-isos", "--seed", "1", "--count", "3", "--format", "json"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["summary"]["failed"] == 0
    assert all(r["law"] for r in payload["records"])

    proc = run_cli("suite", "run", "no-such-suite")
    assert proc.returncode == 2


def test_bicategory_laws_runs_from_cli():
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "polyverse.cli", "suite", "run", "bicategory-laws",
             "--seed", "5", "--count", "2", "--max-size", "2", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
        records = json.loads(proc.stdout)["records"]
        assert [r["status"] for r in records if r["law"] == "vcomp-associative"] == ["pass", "pass"]


@pytest.mark.parametrize("cap", ["1", "5"])
def test_every_suite_reports_at_a_small_cap(cap):
    from polyverse.suites import SUITES

    for name in SUITES:
        proc = run_cli(
            "suite", "run", name, "--seed", "0", "--count", "2", "--max-size", "2",
            "--format", "json", "--cap", cap,
        )
        assert proc.returncode in (0, 3), (name, proc.returncode, proc.stderr)
        assert json.loads(proc.stdout)["records"], name


RAISING_SUITE = """
import sys
from polyverse import cli, suites

def suite_raises(cfg):
    raise RuntimeError("suite blew up")

suites.SUITES["raises"] = suite_raises
sys.argv = ["polyverse", "suite", "run", "raises"]
cli.entry()
"""


def test_internal_error_exits_4():
    proc = subprocess.run([sys.executable, "-c", RAISING_SUITE], capture_output=True, text=True)
    assert proc.returncode == 4
    assert "RuntimeError: suite blew up" in proc.stderr
    assert "Traceback" in proc.stderr


SHAPE_ERROR_SUITE = """
import sys
from polyverse import cli, suites
from polyverse.poly2 import CellShapeError

def suite_raises(cfg):
    raise CellShapeError("internal shape bug")

suites.SUITES["raises"] = suite_raises
sys.argv = ["polyverse", "suite", "run", "raises"]
cli.entry()
"""


def test_poly_error_inside_a_suite_exits_4():
    # a PolyError raised by the program, not by parsed input, is an
    # internal error and must not read as "some law failed"
    proc = subprocess.run([sys.executable, "-c", SHAPE_ERROR_SUITE], capture_output=True, text=True)
    assert proc.returncode == 4
    assert "CellShapeError: internal shape bug" in proc.stderr
    assert "invalid data" not in proc.stderr


def test_mismatched_cell_files_exit_1(tmp_path):
    # each record parses, but the inner cell does not end where the outer
    # one starts: invalid input data, not an internal error
    outer, inner = tmp_path / "outer.json", tmp_path / "inner.json"
    run_cli("generate", "morphism", "--seed", "4", "-o", str(outer))
    run_cli("generate", "morphism", "--seed", "5", "-o", str(inner))
    proc = run_cli("cell", "compose", "--outer", str(outer), "--inner", str(inner))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("invalid data:")


def test_main_propagates_internal_error(monkeypatch):
    from polyverse import cli, suites

    def suite_raises(cfg):
        raise RuntimeError("suite blew up")

    monkeypatch.setitem(suites.SUITES, "raises", suite_raises)
    with pytest.raises(RuntimeError, match="suite blew up"):
        cli.main(["suite", "run", "raises"])


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    proc = run_cli("model", "check", str(bad))
    assert proc.returncode == 2
    proc = run_cli("cell", "check", str(tmp_path / "missing.json"))
    assert proc.returncode == 2


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("cell", "check", str(deep))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error:")


def test_deeply_nested_label_is_a_parse_error(tmp_path):
    # valid JSON, but a label too deep to turn into nested tuples; the
    # text is spliced because json.dumps itself would recurse too deeply
    record = json.dumps({
        "I": ["i"], "B": ["LABEL"], "A": ["a"], "J": ["j"],
        "s": {"dom": ["LABEL"], "cod": ["i"], "map": [["LABEL", "i"]]},
        "f": {"dom": ["LABEL"], "cod": ["a"], "map": [["LABEL", "a"]]},
        "t": {"dom": ["a"], "cod": ["j"], "map": [["a", "j"]]},
    })
    path = tmp_path / "deep.json"
    path.write_text(record.replace('"LABEL"', "[" * 980 + '"x"' + "]" * 980))
    proc = run_cli("internal", "cat", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error:")


def test_corrupted_universe_fails_with_failure_code(tmp_path):
    out = tmp_path / "bool.json"
    run_cli("model", "builtin", "bool", "-o", str(out))
    record = json.loads(out.read_text())
    # break the sum square: all sums land on the empty code
    record["sigma"] = [[k, "code0"] for k, _ in record["sigma"]]
    out.write_text(json.dumps(record))
    proc = run_cli("model", "check", str(out))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["valid"] is False
    assert payload["problems"]


def test_reports_are_byte_identical_for_same_seed():
    a = run_cli("suite", "run", "unique-adjustment", "--seed", "7", "--count", "10", "--format", "json")
    b = run_cli("suite", "run", "unique-adjustment", "--seed", "7", "--count", "10", "--format", "json")
    assert a.stdout == b.stdout
    c = run_cli("suite", "run", "unique-adjustment", "--seed", "8", "--count", "10", "--format", "json")
    assert c.stdout != a.stdout


def test_generate_deterministic():
    a = run_cli("generate", "universe", "--seed", "12")
    b = run_cli("generate", "universe", "--seed", "12")
    assert a.stdout == b.stdout


def test_coherence_run_alias():
    proc = run_cli(
        "coherence", "run", "--seed", "11", "--count", "2", "--max-size", "3"
    )
    assert proc.returncode == 0
    assert "law=pentagon" in proc.stdout


def test_internal_cat_emits_category(tmp_path):
    f = tmp_path / "p.json"
    run_cli("generate", "polynomial", "--seed", "2", "--max-size", "2", "-o", str(f))
    proc = run_cli("internal", "cat", str(f))
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert {"objects", "morphisms", "dom", "cod", "identity", "composition"} <= set(record)


def test_reports_identical_across_hash_seeds():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = run_cli(
            "suite", "run", "coherence", "--seed", "11", "--count", "3", "--format", "json",
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# SHA-256 of the files the CLI writes with -o, recorded before
# interchange.dumps was rewritten; they guard its bytes at the boundary
CLI_GOLDEN = {
    "generate-polynomial": "e44db9b03e4998741cce9a82a9e37625c95f63a1c7b62073bb1e95f10514fadb",
    "generate-morphism": "6f9a57ed4750204f089baf981ea494f0c5218198988e1e665ab2d6e5d4861938",
    "generate-universe": "4e63d5099bb1be4501e7950680acd4ea4ef3eb14dc45b0a9a58425247f80e354",
    "poly-compose": "d99fc28a23d1e49af7e69aba6ec4252000972ef855ca257a8e905acccb7c0d05",
    "cell-compose": "3ebd73cdecd6baf44affcd84b722513cb45b60c3c3a23d7f882b3e831edaef2d",
    # stdout of `model pseudomonad` on bool, skewed and the seed-0 universe
    "model-pseudomonad-bool": "78f8201520ac13810cc5009c1119956f81128cfbd68e6ec0b0e6a2f05fa5a6b2",
    "model-pseudomonad-skewed": "c522760bde42eebabcaee4a98387b5f319e921ffbb89582cf80a8fc541e7ff30",
    "model-pseudomonad-universe": "c522760bde42eebabcaee4a98387b5f319e921ffbb89582cf80a8fc541e7ff30",
}


def test_cli_output_files_match_golden_digests(tmp_path):
    from polyverse import interchange as io
    from polyverse.generators import rand_morphism

    paths = {}
    for kind in ("polynomial", "morphism", "universe"):
        paths[f"generate-{kind}"] = out = tmp_path / f"{kind}.json"
        proc = run_cli("generate", kind, "--seed", "0", "-o", str(out))
        assert proc.returncode == 0, proc.stderr

    f = tmp_path / "f.json"
    run_cli("generate", "polynomial", "--seed", "3", "-o", str(f))
    record = json.loads(f.read_text())
    record2 = dict(record)
    record2["I"] = record["J"]
    record2["s"] = {
        "dom": record["B"], "cod": record["J"],
        "map": [[b, record["J"][0]] for b in record["B"]],
    }
    g = tmp_path / "g.json"
    g.write_text(json.dumps(record2))
    paths["poly-compose"] = out = tmp_path / "fg.json"
    proc = run_cli("poly", "compose", "--outer", str(g), "--inner", str(f), "-o", str(out))
    assert proc.returncode == 0, proc.stderr

    outer = tmp_path / "outer.json"
    run_cli("generate", "morphism", "--seed", "4", "-o", str(outer))
    phi = io.morphism_from_json(json.loads(outer.read_text()))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps(io.morphism_to_json(rand_morphism(random.Random(5), 3, target=phi.src))))
    paths["cell-compose"] = out = tmp_path / "cell.json"
    proc = run_cli("cell", "compose", "--outer", str(outer), "--inner", str(inner), "-o", str(out))
    assert proc.returncode == 0, proc.stderr

    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
    for name, universe in (("bool", "bool"), ("skewed", "skewed"), ("universe", paths["generate-universe"])):
        proc = run_cli("model", "pseudomonad", str(universe))
        assert proc.returncode == 0, proc.stderr
        digests[f"model-pseudomonad-{name}"] = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
    assert digests == CLI_GOLDEN
