"""The command-line interface: exit codes, output bytes and error text.

Every test runs ``cli.main`` in this process through ``run_cli``.  A test
starts a process, through ``run_cli_process`` or ``subprocess.run``, only
where the process is its subject:

- ``test_internal_error_exits_4`` and ``test_poly_error_inside_a_suite_exits_4``:
  the installed ``entry`` turns an internal error into exit 4 with a
  traceback, and ``main`` lets it propagate;
- ``test_an_out_of_range_flag_prints_no_traceback``: a usage error prints
  no traceback from the real entry point;
- the ``-O`` half of ``test_bicategory_laws_runs_from_cli``: the suite runs
  with asserts stripped, which needs a new interpreter;
- ``test_reports_identical_across_hash_seeds``: reports under two
  ``PYTHONHASHSEED`` values, which are fixed when an interpreter starts;
  these runs also cover ``python -m polyverse.cli``;
- ``test_main_carries_no_state_between_calls`` and
  ``test_a_usage_error_after_successful_calls_matches_a_fresh_process``:
  in-process calls after others against a fresh process.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from polyverse import cli
from polyverse import interchange as io
from goldens import CLI_GOLDEN


def run_cli(*argv) -> subprocess.CompletedProcess:
    """``cli.main(argv)`` in this process, with stdout and stderr captured.
    argparse's ``SystemExit`` becomes the return code; any other exception
    propagates."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(list(argv), code, out.getvalue(), err.getvalue())


def run_cli_process(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python -m polyverse.cli`` with ``argv`` in a new process."""
    return subprocess.run([sys.executable, "-m", "polyverse.cli", *argv], capture_output=True, text=True, **kwargs)


def composable_with(record: dict) -> dict:
    """A copy of the polynomial ``record`` from its ``J`` to its ``J``, with
    every arity over the first element of ``J``: it composes after ``record``."""
    out = dict(record)
    out["I"] = record["J"]
    out["s"] = {"dom": record["B"], "cod": record["J"], "map": [[b, record["J"][0]] for b in record["B"]]}
    return out


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
    g.write_text(json.dumps(composable_with(record)))
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
    argv = ["suite", "run", "bicategory-laws", "--seed", "5", "--count", "2", "--max-size", "2", "--format", "json"]
    optimized = subprocess.run([sys.executable, "-O", "-m", "polyverse.cli", *argv], capture_output=True, text=True)
    for flags, proc in (([], run_cli(*argv)), (["-O"], optimized)):
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


def test_a_trace_that_does_not_revalidate_is_a_failed_law(monkeypatch):
    # the validator's refusal is the law's verdict, recorded as a fail that
    # ends the instance: exit 1, not an internal error
    from polyverse.poly import CompositionTrace, PolyError

    def validate(self, G, F):
        raise PolyError("square (1) fails the pullback property")

    monkeypatch.setattr(CompositionTrace, "validate", validate)
    proc = run_cli(
        "suite", "run", "extension-composition", "--seed", "1", "--count", "2", "--max-size", "2", "--format", "json",
    )
    assert proc.returncode == 1, proc.stderr
    records = json.loads(proc.stdout)["records"]
    assert [(r["law"], r["instance"], r["status"], r["detail"]) for r in records] == [
        ("trace-revalidates", f"pair{n}", "fail", "square (1) fails the pullback property")
        for n in range(2)
    ]


def test_main_propagates_internal_error(monkeypatch):
    from polyverse import suites

    def suite_raises(cfg):
        raise RuntimeError("suite blew up")

    monkeypatch.setitem(suites.SUITES, "raises", suite_raises)
    with pytest.raises(RuntimeError, match="suite blew up"):
        run_cli("suite", "run", "raises")


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory) -> dict:
    """The input files of ``EXIT_CODES``, by name; ``missing`` is not written."""
    from polyverse import interchange as io
    from polyverse.finset import TERMINAL, FinFamily, FinMap, FinSet
    from polyverse.poly import from_map
    from polyverse.poly2 import identity_cell
    from reference import constant

    d = tmp_path_factory.mktemp("cli-inputs")
    for name, argv in (
        ("f", ["generate", "polynomial", "--seed", "3"]), ("m", ["generate", "morphism", "--seed", "4"]),
        ("m5", ["generate", "morphism", "--seed", "5"]), ("broken_sum", ["model", "builtin", "bool"]),
    ):
        assert run_cli(*argv, "-o", str(d / f"{name}.json")).returncode == 0
    f = json.loads((d / "f.json").read_text())
    m = io.morphism_from_json(json.loads((d / "m.json").read_text()))
    universe = json.loads((d / "broken_sum.json").read_text())
    universe["sigma"] = [[k, "code0"] for k, _ in universe["sigma"]]

    def from_constant(n: int, arity: str, operation: str) -> dict:
        return io.polynomial_to_json(from_map(constant(
            FinSet([f"{arity}{k}" for k in range(n)]), FinSet([operation]), operation,
        )))

    records = {
        "g": composable_with(f),
        "x": {"index": f["I"], "fibres": [[i, ["x0"]] for i in f["I"]]},
        "other_index": {"index": ["zz"], "fibres": [["zz", ["x0"]]]},
        "identity": io.morphism_to_json(identity_cell(m.src)),
        "broken_sum": universe,
        # 10^6 sections of the outer operation's six arities over ten operations
        "wide_outer": from_constant(6, "d", "c"),
        "wide_inner": io.polynomial_to_json(from_map(FinMap(FinSet(), FinSet([f"a{k}" for k in range(10)]), {}))),
        # 9^9 endomaps of the one fibre, and 5^9 sections into five points
        "nine_arities": from_constant(9, "b", "a"),
        "five_points": io.family_to_json(FinFamily(TERMINAL, {i: FinSet([f"x{k}" for k in range(5)]) for i in TERMINAL})),
    }
    for name, record in records.items():
        (d / f"{name}.json").write_text(json.dumps(record))
    (d / "not_json.json").write_text("{ this is not json")
    (d / "not_utf8.json").write_bytes(b'{"I": ["\xff"]}')
    (d / "a_directory").mkdir()
    return {path.stem: str(path) for path in [*d.iterdir(), d / "missing.json"]}


NOT_JSON = "parse error: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 3 (char 2)"
NO_FILE = "cannot read input: [Errno 2] No such file or directory: '{missing}'"
NOT_A_FILE = "cannot read input: [Errno 21] Is a directory: '{a_directory}'"
NOT_UTF8 = "parse error: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
SUM_MISMATCH = "invalid data: sum square: fibre mismatch at ('code1', (('el', 'code1'),))"


def _exit(code, line, *argv, case=""):
    subcommand = argv[:1] if argv[0] == "generate" else argv[:2]
    return pytest.param(argv, code, line, id="-".join((*subcommand, str(code))) + case)


# Each subcommand on one input per exit code it gives: the argv, with
# ``{name}`` for a file of ``cli_inputs``, the code, and the last line of
# stderr ("" for none).  A suite command gives 1 only when a law fails,
# which takes a faulty library: the CLI tests of tests/test_refutations.py
# patch one in.  Exit 4 is ``entry``'s, tested in a process above.
EXIT_CODES = [
    _exit(0, "", "poly", "compose", "--outer", "{g}", "--inner", "{f}"),
    _exit(1, "invalid data: polynomials do not share a boundary", "poly", "compose", "--outer", "{f}", "--inner", "{f}"),
    _exit(2, "polyverse poly compose: error: the following arguments are required: --inner", "poly", "compose", "--outer", "{f}"),
    _exit(
        3, "enumeration cap exceeded: dependent product fibre over 'c' would have 1000000 elements (cap 100000)",
        "poly", "compose", "--outer", "{wide_outer}", "--inner", "{wide_inner}",
    ),
    _exit(0, "", "poly", "extend", "--poly", "{f}", "--family", "{x}"),
    _exit(
        1, "invalid data: family must be indexed by the source of the polynomial",
        "poly", "extend", "--poly", "{f}", "--family", "{other_index}",
    ),
    _exit(2, NOT_JSON, "poly", "extend", "--poly", "{f}", "--family", "{not_json}"),
    _exit(
        3, "enumeration cap exceeded: dependent product fibre over 'a' would have 1953125 elements (cap 100000)",
        "poly", "extend", "--poly", "{nine_arities}", "--family", "{five_points}",
    ),
    _exit(0, "", "cell", "check", "{m}"),
    _exit(2, NO_FILE, "cell", "check", "{missing}"),
    _exit(2, NOT_A_FILE, "cell", "check", "{a_directory}", case="-directory"),
    _exit(2, NOT_UTF8, "cell", "check", "{not_utf8}", case="-not-utf8"),
    _exit(0, "", "cell", "compose", "--outer", "{m}", "--inner", "{identity}"),
    # each record parses, but the inner cell does not end where the outer
    # one starts: invalid input data, not an internal error
    _exit(1, "invalid data: vertical composition boundary mismatch", "cell", "compose", "--outer", "{m}", "--inner", "{m5}"),
    _exit(2, 'parse error: bad morphism record: missing field "src"', "cell", "compose", "--outer", "{m}", "--inner", "{f}"),
    _exit(0, "", "coherence", "run", "--count", "1", "--max-size", "2"),
    _exit(2, "polyverse coherence run: error: argument --seed: invalid int value: 'x'", "coherence", "run", "--seed", "x"),
    _exit(0, "", "internal", "cat", "{f}"),
    _exit(2, 'parse error: bad polynomial record: missing field "I"', "internal", "cat", "{m}"),
    _exit(
        3, "enumeration cap exceeded: internal morphism object would have 387420489 elements (cap 100000)",
        "internal", "cat", "{nine_arities}",
    ),
    _exit(0, "", "internal", "check-equiv", "--count", "1", "--max-size", "2"),
    _exit(
        2, "polyverse internal check-equiv: error: argument --max-size: expected one argument",
        "internal", "check-equiv", "--max-size",
    ),
    _exit(0, "", "model", "check", "bool"),
    _exit(1, "", "model", "check", "{broken_sum}"),
    _exit(2, NOT_JSON, "model", "check", "{not_json}"),
    _exit(2, NOT_A_FILE, "model", "check", "{a_directory}", case="-directory"),
    _exit(0, "", "model", "pseudomonad", "bool"),
    _exit(1, SUM_MISMATCH, "model", "pseudomonad", "{broken_sum}"),
    _exit(2, NO_FILE, "model", "pseudomonad", "{missing}"),
    _exit(0, "", "model", "isos", "skewed"),
    _exit(1, SUM_MISMATCH, "model", "isos", "{broken_sum}"),
    _exit(2, 'parse error: bad universe record: missing field "U"', "model", "isos", "{f}"),
    _exit(0, "", "model", "builtin", "bool"),
    _exit(2, "polyverse model builtin: error: the following arguments are required: name", "model", "builtin"),
    _exit(0, "", "suite", "run", "type-isos", "--count", "1"),
    _exit(
        2, "unknown suite 'no-such-suite'; known: bicategory-laws, coherence, extension-composition, internal-equiv, "
        "lift, pseudoalgebra, pseudomonad, slice-reduction, type-isos, unique-adjustment",
        "suite", "run", "no-such-suite",
    ),
    _exit(3, "", "suite", "run", "lift", "--count", "1", "--cap", "1"),
    _exit(0, "", "generate", "polynomial"),
    _exit(2, "polyverse generate: error: the following arguments are required: kind", "generate", "--seed", "1"),
]


@pytest.mark.parametrize("argv, code, line", EXIT_CODES)
def test_each_subcommand_gives_each_of_its_exit_codes(argv, code, line, cli_inputs):
    proc = run_cli(*(arg.format(**cli_inputs) for arg in argv))
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1:] == ([line.format(**cli_inputs)] if line else [])


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("cell", "check", str(deep))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error:")


def test_deeply_nested_label_is_a_parse_error(tmp_path):
    # valid JSON, but a label nested deeper than the converter takes; one
    # message, whether the JSON parser or the converter refuses it first.  The
    # text is spliced because json.dumps itself would recurse too deeply
    record = json.dumps({
        "I": ["i"], "B": ["LABEL"], "A": ["a"], "J": ["j"],
        "s": {"dom": ["LABEL"], "cod": ["i"], "map": [["LABEL", "i"]]},
        "f": {"dom": ["LABEL"], "cod": ["a"], "map": [["LABEL", "a"]]},
        "t": {"dom": ["a"], "cod": ["j"], "map": [["a", "j"]]},
    })
    path = tmp_path / "deep.json"
    for depth in (io._MAX_LABEL_DEPTH + 1, 980):
        path.write_text(record.replace('"LABEL"', "[" * depth + '"x"' + "]" * depth))
        proc = run_cli("internal", "cat", str(path))
        assert (proc.returncode, proc.stderr) == (2, "parse error: not valid JSON: nested too deeply\n")


def test_a_string_where_a_pair_belongs_is_a_parse_error(tmp_path):
    # "ab" would unpack to the pair a -> b and compose as a valid polynomial
    record = {
        "I": ["i"], "B": ["a"], "A": ["b"], "J": ["i"],
        "s": {"dom": ["a"], "cod": ["i"], "map": [["a", "i"]]},
        "f": {"dom": ["a"], "cod": ["b"], "map": ["ab"]},
        "t": {"dom": ["b"], "cod": ["i"], "map": [["b", "i"]]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(record))
    proc = run_cli("poly", "compose", "--outer", str(path), "--inner", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "parse error: pair must be a two-element array, got 'ab'\n"
    assert proc.stdout == ""


def test_a_record_of_the_wrong_kind_names_the_missing_field(tmp_path):
    poly = tmp_path / "F.json"
    run_cli("generate", "polynomial", "--seed", "0", "-o", str(poly))
    proc = run_cli("cell", "check", str(poly))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == 'parse error: bad morphism record: missing field "src"\n'


@pytest.mark.parametrize("command, kind", [(("model", "check"), "universe"), (("internal", "cat"), "polynomial")])
def test_an_array_where_a_record_belongs_names_the_shape(tmp_path, command, kind):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    proc = run_cli(*command, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"parse error: bad {kind} record: expected an object, got an array\n"
    assert proc.stdout == ""


def test_a_code_family_with_a_repeated_element_is_a_parse_error(tmp_path):
    # the family [el -> code1, el -> code0] once parsed as [el -> code0]
    out = tmp_path / "bool.json"
    run_cli("model", "builtin", "bool", "-o", str(out))
    record = json.loads(out.read_text())
    entry = next(e for e in record["sigma"] if e[0][1] == [["el", "code0"]])
    entry[0][1] = [["el", "code1"], ["el", "code0"]]
    out.write_text(json.dumps(record))
    proc = run_cli("model", "check", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "parse error: duplicate element 'el'\n"
    assert proc.stdout == ""


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
        proc = run_cli_process(
            "suite", "run", "coherence", "--seed", "11", "--count", "3", "--format", "json",
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def cli_golden_digests(tmp_path) -> dict:
    """The digest of each ``CLI_GOLDEN`` output, every command run through
    ``run_cli``."""
    from polyverse import interchange as io
    from polyverse.generators import rand_morphism

    paths = {}
    for kind in ("polynomial", "morphism", "universe"):
        paths[f"generate-{kind}"] = out = tmp_path / f"{kind}.json"
        proc = run_cli("generate", kind, "--seed", "0", "-o", str(out))
        assert proc.returncode == 0, proc.stderr

    f = tmp_path / "f.json"
    run_cli("generate", "polynomial", "--seed", "3", "-o", str(f))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(composable_with(json.loads(f.read_text()))))
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
    return digests


def test_cli_output_files_match_golden_digests(tmp_path):
    assert cli_golden_digests(tmp_path) == CLI_GOLDEN


@pytest.mark.parametrize("argv, message", [
    (["suite", "run", "lift", "--count", "0"], "argument --count: must be a positive integer, got 0"),
    (["suite", "run", "lift", "--cap", "0"], "argument --cap: must be a positive integer, got 0"),
    (["suite", "run", "lift", "--max-size", "0"], "argument --max-size: must be a positive integer, got 0"),
    (["suite", "run", "lift", "--count", "-2"], "argument --count: must be a positive integer, got -2"),
    (["coherence", "run", "--cap", "-1"], "argument --cap: must be a positive integer, got -1"),
    (["internal", "check-equiv", "--max-size", "-1"], "argument --max-size: must be a positive integer, got -1"),
    (["generate", "polynomial", "--max-size", "-1"], "argument --max-size: must be a positive integer, got -1"),
    (["generate", "morphism", "--max-size", "0"], "argument --max-size: must be a positive integer, got 0"),
    (["generate", "universe", "--max-size", "0"], "argument --max-size: must be a positive integer, got 0"),
    (["suite", "run", "lift", "--count", "abc"], "argument --count: invalid int value: 'abc'"),
])
def test_out_of_range_flags_are_usage_errors(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"error: {message}\n")


def test_an_out_of_range_flag_prints_no_traceback():
    proc = run_cli_process("suite", "run", "lift", "--count", "0")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith("error: argument --count: must be a positive integer, got 0\n")


def test_main_builds_no_parser(monkeypatch):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli("generate", "polynomial").returncode == 0
    assert run_cli("model", "check", "bool").returncode == 0
    assert run_cli("suite", "run", "type-isos", "--count", "1").returncode == 0
    assert built == []


def test_main_carries_no_state_between_calls():
    outputs = []
    for argv in (
        ["generate", "polynomial", "--seed", "3"],
        ["generate", "polynomial"],
        ["suite", "run", "type-isos", "--count", "2", "--format", "json"],
        ["suite", "run", "type-isos", "--count", "2"],
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
        assert outputs[-1] == run_cli_process(*argv).stdout, argv
    assert outputs[0] != outputs[1]
    assert json.loads(outputs[2])["records"]
    assert outputs[3].endswith("suite=type-isos passed=2 failed=0 skipped=0 seed=0\n")


def test_a_usage_error_after_successful_calls_matches_a_fresh_process():
    assert run_cli("generate", "morphism", "--seed", "2").returncode == 0
    assert run_cli("model", "builtin", "skewed").returncode == 0
    for argv in (["model", "builtin", "nope"], ["suite", "run"], ["generate"]):
        captured = run_cli(*argv)
        assert captured.returncode == 2
        proc = run_cli_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, captured.stdout, captured.stderr)
