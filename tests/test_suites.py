import ast
import inspect
import subprocess
import sys

import pytest

from polyverse import suites
from polyverse.suites import (
    LAWS,
    InstanceGenConfig,
    Report,
    SUITES,
    UnknownSuiteError,
    UnregisteredLawError,
    run_suite,
)


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        run_suite("nope", InstanceGenConfig())


def test_config_bounds_validated():
    with pytest.raises(ValueError):
        InstanceGenConfig(count=0)
    with pytest.raises(ValueError):
        InstanceGenConfig(max_set_size=-1)
    with pytest.raises(ValueError):
        InstanceGenConfig(enumeration_cap=0)


def test_every_record_carries_a_registered_law():
    cfg = InstanceGenConfig(seed=1, count=3, max_set_size=2)
    for name in ("unique-adjustment", "type-isos", "slice-reduction"):
        rep = run_suite(name, cfg)
        for record in rep.records:
            assert record["law"] in LAWS
            assert LAWS[record["law"]]


def test_check_rejects_unregistered_law():
    rep = Report("demo", InstanceGenConfig())
    with pytest.raises(UnregisteredLawError, match="unregistered law 'no-such-law'"):
        rep.check("no-such-law", "x", True)
    assert rep.records == []


def test_skip_rejects_unregistered_law():
    rep = Report("demo", InstanceGenConfig())
    with pytest.raises(UnregisteredLawError, match="unregistered law 'no-such-law'"):
        rep.skip("no-such-law", "x", "over cap")
    assert rep.records == []


def test_unregistered_law_rejected_under_optimize():
    """``python -O`` strips asserts; the law check must survive it."""
    script = (
        "from polyverse.suites import InstanceGenConfig, Report, UnregisteredLawError\n"
        "rep = Report('demo', InstanceGenConfig())\n"
        "for record in (lambda: rep.check('no-such-law', 'x', True),\n"
        "               lambda: rep.skip('no-such-law', 'x', 'over cap')):\n"
        "    try:\n"
        "        record()\n"
        "    except UnregisteredLawError:\n"
        "        print('refused')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused", "refused"]


def test_every_law_literal_is_registered():
    """Every law id that ``suites.py`` passes to ``check``/``skip`` is a key of
    ``LAWS``, on every branch, and every key is used."""
    tree = ast.parse(inspect.getsource(suites))
    used = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("check", "skip")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }
    assert sorted(used - set(LAWS)) == []
    assert sorted(set(LAWS) - used) == []


def test_exit_codes():
    cfg = InstanceGenConfig(seed=1, count=3, max_set_size=2)
    rep = run_suite("unique-adjustment", cfg)
    assert rep.exit_code() == 0

    failing = Report("demo", cfg)
    failing.check("pentagon", "x", False)
    assert failing.exit_code() == 1

    starved = Report("demo", cfg)
    starved.skip("pentagon", "x", "over cap")
    assert starved.exit_code() == 3


def test_all_suites_runnable_small():
    cfg = InstanceGenConfig(seed=5, count=2, max_set_size=2)
    for name in SUITES:
        rep = run_suite(name, cfg)
        assert rep.failed == 0, (name, [r for r in rep.records if r["status"] == "fail"])


@pytest.mark.parametrize("cap", [1, 5])
def test_capped_draws_keep_their_own_ids(cap):
    # a draw skipped over the cap is named attempt<n>, with the checks it
    # made before the cap; it shares no id with the instance drawn next
    for name in SUITES:
        rep = run_suite(name, InstanceGenConfig(seed=0, count=2, max_set_size=2, enumeration_cap=cap))
        keys = [(r["law"], r["instance"]) for r in rep.records]
        assert len(keys) == len(set(keys)), name
    rep = run_suite("coherence", InstanceGenConfig(seed=0, count=2, max_set_size=2, enumeration_cap=1))
    skips = [r["instance"] for r in rep.records if r["status"] == "skip"]
    assert skips and all(i.startswith("attempt") for i in skips)
    assert [r["instance"] for r in rep.records if r["law"] == "pentagon" and r["status"] == "pass"] == [
        "quad0", "quad1",
    ]


def test_cap_reaches_the_structure_cells():
    # the skewed universe's cells enumerate a dependent product fibre of 7
    rep = run_suite("pseudomonad", InstanceGenConfig(seed=0, count=2, max_set_size=2, enumeration_cap=5))
    skips = [(r["law"], r["instance"], r["detail"]) for r in rep.records if r["status"] == "skip"]
    detail = "dependent product fibre over 'code1a' would have 7 elements (cap 5)"
    assert skips == [("pseudomonad-pasting", "skewed", detail)]
    # the structure cells enumerate at most 3 elements and are checked
    # before the law cells (7) are built, so their pass precedes the skip
    skewed = [(r["law"], r["status"]) for r in rep.records if r["instance"] == "skewed"]
    assert skewed.index(("monad-structure-cartesian", "pass")) < skewed.index(("pseudomonad-pasting", "skip"))


# SHA-256 of io.dumps(report.to_jsonable()) at seed 1, count 8, size 3: six
# random universes (one with 4 codes) besides the built-ins.  Cap 5 trips
# the law cells of 3-code universes (7 elements); cap 10 trips the
# pseudoalgebra pasting (15) and the 4-code law cells (13).
CAPPED_GOLDEN = {
    ("pseudomonad", 100_000): "b2c13390b442b95235b0abd0b99be2c6ff006284fd3bc39d5dcb2609bbd317a4",
    ("pseudomonad", 5): "023cb27639ac04a8ce41342acb35c9cfb3e8c95cfec17a6fb0147c94e01427e8",
    ("pseudomonad", 10): "091b2643e0386937fda5db2e7346333e161fe5619a3c9e57e3c63db3eab44137",
    ("pseudoalgebra", 100_000): "0ad962620a75d4a085848309456499b9f0cf24e1e1187e47d81913533d6912d2",
    ("pseudoalgebra", 5): "d246e695e1dbaa312e46be0a7e8346473f56680b023c062d9585dbb5c3ced4eb",
    ("pseudoalgebra", 10): "5294e992e33476769638989dec0ac665758a43e97af4be031dd0df75b2a08aa1",
}


@pytest.mark.parametrize("name,cap", sorted(CAPPED_GOLDEN))
def test_universe_suites_match_golden_digests_under_a_cap(name, cap):
    import hashlib

    from polyverse import interchange as io

    rep = run_suite(name, InstanceGenConfig(seed=1, count=8, max_set_size=3, enumeration_cap=cap))
    digest = hashlib.sha256(io.dumps(rep.to_jsonable()).encode("utf-8")).hexdigest()
    assert digest == CAPPED_GOLDEN[(name, cap)]


def test_unit_whisker_extensions_match_carrier():
    """Both unit-law composites act on the carrier's extension with fibres
    of the same cardinality as the carrier's own extension."""
    from polyverse.finset import FinFamily, FinSet, TERMINAL
    from polyverse.naturalmodel import mk_bool_universe, monad_law_cells, poly_of
    from polyverse.poly import extend

    u = mk_bool_universe()
    cells = monad_law_cells(u)
    X = FinFamily(TERMINAL, {"*": FinSet(["x", "y"])})
    base = extend(poly_of(u), X).fibre("*")
    for name in ("eta_p", "p_eta"):
        cell = cells[name]
        assert cell.src == poly_of(u)
        assert len(extend(cell.src, X).fibre("*")) == len(base)
