import ast
import inspect
import re
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
from goldens import CAPPED_CONFIG, CAPPED_GOLDEN
from reference import recorded


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
    ``LAWS``, on every branch, and every key is used.  Every cap it enters is
    the run's, or the run's held to ``_DRAW_CAP``, and it defines no size
    estimator beside them."""
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
    caps = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "enumeration_cap"
    ]
    assert caps and set(caps) <= {
        "enumeration_cap(cfg.enumeration_cap)",
        "enumeration_cap(min(cfg.enumeration_cap, _DRAW_CAP))",
    }
    assert [name for name in vars(suites) if name.startswith("_estimate")] == []


@pytest.mark.parametrize("seed, size, detail", [(5, 3, ""), (32, 2, ""), (0, 1, "no pair to corrupt in 60 draws")])
def test_the_coherence_control_reports_only_a_real_failure(seed, size, detail):
    # the control's first pair at seed 5 has phi's vertex empty, so it draws
    # again; at seed 32 its adjustment hits neither of the first two elements
    # of psi's vertex.  At size 1 no pair has two vertex elements in psi, and
    # the control is a skip, not a pass that checked nothing
    rep = run_suite("coherence", InstanceGenConfig(seed=seed, count=1, max_set_size=size))
    status = "skip" if detail else "pass"
    assert [r for r in rep.records if r["law"] == "corrupted-adjustment-rejected"] == [
        {"law": "corrupted-adjustment-rejected", "instance": "control", "status": status, "detail": detail},
    ]
    assert rep.exit_code() == 0


@pytest.mark.parametrize("name", ["bicategory-laws", "extension-composition"])
def test_a_drawing_suite_refuses_an_oversized_draw_by_its_size(name):
    # at cap 50 the _guard of the build that would enumerate it refuses
    # attempt6, and the skip names the size and the cap
    count, size = CAPPED_CONFIG[name]
    rep = run_suite(name, InstanceGenConfig(seed=1, count=count, max_set_size=size, enumeration_cap=50))
    [skip] = [r for r in rep.records if r["status"] == "skip"]
    assert skip["instance"] == "attempt6"
    assert re.search(r"would have \d+ elements \(cap 50\)$", skip["detail"])


def test_a_draw_over_the_draw_cap_is_one_skip_under_the_default_cap():
    # attempt15 would build a dependent product fibre of 5 832 elements,
    # under the run's cap of 100 000 but over _DRAW_CAP
    rep = run_suite("extension-composition", InstanceGenConfig(seed=32, count=20, max_set_size=3))
    [skip] = [r for r in rep.records if r["status"] == "skip"]
    assert skip["detail"].endswith("would have 5832 elements (cap 3000)")
    assert {r["instance"] for r in rep.records} - {skip["instance"]} == {f"pair{n}" for n in range(20)}
    assert rep.failed == 0


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


def test_a_broken_internal_category_is_a_failed_law(monkeypatch):
    # the validator's refusal is the verdict of internal-category-laws,
    # recorded as a fail that ends the instance; nothing is raised
    from polyverse.internalcat import InternalCatError, InternalCategory

    def refuse(cat):
        raise InternalCatError("associativity fails")

    monkeypatch.setattr(InternalCategory, "_check", refuse)
    rep = run_suite("internal-equiv", InstanceGenConfig(seed=1, count=2, max_set_size=2))
    assert [(r["law"], r["instance"], r["status"], r["detail"]) for r in rep.records] == [
        ("internal-category-laws", f"inst{n}", "fail", "associativity fails") for n in range(2)
    ]
    assert rep.exit_code() == 1


@pytest.mark.parametrize("count, built", [(1, ["bool"]), (2, ["bool", "skewed"]), (3, ["bool", "skewed"])])
def test_lift_builds_only_the_universes_its_instances_draw(count, built):
    # instance n draws universe n % 2; each universe is built once per run
    with recorded(suites, "mk_bool_universe", "mk_skewed_universe") as calls:
        rep = run_suite("lift", InstanceGenConfig(seed=9, count=count, max_set_size=2))
    assert [name for name, _, _ in calls] == [f"mk_{u}_universe" for u in built] and rep.failed == 0


@pytest.mark.parametrize("name,cap", sorted(CAPPED_GOLDEN))
def test_universe_suites_match_golden_digests_under_a_cap(name, cap):
    import hashlib

    from polyverse import interchange as io

    count, size = CAPPED_CONFIG[name]
    rep = run_suite(name, InstanceGenConfig(seed=1, count=count, max_set_size=size, enumeration_cap=cap))
    digest = hashlib.sha256(io.dumps(rep.to_jsonable()).encode("utf-8")).hexdigest()
    assert digest == CAPPED_GOLDEN[(name, cap)]


def test_internal_equiv_sources_have_at_most_four_arities():
    """internal-equiv clips sizes to 2, so every polynomial it draws has at
    most 2 operations, and a cartesian source has the fibres of its target:
    at most 2 x 2 = 4 arities.  The suite relies on this bound unchecked."""
    import random

    from polyverse import generators as gen

    most = 0
    for seed in range(500):
        rng = random.Random(seed)
        for size in (1, 2):
            try:
                phi, _ = gen.rand_parallel_cartesian_pair(rng, size)
            except RuntimeError:
                continue
            chi = gen.rand_morphism(
                rng, size, cartesian=True, target=gen.rand_polynomial(rng, size, one_to_one=True)
            )
            outer = gen.rand_morphism(rng, size, cartesian=True, target=chi.src)
            arities = [len(P.B) for P in (phi.src, phi.dst, chi.src, chi.dst, outer.src)]
            assert max(arities) <= 4, (seed, size, arities)
            most = max(most, *arities)
    assert most == 4


def test_unit_whisker_extensions_match_carrier():
    """Both unit-law composites act on the carrier's extension with fibres
    of the same cardinality as the carrier's own extension."""
    from polyverse.finset import FinFamily, FinSet, TERMINAL
    from polyverse.naturalmodel import mk_bool_universe, monad_law_cells, sigma_structure, unit_structure
    from polyverse.poly import extend, from_map

    u = mk_bool_universe()
    cells = monad_law_cells(unit_structure(u), sigma_structure(u))
    X = FinFamily(TERMINAL, {"*": FinSet(["x", "y"])})
    base = extend(from_map(u.p), X).fibre("*")
    for name in ("eta_p", "p_eta"):
        cell = cells[name]
        assert cell.src == from_map(u.p)
        assert len(extend(cell.src, X).fibre("*")) == len(base)
