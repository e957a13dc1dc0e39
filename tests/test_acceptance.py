"""Acceptance criteria, one test per criterion.

Each test runs the corresponding suite at the required scale, asserts that
every law check passed exactly, and prints a single PASS/FAIL line (run
pytest with ``-s`` to see them).  All tolerances are exact; the stated
runtime budgets are asserted as upper bounds.  Each report must also match
its golden SHA-256 digest, which guards the report bytes against any change
of representation underneath.
"""

import hashlib
import time

from polyverse import interchange as io
from polyverse.suites import InstanceGenConfig, run_suite
from reference import every_construction_checked
from test_cli import CLI_GOLDEN, cli_golden_digests
from test_interchange import FOURFOLD_GOLDEN, _fourfold
from test_suites import CAPPED_CONFIG, CAPPED_GOLDEN

# SHA-256 of io.dumps(report.to_jsonable()) at each acceptance config
GOLDEN = {
    "extension-composition": "bada0a3bb79eb1a779dcb5ea4730e6d2a2754ff69f37dd6565efc6789c3b319c",
    "unique-adjustment": "cd1c9ea0d2e17e19e48d9301428e0c680fae2bd81e0623272c34c5275a9d1abd",
    "coherence": "312738b1c17798ffa07017ae72061eae0f260ba10196dfaa6e24b9f0adf9b0d2",
    "internal-equiv": "ae7cd0e87cba644dab8e16906f29f50d9b79c90f807358c8424638f5d0306b49",
    "pseudomonad": "a9cde6711012d6e2662380e19f49df898e666b1b330948a33d56c2e238199088",
    "pseudoalgebra": "425ec6b38541d00c08b177b7709537e06ad3c28bdde39e8ca2d736f474093a08",
    "type-isos": "cac32ba1f8a21b27c20700782a25de9afc5fc9dbf8977073d9e138473d1e3703",
    "lift": "0dc7c416fde25feedc1c941d82279c2910949d0ad683aabf35531d00233e13c6",
    "slice-reduction": "335997465c1cf6b3375d0a7342a223646949cfc7e1d64cc990c11444c0f2b746",
}


# each criterion's acceptance config
CONFIGS = {
    "extension-composition": InstanceGenConfig(seed=42, count=50, max_set_size=3),
    "unique-adjustment": InstanceGenConfig(seed=7, count=100, max_set_size=3),
    "coherence": InstanceGenConfig(seed=11, count=20, max_set_size=3),
    "internal-equiv": InstanceGenConfig(seed=3, count=20, max_set_size=2),
    "pseudomonad": InstanceGenConfig(seed=1, count=2, max_set_size=3),
    "pseudoalgebra": InstanceGenConfig(seed=1, count=2, max_set_size=3),
    "type-isos": InstanceGenConfig(seed=1, count=2, max_set_size=3),
    "lift": InstanceGenConfig(seed=9, count=30, max_set_size=2),
    "slice-reduction": InstanceGenConfig(seed=2, count=30, max_set_size=3),
}


def _digest(rep) -> str:
    return hashlib.sha256(io.dumps(rep.to_jsonable()).encode("utf-8")).hexdigest()


def _run(criterion, name, budget_seconds):
    start = time.perf_counter()
    rep = run_suite(name, CONFIGS[name])
    elapsed = time.perf_counter() - start
    ok = rep.failed == 0 and rep.passed > 0
    print(
        f"{'PASS' if ok else 'FAIL'} criterion {criterion}: suite={name} "
        f"passed={rep.passed} failed={rep.failed} skipped={rep.skipped} "
        f"elapsed={elapsed:.1f}s"
    )
    assert ok, [r for r in rep.records if r["status"] == "fail"]
    assert elapsed < budget_seconds, f"ran {elapsed:.1f}s, budget {budget_seconds}s"
    assert _digest(rep) == GOLDEN[name], f"report of {name} differs from its golden digest"
    return rep


def _passes(rep, law):
    return sum(1 for r in rep.records if r["law"] == law and r["status"] == "pass")


def test_criterion_1_extension_composition():
    # >= 50 seeded pairs, all sets <= 3, >= 3 families each, naturality
    # against >= 2 fibrewise maps per instance, bijections exact
    rep = _run(1, "extension-composition", 60)
    assert _passes(rep, "extension-composite-bijection") >= 50
    assert _passes(rep, "extension-composite-naturality") >= 50


def test_criterion_2_unique_adjustment():
    # >= 100 seeded parallel pairs with cartesian target and vertex <= 4:
    # exhaustive search finds exactly one adjustment, the closed form
    rep = _run(2, "unique-adjustment", 30)
    assert _passes(rep, "unique-adjustment") >= 100


def test_criterion_3_coherence():
    # pentagon and triangle as literal map equalities on >= 20 seeded
    # instances of one-to-one polynomials with sets <= 3
    rep = _run(3, "coherence", 120)
    assert _passes(rep, "pentagon") >= 20
    assert _passes(rep, "triangle") >= 20


def test_criterion_4_internal_categories():
    # category laws, functoriality, full-and-faithfulness and the four-way
    # equivalence, exhaustively on >= 20 seeded instances with |B| <= 4
    rep = _run(4, "internal-equiv", 60)
    assert _passes(rep, "internal-category-laws") >= 20
    assert _passes(rep, "four-way-equivalence") >= 20


def test_criterion_5_pseudomonad_pseudoalgebra():
    # the two built-in universes: one strict everywhere, one with a broken
    # strict right unit but a unique invertible adjustment, and all pasting
    # equations holding after substitution
    rep_m = _run(5, "pseudomonad", 30)
    rep_a = _run(5, "pseudoalgebra", 30)
    assert _passes(rep_m, "strictness-profile") == 2
    assert _passes(rep_m, "pseudomonad-pasting") == 2
    assert _passes(rep_m, "corrupted-universe-rejected") == 1
    assert _passes(rep_a, "strictness-profile") == 2
    assert _passes(rep_a, "pseudoalgebra-pasting") == 2


def test_criterion_6_type_isomorphisms():
    # all five rows for both built-in universes, as explicit bijections over
    # the exhaustive space of code choices
    from polyverse.naturalmodel import mk_bool_universe, mk_skewed_universe, verify_type_isos

    rep = _run(6, "type-isos", 10)
    assert _passes(rep, "type-isomorphisms") == 2
    for u in (mk_bool_universe(), mk_skewed_universe()):
        summary = verify_type_isos(u)
        rows = [k for k, v in summary.items() if isinstance(v, dict)]
        assert len(rows) == 5
        assert all(summary[row]["checked"] > 0 for row in rows)


def test_criterion_7_lift():
    # identities, composites and pullback preservation on >= 30 seeded
    # cartesian squares; unit and multiplication squares are pullbacks
    rep = _run(7, "lift", 60)
    assert _passes(rep, "lift-preserves-pullbacks") >= 30
    assert _passes(rep, "lift-unit-mult-squares") >= 30
    assert _passes(rep, "lift-monad-laws") >= 30


def test_criterion_8_slice_reduction():
    # reduction and its inverse round-trip on >= 30 seeded polynomials and
    # morphisms with general endpoints, preserving cartesianness both ways
    rep = _run(8, "slice-reduction", 30)
    assert _passes(rep, "slice-roundtrip") >= 60
    assert _passes(rep, "slice-cartesian-iff") >= 30


def test_criterion_9_determinism():
    # rerunning any suite with the same seed and configuration produces a
    # byte-identical report
    ok = True
    for name, cfg in [
        ("unique-adjustment", InstanceGenConfig(seed=7, count=25, max_set_size=3)),
        ("type-isos", InstanceGenConfig(seed=1, count=3, max_set_size=3)),
        ("coherence", InstanceGenConfig(seed=11, count=5, max_set_size=3)),
    ]:
        a = io.dumps(run_suite(name, cfg).to_jsonable())
        b = io.dumps(run_suite(name, cfg).to_jsonable())
        ok = ok and a == b
    print(f"{'PASS' if ok else 'FAIL'} criterion 9: byte-identical reports")
    assert ok


def test_goldens_hold_with_every_cell_checked(tmp_path):
    # every set, map, family, family morphism and cell the library builds
    # unchecked goes through a check instead: each one must pass, and no
    # byte of a golden report, record or CLI output may move
    with every_construction_checked() as checked:
        for name, cfg in CONFIGS.items():
            assert _digest(run_suite(name, cfg)) == GOLDEN[name], name
        for (name, cap), golden in CAPPED_GOLDEN.items():
            count, size = CAPPED_CONFIG[name]
            cfg = InstanceGenConfig(seed=1, count=count, max_set_size=size, enumeration_cap=cap)
            assert _digest(run_suite(name, cfg)) == golden, (name, cap)
        text = io.dumps(io.polynomial_to_json(_fourfold()))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FOURFOLD_GOLDEN
        assert cli_golden_digests(tmp_path) == CLI_GOLDEN
    assert set(checked) == {"FinSet", "FinMap", "FinFamily", "FamilyMorphism", "PolyMorphism"}
