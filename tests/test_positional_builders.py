"""The builders that read positions agree with the label-level oracles.

``compose``, ``extend_map``, ``extension_composition_iso`` and
``slice_reduce`` in ``poly``, ``h_comp``, ``associator``, ``extend_cell``,
``slice_reduce_cell`` and ``slice_unreduce_cell`` in ``poly2``,
``lift_apply``, the lifted unit and multiplication and the structure cells
``sigma_structure`` and ``pi_structure`` in ``naturalmodel``,
and the internal full subcategories, internal functors and their law checks
in ``internalcat`` compute positions and build their maps unchecked.  Each
is compared with its label-level version in ``tests/reference.py``: on
generator draws, and on every call (every build, for a builder built once)
a suite makes at the configs of acceptance criteria 1, 3, 4, 5, 7 and 8; a
composite's trace must also pick the same ``Q`` positions.
Every map and family morphism they build unchecked passes the checked
constructor and gives an equal value, and the law checks refuse corrupted
data with the same message as the label-level checks.
"""

import random
from contextlib import ExitStack

import pytest

from polyverse import internalcat, naturalmodel, poly, poly2
from polyverse.finset import (
    TERMINAL,
    EnumerationCapExceeded,
    FamilyMorphism,
    FinFamily,
    FinMap,
    FinSet,
    enumeration_cap,
    _shared_builds,
)
from polyverse.generators import (
    rand_cartesian_square,
    rand_composable_pair,
    rand_family,
    rand_family_morphism,
    rand_morphism,
    rand_parallel_cartesian_pair,
    rand_parallel_pair,
    rand_universe,
)
from polyverse.internalcat import InternalCatError, InternalCategory, InternalFunctor
from polyverse.naturalmodel import mk_bool_universe, mk_skewed_universe
from polyverse.poly import compose, from_map
from polyverse.poly2 import extend_cell, identity_cell
from polyverse.suites import run_suite
from reference import (
    associator_on_labels,
    cell_from_square_on_labels,
    check_internal_category_on_labels,
    compose_on_labels,
    check_internal_functor_on_labels,
    constant,
    extend_cell_on_labels,
    extend_map_on_labels,
    extension_composition_iso_on_labels,
    h_comp_on_labels,
    internal_full_subcat_on_labels,
    internal_functor_on_labels,
    lift_apply_on_labels,
    mult_on_labels,
    pi_structure_on_labels,
    recorded,
    replaced,
    slice_reduce_cell_on_labels,
    slice_reduce_on_labels,
    sigma_structure_on_labels,
    slice_unreduce_cell_on_labels,
    unit_on_labels,
)
from goldens import CONFIGS

ORACLES = {
    "compose": compose_on_labels,
    "extend_map": extend_map_on_labels,
    "extension_composition_iso": extension_composition_iso_on_labels,
    "slice_reduce": slice_reduce_on_labels,
    "h_comp": h_comp_on_labels,
    "associator": associator_on_labels,
    "extend_cell": extend_cell_on_labels,
    "slice_reduce_cell": slice_reduce_cell_on_labels,
    "slice_unreduce_cell": slice_unreduce_cell_on_labels,
    "lift_apply": lift_apply_on_labels,
    "internal_full_subcat": internal_full_subcat_on_labels,
    "internal_functor": internal_functor_on_labels,
}


def _extension_draws(seed: int, count: int):
    """Composable pairs with a family and a fibrewise map of it, kept when
    their extensions stay under a cap of 4000."""
    rng = random.Random(seed)
    while count:
        F, G = rand_composable_pair(rng, 3)
        X = rand_family(rng, F.I, 3)
        h = rand_family_morphism(rng, X, 3)
        try:
            with enumeration_cap(4000):
                poly.extension_composition_iso(G, F, X)
                poly.extension_composition_iso(G, F, h.dst)
        except EnumerationCapExceeded:
            continue
        count -= 1
        yield G, F, X, h


def _cell_draws(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        phi, psi = rand_parallel_pair(rng, 3, max_vertex=6)
        outer = rand_morphism(rng, 3)
        inner = rand_morphism(rng, 3, target=outer.src)
        yield phi, psi, outer, inner, rand_family(rng, inner.src.I, 2)


def _cartesian_draws(seed: int, count: int):
    rng = random.Random(seed)
    while count:
        try:
            phi, psi = rand_parallel_cartesian_pair(rng, 2)
        except RuntimeError:
            continue
        count -= 1
        yield phi, psi


def _lift_draws(seed: int, count: int):
    rng = random.Random(seed)
    lifts = [from_map(u.p) for u in (mk_bool_universe(), mk_skewed_universe())]
    for n in range(count):
        sq = rand_cartesian_square(rng, 2)
        yield lifts[n % 2], sq


def _calls_of_each_builder():
    """Every builder call on the draws, as ``(name, args)``."""
    for G, F, X, h in _extension_draws(1, 25):
        GF, _ = compose(G, F)
        yield "compose", (G, F)
        yield "extension_composition_iso", (G, F, X)
        yield "extension_composition_iso", (G, F, h.dst)
        for P in (F, G, GF):
            yield "slice_reduce", (P,)
        for P, k in ((F, h), (GF, h)):
            yield "extend_map", (P, k)
        yield "extend_map", (G, poly.extend_map(F, h))
    for phi, psi, outer, inner, X in _cell_draws(2, 25):
        for cell in (phi, psi, outer, inner, poly2.v_comp(outer, inner)):
            yield "slice_reduce_cell", (cell,)
            yield "slice_unreduce_cell", (poly2.slice_reduce_cell(cell),)
        for cell in (outer, inner, identity_cell(inner.src)):
            try:
                with enumeration_cap(4000):
                    extend_cell(cell, X)
            except EnumerationCapExceeded:
                continue
            yield "extend_cell", (cell, X)
    for phi, psi in _cartesian_draws(3, 25):
        for cell in (phi, psi):
            yield "internal_full_subcat", (cell.src.f,)
            yield "internal_functor", (cell,)
        yield "h_comp", (phi, psi)
        yield "associator", (phi.src, psi.dst, phi.dst)
    for t, sq in _lift_draws(4, 25):
        for f in (sq.src, sq.dst, sq.top, sq.bot):
            yield "lift_apply", (t, f)
            yield "lift_apply", (t, naturalmodel.lift_apply(t, f))


MODULES = {
    "compose": poly, "extend_map": poly, "extension_composition_iso": poly, "slice_reduce": poly, "h_comp": poly2,
    "associator": poly2, "extend_cell": poly2, "slice_reduce_cell": poly2, "slice_unreduce_cell": poly2,
    "lift_apply": naturalmodel,
    "internal_full_subcat": internalcat, "internal_functor": internalcat,
}


def test_the_builders_agree_with_the_label_level_oracles_on_generator_draws():
    seen = set()
    with _shared_builds():
        for name, args in _calls_of_each_builder():
            seen.add(name)
            assert _agrees(name, getattr(MODULES[name], name)(*args), ORACLES[name](*args)), name
    assert seen == set(ORACLES)


def _agrees(name: str, out, expected) -> bool:
    """Equal results; for ``compose``, traces whose operations also pick
    the same ``Q`` positions."""
    return out == expected and (name != "compose" or out[1].picks == expected[1].picks)


def test_the_oracle_composite_picks_q_elements_as_they_are():
    # the fibres of Q over G's arities keep Q's pairs (a, d), so an operation
    # of G.F is its outer operation with the pair picked at each arity
    F = from_map(FinMap(FinSet(["b0", "b1"]), FinSet(["a0", "a1"]), {"b0": "a0", "b1": "a1"}))
    G = from_map(constant(FinSet(["d"]), FinSet(["c"]), "c"))
    GF, trace = compose_on_labels(G, F)
    assert GF.A.elements == (("c", (("d", ("a0", "d")),)), ("c", (("d", ("a1", "d")),)))
    assert trace.picks == [(0,), (1,)]


def _recorded(suite: str, names: list) -> list:
    """Run ``suite`` at its acceptance config with each builder in ``names``
    recorded, as ``[name, args, result]``."""
    with ExitStack() as stack:
        calls = [stack.enter_context(recorded(MODULES[name], name)) for name in names]
        rep = run_suite(suite, CONFIGS[suite])
    assert rep.failed == 0
    return [call for named in calls for call in named]


@pytest.mark.parametrize("suite, names", [
    ("extension-composition", ["compose", "extension_composition_iso", "extend_map"]),
    ("coherence", ["compose", "h_comp", "associator"]),
    ("internal-equiv", ["internal_full_subcat", "internal_functor"]),
    ("lift", ["lift_apply"]),
    ("slice-reduction", ["slice_reduce", "slice_reduce_cell", "slice_unreduce_cell"]),
], ids=["criterion-1", "criterion-3", "criterion-4", "criterion-7", "criterion-8"])
def test_every_call_at_the_acceptance_configs_agrees_with_its_oracle(suite, names):
    calls = _recorded(suite, names)
    assert {name for name, _, _ in calls} == set(names)
    for name, args, out in calls:
        assert _agrees(name, out, ORACLES[name](*args)), name


@pytest.mark.parametrize("suite", ["pseudomonad", "pseudoalgebra", "lift"], ids=[
    "criterion-5-pseudomonad", "criterion-5-pseudoalgebra", "criterion-7",
])
def test_every_square_made_a_cell_at_the_acceptance_configs_agrees_with_its_oracle(suite):
    # cell_from_square checks the pullback on the vertex it builds; the
    # oracle checks the universal property first and builds the vertex after.
    # At criterion 3 the cells of h_comp and the associator are compared with
    # their oracles, which build them with cell_from_square_on_labels, above.
    with recorded(poly2, "cell_from_square") as calls:
        rep = run_suite(suite, CONFIGS[suite])
    assert rep.failed == 0 and calls
    for _, args, out in calls:
        assert out == cell_from_square_on_labels(*args)


LIFTED_ORACLES = {"lift_unit": unit_on_labels, "lift_mult": mult_on_labels}


def test_the_lifted_unit_and_mult_agree_with_the_label_level_oracles_on_generator_universes():
    rng = random.Random(8)
    universes = [mk_bool_universe(), mk_skewed_universe()] + [rand_universe(rng, 3) for _ in range(6)]
    sets = [FinSet(), TERMINAL, FinSet(["x", "y"]), FinSet(["x", ("y", "z"), "*"])]
    with _shared_builds():
        for u in universes:
            cells = {"lift_unit": naturalmodel.unit_structure(u), "lift_mult": naturalmodel.sigma_structure(u)}
            for Z in sets:
                for name, oracle in LIFTED_ORACLES.items():
                    assert getattr(naturalmodel, name)(cells[name], Z) == oracle(cells[name], Z), name


@pytest.mark.parametrize("suite", ["pseudoalgebra", "lift"], ids=["criterion-5", "criterion-7"])
def test_every_lifted_unit_and_mult_at_the_acceptance_configs_agrees_with_its_oracle(suite):
    with recorded(naturalmodel, *LIFTED_ORACLES) as calls:
        rep = run_suite(suite, CONFIGS[suite])
    assert rep.failed == 0
    assert {name for name, _, _ in calls} == set(LIFTED_ORACLES)
    for name, args, out in calls:
        assert out == LIFTED_ORACLES[name](*args), name


def test_the_structure_cells_agree_with_the_label_level_oracles_on_generator_universes():
    rng = random.Random(10)
    draws = [rand_universe(rng, size) for size in (3, 4) for _ in range(20)]
    for u in [mk_bool_universe(), mk_skewed_universe(), *draws]:
        assert naturalmodel.sigma_structure(u) == sigma_structure_on_labels(u)
        assert naturalmodel.pi_structure(u) == pi_structure_on_labels(u)


def test_every_unchecked_map_passes_the_checked_constructors():
    with recorded(FinMap, "_of") as maps, recorded(FamilyMorphism, "_of") as morphisms, _shared_builds():
        for name, args in _calls_of_each_builder():
            getattr(MODULES[name], name)(*args)
    assert maps and morphisms
    for _, _, m in maps:
        assert FinMap(m.dom, m.cod, dict(m.pairs)) == m
    for _, _, h in morphisms:
        assert FamilyMorphism(h.src, h.dst, h.maps) == h


def test_the_backward_bijection_is_read_off_its_own_tables():
    """With the trace's picks swapped between the two operations of ``G.F``
    after its ``*_at`` tables were built, the forward map is another
    bijection, and the backward one, read off those tables, is unchanged and
    no longer inverts it."""
    F = from_map(FinMap(FinSet(["b0", "b1"]), FinSet(["a0", "a1"]), {"b0": "a0", "b1": "a1"}))
    G = from_map(constant(FinSet(["d"]), FinSet(["c"]), "c"))
    X = FinFamily(TERMINAL, {"*": FinSet(["x", "y"])})
    with _shared_builds():
        fwd, bwd = poly.extension_composition_iso(G, F, X)
        _, trace = compose(G, F)
        trace.__dict__["picks"] = trace.picks[::-1]
        fwd2, bwd2 = poly.extension_composition_iso(G, F, X)
    assert fwd2 != fwd and fwd2.at("*").is_bijection()
    assert bwd2 == bwd
    assert bwd2.at("*").after(fwd2.at("*")) != FinMap.identity(fwd.src.fibre("*"))


def _swapped(m: FinMap, i: int, j: int) -> FinMap:
    img = list(m.img)
    img[i], img[j] = img[j], img[i]
    return FinMap._of(m.dom, m.cod, tuple(img))


def _refusal(check) -> str | None:
    try:
        check()
    except InternalCatError as exc:
        return str(exc)
    return None


def _swaps(rng, m: FinMap, count: int) -> list:
    """Up to ``count`` pairs of positions of ``m`` with different images."""
    pairs = [(i, j) for i in range(len(m.img)) for j in range(i) if m.img[i] != m.img[j]]
    return rng.sample(pairs, min(count, len(pairs)))


def test_the_law_checks_refuse_what_the_label_checks_refuse():
    """Each structure map of a category, and each functor's action on
    morphisms, with two images swapped: the positional checks at
    construction and the label-level ones give the same verdict and message."""
    rng = random.Random(5)
    refusals = set()
    for phi, _ in _cartesian_draws(6, 12):
        cat, fun = internalcat.internal_full_subcat(phi.src.f), internalcat.internal_functor(phi)
        fields = {k: getattr(cat, k) for k in InternalCategory._fields}
        for key in ("dom", "cod", "ident", "comp"):
            for i, j in _swaps(rng, fields[key], 6):
                bad = {**fields, key: _swapped(fields[key], i, j)}
                expected = _refusal(lambda: check_internal_category_on_labels(InternalCategory._of(*bad.values())))
                assert _refusal(lambda: InternalCategory(**bad)) == expected
                refusals.add(expected)
        for i, j in _swaps(rng, fun.on_mor, 6):
            on_mor = _swapped(fun.on_mor, i, j)
            bad = InternalFunctor._of(fun.src, fun.dst, fun.on_obj, on_mor)
            expected = _refusal(lambda: check_internal_functor_on_labels(bad))
            assert _refusal(lambda: replaced(fun, on_mor=on_mor)) == expected
            refusals.add(expected)
    assert len(refusals) >= 5, refusals
