"""Every law decider can answer false.

A decider that always answers true leaves the same report bytes as a law
that holds, so the golden digests cannot tell the two apart.  Each entry of
``REFUTATIONS`` is keyed by a law id of ``suites.LAWS`` and builds a small
input by hand on which the decider that settles that law answers false.
For a theorem (the pasting laws, for instance) the entry refutes the
decider on inputs outside the theorem's hypotheses, not the law itself.
Where the decider is a suite's own comparison (the slice laws), the entry
runs the suite with the hand-built input in place of its draw.
"""

from dataclasses import replace
from unittest import mock

import pytest

from polyverse import generators, suites
from polyverse.finset import FinMap, FinSet, Square
from polyverse.internalcat import InternalCatError, InternalFunctor, internal_full_subcat
from polyverse.naturalmodel import (
    Universe, UniverseError, _paths_agree, mk_bool_universe, mk_skewed_universe,
    sigma_structure, validate_universe, verify_type_isos,
)
from polyverse.poly import PolyError, Polynomial, compose, from_map
from polyverse.poly2 import Adjustment, PolyMorphism, identity_cell, slice_reduce_cell
from polyverse.suites import LAWS, InstanceGenConfig, run_suite


def _square_that_is_not_a_pullback() -> bool:
    # two points over one point, onto a one-point map: the square commutes,
    # but the pullback of the cospan has one element, not two
    src = FinMap.constant(FinSet(["b1", "b2"]), FinSet(["a"]), "a")
    dst = FinMap.constant(FinSet(["d"]), FinSet(["c"]), "c")
    sq = Square(src, dst, FinMap.constant(src.dom, dst.dom, "d"), FinMap.constant(src.cod, dst.cod, "c"))
    return sq.is_pullback()


def _cell_with_two_vertex_elements_over_one_arity() -> PolyMorphism:
    """A cell from ``{b} -> {a}`` to ``{d1, d2} -> {c}`` whose vertex has
    two elements over the one source arity; its vertex maps over the arities
    are all the maps of the vertex to itself."""
    F = from_map(FinMap.constant(FinSet(["b"]), FinSet(["a"]), "a"))
    G = from_map(FinMap.constant(FinSet(["d1", "d2"]), FinSet(["c"]), "c"))
    vertex = FinSet([("a", "d1"), ("a", "d2")])
    return PolyMorphism(
        F, G, vertex,
        FinMap.constant(F.A, G.A, "c"),
        FinMap(vertex, G.B, {("a", "d1"): "d1", ("a", "d2"): "d2"}),
        FinMap.constant(vertex, F.B, "b"),
    )


def _adjustment(phi: PolyMorphism, table: dict) -> Adjustment:
    return Adjustment(phi, phi, FinMap(phi.dphi, phi.dphi, table))


def _paths_that_paste_to_different_maps() -> bool:
    # X -> Y directly by the swap, or X -> Z -> Y by two identities
    phi = _cell_with_two_vertex_elements_over_one_arity()
    e1, e2 = phi.dphi.elements
    swap = _adjustment(phi, {e1: e2, e2: e1})
    ident = _adjustment(phi, {e1: e1, e2: e2})
    edges = {("X", "Y"): swap, ("X", "Z"): ident, ("Z", "Y"): ident}
    return _paths_agree(lambda x, y: edges[(x, y)], ("X", "Y"), ("X", "Z", "Y"))


def _adjustment_that_is_not_invertible() -> bool:
    phi = _cell_with_two_vertex_elements_over_one_arity()
    e1, e2 = phi.dphi.elements
    return _adjustment(phi, {e1: e1, e2: e1}).is_invertible()


def _functor_that_is_not_full() -> bool:
    # the one-object category with only the identity, sent to the object of
    # a two-element fibre: hom(c, c) has four maps and only the identity is hit
    one = internal_full_subcat(FinMap(FinSet(), FinSet(["a"]), {}))
    two = internal_full_subcat(FinMap.constant(FinSet(["x", "y"]), FinSet(["c"]), "c"))
    on_obj = FinMap.constant(one.obj, two.obj, "c")
    on_mor = FinMap.constant(one.mor, two.mor, two.ident("c"))
    return InternalFunctor(one, two, on_obj, on_mor).is_fully_faithful()


def _bool_universe_with_a_broken_sum() -> Universe:
    # every sum lands on the empty code, so the one-element type's sum over
    # itself has a fibre of the wrong size
    u = mk_bool_universe()
    sigma = {k: "code0" for k, _ in u.sigma}
    return Universe(u.codes, u.el, u.unit_code, sigma, dict(u.pi))


def _universe_that_is_not_valid() -> bool:
    return validate_universe(_bool_universe_with_a_broken_sum()) == []


def _cell_that_is_not_cartesian() -> bool:
    return _cell_with_two_vertex_elements_over_one_arity().is_cartesian()


def _refused(u: Universe) -> bool:
    """The verdict of the corrupted-universe control: is ``u`` refused?"""
    try:
        sigma_structure(u)
    except UniverseError:
        return True
    return False


def _sound_universe_refused() -> bool:
    return _refused(mk_bool_universe())


class _PaddedUniverse(Universe):
    """The skewed universe, but listing a second term of its unit code that
    El does not have.  The unit code is never a sum or product code, so the
    universe still validates and every pairing is still a bijection; only
    the rows whose bijections end in the unit code see the extra term."""

    def term_fibre(self, code) -> FinSet:
        fibre = super().term_fibre(code)
        if code != self.unit_code:
            return fibre
        return FinSet([*fibre, (code, "extra")])


def _type_isos_onto_a_padded_fibre() -> bool:
    u = mk_skewed_universe()
    return verify_type_isos(_PaddedUniverse(u.codes, u.el, u.unit_code, u.sigma, u.pi))["ok"]


def _holds(error, build) -> bool:
    """The verdict a suite records for a validator: does ``build()`` return
    without raising ``error``?"""
    try:
        build()
    except error:
        return False
    return True


def _trace_with_a_square_that_is_not_a_pullback():
    """The composite of ``{b} -> {a}`` and ``{d1, d2} -> {c}`` with its trace
    corrupted: Q has the two pairs (a, d1) and (a, d2), but the recorded
    projection to the outer arities sends both to d1."""
    F = from_map(FinMap.constant(FinSet(["b"]), FinSet(["a"]), "a"))
    G = from_map(FinMap.constant(FinSet(["d1", "d2"]), FinSet(["c"]), "c"))
    _, trace = compose(G, F)
    return G, F, trace, replace(trace, h=FinMap.constant(trace.Q, G.B, "d1"))


def _trace_that_does_not_revalidate() -> bool:
    G, F, _, broken = _trace_with_a_square_that_is_not_a_pullback()
    return _holds(PolyError, lambda: broken.validate(G, F))


def _category_with_constant_composition() -> bool:
    # the four endomaps of a two-element fibre, every composite set to the
    # identity: the endpoints fit, the unit law does not
    cat = internal_full_subcat(FinMap.constant(FinSet(["x", "y"]), FinSet(["c"]), "c"))
    comp = FinMap.constant(cat.comp.dom, cat.mor, cat.ident("c"))
    return _holds(InternalCatError, lambda: replace(cat, comp=comp))


def _polynomial_over_two_base_points() -> Polynomial:
    """I = {i0, i1}, J = {j}: the arities b0 and b1 lie over (i0, j) and
    both go to the one operation a; b2 lies over (i1, j)."""
    I, J = FinSet(["i0", "i1"]), FinSet(["j"])
    B, A = FinSet(["b0", "b1", "b2"]), FinSet(["a"])
    return Polynomial(
        I, B, A, J,
        FinMap(B, I, {"b0": "i0", "b1": "i0", "b2": "i1"}),
        FinMap.constant(B, A, "a"),
        FinMap.constant(A, J, "j"),
    )


def _slice_verdict(law: str, instance: str, phi2_at_i0) -> bool:
    """The verdict ``slice-reduction`` records for ``law`` when it draws the
    identity on ``_polynomial_over_two_base_points`` as its parallel pair,
    and its fibre cell over (i0, j) is swapped for a valid cell with the same
    endpoints and vertex, whose map to the source arities is
    ``phi2_at_i0``."""
    phi = identity_cell(_polynomial_over_two_base_points())

    def reduce(cell):
        cells = slice_reduce_cell(cell)
        if cell is phi:
            c = cells[("i0", "j")]
            phi2 = FinMap(c.dphi, c.src.B, phi2_at_i0)
            cells[("i0", "j")] = PolyMorphism(c.src, c.dst, c.dphi, c.phi0, c.phi1, phi2)
        return cells

    with mock.patch.object(generators, "rand_parallel_pair", return_value=(phi, phi)), \
            mock.patch.object(suites, "slice_reduce_cell", reduce):
        rep = run_suite("slice-reduction", InstanceGenConfig(seed=0, count=1, max_set_size=2))
    [status] = [r["status"] for r in rep.records if (r["law"], r["instance"]) == (law, instance)]
    return status == "pass"


def _fibre_cell_swapped_for_another() -> bool:
    # the arities over (i0, j) swapped: still a cell, but not the one reduced
    return _slice_verdict("slice-roundtrip", "inst0-cell", {"b0": "b1", "b1": "b0"})


def _fibre_cell_swapped_for_a_non_cartesian_one() -> bool:
    # both vertex elements over (i0, j) sent to b0: the reduced cell is
    # cartesian, one of its fibre cells is not
    return _slice_verdict("slice-cartesian-iff", "inst0", {"b0": "b0", "b1": "b0"})


REFUTATIONS = {
    "lift-preserves-pullbacks": _square_that_is_not_a_pullback,
    "lift-unit-mult-squares": _square_that_is_not_a_pullback,
    "cartesian-naturality-pullback": _square_that_is_not_a_pullback,
    "pseudomonad-pasting": _paths_that_paste_to_different_maps,
    "pseudoalgebra-pasting": _paths_that_paste_to_different_maps,
    "pentagon": _adjustment_that_is_not_invertible,
    "internal-fully-faithful": _functor_that_is_not_full,
    "universe-validates": _universe_that_is_not_valid,
    "monad-structure-cartesian": _cell_that_is_not_cartesian,
    "corrupted-universe-rejected": _sound_universe_refused,
    "type-isomorphisms": _type_isos_onto_a_padded_fibre,
    "trace-revalidates": _trace_that_does_not_revalidate,
    "internal-category-laws": _category_with_constant_composition,
    "slice-roundtrip": _fibre_cell_swapped_for_another,
    "slice-cartesian-iff": _fibre_cell_swapped_for_a_non_cartesian_one,
}


def test_refutations_are_keyed_by_law_ids():
    assert set(REFUTATIONS) <= set(LAWS)


@pytest.mark.parametrize("law", sorted(REFUTATIONS))
def test_the_decider_of_each_law_can_answer_false(law):
    assert REFUTATIONS[law]() is False


def test_the_hand_built_inputs_also_admit_a_true_answer():
    """The deciders are not simply false on these shapes."""
    phi = _cell_with_two_vertex_elements_over_one_arity()
    e1, e2 = phi.dphi.elements
    swap = _adjustment(phi, {e1: e2, e2: e1})
    assert swap.is_invertible()
    edges = {("X", "Y"): swap, ("X", "Z"): swap, ("Z", "Y"): _adjustment(phi, {e1: e1, e2: e2})}
    assert _paths_agree(lambda x, y: edges[(x, y)], ("X", "Y"), ("X", "Z", "Y"))
    src = FinMap.constant(FinSet(["b"]), FinSet(["a"]), "a")
    assert Square.identity(src).is_pullback()
    two = internal_full_subcat(FinMap.constant(FinSet(["x", "y"]), FinSet(["c"]), "c"))
    assert InternalFunctor.identity(two).is_fully_faithful()
    assert validate_universe(mk_bool_universe()) == []
    assert sigma_structure(mk_bool_universe()).is_cartesian()
    assert _refused(_bool_universe_with_a_broken_sum())
    assert verify_type_isos(mk_skewed_universe())["ok"]
    G, F, trace, _ = _trace_with_a_square_that_is_not_a_pullback()
    assert _holds(PolyError, lambda: trace.validate(G, F))
    assert _holds(InternalCatError, lambda: internal_full_subcat(two.source))
    for law, instance in (("slice-roundtrip", "inst0-cell"), ("slice-cartesian-iff", "inst0")):
        assert _slice_verdict(law, instance, {"b0": "b0", "b1": "b1"})
