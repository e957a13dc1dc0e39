"""Every law's record can read false.

A decider that always answers true leaves the same report bytes as a law
that holds, so the golden digests cannot tell the two apart.  Each entry of
``REFUTATIONS`` is keyed by a law id of ``suites.LAWS``, and every law has
one.  Each entry runs the suite that checks the law, with a hand-built draw
or a patched builder, and reads the status it records.  For a theorem (the
pasting laws, for instance) the entry refutes the decider on inputs outside
the theorem's hypotheses, not the law itself: for the two adjustment counts
a parallel pair whose target is not cartesian, and for the naturality
squares of ``bicategory-laws`` a cell that is not cartesian.  Where a
theorem's decider has no input outside its hypotheses, a construction it
calls is patched to a valid one that breaks the theorem: a composite,
unitor or associator followed by the swap of two arities, a composition
trace whose counit is off by a swap, an identity cell replaced by the swap
of two arities, a direct composite whose operations trade arities,
extension bijections followed by the swap of two elements, a lifted or unit
square followed by the swap of two elements in a fibre or sending two
elements of a fibre to one, a universe drawn in place of another, a unit
cell that is not cartesian, an adjustment from a copy of its source cell
with the vertex relabelled, a pasting whose first edge starts from such a
copy, a monad-law adjustment that is not invertible, internal functors
that send every morphism to an identity, an internal category built with
every composite set to an identity, which its check refuses, or an
adjustment that skips its triangle check.  Plain tests refute the deciders
behind the records on hand-built inputs as well.

``test_a_law_forced_to_pass_hides_its_refutation`` is the mutant check:
with one law's check forced to pass, that law's entry refutes no more.
Every suite has a test that runs the CLI in-process, through
``test_cli.run_cli``, on a broken draw and expects exit 1: a map off by a
swap, a twisted associator, an adjustment that is not invertible, a
universe that does not validate, or a draw outside a law's hypotheses.
"""

import itertools
import random
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import pytest

from polyverse import generators, internalcat, naturalmodel, poly2, suites
from polyverse.finset import FamilyMorphism, FinFamily, FinMap, FinSet, Square
from polyverse.internalcat import InternalCatError, InternalFunctor, internal_full_subcat
from polyverse.naturalmodel import (
    Universe, UniverseError, _paths_agree, mk_bool_universe, mk_skewed_universe,
    sigma_structure, validate_universe, verify_type_isos,
)
from polyverse.poly import PolyError, Polynomial, compose, compose_direct, extension_composition_iso, from_map
from polyverse.poly2 import (
    Adjustment, PolyMorphism, associator, cell_from_square, codiscreteness_check, h_comp, identity_cell,
    lunitor, slice_reduce_cell, triangle_check, v_comp,
)
from polyverse.suites import LAWS, InstanceGenConfig, Report, run_suite
from test_cli import run_cli


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


def _category_with_constant_composition(f: FinMap):
    """The internal full subcategory of ``f`` with every composite set to the
    identity of its first object, through the checked constructor."""
    cat = internal_full_subcat(f)
    comp = FinMap.constant(cat.comp.dom, cat.mor, cat.ident(cat.obj.elements[0]))
    return replace(cat, comp=comp)


def _category_of_constant_composition_refused() -> bool:
    # the four endomaps of a two-element fibre, every composite set to the
    # identity: the endpoints fit, the unit law does not
    f = FinMap.constant(FinSet(["x", "y"]), FinSet(["c"]), "c")
    return _holds(InternalCatError, lambda: _category_with_constant_composition(f))


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


def _suite_verdict(suite: str, law: str, instance: str, *patches) -> bool:
    """The verdict ``suite`` records for ``law`` on ``instance`` at seed 0,
    count 1 and size 2, run under the mock ``patches``."""
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        rep = run_suite(suite, InstanceGenConfig(seed=0, count=1, max_set_size=2))
    [status] = [r["status"] for r in rep.records if (r["law"], r["instance"]) == (law, instance)]
    return status == "pass"


def _slice_patches(sigma: dict, calls=None) -> tuple:
    """Patches under which every cell ``slice-reduction`` draws is the
    identity on ``_polynomial_over_two_base_points``, and in every cell it
    reduces (or in the ``calls``-th reductions only), the fibre cell over
    (i0, j) is swapped for a valid cell with the same endpoints and vertex
    whose map to the source arities is followed by ``sigma``."""
    phi = identity_cell(_polynomial_over_two_base_points())
    count = itertools.count()

    def reduce(cell):
        cells = slice_reduce_cell(cell)
        if calls is not None and next(count) not in calls:
            return cells
        c = cells[("i0", "j")]
        phi2 = FinMap(c.dphi, c.src.B, {e: sigma[b] for e, b in c.phi2.pairs})
        cells[("i0", "j")] = PolyMorphism(c.src, c.dst, c.dphi, c.phi0, c.phi1, phi2)
        return cells

    return (
        mock.patch.object(generators, "rand_parallel_pair", return_value=(phi, phi)),
        mock.patch.object(generators, "rand_morphism", return_value=phi),
        mock.patch.object(suites, "slice_reduce_cell", reduce),
    )


def _slice_verdict(law: str, instance: str, sigma: dict, calls=None) -> bool:
    """The verdict ``slice-reduction`` records for ``law`` under ``_slice_patches``."""
    return _suite_verdict("slice-reduction", law, instance, *_slice_patches(sigma, calls))


SWAP = {"b0": "b1", "b1": "b0"}


def _fibre_cell_of_the_second_cell_swapped() -> bool:
    # the suite reduces phi, then psi: only psi's fibre cell over (i0, j) is
    # swapped, so the identity adjustment phi => psi restricts to no
    # adjustment between the fibre cells
    return _slice_verdict("slice-adjustment-identity", "inst0", SWAP, calls={1})


def _fibre_cell_swapped_for_another() -> bool:
    # the arities over (i0, j) swapped: still a cell, but not the one reduced
    return _slice_verdict("slice-roundtrip", "inst0-cell", SWAP)


def _fibre_cell_swapped_for_a_non_cartesian_one() -> bool:
    # both vertex elements over (i0, j) sent to b0: the reduced cell is
    # cartesian, one of its fibre cells is not
    return _slice_verdict("slice-cartesian-iff", "inst0", {"b0": "b0", "b1": "b0"})


def _fibre_cells_that_compose_to_another() -> bool:
    # each reduced cell swapped over (i0, j): the composite's fibre cell is
    # swapped once, the composite of the fibre cells twice, which is no swap
    return _slice_verdict("slice-functorial", "inst0", SWAP)


def _two_arities_over_one_operation():
    """``P = {b0, b1} -> {a}`` and the invertible cell ``P => P`` that
    swaps its two arities."""
    P = from_map(FinMap.constant(FinSet(["b0", "b1"]), FinSet(["a"]), "a"))
    return P, cell_from_square(P, P, FinMap(P.B, P.B, SWAP), FinMap.identity(P.A))


def _bicategory_patches(*patches) -> tuple:
    """Patches under which every cell ``bicategory-laws`` draws is the
    identity on ``P`` and every family has the fibre {x, y}, and the mock
    ``patches``."""
    P, _ = _two_arities_over_one_operation()
    return (
        mock.patch.object(generators, "rand_morphism", return_value=identity_cell(P)),
        mock.patch.object(generators, "rand_family", _family_of_xy),
        *patches,
    )


def _bicategory_verdict(law: str, *patches) -> bool:
    """The verdict ``bicategory-laws`` records for ``law`` under
    ``_bicategory_patches(*patches)``."""
    return _suite_verdict("bicategory-laws", law, "inst0", *_bicategory_patches(*patches))


def _naturality_patches(cartesian: bool) -> tuple:
    """``_bicategory_patches`` with every family morphism constant at x and,
    if not ``cartesian``, every cell drawn as cartesian replaced by
    ``_cell_with_two_vertex_elements_over_one_arity``.  Its extension sends
    the two sections of {b} -> {a} into {x, y} to the two constant sections
    of {d1, d2} -> {c}, so its naturality square at the map constant at x
    has two elements where the pullback has four.  ``h_comp``, which
    refuses a cell that is not cartesian, then composes the identities on
    the two cells' sources instead."""
    patches = [mock.patch.object(generators, "rand_family_morphism", _constant_at_x)]
    if not cartesian:
        P, _ = _two_arities_over_one_operation()
        cell, ident = _cell_with_two_vertex_elements_over_one_arity(), identity_cell(P)
        patches += [
            mock.patch.object(
                generators, "rand_morphism", lambda rng, size, cartesian=None, target=None: cell if cartesian else ident,
            ),
            mock.patch.object(suites, "h_comp", lambda psi, phi: h_comp(identity_cell(psi.src), identity_cell(phi.src))),
        ]
    return _bicategory_patches(*patches)


def _naturality_verdict(cartesian: bool) -> bool:
    return _suite_verdict("bicategory-laws", "cartesian-naturality-pullback", "inst0", *_naturality_patches(cartesian))


def _naturality_square_of_a_cell_that_is_not_cartesian() -> bool:
    return _naturality_verdict(cartesian=False)


def _vcomp_associative_verdict(twist: bool) -> bool:
    """The verdict ``bicategory-laws`` records for ``vcomp-associative`` when,
    if ``twist``, a vertical composite whose inner cell is itself a composite
    is followed by the swap of ``P``'s arities.  Of the two bracketings only
    ``outer . (inner . third)`` is such a composite."""
    _, swap = _two_arities_over_one_operation()
    composites = []

    def composite(psi, phi):
        cell = v_comp(psi, phi)
        if twist and any(phi is c for c in composites):
            cell = v_comp(swap, cell)
        composites.append(cell)
        return cell

    return _bicategory_verdict("vcomp-associative", mock.patch.object(suites, "v_comp", composite))


def _followed_by_a_swap(build):
    """``build``, with each cell it returns followed by the swap of the first
    two arities of the cell's target: a valid cell with the same endpoints."""

    def twisted(*args):
        cell = build(*args)
        H = cell.dst
        return v_comp(cell_from_square(H, H, _swap_first_two(H.B), FinMap.identity(H.A)), cell)

    return twisted


def _composite_followed_by_a_swap() -> bool:
    # the vertical composite of two identities on P, followed by the swap of
    # P's arities: its extension is not the composite of the two identities
    return _bicategory_verdict("extension-functorial", mock.patch.object(suites, "v_comp", _followed_by_a_swap(v_comp)))


def _identity_swapped_for_a_swap() -> bool:
    # the identity cell on P is replaced by the swap of its arities, whose
    # extension is not the identity
    _, swap = _two_arities_over_one_operation()
    return _bicategory_verdict("extension-identity", mock.patch.object(suites, "identity_cell", lambda F: swap))


def _hcomp_followed_by_a_swap() -> bool:
    # the horizontal composite of two identities on P, followed by the swap of
    # two arities of P.P over its one operation
    return _bicategory_verdict("hcomp-extension", mock.patch.object(suites, "h_comp", _followed_by_a_swap(h_comp)))


def _bracketings_that_extend_differently() -> bool:
    return _vcomp_associative_verdict(twist=True)


def _pentagon_patches(twist: bool) -> tuple:
    """Patches under which ``coherence`` draws ``P`` for each polynomial of a
    quad and, if ``twist``, the first associator ``pentagon_check`` builds,
    ``(P.P).(P.P) => P.(P.(P.P))``, is followed by a swap of two arities of
    its target."""
    P, _ = _two_arities_over_one_operation()
    calls = itertools.count()

    def first_twisted(f, g, h):
        return (_followed_by_a_swap(associator) if twist and next(calls) == 0 else associator)(f, g, h)

    return (
        mock.patch.object(generators, "rand_polynomial", return_value=P),
        mock.patch.object(poly2, "associator", first_twisted),
    )


def _pentagon_verdict(twist: bool) -> bool:
    return _suite_verdict("coherence", "pentagon", "quad0", *_pentagon_patches(twist))


def _pentagon_with_a_twisted_associator() -> bool:
    return _pentagon_verdict(twist=True)


def _triangle_check_with_a_twisted_unitor() -> bool:
    """``triangle_check`` on ``P`` and the identity on a point, with the left
    unitor of ``P`` followed by the swap of its arities."""
    P, _ = _two_arities_over_one_operation()
    g = from_map(FinMap.identity(FinSet(["c"])))
    with mock.patch.object(poly2, "lunitor", _followed_by_a_swap(lunitor)):
        return triangle_check(P, g)["ok"]


def _triangle_verdict(twist: bool) -> bool:
    """The verdict ``coherence`` records for ``triangle`` when it draws ``P``
    for each polynomial of a quad and, if ``twist``, the left unitor of ``P``
    is followed by the swap of its arities."""
    P, _ = _two_arities_over_one_operation()
    patches = [mock.patch.object(generators, "rand_polynomial", return_value=P)]
    if twist:
        patches.append(mock.patch.object(poly2, "lunitor", _followed_by_a_swap(lunitor)))
    return _suite_verdict("coherence", "triangle", "quad0", *patches)


def _triangle_with_a_twisted_unitor() -> bool:
    return _triangle_verdict(twist=True)


def _adjustments_into_a_target_that_is_not_cartesian() -> bool:
    # every map of the two-element vertex to itself lies over the one
    # arity: four adjustments, not one
    phi = _cell_with_two_vertex_elements_over_one_arity()
    return codiscreteness_check(phi, phi)["ok"]


def _first_pair_drawn(pair):
    """A patch under which the first parallel pair a suite draws is ``pair``
    and the second is the one ``coherence``'s control draws at seed 0 and
    size 2."""
    control = generators.rand_parallel_pair(random.Random(1), 2, max_vertex=4)
    return mock.patch.object(generators, "rand_parallel_pair", side_effect=[pair, control])


def _adjustment_count_patches(cartesian: bool) -> tuple:
    """Patches under which the first parallel pair a suite draws is a cell
    and itself: the identity on ``P`` or, if not ``cartesian``, a cell into
    which there are four adjustments."""
    P, _ = _two_arities_over_one_operation()
    phi = identity_cell(P) if cartesian else _cell_with_two_vertex_elements_over_one_arity()
    return (_first_pair_drawn((phi, phi)),)


def _adjustment_count_verdict(suite: str, law: str, instance: str, cartesian: bool) -> bool:
    """The verdict ``suite`` records for ``law`` on ``instance`` under
    ``_adjustment_count_patches(cartesian)``."""
    return _suite_verdict(suite, law, instance, *_adjustment_count_patches(cartesian))


def _unique_adjustment_into_a_target_that_is_not_cartesian() -> bool:
    return _adjustment_count_verdict("unique-adjustment", "unique-adjustment", "pair0", cartesian=False)


def _local_codiscreteness_into_a_target_that_is_not_cartesian() -> bool:
    return _adjustment_count_verdict("coherence", "local-codiscreteness", "quad0", cartesian=False)


class _UncheckedAdjustment(Adjustment):
    """An adjustment that skips its triangle check."""

    def __post_init__(self):
        pass


def _corrupted_adjustment_verdict(unchecked: bool) -> bool:
    """The verdict ``coherence`` records for ``corrupted-adjustment-rejected``
    when every parallel pair it draws is ``psi`` and itself, and, if
    ``unchecked``, its adjustments skip their triangle check.  ``psi`` is the
    cartesian cell from ``P`` to ``{d0, d1} -> {c0}`` with a second operation
    ``c1`` of no arity, whose vertex has two elements to swap."""
    P, _ = _two_arities_over_one_operation()
    G = from_map(FinMap(FinSet(["d0", "d1"]), FinSet(["c0", "c1"]), {"d0": "c0", "d1": "c0"}))
    psi = cell_from_square(P, G, FinMap(P.B, G.B, {"b0": "d0", "b1": "d1"}), FinMap.constant(P.A, G.A, "c0"))
    patches = [mock.patch.object(generators, "rand_parallel_pair", return_value=(psi, psi))]
    if unchecked:
        patches.append(mock.patch.object(suites, "Adjustment", _UncheckedAdjustment))
    return _suite_verdict("coherence", "corrupted-adjustment-rejected", "control", *patches)


def _corrupted_adjustment_accepted() -> bool:
    return _corrupted_adjustment_verdict(unchecked=True)


def _followed_by_a_fibre_swap(sq: Square) -> Square:
    """``sq`` followed by the swap of two elements in one fibre of its target
    map: a valid square with the same endpoints."""
    g = sq.dst
    x, y = next(fibre for fibre in map(g.preimage, g.cod) if len(fibre) > 1)[:2]
    swap = FinMap(g.dom, g.dom, {**{z: z for z in g.dom}, x: y, y: x})
    return Square(sq.src, g, swap.after(sq.top), sq.bot)


def _collapsed_in_a_fibre(sq: Square) -> Square:
    """``sq`` with the second of two elements in one fibre of its source map
    sent where the first goes: a commuting square with the same endpoints,
    and no pullback when ``sq.top`` tells the two apart."""
    f = sq.src
    x, y = next(fibre for fibre in map(f.preimage, f.cod) if len(fibre) > 1)[:2]
    return Square(f, sq.dst, FinMap(f.dom, sq.dst.dom, {**dict(sq.top.pairs), y: sq.top(x)}), sq.bot)


def _lift_patches(*patches) -> tuple:
    """Patches under which every square ``lift`` draws is the identity on
    ``{x, y} -> {c}``, and the mock ``patches``."""
    f = FinMap.constant(FinSet(["x", "y"]), FinSet(["c"]), "c")
    return (
        mock.patch.object(generators, "rand_cartesian_square", lambda *args, **kwargs: Square.identity(f)),
        *patches,
    )


def _lift_verdict(law: str, *patches) -> bool:
    """The verdict ``lift`` records for ``law`` under ``_lift_patches(*patches)``."""
    return _suite_verdict("lift", law, "sq0", *_lift_patches(*patches))


def _twisted(builder: str, call: int, twist=_followed_by_a_fibre_swap):
    """A patch under which the first square that the ``call``-th call of the
    builder ``builder`` of ``suites`` returns goes through ``twist``."""
    build, calls = getattr(suites, builder), itertools.count()

    def twisted(*args):
        out = build(*args)
        if next(calls) != call:
            return out
        if isinstance(out, Square):
            return twist(out)
        return (twist(out[0]), *out[1:])

    return mock.patch.object(suites, builder, twisted)


def _lifted_identity_followed_by_a_swap() -> bool:
    # the suite's first lift_apply_square call lifts the identity square
    return _lift_verdict("lift-identity", _twisted("lift_apply_square", 0))


def _lifted_composite_followed_by_a_swap() -> bool:
    # its second lifts the composite of the two drawn squares
    return _lift_verdict("lift-composition", _twisted("lift_apply_square", 1))


def _lifted_square_collapsed_in_a_fibre() -> bool:
    # its third lifts the drawn square itself; P_p of {x, y} -> {c} has the
    # fibre {(code1, x), (code1, y)} over (code1, c)
    return _lift_verdict("lift-preserves-pullbacks", _twisted("lift_apply_square", 2, _collapsed_in_a_fibre))


def _unit_square_followed_by_a_swap() -> bool:
    # the unit square at the drawn map's source, but not the one at its
    # target, which is the same map: the two sides of the naturality square
    return _lift_verdict("lift-naturality", _twisted("lift_unit_mult", 0))


def _unit_square_collapsed_in_a_fibre() -> bool:
    # the unit square at the drawn map's source, whose source map is {x, y} -> {c}
    return _lift_verdict("lift-unit-mult-squares", _twisted("lift_unit_mult", 0, _collapsed_in_a_fibre))


def _monad_law_adjustment_that_is_not_invertible() -> bool:
    # every adjustment the suite builds for the three monad laws replaced
    # by one that sends both vertex elements of a cell to the first
    phi = _cell_with_two_vertex_elements_over_one_arity()
    e1, e2 = phi.dphi.elements
    collapse = _adjustment(phi, {e1: e1, e2: e1})
    return _lift_verdict("lift-monad-laws", mock.patch.object(suites, "unique_adjustment", lambda x, y: collapse))


def _internal_equiv_patches(*patches) -> tuple:
    """Patches under which every cell ``internal-equiv`` draws is the
    identity on ``P`` and every polynomial is ``P``, and the mock ``patches``."""
    P, _ = _two_arities_over_one_operation()
    ident = identity_cell(P)
    return (
        mock.patch.object(generators, "rand_parallel_cartesian_pair", return_value=(ident, ident)),
        mock.patch.object(generators, "rand_morphism", return_value=ident),
        mock.patch.object(generators, "rand_polynomial", return_value=P),
        *patches,
    )


def _internal_equiv_verdict(law: str, *patches) -> bool:
    """The verdict ``internal-equiv`` records for ``law`` under
    ``_internal_equiv_patches(*patches)``."""
    return _suite_verdict("internal-equiv", law, "inst0", *_internal_equiv_patches(*patches))


def _functor_of_a_composite_followed_by_a_swap() -> bool:
    # the composite of two identities on P followed by the swap of its
    # arities: its functor conjugates by the swap, the composite of the two
    # identity functors does not
    return _internal_equiv_verdict(
        "internal-functor-composition", mock.patch.object(suites, "v_comp", _followed_by_a_swap(v_comp)),
    )


def _relabelled(phi: PolyMorphism) -> PolyMorphism:
    """A copy of ``phi`` with its vertex relabelled by the swap of its first
    two elements: a valid cell with the same endpoints and vertex."""
    s = _swap_first_two(phi.dphi)
    return PolyMorphism(phi.src, phi.dst, phi.dphi, phi.phi0, phi.phi1.after(s), phi.phi2.after(s))


def _adjustment_from_a_relabelled_source() -> bool:
    # the adjustment into psi from phi with its vertex relabelled by a swap:
    # the copy induces phi's functor, so the transpose and back give the
    # identity, not the swap
    return _internal_equiv_verdict(
        "adjustment-nat-roundtrip",
        mock.patch.object(suites, "unique_adjustment", lambda phi, psi: poly2.unique_adjustment(_relabelled(phi), psi)),
    )


def _functor_onto_identities(phi: PolyMorphism) -> InternalFunctor:
    """The functor between the categories of ``phi``'s endpoints that is
    ``phi0`` on objects and sends every morphism to an identity; valid when
    the source category has one object."""
    C, D = internal_full_subcat(phi.src.f), internal_full_subcat(phi.dst.f)
    return InternalFunctor(C, D, phi.phi0, FinMap(C.mor, D.mor, {m: D.ident(phi.phi0(C.dom(m))) for m in C.mor}))


def _transformations_between_functors_onto_identities() -> bool:
    # between two such functors on P's category, each of the four endomaps
    # of its fibre is a natural transformation
    return _internal_equiv_verdict(
        "internal-nt-unique", mock.patch.object(suites, "internal_functor", _functor_onto_identities),
    )


def _equivalence_read_through_functors_onto_identities() -> bool:
    # through such functors all four vertex maps over the operation are
    # natural, but only the identity is conjugate and over B
    return _internal_equiv_verdict(
        "four-way-equivalence", mock.patch.object(internalcat, "internal_functor", _functor_onto_identities),
    )


def _category_built_with_constant_composition() -> bool:
    # P's category has the four endomaps of {b0, b1}: with every composite
    # the identity, the check at construction refuses it
    return _internal_equiv_verdict(
        "internal-category-laws",
        mock.patch.object(suites, "internal_full_subcat", _category_with_constant_composition),
    )


def _functors_that_are_not_full() -> bool:
    # sent to identities, the four endomaps of P's fibre hit one of four
    return _internal_equiv_verdict(
        "internal-fully-faithful", mock.patch.object(suites, "internal_functor", _functor_onto_identities),
    )


def _family_of_xy(rng, index, *args, **kwargs) -> FinFamily:
    return FinFamily(index, {i: FinSet(["x", "y"]) for i in index})


def _constant_at_x(rng, X, *args, **kwargs) -> FamilyMorphism:
    return FamilyMorphism(X, X, {i: FinMap.constant(X.fibre(i), X.fibre(i), "x") for i in X.index})


def _extension_composition_patches(
    direct=compose_direct, iso=extension_composition_iso, composite=compose,
) -> tuple:
    """Patches under which ``extension-composition`` draws only
    ``F = {b0 -> a0, b1 -> a1}`` and ``G = {d} -> {c}``, every family has the
    fibre {x, y}, every family morphism is constant at x, and the suite's
    direct composite is ``direct``, its extension bijections ``iso`` and its
    composite with trace ``composite``."""
    F = from_map(FinMap(FinSet(["b0", "b1"]), FinSet(["a0", "a1"]), {"b0": "a0", "b1": "a1"}))
    G = from_map(FinMap.constant(FinSet(["d"]), FinSet(["c"]), "c"))
    return (
        mock.patch.object(generators, "rand_composable_pair", return_value=(F, G)),
        mock.patch.object(generators, "rand_family", _family_of_xy),
        mock.patch.object(generators, "rand_family_morphism", _constant_at_x),
        mock.patch.object(suites, "compose_direct", direct),
        mock.patch.object(suites, "extension_composition_iso", iso),
        mock.patch.object(suites, "compose", composite),
    )


def _extension_composition_verdict(law: str, **builders) -> bool:
    """The verdict ``extension-composition`` records for ``law`` under
    ``_extension_composition_patches(**builders)``."""
    return _suite_verdict("extension-composition", law, "pair0", *_extension_composition_patches(**builders))


def _swap_first_two(Y: FinSet) -> FinMap:
    x, y = Y.elements[:2]
    return FinMap(Y, Y, {**{z: z for z in Y}, x: y, y: x})


def _fibrewise_swap(X: FinFamily) -> FamilyMorphism:
    return FamilyMorphism(X, X, {i: _swap_first_two(Y) for i, Y in X.fibres})


def _composite_with_its_operations_swapped() -> bool:
    # the direct composite's two operations trade arities
    def twisted(G, F):
        GF = compose_direct(G, F)
        return replace(GF, f=_swap_first_two(GF.A).after(GF.f))

    return _extension_composition_verdict("composite-matches-direct", direct=twisted)


def _counit_off_by_a_swap(G, F):
    """``compose``, with the counit of the trace swapped at the first two
    elements of its domain: G.F's two operations each pick the other's
    inner operation, which square (3) does not pull back."""
    GF, trace = compose(G, F)
    return GF, replace(trace, e=trace.e.after(_swap_first_two(trace.Qp)))


def _trace_with_its_counit_off_by_a_swap() -> bool:
    return _extension_composition_verdict("trace-revalidates", composite=_counit_off_by_a_swap)


def _forwards_through_a_swap(G, F, X):
    fwd, bwd = extension_composition_iso(G, F, X)
    return _fibrewise_swap(fwd.dst).after(fwd), bwd


def _round_trip_through_a_swap() -> bool:
    # forwards then swapped, backwards as before: not the identity
    return _extension_composition_verdict("extension-composite-bijection", iso=_forwards_through_a_swap)


def _bijection_through_a_swap() -> bool:
    # swapped both ways: still inverse bijections, but the constant map at x
    # does not commute with the swap
    def iso(G, F, X):
        fwd, bwd = extension_composition_iso(G, F, X)
        swap = _fibrewise_swap(fwd.dst)
        return swap.after(fwd), bwd.after(swap)

    return _extension_composition_verdict("extension-composite-naturality", iso=iso)


def _bool_universe_replaced_by(u: Universe):
    """A patch under which the universe suites draw ``u`` as ``bool``, and
    the corrupted-universe control corrupts ``u``."""
    return mock.patch.object(suites, "mk_bool_universe", lambda: u)


def _broken_universe_drawn() -> bool:
    return _suite_verdict(
        "pseudomonad", "universe-validates", "bool", _bool_universe_replaced_by(_bool_universe_with_a_broken_sum()),
    )


def _skewed_universe_drawn_as_strict() -> bool:
    # the bool instance is expected strict; the skewed right unit law is not
    return _suite_verdict("pseudomonad", "strictness-profile", "bool", _bool_universe_replaced_by(mk_skewed_universe()))


def _control_whose_corruption_misses() -> bool:
    # the control rewrites the sum code "code1", which the skewed universe
    # does not have, so the universe it builds is sound
    return _suite_verdict(
        "pseudomonad", "corrupted-universe-rejected", "control", _bool_universe_replaced_by(mk_skewed_universe()),
    )


def _unit_cell_that_is_not_cartesian() -> bool:
    return _suite_verdict(
        "pseudomonad", "monad-structure-cartesian", "bool",
        mock.patch.object(suites, "unit_structure", lambda u: _cell_with_two_vertex_elements_over_one_arity()),
    )


def _padded_universe_drawn() -> bool:
    u = mk_skewed_universe()
    padded = _PaddedUniverse(u.codes, u.el, u.unit_code, u.sigma, u.pi)
    return _suite_verdict(
        "type-isos", "type-isomorphisms", "skewed", mock.patch.object(suites, "mk_skewed_universe", lambda: padded),
    )


def _first_edges_relabelled():
    """A patch under which each pasting's first edge, if its source has two
    vertex elements, starts from ``_relabelled`` of that source: the two
    paths then start from cells that differ by a swap."""

    def twisted(adjust, lhs, rhs):
        calls = itertools.count()

        def edge(x, y):
            adj = adjust(x, y)
            if next(calls) > 0 or len(adj.src.dphi) < 2:
                return adj
            return poly2.unique_adjustment(_relabelled(adj.src), adj.dst)

        return _paths_agree(edge, lhs, rhs)

    return mock.patch.object(naturalmodel, "_paths_agree", twisted)


# on the skewed universe the first pasting edges have 16 vertex elements for
# the pseudomonad and 23 for the pseudoalgebra
def _pseudomonad_pasting_from_a_relabelled_cell() -> bool:
    return _suite_verdict("pseudomonad", "pseudomonad-pasting", "skewed", _first_edges_relabelled())


def _pseudoalgebra_pasting_from_a_relabelled_cell() -> bool:
    return _suite_verdict("pseudoalgebra", "pseudoalgebra-pasting", "skewed", _first_edges_relabelled())


REFUTATIONS = {
    "lift-preserves-pullbacks": _lifted_square_collapsed_in_a_fibre,
    "lift-unit-mult-squares": _unit_square_collapsed_in_a_fibre,
    "lift-monad-laws": _monad_law_adjustment_that_is_not_invertible,
    "cartesian-naturality-pullback": _naturality_square_of_a_cell_that_is_not_cartesian,
    "pseudomonad-pasting": _pseudomonad_pasting_from_a_relabelled_cell,
    "pseudoalgebra-pasting": _pseudoalgebra_pasting_from_a_relabelled_cell,
    "pentagon": _pentagon_with_a_twisted_associator,
    "internal-fully-faithful": _functors_that_are_not_full,
    "universe-validates": _broken_universe_drawn,
    "monad-structure-cartesian": _unit_cell_that_is_not_cartesian,
    "strictness-profile": _skewed_universe_drawn_as_strict,
    "corrupted-universe-rejected": _control_whose_corruption_misses,
    "type-isomorphisms": _padded_universe_drawn,
    "trace-revalidates": _trace_with_its_counit_off_by_a_swap,
    "internal-category-laws": _category_built_with_constant_composition,
    "slice-roundtrip": _fibre_cell_swapped_for_another,
    "slice-cartesian-iff": _fibre_cell_swapped_for_a_non_cartesian_one,
    "slice-functorial": _fibre_cells_that_compose_to_another,
    "vcomp-associative": _bracketings_that_extend_differently,
    "triangle": _triangle_with_a_twisted_unitor,
    "unique-adjustment": _unique_adjustment_into_a_target_that_is_not_cartesian,
    "local-codiscreteness": _local_codiscreteness_into_a_target_that_is_not_cartesian,
    "composite-matches-direct": _composite_with_its_operations_swapped,
    "extension-composite-bijection": _round_trip_through_a_swap,
    "extension-composite-naturality": _bijection_through_a_swap,
    "extension-functorial": _composite_followed_by_a_swap,
    "extension-identity": _identity_swapped_for_a_swap,
    "hcomp-extension": _hcomp_followed_by_a_swap,
    "corrupted-adjustment-rejected": _corrupted_adjustment_accepted,
    "lift-identity": _lifted_identity_followed_by_a_swap,
    "lift-composition": _lifted_composite_followed_by_a_swap,
    "lift-naturality": _unit_square_followed_by_a_swap,
    "slice-adjustment-identity": _fibre_cell_of_the_second_cell_swapped,
    "internal-functor-composition": _functor_of_a_composite_followed_by_a_swap,
    "adjustment-nat-roundtrip": _adjustment_from_a_relabelled_source,
    "internal-nt-unique": _transformations_between_functors_onto_identities,
    "four-way-equivalence": _equivalence_read_through_functors_onto_identities,
}


def test_refutations_are_keyed_by_law_ids():
    assert set(REFUTATIONS) == set(LAWS)


@pytest.mark.parametrize("law", sorted(REFUTATIONS))
def test_the_decider_of_each_law_can_answer_false(law):
    assert REFUTATIONS[law]() is False


@pytest.mark.parametrize("law", sorted(LAWS))
def test_a_law_forced_to_pass_hides_its_refutation(law):
    """The mutant whose check of ``law`` always passes: the entry, which
    reads the suite's record, no longer refutes."""
    check = Report.check

    def forced(self, name, instance, ok, detail=""):
        return check(self, name, instance, ok or name == law, detail)

    with mock.patch.object(Report, "check", forced):
        assert REFUTATIONS[law]() is True


@pytest.mark.parametrize("refuted", [
    _square_that_is_not_a_pullback, _paths_that_paste_to_different_maps, _universe_that_is_not_valid,
    _cell_that_is_not_cartesian, _sound_universe_refused, _type_isos_onto_a_padded_fibre,
], ids=lambda f: f.__name__.strip("_"))
def test_the_deciders_behind_the_universe_and_lift_records_can_answer_false(refuted):
    assert refuted() is False


@pytest.mark.parametrize(
    "refuted", [_trace_that_does_not_revalidate, _triangle_check_with_a_twisted_unitor],
    ids=lambda f: f.__name__.strip("_"),
)
def test_the_deciders_behind_the_trace_and_triangle_records_can_answer_false(refuted):
    assert refuted() is False


@pytest.mark.parametrize(
    "refuted", [_functor_that_is_not_full, _category_of_constant_composition_refused],
    ids=lambda f: f.__name__.strip("_"),
)
def test_the_deciders_behind_the_internal_category_records_can_answer_false(refuted):
    assert refuted() is False


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
    f = FinMap.constant(FinSet(["x", "y"]), FinSet(["c"]), "c")
    assert InternalFunctor.identity(internal_full_subcat(f)).is_fully_faithful()
    assert validate_universe(mk_bool_universe()) == []
    assert sigma_structure(mk_bool_universe()).is_cartesian()
    assert _refused(_bool_universe_with_a_broken_sum())
    assert verify_type_isos(mk_skewed_universe())["ok"]
    G, F, trace, _ = _trace_with_a_square_that_is_not_a_pullback()
    assert _holds(PolyError, lambda: trace.validate(G, F))
    assert _holds(InternalCatError, lambda: internal_full_subcat(f))
    for law, instance in (
        ("slice-roundtrip", "inst0-cell"), ("slice-cartesian-iff", "inst0"), ("slice-functorial", "inst0"),
        ("slice-adjustment-identity", "inst0"),
    ):
        assert _slice_verdict(law, instance, {"b0": "b0", "b1": "b1"})
    for law in (
        "lift-identity", "lift-composition", "lift-preserves-pullbacks", "lift-unit-mult-squares", "lift-naturality",
        "lift-monad-laws",
    ):
        assert _lift_verdict(law)
    for suite, law, instance in (
        ("pseudomonad", "universe-validates", "bool"), ("pseudomonad", "monad-structure-cartesian", "bool"),
        ("pseudomonad", "strictness-profile", "bool"), ("pseudomonad", "corrupted-universe-rejected", "control"),
        ("pseudomonad", "pseudomonad-pasting", "skewed"), ("pseudoalgebra", "pseudoalgebra-pasting", "skewed"),
        ("type-isos", "type-isomorphisms", "skewed"),
    ):
        assert _suite_verdict(suite, law, instance)
    for law in (
        "internal-category-laws", "internal-fully-faithful", "internal-functor-composition",
        "adjustment-nat-roundtrip", "internal-nt-unique", "four-way-equivalence",
    ):
        assert _internal_equiv_verdict(law)
    assert _vcomp_associative_verdict(twist=False)
    for law in ("extension-functorial", "extension-identity", "hcomp-extension"):
        assert _bicategory_verdict(law)
    assert _corrupted_adjustment_verdict(unchecked=False)
    assert _triangle_verdict(twist=False)
    assert _pentagon_verdict(twist=False)
    for law in (
        "trace-revalidates", "composite-matches-direct", "extension-composite-bijection",
        "extension-composite-naturality",
    ):
        assert _extension_composition_verdict(law)
    phi, psi = generators.rand_parallel_pair(random.Random(0), 2)
    assert codiscreteness_check(phi, psi)["ok"]
    assert _adjustment_count_verdict("unique-adjustment", "unique-adjustment", "pair0", cartesian=True)
    assert _adjustment_count_verdict("coherence", "local-codiscreteness", "quad0", cartesian=True)
    assert _naturality_verdict(cartesian=True)


def test_the_decider_behind_the_adjustment_count_records_can_answer_false():
    # the exhaustive search behind ``unique-adjustment`` and ``local-codiscreteness``
    assert _adjustments_into_a_target_that_is_not_cartesian() is False


def test_an_adjustment_that_is_not_invertible_is_refused():
    # the invertibility half of ``pentagon_check``'s verdict
    assert _adjustment_that_is_not_invertible() is False


@pytest.mark.parametrize("suite", ["pseudomonad", "pseudoalgebra"])
def test_adjustments_that_are_not_invertible_exit_1_from_the_cli(suite):
    # the pseudomonad and pseudoalgebra are built all the same, and the
    # strictness-profile records decide invertibility
    with mock.patch.object(Adjustment, "is_invertible", lambda self: False):
        proc = run_cli("suite", "run", suite)
    assert proc.returncode == 1
    failed = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert failed and all(" law=strictness-profile " in line for line in failed)


def _run_from_the_cli(suite: str, patches):
    """``suite run`` on ``suite`` at seed 0, count 1 and size 2, under the
    mock ``patches``."""
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        return run_cli("suite", "run", suite, "--seed", "0", "--count", "1", "--max-size", "2")


@pytest.mark.parametrize("twist, code", [(False, 0), (True, 1)], ids=["control", "twisted"])
def test_a_pentagon_with_a_twisted_associator_exits_1_from_the_cli(twist, code):
    proc = _run_from_the_cli("coherence", _pentagon_patches(twist))
    assert proc.returncode == code
    assert ("[FAIL] law=pentagon instance=quad0" in proc.stdout) is twist


# Per suite: the law and instance whose record a map off by a swap fails,
# and the patches for the hand-built draw, with that map swapped if asked.
SWAPPED_MAPS = {
    "slice-reduction": (
        "slice-roundtrip", "inst0-cell",
        lambda twist: _slice_patches(SWAP if twist else {"b0": "b0", "b1": "b1"}),
    ),
    "extension-composition": (
        "extension-composite-bijection", "pair0",
        lambda twist: _extension_composition_patches(
            iso=_forwards_through_a_swap if twist else extension_composition_iso,
        ),
    ),
    "internal-equiv": (
        "internal-functor-composition", "inst0",
        lambda twist: _internal_equiv_patches(
            *([mock.patch.object(suites, "v_comp", _followed_by_a_swap(v_comp))] if twist else []),
        ),
    ),
    "lift": (
        "lift-identity", "sq0",
        lambda twist: _lift_patches(*([_twisted("lift_apply_square", 0)] if twist else [])),
    ),
}


@pytest.mark.parametrize("suite", sorted(SWAPPED_MAPS))
@pytest.mark.parametrize("twist, code", [(False, 0), (True, 1)], ids=["control", "twisted"])
def test_a_map_off_by_a_swap_exits_1_from_the_cli(suite, twist, code):
    # a law failure, not a crash: exit 1, not 4
    law, instance, patches = SWAPPED_MAPS[suite]
    proc = _run_from_the_cli(suite, patches(twist))
    assert proc.returncode == code
    assert (f"[FAIL] law={law} instance={instance}" in proc.stdout) is twist


# Per suite: the law and instance whose record a draw outside the law's
# hypotheses fails, and the patches for the hand-built draw, outside them
# if asked.
OUTSIDE_HYPOTHESES = {
    "unique-adjustment": (
        "unique-adjustment", "pair0", lambda twist: _adjustment_count_patches(cartesian=not twist),
    ),
    "bicategory-laws": (
        "cartesian-naturality-pullback", "inst0", lambda twist: _naturality_patches(cartesian=not twist),
    ),
}


@pytest.mark.parametrize("suite", sorted(OUTSIDE_HYPOTHESES))
@pytest.mark.parametrize("twist, code", [(False, 0), (True, 1)], ids=["control", "twisted"])
def test_a_draw_outside_a_laws_hypotheses_exits_1_from_the_cli(suite, twist, code):
    law, instance, patches = OUTSIDE_HYPOTHESES[suite]
    proc = _run_from_the_cli(suite, patches(twist))
    assert proc.returncode == code
    assert (f"[FAIL] law={law} instance={instance}" in proc.stdout) is twist


@pytest.mark.parametrize("suite", ["pseudomonad", "pseudoalgebra", "type-isos"])
def test_a_universe_that_does_not_validate_exits_1_from_the_cli(suite):
    # the instance is recorded as failed and the suite goes on to the next
    with _bool_universe_replaced_by(_bool_universe_with_a_broken_sum()):
        proc = run_cli("suite", "run", suite, "--count", "2")
    assert proc.returncode == 1
    out = proc.stdout.splitlines()
    assert [line for line in out if line.startswith("[FAIL]")] == [
        "[FAIL] law=universe-validates instance=bool (sum square: fibre mismatch at ('code1', (('el', 'code1'),)))",
    ]
    assert any(line.startswith("[PASS]") and "instance=skewed" in line for line in out)
