import itertools
import random
import re

import pytest

from polyverse import poly2
from polyverse.finset import (
    EnumerationCapExceeded,
    FinFamily,
    FinMap,
    FinSet,
    FinSetError,
    Square,
    TERMINAL,
    enumeration_cap,
    pullback,
)
from polyverse.poly import (
    PolyError,
    Polynomial,
    compose,
    extend,
    from_map,
    identity_poly,
    product_set,
    slice_reduce,
)
from polyverse.poly2 import (
    Adjustment,
    AdjustmentError,
    CellCommutationError,
    CellPullbackError,
    PolyMorphism,
    adj_vcomp,
    all_adjustments,
    associator,
    canon,
    cell_from_square,
    cells_square_equal,
    codiscreteness_check,
    extend_cell,
    h_comp,
    identity_cell,
    invert_cell,
    lunitor,
    lunitor_inv,
    pentagon_check,
    runitor,
    runitor_inv,
    slice_reduce_cell,
    slice_unreduce_cell,
    triangle_check,
    unique_adjustment,
    v_comp,
    whisker_left,
    whisker_right,
)
from polyverse.generators import (
    rand_cartesian_square,
    rand_family,
    rand_family_morphism,
    rand_morphism,
    rand_parallel_pair,
    rand_polynomial,
)
from polyverse.suites import InstanceGenConfig, run_suite
from reference import (
    adj_whisker,
    associator_on_labels,
    cartesian_from_square,
    cell_from_square_on_labels,
    check_square_on_labels,
    fill_table_on_labels,
    h_comp_on_labels,
    identity_adjustment,
    recorded,
    v_comp_on_labels,
)


def empty_phi2_cell():
    """The morphism from the two-arity polynomial to the empty-arity one:
    the vertex is empty, so its arity comparison is the empty map."""
    D = FinSet(["d0", "d1"])
    g = FinMap.constant(D, TERMINAL, "*")
    f = FinMap(FinSet(), FinSet(["a"]), {})
    G = from_map(g)
    F = from_map(f)
    phi0 = FinMap(G.A, F.A, {"*": "a"})
    vertex = FinSet()
    return PolyMorphism(
        G, F, vertex, phi0, FinMap(vertex, F.B, {}), FinMap(vertex, G.B, {})
    )


class TestMorphismValidation:
    def test_identity_validates(self):
        F = rand_polynomial(random.Random(0), 3)
        identity_cell(F)

    def test_empty_phi2_is_non_cartesian(self):
        phi = empty_phi2_cell()
        assert not phi.is_cartesian()

    def test_commutation_failure_distinct(self):
        B = FinSet(["b0"])
        A = FinSet(["a0", "a1"])
        F = from_map(FinMap(B, A, {"b0": "a0"}))
        cell = identity_cell(F)
        a0, a1 = F.A.elements[0], F.A.elements[1]
        broken = FinMap(F.A, F.A, {a: (a1 if a == a0 else a0 if a == a1 else a) for a in F.A})
        with pytest.raises((CellCommutationError, CellPullbackError)):
            PolyMorphism(F, F, cell.dphi, broken, cell.phi1, cell.phi2)

    def test_pullback_failure_distinct(self):
        # drop one vertex element: the square still commutes, the universal
        # property fails
        B = FinSet(["b0", "b1"])
        f = FinMap.constant(B, FinSet(["a"]), "a")
        F = from_map(f)
        full = identity_cell(F)
        vertex = FinSet(["b0"])
        with pytest.raises(CellPullbackError):
            PolyMorphism(
                F, F, vertex,
                full.phi0,
                FinMap(vertex, B, {"b0": "b0"}),
                FinMap(vertex, B, {"b0": "b0"}),
            )


class TestCartesianFromSquare:
    def test_identity_square(self):
        B = FinSet(["b0", "b1"])
        f = FinMap.constant(B, FinSet(["a"]), "a")
        phi = cartesian_from_square(f, f, FinMap.identity(B), FinMap.identity(f.cod))
        assert phi.is_cartesian()
        assert phi.phi2.is_bijection()

    def test_fibre_inclusion_square(self):
        # pulling back along a point picks out a fibre
        B = FinSet(["b0", "b1", "b2"])
        A = FinSet(["a0", "a1"])
        f = FinMap(B, A, {"b0": "a0", "b1": "a0", "b2": "a1"})
        P, p1, p2 = pullback(FinMap(TERMINAL, A, {"*": "a0"}), f)
        sub = FinMap(P, TERMINAL, {e: "*" for e in P})
        phi = cartesian_from_square(sub, f, p2, FinMap(TERMINAL, A, {"*": "a0"}))
        assert phi.is_cartesian()
        assert len(phi.dphi) == 2

    def test_not_pullback_rejected(self):
        B = FinSet(["b0", "b1"])
        f = FinMap.constant(B, TERMINAL, "*")
        g = FinMap.identity(TERMINAL)
        with pytest.raises(CellPullbackError):
            cartesian_from_square(f, g, FinMap.constant(B, TERMINAL, "*"), g)

    def test_square_roundtrip(self):
        rng = random.Random(8)
        for _ in range(10):
            phi = rand_morphism(rng, 3, cartesian=True)
            again = cell_from_square(phi.src, phi.dst, phi.square_top(), phi.phi0)
            assert cells_square_equal(phi, again)
            assert canon(phi) == again


class TestVerticalComposition:
    def test_vcomp_unit_witness(self):
        rng = random.Random(2)
        for _ in range(10):
            phi = rand_morphism(rng, 3)
            comp = v_comp(identity_cell(phi.dst), phi)
            witness = FinMap(
                phi.dphi, comp.dphi, {e: (phi.r(e), phi.phi1(e)) for e in phi.dphi}
            )
            adj = Adjustment(phi, comp, witness)
            assert adj.is_invertible()

    def test_pasted_squares_agree(self):
        rng = random.Random(6)
        for _ in range(10):
            psi = rand_morphism(rng, 3, cartesian=True)
            phi = rand_morphism(rng, 3, cartesian=True, target=psi.src)
            comp = v_comp(psi, phi)
            assert comp.is_cartesian()
            pasted = cell_from_square(
                phi.src, psi.dst,
                psi.square_top().after(phi.square_top()),
                psi.phi0.after(phi.phi0),
            )
            adj = unique_adjustment(comp, pasted)
            assert adj.is_invertible()
            assert cells_square_equal(comp, pasted)

    def test_composite_with_empty_phi2_stays_non_cartesian(self):
        phi = empty_phi2_cell()
        comp = v_comp(phi, identity_cell(phi.src))
        assert not comp.is_cartesian()


class TestAdjustments:
    def test_identity_adjustment(self):
        phi = rand_morphism(random.Random(3), 3)
        adj = identity_adjustment(phi)
        assert adj.is_identity()

    def test_unique_adjustment_requires_cartesian(self):
        phi = empty_phi2_cell()
        with pytest.raises(PolyError):
            unique_adjustment(identity_cell(phi.src), phi)

    def test_unique_agrees_with_search(self):
        rng = random.Random(10)
        for n in range(15):
            phi, psi = rand_parallel_pair(rng, 3, max_vertex=4)
            found = list(all_adjustments(phi, psi))
            assert len(found) == 1
            assert found[0].alpha == unique_adjustment(phi, psi).alpha

    def test_unique_adjustment_of_cell_with_itself_is_identity(self):
        rng = random.Random(16)
        for _ in range(6):
            psi = rand_morphism(rng, 3, cartesian=True)
            assert unique_adjustment(psi, psi).is_identity()

    def test_multiple_adjustments_between_non_cartesian(self):
        # deterministic sizes drawn from seed 7; count frozen from the
        # exhaustive search: 3 vertex elements, all over one arity
        rng = random.Random(7)
        nd = rng.randint(2, 3)
        D = FinSet([f"d{i}" for i in range(nd)])
        g = FinMap.constant(D, FinSet(["c"]), "c")
        B = FinSet(["b0"])
        f = FinMap.constant(B, FinSet(["a"]), "a")
        G, F = from_map(g), from_map(f)
        phi0 = FinMap(F.A, G.A, {"a": "c"})
        vertex, _, pd = pullback(phi0, g)
        cell = PolyMorphism(
            F, G, vertex, phi0, pd, FinMap.constant(vertex, B, "b0")
        )
        assert not cell.is_cartesian()
        assert len(list(all_adjustments(cell, cell))) == 27

    def test_corrupted_triangle_rejected(self):
        rng = random.Random(11)
        phi, psi = rand_parallel_pair(rng, 3, max_vertex=4)
        good = unique_adjustment(phi, psi)
        elems = list(psi.dphi)
        if len(elems) < 2:
            pytest.skip("vertex too small")
        swap = {elems[0]: elems[1], elems[1]: elems[0]}
        bad = FinMap(phi.dphi, psi.dphi, {e: swap.get(good.alpha(e), good.alpha(e)) for e in phi.dphi})
        with pytest.raises(AdjustmentError):
            Adjustment(phi, psi, bad)

    def test_adj_vcomp_unit_and_assoc(self):
        rng = random.Random(12)
        phi, psi = rand_parallel_pair(rng, 3, max_vertex=4)
        a = unique_adjustment(phi, psi)
        assert adj_vcomp(a, identity_adjustment(phi)).alpha == a.alpha
        assert adj_vcomp(identity_adjustment(psi), a).alpha == a.alpha
        b = unique_adjustment(psi, canon(psi))
        c = unique_adjustment(canon(psi), psi)
        lhs = adj_vcomp(c, adj_vcomp(b, a))
        rhs = adj_vcomp(adj_vcomp(c, b), a)
        assert lhs.alpha == rhs.alpha

    def test_adj_whisker_interchange(self):
        rng = random.Random(14)
        for _ in range(6):
            phi, phi2 = rand_parallel_pair(rng, 2, max_vertex=4)
            psi = rand_morphism(rng, 2, cartesian=True, target=None)
            # build a second morphism chainable after phi's target
            outer, outer2 = rand_parallel_pair(rng, 2, max_vertex=4)
            if outer.src != phi.dst:
                # whisker against identities instead: still exercises the map
                outer = identity_cell(phi.dst)
                outer2 = identity_cell(phi.dst)
            alpha = unique_adjustment(phi, phi2)
            beta = unique_adjustment(outer, outer2)
            whiskered = adj_whisker(beta, alpha)
            # the result is the unique adjustment between the composites
            expected = unique_adjustment(
                v_comp(outer, phi), v_comp(outer2, phi2)
            )
            assert whiskered.alpha == expected.alpha


class TestHorizontalComposition:
    def test_identity_hcomp_is_identity_up_to_unique(self):
        rng = random.Random(20)
        for _ in range(6):
            F = rand_polynomial(rng, 2, one_to_one=True)
            G = rand_polynomial(rng, 2, one_to_one=True)
            GF, _ = compose(G, F)
            hc = h_comp(identity_cell(G), identity_cell(F))
            assert cells_square_equal(hc, identity_cell(GF))

    def test_non_cartesian_rejected(self):
        phi = empty_phi2_cell()
        with pytest.raises(PolyError):
            h_comp(identity_cell(identity_poly(TERMINAL)), phi)

    def test_hcomp_is_functorial_in_both_arguments(self):
        # composing vertically before or after composing horizontally gives
        # the same square presentation
        rng = random.Random(23)
        done = 0
        while done < 5:
            try:
                phi2 = rand_morphism(rng, 2, cartesian=True)
                phi1 = rand_morphism(rng, 2, cartesian=True, target=phi2.src)
                psi2 = rand_morphism(
                    rng, 2, cartesian=True,
                    target=rand_polynomial(rng, 2, I=phi2.src.J),
                )
                psi1 = rand_morphism(rng, 2, cartesian=True, target=psi2.src)
                lhs = h_comp(v_comp(psi2, psi1), v_comp(phi2, phi1))
                rhs = v_comp(h_comp(psi2, phi2), h_comp(psi1, phi1))
                assert cells_square_equal(lhs, rhs)
                done += 1
            except PolyError:
                continue

    def test_extension_of_hcomp_matches_componentwise(self):
        from polyverse.poly import extend_map, extension_composition_iso

        rng = random.Random(22)
        done = 0
        while done < 5:
            phi = rand_morphism(rng, 2, cartesian=True)
            psi = rand_morphism(
                rng, 2, cartesian=True,
                target=rand_polynomial(rng, 2, I=phi.src.J),
            )
            X = rand_family(rng, phi.src.I, 2)
            try:
                hc = h_comp(psi, phi)
                with enumeration_cap(4000):
                    fwd_src, _ = extension_composition_iso(psi.src, phi.src, X)
                    _, bwd_dst = extension_composition_iso(psi.dst, phi.dst, X)
                    inner = extend_map(psi.src, extend_cell(phi, X))
                    outer = extend_cell(psi, extend(phi.dst, X))
                    composite = bwd_dst.after(outer.after(inner)).after(fwd_src)
                    assert extend_cell(hc, X) == composite
                done += 1
            except PolyError:
                continue


class TestExtendCell:
    def test_identity_cell_extends_to_identity(self):
        rng = random.Random(30)
        F = rand_polynomial(rng, 3)
        X = rand_family(rng, F.I, 2)
        cell = extend_cell(identity_cell(F), X)
        for j in F.J:
            assert cell.at(j) == FinMap.identity(cell.src.fibre(j))

    def test_cartesian_gives_pullback_naturality_squares(self):
        from polyverse.finset import is_pullback_cone
        from polyverse.poly import extend_map

        rng = random.Random(31)
        for _ in range(8):
            phi = rand_morphism(rng, 2, cartesian=True)
            X = rand_family(rng, phi.src.I, 2)
            h = rand_family_morphism(rng, X, 2)
            src_nat = extend_map(phi.src, h)
            dst_nat = extend_map(phi.dst, h)
            cX = extend_cell(phi, X)
            cY = extend_cell(phi, h.dst)
            for j in phi.src.J:
                assert is_pullback_cone(
                    dst_nat.at(j), cY.at(j), cX.at(j), src_nat.at(j)
                )

    def test_non_cartesian_counterexample_exists(self):
        from polyverse.finset import FamilyMorphism, is_pullback_cone

        phi = empty_phi2_cell()
        X = FinFamily(TERMINAL, {"*": FinSet(["x", "y"])})
        Y = FinFamily(TERMINAL, {"*": FinSet(["x"])})
        h = FamilyMorphism(X, Y, {"*": FinMap.constant(X.fibre("*"), Y.fibre("*"), "x")})
        from polyverse.poly import extend_map

        src_nat = extend_map(phi.src, h)
        dst_nat = extend_map(phi.dst, h)
        cX = extend_cell(phi, X)
        cY = extend_cell(phi, Y)
        assert not is_pullback_cone(
            dst_nat.at("*"), cY.at("*"), cX.at("*"), src_nat.at("*")
        )


class TestAssociatorAndCoherence:
    def test_identity_triple(self):
        one = identity_poly(TERMINAL)
        a = associator(one, one, one)
        assert a.is_cartesian()
        assert a.phi0.is_bijection()
        assert len(a.phi0.dom) == 1

    def test_identity_only_instance_trivially_coheres(self):
        one = identity_poly(TERMINAL)
        assert pentagon_check(one, one, one, one)["ok"]
        assert triangle_check(one, one)["ok"]

    def test_seed3_cardinalities_agree(self):
        # frozen from enumerating both double-composite shapes at seed 3
        rng = random.Random(3)
        f, g, h = (rand_polynomial(rng, 3, one_to_one=True) for _ in range(3))
        a = associator(f, g, h)
        assert len(a.phi0.dom) == 3
        assert len(a.phi0.cod) == 3
        assert a.phi0.is_bijection()

    def test_positional_cap_only_enters_the_scope(self):
        # perfbench/workloads.py calls pentagon_check(f, g, h, k, 3000) and
        # triangle_check(f, g, 3000)
        rng = random.Random(17)
        f, g, h, k = (rand_polynomial(rng, 2, one_to_one=True) for _ in range(4))
        assert pentagon_check(f, g, h, k, 3000) == pentagon_check(f, g, h, k)
        assert triangle_check(f, g, 3000) == triangle_check(f, g)
        with enumeration_cap(3000):
            for check in (lambda: pentagon_check(f, g, h, k, 1), lambda: triangle_check(f, g, 1)):
                with pytest.raises(EnumerationCapExceeded, match=r"\(cap 1\)"):
                    check()
            assert pentagon_check(f, g, h, k)["ok"]

    def test_pentagon_and_triangle_seeded(self):
        rng = random.Random(17)
        checked = 0
        while checked < 6:
            polys = [rand_polynomial(rng, 2, one_to_one=True) for _ in range(4)]
            f, g, h, k = polys
            try:
                assert pentagon_check(f, g, h, k)["ok"]
                assert triangle_check(f, g)["ok"]
            except Exception as exc:
                from polyverse.finset import EnumerationCapExceeded

                if isinstance(exc, EnumerationCapExceeded):
                    continue
                raise
            checked += 1

    def test_unitors_are_mutually_inverse(self):
        rng = random.Random(18)
        for _ in range(6):
            F = rand_polynomial(rng, 3)
            assert cells_square_equal(
                v_comp(runitor(F), runitor_inv(F)), identity_cell(F)
            )
            assert cells_square_equal(
                v_comp(lunitor(F), lunitor_inv(F)), identity_cell(F)
            )

    def test_codiscreteness(self):
        rng = random.Random(19)
        for _ in range(8):
            phi, psi = rand_parallel_pair(rng, 3, max_vertex=4)
            assert codiscreteness_check(phi, psi)["ok"]


class TestWhiskering:
    def test_whiskers_compose_with_hcomp(self):
        rng = random.Random(40)
        for _ in range(5):
            phi = rand_morphism(rng, 2, cartesian=True)
            G = rand_polynomial(rng, 2, I=phi.src.J)
            left = whisker_left(G, phi)
            assert left.src == compose(G, phi.src)[0]
            assert left.dst == compose(G, phi.dst)[0]
            F = rand_polynomial(rng, 2, J=phi.src.I)
            right = whisker_right(phi, F)
            assert right.src == compose(phi.src, F)[0]
            assert right.dst == compose(phi.dst, F)[0]

    def test_invert_cell_roundtrip(self):
        rng = random.Random(41)
        for _ in range(6):
            F = rand_polynomial(rng, 3)
            iso = runitor_inv(F)
            back = invert_cell(iso)
            assert cells_square_equal(v_comp(back, iso), identity_cell(F))


class TestSliceCells:
    def test_roundtrip_preserves_all_data(self):
        rng = random.Random(50)
        for _ in range(10):
            phi, psi = rand_parallel_pair(rng, 3, max_vertex=6)
            for cell in (phi, psi):
                cells = slice_reduce_cell(cell)
                back = slice_unreduce_cell(cells)
                assert back == cell
                assert all(c.is_cartesian() for c in cells.values()) == cell.is_cartesian()

    def test_adjustments_unchanged_by_reduction(self):
        rng = random.Random(51)
        phi, psi = rand_parallel_pair(rng, 3, max_vertex=6)
        alpha = unique_adjustment(phi, psi)
        cells_psi = slice_reduce_cell(psi)
        for z, fc_phi in slice_reduce_cell(phi).items():
            fc_psi = cells_psi[z]
            restricted = FinMap(
                fc_phi.dphi, fc_psi.dphi, {e: alpha.alpha(e) for e in fc_phi.dphi}
            )
            Adjustment(fc_phi, fc_psi, restricted)

    def test_fibrewise_functoriality(self):
        rng = random.Random(52)
        for _ in range(6):
            outer = rand_morphism(rng, 2)
            inner = rand_morphism(rng, 2, target=outer.src)
            comp = v_comp(outer, inner)
            cells_outer = slice_reduce_cell(outer)
            cells_inner = slice_reduce_cell(inner)
            for z, lhs in slice_reduce_cell(comp).items():
                assert lhs == v_comp(cells_outer[z], cells_inner[z])

    def test_fibre_cell_is_kept(self):
        # one fibre cell per base point, keyed in product order
        rng = random.Random(53)
        phi, _ = rand_parallel_pair(rng, 3, max_vertex=6)
        cells = slice_reduce_cell(phi)
        assert list(cells) == list(product_set(phi.src.I, phi.src.J))
        for z, cell in cells.items():
            assert cell.src.I == cell.src.J == TERMINAL
            assert cell.src.f == slice_reduce(phi.src).at(z)
        with pytest.raises(KeyError):
            cells[("nowhere", "nowhere")]

    def test_each_fibre_cell_is_validated_once(self):
        rng = random.Random(54)
        for _ in range(6):
            phi, _ = rand_parallel_pair(rng, 3, max_vertex=6)
            with recorded(PolyMorphism, "__post_init__") as validated:
                cells = slice_reduce_cell(phi)
            assert len(validated) == len(cells)

    def _two_point_cell(self):
        """The identity on a polynomial over I = {i0, i1}: b0 and b1 lie over
        (i0, j) with different operations, b2 over (i1, j)."""
        I, J = FinSet(["i0", "i1"]), FinSet(["j"])
        B, A = FinSet(["b0", "b1", "b2"]), FinSet(["a0", "a1"])
        F = Polynomial(
            I, B, A, J,
            FinMap(B, I, {"b0": "i0", "b1": "i0", "b2": "i1"}),
            FinMap(B, A, {"b0": "a0", "b1": "a1", "b2": "a1"}),
            FinMap.constant(A, J, "j"),
        )
        return identity_cell(F)

    def test_fibres_that_disagree_on_an_operation_are_not_glued(self):
        """Over (i0, j) there are no arities, so the fibre cell there may
        swap a0 and a1; over (i1, j) the arity b pins a0.  Each fibre cell
        is valid, but they send a0 to different places."""
        I, J = FinSet(["i0", "i1"]), FinSet(["j"])
        B, A = FinSet(["b"]), FinSet(["a0", "a1"])
        F = Polynomial(
            I, B, A, J,
            FinMap.constant(B, I, "i1"), FinMap.constant(B, A, "a0"), FinMap.constant(A, J, "j"),
        )
        cells = slice_reduce_cell(identity_cell(F))
        c = cells[("i0", "j")]
        swap = FinMap(c.src.A, c.dst.A, {"a0": "a1", "a1": "a0"})
        cells[("i0", "j")] = PolyMorphism(c.src, c.dst, c.dphi, swap, c.phi1, c.phi2)
        with pytest.raises(FinSetError, match="conflicting values for 'a0'"):
            slice_unreduce_cell(cells)

    def test_a_vertex_element_in_two_fibres_is_not_glued(self):
        cells = slice_reduce_cell(self._two_point_cell())
        c = cells[("i1", "j")]  # vertex {b2}, renamed to b0, which (i0, j) has
        vertex = FinSet(["b0"])
        cells[("i1", "j")] = PolyMorphism(
            c.src, c.dst, vertex,
            c.phi0, FinMap.constant(vertex, c.dst.B, "b2"), FinMap.constant(vertex, c.src.B, "b2"),
        )
        with pytest.raises(FinSetError, match="duplicate element 'b0'"):
            slice_unreduce_cell(cells)


def _outcome(build):
    """What ``build()`` gives: its value, or the type and message it raised."""
    try:
        return build()
    except FinSetError as exc:
        return type(exc), str(exc)


def _moved(rng, m: FinMap) -> FinMap:
    """``m`` with its value at one element, drawn at random, drawn again."""
    table = dict(m.pairs)
    table[rng.choice(m.dom.elements)] = rng.choice(m.cod.elements)
    return FinMap(m.dom, m.cod, table)


class TestPositionsAgreeWithLabels:
    """The positional square check, square-to-cell, ``fill`` and vertical
    composition give what the label-level constructions in
    ``tests/reference.py`` give, errors included."""

    def test_squares_of_random_morphisms(self):
        rng = random.Random(31)
        for _ in range(30):
            phi = rand_morphism(rng, 3, cartesian=True)
            F, G = phi.src, phi.dst
            cell = cell_from_square(F, G, phi.square_top(), phi.phi0)
            assert cell == cell_from_square_on_labels(F, G, phi.square_top(), phi.phi0)
            for top in [_moved(rng, phi.square_top()) for _ in range(3) if len(F.B)]:
                assert _outcome(lambda: cell_from_square(F, G, top, phi.phi0)) == _outcome(
                    lambda: cell_from_square_on_labels(F, G, top, phi.phi0)
                )

    def test_fill_of_random_morphisms(self):
        rng = random.Random(32)
        for _ in range(30):
            phi = rand_morphism(rng, 3)
            table = fill_table_on_labels(phi)
            for (a, d), e in table.items():
                assert phi.fill(a, d) == e
            for a in phi.src.A:
                for d in phi.dst.B:
                    if (a, d) not in table:
                        with pytest.raises(PolyError, match=re.escape(f"no vertex element over ({a!r}, {d!r})")):
                            phi.fill(a, d)

    def test_fill_of_a_label_outside_the_sets(self):
        phi = identity_cell(rand_polynomial(random.Random(0), 3))
        with pytest.raises(PolyError, match=re.escape("no vertex element over ('nope', 'nope')")):
            phi.fill("nope", "nope")

    def test_composable_pairs(self):
        rng = random.Random(33)
        for _ in range(30):
            outer = rand_morphism(rng, 3)
            inner = rand_morphism(rng, 3, target=outer.src)
            assert v_comp(outer, inner) == v_comp_on_labels(outer, inner)
            third = rand_morphism(rng, 3, target=inner.src)
            assert v_comp(v_comp(outer, inner), third) == v_comp_on_labels(
                v_comp_on_labels(outer, inner), third
            )

    def test_coherence_quads(self):
        rng = random.Random(11)
        checked = 0
        while checked < 6:
            f, g, h, k = (rand_polynomial(rng, 2, one_to_one=True) for _ in range(4))
            try:
                with enumeration_cap(3000):
                    kh, _ = compose(k, h)
                    gf, _ = compose(g, f)
                    hg, _ = compose(h, g)
                    direct = [associator(gf, h, k), associator(f, g, kh)]
                    stepwise = [
                        h_comp(identity_cell(k), associator(f, g, h)),
                        associator(f, hg, k),
                        h_comp(associator(g, h, k), identity_cell(f)),
                    ]
            except EnumerationCapExceeded:
                continue
            for x in direct + stepwise:
                top = x.square_top()
                assert x == cell_from_square_on_labels(x.src, x.dst, top, x.phi0)
            for cells in (direct, stepwise):
                assert v_comp(*cells[:2]) == v_comp_on_labels(*cells[:2])
            assert v_comp(v_comp(*stepwise[:2]), stepwise[2]) == v_comp_on_labels(
                v_comp_on_labels(*stepwise[:2]), stepwise[2]
            )
            checked += 1

    def test_a_square_that_does_not_commute_names_its_first_bad_arity(self):
        # b1 and b2 both break the square; b1 comes first
        F = from_map(FinMap(FinSet(["b0", "b1", "b2"]), FinSet(["a0", "a1"]), {"b0": "a0", "b1": "a1", "b2": "a1"}))
        G = from_map(FinMap(FinSet(["d0", "d1"]), FinSet(["c0", "c1"]), {"d0": "c0", "d1": "c1"}))
        top = FinMap.constant(F.B, G.B, "d0")
        bot = FinMap(F.A, G.A, {"a0": "c0", "a1": "c1"})
        for build in (cell_from_square, cell_from_square_on_labels):
            with pytest.raises(CellCommutationError, match=re.escape("square does not commute at 'b1'")):
                build(F, G, top, bot)
        for check in (Square, check_square_on_labels):
            with pytest.raises(FinSetError, match=re.escape("square does not commute at 'b1'")):
                check(F.f, G.f, top, bot)

    def test_random_squares(self):
        rng = random.Random(34)
        for _ in range(30):
            sq = rand_cartesian_square(rng, 3)
            check_square_on_labels(sq.src, sq.dst, sq.top, sq.bot)
            for top in [_moved(rng, sq.top) for _ in range(3) if len(sq.top.dom)]:
                got = _outcome(lambda: Square(sq.src, sq.dst, top, sq.bot) and None)
                assert got == _outcome(lambda: check_square_on_labels(sq.src, sq.dst, top, sq.bot))


def _two_arities_swapped():
    """``G = {d0, d1} -> {c}`` and the cell ``G => G`` whose square top
    reverses its two arities."""
    G = from_map(FinMap.constant(FinSet(["d0", "d1"]), FinSet(["c"]), "c"))
    return G, cell_from_square(G, G, FinMap(G.B, G.B, {"d0": "d1", "d1": "d0"}), FinMap.identity(G.A))


def _two_operations_without_arities_swapped():
    """``E = {d} -> {c0, c1, c2}`` with ``d`` over ``c2``, and the cell
    ``E => E`` that swaps the operations ``c0`` and ``c1``, which have no
    arities."""
    E = from_map(FinMap(FinSet(["d"]), FinSet(["c0", "c1", "c2"]), {"d": "c2"}))
    swap = FinMap(E.A, E.A, {"c0": "c1", "c1": "c0", "c2": "c2"})
    return E, cell_from_square(E, E, FinMap.identity(E.B), swap)


def _two_operations_swapped():
    """``F = {b0 -> a0, b1 -> a1}`` and the cell ``F => F`` that swaps both."""
    F = from_map(FinMap(FinSet(["b0", "b1"]), FinSet(["a0", "a1"]), {"b0": "a0", "b1": "a1"}))
    top, bot = FinMap(F.B, F.B, {"b0": "b1", "b1": "b0"}), FinMap(F.A, F.A, {"a0": "a1", "a1": "a0"})
    return F, cell_from_square(F, F, top, bot)


def _edge_cells() -> list:
    """The three swaps above and the identity cells of their polynomials:
    a square top that reverses two arities, whose target choices must be
    sorted by target arity, and operations without arities, told apart only
    by the outer operation."""
    swaps = [_two_arities_swapped(), _two_operations_without_arities_swapped(), _two_operations_swapped()]
    return [cell for P, swap in swaps for cell in (swap, identity_cell(P))]


class TestCompositesAgreeWithLabels:
    """``h_comp`` and the associator, read off the composition traces by
    position, give the cells that the label-level constructions in
    ``tests/reference.py`` give."""

    def test_random_morphisms_with_general_endpoints(self):
        rng = random.Random(43)
        done = 0
        while done < 20:
            phi = rand_morphism(rng, 2, cartesian=True)
            psi = rand_morphism(rng, 2, cartesian=True, target=rand_polynomial(rng, 2, I=phi.src.J))
            try:
                with enumeration_cap(3000):
                    cell = h_comp(psi, phi)
            except EnumerationCapExceeded:
                continue
            assert cell == h_comp_on_labels(psi, phi)
            done += 1

    def test_whiskerings_by_identity_cells(self):
        rng = random.Random(44)
        for _ in range(10):
            phi = rand_morphism(rng, 2, cartesian=True)
            G = rand_polynomial(rng, 2, I=phi.src.J)
            F = rand_polynomial(rng, 2, J=phi.src.I)
            assert whisker_left(G, phi) == h_comp_on_labels(identity_cell(G), phi)
            assert whisker_right(phi, F) == h_comp_on_labels(phi, identity_cell(F))

    def test_random_one_to_one_triples(self):
        rng = random.Random(45)
        for _ in range(20):
            f, g, h = (rand_polynomial(rng, 2, one_to_one=True) for _ in range(3))
            assert associator(f, g, h) == associator_on_labels(f, g, h)

    def test_reversed_arities_and_operations_without_arities(self):
        cells = _edge_cells()
        for psi, phi in itertools.product(cells, repeat=2):
            assert h_comp(psi, phi) == h_comp_on_labels(psi, phi)
        polys = list({x.src: None for x in cells})
        for f, g, h in itertools.product(polys, repeat=3):
            assert associator(f, g, h) == associator_on_labels(f, g, h)

    def test_criterion_3_quads(self):
        # every horizontal composite and associator that ``coherence`` builds
        # at the config of acceptance criterion 3
        with recorded(poly2, "h_comp", "associator") as built:
            rep = run_suite("coherence", InstanceGenConfig(seed=11, count=20, max_set_size=3))
        assert rep.failed == 0 and {name for name, _, _ in built} == {"h_comp", "associator"}
        oracle = {"h_comp": h_comp_on_labels, "associator": associator_on_labels}
        for name, args, cell in built:
            assert cell == oracle[name](*args)


class TestTrustedCellsPassTheChecks:
    """Every cell built through ``PolyMorphism._of``, without checks, is one
    the checked constructor accepts: rebuilding it through ``PolyMorphism(...)``
    does not raise and gives an equal cell."""

    @pytest.fixture
    def trusted(self):
        """The cells built through ``_of`` while the test runs."""
        with recorded(PolyMorphism, "_of") as calls:
            yield calls

    @staticmethod
    def _assert_rebuilt(calls):
        assert calls
        for _, _, x in calls:
            assert PolyMorphism(x.src, x.dst, x.dphi, x.phi0, x.phi1, x.phi2) == x

    def test_random_morphisms(self, trusted):
        rng = random.Random(41)
        for _ in range(30):
            outer = rand_morphism(rng, 3)
            inner = rand_morphism(rng, 3, target=outer.src)
            third = rand_morphism(rng, 3, target=inner.src)
            v_comp(v_comp(outer, inner), third)
            v_comp(outer, v_comp(inner, third))
            identity_cell(inner.src)
            runitor(inner.src)
            lunitor(inner.src)
            cart = rand_morphism(rng, 3, cartesian=True)
            cell_from_square(cart.src, cart.dst, cart.square_top(), cart.phi0)
        self._assert_rebuilt(trusted)

    def test_horizontal_composites(self, trusted):
        rng = random.Random(42)
        done = 0
        while done < 10:
            phi = rand_morphism(rng, 2, cartesian=True)
            psi = rand_morphism(rng, 2, cartesian=True, target=rand_polynomial(rng, 2, I=phi.src.J))
            try:
                with enumeration_cap(3000):
                    h_comp(psi, phi)
                    whisker_left(psi.src, phi)
                    whisker_right(psi, phi.src)
            except EnumerationCapExceeded:
                continue
            done += 1
        for psi, phi in itertools.product(_edge_cells(), repeat=2):
            h_comp(psi, phi)
        self._assert_rebuilt(trusted)

    def test_associators(self, trusted):
        rng = random.Random(43)
        triples = [[rand_polynomial(rng, 2, one_to_one=True) for _ in range(3)] for _ in range(10)]
        polys = list({x.src: None for x in _edge_cells()})
        for f, g, h in triples + list(itertools.product(polys, repeat=3)):
            associator(f, g, h)
        self._assert_rebuilt(trusted)

    def test_coherence_quads(self, trusted):
        rng = random.Random(11)
        checked = 0
        while checked < 6:
            f, g, h, k = (rand_polynomial(rng, 2, one_to_one=True) for _ in range(4))
            try:
                with enumeration_cap(3000):
                    pentagon_check(f, g, h, k)
                    triangle_check(f, g)
            except EnumerationCapExceeded:
                continue
            checked += 1
        self._assert_rebuilt(trusted)
