import itertools
import random

import pytest

from polyverse import internalcat, suites
from polyverse.finset import FinMap, FinSet, TERMINAL
from polyverse.poly import PolyError, _shared_builds, from_map
from polyverse.poly2 import (
    PolyMorphism,
    identity_cell,
    unique_adjustment,
    v_comp,
)
from polyverse.internalcat import (
    InternalCatError,
    InternalCategory,
    InternalFunctor,
    InternalNatTrans,
    adjustment_to_nat,
    all_internal_nat_trans,
    equivalence_sets,
    internal_full_subcat,
    internal_functor,
    nat_to_adjustment,
)
from polyverse.generators import (
    rand_morphism,
    rand_parallel_cartesian_pair,
    rand_polynomial,
)
from reference import identity_adjustment, internal_functor_general, recorded, slice_exponential


class TestInternalFullSubcat:
    def test_empty_fibres_one_morphism_per_pair(self):
        A = FinSet(["a0", "a1"])
        f = FinMap(FinSet(), A, {})
        cat = internal_full_subcat(f)
        assert len(cat.mor) == len(A) * len(A)

    def test_two_element_monoid_of_self_maps(self):
        # |A| = 1, |B| = 2: the four self-maps of a two-element set
        B = FinSet(["b0", "b1"])
        f = FinMap.constant(B, FinSet(["a"]), "a")
        cat = internal_full_subcat(f)
        assert len(cat.mor) == 4

    def test_category_laws_exhaustively(self):
        # all fibres of size at most 3; construction enforces the laws
        rng = random.Random(1)
        for _ in range(8):
            A = FinSet([f"a{i}" for i in range(rng.randint(1, 2))])
            sizes = {a: rng.randint(0, 3) for a in A}
            B = FinSet(f"b{a}_{k}" for a in A for k in range(sizes[a]))
            f = FinMap(B, A, {b: b.split("_")[0][1:] for b in B})
            internal_full_subcat(f)

    def test_agrees_with_slice_exponential_counts(self):
        # the morphism object is the exponential over the product of the
        # object set with itself, fibre by fibre
        B = FinSet(["b0", "b1", "b2"])
        A = FinSet(["a0", "a1"])
        f = FinMap(B, A, {"b0": "a0", "b1": "a0", "b2": "a1"})
        cat = internal_full_subcat(f)
        AA = FinSet((a, a2) for a in A for a2 in A)
        f1 = FinMap(
            FinSet(((a, a2), b) for (a, a2) in AA for b in f.preimage(a)),
            AA,
            {e: e[0] for e in [((a, a2), b) for (a, a2) in AA for b in f.preimage(a)]},
        )
        f2 = FinMap(
            FinSet(((a, a2), b) for (a, a2) in AA for b in f.preimage(a2)),
            AA,
            {e: e[0] for e in [((a, a2), b) for (a, a2) in AA for b in f.preimage(a2)]},
        )
        expo = slice_exponential(f1, f2)
        for (a, a2) in AA:
            assert len(expo.preimage((a, a2))) == len(cat.hom(a, a2))

    def test_broken_category_rejected(self):
        B = FinSet(["b0", "b1"])
        f = FinMap.constant(B, FinSet(["a"]), "a")
        cat = internal_full_subcat(f)
        twisted = {}
        elems = list(cat.mor)
        for m in cat.comp.dom:
            twisted[m] = elems[0] if cat.comp(m) == elems[1] else cat.comp(m)
        with pytest.raises(InternalCatError):
            InternalCategory(cat.obj, cat.mor, cat.dom, cat.cod, cat.ident, FinMap(cat.comp.dom, cat.mor, twisted))


class TestInternalFunctor:
    def test_identity_cell_gives_identity_functor(self):
        rng = random.Random(2)
        F = rand_polynomial(rng, 2, one_to_one=True)
        fun = internal_functor(identity_cell(F))
        assert fun == InternalFunctor.identity(internal_full_subcat(F.f))

    def test_functor_composition(self):
        rng = random.Random(3)
        for _ in range(6):
            chi = rand_morphism(
                rng, 2, cartesian=True,
                target=rand_polynomial(rng, 2, one_to_one=True),
            )
            outer = rand_morphism(rng, 2, cartesian=True, target=chi.src)
            lhs = internal_functor(v_comp(chi, outer))
            rhs = internal_functor(chi).after(internal_functor(outer))
            assert lhs == rhs

    def test_fully_faithful_seed5(self):
        rng = random.Random(5)
        phi = rand_morphism(
            rng, 2, cartesian=True, target=rand_polynomial(rng, 2, one_to_one=True)
        )
        fun = internal_functor(phi)
        assert fun.is_fully_faithful()
        for a in fun.src.obj:
            for a2 in fun.src.obj:
                lhs = len(fun.src.hom(a, a2))
                rhs = len(fun.dst.hom(fun.on_obj(a), fun.on_obj(a2)))
                assert lhs == rhs

    def test_non_cartesian_rejected(self):
        with pytest.raises(PolyError):
            internal_functor(not_cartesian())

    def test_general_endpoints_via_slice(self):
        rng = random.Random(6)
        phi = rand_morphism(rng, 2, cartesian=True)
        funs = internal_functor_general(phi)
        assert set(funs) == set(slice_reduce_base(phi))
        for fun in funs.values():
            assert fun.is_fully_faithful()


def not_cartesian():
    """The cell from two arities over the point to no arity over ``a``."""
    D = FinSet(["d0", "d1"])
    g = FinMap.constant(D, TERMINAL, "*")
    f = FinMap(FinSet(), FinSet(["a"]), {})
    return PolyMorphism(
        from_map(g), from_map(f), FinSet(),
        FinMap(FinSet(["*"]), FinSet(["a"]), {"*": "a"}),
        FinMap(FinSet(), FinSet(), {}),
        FinMap(FinSet(), D, {}),
    )


def slice_reduce_base(phi):
    from polyverse.poly import product_set

    return product_set(phi.src.I, phi.src.J)


class TestAdjustmentNatCorrespondence:
    def _pair(self, seed):
        rng = random.Random(seed)
        return rand_parallel_cartesian_pair(rng, 2)

    def test_identity_roundtrip(self):
        phi, _ = self._pair(7)
        adj = identity_adjustment(phi)
        nat = adjustment_to_nat(adj)
        back = nat_to_adjustment(nat, phi, phi)
        assert back.alpha == adj.alpha

    def test_roundtrip_on_small_instances(self):
        for seed in range(8):
            phi, psi = self._pair(seed)
            adj = unique_adjustment(phi, psi)
            nat = adjustment_to_nat(adj)
            back = nat_to_adjustment(nat, phi, psi)
            assert back.alpha == adj.alpha

    def test_unique_internal_nt(self):
        phi, psi = self._pair(9)
        F = internal_functor(phi)
        G = internal_functor(psi)
        D = G.dst
        pools = [
            [m for m in D.mor if D.dom(m) == F.on_obj(a) and D.cod(m) == G.on_obj(a)]
            for a in F.src.obj
        ]
        count = 0
        for choice in itertools.product(*pools):
            comps = FinMap(F.src.obj, D.mor, dict(zip(F.src.obj, choice)))
            try:
                InternalNatTrans(F, G, comps)
                count += 1
            except InternalCatError:
                pass
        assert count == 1
        assert all_internal_nat_trans(F, G) == [adjustment_to_nat(unique_adjustment(phi, psi))]

    def test_non_natural_rejected(self):
        phi, psi = self._pair(10)
        F = internal_functor(phi)
        G = internal_functor(psi)
        good = adjustment_to_nat(unique_adjustment(phi, psi))
        D = G.dst
        table = dict(good.components.pairs)
        # replace one component with a wrong-endpoint morphism if possible
        for a in F.src.obj:
            for m in D.mor:
                if (
                    m != table[a]
                    and D.dom(m) == F.on_obj(a)
                    and D.cod(m) == G.on_obj(a)
                ):
                    table[a] = m
                    with pytest.raises(InternalCatError):
                        InternalNatTrans(F, G, FinMap(F.src.obj, D.mor, table))
                    return
        pytest.skip("no alternative component available on this instance")

    def test_four_way_equivalence_sets_coincide(self):
        for seed in (11, 12, 13):
            phi, psi = self._pair(seed)
            sets = equivalence_sets(phi, psi)
            assert sets["natural"] == sets["component"] == sets["conjugate"] == sets["over_b"]
            assert len(sets["over_b"]) == 1


class TestBuiltOncePerInstance:
    """The internal-equiv suite builds each distinct internal category and
    induced functor of an instance once, in the instance's table."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_category_and_functor_built_once(self, seed):
        cfg = suites.InstanceGenConfig(seed=seed, count=1, max_set_size=2)
        with recorded(internalcat, "internal_full_subcat", "internal_functor") as builds:
            rep = suites.run_suite("internal-equiv", cfg)
            first = [(name, arg) for name, (arg,), _ in builds]
            assert rep.failed == 0 and rep.skipped == 0
            maps = [arg for name, arg in first if name == "internal_full_subcat"]
            cells = [arg for name, arg in first if name == "internal_functor"]
            assert 0 < len(maps) == len(set(maps)) <= 5
            assert 0 < len(cells) == len(set(cells)) <= 5
            # every category a functor runs between was built, and only those
            assert set(maps) == {c.src.f for c in cells} | {c.dst.f for c in cells}
            # a second run builds everything again
            suites.run_suite("internal-equiv", cfg)
            assert [(name, arg) for name, (arg,), _ in builds] == first + first

    def test_categories_and_functors_keep_their_sources(self):
        phi, psi = rand_parallel_cartesian_pair(random.Random(9), 2)
        F = internal_functor(phi)
        assert F.src == internal_full_subcat(phi.src.f) and F.dst == internal_full_subcat(phi.dst.f)
        assert F == InternalFunctor(F.src, F.dst, F.on_obj, F.on_mor)
        # inside one table, the functor runs between the categories it holds
        with _shared_builds():
            F = internal_functor(phi)
            assert F.src is internal_full_subcat(phi.src.f)

    def test_foreign_categories_and_functors_rejected(self):
        phi, psi = rand_parallel_cartesian_pair(random.Random(9), 2)
        adj = unique_adjustment(phi, psi)
        with _shared_builds():
            nat = adjustment_to_nat(adj)
            assert nat.src is internal_functor(phi) and nat.dst is internal_functor(psi)
        # a cell that induces no functor is refused by everything that reads one
        with pytest.raises(PolyError):
            equivalence_sets(not_cartesian(), not_cartesian())
