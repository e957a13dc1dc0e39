import importlib
import itertools
import pkgutil
import random

import pytest

import polyverse
from polyverse import finset, poly
from polyverse.finset import (
    EnumerationCapExceeded, FamilyMorphism, FinFamily, FinMap, FinSet, TERMINAL, enumeration_cap, pullback,
)
from polyverse.naturalmodel import mk_bool_universe, mk_skewed_universe, pseudomonad_from
from polyverse.poly import (
    PolyError,
    compose,
    compose_direct,
    extend,
    extend_map,
    extension_composition_iso,
    from_map,
    identity_poly,
    slice_reduce,
    slice_unreduce,
)
from polyverse.poly2 import identity_cell, pentagon_check, triangle_check
from polyverse.suites import InstanceGenConfig, run_suite
from polyverse.generators import (
    rand_composable_pair,
    rand_family,
    rand_family_morphism,
    rand_polynomial,
)
from reference import (
    constant, decode_arity, decode_operation, identity_extension_iso, is_built_once, linear_poly, recorded, slice_extension,
)


def mapping(dom, cod, **assign):
    return FinMap(FinSet(dom), FinSet(cod), assign)


def extend_oracle(F, X):
    """Independent enumeration of (operation, section) pairs, no slice ops."""
    out = {}
    for j in F.J:
        elems = []
        for a in [a for a in F.A if F.t(a) == j]:
            bs = F.f.preimage(a)
            pools = [X.fibre(F.s(b)).elements for b in bs]
            for choice in itertools.product(*pools):
                sect = tuple(
                    sorted(zip(bs, choice), key=lambda p: (isinstance(p[0], tuple), p[0]))
                )
                elems.append((a, sect))
        out[j] = len(elems)
    return out


class TestConstructors:
    def test_from_map_empty(self):
        f = mapping([], ["a"])
        P = from_map(f)
        assert len(P.B) == 0 and P.I == TERMINAL and P.J == TERMINAL

    def test_from_map_identity_point(self):
        i1 = FinMap.identity(TERMINAL)
        assert from_map(i1) == identity_poly(TERMINAL)

    def test_from_map_embeds(self):
        B = FinSet([f"b{i}" for i in range(5)])
        A = FinSet(["a0", "a1"])
        f = FinMap(B, A, {b: "a0" for b in B})
        assert from_map(f).f == f

    def test_identity_poly_empty(self):
        P = identity_poly(FinSet())
        assert len(P.B) == 0 and len(P.A) == 0

    def test_linear_poly_needs_span(self):
        s = mapping(["a"], ["i"], a="i")
        t = mapping(["x"], ["j"], x="j")
        with pytest.raises(PolyError):
            linear_poly(s, t)


class TestExtension:
    def test_identity_extension_recorded_iso(self):
        I = FinSet(["i0", "i1"])
        X = FinFamily(I, {"i0": FinSet(["x", "y"]), "i1": FinSet()})
        fwd, bwd = identity_extension_iso(X)
        for i in I:
            assert fwd.at(i).after(bwd.at(i)) == FinMap.identity(X.fibre(i))
            assert bwd.at(i).after(fwd.at(i)) == FinMap.identity(fwd.src.fibre(i))

    def test_from_map_extension_count(self):
        # fibre sizes (2, 3) over two operations, |X| = 2: 2^2 + 2^3 = 12
        B = FinSet([f"b{i}" for i in range(5)])
        A = FinSet(["a0", "a1"])
        f = FinMap(B, A, {"b0": "a0", "b1": "a0", "b2": "a1", "b3": "a1", "b4": "a1"})
        F = from_map(f)
        X = FinFamily(TERMINAL, {"*": FinSet(["x", "y"])})
        E = extend(F, X)
        assert len(E.fibre("*")) == 12
        assert extend_oracle(F, X)["*"] == 12

    def test_linear_extension_count(self):
        # three operations over one target, all source fibres of size 2: 6
        A = FinSet(["a0", "a1", "a2"])
        I = FinSet(["i0"])
        J = FinSet(["j0"])
        F = linear_poly(constant(A, I, "i0"), constant(A, J, "j0"))
        X = FinFamily(I, {"i0": FinSet(["x", "y"])})
        assert len(extend(F, X).fibre("j0")) == 6

    def test_linear_empty_operations(self):
        F = linear_poly(
            FinMap(FinSet(), FinSet(["i"]), {}), FinMap(FinSet(), FinSet(["j"]), {})
        )
        X = FinFamily(FinSet(["i"]), {"i": FinSet(["x"])})
        assert len(extend(F, X).fibre("j")) == 0

    def test_empty_arities_survive_empty_family(self):
        # operations with empty arity contribute the empty section even when
        # the family itself is empty
        B = FinSet(["b0"])
        A = FinSet(["a0", "a1"])
        f = FinMap(B, A, {"b0": "a0"})
        F = from_map(f)
        X = FinFamily(TERMINAL, {"*": FinSet()})
        E = extend(F, X)
        assert E.fibre("*") == FinSet([("a1", ())])

    def test_oracle_agrees_randomly(self):
        rng = random.Random(13)
        for _ in range(15):
            F = rand_polynomial(rng, 3)
            X = rand_family(rng, F.I, 3)
            E = extend(F, X)
            oracle = extend_oracle(F, X)
            assert {j: len(E.fibre(j)) for j in F.J} == oracle


class TestCompose:
    def test_identity_left_unit_cardinality(self):
        rng = random.Random(5)
        for _ in range(8):
            F = rand_polynomial(rng, 3)
            GF, _ = compose(identity_poly(F.J), F)
            X = rand_family(rng, F.I, 2)
            lhs = extend(GF, X)
            rhs = extend(F, X)
            assert {j: len(lhs.fibre(j)) for j in F.J} == {
                j: len(rhs.fibre(j)) for j in F.J
            }

    def test_linear_compose_is_span_composite(self):
        # spans compose by pullback; the composite of linear polynomials is
        # the linear polynomial of the composite span
        rng = random.Random(7)
        for _ in range(8):
            I, J, K = (FinSet([f"{c}{i}" for i in range(2)]) for c in "ijk")
            A = FinSet(["a0", "a1"])
            C = FinSet(["c0", "c1", "c2"])
            s = FinMap(A, I, {a: rng.choice(I.elements) for a in A})
            t = FinMap(A, J, {a: rng.choice(J.elements) for a in A})
            u = FinMap(C, J, {c: rng.choice(J.elements) for c in C})
            v = FinMap(C, K, {c: rng.choice(K.elements) for c in C})
            F = linear_poly(s, t)
            G = linear_poly(u, v)
            GF, _ = compose(G, F)
            P, p1, p2 = pullback(u, t)
            span = linear_poly(s.after(p2), v.after(p1))
            X = rand_family(rng, I, 2)
            lhs = extend(GF, X)
            rhs = extend(span, X)
            assert {k: len(lhs.fibre(k)) for k in K} == {
                k: len(rhs.fibre(k)) for k in K
            }

    def test_extension_preserves_composition_counts(self):
        rng = random.Random(42)
        done = 0
        while done < 10:
            F, G = rand_composable_pair(rng, 3)
            X = rand_family(rng, F.I, 2)
            try:
                with enumeration_cap(4000):
                    GF, _ = compose(G, F)
                    lhs = extend(GF, X)
                    rhs = extend(G, extend(F, X))
            except Exception:
                continue
            assert {k: len(lhs.fibre(k)) for k in G.J} == {
                k: len(rhs.fibre(k)) for k in G.J
            }
            done += 1

    def test_matches_direct_construction(self):
        rng = random.Random(3)
        for _ in range(20):
            F, G = rand_composable_pair(rng, 3)
            GF, trace = compose(G, F)
            assert GF == compose_direct(G, F)
            trace.validate(G, F)

    def test_boundary_mismatch(self):
        F = rand_polynomial(random.Random(0), 2)
        G = rand_polynomial(random.Random(1), 2, I=FinSet(["nope"]))
        with pytest.raises(PolyError):
            compose(G, F)

    def test_associative_cardinalities(self):
        rng = random.Random(9)
        done = 0
        while done < 6:
            F = rand_polynomial(rng, 2)
            G = rand_polynomial(rng, 2, I=F.J)
            H = rand_polynomial(rng, 2, I=G.J)
            X = rand_family(rng, F.I, 2)
            try:
                left = compose(compose(H, G)[0], F)[0]
                right = compose(H, compose(G, F)[0])[0]
                with enumeration_cap(6000):
                    lhs = extend(left, X)
                    rhs = extend(right, X)
            except Exception:
                continue
            assert {k: len(lhs.fibre(k)) for k in H.J} == {
                k: len(rhs.fibre(k)) for k in H.J
            }
            done += 1


class TestCompositionIso:
    def test_roundtrip_identity_both_ways(self):
        rng = random.Random(42)
        done = 0
        while done < 8:
            F, G = rand_composable_pair(rng, 3)
            X = rand_family(rng, F.I, 2)
            try:
                with enumeration_cap(4000):
                    fwd, bwd = extension_composition_iso(G, F, X)
            except Exception:
                continue
            for k in G.J:
                assert bwd.at(k).after(fwd.at(k)) == FinMap.identity(fwd.src.fibre(k))
                assert fwd.at(k).after(bwd.at(k)) == FinMap.identity(fwd.dst.fibre(k))
            done += 1

    def test_empty_family(self):
        F, G = rand_composable_pair(random.Random(2), 2)
        X = FinFamily(F.I, {i: FinSet() for i in F.I})
        fwd, _ = extension_composition_iso(G, F, X)
        for k in G.J:
            assert fwd.at(k).is_bijection()

    def test_singletons(self):
        one = identity_poly(TERMINAL)
        X = FinFamily(TERMINAL, {"*": FinSet(["x"])})
        fwd, _ = extension_composition_iso(one, one, X)
        assert len(fwd.src.fibre("*")) == 1

    def test_naturality(self):
        rng = random.Random(123)
        done = 0
        while done < 6:
            F, G = rand_composable_pair(rng, 2)
            X = rand_family(rng, F.I, 2)
            h = rand_family_morphism(rng, X, 2)
            try:
                GF, _ = compose(G, F)
                with enumeration_cap(4000):
                    fwd_src, _ = extension_composition_iso(G, F, X)
                    fwd_dst, _ = extension_composition_iso(G, F, h.dst)
                    lhs = fwd_dst.after(extend_map(GF, h))
                    rhs = extend_map(G, extend_map(F, h)).after(fwd_src)
            except Exception:
                continue
            assert lhs == rhs
            done += 1


class TestDecoders:
    def test_operation_and_arity_decoding(self):
        rng = random.Random(77)
        F, G = rand_composable_pair(rng, 2)
        GF, trace = compose(G, F)
        for melt in GF.A:
            c, assign = decode_operation(melt)
            assert c in G.A
            assert set(assign) == set(G.f.preimage(c))
            for d, a in assign.items():
                assert F.t(a) == G.s(d)
        for nelt in GF.B:
            b, melt, d = decode_arity(nelt)
            assert b in F.B and melt in GF.A and d in G.B


class TestConnectedLimits:
    def test_extension_preserves_family_pullbacks(self):
        """Pointwise pullbacks of a cospan of families are carried to
        pullbacks by the extension."""
        from polyverse.finset import is_pullback_cone

        rng = random.Random(31)
        for _ in range(6):
            F = rand_polynomial(rng, 2)
            W = rand_family(rng, F.I, 2)

            def into_w(prefix):
                fibres, maps = {}, {}
                for n, i in enumerate(F.I):
                    size = rng.randint(0, 2) if len(W.fibre(i)) > 0 else 0
                    src = FinSet(f"{prefix}{n}_{k}" for k in range(size))
                    fibres[i] = src
                    maps[i] = FinMap(
                        src, W.fibre(i), {x: rng.choice(W.fibre(i).elements) for x in src}
                    )
                return FamilyMorphism(FinFamily(F.I, fibres), W, maps)

            g1, g2 = into_w("x"), into_w("y")
            fibres, pr1, pr2 = {}, {}, {}
            for i in F.I:
                Pset, p1, p2 = pullback(g1.at(i), g2.at(i))
                fibres[i], pr1[i], pr2[i] = Pset, p1, p2
            Pfam = FinFamily(F.I, fibres)
            e1 = extend_map(F, FamilyMorphism(Pfam, g1.src, pr1))
            e2 = extend_map(F, FamilyMorphism(Pfam, g2.src, pr2))
            eg1 = extend_map(F, g1)
            eg2 = extend_map(F, g2)
            for j in F.J:
                assert is_pullback_cone(eg1.at(j), eg2.at(j), e1.at(j), e2.at(j))


class TestSliceReduce:
    def test_roundtrip(self):
        rng = random.Random(15)
        for _ in range(12):
            F = rand_polynomial(rng, 3)
            assert slice_unreduce(slice_reduce(F)) == F

    def test_identity_poly_gives_diagonal(self):
        I = FinSet(["i0", "i1"])
        S = slice_reduce(identity_poly(I))
        for (i, j) in S.src.index:
            expected = FinSet([i]) if i == j else FinSet()
            assert S.src.fibre((i, j)) == expected
            assert S.dst.fibre((i, j)) == FinSet([j])

    def test_point_endpoints_reduce_trivially(self):
        rng = random.Random(4)
        F = rand_polynomial(rng, 3, one_to_one=True)
        S = slice_reduce(F)
        assert S.src.index == FinSet([("*", "*")])
        assert S.at(("*", "*")).pairs == F.f.pairs

    def test_extension_commutes(self):
        """The sliced extension refines the plain one: the fibre of the
        extension at j is in bijection with pairs of an operation over j and
        a section assembled from the per-source-point section parts."""
        rng = random.Random(21)
        for _ in range(8):
            F = rand_polynomial(rng, 2)
            X = rand_family(rng, F.I, 2)
            S = slice_reduce(F)
            Xt = FinFamily(S.src.index, {(i, j): X.fibre(i) for (i, j) in S.src.index})
            SE = slice_extension(S, Xt)
            E = extend(F, X)
            for j in F.J:
                total = 0
                for a in F.t.preimage(j):
                    prod = 1
                    for i in F.I:
                        parts = [
                            sect
                            for (aa, sect) in SE.fibre((i, j))
                            if aa == a
                        ]
                        prod *= len(parts)
                    total += prod
                assert total == len(E.fibre(j))


def _quad(seed):
    rng = random.Random(seed)
    return [rand_polynomial(rng, 2, one_to_one=True) for _ in range(4)]


def _wide_pair():
    """G with three arities over one operation after F with four operations:
    the composite has 4**3 = 64 operations."""
    F = from_map(FinMap.identity(FinSet(["a0", "a1", "a2", "a3"])))
    G = from_map(constant(FinSet(["d0", "d1", "d2"]), FinSet(["c"]), "c"))
    return G, F


# Each builder decorated ``@_built_once``, a function or a method: fresh
# equal arguments, and a cap under which it refuses them, or None where it
# enumerates nothing.
BUILT_ONCE = {
    "polyverse.poly.compose": (_wide_pair, 50),
    "polyverse.poly.extend": (lambda: (_wide_pair()[0], FinFamily(TERMINAL, {"*": FinSet(["x0", "x1", "x2", "x3"])})), 50),
    "polyverse.poly.from_map": (lambda: (FinMap.identity(FinSet(["a0", "a1"])),), None),
    "polyverse.poly.slice_reduce": (lambda: _wide_pair()[1:], None),
    "polyverse.internalcat.internal_full_subcat": (lambda: (_wide_pair()[0].f,), 10),
    "polyverse.internalcat.internal_functor": (lambda: (identity_cell(_wide_pair()[0]),), 10),
    "polyverse.naturalmodel.unit_structure": (lambda: (mk_bool_universe(),), None),
    "polyverse.naturalmodel.sigma_structure": (lambda: (mk_bool_universe(),), 1),
    "polyverse.naturalmodel.pi_structure": (lambda: (mk_bool_universe(),), 1),
    "polyverse.naturalmodel.Universe.pairing": (lambda: (mk_bool_universe(), "code1", (("el", "code1"),)), None),
    "polyverse.naturalmodel.Universe.lam": (lambda: (mk_bool_universe(), "code1", (("el", "code1"),)), None),
}


@finset._shared_builds()
def _pseudomonad_laws(u):
    """The three law adjustments of ``u``'s pseudomonad, read in one table."""
    pm = pseudomonad_from(u)
    return pm.assoc, pm.left_unit, pm.right_unit


class TestOneBuildPerCheck:
    """Inside a check, each builder decorated ``@_built_once`` builds each
    result once per distinct arguments and cap; the table goes when the check
    returns."""

    @pytest.fixture
    def built(self):
        """The argument tuples ``compose`` and ``extend`` were built on."""
        with recorded(poly, "compose", "extend") as calls:
            yield lambda name: [args for called, args, _ in calls if called == name]

    @pytest.mark.parametrize("check, args", [
        (pentagon_check, _quad(17)),
        (triangle_check, _quad(17)[:2]),
        (_pseudomonad_laws, [mk_skewed_universe()]),
    ], ids=["pentagon", "triangle", "pseudomonad"])
    def test_each_distinct_pair_is_composed_once(self, built, check, args):
        shared = check(*args)
        pairs = built("compose")
        assert pairs and len(pairs) == len(set(pairs))
        # ``__wrapped__`` runs the check outside any table, so every call builds
        assert check.__wrapped__(*args) == shared
        unshared = built("compose")[len(pairs):]
        assert len(unshared) > len(pairs) and set(unshared) == set(pairs)

    def test_shared_results_equal_unshared_ones(self, built):
        rng = random.Random(5)
        for _ in range(6):
            F, G = rand_composable_pair(rng, 2)
            X = rand_family(rng, F.I, 2)
            before = len(built("extend"))
            with finset._shared_builds():
                iso = extension_composition_iso(G, F, X)
                assert extension_composition_iso(G, F, X) == iso
            # the extensions of F and G.F at X, and of G at F's
            assert len(built("extend")) - before == 3
            assert iso == extension_composition_iso(G, F, X)

    def test_model_pseudomonad_opens_one_table(self, built):
        # one table per check built 12 composites on ``bool``; one table for
        # the command builds each of the 9 distinct ones once
        from test_cli import run_cli

        proc = run_cli("model", "pseudomonad", "bool")
        assert proc.returncode == 0
        assert proc.stdout
        assert len(built("compose")) == len(set(built("compose"))) == 9
        assert finset._SCOPE.get()[1] is None

    def test_no_table_outlives_a_check(self):
        f, g, h, k = _quad(17)
        pentagon_check(f, g, h, k)
        assert finset._SCOPE.get()[1] is None
        with enumeration_cap(1), pytest.raises(EnumerationCapExceeded):
            pentagon_check(f, g, h, k)
        assert finset._SCOPE.get()[1] is None
        with pytest.raises(EnumerationCapExceeded):
            with finset._shared_builds():
                with enumeration_cap(5):
                    compose(*_wide_pair())
        assert finset._SCOPE.get()[1] is None
        # a suite opens one table per instance
        run_suite("coherence", InstanceGenConfig(seed=0, count=1, max_set_size=2))
        assert finset._SCOPE.get()[1] is None

    def test_these_are_all_the_builders_built_once(self):
        modules = [importlib.import_module(f"polyverse.{m.name}") for m in pkgutil.iter_modules(polyverse.__path__)]
        found = {
            f"{fn.__module__}.{fn.__qualname__}"
            for m in modules for obj in vars(m).values()
            for fn in [obj, *(vars(obj).values() if isinstance(obj, type) else ())] if is_built_once(fn)
        }
        assert found == set(BUILT_ONCE)

    @pytest.mark.parametrize("name", sorted(BUILT_ONCE), ids=lambda name: name.rsplit(".", 1)[1])
    def test_one_build_per_table_and_cap(self, name):
        where, attr = name.rsplit(".", 1)
        owner = pkgutil.resolve_name(where)
        build, (make_args, cap) = getattr(owner, attr), BUILT_ONCE[name]
        args, equal_args = make_args(), make_args()
        with recorded(owner, attr) as builds:
            # outside a table each call builds
            unshared = build(*args)
            assert build(*args) is not unshared and len(builds) == 2
            with finset._shared_builds():
                shared = build(*args)
                assert build(*equal_args) is shared and shared == unshared and len(builds) == 3
                with enumeration_cap(cap or 1):
                    if cap is None:  # it enumerates nothing, so it builds again and succeeds
                        assert build(*args) is not shared
                    else:
                        with pytest.raises(EnumerationCapExceeded, match=rf"\(cap {cap}\)"):
                            build(*args)
                    assert len(builds) == 4
                assert build(*args) is shared
