import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from polyverse import finset
from polyverse.finset import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    FamilyMorphism,
    FinFamily,
    FinMap,
    FinSet,
    FinSetError,
    Square,
    base_change,
    dep_prod,
    dep_sum,
    enumeration_cap,
    is_pullback_cone,
    label_key,
    pullback,
    section_tuple,
    _guard,
)
from polyverse.generators import rand_composable_pair, rand_family, rand_morphism, rand_parallel_cartesian_pair
from polyverse.internalcat import (
    InternalCatError,
    InternalCategory,
    InternalFunctor,
    InternalNatTrans,
    adjustment_to_nat,
    internal_full_subcat,
)
from polyverse.naturalmodel import (
    PolynomialPseudoalgebra,
    PolynomialPseudomonad,
    Universe,
    lift_apply,
    mk_bool_universe,
    pseudomonad_from,
)
from polyverse.poly import (
    CompositionTrace,
    PolyError,
    Polynomial,
    compose,
    compose_direct,
    extend_map,
    from_map,
    product_set,
    slice_reduce,
)
from polyverse.poly2 import (
    Adjustment,
    AdjustmentError,
    CellCommutationError,
    PolyMorphism,
    extend_cell,
    identity_cell,
    unique_adjustment,
)
from polyverse.suites import InstanceGenConfig
from reference import (
    compose_on_labels,
    constant_family,
    encode_arity,
    encode_operation,
    enumerate_family_morphisms,
    family_from_total,
    finset_from_json,
    prod_transpose,
    prod_untranspose,
    recorded,
    slice_exponential,
    sum_transpose,
    sum_untranspose,
)


def fam(index, **fibres):
    return FinFamily(index, {i: FinSet(fibres.get(str(i), ())) for i in index})


class TestFinSet:
    def test_canonical_order(self):
        assert FinSet(["b", "a"]) == FinSet(["a", "b"])
        assert FinSet(["b", "a"]).elements == ("a", "b")

    def test_duplicates_rejected(self):
        with pytest.raises(FinSetError):
            FinSet(["a", "a"])

    def test_tuples_sort_after_strings(self):
        X = FinSet([("a", "b"), "z"])
        assert X.elements == ("z", ("a", "b"))

    def test_bad_label_rejected(self):
        with pytest.raises(FinSetError):
            FinSet([3])

    @pytest.mark.parametrize(
        "bad", [3, None, ("a", ("b", (3,))), ("a", ["b"]), frozenset({"a"})],
        ids=["int", "none", "int-at-depth-3", "list-in-tuple", "frozenset"],
    )
    def test_bad_labels_raise_finset_error(self, bad):
        # the check is label_key itself, which sorting calls on every
        # element, also when there is only one
        for elements in ([bad], ["a", bad], [bad, ("a",)]):
            with pytest.raises(FinSetError, match="label must be a string or tuple"):
                FinSet(elements)
        with pytest.raises(FinSetError):
            label_key(bad)

    def test_one_element_set_of_a_bad_label_rejected(self):
        for bad in (3, None, ("a", ("b", (3,)))):
            with pytest.raises(FinSetError):
                FinSet({bad})

    def test_bad_labels_rejected_in_family_fibres(self):
        index = FinSet(["i"])
        for bad in (3, ("a", ["b"]), ("a", ("b", (None,)))):
            with pytest.raises(FinSetError):
                FinFamily(index, {"i": [bad]})
            with pytest.raises(FinSetError):
                FinFamily(index, [("i", ["x", bad])])

    def test_an_index_given_twice_is_refused_by_families_and_their_morphisms(self):
        # a family morphism kept the last component given for the index
        Y = FinSet(["y0", "y1"])
        X = FinFamily(FinSet(["a", "b"]), {"a": Y, "b": Y})
        one, swap = FinMap.identity(Y), FinMap(Y, Y, {"y0": "y1", "y1": "y0"})
        for build, message in (
            (lambda: FinFamily(X.index, [("a", Y), ("b", Y), ("b", ())]), "duplicate fibre for 'b'"),
            (lambda: FamilyMorphism(X, X, [("a", one), ("b", one), ("b", swap)]), "duplicate component for 'b'"),
        ):
            with pytest.raises(FinSetError, match=f"^{re.escape(message)}$"):
                build()

    def test_bad_labels_rejected_by_interchange(self):
        from polyverse import interchange as io

        for text in ('["a", 3]', '[["a", ["b", null]]]', '[{"a": "b"}]'):
            with pytest.raises(io.ParseError):
                finset_from_json(io.loads(text))
        fam_text = '{"index": ["i"], "fibres": [["i", ["x", ["y", 3]]]]}'
        with pytest.raises(io.ParseError):
            io.family_from_json(io.loads(fam_text))

    def test_label_key_total_order(self):
        labels = ["a", ("a",), ("a", "b"), ("a", ("b", "c")), "zz"]
        keys = [label_key(x) for x in labels]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(keys)


class TestFinMap:
    def test_totality_checked(self):
        with pytest.raises(FinSetError):
            FinMap(FinSet(["a", "b"]), FinSet(["c"]), {"a": "c"})

    def test_codomain_checked(self):
        with pytest.raises(FinSetError):
            FinMap(FinSet(["a"]), FinSet(["c"]), {"a": "d"})

    def test_compose_and_inverse(self):
        X = FinSet(["a", "b"])
        f = FinMap(X, X, {"a": "b", "b": "a"})
        assert f.after(f) == FinMap.identity(X)
        assert f.inverse() == f


class TestPullback:
    def test_identity_diagonal(self):
        A = FinSet(["a0", "a1"])
        i = FinMap.identity(A)
        P, p1, p2 = pullback(i, i)
        assert len(P) == len(A)
        assert all(p1(e) == p2(e) for e in P)

    def test_point_gives_fibre(self):
        B = FinSet(["b0", "b1", "b2"])
        A = FinSet(["a0", "a1"])
        f = FinMap(B, A, {"b0": "a0", "b1": "a0", "b2": "a1"})
        pt = FinMap(FinSet(["*"]), A, {"*": "a0"})
        P, p1, _ = pullback(f, pt)
        assert sorted(p1(e) for e in P) == ["b0", "b1"]

    def test_matching_pairs_count(self):
        # frozen from enumerating all pairs: fibre sizes (2,1) against (1,3)
        A = FinSet(["a0", "a1"])
        B = FinSet(["b0", "b1", "b2"])
        C = FinSet(["c0", "c1", "c2", "c3"])
        f = FinMap(B, A, {"b0": "a0", "b1": "a0", "b2": "a1"})
        g = FinMap(C, A, {"c0": "a0", "c1": "a1", "c2": "a1", "c3": "a1"})
        P, _, _ = pullback(f, g)
        brute = sum(1 for b in B for c in C if f(b) == g(c))
        assert brute == 5
        assert len(P) == 5

    def test_universal_property(self):
        A = FinSet(["a0", "a1"])
        B = FinSet(["b0", "b1"])
        f = FinMap(B, A, {"b0": "a0", "b1": "a1"})
        g = FinMap(B, A, {"b0": "a0", "b1": "a0"})
        P, p1, p2 = pullback(f, g)
        assert is_pullback_cone(f, g, p1, p2)

    def test_symmetry_up_to_swap(self):
        A = FinSet(["a0", "a1"])
        B = FinSet(["b0", "b1"])
        C = FinSet(["c0"])
        f = FinMap(B, A, {"b0": "a0", "b1": "a1"})
        g = FinMap(C, A, {"c0": "a0"})
        P, p1, p2 = pullback(f, g)
        Q, q1, q2 = pullback(g, f)
        swap = {e: (e[1], e[0]) for e in P}
        assert FinSet(swap.values()) == Q
        assert all(q1((e[1], e[0])) == p2(e) and q2((e[1], e[0])) == p1(e) for e in P)


class TestDepSum:
    def _f(self):
        B = FinSet(["b0", "b1"])
        A = FinSet(["a0", "a1"])
        return FinMap(B, A, {"b0": "a0", "b1": "a0"})

    def test_identity_wraps_pairs(self):
        B = FinSet(["b0", "b1"])
        X = fam(B, b0=["x"], b1=["y", "z"])
        S = dep_sum(FinMap.identity(B), X)
        assert S.fibre("b0") == FinSet([("b0", "x")])

    def test_empty_fibre_of_f(self):
        f = self._f()
        X = fam(f.dom, b0=["x"], b1=["y"])
        S = dep_sum(f, X)
        assert len(S.fibre("a1")) == 0

    def test_counted_pairs(self):
        # frozen by enumerating pairs: fibres of sizes 2 and 3 over one point
        f = self._f()
        X = fam(f.dom, b0=["x0", "x1"], b1=["y0", "y1", "y2"])
        S = dep_sum(f, X)
        assert len(S.fibre("a0")) == 5


class TestDepProd:
    def _f(self):
        B = FinSet(["b0", "b1"])
        A = FinSet(["a0", "a1"])
        return FinMap(B, A, {"b0": "a0", "b1": "a0"})

    def test_empty_fibre_gives_singleton(self):
        f = self._f()
        X = fam(f.dom, b0=["x"], b1=["y"])
        P = dep_prod(f, X)
        assert P.fibre("a1") == FinSet([()])

    def test_section_count(self):
        # frozen by enumerating all assignments: 2 * 3 sections
        f = self._f()
        X = fam(f.dom, b0=["x0", "x1"], b1=["y0", "y1", "y2"])
        P = dep_prod(f, X)
        assert len(P.fibre("a0")) == 6

    def test_singletons_give_singletons(self):
        f = self._f()
        X = fam(f.dom, b0=["x"], b1=["y"])
        P = dep_prod(f, X)
        assert all(len(P.fibre(a)) == 1 for a in f.cod)

    def test_sections_are_in_key_order(self):
        B = FinSet(["z", ("a",), ("a", "b"), "c"])
        f = FinMap(B, FinSet(["a"]), {b: "a" for b in B})
        X = FinFamily(B, {b: FinSet(["x", ("y",)]) for b in B})
        for s in dep_prod(f, X).fibre("a"):
            assert s == section_tuple(dict(reversed(s))) and tuple(k for k, _ in s) == B.elements
        g = FinMap(FinSet(["x", ("y",)]), FinSet(["a"]), {"x": "a", ("y",): "a"})
        for _, table in slice_exponential(f, g).dom:
            assert table == section_tuple(dict(reversed(table)))

    def test_cap(self):
        B = FinSet([f"b{i}" for i in range(8)])
        A = FinSet(["a"])
        f = FinMap(B, A, {b: "a" for b in B})
        X = FinFamily(B, {b: FinSet([f"x{i}" for i in range(6)]) for b in B})
        with enumeration_cap(1000), pytest.raises(EnumerationCapExceeded):
            dep_prod(f, X)


class TestEnumerationCap:
    def test_default_is_default_cap(self):
        _guard(DEFAULT_CAP, "probe")
        message = rf"^probe would have {DEFAULT_CAP + 1} elements \(cap {DEFAULT_CAP}\)$"
        with pytest.raises(EnumerationCapExceeded, match=message):
            _guard(DEFAULT_CAP + 1, "probe")

    def test_nested_scope_restores_the_outer_cap(self):
        with enumeration_cap(10):
            with enumeration_cap(3):
                with pytest.raises(EnumerationCapExceeded, match=r"\(cap 3\)"):
                    _guard(4, "probe")
            _guard(10, "probe")
            with pytest.raises(EnumerationCapExceeded, match=r"\(cap 10\)"):
                _guard(11, "probe")
        _guard(DEFAULT_CAP, "probe")

    def test_scope_restored_when_an_exception_leaves_it(self):
        with enumeration_cap(10):
            with pytest.raises(RuntimeError):
                with enumeration_cap(3):
                    raise RuntimeError("leaving the inner scope")
            _guard(10, "probe")
        with pytest.raises(EnumerationCapExceeded):
            with enumeration_cap(3):
                _guard(4, "probe")
        _guard(DEFAULT_CAP, "probe")

    def test_the_cap_and_the_build_table_keep_each_others_half(self):
        build = finset._built_once(lambda n: FinSet([f"x{i}" for i in range(n)]))
        with enumeration_cap(10):
            with finset._shared_builds():
                assert finset._SCOPE.get()[0] == 10
                shared = build(2)
                with pytest.raises(RuntimeError):
                    with enumeration_cap(3):
                        assert finset._SCOPE.get()[1] is not None and build(2) is not shared
                        raise RuntimeError("leaving the inner scope")
                assert build(2) is shared
            assert finset._SCOPE.get() == (10, None)
            with pytest.raises(EnumerationCapExceeded, match=r"\(cap 10\)"):
                _guard(11, "probe")
        assert finset._SCOPE.get() == (DEFAULT_CAP, None)

    @pytest.mark.parametrize("n", [0, -1])
    def test_cap_must_be_positive(self, n):
        with pytest.raises(ValueError):
            with enumeration_cap(n):
                pass


class TestBaseChange:
    def test_identity(self):
        A = FinSet(["a0", "a1"])
        X = fam(A, a0=["x"], a1=["y"])
        assert base_change(FinMap.identity(A), X) == X

    def test_constant(self):
        A = FinSet(["a0", "a1"])
        B = FinSet(["b0", "b1", "b2"])
        X = fam(A, a0=["x", "y"], a1=["z"])
        f = FinMap.constant(B, A, "a0")
        Y = base_change(f, X)
        assert all(Y.fibre(b) == X.fibre("a0") for b in B)

    def test_reindex_sizes(self):
        A = FinSet(["a0", "a1"])
        X = fam(A, a0=["x", "y"], a1=["u", "v", "w"])
        B = FinSet(["b0", "b1"])
        f = FinMap.constant(B, A, "a0")
        Y = base_change(f, X)
        assert [len(Y.fibre(b)) for b in B] == [2, 2]


class TestSliceExponential:
    def test_empty_source_fibre(self):
        Z = FinSet(["z"])
        f1 = FinMap(FinSet(), Z, {})
        f2 = FinMap(FinSet(["y"]), Z, {"y": "z"})
        e = slice_exponential(f1, f2)
        assert len(e.dom) == 1

    def test_function_count(self):
        # frozen by enumerating functions: 3^2 = 9
        Z = FinSet(["z"])
        f1 = FinMap(FinSet(["x0", "x1"]), Z, {"x0": "z", "x1": "z"})
        f2 = FinMap(FinSet(["y0", "y1", "y2"]), Z, {y: "z" for y in ["y0", "y1", "y2"]})
        e = slice_exponential(f1, f2)
        assert len(e.dom) == 9

    def test_contains_identity(self):
        Z = FinSet(["z"])
        f = FinMap(FinSet(["x0", "x1"]), Z, {"x0": "z", "x1": "z"})
        e = slice_exponential(f, f)
        ident = ("z", (("x0", "x0"), ("x1", "x1")))
        assert ident in e.dom


class TestTotalSpace:
    def test_roundtrip(self):
        A = FinSet(["a0", "a1"])
        X = fam(A, a0=["x", "y"], a1=[])
        total, proj = X.total()
        assert family_from_total(proj) == X


small_sets = st.integers(min_value=0, max_value=3)


@st.composite
def map_with_family(draw):
    nb = draw(small_sets)
    na = draw(st.integers(min_value=1, max_value=3))
    B = FinSet([f"b{i}" for i in range(nb)])
    A = FinSet([f"a{i}" for i in range(na)])
    f = FinMap(B, A, {b: f"a{draw(st.integers(0, na - 1))}" for b in B})
    X = FinFamily(
        B, {b: FinSet([f"x{b}_{k}" for k in range(draw(small_sets))]) for b in B}
    )
    return f, X


@settings(max_examples=40, deadline=None)
@given(map_with_family())
def test_dep_prod_cardinality_matches_product(fx):
    f, X = fx
    P = dep_prod(f, X)
    for a in f.cod:
        expected = math.prod(len(X.fibre(b)) for b in f.preimage(a))
        assert len(P.fibre(a)) == expected
        assert all(s == section_tuple(dict(s)) for s in P.fibre(a))


@settings(max_examples=40, deadline=None)
@given(map_with_family())
def test_operations_are_deterministic(fx):
    f, X = fx
    assert dep_prod(f, X) == dep_prod(f, X)
    assert dep_sum(f, X) == dep_sum(f, X)
    P1 = pullback(f, f)
    P2 = pullback(f, f)
    assert P1 == P2


@settings(max_examples=25, deadline=None)
@given(map_with_family(), st.integers(0, 2))
def test_product_adjunction_roundtrip(fx, seed):
    """Hom(pullback of Y, X) and Hom(Y, dependent product of X) transpose
    into each other bijectively."""
    f, X = fx
    import random

    rng = random.Random(seed)
    Y = FinFamily(
        f.cod, {a: FinSet([f"y{a}_{k}" for k in range(rng.randint(0, 2))]) for a in f.cod}
    )
    dY = base_change(f, Y)
    count = 0
    with enumeration_cap(2000):
        for h in enumerate_family_morphisms(dY, X):
            k = prod_transpose(f, h, X, Y)
            back = prod_untranspose(f, k, X)
            assert back == h
            count += 1
    pk = dep_prod(f, X)
    expected = 1
    for a in f.cod:
        expected *= len(pk.fibre(a)) ** len(Y.fibre(a))
    assert count == expected


@settings(max_examples=25, deadline=None)
@given(map_with_family(), st.integers(0, 2))
def test_sum_adjunction_roundtrip(fx, seed):
    f, X = fx
    import random

    rng = random.Random(seed)
    Y = FinFamily(
        f.cod, {a: FinSet([f"y{a}_{k}" for k in range(rng.randint(1, 2))]) for a in f.cod}
    )
    sX = dep_sum(f, X)
    with enumeration_cap(2000):
        for h in enumerate_family_morphisms(sX, Y):
            k = sum_transpose(f, h, Y)
            back = sum_untranspose(f, k, Y)
            assert back == h


class TestSquare:
    def test_identity_square_is_pullback(self):
        B = FinSet(["b"])
        A = FinSet(["a0", "a1"])
        f = FinMap(B, A, {"b": "a0"})
        assert Square.identity(f).is_pullback()

    def test_non_commuting_rejected(self):
        A = FinSet(["a0", "a1"])
        i = FinMap.identity(A)
        twist = FinMap(A, A, {"a0": "a1", "a1": "a0"})
        with pytest.raises(FinSetError):
            Square(i, i, twist, i)

    def test_composition(self):
        A = FinSet(["a0", "a1"])
        i = FinMap.identity(A)
        s = Square.identity(i)
        assert s.after(s) == s


# ---------------------------------------------------------------------------
# The positional core against a naive graph-based reference
# ---------------------------------------------------------------------------

labels = st.recursive(
    st.sampled_from(["a", "b", "ab", "*"]),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=4,
)


def label_sets(min_size=0, max_size=4):
    return st.lists(labels, unique=True, min_size=min_size, max_size=max_size).map(FinSet)


@st.composite
def graphs(draw, dom=None, cod=None):
    """A map with its graph as a plain dict."""
    dom = draw(label_sets()) if dom is None else dom
    cod = draw(label_sets(1 if len(dom) else 0)) if cod is None else cod
    graph = {x: draw(st.sampled_from(cod.elements)) for x in dom}
    return FinMap(dom, cod, graph), graph


def sorted_graph(graph):
    return tuple(sorted(graph.items(), key=lambda p: label_key(p[0])))


def naive_fault(dom, cod, items):
    """First fault of an assignment, checked in the documented order."""
    table = {}
    for x, y in items:
        if x in table and table[x] != y:
            return f"conflicting values for {x!r}"
        table[x] = y
    for x in dom:
        if x not in table:
            return f"no value assigned to {x!r}"
    for x in table:
        if x not in dom:
            return f"assignment for {x!r} outside the domain"
    for x, y in table.items():
        if y not in cod:
            return f"value {y!r} of {x!r} outside the codomain"
    return None


def naive_is_pullback_cone(f, g, p1, p2):
    if f.cod != g.cod or p1.dom != p2.dom or p1.cod != f.dom or p2.cod != g.dom:
        return False
    legs = [(p1(e), p2(e)) for e in p1.dom]
    if any(f(b) != g(c) for b, c in legs) or len(set(legs)) != len(legs):
        return False
    return len(legs) == sum(1 for b in f.dom for c in g.dom if f(b) == g(c))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_map_agrees_with_its_graph(fg):
    f, graph = fg
    assert f.pairs == sorted_graph(graph)
    assert all(f(x) == y for x, y in graph.items())
    assert f == FinMap(f.dom, f.cod, list(reversed(list(graph.items()))))
    assert hash(f) == hash(FinMap(f.dom, f.cod, dict(graph)))
    for y in f.cod:
        assert f.preimage(y) == tuple(x for x, fy in sorted_graph(graph) if fy == y)
    for outside in ("zz", ("zz",), ("a", ("zz",))):
        assert f.preimage(outside) == ()


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_maps_differing_anywhere_are_unequal(fg, data):
    f, graph = fg
    if not graph or len(f.cod) < 2:
        return
    x = data.draw(st.sampled_from(f.dom.elements))
    y = data.draw(st.sampled_from([y for y in f.cod if y != graph[x]]))
    assert f != FinMap(f.dom, f.cod, {**graph, x: y})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_after_agrees_with_graph_composite(data):
    f, fgraph = data.draw(graphs())
    g, ggraph = data.draw(graphs(dom=f.cod))
    gf = g.after(f)
    assert gf.dom == f.dom and gf.cod == g.cod
    assert gf.pairs == sorted_graph({x: ggraph[y] for x, y in fgraph.items()})
    assert gf == FinMap(f.dom, g.cod, {x: ggraph[y] for x, y in fgraph.items()})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bijection_and_inverse_agree_with_graph(data):
    dom = data.draw(label_sets())
    # an endomap is often a bijection; a map to a drawn codomain rarely is
    f, graph = data.draw(graphs(dom=dom, cod=dom if data.draw(st.booleans()) else None))
    bijective = len(f.dom) == len(f.cod) == len(set(graph.values()))
    assert f.is_bijection() == bijective
    if not bijective:
        with pytest.raises(FinSetError, match="not a bijection"):
            f.inverse()
        return
    inv = f.inverse()
    assert inv.pairs == sorted_graph({y: x for x, y in graph.items()})
    assert inv.after(f) == FinMap.identity(f.dom)
    assert f.after(inv) == FinMap.identity(f.cod)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_agrees_with_graph_pairs(data):
    C = data.draw(label_sets(1))
    f, fgraph = data.draw(graphs(cod=C))
    g, ggraph = data.draw(graphs(cod=C))
    P, p1, p2 = pullback(f, g)
    want = [(b, c) for b in fgraph for c in ggraph if fgraph[b] == ggraph[c]]
    assert P.elements == tuple(sorted(want, key=label_key))
    assert p1.pairs == tuple((e, e[0]) for e in P)
    assert p2.pairs == tuple((e, e[1]) for e in P)
    assert is_pullback_cone(f, g, p1, p2)
    # cones that are not pullbacks: a twisted leg, a doubled or a dropped element
    cones = [(p1.after(FinMap(P, P, {e: P.elements[-1 - k] for k, e in enumerate(P)})), p2)]
    if len(P):
        e0 = P.elements[0]
        Q = FinSet(list(P) + [("extra", e0)])
        q1 = FinMap(Q, f.dom, {**{e: e[0] for e in P}, ("extra", e0): e0[0]})
        q2 = FinMap(Q, g.dom, {**{e: e[1] for e in P}, ("extra", e0): e0[1]})
        R = FinSet(P.elements[1:])
        cones += [(q1, q2), (FinMap(R, f.dom, {e: e[0] for e in R}), FinMap(R, g.dom, {e: e[1] for e in R}))]
        # the right size, but one pair hit twice and another missed
        e1 = P.elements[-1]
        cones.append((
            FinMap(P, f.dom, {e: (e0 if e == e1 else e)[0] for e in P}),
            FinMap(P, g.dom, {e: (e0 if e == e1 else e)[1] for e in P}),
        ))
    for c1, c2 in cones:
        assert is_pullback_cone(f, g, c1, c2) == naive_is_pullback_cone(f, g, c1, c2)


@settings(max_examples=60, deadline=None)
@given(label_sets(), st.data())
def test_total_space_agrees_with_sorted_pairs(index, data):
    X = FinFamily(index, {i: data.draw(label_sets()) for i in index})
    total, proj = X.total()
    want = [(i, x) for i in index for x in X.fibre(i)]
    assert total.elements == tuple(sorted(want, key=label_key))
    assert proj.pairs == tuple((e, e[0]) for e in total)
    assert family_from_total(proj) == X


# ---------------------------------------------------------------------------
# Sets built in key order, taken as they are
# ---------------------------------------------------------------------------


def assert_checked(x):
    """A set, family or map built without sorting equals its rebuild through
    the checked constructors, which sort, look for duplicates and key labels."""
    if isinstance(x, FinSet):
        assert FinSet(x.elements) == x
    elif isinstance(x, FinFamily):
        assert_checked(x.index)
        for _, X in x.fibres:
            assert_checked(X)
        assert FinFamily(x.index, dict(x.fibres)) == x
    else:
        assert_checked(x.dom)
        assert_checked(x.cod)
        assert FinMap(x.dom, x.cod, dict(x.pairs)) == x


def assert_sorted_sections(sections):
    """Sections built in the order of their keys equal their rebuild through
    ``section_tuple``, which sorts the pairs by key."""
    for sect in sections:
        assert sect == section_tuple(dict(sect))


def fibre_values(h: FamilyMorphism):
    return [y for i in h.src.index for _, y in h.at(i).pairs]


@st.composite
def polynomials(draw, I=None):
    """A polynomial I <- B -> A -> J on nested labels, at most three of each."""
    I = draw(label_sets(1, 3)) if I is None else I
    B, A, J = draw(label_sets(0, 3)), draw(label_sets(1, 3)), draw(label_sets(1, 3))
    s, f, t = draw(graphs(B, I))[0], draw(graphs(B, A))[0], draw(graphs(A, J))[0]
    return Polynomial(I, B, A, J, s, f, t)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_finset_constructions_equal_their_checked_rebuilds(data):
    C = data.draw(label_sets(1))
    f, _ = data.draw(graphs(cod=C))
    g, _ = data.draw(graphs(cod=C))
    X = FinFamily(f.dom, {b: data.draw(label_sets(0, 3)) for b in f.dom})
    Y = FinFamily(C, {c: data.draw(label_sets()) for c in C})
    built = [*pullback(f, g), *X.total(), dep_sum(f, X), dep_prod(f, X), base_change(f, Y)]
    built += [constant_family(C, f.dom), slice_exponential(f, g)]
    for x in built + [product_set(f.dom, C)]:
        assert_checked(x)
    assert base_change(f, Y) == FinFamily(f.dom, {b: Y.fibre(f(b)) for b in f.dom})
    fY = base_change(f, Y)
    unit = prod_transpose(f, FamilyMorphism.identity(fY), fY, Y)  # sections over f.preimage(c)
    assert_sorted_sections(fibre_values(unit))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_composite_and_internal_sets_equal_their_checked_rebuilds(data):
    F = data.draw(polynomials())
    G = data.draw(polynomials(I=F.J))
    GF, trace = compose(G, F)
    on_labels, oracle = compose_on_labels(G, F)
    assert GF == on_labels and trace == oracle and trace.picks == oracle.picks
    for x in (trace.Q, trace.M, trace.w, trace.Qp, trace.e, trace.N, GF.s, GF.f, GF.t):
        assert_checked(x)
    assert_checked(slice_reduce(F).src)
    assert_checked(slice_reduce(F).dst)
    f, _ = data.draw(graphs(data.draw(label_sets(0, 2)), data.draw(label_sets(1, 3))))
    C = internal_full_subcat(f)
    assert_checked(C.mor)
    assert_checked(C.comp.dom)
    u = Universe(C.obj, FinFamily(f.cod, {a: f.preimage(a) for a in f.cod}), C.obj.elements[0], {}, {})
    for code in u.codes:
        assert_checked(u.term_fibre(code))
    assert_sorted_sections(graph for _, (_, _, graph) in C.ident.pairs)
    # extension and lift actions carry each section's keys over in order
    X = FinFamily(F.I, {i: data.draw(label_sets(0, 2)) for i in F.I})
    ones = constant_family(F.I, FinSet(["*"]))
    h = FamilyMorphism(X, ones, {i: FinMap.to_terminal(X.fibre(i)) for i in F.I})
    assert_sorted_sections(sect for _, sect in fibre_values(extend_map(F, h)))
    g, _ = data.draw(graphs())
    assert_sorted_sections(sect for _, (_, sect) in lift_apply(from_map(f), g).pairs)
    # the generators' cells: extension components and transposed adjustments
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    phi = rand_morphism(rng, 2)
    assert_sorted_sections(sect for _, sect in fibre_values(extend_cell(phi, rand_family(rng, phi.src.I, 2))))
    phi, psi = rand_parallel_cartesian_pair(rng, 2)
    nat = adjustment_to_nat(unique_adjustment(phi, psi))
    assert_sorted_sections(graph for _, (_, _, graph) in nat.components.pairs)


def test_positional_constructions_key_no_label():
    B = FinSet([("b", str(i)) for i in range(5)])
    A = FinSet(["a0", ("a", "1"), ("a", ("2",))])
    f = FinMap(B, A, {b: A.elements[i % 3] for i, b in enumerate(B)})
    X = FinFamily(B, {b: FinSet([(b, "x"), "y"][: i % 3]) for i, b in enumerate(B)})
    Y = FinFamily(A, {a: FinSet([("y", a), "y"]) for a in A})
    with recorded(finset, "label_key") as keyed:
        dep_sum(f, X), base_change(f, Y), X.total()
        assert keyed == []
        FinSet(B.elements)
    assert keyed


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_construction_faults_reported_in_order(data):
    dom = data.draw(label_sets())
    cod = data.draw(label_sets())
    keys = st.sampled_from(list(dom.elements) + ["zz", ("zz",)])
    values = st.sampled_from(list(cod.elements) + ["yy", ("yy", "a")])
    items = data.draw(st.lists(st.tuples(keys, values), max_size=6))
    fault = naive_fault(dom, cod, items)
    if fault is None:
        assert FinMap(dom, cod, items).pairs == sorted_graph(dict(items))
    else:
        with pytest.raises(FinSetError) as exc:
            FinMap(dom, cod, items)
        assert str(exc.value) == fault
    if naive_fault(dom, cod, dict(items).items()) is not None:
        with pytest.raises(FinSetError) as exc:
            FinMap(dom, cod, dict(items))
        assert str(exc.value) == naive_fault(dom, cod, dict(items).items())


# ---------------------------------------------------------------------------
# Composite labels
# ---------------------------------------------------------------------------


def plain(label):
    """A deep copy of a label made of plain tuples only."""
    return label if isinstance(label, str) else tuple(plain(x) for x in label)


def old_label_key(label):
    """The nested key ``label_key`` used before it was flattened."""
    if isinstance(label, str):
        return (0, label)
    return (1, tuple(old_label_key(x) for x in label))


class TestKeptHashes:
    """``FinSet``, ``FinMap``, ``FinFamily`` and ``Polynomial`` compute their
    hash on first use and keep it; equality still compares the fields."""

    def test_equal_values_built_checked_and_unchecked_hash_alike(self):
        X, Xo = FinSet(["b1", "b0"]), FinSet._of(("b0", "b1"))
        A, Ao = FinSet(["a"]), FinSet._of(("a",))
        f, fo = FinMap(X, A, {"b0": "a", "b1": "a"}), FinMap._of(Xo, Ao, (0, 0))
        fam, famo = FinFamily(A, {"a": X}), FinFamily._of(Ao, [Xo])
        G = FinMap(FinSet(["d"]), FinSet(["c"]), {"d": "c"})
        P, Po = from_map(f), from_map(fo)
        GP, _ = compose(from_map(G), P)
        for x, y in ((X, Xo), (f, fo), (fam, famo), (P, Po), (GP, compose_direct(from_map(G), Po))):
            assert x == y and x is not y
            assert hash(x) == hash(y) == hash(x)
            assert x.__dict__["_hash"] == hash(x)
        assert hash(FinSet(["b0"])) != hash(X)

    def test_a_shared_build_is_found_by_equal_arguments(self):
        # two draws from one seed: equal polynomials, not the same objects
        (F1, G1), (F2, G2) = (rand_composable_pair(random.Random(4), 2) for _ in range(2))
        assert (F1, G1) == (F2, G2) and F1 is not F2 and G1 is not G2
        with finset._shared_builds():
            first = compose(G1, F1)
            assert compose(G2, F2) is first


def fieldwise(x, y) -> bool:
    """Equality of records field by field, applied down to the labels: same
    class and every compared field equal."""
    if not isinstance(x, finset._Record):
        return x == y
    return type(x) is type(y) and all(fieldwise(x.__dict__[k], y.__dict__[k]) for k in x._compared)


def _rebuilt(P: Polynomial) -> Polynomial:
    """An equal polynomial none of whose sets or maps is one of ``P``'s."""
    I, B, A, J = (FinSet(X.elements) for X in (P.I, P.B, P.A, P.J))
    s, f, t = FinMap(B, I, dict(P.s.pairs)), FinMap(B, A, dict(P.f.pairs)), FinMap(A, J, dict(P.t.pairs))
    return Polynomial(I, B, A, J, s, f, t)


class TestIdentityFirstEquality:
    """``FinSet``, ``FinMap`` and ``Polynomial`` write their own ``__eq__``,
    true at once for the same object; ``==``, ``!=`` and ``hash`` still agree
    with field-wise comparison."""

    def _cases(self):
        X, A = FinSet(["b0", "b1"]), FinSet(["a0", "a1"])
        f = FinMap(X, A, {"b0": "a0", "b1": "a1"})
        P, Q = from_map(f), from_map(FinMap.constant(X, A, "a0"))
        GP, _ = compose(from_map(FinMap.constant(FinSet(["d"]), FinSet(["c"]), "c")), P)
        return [
            (X, X), (X, FinSet(["b1", "b0"])), (X, A), (X, FinSet()),
            (f, f), (f, FinMap(FinSet(X.elements), FinSet(A.elements), dict(f.pairs))),
            (f, FinMap.constant(X, A, "a0")), (f, FinMap(X, FinSet(["a0", "a1", "a2"]), dict(f.pairs))),
            (P, P), (P, _rebuilt(P)), (P, Q), (GP, _rebuilt(GP)), (GP, P),
        ]

    def test_equality_and_hash_agree_with_fieldwise_comparison(self):
        kinds = set()
        for x, y in self._cases():
            same = fieldwise(x, y)
            kinds.add("same object" if x is y else "equal" if same else "unequal")
            assert (x == y) is (y == x) is same
            assert (x != y) is (y != x) is (not same)
            if same:
                assert hash(x) == hash(y)
        assert kinds == {"same object", "equal", "unequal"}

    @pytest.mark.parametrize(
        "other", [None, "a", ("b0", "b1"), 0, object()], ids=["None", "str", "tuple", "int", "object"],
    )
    def test_other_types_are_left_to_the_other_side(self, other):
        for x, _ in self._cases():
            assert x.__eq__(other) is NotImplemented
            assert (x == other) is False and (x != other) is True
        X = FinSet(["x"])
        assert X != FinMap.identity(X) and FinMap.identity(X) != from_map(FinMap.identity(X))


RECORDS = [
    FinSet, FinMap, FinFamily, FamilyMorphism, Square, Polynomial, CompositionTrace, PolyMorphism, Adjustment,
    InternalCategory, InternalFunctor, InternalNatTrans, Universe, PolynomialPseudomonad, PolynomialPseudoalgebra,
    InstanceGenConfig,
]
HIDDEN = {PolynomialPseudomonad: ("universe",), PolynomialPseudoalgebra: ("z", "h_p", "m_p", "Tz")}


@pytest.fixture(scope="module")
def records() -> dict:
    """For each record class, a function that builds one value anew at each
    call, and ``_replace`` changes that the class refuses, with the error."""
    X, A = FinSet(["b0", "b1"]), FinSet(["a0", "a1"])
    f = FinMap(X, A, {"b0": "a0", "b1": "a1"})
    swap = FinMap(X, X, {"b0": "b1", "b1": "b0"})
    family = FinFamily(A, {"a0": X, "a1": ()})
    P = from_map(f)
    cell = PolyMorphism(P, P, X, FinMap.identity(A), FinMap.identity(X), FinMap.identity(X))
    cat = internal_full_subcat(f)
    monad = pseudomonad_from(mk_bool_universe())
    unknown = ({"colour": "red"}, TypeError)
    return {
        FinSet: (lambda: FinSet(["b1", "b0"]), {"elements": ("a", "a")}, FinSetError),
        # its constructor takes an assignment of labels, not ``img``
        FinMap: (lambda: FinMap(X, A, dict(f.pairs)), {}, TypeError),
        FinFamily: (lambda: FinFamily(A, dict(family.fibres)), {"fibres": ()}, FinSetError),
        FamilyMorphism: (lambda: FamilyMorphism.identity(family), {"maps": ()}, FinSetError),
        Square: (lambda: Square.identity(f), {"top": swap}, FinSetError),
        Polynomial: (lambda: from_map(f), {"t": FinMap.identity(A)}, PolyError),
        CompositionTrace: (lambda: compose(P, P)[1], *unknown),
        PolyMorphism: (lambda: identity_cell(P), {"phi0": FinMap.constant(A, A, "a0")}, CellCommutationError),
        Adjustment: (lambda: unique_adjustment(cell, cell), {"alpha": swap}, AdjustmentError),
        InternalCategory: (lambda: internal_full_subcat(f), {"comp": FinMap.identity(cat.mor)}, InternalCatError),
        InternalFunctor: (lambda: InternalFunctor.identity(cat), {"on_obj": FinMap.identity(cat.mor)}, InternalCatError),
        InternalNatTrans: (
            lambda: adjustment_to_nat(unique_adjustment(cell, cell)),
            {"src": InternalFunctor.identity(internal_full_subcat(FinMap.identity(A)))}, InternalCatError,
        ),
        Universe: (mk_bool_universe, {"sigma": {(3, ()): "u"}}, FinSetError),
        PolynomialPseudomonad: (lambda: pseudomonad_from(mk_bool_universe()), *unknown),
        PolynomialPseudoalgebra: (lambda: monad.pseudoalgebra(), *unknown),
        InstanceGenConfig: (lambda: InstanceGenConfig(seed=1), {"count": 0}, ValueError),
    }


def _record_classes(cls=finset._Record) -> set:
    return {c for sub in cls.__subclasses__() if sub.__module__.startswith("polyverse.") for c in {sub} | _record_classes(sub)}


def test_every_record_class_is_listed_and_compared_field_by_field(records):
    # ``fieldwise`` reads ``_compared``: a record class without compared
    # fields would make it compare ``==`` with itself
    assert _record_classes() == set(RECORDS) == set(records)
    for cls in RECORDS:
        assert cls._compared and set(cls._compared) == set(cls._fields) - set(HIDDEN.get(cls, ()))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_values_that_replace_through_their_checks(cls, records):
    make, refused, error = records[cls]
    x, y = make(), make()
    assert type(x) is cls and x == y and x is not y and hash(x) == hash(y)
    name = cls._fields[0]
    for change in (lambda: setattr(x, name, None), lambda: delattr(x, name), lambda: setattr(x, "extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            change()
    assert x == y and "extra" not in vars(x)
    text = repr(x)
    assert text.startswith(f"{cls.__name__}({cls._compared[0]}=")
    hidden = HIDDEN.get(cls, ())
    if hidden:
        moved = x._replace(**{k: None for k in hidden})
        assert moved == x and hash(moved) == hash(x) and repr(moved) == text
        assert not any(f"{k}=" in text for k in hidden)
    if cls is not FinMap:
        copy = x._replace()
        assert copy == x and copy is not x
    with pytest.raises(error):
        x._replace(**refused)


class TestInternedLabels:
    """Every composite label the library or the reference encoders build is
    a plain tuple, and a value that is not a label is refused where it is
    built."""

    def test_hash_and_lookups_agree_with_plain_tuples(self):
        A = FinSet(["a0", "a1"])
        f = FinMap(FinSet(["b0", "b1", "b2"]), A, {"b0": "a0", "b1": "a1", "b2": "a1"})
        g = FinMap(FinSet([("c", "0"), ("c", "1")]), A, {("c", "0"): "a1", ("c", "1"): "a0"})
        X = FinFamily(f.dom, {b: FinSet([(b, "x"), "y"]) for b in f.dom})
        melt = encode_operation("c", {"d0": ("a", "0"), "d1": "a1"})
        labels = [melt, encode_arity("b", melt, "d1"), section_tuple({"x": melt})]
        labels += [section_tuple({"k": "v", "j": ("w", "z")}), *pullback(f, g)[0], *dep_prod(f, X).fibre("a1")]
        for label in labels:
            copy = plain(label)
            assert type(label) is tuple and copy == label and label == copy
            assert hash(label) == hash(copy)
            assert {label: 1}[copy] == 1 and {copy: 1}[label] == 1
            assert copy in FinSet([label]) and label in FinSet([copy])
            assert label_key(label) == label_key(copy)

    def test_repr_and_json_are_those_of_plain_tuples(self):
        from polyverse import interchange as io

        melt = encode_operation("c", {"d0": ("a", "0"), "d1": "a1"})
        for label in (melt, encode_arity("b", melt, "d0"), section_tuple({"p": ("q",)})):
            assert repr(label) == repr(plain(label))
            assert io.dumps(label) == io.dumps(plain(label))
            assert io.dumps(io.finset_to_json(FinSet([label]))) == io.dumps([io.loads(io.dumps(label))])

    @pytest.mark.parametrize(
        "parts, bad", [(("a", 3), 3), (("a", ["b"]), ["b"]), (("a", ("b", 3)), 3), ((3,), 3), ((["b"],), ["b"])],
        ids=["int", "list", "int-at-depth-2", "only-int", "only-list"],
    )
    def test_bad_parts_raise_finset_error(self, parts, bad):
        message = re.escape(f"label must be a string or tuple of labels, got {bad!r}")
        for assignment in ({"k": parts}, {"k": parts[-1]}, {"k": ("ok", parts)}):
            with pytest.raises(FinSetError, match=f"^{message}$"):
                section_tuple(assignment)

    def test_bad_parts_rejected_by_encoders(self):
        melt = encode_operation("c", {"d0": "a0"})
        for bad in (3, ["b"]):
            message = re.escape(f"label must be a string or tuple of labels, got {bad!r}")
            with pytest.raises(FinSetError, match=f"^{message}$"):
                encode_arity("b", melt, bad)
            with pytest.raises(FinSetError, match=f"^{message}$"):
                encode_arity(bad, melt, "d0")
            with pytest.raises(FinSetError, match=f"^{message}$"):
                encode_operation(bad, {"d0": "a0"})
            with pytest.raises(FinSetError, match=f"^{message}$"):
                encode_operation("c", {"d0": bad})

    @staticmethod
    def _held():
        return {k: len(v) for k, v in vars(finset).items() if isinstance(v, (dict, list, set)) and not k.startswith("__")}

    def test_plain_labels_are_not_kept(self):
        from polyverse import interchange as io

        text = io.dumps(io.finset_to_json(FinSet([("new", ("plain", str(i))) for i in range(5)])))
        before = self._held()
        parsed = finset_from_json(io.loads(text))
        for x in parsed:
            label_key(x)
            label_key((x, ("fresh", "pair")))
        FinSet([(x, "y") for x in parsed])
        assert self._held() == before
        assert all(type(x) is tuple for x in parsed)

    def test_past_the_bound_labels_are_built_but_not_kept(self):
        before = self._held()
        built = [section_tuple({"k": ("past", str(i)), "j": "bound"}) for i in range(20_000)]
        again = section_tuple({"k": ("past", "0"), "j": "bound"})
        assert self._held() == before
        assert again == built[0] and hash(again) == hash(plain(built[0]))
        assert all(type(x) is tuple for x in built) and len(set(built)) == len(built)
        assert label_key(again) == label_key(plain(built[0]))


mixed_labels = st.recursive(
    st.sampled_from(["", "a", "ab", "b"]),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


@st.composite
def labels_with_prefixes(draw):
    xs = draw(st.lists(mixed_labels, min_size=1, max_size=6))
    return xs + [x[:k] for x in xs if isinstance(x, tuple) for k in range(len(x))]


@settings(max_examples=200, deadline=None)
@given(labels_with_prefixes())
def test_flat_key_orders_labels_as_the_nested_key(xs):
    for x in xs:
        for y in xs:
            assert (label_key(x) < label_key(y)) == (old_label_key(x) < old_label_key(y))
            assert (label_key(x) == label_key(y)) == (x == y)
    assert sorted(xs, key=label_key) == sorted(xs, key=old_label_key)
    assert FinSet(set(xs)).elements == tuple(sorted(set(xs), key=old_label_key))
