import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from polyverse import finset
from polyverse.finset import FinFamily, FinMap, FinSet
from polyverse import interchange as io
from polyverse.poly import compose
from polyverse.generators import rand_morphism, rand_polynomial, rand_universe
from polyverse.naturalmodel import mk_bool_universe, mk_skewed_universe, validate_universe


labels = st.recursive(
    st.text(alphabet="abcxyz01", min_size=1, max_size=4),
    lambda children: st.lists(children, min_size=0, max_size=3).map(tuple),
    max_leaves=6,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(labels, max_size=5, unique=True))
def test_finset_roundtrip(elems):
    X = FinSet(elems)
    assert io.finset_from_json(io.finset_to_json(X)) == X


@settings(max_examples=50, deadline=None)
@given(st.lists(labels, max_size=4, unique=True), st.lists(labels, min_size=1, max_size=3, unique=True), st.randoms())
def test_finmap_roundtrip(dom_elems, cod_elems, rng):
    dom, cod = FinSet(dom_elems), FinSet(cod_elems)
    f = FinMap(dom, cod, {x: rng.choice(cod.elements) for x in dom})
    assert io.finmap_from_json(io.finmap_to_json(f)) == f


def test_family_roundtrip():
    I = FinSet(["i0", "i1"])
    X = FinFamily(I, {"i0": FinSet(["x", ("p", "q")]), "i1": FinSet()})
    assert io.family_from_json(io.family_to_json(X)) == X


def test_polynomial_roundtrip():
    rng = random.Random(1)
    for _ in range(10):
        P = rand_polynomial(rng, 3)
        assert io.polynomial_from_json(io.polynomial_to_json(P)) == P


def test_morphism_roundtrip():
    rng = random.Random(2)
    for _ in range(10):
        phi = rand_morphism(rng, 3)
        assert io.morphism_from_json(io.morphism_to_json(phi)) == phi


def test_universe_roundtrip_without_pairing_data():
    for u in (mk_bool_universe(), mk_skewed_universe(), rand_universe(random.Random(3), 4)):
        back = io.universe_from_json(io.universe_to_json(u))
        assert back == u
        assert validate_universe(back) == []


def test_parse_errors_are_parse_errors():
    with pytest.raises(io.ParseError):
        io.finset_from_json({"not": "a list"})
    with pytest.raises(io.ParseError):
        io.finset_from_json([1])
    with pytest.raises(io.ParseError):
        io.finmap_from_json({"dom": [], "cod": []})
    with pytest.raises(io.ParseError):
        io.polynomial_from_json({"I": []})
    with pytest.raises(io.ParseError):
        io.loads("{ not json")


def test_duplicate_elements_rejected_on_parse():
    with pytest.raises(io.ParseError):
        io.finset_from_json(["a", "a"])
    with pytest.raises(io.ParseError, match=re.escape("duplicate element ('a', ())")):
        io.finset_from_json([["a", []], "a", ["a"], ["a", []]])


def _as_tuples(data):
    return data if isinstance(data, str) else tuple(map(_as_tuples, data))


json_labels = st.recursive(
    st.sampled_from(["", "a", "b", "ab"]),
    lambda children: st.lists(children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(json_labels, max_size=6))
def test_a_parsed_set_is_the_set_of_its_parsed_labels(data):
    """Empty arrays, prefixes and strings next to arrays sort as ``FinSet``
    sorts them, and duplicates are refused with its message."""
    try:
        want = FinSet(map(_as_tuples, data))
    except finset.FinSetError as exc:
        with pytest.raises(io.ParseError, match=re.escape(str(exc))):
            io.finset_from_json(data)
    else:
        assert io.finset_from_json(data) == want


def test_a_parsed_set_sorts_prefixes_and_mixed_labels():
    data = [["a", "b"], [], "b", ["a"], [[]], ["a", ["b"]], "a", [["a"], "b"]]
    got = io.finset_from_json(data)
    assert got == FinSet(map(_as_tuples, data))
    assert got.elements == ("a", "b", (), ("a",), ("a", "b"), ("a", ("b",)), ((),), (("a",), "b"))


def test_dumps_is_canonical():
    u = mk_bool_universe()
    a = io.dumps(io.universe_to_json(u))
    b = io.dumps(io.universe_to_json(mk_bool_universe()))
    assert a == b


# io.dumps must write exactly what json.dumps writes with these settings
def _reference(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


json_strings = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "é", " ", "\ud800", "😀", 'a"b\\c\nd\te']
)
json_scalars = (
    json_strings
    | st.integers()
    | st.sampled_from([-(2**100), 2**100, 0, -1])
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.none()
)
json_trees = st.recursive(
    json_scalars | st.builds(list) | st.builds(tuple) | st.builds(dict),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_strings, children, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_dumps_matches_json_reference(data):
    assert io.dumps(data) == _reference(data)


tuple_labels = st.lists(labels, max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(tuple_labels, min_size=1, max_size=4, unique=True), st.lists(json_trees, max_size=3), json_trees)
def test_dumps_matches_json_on_shared_lists(elems, plain, other):
    # the label arrays of one to_json call and a plain list, each met again:
    # in the same list, one level deeper, under dict values, inside another
    # shared list; and one shared empty list
    arrays = io.finset_to_json(FinSet(elems))
    shared = [arrays, arrays[0], plain, arrays[-1]]
    pair, empty = [shared, arrays[0]], []
    data = [
        shared, shared, [shared, {"k": shared, "e": empty}],
        {"v": [[shared]], "w": shared, "p": pair}, [pair, [pair]], empty, other, empty,
    ]
    assert io.dumps(data) == _reference(data)


def _fourfold(seed: int = 0):
    """k.h.g.f for four one-to-one polynomials with sets of at most 2; at
    seed 0 it has 16 operations, 8 arities and labels ten tuples deep."""
    rng = random.Random(seed)
    f, g, h, k = (rand_polynomial(rng, 2, one_to_one=True) for _ in range(4))
    return compose(compose(k, h)[0], compose(g, f)[0])[0]


# SHA-256 of the canonical text of _fourfold(0), recorded with the first writer
FOURFOLD_GOLDEN = "065419a490bae9455b66bc852a51fe85e33638cb39be2ee5c2df2f387f1dbfd2"


def test_dumps_of_a_deep_composite_matches_json_and_its_golden():
    record = io.polynomial_to_json(_fourfold())
    text = io.dumps(record)
    assert text == _reference(record)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FOURFOLD_GOLDEN


def test_to_json_gives_one_list_per_label():
    P = _fourfold()
    J = io.polynomial_to_json(P)
    for i in range(len(P.A)):
        assert isinstance(J["A"][i], list)
        assert J["A"][i] is J["t"]["dom"][i] is J["f"]["cod"][i] is J["t"]["map"][i][0]
    # another call builds its own lists
    assert io.polynomial_to_json(P)["A"][0] is not J["A"][0]


def test_from_json_gives_one_plain_tuple_per_label_and_interns_none():
    text = io.dumps(io.polynomial_to_json(_fourfold()))
    before = len(finset._UNIQUE)
    P = io.polynomial_from_json(io.loads(text))
    assert len(finset._UNIQUE) == before
    assert P == _fourfold()
    for i, a in enumerate(P.A):
        assert type(a) is tuple
        assert a is P.t.dom.elements[i] is P.f.cod.elements[i]
    # another call parses its own tuples
    again = io.polynomial_from_json(io.loads(text))
    assert again.A.elements[0] is not P.A.elements[0]


def test_parsing_a_universe_interns_nothing(monkeypatch):
    u = rand_universe(random.Random(5), 3)
    text = io.dumps(io.universe_to_json(u))
    monkeypatch.setattr(finset, "_UNIQUE", {})
    back = io.universe_from_json(io.loads(text))
    assert finset._UNIQUE == {}
    assert back == u and back.sigma == u.sigma


def test_dumps_matches_json_on_records():
    rng = random.Random(4)
    for _ in range(5):
        record = io.morphism_to_json(rand_morphism(rng, 3))
        assert io.dumps(record) == _reference(record)
    record = io.universe_to_json(rand_universe(rng, 4))
    assert io.dumps(record) == _reference(record)


@pytest.mark.parametrize("data", [
    {3: "a", -1: ["b"], 2**70: {}},
    {2.5: 1, -0.0: 2, 1e300: 3, math.inf: 4, -math.inf: 5},
    {math.nan: [1, 2]},
    {True: "t", False: "f"},
    {None: None},
    [{1: {2: {"three": 3.0}}}],
])
def test_dumps_converts_keys_like_json(data):
    assert io.dumps(data) == _reference(data)


@pytest.mark.parametrize("data", [
    {"a", "b"},
    [1, object()],
    {"k": {frozenset()}},
    {("a", "b"): 1},
    {"a": 1, 2: 3},
])
def test_dumps_rejects_what_json_rejects(data):
    with pytest.raises(TypeError):
        _reference(data)
    with pytest.raises(TypeError):
        io.dumps(data)
