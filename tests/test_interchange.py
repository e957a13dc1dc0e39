import hashlib
import json
import marshal
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from polyverse import finset
from polyverse.finset import FinFamily, FinMap, FinSet
from polyverse import interchange as io
from polyverse.poly import Polynomial, compose
from polyverse.generators import rand_composable_pair, rand_morphism, rand_polynomial, rand_universe
from polyverse.naturalmodel import mk_bool_universe, mk_skewed_universe, validate_universe

from goldens import FOURFOLD_GOLDEN
import reference
from reference import finmap_from_json, finset_from_json, recorded


labels = st.recursive(
    st.text(alphabet="abcxyz01", min_size=1, max_size=4),
    lambda children: st.lists(children, min_size=0, max_size=3).map(tuple),
    max_leaves=6,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(labels, max_size=5, unique=True))
def test_finset_roundtrip(elems):
    X = FinSet(elems)
    assert finset_from_json(io.finset_to_json(X)) == X


@settings(max_examples=50, deadline=None)
@given(st.lists(labels, max_size=4, unique=True), st.lists(labels, min_size=1, max_size=3, unique=True), st.randoms())
def test_finmap_roundtrip(dom_elems, cod_elems, rng):
    dom, cod = FinSet(dom_elems), FinSet(cod_elems)
    f = FinMap(dom, cod, {x: rng.choice(cod.elements) for x in dom})
    assert finmap_from_json(io.finmap_to_json(f)) == f


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
        finset_from_json({"not": "a list"})
    with pytest.raises(io.ParseError):
        finset_from_json([1])
    with pytest.raises(io.ParseError):
        finmap_from_json({"dom": [], "cod": []})
    with pytest.raises(io.ParseError):
        io.polynomial_from_json({"I": []})
    with pytest.raises(io.ParseError):
        io.loads("{ not json")


def test_duplicate_elements_rejected_on_parse():
    with pytest.raises(io.ParseError):
        finset_from_json(["a", "a"])
    with pytest.raises(io.ParseError, match=re.escape("duplicate element ('a', ())")):
        finset_from_json([["a", []], "a", ["a"], ["a", []]])


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
            finset_from_json(data)
    else:
        assert finset_from_json(data) == want


def test_a_parsed_set_sorts_prefixes_and_mixed_labels():
    data = [["a", "b"], [], "b", ["a"], [[]], ["a", ["b"]], "a", [["a"], "b"]]
    got = finset_from_json(data)
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


def _rebuilt(label):
    """A label equal to ``label``, made of new tuple objects."""
    return label if isinstance(label, str) else tuple([_rebuilt(x) for x in label])


def test_to_json_keys_labels_by_value():
    # equal labels that are distinct tuple objects get one array per call,
    # and the text is that of the same data built from one object per label
    P = _fourfold()
    melt, copy = P.A.elements[0], _rebuilt(P.A.elements[0])
    assert copy == melt and copy is not melt
    J = io.finset_to_json(FinSet([("x", melt), ("y", copy)]))
    assert type(J[0][1]) is io._LabelArray and J[0][1] is J[1][1]
    assert io.dumps(J) == io.dumps(io.finset_to_json(FinSet([("x", melt), ("y", melt)])))
    A = FinSet._of(tuple(map(_rebuilt, P.A)))
    record = io.polynomial_to_json(Polynomial(P.I, P.B, P.A, P.J, P.s, FinMap._of(P.B, A, P.f.img), P.t))
    for i in range(len(P.A)):
        assert type(record["A"][i]) is io._LabelArray
        assert record["A"][i] is record["t"]["dom"][i] is record["f"]["cod"][i] is record["t"]["map"][i][0]
    assert io.dumps(record) == io.dumps(io.polynomial_to_json(P))


def test_from_json_gives_one_plain_tuple_per_label_and_interns_none():
    text = io.dumps(io.polynomial_to_json(_fourfold()))
    P = io.polynomial_from_json(io.loads(text))
    assert P == _fourfold()
    for i, a in enumerate(P.A):
        assert type(a) is tuple
        assert a is P.t.dom.elements[i] is P.f.cod.elements[i]
    # another call parses its own tuples
    again = io.polynomial_from_json(io.loads(text))
    assert again.A.elements[0] is not P.A.elements[0]


def test_parsing_a_universe_interns_nothing():
    u = rand_universe(random.Random(5), 3)
    text = io.dumps(io.universe_to_json(u))
    back = io.universe_from_json(io.loads(text))
    assert back == u and back.sigma == u.sigma
    # each code family is one plain tuple of plain pairs, the same object
    # in sigma and in pi; another call parses its own (but for the one
    # empty tuple, which Python shares)
    again = io.universe_from_json(io.loads(text))
    for ((_, family), _), ((_, same), _), ((_, other), _) in zip(back.sigma, back.pi, again.sigma):
        assert type(family) is tuple and all(type(pair) is tuple for pair in family)
        assert family is same and family == other and (family is not other or family == ())


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


# Set records parsed once per call, and map keys read by position

def _on_labels(parse, data):
    """``parse(data)`` with every set and map record parsed one label at a
    time, by the reference parsers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_set_from_json", reference.set_from_json_on_labels)
        mp.setattr(io, "_map_from_json", reference.map_from_json_on_labels)
        return parse(data)


def _outcome(parse, data):
    """The value ``parse(data)`` returns, or the type and message of what it raises."""
    try:
        return parse(data)
    except Exception as exc:
        return type(exc), str(exc)


def _composite(rng):
    F, G = rand_composable_pair(rng, 2)
    return compose(G, F)[0]


RECORDS = {
    "polynomial": (lambda rng: rand_polynomial(rng, 3), io.polynomial_to_json, io.polynomial_from_json),
    "composite": (_composite, io.polynomial_to_json, io.polynomial_from_json),
    "morphism": (lambda rng: rand_morphism(rng, 3), io.morphism_to_json, io.morphism_from_json),
    "universe": (lambda rng: rand_universe(rng, 3), io.universe_to_json, io.universe_from_json),
}

_SET_KEYS = {"I", "B", "A", "J", "dom", "cod", "dphi", "U", "index"}


def _records(data) -> tuple[list, list]:
    """The set records of a parsed record, as ``(holder, key)``, and its map records."""
    sets, maps = [], []

    def walk(node):
        if "map" in node:
            maps.append(node)
        for k, v in node.items():
            if k in _SET_KEYS:
                sets.append((node, k))
            elif k == "fibres":
                sets.extend((pair, 1) for pair in v)
            elif isinstance(v, dict):
                walk(v)

    walk(data)
    return sets, maps


def _deep(depth: int, label="x") -> list:
    for _ in range(depth):
        label = [label]
    return label


def _break(data, fault: str, rng) -> None:
    """Put one ``fault`` into ``data``, if it has a record that can hold it."""
    sets, maps = _records(data)
    full = [(h, k) for h, k in sets if h[k]]
    with_pairs = [m for m in maps if m["map"]]
    if fault == "duplicate" and full:
        holder, key = rng.choice(full)
        holder[key].append(json.loads(json.dumps(rng.choice(holder[key]))))
    elif fault == "conflicting":
        candidates = [m for m in with_pairs if len(m["cod"]) > 1]
        if candidates:
            m = rng.choice(candidates)
            x, y = rng.choice(m["map"])
            m["map"].append([x, next(z for z in m["cod"] if z != y)])
    elif fault == "missing" and with_pairs:
        m = rng.choice(with_pairs)
        del m["map"][rng.randrange(len(m["map"]))]
    elif fault == "extra":
        candidates = [m for m in maps if m["cod"]]
        if candidates:
            m = rng.choice(candidates)
            m["map"].insert(rng.randint(0, len(m["map"])), ["extra", m["cod"][0]])
    elif fault == "outside" and with_pairs:
        rng.choice(rng.choice(with_pairs)["map"])[1] = ["outside"]
    elif fault == "deep":
        # deeper than the recursion limit in force, in a set record or a map value
        label = _deep(2 * sys.getrecursionlimit())
        if with_pairs and (not full or rng.random() < 0.5):
            rng.choice(rng.choice(with_pairs)["map"])[1] = label
        elif full:
            holder, key = rng.choice(full)
            holder[key][rng.randrange(len(holder[key]))] = label


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(RECORDS)),
    st.randoms(use_true_random=False),
    st.sampled_from([None, "duplicate", "conflicting", "missing", "extra", "outside", "deep"]),
)
def test_a_parse_agrees_with_the_label_by_label_parse(kind, rng, fault):
    """On shuffled map pairs, set records out of order, equal set records
    written in different orders, and records with one fault, the parse gives
    what the reference parse gives: an equal value or the same error."""
    make, to_json, from_json = RECORDS[kind]
    value = make(rng)
    data = io.loads(io.dumps(to_json(value)))
    sets, maps = _records(data)
    for holder, key in sets:
        if rng.random() < 0.5:
            rng.shuffle(holder[key])
    for m in maps:
        if rng.random() < 0.5:
            rng.shuffle(m["map"])
    if fault is not None:
        _break(data, fault, rng)
    got = _outcome(from_json, data)
    with recorded(reference, "set_from_json_on_labels", "map_from_json_on_labels") as calls:
        assert got == _outcome(lambda d: _on_labels(from_json, d), data)
    if fault is None:
        assert got == value
        # the reference parse ran once on each set and map record
        names = [name for name, _, _ in calls]
        assert names.count("set_from_json_on_labels") == len(sets)
        assert names.count("map_from_json_on_labels") == len(maps)


@pytest.mark.parametrize("data, want", [
    # domain and codomain of one length but different labels
    ({"dom": ["a"], "cod": ["b"], "map": [["a", "b"]]}, {"a": "b"}),
    ({"dom": ["a", "b"], "cod": ["b", "c"], "map": [["a", "c"], ["b", "b"]]}, {"a": "c", "b": "b"}),
    # keys in another order than the domain record lists them
    ({"dom": ["a", "b"], "cod": ["x", "y"], "map": [["b", "x"], ["a", "y"]]}, {"a": "y", "b": "x"}),
    # a domain record out of order, its keys listing it in its order
    ({"dom": ["b", "a"], "cod": ["x", "y"], "map": [["b", "x"], ["a", "y"]]}, {"a": "y", "b": "x"}),
    # the domain record written twice in two orders
    ({"dom": ["b", "a"], "cod": ["a", "b"], "map": [["a", "b"], ["b", "a"]]}, {"a": "b", "b": "a"}),
])
def test_a_parsed_map_matches_its_pairs(data, want):
    got = finmap_from_json(data)
    assert got == FinMap(FinSet(data["dom"]), FinSet(data["cod"]), want)
    assert got == _on_labels(finmap_from_json, data)


@pytest.mark.parametrize("pairs, message", [
    ([["a", "x"]], "no value assigned to 'b'"),
    ([["a", "x"], ["b", "x"], ["c", "x"]], "assignment for 'c' outside the domain"),
    ([["a", "x"], ["b", "x"], ["a", "y"]], "conflicting values for 'a'"),
    ([["a", "x"], ["b", "z"]], "value 'z' of 'b' outside the codomain"),
    ([["b", "z"], ["a", "x"]], "value 'z' of 'b' outside the codomain"),
])
def test_map_errors_keep_their_wording(pairs, message):
    data = {"dom": ["a", "b"], "cod": ["x", "y"], "map": pairs}
    for parse in (finmap_from_json, lambda d: _on_labels(finmap_from_json, d)):
        with pytest.raises(io.ParseError, match=re.escape(f"bad map record: {message}")):
            parse(data)


def test_equal_set_records_parse_to_one_set():
    rng = random.Random(6)
    for _ in range(5):
        P = io.polynomial_from_json(io.loads(io.dumps(io.polynomial_to_json(_composite(rng)))))
        assert P.s.dom is P.B and P.f.dom is P.B and P.t.dom is P.A
        assert P.s.cod is P.I and P.f.cod is P.A and P.t.cod is P.J
    phi = io.morphism_from_json(io.morphism_to_json(rand_morphism(rng, 3)))
    assert phi.phi1.dom is phi.dphi is phi.phi2.dom
    assert phi.phi0.dom is phi.src.A and phi.phi2.cod is phi.src.B
    # another call parses its own sets
    data = io.polynomial_to_json(P)
    assert io.polynomial_from_json(data).B is not io.polynomial_from_json(data).B


class _Counted(list):
    """A set record that counts the ``==`` comparisons it takes part in."""
    compares = 0

    def __eq__(self, other):
        _Counted.compares += 1
        return list.__eq__(self, other)

    __hash__ = None


def test_a_wide_family_compares_no_fibre_records():
    # thousands of fibres of one size: sharing them across the whole call
    # would compare each new fibre with every earlier one
    n = 5000
    data = {"index": [f"i{k}" for k in range(n)], "fibres": [[f"i{k}", _Counted([f"x{k}"])] for k in range(n)]}
    _Counted.compares = 0
    got = io.family_from_json(data)
    assert _Counted.compares < n
    assert got == FinFamily(FinSet(data["index"]), {f"i{k}": FinSet([f"x{k}"]) for k in range(n)})


def test_a_label_nested_too_deeply_in_a_map_is_a_parse_error():
    # refused as JSON too deep to parse is, below the recursion limit or not
    for deep in (_deep(io._MAX_LABEL_DEPTH + 1), _deep(2 * sys.getrecursionlimit())):
        for data in (
            {"dom": ["a"], "cod": ["x"], "map": [["a", deep]]},
            {"dom": ["a"], "cod": ["x"], "map": [[deep, "x"]]},
            {"dom": ["a", deep], "cod": ["x"], "map": []},
        ):
            with pytest.raises(io.ParseError, match="^not valid JSON: nested too deeply$"):
                finmap_from_json(data)


def test_a_label_nested_to_the_bound_is_parsed():
    deepest = _deep(io._MAX_LABEL_DEPTH)
    label = finmap_from_json({"dom": ["a"], "cod": [deepest], "map": [["a", deepest]]})("a")
    for _ in range(io._MAX_LABEL_DEPTH):
        [label] = label
    assert label == "x"


@pytest.mark.parametrize("depth", range(1, io._KEYED_LEVELS))
def test_a_label_met_again_deeper_is_refused_by_its_height(depth):
    """A label first met at the top of a set record, then again ``depth``
    arrays down, is found by its bytes the second time and not walked; it is
    refused there exactly when its arrays would nest past the bound."""
    for height in (io._MAX_LABEL_DEPTH - depth, io._MAX_LABEL_DEPTH - depth + 1):
        data = [_deep(height), _deep(depth, _deep(height))]
        with recorded(io, "_array_from_json") as arrays:
            got = _outcome(finset_from_json, data)
        # each array of the first, then the wrappers and one look-up
        assert len(arrays) == height + depth + 1
        assert got == _outcome(lambda d: _on_labels(finset_from_json, d), data)
        if depth + height > io._MAX_LABEL_DEPTH:
            assert got == (io.ParseError, "not valid JSON: nested too deeply")
        else:
            assert len(got) == 2


@pytest.mark.parametrize("data, message", [
    ([["a", ["b"]], [["a", ["b"]], 5]], "label must be a string or array, got 5"),
    ([["a", ["b"]], [["a", ["b"]], 5, None]], "label must be a string or array, got 5"),
    ([["a", ["b"]], [["a", ["b"]], _deep(2 * io._MAX_LABEL_DEPTH)], 5], "not valid JSON: nested too deeply"),
    ([["a", ["b"]], ["a", ["b"]]], "duplicate element ('a', ('b',))"),
    ([[["a", ["b"]]], [["a", ["b"]]], "c"], "duplicate element (('a', ('b',)),)"),
])
def test_errors_after_a_label_met_again_keep_their_wording(data, message):
    for parse in (finset_from_json, lambda d: _on_labels(finset_from_json, d)):
        with pytest.raises(io.ParseError, match=f"^{re.escape(message)}$"):
            parse(data)


def test_a_map_error_after_a_label_met_again_keeps_its_wording():
    x = ["a", ["b", "c"]]
    data = {"dom": [x, "y"], "cod": [x], "map": [[x, x], ["y", ["a", ["b", "d"]]]]}
    message = "bad map record: value ('a', ('b', 'd')) of 'y' outside the codomain"
    for parse in (finmap_from_json, lambda d: _on_labels(finmap_from_json, d)):
        with pytest.raises(io.ParseError, match=f"^{re.escape(message)}$"):
            parse(data)


def test_equal_arrays_give_one_tuple_whether_or_not_a_string_is_interned():
    """The keys are ``marshal`` bytes of version 2, which do not mark an
    interned string; a format that does (version 3 and up) would key these
    two arrays apart, and the walk would still give one tuple."""
    plain = ["".join(["ab", "c"]), ["x", "y"]]
    interned = [sys.intern("".join(["ab", "c"])), ["x", "y"]]
    assert plain == interned and marshal.dumps(plain, 4) != marshal.dumps(interned, 4)
    X = finset_from_json([[plain, "1"], [interned, "2"], [["abc", ["x", "y"]], "3"]])
    firsts = {id(label[0]) for label in X}
    assert len(firsts) == 1 and type(X.elements[0][0]) is tuple


class _Text(str):
    pass


class _Array(list):
    pass


def _classes(label):
    return type(label) if isinstance(label, str) else [_classes(x) for x in label]


def test_subclass_arrays_and_strings_parse_as_the_walk_parses_them():
    """``marshal`` refuses subclasses: a label holding one is walked, and
    equal arrays met before or after it give the tuple met first."""
    inner = _Array([_Text("a"), _Array(["b"])])
    for data in (
        [inner, ["c"]],
        [["a", ["b"]], [inner, "z"]],
        [[inner, "z"], [["a", ["b"]], "y"], _Array([_Text("q")])],
        [["a", ["b"]], inner],
    ):
        got = _outcome(finset_from_json, data)
        want = _outcome(lambda d: _on_labels(finset_from_json, d), data)
        assert got == want
        if isinstance(got, FinSet):
            assert list(map(_classes, got)) == list(map(_classes, want))
    first_plain = finset_from_json([["a", ["b"]], [inner, "z"]])
    assert first_plain.elements[1][0] is first_plain.elements[0]
    assert _classes(first_plain.elements[0]) == [str, [str]]
    first_subclass = finset_from_json([[inner, "z"], [["a", ["b"]], "y"]])
    assert first_subclass.elements[0][0] is first_subclass.elements[1][0]
    assert _classes(first_subclass.elements[0][0]) == [_Text, [str]]


class _Hashed(str):
    """A string that counts how often it is hashed."""

    count = 0

    def __hash__(self):
        _Hashed.count += 1
        return str.__hash__(self)


@pytest.mark.parametrize("depth", [50, 150])
def test_each_level_of_a_deep_label_hashes_only_its_own_width(depth):
    """A new tuple is keyed by its tuple parts' identities: each level hashes
    its own string a few times.  Keyed by value, each level would rehash
    every string below it, about ``1.5 * depth ** 2`` hashes in all."""
    data, want = [_Hashed("s0")], ("s0",)
    for k in range(1, depth):
        data, want = [_Hashed(f"s{k}"), data], (f"s{k}", want)
    _Hashed.count = 0
    assert io._label_from_json(data, {}) == want
    assert _Hashed.count < 4 * depth


# Every pair of the grammar is a two-element array

@pytest.mark.parametrize("pairs", [["ab"], [["a", "b", "c"]], [["a"]], [("a", "b")], {"ab": "c"}])
def test_a_map_pair_must_be_a_two_element_array(pairs):
    # "ab" listed the domain ["a"] in its first column, as a string
    with pytest.raises(io.ParseError, match="^pairs? must be"):
        finmap_from_json({"dom": ["a"], "cod": ["b"], "map": pairs})


@pytest.mark.parametrize("fibres", [["i", []], [["i", [], []]], [["i"]], "i"])
def test_a_family_fibre_must_be_a_pair(fibres):
    with pytest.raises(io.ParseError, match="^pairs? must be"):
        io.family_from_json({"index": ["i"], "fibres": fibres})


def _bool_record() -> dict:
    return io.loads(io.dumps(io.universe_to_json(mk_bool_universe())))


@pytest.mark.parametrize("entry", [
    lambda e: [*e, "code1"],  # three elements
    lambda e: e[0],  # the family pair on its own
    lambda e: "".join([e[0][0], e[1]]),  # a string
])
def test_a_universe_table_entry_must_be_a_pair(entry):
    data = _bool_record()
    data["sigma"][0] = entry(data["sigma"][0])
    with pytest.raises(io.ParseError, match="^pairs? must be"):
        io.universe_from_json(data)


@pytest.mark.parametrize("head", [
    lambda h: [h[0]],
    lambda h: [*h, []],
    lambda h: h[0],
])
def test_the_code_and_family_of_a_table_entry_must_be_a_pair(head):
    data = _bool_record()
    data["pi"][0][0] = head(data["pi"][0][0])
    with pytest.raises(io.ParseError, match="^pairs? must be"):
        io.universe_from_json(data)


def test_a_code_family_pair_must_be_a_two_element_array():
    data = _bool_record()
    [(x, code)] = next(e[0][1] for e in data["sigma"] if len(e[0][1]) == 1)
    for e in data["sigma"]:
        if e[0][1] == [[x, code]]:
            e[0][1] = [x + code]
    with pytest.raises(io.ParseError, match="^pair must be"):
        io.universe_from_json(data)


def test_a_repeated_element_of_a_code_family_is_refused():
    # before, the family kept its last code and the record equalled bool
    data = _bool_record()
    entry = next(e for e in data["sigma"] if e[0][1] == [["el", "code0"]])
    entry[0][1] = [["el", "code1"], ["el", "code0"]]
    with pytest.raises(io.ParseError, match=re.escape("duplicate element 'el'")):
        io.universe_from_json(data)


@pytest.mark.parametrize("name", ["sigma", "pi"])
def test_a_repeated_table_head_is_refused(name):
    data = _bool_record()
    head = data[name][1][0]
    data[name].append([json.loads(json.dumps(head)), "code1"])
    with pytest.raises(io.ParseError, match=re.escape("duplicate element ('code1', (('el', 'code0'),))")):
        io.universe_from_json(data)


# An object record names the field it lacks, or the shape it got

@pytest.mark.parametrize("parse, data, message", [
    (io.morphism_from_json, {"I": []}, 'bad morphism record: missing field "src"'),
    (io.polynomial_from_json, {"I": [], "B": []}, 'bad polynomial record: missing field "A"'),
    (finmap_from_json, {"dom": [], "cod": []}, 'bad map record: missing field "map"'),
    (io.family_from_json, {"fibres": []}, 'bad family record: missing field "index"'),
    (io.universe_from_json, {"U": [], "El": {}}, 'bad universe record: missing field "unit"'),
    (io.universe_from_json, [1, 2], "bad universe record: expected an object, got an array"),
    (io.polynomial_from_json, "P", "bad polynomial record: expected an object, got a string"),
    (finmap_from_json, 3, "bad map record: expected an object, got a number"),
    (io.family_from_json, True, "bad family record: expected an object, got a boolean"),
    (io.morphism_from_json, None, "bad morphism record: expected an object, got null"),
])
def test_a_record_names_its_missing_field_or_its_shape(parse, data, message):
    with pytest.raises(io.ParseError, match=f"^{re.escape(message)}$"):
        parse(data)


def _morphism_record() -> dict:
    return io.loads(io.dumps(io.morphism_to_json(rand_morphism(random.Random(0), 2))))


def _polynomial_without_t():
    data = _morphism_record()
    del data["src"]["t"]
    return io.morphism_from_json, data, 'bad polynomial record: missing field "t"'


def _map_without_pairs():
    data = io.loads(io.dumps(io.polynomial_to_json(rand_polynomial(random.Random(0), 2))))
    del data["s"]["map"]
    return io.polynomial_from_json, data, 'bad map record: missing field "map"'


def _value_outside_the_codomain():
    data = _morphism_record()
    pair = data["phi0"]["map"][0]
    pair[1] = "nope"
    return io.morphism_from_json, data, f"bad map record: value 'nope' of {_as_tuples(pair[0])!r} outside the codomain"


def _phi2_as_phi1():
    data = _morphism_record()
    data["phi1"] = data["phi2"]
    return io.morphism_from_json, data, "bad morphism record: phi1 must map the vertex into the target arities"


def _family_without_fibres():
    data = _bool_record()
    del data["El"]["fibres"]
    return io.universe_from_json, data, 'bad family record: missing field "fibres"'


@pytest.mark.parametrize("fault", [
    _polynomial_without_t, _map_without_pairs, _value_outside_the_codomain, _phi2_as_phi1, _family_without_fibres,
])
def test_a_fault_in_a_nested_record_names_the_nested_record(fault):
    parse, data, message = fault()
    with pytest.raises(io.ParseError, match=f"^{re.escape(message)}$"):
        parse(data)
