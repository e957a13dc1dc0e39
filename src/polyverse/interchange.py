"""Textual interchange formats (JSON-compatible).

Grammar, with ``label ::= string | [label, ...]`` (arrays are tuples):

* finite set:    ``[label, ...]``
* map:           ``{"dom": finset, "cod": finset, "map": [[x, fx], ...]}``
* family:        ``{"index": finset, "fibres": [[i, finset], ...]}``
* polynomial:    ``{"I", "B", "A", "J": finset, "s", "f", "t": map}``
* morphism:      ``{"src", "dst": polynomial, "dphi": finset,
                    "phi0", "phi1", "phi2": map}``
* universe:      ``{"U": finset, "El": family, "unit": label,
                    "sigma": [[[A, [[x, code], ...]], code], ...],
                    "pi": likewise}``

Parsing and printing are mutually inverse on well-formed data; the
canonical pairing and abstraction bijections of a universe are
reconstructed rather than stored, since validity forces them.

``dumps`` writes the canonical text: byte for byte what
``json.dumps(data, sort_keys=True, indent=2)`` writes, plus a newline.  It
has its own writer because ``json`` falls back to a slow pure-Python
encoder whenever ``indent`` is set; the tests keep ``json.dumps`` as its
reference.

A call's tables are arguments that begin and end with the call: a public
converter starts them empty and passes them to the private converter of
each record nested in its own, so nothing is kept between calls.  A call
does its work once per distinct label, its tables keyed by the label's
value: a ``*_to_json`` result shares one array per tuple label, so
it is read-only, and ``dumps`` reuses the text of such an array; a
``*_from_json`` result holds one plain tuple per distinct label, shared
within that call only, and sorts its sets by the ``label_key`` each tuple
got once, from its parts'.

A ``*_from_json`` call also keys each label array it walks, while it is
less than ``_KEYED_LEVELS`` arrays deep in its label, by its ``marshal``
bytes (version 2, which depend only on the value of an array of exact lists
and strings).  An array met again is then one C serialisation and one dict
hit, not a walk: in the fourfold composites of ``models`` a few hundred
distinct arrays are met tens of thousands of times.  A hit at depth ``d``
for a label ``h`` arrays high is refused exactly when ``d + h`` exceeds
``_MAX_LABEL_DEPTH``, as the walk would refuse it there.  What ``marshal``
refuses (a ``str`` or ``list`` subclass, nesting past its limit) is walked,
and so is an array of strings only, whose tuple is found as fast as its
bytes would be.  The depth limit bounds the cost on labels that share
nothing: at most ``_KEYED_LEVELS`` serialisations of each string.

A polynomial or morphism record also parses each of its own set records
once: a later one ``==`` to an earlier one (a polynomial repeats ``B`` as
the domain of ``s`` and ``f``) gets the same ``FinSet`` back, compared by
``list ==`` in C and not walked again.  Only the few set records of that
one polynomial or morphism are compared; those of a family or universe
are each parsed on their own.  A map whose pairs' first column ``==`` its
``dom`` record reads its keys as that record's labels by position and
parses only the values; any other map is read pair by pair.  Nothing is
skipped: a value equal to a checked label record is itself a valid label.
Every pair of the grammar must be a two-element array.
"""

from __future__ import annotations

import functools
import json
import marshal
from json.encoder import encode_basestring_ascii as _quote

from .finset import FinFamily, FinMap, FinSet, FinSetError
from .poly import Polynomial
from .poly2 import PolyMorphism
from .naturalmodel import Universe


class ParseError(Exception):
    """Input that does not follow the interchange grammar."""


# How deep arrays may nest in a label: far above the deepest label the library
# builds (about ten, in the fourfold composites of ``models``) and far below
# the recursion limit, so a label gets one answer at any stack depth.
_MAX_LABEL_DEPTH = 200
_TOO_DEEP = "not valid JSON: nested too deeply"

# How many arrays deep in its label an array is keyed by its ``marshal`` bytes
# (see the module docstring): the arrays that repeat in the fourfold
# composites of ``models`` lie at most six deep.
_KEYED_LEVELS = 8

_is_str = str.__instancecheck__  # isinstance(x, str), for map


def _record(kind: str):
    """Turn the bad data that a ``kind`` record parser meets into ``ParseError``;
    the parser of a record nested in it has turned its own, naming that record."""
    def wrap(parse):
        @functools.wraps(parse)
        def run(data, *tables):
            try:
                return parse(data, *tables)
            except (KeyError, TypeError, ValueError, FinSetError) as exc:
                raise ParseError(f"bad {kind} record: {exc}") from exc
        return run
    return wrap


class _LabelArray(list):
    """The array of a tuple label: a list that ``dumps`` writes once per indentation."""


def _label_to_json(label, arrays: dict):
    """A string as it is; a tuple as the one array ``arrays`` holds for it."""
    if isinstance(label, str):
        return label
    out = arrays.get(label)
    if out is None:
        out = arrays[label] = _LabelArray([_label_to_json(x, arrays) for x in label])
    return out


def _key(label, labels: dict):
    """``label_key`` of a string, or of a tuple that ``labels`` holds."""
    return (0, label) if isinstance(label, str) else labels[label][1]


def _entry(parts: tuple, labels: dict) -> tuple:
    """``(label, label_key(label))`` for the first tuple equal to ``parts``
    that ``labels`` holds; a new one is keyed from its parts' stored keys."""
    entry = labels.get(parts)
    if entry is None:
        entry = labels[parts] = (parts, (1, *[_key(x, labels) for x in parts]))
    return entry


def _label_from_json(data, labels: dict):
    """A string as it is; an array as the first equal tuple ``labels`` holds,
    refused like too deep JSON when arrays nest over ``_MAX_LABEL_DEPTH``."""
    if isinstance(data, str):
        return data
    if isinstance(data, list):
        return _array_from_json(data, labels, 0)[0]
    raise ParseError(f"label must be a string or array, got {data!r}")


def _array_from_json(data: list, labels: dict, depth: int) -> tuple:
    """The label of the array ``data`` met at ``depth`` and its height (a
    flat array has height 1).  Any but an array of strings only is held in
    ``labels`` by its ``marshal`` bytes, too, if it is less than
    ``_KEYED_LEVELS`` deep: one met again there is not walked."""
    if depth == _MAX_LABEL_DEPTH:
        raise ParseError(_TOO_DEEP)
    if all(map(_is_str, data)):  # its tuple is found as fast as its bytes
        return _entry(tuple(data), labels)[0], 1
    key = None
    if depth < _KEYED_LEVELS:
        try:
            key = marshal.dumps(data, 2)
        except ValueError:
            pass  # a subclass, or nesting past marshal's limit: walked as it is
        else:
            known = labels.get(key)
            if known is not None:
                if depth + known[1] > _MAX_LABEL_DEPTH:
                    raise ParseError(_TOO_DEEP)
                return known
    parts, height = [], 1
    for x in data:
        if isinstance(x, str):
            parts.append(x)
        elif isinstance(x, list):
            label, below = _array_from_json(x, labels, depth + 1)
            parts.append(label)
            if below >= height:
                height = below + 1
        else:
            raise ParseError(f"label must be a string or array, got {x!r}")
    out = _entry(tuple(parts), labels)[0], height
    if key is not None:
        labels[key] = out
    return out


def _pair(data) -> list:
    """``data`` if it is a two-element array, as the grammar's pairs are."""
    if not isinstance(data, list) or len(data) != 2:
        raise ParseError(f"pair must be a two-element array, got {data!r}")
    return data


def _pairs(data) -> list:
    """The pairs of ``data`` if it is an array of pairs."""
    if not isinstance(data, list):
        raise ParseError(f"pairs must be an array, got {data!r}")
    return [_pair(p) for p in data]


_SHAPES = {list: "an array", str: "a string", int: "a number", float: "a number", bool: "a boolean"}


def _fields(data, *names) -> list:
    """The values of ``names`` in the object record ``data``; a record of
    another shape or without one of them is refused by name."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {_SHAPES.get(type(data), 'null')}")
    for name in names:
        if name not in data:
            raise ValueError(f'missing field "{name}"')
    return [data[name] for name in names]


def _set_from_json(data, labels: dict, sets: list | None = None) -> tuple:
    """The ``FinSet`` of a set record and its labels in record order; a record
    ``==`` to one in ``sets``, those of one polynomial or morphism parsed so
    far, gives back the same ones."""
    if not isinstance(data, list):
        raise ParseError("finite set must be an array of labels")
    for record, X, parsed in sets or ():
        if record == data:
            return X, parsed
    parsed = [_label_from_json(x, labels) for x in data]
    ordered = sorted(parsed, key=lambda x: _key(x, labels))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ParseError(f"duplicate element {a!r}")
    X = FinSet._of(tuple(ordered))
    if sets is not None:
        sets.append((data, X, parsed))
    return X, parsed


def _set_to_json(X: FinSet, arrays: dict) -> list:
    return [_label_to_json(x, arrays) for x in X]


def finset_to_json(X: FinSet) -> list:
    return _set_to_json(X, {})


def _map_to_json(f: FinMap, arrays: dict) -> dict:
    dom, cod = _set_to_json(f.dom, arrays), _set_to_json(f.cod, arrays)
    return {"dom": dom, "cod": cod, "map": [[x, cod[j]] for x, j in zip(dom, f.img)]}


def finmap_to_json(f: FinMap) -> dict:
    return _map_to_json(f, {})


@_record("map")
def _map_from_json(data, labels: dict, sets: list | None) -> FinMap:
    dom_record, cod_record, map_record = _fields(data, "dom", "cod", "map")
    dom, keys = _set_from_json(dom_record, labels, sets)
    cod = _set_from_json(cod_record, labels, sets)[0]
    pairs = _pairs(map_record)
    if [x for x, _ in pairs] == dom_record:
        # the keys list the domain in record order: read them by position
        return FinMap(dom, cod, dict(zip(keys, [_label_from_json(y, labels) for _, y in pairs])))
    return FinMap(dom, cod, [(_label_from_json(x, labels), _label_from_json(y, labels)) for x, y in pairs])


def _family_to_json(X: FinFamily, arrays: dict) -> dict:
    return {
        "index": _set_to_json(X.index, arrays),
        "fibres": [[_label_to_json(i, arrays), _set_to_json(F, arrays)] for i, F in X.fibres],
    }


def family_to_json(X: FinFamily) -> dict:
    return _family_to_json(X, {})


@_record("family")
def _family_from_json(data, labels: dict) -> FinFamily:
    index, fibres = _fields(data, "index", "fibres")
    fibres = [(_label_from_json(i, labels), _set_from_json(F, labels)[0]) for i, F in _pairs(fibres)]
    return FinFamily(_set_from_json(index, labels)[0], fibres)


def family_from_json(data) -> FinFamily:
    return _family_from_json(data, {})


def _polynomial_to_json(P: Polynomial, arrays: dict) -> dict:
    return {
        "I": _set_to_json(P.I, arrays),
        "B": _set_to_json(P.B, arrays),
        "A": _set_to_json(P.A, arrays),
        "J": _set_to_json(P.J, arrays),
        "s": _map_to_json(P.s, arrays),
        "f": _map_to_json(P.f, arrays),
        "t": _map_to_json(P.t, arrays),
    }


def polynomial_to_json(P: Polynomial) -> dict:
    return _polynomial_to_json(P, {})


@_record("polynomial")
def _polynomial_from_json(data, labels: dict, sets: list) -> Polynomial:
    I, B, A, J, s, f, t = _fields(data, "I", "B", "A", "J", "s", "f", "t")
    return Polynomial(
        *[_set_from_json(X, labels, sets)[0] for X in (I, B, A, J)],
        *[_map_from_json(m, labels, sets) for m in (s, f, t)],
    )


def polynomial_from_json(data) -> Polynomial:
    return _polynomial_from_json(data, {}, [])


def morphism_to_json(phi: PolyMorphism) -> dict:
    arrays = {}
    return {
        "src": _polynomial_to_json(phi.src, arrays),
        "dst": _polynomial_to_json(phi.dst, arrays),
        "dphi": _set_to_json(phi.dphi, arrays),
        "phi0": _map_to_json(phi.phi0, arrays),
        "phi1": _map_to_json(phi.phi1, arrays),
        "phi2": _map_to_json(phi.phi2, arrays),
    }


@_record("morphism")
def morphism_from_json(data) -> PolyMorphism:
    labels, sets = {}, []
    src, dst, dphi, phi0, phi1, phi2 = _fields(data, "src", "dst", "dphi", "phi0", "phi1", "phi2")
    return PolyMorphism(
        _polynomial_from_json(src, labels, sets),
        _polynomial_from_json(dst, labels, sets),
        _set_from_json(dphi, labels, sets)[0],
        *[_map_from_json(m, labels, sets) for m in (phi0, phi1, phi2)],
    )


def universe_to_json(u: Universe) -> dict:
    arrays = {}
    label = functools.partial(_label_to_json, arrays=arrays)

    def table(entries) -> list:
        # a code family is a label: [[x, code], ...]
        return [[[label(A), label(bt)], label(c)] for (A, bt), c in entries]

    return {
        "U": _set_to_json(u.codes, arrays),
        "El": _family_to_json(u.el, arrays),
        "unit": label(u.unit_code),
        "sigma": table(u.sigma),
        "pi": table(u.pi),
    }


@_record("universe")
def universe_from_json(data) -> Universe:
    labels = {}
    label = functools.partial(_label_from_json, labels=labels)

    def add_new(out: dict, key, value) -> None:
        if key in out:
            raise ParseError(f"duplicate element {key!r}")
        out[key] = value

    def table(entries) -> dict:
        out = {}
        for head, code in _pairs(entries):
            A, bt = _pair(head)
            # a code family in section_tuple's order, one tuple per value in this call
            family = {}
            for x, c in _pairs(bt):
                add_new(family, label(x), label(c))
            family = sorted(family.items(), key=lambda xc: _key(xc[0], labels))
            family = _entry(tuple([_entry(xc, labels)[0] for xc in family]), labels)[0]
            add_new(out, (label(A), family), label(code))
        return out

    codes, el, unit, sigma, pi = _fields(data, "U", "El", "unit", "sigma", "pi")
    return Universe(_set_from_json(codes, labels)[0], _family_from_json(el, labels), label(unit), table(sigma), table(pi))


def dumps(data) -> str:
    """Canonical serialisation: the bytes of ``json.dumps(data,
    sort_keys=True, indent=2)`` followed by a newline.  Like it, raises
    ``TypeError`` for a value or key that JSON cannot hold."""
    out: list = []
    _write(data, out, "\n", set(), {})
    out.append("\n")
    return "".join(out)


def _write(o, out: list, nl: str, seen: set, texts: dict) -> None:
    """Append the text of ``o`` to ``out``; ``nl`` is a newline followed by
    the indentation of the line ``o`` starts on.  Each string in a
    container goes out in one chunk with the separator before it.  A label
    array goes into ``seen`` by id when first met; met again, its text comes
    from ``texts``, by id and indentation, made at the second meeting."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        if type(o) is _LabelArray:
            i = id(o)
            if i in seen:
                key = (i, nl)
                if key not in texts:
                    part: list = []
                    seen.remove(i)  # so that it is written out into part
                    _write(o, part, nl, seen, texts)
                    texts[key] = "".join(part)
                out.append(texts[key])
                return
            seen.add(i)
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            if isinstance(x, str):
                out.append(sep + _quote(x))
            else:
                out.append(sep)
                _write(x, out, inner, seen, texts)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                # json turns int, float, bool and None keys into their text
                if not isinstance(k, (int, float)) and k is not None:
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(k).__name__}"
                    )
                k = json.dumps(k)
            if isinstance(v, str):
                out.append(sep + _quote(k) + ": " + _quote(v))
            else:
                out.append(sep + _quote(k) + ": ")
                _write(v, out, inner, seen, texts)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, str):
        out.append(_quote(o))
    else:
        # numbers, booleans and None; anything else raises TypeError
        out.append(json.dumps(o))


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(_TOO_DEEP) from exc
