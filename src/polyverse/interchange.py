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

Each call does its work once per distinct label, its tables keyed by the
label's value: a ``*_to_json`` result shares one array per tuple label, so
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
from contextvars import ContextVar
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

# The label table of the outermost public conversion in progress, shared by
# those nested in it and dropped when it returns (to and from JSON never nest).
# A parse keys it by tuple labels and by the ``marshal`` bytes of label arrays.
_LABELS: ContextVar = ContextVar("interchange_labels", default=None)

# The set records parsed so far in the outermost polynomial or morphism record
# in progress, each with its ``FinSet`` and its labels in record order: a few
# dozen at most.  None outside such a record.
_SETS: ContextVar = ContextVar("interchange_sets", default=None)


def _conversion(kind: str | None = None, shares_sets: bool = False):
    """Run a conversion in the label table of the outermost one in progress,
    or a fresh one; a ``kind`` record parser raises ``ParseError`` on bad data.
    A parser that ``shares_sets`` opens a fresh ``_SETS`` if none is open."""
    def wrap(convert):
        @functools.wraps(convert)
        def run(arg):
            token = _LABELS.set({}) if _LABELS.get() is None else None
            sets = _SETS.set([]) if shares_sets and _SETS.get() is None else None
            try:
                return convert(arg)
            except (KeyError, TypeError, ValueError, FinSetError) as exc:
                if kind is None:
                    raise
                raise ParseError(f"bad {kind} record: {exc}") from exc
            finally:
                if sets is not None:
                    _SETS.reset(sets)
                if token is not None:
                    _LABELS.reset(token)
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


def _set_from_json(data, labels: dict) -> tuple:
    """The ``FinSet`` of a set record and its labels in record order; a record
    ``==`` to one in the open ``_SETS`` gives back the same ones."""
    if not isinstance(data, list):
        raise ParseError("finite set must be an array of labels")
    known = _SETS.get()
    for record, X, parsed in known or ():
        if record == data:
            return X, parsed
    parsed = [_label_from_json(x, labels) for x in data]
    ordered = sorted(parsed, key=lambda x: _key(x, labels))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ParseError(f"duplicate element {a!r}")
    X = FinSet._of(tuple(ordered))
    if known is not None:
        known.append((data, X, parsed))
    return X, parsed


@_conversion()
def finset_to_json(X: FinSet) -> list:
    arrays = _LABELS.get()
    return [_label_to_json(x, arrays) for x in X]


@_conversion("set")
def finset_from_json(data) -> FinSet:
    return _set_from_json(data, _LABELS.get())[0]


@_conversion()
def finmap_to_json(f: FinMap) -> dict:
    dom, cod = finset_to_json(f.dom), finset_to_json(f.cod)
    return {"dom": dom, "cod": cod, "map": [[x, cod[j]] for x, j in zip(dom, f.img)]}


@_conversion("map")
def finmap_from_json(data) -> FinMap:
    labels = _LABELS.get()
    dom_record, cod_record, map_record = _fields(data, "dom", "cod", "map")
    dom, keys = _set_from_json(dom_record, labels)
    cod = _set_from_json(cod_record, labels)[0]
    pairs = _pairs(map_record)
    if [x for x, _ in pairs] == dom_record:
        # the keys list the domain in record order: read them by position
        return FinMap(dom, cod, dict(zip(keys, [_label_from_json(y, labels) for _, y in pairs])))
    return FinMap(dom, cod, [(_label_from_json(x, labels), _label_from_json(y, labels)) for x, y in pairs])


@_conversion()
def family_to_json(X: FinFamily) -> dict:
    arrays = _LABELS.get()
    return {
        "index": finset_to_json(X.index),
        "fibres": [[_label_to_json(i, arrays), finset_to_json(F)] for i, F in X.fibres],
    }


@_conversion("family")
def family_from_json(data) -> FinFamily:
    labels = _LABELS.get()
    index, fibres = _fields(data, "index", "fibres")
    fibres = [(_label_from_json(i, labels), finset_from_json(F)) for i, F in _pairs(fibres)]
    return FinFamily(finset_from_json(index), fibres)


@_conversion()
def polynomial_to_json(P: Polynomial) -> dict:
    return {
        "I": finset_to_json(P.I),
        "B": finset_to_json(P.B),
        "A": finset_to_json(P.A),
        "J": finset_to_json(P.J),
        "s": finmap_to_json(P.s),
        "f": finmap_to_json(P.f),
        "t": finmap_to_json(P.t),
    }


@_conversion("polynomial", shares_sets=True)
def polynomial_from_json(data) -> Polynomial:
    I, B, A, J, s, f, t = _fields(data, "I", "B", "A", "J", "s", "f", "t")
    return Polynomial(
        *map(finset_from_json, (I, B, A, J)),
        *map(finmap_from_json, (s, f, t)),
    )


@_conversion()
def morphism_to_json(phi: PolyMorphism) -> dict:
    return {
        "src": polynomial_to_json(phi.src),
        "dst": polynomial_to_json(phi.dst),
        "dphi": finset_to_json(phi.dphi),
        "phi0": finmap_to_json(phi.phi0),
        "phi1": finmap_to_json(phi.phi1),
        "phi2": finmap_to_json(phi.phi2),
    }


@_conversion("morphism", shares_sets=True)
def morphism_from_json(data) -> PolyMorphism:
    src, dst, dphi, phi0, phi1, phi2 = _fields(data, "src", "dst", "dphi", "phi0", "phi1", "phi2")
    return PolyMorphism(
        polynomial_from_json(src),
        polynomial_from_json(dst),
        finset_from_json(dphi),
        *map(finmap_from_json, (phi0, phi1, phi2)),
    )


@_conversion()
def universe_to_json(u: Universe) -> dict:
    label = functools.partial(_label_to_json, arrays=_LABELS.get())

    def table(entries) -> list:
        # a code family is a label: [[x, code], ...]
        return [[[label(A), label(bt)], label(c)] for (A, bt), c in entries]

    return {
        "U": finset_to_json(u.codes),
        "El": family_to_json(u.el),
        "unit": label(u.unit_code),
        "sigma": table(u.sigma),
        "pi": table(u.pi),
    }


@_conversion("universe")
def universe_from_json(data) -> Universe:
    labels = _LABELS.get()
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
    return Universe(finset_from_json(codes), family_from_json(el), label(unit), table(sigma), table(pi))


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
