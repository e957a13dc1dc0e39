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
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .finset import FinFamily, FinMap, FinSet, FinSetError, section_tuple
from .poly import Polynomial
from .poly2 import PolyMorphism
from .naturalmodel import Universe


class ParseError(Exception):
    """Input that does not follow the interchange grammar."""


def _label_to_json(label):
    if isinstance(label, str):
        return label
    return [_label_to_json(x) for x in label]


def _label_from_json(data):
    if isinstance(data, str):
        return data
    if isinstance(data, list):
        return tuple(_label_from_json(x) for x in data)
    raise ParseError(f"label must be a string or array, got {data!r}")


def finset_to_json(X: FinSet) -> list:
    return [_label_to_json(x) for x in X]


def finset_from_json(data) -> FinSet:
    if not isinstance(data, list):
        raise ParseError("finite set must be an array of labels")
    try:
        return FinSet(_label_from_json(x) for x in data)
    except FinSetError as exc:
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("label nested too deeply") from exc


def finmap_to_json(f: FinMap) -> dict:
    return {
        "dom": finset_to_json(f.dom),
        "cod": finset_to_json(f.cod),
        "map": [[_label_to_json(x), _label_to_json(y)] for x, y in f.pairs],
    }


def finmap_from_json(data) -> FinMap:
    try:
        pairs = [(_label_from_json(x), _label_from_json(y)) for x, y in data["map"]]
        return FinMap(finset_from_json(data["dom"]), finset_from_json(data["cod"]), pairs)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, FinSetError, RecursionError) as exc:
        raise ParseError(f"bad map record: {exc}") from exc


def family_to_json(X: FinFamily) -> dict:
    return {
        "index": finset_to_json(X.index),
        "fibres": [[_label_to_json(i), finset_to_json(F)] for i, F in X.fibres],
    }


def family_from_json(data) -> FinFamily:
    try:
        fibres = [(_label_from_json(i), finset_from_json(F)) for i, F in data["fibres"]]
        return FinFamily(finset_from_json(data["index"]), fibres)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, FinSetError, RecursionError) as exc:
        raise ParseError(f"bad family record: {exc}") from exc


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


def polynomial_from_json(data) -> Polynomial:
    try:
        return Polynomial(
            finset_from_json(data["I"]),
            finset_from_json(data["B"]),
            finset_from_json(data["A"]),
            finset_from_json(data["J"]),
            finmap_from_json(data["s"]),
            finmap_from_json(data["f"]),
            finmap_from_json(data["t"]),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, FinSetError, RecursionError) as exc:
        raise ParseError(f"bad polynomial record: {exc}") from exc


def morphism_to_json(phi: PolyMorphism) -> dict:
    return {
        "src": polynomial_to_json(phi.src),
        "dst": polynomial_to_json(phi.dst),
        "dphi": finset_to_json(phi.dphi),
        "phi0": finmap_to_json(phi.phi0),
        "phi1": finmap_to_json(phi.phi1),
        "phi2": finmap_to_json(phi.phi2),
    }


def morphism_from_json(data) -> PolyMorphism:
    try:
        return PolyMorphism(
            polynomial_from_json(data["src"]),
            polynomial_from_json(data["dst"]),
            finset_from_json(data["dphi"]),
            finmap_from_json(data["phi0"]),
            finmap_from_json(data["phi1"]),
            finmap_from_json(data["phi2"]),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, FinSetError, RecursionError) as exc:
        raise ParseError(f"bad morphism record: {exc}") from exc


def _btable_to_json(btable) -> list:
    return [[_label_to_json(x), _label_to_json(c)] for x, c in btable]


def _btable_from_json(data):
    return section_tuple(
        {_label_from_json(x): _label_from_json(c) for x, c in data}
    )


def universe_to_json(u: Universe) -> dict:
    return {
        "U": finset_to_json(u.codes),
        "El": family_to_json(u.el),
        "unit": _label_to_json(u.unit_code),
        "sigma": [
            [[_label_to_json(A), _btable_to_json(bt)], _label_to_json(c)]
            for (A, bt), c in u.sigma
        ],
        "pi": [
            [[_label_to_json(A), _btable_to_json(bt)], _label_to_json(c)]
            for (A, bt), c in u.pi
        ],
    }


def universe_from_json(data) -> Universe:
    try:
        sigma = {
            (_label_from_json(A), _btable_from_json(bt)): _label_from_json(c)
            for (A, bt), c in data["sigma"]
        }
        pi = {
            (_label_from_json(A), _btable_from_json(bt)): _label_from_json(c)
            for (A, bt), c in data["pi"]
        }
        return Universe(
            finset_from_json(data["U"]),
            family_from_json(data["El"]),
            _label_from_json(data["unit"]),
            sigma,
            pi,
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, FinSetError, RecursionError) as exc:
        raise ParseError(f"bad universe record: {exc}") from exc


def dumps(data) -> str:
    """Canonical serialisation: the bytes of ``json.dumps(data,
    sort_keys=True, indent=2)`` followed by a newline.  Like it, raises
    ``TypeError`` for a value or key that JSON cannot hold."""
    out: list = []
    _write(data, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(o, out: list, nl: str) -> None:
    """Append the text of ``o`` to ``out``; ``nl`` is a newline followed by
    the indentation of the line ``o`` starts on.  Each string in a
    container goes out in one chunk with the separator before it."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            if isinstance(x, str):
                out.append(sep + _quote(x))
            else:
                out.append(sep)
                _write(x, out, inner)
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
                _write(v, out, inner)
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
        raise ParseError("not valid JSON: nested too deeply") from exc
