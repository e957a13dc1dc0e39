"""Finite sets, maps and families: a locally cartesian closed category at desk scale.

Everything is immutable and canonically encoded.  Labels are strings or
(nested) tuples of labels, checked once, when they enter through ``FinSet``,
which sorts them by a fixed total order: two values built from equal inputs
are equal Python objects.  Sets built from checked parts in that order (the
constructions below) are taken as they are, not sorted or keyed again.  A
set indexes its labels by position once, and a map stores codomain positions,
so composition, equality and fibres work on ints.  ``FinSet``, ``FinMap`` and
``poly.Polynomial`` compare field-wise but are equal to themselves at once,
and shape checks compare tuples of sets, where the same object costs no call.
Composite labels are plain tuples, compared by value; the library keeps no
table of labels between calls.  Constructed elements record their derivation:

* ``pullback(f, g)`` elements are pairs ``(b, c)`` with ``f(b) == g(c)``;
* ``dep_sum`` elements are pairs ``(b, x)``;
* ``dep_prod`` elements are sections: tuples of ``(b, x)`` pairs sorted by
  the key of ``b``.

Operations that would enumerate more elements than the cap raise
``EnumerationCapExceeded`` instead of thrashing.  The cap is ``DEFAULT_CAP``,
or ``n`` within ``with enumeration_cap(n):``, however deeply nested.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

Label = Union[str, tuple]

DEFAULT_CAP = 100_000


class FinSetError(Exception):
    """Malformed finite-set data."""


class EnumerationCapExceeded(FinSetError):
    """An operation would enumerate more elements than the configured cap."""


def label_key(label: Label):
    """Total order on labels: strings before tuples, then lexicographic.

    It is also the label check: anything but a string or a tuple of labels
    raises ``FinSetError``; every ``FinSet`` sorts by it.  A tuple is keyed
    part by part on every call: a label's one identity is its value.
    """
    if isinstance(label, str):
        return (0, label)
    if not isinstance(label, tuple):
        raise FinSetError(f"label must be a string or tuple of labels, got {label!r}")
    return (1, *map(label_key, label))


_CAP: ContextVar[int] = ContextVar("enumeration_cap", default=DEFAULT_CAP)


@contextmanager
def enumeration_cap(n: int):
    """Set the enumeration cap to ``n`` for the ``with`` block; the outer cap
    comes back when the block ends, also when an exception leaves it."""
    if not isinstance(n, int) or n <= 0:
        raise ValueError(f"enumeration cap must be a positive int, got {n!r}")
    token = _CAP.set(n)
    try:
        yield
    finally:
        _CAP.reset(token)


def _guard(count: int, what: str) -> None:
    cap = _CAP.get()
    if count > cap:
        raise EnumerationCapExceeded(f"{what} would have {count} elements (cap {cap})")


class _lazy:
    """``functools.cached_property`` as of Python 3.12: computed on first access
    and kept in the instance's ``__dict__``, without the lock 3.11's takes then."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


def _kept_hash(self) -> int:
    """The hash of a frozen dataclass's fields, computed on first use and kept."""
    kept = self.__dict__.get("_hash")
    if kept is None:
        kept = self.__dict__["_hash"] = hash(tuple([self.__dict__[k] for k in self.__dataclass_fields__]))
    return kept


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of distinct labels."""

    elements: tuple
    __hash__ = _kept_hash

    def __init__(self, elements: Iterable[Label] = ()):
        ordered = tuple(sorted(elements, key=label_key))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise FinSetError(f"duplicate element {a!r}")
        self.__dict__.update(elements=ordered)

    @classmethod
    def _of(cls, ordered: tuple) -> "FinSet":
        """Build from distinct checked labels already in ``label_key`` order."""
        X = object.__new__(cls)
        X.__dict__.update(elements=ordered)
        return X

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.elements == other.elements

    @_lazy
    def pos(self) -> dict:
        """Label -> position in ``elements``."""
        return {x: i for i, x in enumerate(self.elements)}

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self.pos

    def the_element(self) -> Label:
        if len(self.elements) != 1:
            raise FinSetError(f"expected a singleton, got {len(self.elements)} elements")
        return self.elements[0]


TERMINAL = FinSet(("*",))


@dataclass(frozen=True)
class FinMap:
    """A total function between finite sets, stored positionally: ``img[i]``
    is the codomain position of the value at ``dom.elements[i]``."""

    dom: FinSet
    cod: FinSet
    img: tuple
    __hash__ = _kept_hash

    def __init__(self, dom: FinSet, cod: FinSet, assignment):
        if isinstance(assignment, (dict, Mapping)):
            table = assignment
        else:
            table = {}
            for x, y in assignment:
                if x in table and table[x] != y:
                    raise FinSetError(f"conflicting values for {x!r}")
                table[x] = y
        pos = cod.pos
        try:
            img = tuple([pos[table[x]] for x in dom.elements])
        except KeyError:
            img = None
        if img is None or len(table) != len(img):
            for x in dom:
                if x not in table:
                    raise FinSetError(f"no value assigned to {x!r}")
            for x in table:
                if x not in dom:
                    raise FinSetError(f"assignment for {x!r} outside the domain")
            for x, y in table.items():
                if y not in cod:
                    raise FinSetError(f"value {y!r} of {x!r} outside the codomain")
        self.__dict__.update(dom=dom, cod=cod, img=img)

    @classmethod
    def _of(cls, dom: FinSet, cod: FinSet, img: tuple) -> "FinMap":
        """Build from codomain positions that are known to be valid."""
        f = object.__new__(cls)
        f.__dict__.update(dom=dom, cod=cod, img=img)
        return f

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.dom, self.cod, self.img) == (other.dom, other.cod, other.img)

    @_lazy
    def pairs(self) -> tuple:
        """The graph ``(x, f(x))`` in domain order."""
        return tuple(zip(self.dom.elements, map(self.cod.elements.__getitem__, self.img)))

    @_lazy
    def _fibres(self) -> list:
        """Domain positions over each codomain position."""
        out = [[] for _ in self.cod.elements]
        for i, j in enumerate(self.img):
            out[j].append(i)
        return out

    @_lazy
    def _ranks(self) -> list:
        """Each domain position's place in its fibre, as listed by ``_fibres``."""
        out = [0] * len(self.img)
        for fibre in self._fibres:
            for k, i in enumerate(fibre):
                out[i] = k
        return out

    def __call__(self, x: Label) -> Label:
        try:
            return self.cod.elements[self.img[self.dom.pos[x]]]
        except KeyError:
            raise FinSetError(f"{x!r} not in the domain") from None

    def after(self, other: "FinMap") -> "FinMap":
        """Composite self∘other."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise FinSetError("composition mismatch")
        return FinMap._of(other.dom, self.cod, tuple(map(self.img.__getitem__, other.img)))

    def preimage(self, y: Label) -> tuple:
        j = self.cod.pos.get(y)
        return () if j is None else tuple(map(self.dom.elements.__getitem__, self._fibres[j]))

    def is_bijection(self) -> bool:
        return len(self.dom) == len(self.cod) == len(set(self.img))

    def inverse(self) -> "FinMap":
        if not self.is_bijection():
            raise FinSetError("map is not a bijection")
        inv = sorted(range(len(self.img)), key=self.img.__getitem__)
        return FinMap._of(self.cod, self.dom, tuple(inv))

    @staticmethod
    def identity(X: FinSet) -> "FinMap":
        return FinMap._of(X, X, tuple(range(len(X))))

    @staticmethod
    def constant(dom: FinSet, cod: FinSet, value: Label) -> "FinMap":
        return FinMap(dom, cod, {x: value for x in dom})

    @staticmethod
    def to_terminal(X: FinSet) -> "FinMap":
        return FinMap._of(X, TERMINAL, (0,) * len(X))


@dataclass(frozen=True)
class FinFamily:
    """A finite set of finite sets, indexed by a finite set."""

    index: FinSet
    fibres: tuple
    __hash__ = _kept_hash

    def __init__(self, index: FinSet, fibres):
        items = fibres.items() if isinstance(fibres, (dict, Mapping)) else fibres
        table = {}
        for i, X in items:
            X = X if isinstance(X, FinSet) else FinSet(X)
            if i in table:
                raise FinSetError(f"duplicate fibre for {i!r}")
            table[i] = X
        if len(table) != len(index) or any(i not in index for i in table):
            raise FinSetError("fibres must be defined for exactly the index elements")
        self.__dict__.update(index=index, fibres=tuple([(i, table[i]) for i in index.elements]))

    @classmethod
    def _of(cls, index: FinSet, sets) -> "FinFamily":
        """Build from one ``FinSet`` per index element, given in index order."""
        X = object.__new__(cls)
        X.__dict__.update(index=index, fibres=tuple(zip(index.elements, sets)))
        return X

    def fibre(self, i: Label) -> FinSet:
        try:
            return self.fibres[self.index.pos[i]][1]
        except KeyError:
            raise FinSetError(f"{i!r} not in the index") from None

    def total(self) -> tuple[FinSet, FinMap]:
        """Total space of pairs ``(i, x)`` with its projection to the index."""
        total = FinSet._of(tuple([(i, x) for i, X in self.fibres for x in X.elements]))
        img = tuple([k for k, (_, X) in enumerate(self.fibres) for _ in X])
        return total, FinMap._of(total, self.index, img)


@dataclass(frozen=True)
class FamilyMorphism:
    """A fibrewise map between two families over the same index."""

    src: FinFamily
    dst: FinFamily
    maps: tuple

    def __init__(self, src: FinFamily, dst: FinFamily, maps):
        if src.index is not dst.index and src.index != dst.index:
            raise FinSetError("family morphism requires a common index")
        table = dict(maps)
        if len(table) != len(src.index) or any(i not in src.index for i in table):
            raise FinSetError("component maps must cover exactly the index")
        for i, m in table.items():
            X, Y = src.fibre(i), dst.fibre(i)
            if (m.dom is not X and m.dom != X) or (m.cod is not Y and m.cod != Y):
                raise FinSetError(f"component at {i!r} has the wrong signature")
        maps = tuple([(i, table[i]) for i in src.index.elements])
        self.__dict__.update(src=src, dst=dst, maps=maps)

    @classmethod
    def _of(cls, src: FinFamily, dst: FinFamily, maps: tuple) -> "FamilyMorphism":
        """Build from ``(i, component)`` pairs in index order whose components
        are known to map the fibres of ``src`` to those of ``dst``."""
        h = object.__new__(cls)
        h.__dict__.update(src=src, dst=dst, maps=maps)
        return h

    def at(self, i: Label) -> FinMap:
        return self.maps[self.src.index.pos[i]][1]

    def __call__(self, i: Label, x: Label) -> Label:
        return self.at(i)(x)

    def after(self, other: "FamilyMorphism") -> "FamilyMorphism":
        if other.dst != self.src:
            raise FinSetError("family morphism composition mismatch")
        maps = tuple([(i, m.after(n)) for (i, m), (_, n) in zip(self.maps, other.maps)])
        return FamilyMorphism._of(other.src, self.dst, maps)

    def is_bijection(self) -> bool:
        return all(m.is_bijection() for _, m in self.maps)

    def inverse(self) -> "FamilyMorphism":
        return FamilyMorphism(self.dst, self.src, {i: m.inverse() for i, m in self.maps})

    @staticmethod
    def identity(X: FinFamily) -> "FamilyMorphism":
        return FamilyMorphism(X, X, {i: FinMap.identity(X.fibre(i)) for i in X.index})


# ---------------------------------------------------------------------------
# Chosen limits and the adjoint triple
# ---------------------------------------------------------------------------


def pullback(f: FinMap, g: FinMap) -> tuple[FinSet, FinMap, FinMap]:
    """Chosen pullback of a cospan: pairs ``(b, c)`` with ``f(b) == g(c)``.

    The pairs come out in ``label_key`` order (``b`` first, then ``c``), so
    the projections are the positions they were drawn from.
    """
    if f.cod is not g.cod and f.cod != g.cod:
        raise FinSetError("pullback requires a common codomain")
    right = g._fibres
    idx = [(i, k) for i, j in enumerate(f.img) for k in right[j]]
    bs, cs = f.dom.elements, g.dom.elements
    P = FinSet._of(tuple([(bs[i], cs[k]) for i, k in idx]))
    p1 = FinMap._of(P, f.dom, tuple([i for i, _ in idx]))
    p2 = FinMap._of(P, g.dom, tuple([k for _, k in idx]))
    return P, p1, p2


def is_pullback_cone(f: FinMap, g: FinMap, p1: FinMap, p2: FinMap) -> bool:
    """Universal property of a commuting cone over the cospan ``f, g``,
    checked by full enumeration: each matching pair is hit exactly once."""
    if (f.cod, p1.dom, p1.cod, p2.cod) != (g.cod, p2.dom, f.dom, g.dom):
        return False
    fi, gi = f.img, g.img
    legs = list(zip(p1.img, p2.img))
    if any(fi[i] != gi[k] for i, k in legs) or len(set(legs)) != len(legs):
        return False
    return len(legs) == sum(len(g._fibres[j]) for j in fi)


def base_change(f: FinMap, X: FinFamily) -> FinFamily:
    """Reindex a family over the codomain of ``f`` along ``f``."""
    if X.index is not f.cod and X.index != f.cod:
        raise FinSetError("base change: family must be indexed by the codomain")
    return FinFamily._of(f.dom, [X.fibres[j][1] for j in f.img])


def dep_sum(f: FinMap, X: FinFamily) -> FinFamily:
    """Dependent sum along ``f``: fibre over ``a`` is pairs ``(b, x)``."""
    if X.index is not f.dom and X.index != f.dom:
        raise FinSetError("dependent sum: family must be indexed by the domain")
    bs, Xs = f.dom.elements, X.fibres
    fibres = ([(bs[i], x) for i in fib for x in Xs[i][1].elements] for fib in f._fibres)
    return FinFamily._of(f.cod, [FinSet._of(tuple(xs)) for xs in fibres])


def section_tuple(assignment: Mapping) -> tuple:
    """Canonical encoding of a section: pairs sorted by the key of the input."""
    section = tuple(sorted(assignment.items(), key=lambda p: label_key(p[0])))
    label_key(section)  # the label check: refuses a value that is not a label
    return section


def section_lookup(section: tuple, b: Label) -> Label:
    for k, v in section:
        if k == b:
            return v
    raise FinSetError(f"{b!r} not assigned by section {section!r}")


def dep_prod(f: FinMap, X: FinFamily) -> FinFamily:
    """Dependent product along ``f``: fibre over ``a`` is the set of sections
    of ``X`` over the ``f``-fibre of ``a``."""
    if X.index is not f.dom and X.index != f.dom:
        raise FinSetError("dependent product: family must be indexed by the domain")
    fibres = []
    for a, fib in zip(f.cod.elements, f._fibres):
        bs, pools = [f.dom.elements[i] for i in fib], [X.fibres[i][1].elements for i in fib]
        _guard(math.prod(map(len, pools)), f"dependent product fibre over {a!r}")
        fibres.append(FinSet._of(tuple([tuple(zip(bs, c)) for c in itertools.product(*pools)])))
    return FinFamily._of(f.cod, fibres)


# ---------------------------------------------------------------------------
# Commuting squares in the arrow category
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Square:
    """A commuting square from ``src : B → A`` to ``dst : D → C`` given by
    ``top : B → D`` and ``bot : A → C``."""

    src: FinMap
    dst: FinMap
    top: FinMap
    bot: FinMap

    def __post_init__(self):
        if (self.top.dom, self.top.cod) != (self.src.dom, self.dst.dom):
            raise FinSetError("square top map has the wrong signature")
        if (self.bot.dom, self.bot.cod) != (self.src.cod, self.dst.cod):
            raise FinSetError("square bottom map has the wrong signature")
        di, bi = self.dst.img, self.bot.img
        for k, (d, a) in enumerate(zip(self.top.img, self.src.img)):
            if di[d] != bi[a]:
                raise FinSetError(f"square does not commute at {self.src.dom.elements[k]!r}")

    def is_pullback(self) -> bool:
        return is_pullback_cone(self.bot, self.dst, self.src, self.top)

    def after(self, other: "Square") -> "Square":
        if other.dst != self.src:
            raise FinSetError("square composition mismatch")
        return Square(other.src, self.dst, self.top.after(other.top), self.bot.after(other.bot))

    @staticmethod
    def identity(f: FinMap) -> "Square":
        return Square(f, f, FinMap.identity(f.dom), FinMap.identity(f.cod))
