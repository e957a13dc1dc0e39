"""Internal full subcategories of finite maps, internal functors induced by
cartesian morphisms of polynomials, and the correspondence between
adjustments and internal natural transformations.

The internal full subcategory of ``f : B -> A`` has objects A and, as
morphisms from ``a`` to ``a'``, all functions between the fibres of ``f``;
a morphism is encoded as ``(a, a', graph)`` with the graph in section
form.  Everything is materialised and the category laws are checked by
full enumeration at construction time.

Categories and induced functors are built through the table of
``poly._once``, so once per check.  ``internal_functor`` takes only the cell
and gets the categories of its endpoints from ``internal_full_subcat``;
``adjustment_to_nat`` and ``equivalence_sets`` take cells and get their
functors from ``internal_functor``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finset import (
    FinMap,
    FinSet,
    section_lookup,
    section_tuple,
    _guard,
    _intern,
)
from .poly import PolyError, _once
from .poly2 import Adjustment, PolyMorphism


class InternalCatError(PolyError):
    """Internal-category data violating the category laws."""


@dataclass(frozen=True)
class InternalCategory:
    obj: FinSet
    mor: FinSet
    dom: FinMap
    cod: FinMap
    ident: FinMap
    comp: FinMap

    def __post_init__(self):
        if self.dom.dom != self.mor or self.dom.cod != self.obj:
            raise InternalCatError("domain map has the wrong signature")
        if self.cod.dom != self.mor or self.cod.cod != self.obj:
            raise InternalCatError("codomain map has the wrong signature")
        if self.ident.dom != self.obj or self.ident.cod != self.mor:
            raise InternalCatError("identity map has the wrong signature")
        mor = self.mor.elements  # in key order, so the pairs are too
        pairs = FinSet._of(tuple([(m2, m1) for m2 in mor for m1 in mor if self.dom(m2) == self.cod(m1)]))
        if self.comp.dom != pairs or self.comp.cod != self.mor:
            raise InternalCatError("composition must be defined on exactly the composable pairs")
        for a in self.obj:
            i = self.ident(a)
            if self.dom(i) != a or self.cod(i) != a:
                raise InternalCatError(f"identity at {a!r} has the wrong endpoints")
        for (m2, m1) in pairs:
            m = self.comp((m2, m1))
            if self.dom(m) != self.dom(m1) or self.cod(m) != self.cod(m2):
                raise InternalCatError("composite has the wrong endpoints")
        for m in self.mor:
            if self.comp((m, self.ident(self.dom(m)))) != m:
                raise InternalCatError(f"right unit law fails at {m!r}")
            if self.comp((self.ident(self.cod(m)), m)) != m:
                raise InternalCatError(f"left unit law fails at {m!r}")
        by_dom: dict = {}
        for m in self.mor:
            by_dom.setdefault(self.dom(m), []).append(m)
        for (m2, m1) in pairs:
            inner = self.comp((m2, m1))
            for m3 in by_dom.get(self.cod(m2), ()):
                if self.comp((m3, inner)) != self.comp((self.comp((m3, m2)), m1)):
                    raise InternalCatError("associativity fails")

    def hom(self, a, a_prime) -> tuple:
        return tuple(m for m in self.mor if self.dom(m) == a and self.cod(m) == a_prime)


def internal_full_subcat(f: FinMap) -> InternalCategory:
    """The internal full subcategory associated with a map of finite sets."""
    return _once(_internal_full_subcat, f)


def _internal_full_subcat(f: FinMap) -> InternalCategory:
    A = f.cod
    count = 0
    for a in A:
        for a2 in A:
            count += max(1, len(f.preimage(a2))) ** len(f.preimage(a))
            _guard(count, "internal morphism object")
    mor_elems = []
    for a in A:
        src = f.preimage(a)
        for a2 in A:  # an empty target fibre leaves no maps from a nonempty source
            for choice in itertools.product(f.preimage(a2), repeat=len(src)):
                mor_elems.append((a, a2, _intern(tuple(zip(src, choice)))))
    mor = FinSet._of(tuple(mor_elems))
    dom = FinMap(mor, A, {m: m[0] for m in mor_elems})
    cod = FinMap(mor, A, {m: m[1] for m in mor_elems})
    ident = FinMap(A, mor, {a: (a, a, _intern(tuple([(b, b) for b in f.preimage(a)]))) for a in A})
    pairs = [(m2, m1) for m2 in mor for m1 in mor if m2[0] == m1[1]]
    comp_table = {}
    for m2, m1 in pairs:
        graph = {b: section_lookup(m2[2], section_lookup(m1[2], b)) for b in f.preimage(m1[0])}
        comp_table[(m2, m1)] = (m1[0], m2[1], _intern(tuple(graph.items())))
    comp = FinMap(FinSet._of(tuple(pairs)), mor, comp_table)
    return InternalCategory(A, mor, dom, cod, ident, comp)


@dataclass(frozen=True)
class InternalFunctor:
    src: InternalCategory
    dst: InternalCategory
    on_obj: FinMap
    on_mor: FinMap

    def __post_init__(self):
        if self.on_obj.dom != self.src.obj or self.on_obj.cod != self.dst.obj:
            raise InternalCatError("object action has the wrong signature")
        if self.on_mor.dom != self.src.mor or self.on_mor.cod != self.dst.mor:
            raise InternalCatError("morphism action has the wrong signature")
        for m in self.src.mor:
            fm = self.on_mor(m)
            if self.dst.dom(fm) != self.on_obj(self.src.dom(m)):
                raise InternalCatError("functor does not preserve domains")
            if self.dst.cod(fm) != self.on_obj(self.src.cod(m)):
                raise InternalCatError("functor does not preserve codomains")
        for a in self.src.obj:
            if self.on_mor(self.src.ident(a)) != self.dst.ident(self.on_obj(a)):
                raise InternalCatError("functor does not preserve identities")
        for (m2, m1) in self.src.comp.dom:
            lhs = self.on_mor(self.src.comp((m2, m1)))
            rhs = self.dst.comp((self.on_mor(m2), self.on_mor(m1)))
            if lhs != rhs:
                raise InternalCatError("functor does not preserve composition")

    def after(self, other: "InternalFunctor") -> "InternalFunctor":
        if other.dst != self.src:
            raise InternalCatError("functor composition mismatch")
        return InternalFunctor(
            other.src, self.dst,
            self.on_obj.after(other.on_obj), self.on_mor.after(other.on_mor),
        )

    def is_fully_faithful(self) -> bool:
        for a in self.src.obj:
            for a2 in self.src.obj:
                image = [self.on_mor(m) for m in self.src.hom(a, a2)]
                target = self.dst.hom(self.on_obj(a), self.on_obj(a2))
                if len(set(image)) != len(image) or set(image) != set(target):
                    return False
        return True

    @staticmethod
    def identity(C: InternalCategory) -> "InternalFunctor":
        return InternalFunctor(C, C, FinMap.identity(C.obj), FinMap.identity(C.mor))


def internal_functor(phi: PolyMorphism) -> InternalFunctor:
    """The internal functor induced by a cartesian morphism of one-to-one
    polynomials, between the internal full subcategories of its endpoints:
    phi0 on objects, conjugation by the square top on homs."""
    return _once(_internal_functor, phi)


def _internal_functor(phi: PolyMorphism) -> InternalFunctor:
    if not phi.is_cartesian():
        raise PolyError("internal functors arise from cartesian morphisms only")
    if not (phi.src.is_one_to_one() and phi.dst.is_one_to_one()):
        raise PolyError("reduce along the slice first for general endpoints")
    Af, Ag = internal_full_subcat(phi.src.f), internal_full_subcat(phi.dst.f)
    top = phi.square_top()
    on_mor_table = {}
    for (a, a2, graph) in Af.mor:
        image = {top(b): top(y) for b, y in graph}
        on_mor_table[(a, a2, graph)] = (phi.phi0(a), phi.phi0(a2), section_tuple(image))
    return InternalFunctor(Af, Ag, phi.phi0, FinMap(Af.mor, Ag.mor, on_mor_table))


@dataclass(frozen=True)
class InternalNatTrans:
    src: InternalFunctor
    dst: InternalFunctor
    components: FinMap

    def __post_init__(self):
        if self.src.src != self.dst.src or self.src.dst != self.dst.dst:
            raise InternalCatError("natural transformations require parallel functors")
        C, D = self.src.src, self.src.dst
        if self.components.dom != C.obj or self.components.cod != D.mor:
            raise InternalCatError("components have the wrong signature")
        for a in C.obj:
            m = self.components(a)
            if D.dom(m) != self.src.on_obj(a) or D.cod(m) != self.dst.on_obj(a):
                raise InternalCatError(f"component at {a!r} has the wrong endpoints")
        for k in C.mor:
            a, a2 = C.dom(k), C.cod(k)
            lhs = D.comp((self.components(a2), self.src.on_mor(k)))
            rhs = D.comp((self.dst.on_mor(k), self.components(a)))
            if lhs != rhs:
                raise InternalCatError(f"naturality fails at {k!r}")


def all_internal_nat_trans(F: InternalFunctor, G: InternalFunctor) -> list:
    """Every internal natural transformation ``F => G``: each choice of one
    component per object, among the morphisms with the right endpoints,
    that passes the naturality check."""
    C, D = F.src, F.dst
    pools = [
        [m for m in D.mor if D.dom(m) == F.on_obj(a) and D.cod(m) == G.on_obj(a)]
        for a in C.obj
    ]
    found = []
    for choice in itertools.product(*pools):
        try:
            found.append(InternalNatTrans(F, G, FinMap(C.obj, D.mor, dict(zip(C.obj, choice)))))
        except InternalCatError:
            pass
    return found


def _component_table(phi: PolyMorphism, psi: PolyMorphism, alpha: FinMap) -> dict:
    """Per-object fibre maps induced by a vertex map over the operations."""
    table = {}
    for a in phi.src.A:
        graph = [(d, psi.phi1(alpha(phi.fill(a, d)))) for d in phi.dst.f.preimage(phi.phi0(a))]
        table[a] = (phi.phi0(a), psi.phi0(a), _intern(tuple(graph)))
    return table


def adjustment_to_nat(adj: Adjustment) -> InternalNatTrans:
    """Transpose an adjustment between cartesian morphisms into an internal
    natural transformation between the functors they induce."""
    phi, psi = adj.src, adj.dst
    F, G = internal_functor(phi), internal_functor(psi)
    table = _component_table(phi, psi, adj.alpha)
    components = FinMap(F.src.obj, G.dst.mor, table)
    return InternalNatTrans(F, G, components)


def nat_to_adjustment(nat: InternalNatTrans, phi: PolyMorphism, psi: PolyMorphism) -> Adjustment:
    """Inverse transpose: rebuild the vertex map from the components."""
    table = {}
    for e in phi.dphi:
        a = phi.r(e)
        graph = nat.components(a)[2]
        table[e] = psi.fill(a, section_lookup(graph, phi.phi1(e)))
    return Adjustment(phi, psi, FinMap(phi.dphi, psi.dphi, table))


def equivalence_sets(phi: PolyMorphism, psi: PolyMorphism) -> dict:
    """Brute-force the four equivalent descriptions of an adjustment between
    the cartesian morphisms ``phi`` and ``psi``, over every vertex map lying
    over the operations.

    Returns the four sets of candidate maps (as sorted graph tuples) so a
    caller can assert they coincide.
    """
    F, G = internal_functor(phi), internal_functor(psi)
    D = G.dst
    sets: dict = {"natural": set(), "component": set(), "conjugate": set(), "over_b": set()}
    by_a: dict = {}
    for e in phi.dphi:
        by_a.setdefault(phi.r(e), []).append(e)
    candidate_values = {}
    for a, es in by_a.items():
        pool = [x for x in psi.dphi if psi.r(x) == a]
        candidate_values[a] = [list(zip(es, choice)) for choice in itertools.product(pool, repeat=len(es))]
        _guard(max(len(candidate_values[a]), 1), "adjustment candidate search")
    combos = [candidate_values[a] for a in sorted(by_a, key=lambda x: str(x))]
    total = 1
    for c in combos:
        total *= max(1, len(c))
    _guard(total, "adjustment candidate search")
    for parts in itertools.product(*combos):
        table = {e: x for part in parts for e, x in part}
        alpha = FinMap(phi.dphi, psi.dphi, table)
        key = alpha.pairs
        comp_table = _component_table(phi, psi, alpha)
        components = FinMap(F.src.obj, D.mor, comp_table)
        try:
            InternalNatTrans(F, G, components)
            sets["natural"].add(key)
        except InternalCatError:
            pass
        ok_component = True
        for (a, a2, graph) in F.src.mor:
            lhs = {d: section_lookup(comp_table[a2][2], y) for d, y in F.on_mor((a, a2, graph))[2]}
            rhs = {d: section_lookup(G.on_mor((a, a2, graph))[2], y) for d, y in comp_table[a][2]}
            if lhs != rhs:
                ok_component = False
                break
        if ok_component:
            sets["component"].add(key)
        gamma = psi.phi2.after(alpha).after(phi.phi2.inverse())
        ok_conjugate = True
        for (a, a2, graph) in F.src.mor:
            for b, y in graph:
                if gamma(y) != section_lookup(graph, gamma(b)):
                    ok_conjugate = False
                    break
            if not ok_conjugate:
                break
        if ok_conjugate:
            sets["conjugate"].add(key)
        if psi.phi2.after(alpha) == phi.phi2:
            sets["over_b"].add(key)
    return sets
