"""Internal full subcategories of finite maps, internal functors induced by
cartesian morphisms of polynomials, and the correspondence between
adjustments and internal natural transformations.

The internal full subcategory of ``f : B -> A`` has objects A and, as
morphisms from ``a`` to ``a'``, all functions between the fibres of ``f``;
a morphism is encoded as ``(a, a', graph)`` with the graph in section
form.  Everything is materialised and the category laws are checked by
full enumeration at construction time.

Categories and induced functors are built on positions: the morphisms
come in ``(a, a')`` order and, among those, in the order of the choice
tuples that pick a place in the fibre over ``a'`` for each arity over
``a``, so a morphism's position is read off its two objects and its choice
tuple; a composite's choice tuple is the one of its second factor read
through the first.  The checks of ``InternalCategory`` and
``InternalFunctor`` run on the same positions, in the order and with the
messages of the label-level checks, which ``tests/reference.py`` keeps.

Categories and induced functors are built ``@_built_once``, so once per
check.  ``internal_functor`` takes only the cell and gets the categories of
its endpoints from ``internal_full_subcat``; ``adjustment_to_nat`` and
``equivalence_sets`` take cells and get their functors from
``internal_functor``.
"""

from __future__ import annotations

import itertools

from .finset import (
    FinMap,
    FinSet,
    section_lookup,
    _Record,
    _built_once,
    _guard,
    _lazy,
)
from .poly import PolyError
from .poly2 import Adjustment, PolyMorphism


class InternalCatError(PolyError):
    """Internal-category data violating the category laws."""


def _composable(dom: tuple, cod: tuple, objects: int) -> tuple[list, list, list]:
    """The composable pairs ``(m2, m1)`` of morphism positions, ``m2`` first
    and each in morphism order, with the place of ``m2``'s first pair and of
    ``m1`` among the morphisms into its codomain: the pair sits at their sum."""
    into = [[] for _ in range(objects)]
    for m, a in enumerate(cod):
        into[a].append(m)
    rank = [0] * len(cod)
    for ms in into:
        for k, m in enumerate(ms):
            rank[m] = k
    pairs, first = [], []
    for m2, a in enumerate(dom):
        first.append(len(pairs))
        pairs += [(m2, m1) for m1 in into[a]]
    return pairs, first, rank


class InternalCategory(_Record, fields=("obj", "mor", "dom", "cod", "ident", "comp")):
    def _check(self):
        if self.dom.dom != self.mor or self.dom.cod != self.obj:
            raise InternalCatError("domain map has the wrong signature")
        if self.cod.dom != self.mor or self.cod.cod != self.obj:
            raise InternalCatError("codomain map has the wrong signature")
        if self.ident.dom != self.obj or self.ident.cod != self.mor:
            raise InternalCatError("identity map has the wrong signature")
        pairs, first, rank = self._pairs
        mor = self.mor.elements  # in key order, so the pairs are too
        if self.comp.dom != FinSet._of(tuple([(mor[m2], mor[m1]) for m2, m1 in pairs])) or self.comp.cod != self.mor:
            raise InternalCatError("composition must be defined on exactly the composable pairs")
        dom, cod, ident, comp = self.dom.img, self.cod.img, self.ident.img, self.comp.img
        for a, i in enumerate(ident):
            if dom[i] != a or cod[i] != a:
                raise InternalCatError(f"identity at {self.obj.elements[a]!r} has the wrong endpoints")
        for (m2, m1), m in zip(pairs, comp):
            if dom[m] != dom[m1] or cod[m] != cod[m2]:
                raise InternalCatError("composite has the wrong endpoints")
        for m in range(len(mor)):
            if comp[first[m] + rank[ident[dom[m]]]] != m:
                raise InternalCatError(f"right unit law fails at {mor[m]!r}")
            if comp[first[ident[cod[m]]] + rank[m]] != m:
                raise InternalCatError(f"left unit law fails at {mor[m]!r}")
        by_dom = [[] for _ in self.obj.elements]
        for m, a in enumerate(dom):
            by_dom[a].append(m)
        for (m2, m1), inner in zip(pairs, comp):
            for m3 in by_dom[cod[m2]]:
                if comp[first[m3] + rank[inner]] != comp[first[comp[first[m3] + rank[m2]]] + rank[m1]]:
                    raise InternalCatError("associativity fails")

    @_lazy
    def _pairs(self) -> tuple[list, list, list]:
        """``_composable`` of the morphisms."""
        return _composable(self.dom.img, self.cod.img, len(self.obj))

    def hom(self, a, a_prime) -> tuple:
        return tuple(m for m in self.mor if self.dom(m) == a and self.cod(m) == a_prime)


def _homs(f: FinMap) -> list:
    """For each pair of operation positions ``(a, a2)``, the place of the
    first morphism from ``a`` to ``a2``.  The morphisms come in ``(a, a2)``
    order, and among them the one whose graph picks the places ``x_k`` in
    the fibre over ``a2`` comes at the base-``|fibre over a2|`` number with
    the digits ``x_k``."""
    starts, n = [], 0
    for src in f._fibres:
        row = []
        for tgt in f._fibres:
            row.append(n)
            n += len(tgt) ** len(src)
        starts.append(row)
    return starts


@_built_once
def internal_full_subcat(f: FinMap) -> InternalCategory:
    """The internal full subcategory associated with a map of finite sets."""
    A, over = f.cod, f._fibres
    count = 0
    for src in over:
        for tgt in over:
            count += max(1, len(tgt)) ** len(src)
            _guard(count, "internal morphism object")
    bs, mor_elems, digits, dom, cod = f.dom.elements, [], [], [], []
    for a, src in enumerate(over):
        for a2, tgt in enumerate(over):  # an empty target fibre leaves no maps from a nonempty source
            for choice in itertools.product(range(len(tgt)), repeat=len(src)):
                graph = tuple([(bs[b], bs[tgt[x]]) for b, x in zip(src, choice)])
                mor_elems.append((A.elements[a], A.elements[a2], graph))
                digits.append(choice)
                dom.append(a)
                cod.append(a2)
    mor = FinSet._of(tuple(mor_elems))
    starts = _homs(f)
    ident = [_place(starts[a][a], len(src), range(len(src))) for a, src in enumerate(over)]
    pairs, _, _ = _composable(dom, cod, len(A))
    comp = [
        _place(starts[dom[m1]][cod[m2]], len(over[cod[m2]]), [digits[m2][x] for x in digits[m1]])
        for m2, m1 in pairs
    ]
    return InternalCategory(
        A, mor, FinMap._of(mor, A, tuple(dom)), FinMap._of(mor, A, tuple(cod)), FinMap._of(A, mor, tuple(ident)),
        FinMap._of(FinSet._of(tuple([(mor_elems[m2], mor_elems[m1]) for m2, m1 in pairs])), mor, tuple(comp)),
    )


def _place(start: int, base: int, digits) -> int:
    """``start`` plus the base-``base`` number with ``digits``."""
    n = 0
    for x in digits:
        n = n * base + x
    return start + n


class InternalFunctor(_Record, fields=("src", "dst", "on_obj", "on_mor")):
    def _check(self):
        if self.on_obj.dom != self.src.obj or self.on_obj.cod != self.dst.obj:
            raise InternalCatError("object action has the wrong signature")
        if self.on_mor.dom != self.src.mor or self.on_mor.cod != self.dst.mor:
            raise InternalCatError("morphism action has the wrong signature")
        C, D, obj, mor = self.src, self.dst, self.on_obj.img, self.on_mor.img
        for m, fm in enumerate(mor):
            if D.dom.img[fm] != obj[C.dom.img[m]]:
                raise InternalCatError("functor does not preserve domains")
            if D.cod.img[fm] != obj[C.cod.img[m]]:
                raise InternalCatError("functor does not preserve codomains")
        for a, i in enumerate(C.ident.img):
            if mor[i] != D.ident.img[obj[a]]:
                raise InternalCatError("functor does not preserve identities")
        pairs, _, _ = C._pairs
        _, first, rank = D._pairs
        for (m2, m1), m in zip(pairs, C.comp.img):
            if mor[m] != D.comp.img[first[mor[m2]] + rank[mor[m1]]]:
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


@_built_once
def internal_functor(phi: PolyMorphism) -> InternalFunctor:
    """The internal functor induced by a cartesian morphism of one-to-one
    polynomials, between the internal full subcategories of its endpoints:
    phi0 on objects, conjugation by the square top on homs."""
    if not phi.is_cartesian():
        raise PolyError("internal functors arise from cartesian morphisms only")
    if not (phi.src.is_one_to_one() and phi.dst.is_one_to_one()):
        raise PolyError("reduce along the slice first for general endpoints")
    Af, Ag = internal_full_subcat(phi.src.f), internal_full_subcat(phi.dst.f)
    f, g, top, obj = phi.src.f, phi.dst.f, phi.square_top().img, phi.phi0.img
    starts, rank = _homs(g), g._ranks
    img = []
    for a, src in enumerate(f._fibres):
        # the arities of phi0(a) in order, as places in the fibre over a
        order = sorted(range(len(src)), key=lambda k: rank[top[src[k]]])
        for a2, tgt in enumerate(f._fibres):
            moved, start = [rank[top[y]] for y in tgt], starts[obj[a]][obj[a2]]
            for choice in itertools.product(moved, repeat=len(src)):
                img.append(_place(start, len(tgt), [choice[k] for k in order]))
    return InternalFunctor(Af, Ag, phi.phi0, FinMap._of(Af.mor, Ag.mor, tuple(img)))


class InternalNatTrans(_Record, fields=("src", "dst", "components")):
    def _check(self):
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
        table[a] = (phi.phi0(a), psi.phi0(a), tuple(graph))
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
