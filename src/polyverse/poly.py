"""Polynomials over finite sets: bridge diagrams, extension, composition.

A polynomial from I to J is a diagram  I <-s- B -f-> A -t-> J.  Its
extension sends a family X over I to the family over J whose fibre at j
is  Sigma_{a in A_j} Pi_{b in B_a} X_{s(b)},  computed literally as
``dep_sum(t, dep_prod(f, base_change(s, X)))``; elements are pairs
``(a, section)``.  ``extend_map``, ``extension_composition_iso`` and
``slice_reduce`` never decode a section: they read positions off maps and
traces, and place each section by the layout of ``_layout``.

Composition follows the pullback / dependent-product / counit recipe on
positions: the ``Q`` positions each section picks give the operations and the
counit, with no label looked up.  A ``CompositionTrace`` records every
intermediate object, so that the construction can be re-validated (the
counit by ``section_lookup``) and unpacked element by element.
``compose_direct`` rebuilds the same composite straight from the
element-level description and must agree exactly; the two code paths share
nothing but the encoding conventions.

The builders decorated ``@_built_once`` build once per check: the cap and
the table of built results are one scope, held in ``finset``.
``compose_direct`` never reads the table.
"""

from __future__ import annotations

import itertools
import math

from .finset import (
    FamilyMorphism,
    FinFamily,
    FinMap,
    FinSet,
    FinSetError,
    TERMINAL,
    base_change,
    dep_prod,
    dep_sum,
    is_pullback_cone,
    pullback,
    section_lookup,
    section_tuple,
    _Record,
    _built_once,
    _guard,
    _lazy,
)


class PolyError(FinSetError):
    """Malformed polynomial data."""


class Polynomial(_Record, fields=("I", "B", "A", "J", "s", "f", "t")):
    """A bridge diagram I <- B -> A -> J."""

    def _check(self):
        if (self.s.dom, self.s.cod) != (self.B, self.I):
            raise PolyError("s must map B to I")
        if (self.f.dom, self.f.cod) != (self.B, self.A):
            raise PolyError("f must map B to A")
        if (self.t.dom, self.t.cod) != (self.A, self.J):
            raise PolyError("t must map A to J")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.I, self.B, self.A, self.J, self.s, self.f, self.t) == (
            other.I, other.B, other.A, other.J, other.s, other.f, other.t)

    def is_one_to_one(self) -> bool:
        return self.I == TERMINAL and self.J == TERMINAL


@_built_once
def from_map(f: FinMap) -> Polynomial:
    """A map B -> A seen as a polynomial from the point to the point."""
    return Polynomial(
        TERMINAL, f.dom, f.cod, TERMINAL,
        FinMap.to_terminal(f.dom), f, FinMap.to_terminal(f.cod),
    )


def identity_poly(I: FinSet) -> Polynomial:
    i = FinMap.identity(I)
    return Polynomial(I, I, I, I, i, i, i)


@_built_once
def extend(F: Polynomial, X: FinFamily) -> FinFamily:
    """Evaluate the extension of F on a family over I."""
    if X.index is not F.I and X.index != F.I:
        raise PolyError("family must be indexed by the source of the polynomial")
    return dep_sum(F.t, dep_prod(F.f, base_change(F.s, X)))


def extend_map(F: Polynomial, h: FamilyMorphism) -> FamilyMorphism:
    """Functor action of the extension on a fibrewise map of families."""
    src = extend(F, h.src)
    dst = extend(F, h.dst)
    rows = _postcomposed(F, [m.img for _, m in h.maps], [len(Y) for _, Y in h.dst.fibres])
    return _fibrewise(src, dst, rows)


# An element of the extension of F at X is an operation ``a`` with a section
# over its arities, and in its fibre of the extension it sits at the start of
# ``a``'s sections plus the positions the section picks, in the fibres of X,
# as digits of a mixed-radix number in ``itertools.product`` order.  The
# builders below read positions off that layout and never decode a section.


def _layout(F: Polynomial, sizes) -> tuple[list, list]:
    """Where each operation's sections start in its fibre of the extension
    of F at a family whose fibres have ``sizes`` (one per element of I), and
    the weight of the digit each of its arities picks, in ``F.f`` fibre order."""
    s, arities = F.s.img, F.f._fibres
    starts, weights = [0] * len(F.A), [()] * len(F.A)
    for ops in F.t._fibres:
        start = 0
        for a in ops:
            ws, n = [], 1
            for b in reversed(arities[a]):
                ws.append(n)
                n *= sizes[s[b]]
            ws.reverse()
            starts[a], weights[a] = start, ws
            start += n
    return starts, weights


def _radix(start: int, digits) -> list:
    """``start`` plus each choice of one number from every list of ``digits``,
    summed, in ``itertools.product`` order."""
    out = [start]
    for ds in digits:
        out = [p + d for p in out for d in ds]
    return out


def _postcomposed(F: Polynomial, imgs, sizes) -> list:
    """Fibre by fibre of J, the positions of the sections of the extension of
    F with a fibrewise map applied to their values: ``imgs`` holds its
    codomain positions, one list per element of I, into a family whose fibres
    have ``sizes``."""
    starts, weights = _layout(F, sizes)
    s, arities = F.s.img, F.f._fibres
    rows = []
    for ops in F.t._fibres:
        row = []
        for a in ops:
            out = [starts[a]]  # _radix inlined: on P_p's few-element sets the call and lists cost more than the work
            for b, w in zip(arities[a], weights[a]):
                out = [p + w * y for p in out for y in imgs[s[b]]]
            row += out
        rows.append(row)
    return rows


def _fibrewise(src: FinFamily, dst: FinFamily, rows) -> FamilyMorphism:
    """The family morphism whose component maps have the images ``rows``."""
    maps = tuple([(i, FinMap._of(X, Y, tuple(row))) for (i, X), (_, Y), row in zip(src.fibres, dst.fibres, rows)])
    return FamilyMorphism._of(src, dst, maps)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


class CompositionTrace(_Record, fields=("Q", "qa", "h", "M", "w", "Qp", "q", "qp_d", "e", "N", "n", "p")):
    """Every intermediate object of the composite construction.

    ``Q`` is the chosen pullback of ``t`` against ``u`` (pairs ``(a, d)``),
    ``h`` its projection to the middle of the outer polynomial, ``w`` the
    dependent product of ``h``'s fibres, ``e`` the recorded counit component
    at ``h``, ``N`` and ``M`` the middle objects of the composite, and
    ``n, p, q`` the structure maps.

    ``h_comp`` and the associator read composites by position through these
    maps, never by label: an operation of ``M`` is its outer operation
    (``w``) with the ``Q`` positions its section picks (``q`` then ``e``, in
    outer-arity order), a ``Q`` element the pair (``qa``, ``h``), a ``Qp``
    element the pair (``q``, ``qp_d``) and an arity the pair (``n``, ``p``).
    The ``*_at`` tables invert those readings.

    The maps: ``qa : Q -> A`` (inner operations), ``h : Q -> D`` (outer
    arities), ``w : M -> C``, ``q : Qp -> M``, ``qp_d : Qp -> D``,
    ``e : Qp -> Q`` (the counit of base change -| dependent product),
    ``n : N -> B`` and ``p : N -> Qp``; ``Qp`` is the pullback of ``w``
    against ``g``, of pairs ``(m, d)``.
    """

    @_lazy
    def picks(self) -> list:
        """For each operation position, the ``Q`` positions its section picks."""
        e = self.e.img
        return [tuple([e[x] for x in xs]) for xs in self.q._fibres]

    @_lazy
    def q_at(self) -> dict:
        """``Q`` position of each (inner operation, outer arity) position pair."""
        return {ad: i for i, ad in enumerate(zip(self.qa.img, self.h.img))}

    @_lazy
    def m_at(self) -> dict:
        """``M`` position of each (outer operation position, picks) pair."""
        return {cq: m for m, cq in enumerate(zip(self.w.img, self.picks))}

    @_lazy
    def qp_at(self) -> dict:
        """``Qp`` position of each (operation, outer arity) position pair."""
        return {md: x for x, md in enumerate(zip(self.q.img, self.qp_d.img))}

    @_lazy
    def n_at(self) -> dict:
        """``N`` position of each (inner arity, ``Qp``) position pair."""
        return {bx: k for k, bx in enumerate(zip(self.n.img, self.p.img))}

    def validate(self, G: Polynomial, F: Polynomial) -> None:
        """Re-check every recorded square and the counit, by enumeration."""
        if not is_pullback_cone(F.t, G.s, self.qa, self.h):
            raise PolyError("square (1) fails the pullback property")
        if not is_pullback_cone(self.w, G.f, self.q, self.qp_d):
            raise PolyError("square (2) fails the pullback property")
        ae = self.qa.after(self.e)
        if not is_pullback_cone(F.f, ae, self.n, self.p):
            raise PolyError("square (3) fails the pullback property")
        for x in self.Qp:
            m, d = self.q(x), self.qp_d(x)
            if self.e(x) != section_lookup(m[1], d):
                raise PolyError("recorded counit disagrees with section evaluation")


@_built_once
def compose(G: Polynomial, F: Polynomial) -> tuple[Polynomial, CompositionTrace]:
    """Composite polynomial G . F for F : I -|-> J and G : J -|-> K."""
    if F.J != G.I:
        raise PolyError("polynomials do not share a boundary")
    Q, qa, qd = pullback(F.t, G.s)
    # each section of dep_prod(G.f, fibres of qd) as the Q positions it picks;
    # Qp lists each operation's arities in order, so e is the picks in turn
    Cs, Ds, Qs, over = G.A.elements, G.B.elements, Q.elements, qd._fibres
    m_elems, w_img, e_img = [], [], []
    for c, ds in enumerate(G.f._fibres):
        pools = [over[d] for d in ds]
        count = math.prod(map(len, pools))
        _guard(count, f"dependent product fibre over {Cs[c]!r}")
        arities = [Ds[d] for d in ds]
        for picks in itertools.product(*pools):
            m_elems.append((Cs[c], tuple(zip(arities, map(Qs.__getitem__, picks)))))
            e_img += picks
        w_img += [c] * count
    M = FinSet._of(tuple(m_elems))
    w = FinMap._of(M, G.A, tuple(w_img))
    Qp, q, qp_d = pullback(w, G.f)
    e = FinMap._of(Qp, Q, tuple(e_img))
    ae = qa.after(e)
    N, n, p = pullback(F.f, ae)
    trace = CompositionTrace(Q, qa, qd, M, w, Qp, q, qp_d, e, N, n, p)
    composite = Polynomial(
        F.I, N, M, G.J,
        F.s.after(n), q.after(p), G.t.after(w),
    )
    return composite, trace


def compose_direct(G: Polynomial, F: Polynomial) -> Polynomial:
    """The composite built straight from its element-level description.

    Used as the independent cross-check for ``compose``: the middle object
    collects pairs of an outer operation with an assignment of inner
    operations to its arities, the arity object collects inner arities on
    top of those, and the encodings are forced by the conventions of
    ``pullback`` and ``dep_prod``.
    """
    if F.J != G.I:
        raise PolyError("polynomials do not share a boundary")
    m_elems = []
    for c in G.A:
        ds = G.f.preimage(c)
        candidates = [[a for a in F.A if F.t(a) == G.s(d)] for d in ds]
        _guard(math.prod(map(len, candidates)), f"composite operations over {c!r}")
        for choice in itertools.product(*candidates):
            sect = section_tuple({d: (a, d) for d, a in zip(ds, choice)})
            m_elems.append((c, sect))
    M = FinSet(m_elems)
    n_elems = []
    for (c, sect) in m_elems:
        for d, (a, _) in sect:
            for b in F.f.preimage(a):
                n_elems.append((b, ((c, sect), d)))
    N = FinSet(n_elems)
    s = FinMap(N, F.I, {x: F.s(x[0]) for x in n_elems})
    mid = FinMap(N, M, {x: x[1][0] for x in n_elems})
    t = FinMap(M, G.J, {m: G.t(m[0]) for m in m_elems})
    return Polynomial(F.I, N, M, G.J, s, mid, t)


# ---------------------------------------------------------------------------
# Extension preserves composition: the explicit bijection
# ---------------------------------------------------------------------------


def extension_composition_iso(
    G: Polynomial, F: Polynomial, X: FinFamily
) -> tuple[FamilyMorphism, FamilyMorphism]:
    """Fibrewise bijections between the extension of the composite at X and
    the composite of the extensions, in both directions.

    An element of the left side is a composite operation ``m`` with a value
    in X at each of its arities ``(b, (m, d))``; on the right it is the outer
    operation of ``m`` with, at each of its arities ``d``, the inner operation
    ``a`` that ``m`` picks there and the values at the arities ``b`` of ``a``.
    Both directions move these values as mixed-radix digits.  The forward map
    reads ``m``'s choices off the trace's maps; the backward map finds ``m``
    and its arities from the choices through the ``*_at`` tables, so the
    round trip checks one reading against the other."""
    GF, tr = compose(G, F)
    lhs = extend(GF, X)
    inner = extend(F, X)
    rhs = extend(G, inner)
    sizes = [len(Y) for _, Y in X.fibres]
    lhs_at, lhs_w = _layout(GF, sizes)
    in_at, in_w = _layout(F, sizes)
    rhs_at, rhs_w = _layout(G, [len(Y) for _, Y in inner.fibres])
    fs, b_rank, d_rank, d_over, a_over = F.s.img, F.f._ranks, G.f._ranks, G.f._fibres, F.f._fibres
    w, qa, nb, p, qp_d = tr.w.img, tr.qa.img, tr.n.img, tr.p.img, tr.qp_d.img
    fwd_rows = []
    for ms in GF.t._fibres:
        row = []
        for m in ms:
            c = w[m]
            picked = [qa[i] for i in tr.picks[m]]  # the inner operation at each arity of c
            start = rhs_at[c] + sum([W * in_at[a] for W, a in zip(rhs_w[c], picked)])
            digits = []
            for k in GF.f._fibres[m]:  # the arity (b, (m, d)) of m
                b, j = nb[k], d_rank[qp_d[p[k]]]
                weight = rhs_w[c][j] * in_w[picked[j]][b_rank[b]]
                digits.append([weight * x for x in range(sizes[fs[b]])])
            row += _radix(start, digits)
        fwd_rows.append(row)
    m_at, q_at, qp_at, n_at, n_rank = tr.m_at, tr.q_at, tr.qp_at, tr.n_at, GF.f._ranks
    bwd_rows = []
    for cs, (_, Y) in zip(G.t._fibres, rhs.fibres):
        row = [0] * len(Y)
        for c in cs:
            ds = d_over[c]
            for picked in itertools.product(*[F.t._fibres[G.s.img[d]] for d in ds]):
                m = m_at[c, tuple([q_at[a, d] for a, d in zip(picked, ds)])]
                start = rhs_at[c] + sum([W * in_at[a] for W, a in zip(rhs_w[c], picked)])
                rhs_digits, lhs_digits = [], []  # one list per arity b of each a picked, in order
                for W, a, d in zip(rhs_w[c], picked, ds):
                    x = qp_at[m, d]
                    for b, v in zip(a_over[a], in_w[a]):
                        values = range(sizes[fs[b]])
                        rhs_digits.append([W * v * y for y in values])
                        lhs_digits.append([lhs_w[m][n_rank[n_at[b, x]]] * y for y in values])
                for i, k in zip(_radix(start, rhs_digits), _radix(lhs_at[m], lhs_digits)):
                    row[i] = k
        bwd_rows.append(row)
    return _fibrewise(lhs, rhs, fwd_rows), _fibrewise(rhs, lhs, bwd_rows)


# ---------------------------------------------------------------------------
# Reduction to polynomials from the point to the point over a product base
# ---------------------------------------------------------------------------


def product_set(I: FinSet, J: FinSet) -> FinSet:
    return FinSet._of(tuple([(i, j) for i in I.elements for j in J.elements]))


@_built_once
def slice_reduce(F: Polynomial) -> FamilyMorphism:
    """Reduce a polynomial with general endpoints to a fibrewise map over I x J.

    The covariant direction of the reduction sends I <- B -> A -> J to the
    map <s, f> : B -> I x A over I x J, a one-to-one polynomial in the
    slice.  Its source is the arity family, whose fibre over ``(i, j)``
    holds the arities b with s(b) = i and t(f(b)) = j; its target is the
    operation family, whose fibre over ``(i, j)`` is the t-fibre of ``j``,
    constant in the first coordinate.
    """
    to_base = _arity_base(F)
    base, over = to_base.cod, to_base._fibres
    bs, ops = F.B.elements, [FinSet._of(F.t.preimage(j)) for j in F.J.elements]
    src = FinFamily._of(base, [FinSet._of(tuple([bs[b] for b in fib])) for fib in over])
    dst = FinFamily._of(base, ops * len(F.I))
    f, a_rank = F.f.img, F.t._ranks
    return _fibrewise(src, dst, [[a_rank[f[b]] for b in fib] for fib in over])


def _arity_base(F: Polynomial) -> FinMap:
    """Each arity's base point ``(s(b), t(f(b)))`` in ``product_set(I, J)``."""
    n = len(F.J)
    base = product_set(F.I, F.J)
    return FinMap._of(F.B, base, tuple([i * n + j for i, j in zip(F.s.img, F.t.after(F.f).img)]))


def slice_unreduce(S: FamilyMorphism) -> Polynomial:
    """Inverse of ``slice_reduce`` on its image; rejects anything else."""
    base = S.src.index
    if not all(isinstance(z, tuple) and len(z) == 2 for z in base):
        raise PolyError("base is not a binary product")
    I = FinSet({z[0] for z in base})
    J = FinSet({z[1] for z in base})
    if base != product_set(I, J):
        raise PolyError("base is not the full product")
    a_to_j = {}
    for (_, j), (_, X) in zip(base.elements, S.dst.fibres):
        for a in X.elements:
            if a_to_j.setdefault(a, j) != j:
                raise PolyError(f"operation {a!r} appears over two different targets")
    A = FinSet(a_to_j)
    over_j = {j: [] for j in J.elements}
    for a in A.elements:  # so each list is in key order
        over_j[a_to_j[a]].append(a)
    for (_, j), (_, X) in zip(base.elements, S.dst.fibres):
        if X.elements != tuple(over_j[j]):
            raise PolyError("codomain fibres are not uniform in the first coordinate")
    b_data = {}
    for (i, _), (_, m) in zip(base.elements, S.maps):
        for b, a in m.pairs:
            if b in b_data:
                raise PolyError(f"arity {b!r} appears over two base points")
            b_data[b] = (i, a)
    B = FinSet(b_data)
    s = FinMap(B, I, {b: ia[0] for b, ia in b_data.items()})
    f = FinMap(B, A, {b: ia[1] for b, ia in b_data.items()})
    t = FinMap(A, J, a_to_j)
    return Polynomial(I, B, A, J, s, f, t)
