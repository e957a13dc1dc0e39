"""Morphisms of polynomials (2-cells), adjustments (3-cells), and the
coherence machinery built on them.

A morphism from F = (I <-s- B -f-> A -t-> J) to G = (I <-u- D -g-> C -v-> J)
is a vertex ``dphi`` with maps ``phi0 : A -> C``, ``phi1 : dphi -> D`` and
``phi2 : dphi -> B`` such that the evident diagram commutes and the lower
square (with horizontal edge ``f . phi2``) is a pullback of ``g`` along
``phi0``.  The morphism is cartesian when ``phi2`` is a bijection; every
cartesian morphism has a canonical square presentation
``(phi1 . phi2^-1, phi0)`` and conversely every pullback square induces a
cartesian morphism with the chosen pullback as vertex.  Cells are checked
and built on positions: squares commute when images agree, and maps into a
vertex are read off the chosen pullback's projections, not looked up by label.
``h_comp`` and the associator build their squares' maps on the positions of
the ``CompositionTrace``s of their ends, without decoding a composite label.

A cell made with ``PolyMorphism(...)`` (from JSON, the generators or a
caller) is checked in full.  ``cell_from_square`` builds the pullback of
its commuting square once, as the vertex, and refuses the square unless its
legs are distinct and as many as the vertex's pairs; then it, ``v_comp``
and ``identity_cell`` build cells that are valid by
construction from checked parts, and build them unchecked through
``PolyMorphism._of``; so does everything built on ``cell_from_square``.
``extend_cell`` reads its component maps off the mixed-radix layout of the
extensions (``poly._layout``), and ``slice_reduce_cell`` and
``slice_unreduce_cell`` compute the maps of fibre cells and of glued cells
on positions and build those maps unchecked; the fibre cells and the glued
cell themselves still go through the checked ``PolyMorphism(...)``.

An adjustment between parallel morphisms is a map of vertices over B.
Between any parallel pair with cartesian target there is exactly one, with
closed form ``psi2^-1 . phi2``; the exhaustive search agreeing with that
closed form is one of the standing test obligations.  The search runs on
positions, and checks a map as an ``Adjustment`` only where it lies over B.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext

from .finset import (
    FamilyMorphism,
    FinFamily,
    FinMap,
    FinSet,
    FinSetError,
    TERMINAL,
    enumeration_cap,
    is_pullback_cone,
    pullback,
    _Record,
    _guard,
    _lazy,
    _shared_builds,
)
from .poly import (
    Polynomial,
    PolyError,
    compose,
    extend,
    from_map,
    identity_poly,
    slice_reduce,
    slice_unreduce,
    _arity_base,
    _fibrewise,
    _layout,
    _radix,
)


class CellShapeError(PolyError):
    """Morphism data with mismatched objects or maps."""


class CellCommutationError(PolyError):
    """Morphism data whose triangles or square fail to commute."""


class CellPullbackError(PolyError):
    """Morphism data whose lower square is not a pullback."""


class AdjustmentError(PolyError):
    """Adjustment data that is not a map over B."""


class PolyMorphism(_Record, fields=("src", "dst", "dphi", "phi0", "phi1", "phi2")):
    """A 2-cell from ``src`` to ``dst``: vertex ``dphi`` with ``phi0 : A -> C``,
    ``phi1 : dphi -> D`` and ``phi2 : dphi -> B``."""

    def _check(self):
        F, G = self.src, self.dst
        if (F.I, F.J) != (G.I, G.J):
            raise CellShapeError("morphism endpoints must agree")
        if (self.phi0.dom, self.phi0.cod) != (F.A, G.A):
            raise CellShapeError("phi0 must map operations to operations")
        if (self.phi1.dom, self.phi1.cod) != (self.dphi, G.B):
            raise CellShapeError("phi1 must map the vertex into the target arities")
        if (self.phi2.dom, self.phi2.cod) != (self.dphi, F.B):
            raise CellShapeError("phi2 must map the vertex into the source arities")
        if F.t != G.t.after(self.phi0):
            raise CellCommutationError("target triangle does not commute")
        if F.s.after(self.phi2) != G.s.after(self.phi1):
            raise CellCommutationError("source triangle does not commute")
        if G.f.after(self.phi1) != self.phi0.after(self.r):
            raise CellCommutationError("lower square does not commute")
        if not is_pullback_cone(self.phi0, G.f, self.r, self.phi1):
            raise CellPullbackError("lower square is not a pullback")

    @_lazy
    def r(self) -> FinMap:
        """The horizontal edge of the lower square, ``f . phi2``."""
        return self.src.f.after(self.phi2)

    @_lazy
    def _fill(self) -> dict:
        """Vertex position over each (operation position, target arity position)."""
        return {ad: k for k, ad in enumerate(zip(self.r.img, self.phi1.img))}

    def fill(self, a, d):
        """The unique vertex element over ``a`` mapping to ``d``."""
        try:
            return self.dphi.elements[self._fill[self.src.A.pos[a], self.dst.B.pos[d]]]
        except KeyError:
            raise PolyError(f"no vertex element over ({a!r}, {d!r})") from None

    def is_cartesian(self) -> bool:
        return self.phi2.is_bijection()

    def square_top(self) -> FinMap:
        """Canonical square presentation's top edge, for cartesian morphisms."""
        return self.phi1.after(self.phi2.inverse())


def identity_cell(F: Polynomial) -> PolyMorphism:
    i = FinMap.identity(F.B)
    return PolyMorphism._of(F, F, F.B, FinMap.identity(F.A), i, i)


def cell_from_square(F: Polynomial, G: Polynomial, top: FinMap, bot: FinMap) -> PolyMorphism:
    """The cartesian morphism induced by a pullback square from the middle
    map of F to the middle map of G; the vertex is the chosen pullback."""
    if (top.dom, top.cod, bot.dom, bot.cod) != (F.B, G.B, F.A, G.A):
        raise CellShapeError("square edges have the wrong signatures")
    around, below = list(map(G.f.img.__getitem__, top.img)), list(map(bot.img.__getitem__, F.f.img))
    if around != below:
        k = next(k for k, (x, y) in enumerate(zip(around, below)) if x != y)
        raise CellCommutationError(f"square does not commute at {F.B.elements[k]!r}")
    # every leg (f(b), top(b)) commutes: a pullback has distinct legs, one per pair
    dphi, proj_a, proj_d = pullback(bot, G.f)
    comparison = {ad: k for k, ad in enumerate(zip(F.f.img, top.img))}
    if len(comparison) != len(F.B) or len(dphi) != len(F.B):
        raise CellPullbackError("square is not a pullback")
    if F.s != G.s.after(top):
        raise CellCommutationError("square is incompatible with the sources")
    if F.t != G.t.after(bot):
        raise CellCommutationError("square is incompatible with the targets")
    phi2 = FinMap._of(dphi, F.B, tuple(map(comparison.__getitem__, zip(proj_a.img, proj_d.img))))
    return PolyMorphism._of(F, G, dphi, bot, proj_d, phi2)


def canon(phi: PolyMorphism) -> PolyMorphism:
    """Normalise a cartesian morphism to its chosen-pullback representative."""
    if not phi.is_cartesian():
        raise PolyError("only cartesian morphisms have a canonical square form")
    return cell_from_square(phi.src, phi.dst, phi.square_top(), phi.phi0)


def cells_square_equal(x: PolyMorphism, y: PolyMorphism) -> bool:
    """Equality of cartesian morphisms in square presentation."""
    return (
        x.src == y.src
        and x.dst == y.dst
        and x.phi0 == y.phi0
        and x.square_top() == y.square_top()
    )


def invert_cell(phi: PolyMorphism) -> PolyMorphism:
    """Inverse of an invertible morphism (cartesian with bijective phi0)."""
    if not phi.is_cartesian():
        raise PolyError("only cartesian morphisms can be inverted")
    if not phi.phi0.is_bijection():
        raise PolyError("morphism is not invertible: phi0 is not a bijection")
    return cell_from_square(
        phi.dst, phi.src, phi.square_top().inverse(), phi.phi0.inverse()
    )


# ---------------------------------------------------------------------------
# Vertical composition
# ---------------------------------------------------------------------------


def v_comp(psi: PolyMorphism, phi: PolyMorphism) -> PolyMorphism:
    """Composite of phi : F => G and psi : G => H; the vertex is the chosen
    pullback of the middle map of H along the composite of the bottom maps,
    and the comparison into the arities of F is induced by the universal
    property of the two lower squares."""
    if phi.dst != psi.src:
        raise CellShapeError("vertical composition boundary mismatch")
    F, H = phi.src, psi.dst
    phi0 = psi.phi0.after(phi.phi0)
    vertex, proj_a, proj_l = pullback(phi0, H.f)
    # positions: (a, l) -> psi's vertex over (phi0(a), l) -> phi's vertex over a -> F.B
    ops, psi2, phi2, psi_fill, phi_fill = phi.phi0.img, psi.phi2.img, phi.phi2.img, psi._fill, phi._fill
    img = [phi2[phi_fill[a, psi2[psi_fill[ops[a], l]]]] for a, l in zip(proj_a.img, proj_l.img)]
    return PolyMorphism._of(F, H, vertex, phi0, proj_l, FinMap._of(vertex, F.B, tuple(img)))


def vcomp_chain(*cells: PolyMorphism) -> PolyMorphism:
    """Left-nested vertical composite; arguments ordered outermost first."""
    result = cells[0]
    for cell in cells[1:]:
        result = v_comp(result, cell)
    return result


# ---------------------------------------------------------------------------
# Horizontal composition of cartesian morphisms
# ---------------------------------------------------------------------------


def h_comp(psi: PolyMorphism, phi: PolyMorphism) -> PolyMorphism:
    """Horizontal composite of cartesian phi : F => F2 (over I -|-> J) and
    cartesian psi : G => G2 (over J -|-> K), as a cartesian morphism
    G.F => G2.F2 computed on the square presentations.

    On positions read off the two composition traces: an operation, an outer
    operation ``c`` with the pair ``(a, d)`` it picks at each arity ``d``,
    goes to ``psi0(c)`` with ``(phi0(a), psi_top(d))`` picked at
    ``psi_top(d)``; an arity ``(b, (m, d))`` goes to
    ``(phi_top(b), (bot(m), psi_top(d)))``."""
    if not (phi.is_cartesian() and psi.is_cartesian()):
        raise PolyError("horizontal composition is only provided for cartesian morphisms")
    if phi.src.J != psi.src.I:
        raise CellShapeError("horizontal composition boundary mismatch")
    GF, tr = compose(psi.src, phi.src)
    G2F2, tr2 = compose(psi.dst, phi.dst)
    psi_top, phi_top = psi.square_top().img, phi.square_top().img
    psi0, phi0, qa, qd, q_at = psi.phi0.img, phi.phi0.img, tr.qa.img, tr.h.img, tr2.q_at
    bot = []
    for c, picked in zip(tr.w.img, tr.picks):
        moved = sorted([(psi_top[qd[i]], phi0[qa[i]]) for i in picked])  # in target-arity order
        bot.append(tr2.m_at[psi0[c], tuple([q_at[a, d] for d, a in moved])])
    q, qp_d, qp_at, n_at = tr.q.img, tr.qp_d.img, tr2.qp_at, tr2.n_at
    top = [n_at[phi_top[b], qp_at[bot[q[x]], psi_top[qp_d[x]]]] for b, x in zip(tr.n.img, tr.p.img)]
    return cell_from_square(
        GF, G2F2, FinMap._of(GF.B, G2F2.B, tuple(top)), FinMap._of(GF.A, G2F2.A, tuple(bot))
    )


def whisker_left(G: Polynomial, phi: PolyMorphism) -> PolyMorphism:
    """G . phi : G.F => G.F2."""
    return h_comp(identity_cell(G), phi)


def whisker_right(psi: PolyMorphism, F: Polynomial) -> PolyMorphism:
    """psi . F : G.F => G2.F."""
    return h_comp(psi, identity_cell(F))


# ---------------------------------------------------------------------------
# Unitors
# ---------------------------------------------------------------------------


def runitor_inv(F: Polynomial) -> PolyMorphism:
    """The canonical iso F => F . i_I."""
    FI, tr = compose(F, identity_poly(F.I))
    bot = tr.w.inverse()
    top = tr.qp_d.after(tr.p).inverse()
    return cell_from_square(F, FI, top, bot)


def lunitor_inv(F: Polynomial) -> PolyMorphism:
    """The canonical iso F => i_J . F."""
    IF, tr = compose(identity_poly(F.J), F)
    m_to_a = tr.qa.after(tr.e).after(tr.q.inverse())
    bot = m_to_a.inverse()
    top = tr.n.inverse()
    return cell_from_square(F, IF, top, bot)


def runitor(F: Polynomial) -> PolyMorphism:
    """F . i_I => F."""
    return invert_cell(runitor_inv(F))


def lunitor(F: Polynomial) -> PolyMorphism:
    """i_J . F => F."""
    return invert_cell(lunitor_inv(F))


# ---------------------------------------------------------------------------
# The induced natural transformation between extensions
# ---------------------------------------------------------------------------


def extend_cell(phi: PolyMorphism, X: FinFamily) -> FamilyMorphism:
    """Component maps of the transformation induced by a morphism: an
    element ``(a, section)`` goes to ``phi0(a)`` paired with the section
    carried backwards through the vertex.

    On positions: the value at an arity ``d`` of ``phi0(a)`` is the one the
    section picks at ``phi2(fill(a, d))``, so each digit of the section
    counts, in the image, with the sum of the weights of the arities it
    fills."""
    F, G = phi.src, phi.dst
    src, dst = extend(F, X), extend(G, X)
    sizes = [len(Y) for _, Y in X.fibres]
    starts, weights = _layout(G, sizes)
    s, ops, phi2, fill, rank = F.s.img, phi.phi0.img, phi.phi2.img, phi._fill, F.f._ranks
    rows = []
    for fib in F.t._fibres:
        row = []
        for a in fib:
            c, arities = ops[a], F.f._fibres[a]
            coef = [0] * len(arities)
            for d, w in zip(G.f._fibres[c], weights[c]):
                coef[rank[phi2[fill[a, d]]]] += w
            row += _radix(starts[c], [[w * x for x in range(sizes[s[b]])] for b, w in zip(arities, coef)])
        rows.append(row)
    return _fibrewise(src, dst, rows)


# ---------------------------------------------------------------------------
# Adjustments
# ---------------------------------------------------------------------------


class Adjustment(_Record, fields=("src", "dst", "alpha")):
    """A 3-cell between parallel 2-cells: ``alpha`` maps the vertex of
    ``src`` to that of ``dst`` over the source arities."""

    def _check(self):
        if (self.src.src, self.src.dst) != (self.dst.src, self.dst.dst):
            raise AdjustmentError("adjustments require parallel morphisms")
        if (self.alpha.dom, self.alpha.cod) != (self.src.dphi, self.dst.dphi):
            raise AdjustmentError("adjustment map has the wrong signature")
        if self.dst.phi2.after(self.alpha) != self.src.phi2:
            raise AdjustmentError("adjustment triangle over B does not commute")

    def is_identity(self) -> bool:
        return self.src == self.dst and self.alpha == FinMap.identity(self.src.dphi)

    def is_invertible(self) -> bool:
        return self.alpha.is_bijection()


def unique_adjustment(phi: PolyMorphism, psi: PolyMorphism) -> Adjustment:
    """The only adjustment into a cartesian morphism: psi2^-1 . phi2."""
    if not psi.is_cartesian():
        raise PolyError("unique adjustment requires a cartesian target")
    return Adjustment(phi, psi, psi.phi2.inverse().after(phi.phi2))


def all_adjustments(phi: PolyMorphism, psi: PolyMorphism):
    """Every valid adjustment, by exhaustive search of the vertex maps that
    ``psi2`` sends to ``phi2``; the cap is read at the first ``next()``."""
    _guard(max(1, len(psi.dphi)) ** len(phi.dphi), "adjustment search")
    if psi.phi2.cod != phi.phi2.cod:
        return
    psi2, target = psi.phi2.img, phi.phi2.img
    for img in itertools.product(range(len(psi.dphi)), repeat=len(phi.dphi)):
        if tuple(map(psi2.__getitem__, img)) == target:
            yield Adjustment(phi, psi, FinMap._of(phi.dphi, psi.dphi, img))


def adj_vcomp(beta: Adjustment, alpha: Adjustment) -> Adjustment:
    """Composition within a hom category of morphisms: beta . alpha."""
    if alpha.dst != beta.src:
        raise AdjustmentError("adjustment composition mismatch")
    return Adjustment(alpha.src, beta.dst, beta.alpha.after(alpha.alpha))


# ---------------------------------------------------------------------------
# The associator and the coherence laws
# ---------------------------------------------------------------------------


def _require_one_to_one(*polys: Polynomial) -> None:
    for P in polys:
        if not P.is_one_to_one():
            raise PolyError("this construction expects polynomials from the point to the point")


def associator(f: Polynomial, g: Polynomial, h: Polynomial) -> PolyMorphism:
    """The invertible exchange (h.g).f => h.(g.f) for one-to-one polynomials.

    On operations it regroups an outer operation, an assignment of middle
    operations, and an assignment of inner operations into an outer
    operation paired with a combined assignment; on arities it carries the
    underlying data across unchanged.  Both maps are read off the four
    composition traces by position.
    """
    _require_one_to_one(f, g, h)
    hg, T0 = compose(h, g)
    hg_f, T1 = compose(hg, f)
    gf, T2 = compose(g, f)
    h_gf, T3 = compose(h, gf)
    n0, p0, qpd0, qa0, d0 = T0.n.img, T0.p.img, T0.qp_d.img, T0.qa.img, T0.h.img
    w0, picks0 = T0.w.img, T0.picks
    qa1, b1, q1, qpd1, g_over = T1.qa.img, T1.h.img, T1.q.img, T1.qp_d.img, g.f._fibres
    m2, q2, m3, q3 = T2.m_at, T2.q_at, T3.m_at, T3.q_at
    bot, inner = [], {}  # inner: (operation of hg_f, arity d of h) -> operation of gf
    for m, (mhg, picked) in enumerate(zip(T1.w.img, T1.picks)):
        af = {(n0[b1[i]], qpd0[p0[b1[i]]]): qa1[i] for i in picked}  # (bg, d) -> af
        row = []
        for j in picks0[mhg]:
            ag, d = qa0[j], d0[j]
            mgf = inner[m, d] = m2[ag, tuple([q2[af[bg, d], bg] for bg in g_over[ag]])]
            row.append(q3[mgf, d])
        bot.append(m3[w0[mhg], tuple(row)])
    # an arity (bf, (m, (bg, (mhg, d)))) goes to ((bf, (mgf, bg)), (bot(m), d))
    n2, qp2, n3, qp3 = T2.n_at, T2.qp_at, T3.n_at, T3.qp_at
    top = []
    for bf, x in zip(T1.n.img, T1.p.img):
        m, b = q1[x], qpd1[x]
        d = qpd0[p0[b]]
        top.append(n3[n2[bf, qp2[inner[m, d], n0[b]]], qp3[bot[m], d]])
    return cell_from_square(
        hg_f, h_gf, FinMap._of(hg_f.B, h_gf.B, tuple(top)), FinMap._of(hg_f.A, h_gf.A, tuple(bot))
    )


@_shared_builds()
def pentagon_check(
    f: Polynomial, g: Polynomial, h: Polynomial, k: Polynomial, cap: int | None = None
) -> dict:
    """Both composite reassociations of a fourfold composite, compared as
    literal maps, together with the unique-adjustment diagnostics.

    ``cap``, if given, only enters ``enumeration_cap(cap)`` for the check: it
    stays for ``perfbench/workloads.py``, which passes it positionally."""
    _require_one_to_one(f, g, h, k)
    with nullcontext() if cap is None else enumeration_cap(cap):
        kh, _ = compose(k, h)
        hg, _ = compose(h, g)
        gf, _ = compose(g, f)
        direct = vcomp_chain(associator(gf, h, k), associator(f, g, kh))
        stepwise = vcomp_chain(
            h_comp(identity_cell(k), associator(f, g, h)),
            associator(f, hg, k),
            h_comp(associator(g, h, k), identity_cell(f)),
        )
        equal = cells_square_equal(direct, stepwise)
        witness = unique_adjustment(direct, canon(stepwise))
    return {
        "ok": equal and witness.is_invertible(),
        "square_equality": equal,
        "adjustment_invertible": witness.is_invertible(),
    }


@_shared_builds()
def triangle_check(f: Polynomial, g: Polynomial, cap: int | None = None) -> dict:
    """The unitor triangle for a composable pair of one-to-one polynomials.
    ``cap`` works as in ``pentagon_check``, and for the same reason."""
    _require_one_to_one(f, g)
    with nullcontext() if cap is None else enumeration_cap(cap):
        i1 = identity_poly(TERMINAL)
        mediator = associator(f, i1, g)
        left = h_comp(runitor(g), identity_cell(f))
        right = v_comp(h_comp(identity_cell(g), lunitor(f)), mediator)
        equal = cells_square_equal(left, right)
    return {"ok": equal, "square_equality": equal}


def codiscreteness_check(phi: PolyMorphism, psi: PolyMorphism) -> dict:
    """Between a parallel pair with cartesian target there is exactly one
    adjustment, and it is the closed form; any other target fails."""
    found = list(all_adjustments(phi, psi))
    ok = psi.is_cartesian() and len(found) == 1
    return {"ok": ok and found[0].alpha == unique_adjustment(phi, psi).alpha, "count": len(found)}


# ---------------------------------------------------------------------------
# Reduction of 2-cells to the slice
# ---------------------------------------------------------------------------


def slice_reduce_cell(phi: PolyMorphism) -> dict:
    """Reduce a morphism with general endpoints to the slice over I x J:
    each base point ``(i, j)``, in ``product_set(I, J)`` order, maps to the
    fibre cell there, a morphism of one-to-one polynomials, built and
    validated once.  Adjustments are untouched by the reduction.

    Each map of a fibre cell sends a position to the place of its image in
    the fibre of ``slice_reduce``'s family that holds it."""
    F, G = phi.src, phi.dst
    S, T = slice_reduce(F), slice_reduce(G)
    to_base = _arity_base(F)
    vertices = [[] for _ in to_base.cod.elements]
    for e, b in enumerate(phi.phi2.img):
        vertices[to_base.img[b]].append(e)
    es, phi0, phi1, phi2 = phi.dphi.elements, phi.phi0.img, phi.phi1.img, phi.phi2.img
    b_rank, d_rank, c_rank = to_base._ranks, _arity_base(G)._ranks, G.t._ranks
    cells = {}
    for (z, src_map), (_, dst_map), vs, ops in zip(S.maps, T.maps, vertices, F.t._fibres * len(F.I)):
        vertex = FinSet._of(tuple([es[e] for e in vs]))
        cells[z] = PolyMorphism(
            from_map(src_map), from_map(dst_map), vertex,
            FinMap._of(src_map.cod, dst_map.cod, tuple([c_rank[phi0[a]] for a in ops])),
            FinMap._of(vertex, dst_map.dom, tuple([d_rank[phi1[e]] for e in vs])),
            FinMap._of(vertex, src_map.dom, tuple([b_rank[phi2[e]] for e in vs])),
        )
    return cells


def _glue(maps: dict) -> Polynomial:
    """The polynomial whose slice reduction has the fibres ``maps``."""
    base = FinSet(maps)
    src = FinFamily._of(base, [maps[z].dom for z in base])
    dst = FinFamily._of(base, [maps[z].cod for z in base])
    return slice_unreduce(FamilyMorphism(src, dst, maps))


def slice_unreduce_cell(cells: dict) -> PolyMorphism:
    """Glue fibre cells, one per base point of I x J, into one morphism: the
    inverse of ``slice_reduce_cell`` on its image.  A vertex element in two
    fibres, or two fibres that send one operation to different places, are
    refused.

    Each fibre's sets are placed in the glued ones once; the glued maps are
    then filled in from the fibre cells' positions."""
    F = _glue({z: c.src.f for z, c in cells.items()})
    G = _glue({z: c.dst.f for z, c in cells.items()})
    dphi = FinSet(e for c in cells.values() for e in c.dphi)
    phi0, phi1, phi2 = [None] * len(F.A), [0] * len(dphi), [0] * len(dphi)
    for c in cells.values():
        ops, cs = _places(c.src.A, F.A), _places(c.dst.A, G.A)
        for a, x in zip(ops, c.phi0.img):
            if phi0[a] is None:
                phi0[a] = cs[x]
            elif phi0[a] != cs[x]:
                raise FinSetError(f"conflicting values for {F.A.elements[a]!r}")
        ds, bs = _places(c.dst.B, G.B), _places(c.src.B, F.B)
        for e, d, b in zip(_places(c.dphi, dphi), c.phi1.img, c.phi2.img):
            phi1[e], phi2[e] = ds[d], bs[b]
    return PolyMorphism(
        F, G, dphi,
        FinMap._of(F.A, G.A, tuple(phi0)), FinMap._of(dphi, G.B, tuple(phi1)), FinMap._of(dphi, F.B, tuple(phi2)),
    )


def _places(part: FinSet, whole: FinSet) -> list:
    """The position in ``whole`` of each element of ``part``."""
    return list(map(whole.pos.__getitem__, part.elements))
