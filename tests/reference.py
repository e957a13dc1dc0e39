"""Reference constructions that only the tests use.

The library keeps what a suite, a CLI command or the benchmark reaches
(``tests/test_library_surface.py`` checks this).  The constructions here are
the tests' second routes and oracles:

* ``replaced``, a record rebuilt through its checks with some fields
  changed, constant maps and the identity internal functor;
* the adjunction transposes and the enumeration of family morphisms, against
  which ``dep_prod`` and ``dep_sum`` are checked, constant families and the
  family of a total space;
* composition by the pullback / dependent-product / counit recipe on
  labels, against which ``compose``, built on positions, is checked;
* the square check, square-to-cell, vertical and horizontal composition and
  the associator one label at a time, against which the positional ones in
  ``finset`` and ``poly2`` are checked;
* the extension on maps and on cells, the composite-extension bijection,
  slice reduction of polynomials and cells and the gluing of fibre cells,
  the lifted endofunctor on maps and its unit and multiplication, and
  internal full subcategories, internal functors and their law checks, one
  label at a time, decoding and encoding sections; the positional builders
  in ``poly``, ``poly2``, ``naturalmodel`` and ``internalcat`` are checked
  against them, and ``encode_operation`` and ``encode_arity``, the
  composite encoders that only they use;
* the slice exponential, the span polynomial, the slice extension and the
  identity-extension bijection;
* square-to-cell for maps, the identity adjustment, the adjustment search
  one label-level candidate at a time, adjustment whiskering and internal
  functors for cells with general endpoints;
* ``sigma_structure_on_labels`` and ``pi_structure_on_labels``, a universe's
  structure cells built by decoding each composite operation and arity
  (``decode_operation``, ``decode_arity``) and applying its canonical
  bijections, against which the positional ones are checked;
* ``unit_component`` and ``mult_component``, the lifted unit and
  multiplication computed through the recorded identity-extension and
  composite-extension bijections, against which ``naturalmodel.lift_unit``
  and ``naturalmodel.lift_mult`` are checked;
* the set and map record parsers one label at a time, walking every label
  array, against which ``interchange``'s, which share equal set records,
  read a map's keys by position and look label arrays up by their
  ``marshal`` bytes, are checked, and the parse of a bare set or map record
  in a label table of its own, which only the tests make;
* ``every_construction_checked``, under which every set, map, family,
  family morphism and cell the library builds unchecked is checked;
* ``recorded``, which records the builds of a builder built once and the
  calls of any other function, for the tests that count or check them.
"""

import itertools
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

from polyverse import finset, interchange as io
from polyverse.finset import (
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
    _built_once,
    _guard,
    label_key,
)
from polyverse.internalcat import InternalCatError, InternalCategory, InternalFunctor, internal_functor
from polyverse.naturalmodel import Universe, apply_to_set, _checked
from polyverse.poly import (
    CompositionTrace,
    PolyError,
    Polynomial,
    compose,
    extend,
    extension_composition_iso,
    from_map,
    identity_poly,
    product_set,
    slice_unreduce,
)
from polyverse.poly2 import (
    Adjustment,
    AdjustmentError,
    CellCommutationError,
    CellPullbackError,
    CellShapeError,
    PolyMorphism,
    cell_from_square,
    extend_cell,
    slice_reduce_cell,
    v_comp,
)


# ---------------------------------------------------------------------------
# Values that only the tests build
# ---------------------------------------------------------------------------


def replaced(x: finset._Record, **changes):
    """A copy of the record ``x`` with ``changes``, made by its class's
    constructor with every field by name, so its checks run again."""
    return type(x)(**{**{k: x.__dict__[k] for k in x._fields}, **changes})


def constant(dom: FinSet, cod: FinSet, value) -> FinMap:
    """The map sending every element of ``dom`` to ``value``."""
    return FinMap(dom, cod, {x: value for x in dom})


def identity_functor(C: InternalCategory) -> InternalFunctor:
    """The identity functor of ``C``."""
    return InternalFunctor(C, C, FinMap.identity(C.obj), FinMap.identity(C.mor))


# ---------------------------------------------------------------------------
# Finite sets: the slice exponential and the adjunction transposes
# ---------------------------------------------------------------------------


def slice_exponential(f1: FinMap, f2: FinMap) -> FinMap:
    """Fibrewise full function set: over ``z`` all maps fibre(f1, z) → fibre(f2, z).

    Elements of the result's domain are pairs ``(z, table)``.
    """
    if f1.cod != f2.cod:
        raise FinSetError("slice exponential requires a common base")
    Z = f1.cod
    elems, img = [], []
    for k, z in enumerate(Z.elements):
        src, tgt = f1.preimage(z), f2.preimage(z)
        _guard(len(tgt) ** len(src) if src else 1, f"function set over {z!r}")
        elems += [(z, tuple(zip(src, c))) for c in itertools.product(tgt, repeat=len(src))]
        img += [k] * (len(elems) - len(img))
    return FinMap._of(FinSet._of(tuple(elems)), Z, tuple(img))


def prod_transpose(f: FinMap, h: FamilyMorphism, X: FinFamily, Y: FinFamily) -> FamilyMorphism:
    """Transpose Hom(Δ_f Y, X) → Hom(Y, Π_f X) for ``h : Δ_f Y → X``."""
    if h.src != base_change(f, Y):
        raise FinSetError("transpose source must be the base change of Y")
    target = dep_prod(f, X)
    maps = {}
    for a in f.cod:
        comp = {y: tuple([(b, h.at(b)(y)) for b in f.preimage(a)]) for y in Y.fibre(a)}
        maps[a] = FinMap(Y.fibre(a), target.fibre(a), comp)
    return FamilyMorphism(Y, target, maps)


def prod_untranspose(f: FinMap, k: FamilyMorphism, X: FinFamily) -> FamilyMorphism:
    """Inverse transpose: from ``k : Y → Π_f X`` recover ``Δ_f Y → X``."""
    Y = k.src
    src = base_change(f, Y)
    maps = {}
    for b in f.dom:
        comp = {y: section_lookup(k.at(f(b))(y), b) for y in Y.fibre(f(b))}
        maps[b] = FinMap(src.fibre(b), X.fibre(b), comp)
    return FamilyMorphism(src, X, maps)


def sum_transpose(f: FinMap, h: FamilyMorphism, Y: FinFamily) -> FamilyMorphism:
    """Transpose Hom(Σ_f X, Y) → Hom(X, Δ_f Y) for ``h : Σ_f X → Y`` over cod f."""
    X = FinFamily(f.dom, {b: FinSet(x for bb, x in h.src.fibre(f(b)) if bb == b) for b in f.dom})
    target = base_change(f, Y)
    maps = {}
    for b in f.dom:
        comp = {x: h.at(f(b))((b, x)) for x in X.fibre(b)}
        maps[b] = FinMap(X.fibre(b), target.fibre(b), comp)
    return FamilyMorphism(X, target, maps)


def sum_untranspose(f: FinMap, k: FamilyMorphism, Y: FinFamily) -> FamilyMorphism:
    """Inverse transpose: from ``k : X → Δ_f Y`` recover ``Σ_f X → Y``."""
    X = k.src
    src = dep_sum(f, X)
    maps = {}
    for a in f.cod:
        comp = {(b, x): k.at(b)(x) for (b, x) in src.fibre(a)}
        maps[a] = FinMap(src.fibre(a), Y.fibre(a), comp)
    return FamilyMorphism(src, Y, maps)


def enumerate_family_morphisms(X: FinFamily, Y: FinFamily):
    """All fibrewise maps X → Y, in canonical order; the cap is read at the first ``next()``."""
    if X.index != Y.index:
        raise FinSetError("families must share an index")
    count = 1
    for i in X.index:
        count *= max(1, len(Y.fibre(i))) ** len(X.fibre(i))
        _guard(count, "family morphism enumeration")
    per_index = []
    for i in X.index:
        src, tgt = X.fibre(i), Y.fibre(i)
        choices = itertools.product(tgt, repeat=len(src))
        per_index.append([FinMap(src, tgt, dict(zip(src, choice))) for choice in choices])
    for combo in itertools.product(*per_index):
        yield FamilyMorphism(X, Y, dict(zip(X.index, combo)))


def constant_family(index: FinSet, X: FinSet) -> FinFamily:
    """The family with fibre ``X`` over every index element."""
    return FinFamily._of(index, (X,) * len(index))


def family_from_total(proj: FinMap) -> FinFamily:
    """Inverse of ``FinFamily.total``: requires pair-encoded elements over the index."""
    fibres = {i: [] for i in proj.cod}
    for e, i in proj.pairs:
        if not (isinstance(e, tuple) and len(e) == 2 and e[0] == i):
            raise FinSetError(f"element {e!r} is not a pair over its index point")
        fibres[i].append(e[1])
    return FinFamily(proj.cod, {i: FinSet(xs) for i, xs in fibres.items()})


def check_square_on_labels(src: FinMap, dst: FinMap, top: FinMap, bot: FinMap) -> None:
    """``Square``'s checks, one label at a time."""
    if top.dom != src.dom or top.cod != dst.dom:
        raise FinSetError("square top map has the wrong signature")
    if bot.dom != src.cod or bot.cod != dst.cod:
        raise FinSetError("square bottom map has the wrong signature")
    for b in src.dom:
        if dst(top(b)) != bot(src(b)):
            raise FinSetError(f"square does not commute at {b!r}")


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def linear_poly(s: FinMap, t: FinMap) -> Polynomial:
    """The polynomial induced by a span I <-s- A -t-> J."""
    if s.dom != t.dom:
        raise PolyError("a span needs a common domain")
    A = s.dom
    return Polynomial(s.cod, A, A, t.cod, s, FinMap.identity(A), t)


def compose_on_labels(G: Polynomial, F: Polynomial) -> tuple[Polynomial, CompositionTrace]:
    """``compose`` by the pullback / dependent-product / counit recipe on
    labels: the operations are the total space of the dependent product of
    ``G.f`` over the fibres of ``h``, and ``w`` and the counit ``e`` read each
    operation's outer operation and section, through the checked ``FinMap``."""
    if F.J != G.I:
        raise PolyError("polynomials do not share a boundary")
    Q, qa, qd = pullback(F.t, G.s)
    fam_q = FinFamily._of(qd.cod, [FinSet._of(qd.preimage(d)) for d in qd.cod.elements])
    M, _ = dep_prod(G.f, fam_q).total()
    w = FinMap(M, G.A, {m: m[0] for m in M})
    Qp, q, qp_d = pullback(w, G.f)
    e = FinMap(Qp, Q, {x: section_lookup(x[0][1], x[1]) for x in Qp})
    N, n, p = pullback(F.f, qa.after(e))
    trace = CompositionTrace(Q, qa, qd, M, w, Qp, q, qp_d, e, N, n, p)
    return Polynomial(F.I, N, M, G.J, F.s.after(n), q.after(p), G.t.after(w)), trace


def identity_extension_iso(X: FinFamily) -> tuple[FamilyMorphism, FamilyMorphism]:
    """The recorded bijection between extend(identity_poly(I), X) and X."""
    F = identity_poly(X.index)
    E = extend(F, X)
    fwd, bwd = {}, {}
    for i in X.index:
        fw = {e: section_lookup(e[1], i) for e in E.fibre(i)}
        fwd[i] = FinMap(E.fibre(i), X.fibre(i), fw)
        bwd[i] = FinMap(X.fibre(i), E.fibre(i), {x: (i, ((i, x),)) for x in X.fibre(i)})
    return (
        FamilyMorphism(E, X, fwd),
        FamilyMorphism(X, E, bwd),
    )


def slice_extension(S: FamilyMorphism, Y: FinFamily) -> FinFamily:
    """Extension of a sliced one-to-one polynomial, computed fibre by fibre."""
    if Y.index != S.src.index:
        raise PolyError("family must be indexed by the slice base")
    fibres = {}
    for z, fz in S.maps:
        fam = constant_family(fz.dom, Y.fibre(z))
        ext = dep_sum(FinMap.to_terminal(fz.cod), dep_prod(fz, fam))
        fibres[z] = ext.fibre("*")
    return FinFamily(S.src.index, fibres)


def decode_operation(melt) -> tuple:
    """Unpack a composite operation ``(c, section)`` into ``(c, {d: a})``."""
    c, sect = melt
    return c, {d: q[0] for d, q in sect}


def decode_arity(nelt) -> tuple:
    """Unpack a composite arity into ``(b, melt, d)``."""
    b, (melt, d) = nelt
    return b, melt, d


def encode_operation(c, assignment: dict) -> tuple:
    """Inverse of ``decode_operation`` under the composite's conventions."""
    melt = (c, section_tuple({d: (a, d) for d, a in assignment.items()}))
    label_key(melt)  # refuses a ``c`` that is not a label
    return melt


def encode_arity(b, melt, d) -> tuple:
    """The composite arity ``(b, (melt, d))``; ``FinSetError`` if a part is
    not a label."""
    arity = (b, (melt, d))
    label_key(arity)
    return arity


def extend_map_on_labels(F: Polynomial, h: FamilyMorphism) -> FamilyMorphism:
    """``extend_map``, one section at a time."""
    src = extend(F, h.src)
    dst = extend(F, h.dst)
    maps = {}
    for j in F.J:
        comp = {}
        for (a, sect) in src.fibre(j):
            comp[(a, sect)] = (a, tuple([(b, h.at(F.s(b))(x)) for b, x in sect]))
        maps[j] = FinMap(src.fibre(j), dst.fibre(j), comp)
    return FamilyMorphism(src, dst, maps)


def extension_composition_iso_on_labels(
    G: Polynomial, F: Polynomial, X: FinFamily
) -> tuple[FamilyMorphism, FamilyMorphism]:
    """``extension_composition_iso``, decoding and encoding one composite
    operation and section at a time."""
    GF, _ = compose(G, F)
    lhs = extend(GF, X)
    inner = extend(F, X)
    rhs = extend(G, inner)
    fwd_maps, bwd_maps = {}, {}
    for k in G.J:
        fw = {}
        for (melt, big) in lhs.fibre(k):
            c, assign = decode_operation(melt)
            outer = {}
            for d, a in assign.items():
                inner_sect = section_tuple({
                    b: section_lookup(big, encode_arity(b, melt, d))
                    for b in F.f.preimage(a)
                })
                outer[d] = (a, inner_sect)
            fw[(melt, big)] = (c, section_tuple(outer))
        fwd_maps[k] = FinMap(lhs.fibre(k), rhs.fibre(k), fw)
        bw = {}
        for (c, outer) in rhs.fibre(k):
            assign = {d: pf[0] for d, pf in outer}
            melt = encode_operation(c, assign)
            big = {}
            for d, (a, inner_sect) in outer:
                for b, x in inner_sect:
                    big[encode_arity(b, melt, d)] = x
            bw[(c, outer)] = (melt, section_tuple(big))
        bwd_maps[k] = FinMap(rhs.fibre(k), lhs.fibre(k), bw)
    return FamilyMorphism(lhs, rhs, fwd_maps), FamilyMorphism(rhs, lhs, bwd_maps)


def slice_reduce_on_labels(F: Polynomial) -> FamilyMorphism:
    """``slice_reduce``, one arity at a time."""
    base = product_set(F.I, F.J)
    arities = {z: [] for z in base}
    for b in F.B:  # filled in B order, so each fibre is in key order
        arities[(F.s(b), F.t(F.f(b)))].append(b)
    src = FinFamily._of(base, [FinSet._of(tuple(bs)) for bs in arities.values()])
    dst = FinFamily._of(base, [FinSet._of(F.t.preimage(j)) for _, j in base.elements])
    maps = {
        z: FinMap(src.fibre(z), dst.fibre(z), {b: F.f(b) for b in src.fibre(z)})
        for z in base
    }
    return FamilyMorphism(src, dst, maps)


# ---------------------------------------------------------------------------
# Cells, adjustments and internal functors
# ---------------------------------------------------------------------------


def extend_cell_on_labels(phi: PolyMorphism, X: FinFamily) -> FamilyMorphism:
    """``extend_cell``, one section at a time."""
    src_ext = extend(phi.src, X)
    dst_ext = extend(phi.dst, X)
    G = phi.dst
    maps = {}
    for j in phi.src.J:
        comp = {}
        for (a, sect) in src_ext.fibre(j):
            c = phi.phi0(a)
            out = [(d, section_lookup(sect, phi.phi2(phi.fill(a, d)))) for d in G.f.preimage(c)]
            comp[(a, sect)] = (c, tuple(out))
        maps[j] = FinMap(src_ext.fibre(j), dst_ext.fibre(j), comp)
    return FamilyMorphism(src_ext, dst_ext, maps)


def slice_reduce_cell_on_labels(phi: PolyMorphism) -> dict:
    """``slice_reduce_cell``, one vertex element at a time."""
    S, T = slice_reduce_on_labels(phi.src), slice_reduce_on_labels(phi.dst)
    base_of_arity = {b: z for z, X in S.src.fibres for b in X}
    vertices = {z: [] for z in S.src.index}
    for e, b in phi.phi2.pairs:  # in key order, and so is each part
        vertices[base_of_arity[b]].append(e)
    cells = {}
    for (z, src_map), (_, dst_map) in zip(S.maps, T.maps):
        vertex = FinSet._of(tuple(vertices[z]))
        phi0 = FinMap(src_map.cod, dst_map.cod, {x: phi.phi0(x) for x in src_map.cod})
        phi1 = FinMap(vertex, dst_map.dom, {e: phi.phi1(e) for e in vertex})
        phi2 = FinMap(vertex, src_map.dom, {e: phi.phi2(e) for e in vertex})
        cells[z] = PolyMorphism(from_map(src_map), from_map(dst_map), vertex, phi0, phi1, phi2)
    return cells


def _glue_on_labels(maps: dict) -> Polynomial:
    base = FinSet(maps)
    src = FinFamily._of(base, [maps[z].dom for z in base])
    dst = FinFamily._of(base, [maps[z].cod for z in base])
    return slice_unreduce(FamilyMorphism(src, dst, maps))


def slice_unreduce_cell_on_labels(cells: dict) -> PolyMorphism:
    """``slice_unreduce_cell``, gluing the fibre cells' graphs label by label."""
    F = _glue_on_labels({z: c.src.f for z, c in cells.items()})
    G = _glue_on_labels({z: c.dst.f for z, c in cells.items()})
    dphi = FinSet(e for c in cells.values() for e in c.dphi)
    return PolyMorphism(
        F, G, dphi,
        FinMap(F.A, G.A, (xy for c in cells.values() for xy in c.phi0.pairs)),
        FinMap(dphi, G.B, (xy for c in cells.values() for xy in c.phi1.pairs)),
        FinMap(dphi, F.B, (xy for c in cells.values() for xy in c.phi2.pairs)),
    )


def cell_from_square_on_labels(F: Polynomial, G: Polynomial, top: FinMap, bot: FinMap) -> PolyMorphism:
    """``cell_from_square``, one label at a time."""
    if top.dom != F.B or top.cod != G.B or bot.dom != F.A or bot.cod != G.A:
        raise CellShapeError("square edges have the wrong signatures")
    for b in F.B:
        if G.f(top(b)) != bot(F.f(b)):
            raise CellCommutationError(f"square does not commute at {b!r}")
    if not is_pullback_cone(bot, G.f, F.f, top):
        raise CellPullbackError("square is not a pullback")
    if F.s != G.s.after(top):
        raise CellCommutationError("square is incompatible with the sources")
    if F.t != G.t.after(bot):
        raise CellCommutationError("square is incompatible with the targets")
    dphi, proj_a, proj_d = pullback(bot, G.f)
    comparison = {(F.f(b), top(b)): b for b in F.B}
    phi2 = FinMap(dphi, F.B, {e: comparison[e] for e in dphi})
    return PolyMorphism(F, G, dphi, bot, proj_d, phi2)


def fill_table_on_labels(phi: PolyMorphism) -> dict:
    """``PolyMorphism.fill`` as a table from label pairs ``(a, d)``."""
    return {(phi.r(e), phi.phi1(e)): e for e in phi.dphi}


def v_comp_on_labels(psi: PolyMorphism, phi: PolyMorphism) -> PolyMorphism:
    """``v_comp``, one label at a time."""
    if phi.dst != psi.src:
        raise CellShapeError("vertical composition boundary mismatch")
    F, H = phi.src, psi.dst
    phi0 = psi.phi0.after(phi.phi0)
    vertex, proj_a, proj_l = pullback(phi0, H.f)
    psi_fill, phi_fill = fill_table_on_labels(psi), fill_table_on_labels(phi)
    phi2_table = {}
    for x in vertex:
        a, l = x
        e_psi = psi_fill[(phi.phi0(a), l)]
        e_phi = phi_fill[(a, psi.phi2(e_psi))]
        phi2_table[x] = phi.phi2(e_phi)
    return PolyMorphism(F, H, vertex, phi0, proj_l, FinMap(vertex, F.B, phi2_table))


def h_comp_on_labels(psi: PolyMorphism, phi: PolyMorphism) -> PolyMorphism:
    """``h_comp``, decoding and encoding one composite label at a time."""
    if not (phi.is_cartesian() and psi.is_cartesian()):
        raise PolyError("horizontal composition is only provided for cartesian morphisms")
    if phi.src.J != psi.src.I:
        raise CellShapeError("horizontal composition boundary mismatch")
    GF, _ = compose(psi.src, phi.src)
    G2F2, _ = compose(psi.dst, phi.dst)
    psi_top = psi.square_top()
    phi_top = phi.square_top()
    bot_table = {}
    for melt in GF.A:
        c, assign = decode_operation(melt)
        assign2 = {psi_top(d): phi.phi0(a) for d, a in assign.items()}
        bot_table[melt] = encode_operation(psi.phi0(c), assign2)
    bot = FinMap(GF.A, G2F2.A, bot_table)
    top_table = {}
    for nelt in GF.B:
        b, melt, d = decode_arity(nelt)
        top_table[nelt] = encode_arity(phi_top(b), bot(melt), psi_top(d))
    top = FinMap(GF.B, G2F2.B, top_table)
    return cell_from_square_on_labels(GF, G2F2, top, bot)


def associator_on_labels(f: Polynomial, g: Polynomial, h: Polynomial) -> PolyMorphism:
    """``associator``, decoding and encoding one composite label at a time."""
    hg, _ = compose(h, g)
    hg_f, _ = compose(hg, f)
    gf, _ = compose(g, f)
    h_gf, _ = compose(h, gf)
    bot_table = {}
    inner_ops = {}
    for melt in hg_f.A:
        mhg, assign3 = decode_operation(melt)
        c, assign1 = decode_operation(mhg)
        per_d = {}
        for d, ag in assign1.items():
            per_d[d] = encode_operation(
                ag,
                {bg: assign3[encode_arity(bg, mhg, d)] for bg in g.f.preimage(ag)},
            )
        inner_ops[melt] = per_d
        bot_table[melt] = encode_operation(c, per_d)
    bot = FinMap(hg_f.A, h_gf.A, bot_table)
    top_table = {}
    for nelt in hg_f.B:
        bf, melt, nhg = decode_arity(nelt)
        bg, _, d = decode_arity(nhg)
        mgf = inner_ops[melt][d]
        top_table[nelt] = encode_arity(encode_arity(bf, mgf, bg), bot(melt), d)
    top = FinMap(hg_f.B, h_gf.B, top_table)
    return cell_from_square_on_labels(hg_f, h_gf, top, bot)


def cartesian_from_square(f: FinMap, g: FinMap, top: FinMap, bot: FinMap) -> PolyMorphism:
    """Square-to-morphism for maps considered as one-to-one polynomials."""
    return cell_from_square(from_map(f), from_map(g), top, bot)


def identity_adjustment(phi: PolyMorphism) -> Adjustment:
    return Adjustment(phi, phi, FinMap.identity(phi.dphi))


def all_adjustments_on_labels(phi: PolyMorphism, psi: PolyMorphism):
    """``all_adjustments``, one checked label-level candidate map at a time."""
    _guard(max(1, len(psi.dphi)) ** len(phi.dphi), "adjustment search")
    if len(phi.dphi) > 0 and len(psi.dphi) == 0:
        return
    for choice in itertools.product(psi.dphi.elements, repeat=len(phi.dphi)):
        candidate = FinMap(phi.dphi, psi.dphi, dict(zip(phi.dphi.elements, choice)))
        if psi.phi2.after(candidate) == phi.phi2:
            yield Adjustment(phi, psi, candidate)


def adj_whisker(beta: Adjustment, alpha: Adjustment) -> Adjustment:
    """Action of vertical composition on adjustments: from alpha : phi => phi'
    and beta : psi => psi' the pullback-induced map between the composite
    vertices.  Requires a cartesian psi', which covers every use the
    pseudomonad results need; the fully general case belongs to the open
    bookkeeping around non-cartesian horizontal structure."""
    phi, phi2c = alpha.src, alpha.dst
    psi, psi2c = beta.src, beta.dst
    if phi.dst != psi.src or phi2c.dst != psi2c.src:
        raise AdjustmentError("whisker boundary mismatch")
    if not psi2c.is_cartesian():
        raise PolyError("adjustment whiskering requires a cartesian outer target")
    comp_src = v_comp(psi, phi)
    comp_dst = v_comp(psi2c, phi2c)
    table = {}
    for x in comp_src.dphi:
        a, l = x
        e_psi = psi.fill(phi.phi0(a), l)
        e_phi = phi.fill(a, psi.phi2(e_psi))
        e_phi2 = alpha.alpha(e_phi)
        e_psi2 = psi2c.phi2.inverse()(phi2c.phi1(e_phi2))
        table[x] = (a, psi2c.phi1(e_psi2))
    return Adjustment(comp_src, comp_dst, FinMap(comp_src.dphi, comp_dst.dphi, table))


def internal_functor_general(phi: PolyMorphism) -> dict:
    """General endpoints: reduce along the slice, then one functor per base
    point of the product of the endpoints."""
    return {z: internal_functor(c) for z, c in slice_reduce_cell(phi).items()}


def check_internal_category_on_labels(cat: InternalCategory) -> None:
    """``InternalCategory``'s checks, one morphism label at a time."""
    if cat.dom.dom != cat.mor or cat.dom.cod != cat.obj:
        raise InternalCatError("domain map has the wrong signature")
    if cat.cod.dom != cat.mor or cat.cod.cod != cat.obj:
        raise InternalCatError("codomain map has the wrong signature")
    if cat.ident.dom != cat.obj or cat.ident.cod != cat.mor:
        raise InternalCatError("identity map has the wrong signature")
    mor = cat.mor.elements  # in key order, so the pairs are too
    pairs = FinSet._of(tuple([(m2, m1) for m2 in mor for m1 in mor if cat.dom(m2) == cat.cod(m1)]))
    if cat.comp.dom != pairs or cat.comp.cod != cat.mor:
        raise InternalCatError("composition must be defined on exactly the composable pairs")
    for a in cat.obj:
        i = cat.ident(a)
        if cat.dom(i) != a or cat.cod(i) != a:
            raise InternalCatError(f"identity at {a!r} has the wrong endpoints")
    for (m2, m1) in pairs:
        m = cat.comp((m2, m1))
        if cat.dom(m) != cat.dom(m1) or cat.cod(m) != cat.cod(m2):
            raise InternalCatError("composite has the wrong endpoints")
    for m in cat.mor:
        if cat.comp((m, cat.ident(cat.dom(m)))) != m:
            raise InternalCatError(f"right unit law fails at {m!r}")
        if cat.comp((cat.ident(cat.cod(m)), m)) != m:
            raise InternalCatError(f"left unit law fails at {m!r}")
    by_dom: dict = {}
    for m in cat.mor:
        by_dom.setdefault(cat.dom(m), []).append(m)
    for (m2, m1) in pairs:
        inner = cat.comp((m2, m1))
        for m3 in by_dom.get(cat.cod(m2), ()):
            if cat.comp((m3, inner)) != cat.comp((cat.comp((m3, m2)), m1)):
                raise InternalCatError("associativity fails")


def internal_full_subcat_on_labels(f: FinMap) -> InternalCategory:
    """``internal_full_subcat``, composing graphs one label at a time; the
    result passes ``check_internal_category_on_labels`` before it is built."""
    A = f.cod
    mor_elems = []
    for a in A:
        src = f.preimage(a)
        for a2 in A:
            for choice in itertools.product(f.preimage(a2), repeat=len(src)):
                mor_elems.append((a, a2, tuple(zip(src, choice))))
    mor = FinSet._of(tuple(mor_elems))
    dom = FinMap(mor, A, {m: m[0] for m in mor_elems})
    cod = FinMap(mor, A, {m: m[1] for m in mor_elems})
    ident = FinMap(A, mor, {a: (a, a, tuple([(b, b) for b in f.preimage(a)])) for a in A})
    pairs = [(m2, m1) for m2 in mor for m1 in mor if m2[0] == m1[1]]
    comp_table = {}
    for m2, m1 in pairs:
        graph = {b: section_lookup(m2[2], section_lookup(m1[2], b)) for b in f.preimage(m1[0])}
        comp_table[(m2, m1)] = (m1[0], m2[1], tuple(graph.items()))
    comp = FinMap(FinSet._of(tuple(pairs)), mor, comp_table)
    check_internal_category_on_labels(InternalCategory._of(A, mor, dom, cod, ident, comp))
    return InternalCategory(A, mor, dom, cod, ident, comp)


def check_internal_functor_on_labels(fun: InternalFunctor) -> None:
    """``InternalFunctor``'s checks, one morphism label at a time."""
    src, dst, on_obj, on_mor = fun.src, fun.dst, fun.on_obj, fun.on_mor
    if on_obj.dom != src.obj or on_obj.cod != dst.obj:
        raise InternalCatError("object action has the wrong signature")
    if on_mor.dom != src.mor or on_mor.cod != dst.mor:
        raise InternalCatError("morphism action has the wrong signature")
    for m in src.mor:
        fm = on_mor(m)
        if dst.dom(fm) != on_obj(src.dom(m)):
            raise InternalCatError("functor does not preserve domains")
        if dst.cod(fm) != on_obj(src.cod(m)):
            raise InternalCatError("functor does not preserve codomains")
    for a in src.obj:
        if on_mor(src.ident(a)) != dst.ident(on_obj(a)):
            raise InternalCatError("functor does not preserve identities")
    for (m2, m1) in src.comp.dom:
        if on_mor(src.comp((m2, m1))) != dst.comp((on_mor(m2), on_mor(m1))):
            raise InternalCatError("functor does not preserve composition")


def internal_functor_on_labels(phi: PolyMorphism) -> InternalFunctor:
    """``internal_functor``, conjugating each graph by the square top label by
    label, between categories built by ``internal_full_subcat_on_labels``."""
    if not phi.is_cartesian():
        raise PolyError("internal functors arise from cartesian morphisms only")
    if not (phi.src.is_one_to_one() and phi.dst.is_one_to_one()):
        raise PolyError("reduce along the slice first for general endpoints")
    Af, Ag = internal_full_subcat_on_labels(phi.src.f), internal_full_subcat_on_labels(phi.dst.f)
    top = phi.square_top()
    on_mor_table = {}
    for (a, a2, graph) in Af.mor:
        image = {top(b): top(y) for b, y in graph}
        on_mor_table[(a, a2, graph)] = (phi.phi0(a), phi.phi0(a2), section_tuple(image))
    on_mor = FinMap(Af.mor, Ag.mor, on_mor_table)
    check_internal_functor_on_labels(InternalFunctor._of(Af, Ag, phi.phi0, on_mor))
    return InternalFunctor(Af, Ag, phi.phi0, on_mor)


# ---------------------------------------------------------------------------
# The lifted endofunctor
# ---------------------------------------------------------------------------


def _operation_btable(melt) -> tuple:
    """Strip term tags from a decoded composite operation's assignment."""
    _, assign = decode_operation(melt)
    return section_tuple({d[1]: a for d, a in assign.items()})


def sigma_structure_on_labels(u: Universe) -> PolyMorphism:
    """``sigma_structure``, decoding each composite operation and arity and
    applying the canonical pairing ``Universe.pairing`` to it."""
    _checked(u)
    p_poly = from_map(u.p)
    pp, _ = compose(p_poly, p_poly)
    bot_table, top_table = {}, {}
    for melt in pp.A:
        c, _ = decode_operation(melt)
        bot_table[melt] = u.sigma_code(c, _operation_btable(melt))
    for nelt in pp.B:
        b, melt, d = decode_arity(nelt)
        c, _ = decode_operation(melt)
        pairing = u.pairing(c, _operation_btable(melt))
        top_table[nelt] = pairing((d, b))
    bot = FinMap(pp.A, u.codes, bot_table)
    top = FinMap(pp.B, u.terms, top_table)
    return cell_from_square(pp, p_poly, top, bot)


def pi_structure_on_labels(u: Universe) -> PolyMorphism:
    """``pi_structure``, decoding each section and applying the canonical
    abstraction ``Universe.lam`` to it."""
    _checked(u)
    p_map = lift_apply_on_labels(from_map(u.p), u.p)
    bot_table, top_table = {}, {}
    for (A, sect) in p_map.cod:
        bot_table[(A, sect)] = u.pi_code(A, section_tuple({k[1]: v for k, v in sect}))
    for (A, sect) in p_map.dom:
        btable = section_tuple({k[1]: u.p(v) for k, v in sect})
        top_table[(A, sect)] = u.lam(A, btable)(sect)
    bot = FinMap(p_map.cod, u.codes, bot_table)
    top = FinMap(p_map.dom, u.terms, top_table)
    return cell_from_square(from_map(p_map), from_map(u.p), top, bot)


def lift_apply_on_labels(t: Polynomial, f: FinMap) -> FinMap:
    """``lift_apply``, postcomposing one section at a time."""
    src = apply_to_set(t, f.dom)
    dst = apply_to_set(t, f.cod)
    table = {(x, sect): (x, tuple([(k, f(v)) for k, v in sect])) for (x, sect) in src}
    return FinMap(src, dst, table)


def unit_on_labels(eta: PolyMorphism, Z: FinSet) -> FinMap:
    """``lift_unit``, one constant section at a time."""
    c = eta.phi0("*")
    ds = eta.dst.f.preimage(c)
    table = {z: (c, tuple([(d, z) for d in ds])) for z in Z}
    return FinMap(Z, apply_to_set(eta.dst, Z), table)


def mult_on_labels(mu: PolyMorphism, Z: FinSet) -> FinMap:
    """``lift_mult``, encoding each composite operation and decoding each
    arity that ``mu`` picks."""
    PZ = apply_to_set(mu.dst, Z)
    PPZ = apply_to_set(mu.dst, PZ)
    table = {}
    for (A, outer) in PPZ:
        melt = encode_operation(A, {b: Bs[0] for b, Bs in outer})
        c = mu.phi0(melt)
        sect = []
        for d in mu.dst.f.preimage(c):
            b_in, _, b = decode_arity(mu.phi2(mu.fill(melt, d)))
            sect.append((d, section_lookup(section_lookup(outer, b)[1], b_in)))
        table[(A, outer)] = (c, tuple(sect))
    return FinMap(PPZ, PZ, table)


def unit_component(eta: PolyMorphism, Z: FinSet) -> FinMap:
    """Z -> P_p(Z), through the recorded identity-extension bijection."""
    fam = FinFamily(TERMINAL, {"*": Z})
    cell = extend_cell(eta, fam)
    _, bwd = identity_extension_iso(fam)
    return cell.at("*").after(bwd.at("*"))


def mult_component(mu: PolyMorphism, Z: FinSet) -> FinMap:
    """P_p(P_p(Z)) -> P_p(Z), through the recorded composite bijection."""
    p_poly = mu.dst
    fam = FinFamily(TERMINAL, {"*": Z})
    _, bwd = extension_composition_iso(p_poly, p_poly, fam)
    cell = extend_cell(mu, fam)
    return cell.at("*").after(bwd.at("*"))


# ---------------------------------------------------------------------------
# Set and map records parsed one label at a time
# ---------------------------------------------------------------------------


def label_from_json_walked(data, labels: dict, depth: int = 0):
    """``interchange._label_from_json`` walking every array, none looked up
    by its ``marshal`` bytes."""
    if isinstance(data, str):
        return data
    if isinstance(data, list):
        if depth == io._MAX_LABEL_DEPTH:
            raise io.ParseError(io._TOO_DEEP)
        return io._entry(tuple([label_from_json_walked(x, labels, depth + 1) for x in data]), labels)[0]
    raise io.ParseError(f"label must be a string or array, got {data!r}")


def set_from_json_on_labels(data, labels: dict, sets=None) -> tuple:
    """``interchange._set_from_json`` with each label of the record parsed
    and sorted anew: no record is shared through ``sets``."""
    if not isinstance(data, list):
        raise io.ParseError("finite set must be an array of labels")
    parsed = [label_from_json_walked(x, labels) for x in data]
    ordered = sorted(parsed, key=lambda x: io._key(x, labels))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise io.ParseError(f"duplicate element {a!r}")
    return FinSet._of(tuple(ordered)), parsed


@io._record("map")
def map_from_json_on_labels(data, labels: dict, sets) -> FinMap:
    """A map record, its domain and codomain first, then pair by pair;
    ``sets`` is ignored, as no set record is shared."""
    dom, cod = set_from_json_on_labels(data["dom"], labels)[0], set_from_json_on_labels(data["cod"], labels)[0]
    pairs = [(label_from_json_walked(x, labels), label_from_json_walked(y, labels)) for x, y in io._pairs(data["map"])]
    return FinMap(dom, cod, pairs)


def finset_from_json(data) -> FinSet:
    """A bare set record, parsed by ``interchange`` in a label table of its own."""
    return io._set_from_json(data, {})[0]


def finmap_from_json(data) -> FinMap:
    """A bare map record, parsed by ``interchange`` in a label table of its own."""
    return io._map_from_json(data, {}, None)


# ---------------------------------------------------------------------------
# The construction audit
# ---------------------------------------------------------------------------


@contextmanager
def every_construction_checked():
    """Check every value the library builds through an unchecked ``_of``.

    Within the block, ``FinSet._of`` rebuilds through ``FinSet(...)``, which
    keys each part object once per set, and asserts that the order came back
    unchanged; ``FinMap._of`` asserts that it has one codomain position, in
    range, per domain element; ``FinFamily._of``, ``FamilyMorphism._of`` and
    ``PolyMorphism._of`` go through their checked constructors.  It catches
    invalid values, not valid wrong ones (a map off by a swap): the oracles
    and the golden digests catch those.  Yields the count of values checked,
    by class name.
    """
    checked, finmap_unchecked = Counter(), FinMap._of

    def finset_of(cls, ordered):
        keys = {}

        def key(x):
            # a deep composite label repeats its parts thousands of times;
            # ``ordered`` holds every part until the check ends, so ids stay unique
            k = keys.get(id(x))
            if k is None:
                k = keys[id(x)] = label_key(x)
            return k

        with mock.patch.object(finset, "label_key", key):
            X = FinSet(ordered)
        assert X.elements == ordered, f"FinSet._of: labels out of label_key order: {ordered!r}"
        checked["FinSet"] += 1
        return X

    def finmap_of(cls, dom, cod, img):
        assert type(img) is tuple and len(img) == len(dom), f"FinMap._of: {len(img)} positions for {len(dom)} elements"
        assert all(type(j) is int and 0 <= j < len(cod) for j in img), f"FinMap._of: a position outside {cod!r}"
        checked["FinMap"] += 1
        return finmap_unchecked(dom, cod, img)

    def finfamily_of(cls, index, sets):
        sets = list(sets)
        assert len(sets) == len(index) and all(isinstance(X, FinSet) for X in sets), "FinFamily._of: bad fibres"
        checked["FinFamily"] += 1
        return FinFamily(index, zip(index.elements, sets))

    def family_morphism_of(cls, src, dst, maps):
        h = FamilyMorphism(src, dst, maps)
        assert h.maps == tuple(maps), "FamilyMorphism._of: components not in index order"
        checked["FamilyMorphism"] += 1
        return h

    def cell_of(cls, *parts):
        checked["PolyMorphism"] += 1
        return PolyMorphism(*parts)

    with ExitStack() as stack:
        for cls, of in [
            (FinSet, finset_of), (FinMap, finmap_of), (FinFamily, finfamily_of),
            (FamilyMorphism, family_morphism_of), (PolyMorphism, cell_of),
        ]:
            stack.enter_context(mock.patch.object(cls, "_of", classmethod(of)))
        yield checked


# ---------------------------------------------------------------------------
# Recorded builds and calls
# ---------------------------------------------------------------------------


_BUILT_ONCE = _built_once(lambda: None).__code__


def is_built_once(fn) -> bool:
    """Whether ``fn`` is a builder decorated ``@_built_once``."""
    return getattr(fn, "__code__", None) is _BUILT_ONCE


@contextmanager
def recorded(owner, *names):
    """Within the block, append ``[name, args, result]`` to the yielded list
    each time the function ``name`` of the module or class ``owner`` is
    called; ``result`` is set when the call returns, and stays None if it
    raises.

    A builder built once records its builds, through its ``__wrapped__``, so
    a result the table shares is not recorded again.  Any other function,
    method or classmethod records every call: it is replaced on ``owner`` and
    in every other polyverse module that holds it by name.
    """
    calls = []
    with ExitStack() as stack:
        for name in names:
            fn = getattr(owner, name)
            once = is_built_once(fn)
            body = fn.__wrapped__ if once else fn

            def record(*args, body=body, name=name):
                call = [name, args, None]
                calls.append(call)
                call[2] = body(*args)
                return call[2]

            if once:
                stack.enter_context(mock.patch.object(fn, "__wrapped__", record))
                continue
            holders = [owner] + [
                module for key, module in list(sys.modules.items())
                if key.startswith("polyverse.") and module is not owner and vars(module).get(name) is fn
            ]
            for holder in holders:
                stack.enter_context(mock.patch.object(holder, name, record))
        yield calls
