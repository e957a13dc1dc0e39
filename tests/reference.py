"""Reference constructions that only the tests use.

The library keeps what a suite, a CLI command or the benchmark reaches
(``tests/test_library_surface.py`` checks this).  The constructions here are
the tests' second routes and oracles:

* the adjunction transposes and the enumeration of family morphisms, against
  which ``dep_prod`` and ``dep_sum`` are checked, constant families and the
  family of a total space;
* the square check, square-to-cell, vertical and horizontal composition and
  the associator one label at a time, against which the positional ones in
  ``finset`` and ``poly2`` are checked;
* the slice exponential, the span polynomial, the slice extension and the
  identity-extension bijection;
* square-to-cell for maps, the identity adjustment, adjustment whiskering and
  internal functors for cells with general endpoints;
* ``unit_component`` and ``mult_component``, the lifted unit and
  multiplication computed through the recorded identity-extension and
  composite-extension bijections, against which
  ``LiftedEndofunctor.unit`` and ``LiftedEndofunctor.mult`` are checked;
* the set and map record parsers one label at a time, against which
  ``interchange``'s, which share equal set records and read a map's keys
  by position, are checked.
"""

import itertools

from polyverse import interchange as io
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
    _guard,
    _intern,
)
from polyverse.internalcat import internal_functor
from polyverse.poly import (
    PolyError,
    Polynomial,
    compose,
    decode_arity,
    decode_operation,
    encode_arity,
    encode_operation,
    extend,
    extension_composition_iso,
    from_map,
    identity_poly,
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
        elems += [(z, _intern(tuple(zip(src, c)))) for c in itertools.product(tgt, repeat=len(src))]
        img += [k] * (len(elems) - len(img))
    return FinMap._of(FinSet._of(tuple(elems)), Z, tuple(img))


def prod_transpose(f: FinMap, h: FamilyMorphism, X: FinFamily, Y: FinFamily) -> FamilyMorphism:
    """Transpose Hom(Δ_f Y, X) → Hom(Y, Π_f X) for ``h : Δ_f Y → X``."""
    if h.src != base_change(f, Y):
        raise FinSetError("transpose source must be the base change of Y")
    target = dep_prod(f, X)
    maps = {}
    for a in f.cod:
        comp = {y: _intern(tuple([(b, h(b, y)) for b in f.preimage(a)])) for y in Y.fibre(a)}
        maps[a] = FinMap(Y.fibre(a), target.fibre(a), comp)
    return FamilyMorphism(Y, target, maps)


def prod_untranspose(f: FinMap, k: FamilyMorphism, X: FinFamily) -> FamilyMorphism:
    """Inverse transpose: from ``k : Y → Π_f X`` recover ``Δ_f Y → X``."""
    Y = k.src
    src = base_change(f, Y)
    maps = {}
    for b in f.dom:
        comp = {y: section_lookup(k(f(b), y), b) for y in Y.fibre(f(b))}
        maps[b] = FinMap(src.fibre(b), X.fibre(b), comp)
    return FamilyMorphism(src, X, maps)


def sum_transpose(f: FinMap, h: FamilyMorphism, Y: FinFamily) -> FamilyMorphism:
    """Transpose Hom(Σ_f X, Y) → Hom(X, Δ_f Y) for ``h : Σ_f X → Y`` over cod f."""
    X = FinFamily(f.dom, {b: FinSet(x for bb, x in h.src.fibre(f(b)) if bb == b) for b in f.dom})
    target = base_change(f, Y)
    maps = {}
    for b in f.dom:
        comp = {x: h(f(b), (b, x)) for x in X.fibre(b)}
        maps[b] = FinMap(X.fibre(b), target.fibre(b), comp)
    return FamilyMorphism(X, target, maps)


def sum_untranspose(f: FinMap, k: FamilyMorphism, Y: FinFamily) -> FamilyMorphism:
    """Inverse transpose: from ``k : X → Δ_f Y`` recover ``Σ_f X → Y``."""
    X = k.src
    src = dep_sum(f, X)
    maps = {}
    for a in f.cod:
        comp = {(b, x): k(b, x) for (b, x) in src.fibre(a)}
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


# ---------------------------------------------------------------------------
# Cells, adjustments and internal functors
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# The lifted unit and multiplication through the extension bijections
# ---------------------------------------------------------------------------


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


@io._conversion("set")
def finset_from_json_on_labels(data) -> FinSet:
    """A set record, each of its labels parsed and sorted anew."""
    if not isinstance(data, list):
        raise io.ParseError("finite set must be an array of labels")
    labels = io._LABELS.get()
    ordered = sorted([io._label_from_json(x, labels) for x in data], key=lambda x: io._key(x, labels))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise io.ParseError(f"duplicate element {a!r}")
    return FinSet._of(tuple(ordered))


@io._conversion("map")
def finmap_from_json_on_labels(data) -> FinMap:
    """A map record, its domain and codomain first, then pair by pair."""
    dom, cod = finset_from_json_on_labels(data["dom"]), finset_from_json_on_labels(data["cod"])
    labels = io._LABELS.get()
    pairs = [(io._label_from_json(x, labels), io._label_from_json(y, labels)) for x, y in io._pairs(data["map"])]
    return FinMap(dom, cod, pairs)
