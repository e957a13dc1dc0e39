"""Finite universes with unit, dependent-sum and dependent-product structure,
and the pseudomonad / pseudoalgebra they generate.

A universe is a finite set of codes with a fibre of terms for each code,
a distinguished code with a one-element fibre, and total tables assigning
to every pair (code A, family B of codes over the terms of A) a sum code
and a product code whose fibres are in bijection with the evident pair
and section sets.  Totality forces every fibre to have at most one
element: if some fibre had two, the sum sizes would grow without bound
while the code set stays finite, so validation would fail somewhere.
The canonical pairing and abstraction bijections are therefore
reconstructible and are not part of the interchange record.

The unit and sum tables yield cartesian morphisms eta : i_1 => p and
mu : p.p => p; the product table yields zeta : P_p(p) => p.  The unique
invertible adjustments tying these into a pseudomonad and a pseudoalgebra
are computed between square-normalised cells, so a law holds strictly
exactly when the corresponding adjustment is an identity map.  Assembly
never refuses an adjustment that is not invertible: the suites decide that
once, in their ``strictness-profile`` record.

As in the paper, the pseudoalgebra is built over the pseudomonad and needs
only its eta and mu: ``pseudomonad_from(u)`` builds those two cells, and the
pseudomonad builds its law cells, law adjustments and strictness flags when
they are first read, then keeps them.  ``.pseudoalgebra()`` adds zeta over
it, and each object checks its own pasting equations with
``.pasting_report()``, normalising each node of a pasting once.

The endofunctor ``P_p`` on sets and on the arrow category is
``LiftedEndofunctor(p)``, taken by ``apply_to_set``, ``lift_apply``,
``lift_apply_square`` and ``lift_unit_mult`` in place of ``p``.  Its
``unit`` and ``mult`` place the components ``Z -> P_p(Z)`` and
``P_p(P_p(Z)) -> P_p(Z)`` by the layout of ``P_p(Z)``, reading ``mult`` off
the trace of ``p.p`` and the vertex of ``mu``, without decoding a section or
extending ``p.p``.  The three structure cells are built ``@_built_once``,
and each ``P_p(Z)`` by ``extend``: once per check, whichever object asks for
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

from .finset import (
    FinFamily,
    FinMap,
    FinSet,
    Square,
    TERMINAL,
    label_key,
    section_lookup,
    section_tuple,
    _lazy,
)
from .poly import (
    Polynomial,
    PolyError,
    compose,
    decode_arity,
    decode_operation,
    extend,
    from_map,
    identity_poly,
    _built_once,
    _layout,
    _postcomposed,
    _radix,
    _shared_builds,
)
from .poly2 import (
    Adjustment,
    PolyMorphism,
    adj_vcomp,
    associator,
    canon,
    cell_from_square,
    cells_square_equal,
    identity_cell,
    lunitor_inv,
    runitor_inv,
    unique_adjustment,
    v_comp,
    vcomp_chain,
    whisker_left,
    whisker_right,
)


class UniverseError(PolyError):
    """Universe data that fails one of the three pullback conditions."""


@dataclass(frozen=True)
class Universe:
    codes: FinSet
    el: FinFamily
    unit_code: object
    sigma: tuple
    pi: tuple

    def __init__(self, codes, el, unit_code, sigma, pi):
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "el", el)
        object.__setattr__(self, "unit_code", unit_code)
        object.__setattr__(self, "sigma", _normalise_table(sigma))
        object.__setattr__(self, "pi", _normalise_table(pi))

    @_lazy
    def _sigma_table(self) -> dict:
        return dict(self.sigma)

    @_lazy
    def _pi_table(self) -> dict:
        return dict(self.pi)

    @_lazy
    def terms(self) -> FinSet:
        return self.el.total()[0]

    @_lazy
    def p(self) -> FinMap:
        return self.el.total()[1]

    @_lazy
    def star(self):
        fibre = self.el.fibre(self.unit_code)
        return (self.unit_code, fibre.the_element())

    def term_fibre(self, code) -> FinSet:
        return FinSet._of(tuple([(code, x) for x in self.el.fibre(code).elements]))

    def sigma_code(self, code, btable):
        try:
            return self._sigma_table[(code, btable)]
        except KeyError:
            raise UniverseError(f"no sum code for {(code, btable)!r}") from None

    def pi_code(self, code, btable):
        try:
            return self._pi_table[(code, btable)]
        except KeyError:
            raise UniverseError(f"no product code for {(code, btable)!r}") from None

    def btables(self, code):
        """Every family of codes over the terms of ``code``, in canonical order."""
        xs = self.el.fibre(code).elements
        for choice in itertools.product(self.codes.elements, repeat=len(xs)):
            yield tuple(zip(xs, choice))

    def fibre_sizes(self):
        """Every ``(code, btable)``, codes in order and each code's families
        in canonical order, with the sizes its sum and product fibres need."""
        for code in self.codes:
            for btable in self.btables(code):
                sizes = [len(self.el.fibre(b)) for _, b in btable]
                yield code, btable, sum(sizes), math.prod(sizes)

    def pair_domain(self, code, btable) -> FinSet:
        """Dependent pairs ``(term of A, term of B(term))`` in tagged form."""
        table = dict(btable)
        return FinSet(
            ((code, x), (table[x], y))
            for x in self.el.fibre(code)
            for y in self.el.fibre(table[x])
        )

    def pairing(self, code, btable) -> FinMap:
        """The canonical bijection from dependent pairs to the sum fibre."""
        dom = self.pair_domain(code, btable)
        return self._canonical("sum", (code, btable), dom, self.sigma_code(code, btable))

    def section_domain(self, code, btable) -> FinSet:
        """Dependent sections over the terms of ``code``, in graph form."""
        table = dict(btable)
        xs = self.el.fibre(code).elements
        pools = [[(table[x], y) for y in self.el.fibre(table[x])] for x in xs]
        out = []
        for choice in itertools.product(*pools):
            out.append(section_tuple({(code, x): v for x, v in zip(xs, choice)}))
        return FinSet(out)

    def lam(self, code, btable) -> FinMap:
        """The canonical bijection from dependent sections to the product fibre."""
        dom = self.section_domain(code, btable)
        return self._canonical("product", (code, btable), dom, self.pi_code(code, btable))

    def _canonical(self, kind: str, key: tuple, dom: FinSet, target) -> FinMap:
        """The order-preserving bijection from ``dom`` onto the fibre of
        ``target``, the ``kind`` code of ``key``."""
        cod = self.term_fibre(target)
        if len(dom) != len(cod):
            raise UniverseError(f"{kind} code for {key!r} has fibre size {len(cod)}, need {len(dom)}")
        return FinMap._of(dom, cod, tuple(range(len(dom))))


def _normalise_table(table) -> tuple:
    if isinstance(table, tuple):
        items = list(table)
    else:
        items = list(table.items())
    return tuple(sorted(items, key=lambda kv: label_key((kv[0][0], kv[0][1]))))


def validate_universe(u: Universe) -> list:
    """All violations of the unit, sum and product conditions, as strings."""
    problems = []
    if u.unit_code not in u.codes:
        problems.append("unit code is not a code")
        return problems
    if len(u.el.fibre(u.unit_code)) != 1:
        problems.append("unit square: the fibre of the unit code is not a singleton")
    sizes = list(u.fibre_sizes())
    want = {(A, bt) for A, bt, _, _ in sizes}
    for name, table in (("sum", u._sigma_table), ("product", u._pi_table)):
        if set(table) != want:
            problems.append(f"{name} table is not total over all (code, family) pairs")
            return problems
        for code in table.values():
            if code not in u.codes:
                problems.append(f"{name} table assigns a non-code")
                return problems
    for A, bt, pair_size, sect_size in sizes:
        if pair_size != len(u.el.fibre(u.sigma_code(A, bt))):
            problems.append(f"sum square: fibre mismatch at {(A, bt)!r}")
        if sect_size != len(u.el.fibre(u.pi_code(A, bt))):
            problems.append(f"product square: fibre mismatch at {(A, bt)!r}")
    return problems


def _checked(u: Universe) -> Universe:
    problems = validate_universe(u)
    if problems:
        raise UniverseError("; ".join(problems))
    return u


def _cardinality_universe(codes: FinSet, el: FinFamily, unit, by_size: dict) -> Universe:
    """The universe whose sum and product codes are the codes ``by_size``
    names for the cardinality of the sum or product."""
    sigma, pi = {}, {}
    for A, bt, sum_size, prod_size in Universe(codes, el, unit, {}, {}).fibre_sizes():
        sigma[(A, bt)] = by_size[sum_size]
        pi[(A, bt)] = by_size[prod_size]
    return _checked(Universe(codes, el, unit, sigma, pi))


def mk_bool_universe() -> Universe:
    """Codes for the empty and the one-element type; sums and products are
    computed by cardinality and land back on the nose."""
    codes = FinSet(["code0", "code1"])
    el = FinFamily(codes, {"code0": FinSet(), "code1": FinSet(["el"])})
    return _cardinality_universe(codes, el, "code1", {0: "code0", 1: "code1"})


def mk_skewed_universe() -> Universe:
    """Two distinct one-element codes; every singleton sum or product lands
    on the first while the unit is the second, so the right unit law of the
    induced monad fails strictly but holds up to a unique invertible
    adjustment."""
    codes = FinSet(["code0", "code1a", "code1b"])
    el = FinFamily(
        codes, {"code0": FinSet(), "code1a": FinSet(["a"]), "code1b": FinSet(["b"])}
    )
    return _cardinality_universe(codes, el, "code1b", {0: "code0", 1: "code1a"})


@_built_once
def unit_structure(u: Universe) -> PolyMorphism:
    """The cartesian cell i_1 => p picking the unit code and its element."""
    _checked(u)
    top = FinMap(TERMINAL, u.terms, {"*": u.star})
    bot = FinMap(TERMINAL, u.codes, {"*": u.unit_code})
    return cell_from_square(identity_poly(TERMINAL), from_map(u.p), top, bot)


def _operation_btable(melt) -> tuple:
    """Strip term tags from a decoded composite operation's assignment."""
    _, assign = decode_operation(melt)
    return section_tuple({d[1]: a for d, a in assign.items()})


@_built_once
def sigma_structure(u: Universe) -> PolyMorphism:
    """The cartesian cell p.p => p: sum codes on operations, the canonical
    pairing on arities.  The source is the engine's own composite."""
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


class LiftedEndofunctor:
    """The endofunctor ``P_p`` induced by a map ``p``."""

    def __init__(self, p: FinMap):
        self.poly = from_map(p)

    def unit(self, eta: PolyMorphism, Z: FinSet) -> FinMap:
        """The unit ``Z -> P_p(Z)`` of the cell ``eta : i_1 => p``: each
        element as the constant section over the unit code, placed by the
        layout of ``P_p(Z)``."""
        starts, weights = _layout(self.poly, [len(Z)])
        c = eta.phi0.img[0]
        return FinMap._of(Z, apply_to_set(self, Z), tuple([starts[c] + sum(weights[c]) * z for z in range(len(Z))]))

    def mult(self, mu: PolyMorphism, Z: FinSet) -> FinMap:
        """The multiplication ``P_p(P_p(Z)) -> P_p(Z)`` of the cell
        ``mu : p.p => p``.  The elements over a code ``A`` that pick the code
        ``B_b`` at each arity ``b`` of ``A`` are those of the operation ``m``
        of ``p.p`` that the trace's ``*_at`` tables find; ``mu`` sends ``m``
        to a code and each arity of that code to an arity ``b'`` of some
        ``B_b``, whose element in ``Z`` it takes.  Both sides are read off
        the layouts as mixed-radix digits, one per arity of ``m``."""
        PZ = apply_to_set(self, Z)
        PPZ = apply_to_set(self, PZ)
        F = self.poly
        _, tr = compose(F, F)
        at, ws = _layout(F, [len(Z)])
        outer_at, outer_ws = _layout(F, [len(PZ)])
        arities, rank, codes, zs = F.f._fibres, F.f._ranks, range(len(F.A)), range(len(Z))
        phi0, phi2, fill = mu.phi0.img, mu.phi2.img, mu._fill
        n, p, qp_d = tr.n.img, tr.p.img, tr.qp_d.img
        img = [0] * len(PPZ)
        for A, bs in enumerate(arities):
            for Bs in itertools.product(codes, repeat=len(bs)):
                m = tr.m_at[A, tuple([tr.q_at[B, b] for B, b in zip(Bs, bs)])]
                c = phi0[m]
                start = outer_at[A] + sum([W * at[B] for W, B in zip(outer_ws[A], Bs)])
                src_digits, dst_digits = [], []
                for d, w in zip(arities[c], ws[c]):
                    x = phi2[fill[m, d]]  # the arity (n[x], b) of m, b at rank j
                    j = rank[qp_d[p[x]]]
                    src_digits.append([outer_ws[A][j] * ws[Bs[j]][rank[n[x]]] * z for z in zs])
                    dst_digits.append([w * z for z in zs])
                for i, k in zip(_radix(start, src_digits), _radix(at[c], dst_digits)):
                    img[i] = k
        return FinMap._of(PPZ, PZ, tuple(img))


def apply_to_set(P: LiftedEndofunctor, Z: FinSet) -> FinSet:
    """The value on an object: the one fibre of the extension at ``Z``."""
    return extend(P.poly, FinFamily._of(TERMINAL, (Z,))).fibre("*")


def lift_apply(P: LiftedEndofunctor, f: FinMap) -> FinMap:
    """The endofunctor on maps: postcompose every section with ``f``; the
    extension on maps over the one-point family, read off positions."""
    [img] = _postcomposed(P.poly, [f.img], [len(f.cod)])
    return FinMap._of(apply_to_set(P, f.dom), apply_to_set(P, f.cod), tuple(img))


def lift_apply_square(P: LiftedEndofunctor, sq: Square) -> Square:
    """The endofunctor on squares, applied edgewise."""
    return Square(
        lift_apply(P, sq.src),
        lift_apply(P, sq.dst),
        lift_apply(P, sq.top),
        lift_apply(P, sq.bot),
    )


@_built_once
def pi_structure(u: Universe) -> PolyMorphism:
    """The cartesian cell P_p(p) => p: product codes on operations, the
    canonical abstraction on arities."""
    _checked(u)
    p_map = lift_apply(LiftedEndofunctor(u.p), u.p)
    bot_table, top_table = {}, {}
    for (A, sect) in p_map.cod:
        bot_table[(A, sect)] = u.pi_code(A, section_tuple({k[1]: v for k, v in sect}))
    for (A, sect) in p_map.dom:
        btable = section_tuple({k[1]: u.p(v) for k, v in sect})
        top_table[(A, sect)] = u.lam(A, btable)(sect)
    bot = FinMap(p_map.cod, u.codes, bot_table)
    top = FinMap(p_map.dom, u.terms, top_table)
    return cell_from_square(from_map(p_map), from_map(u.p), top, bot)


def lift_unit_mult(P: LiftedEndofunctor, eta: PolyMorphism, mu: PolyMorphism, f: FinMap) -> tuple[Square, Square]:
    """The unit and multiplication squares of the lifted endofunctor at an
    object ``f`` of the arrow 2-category."""
    Pf = lift_apply(P, f)
    h_f = Square(f, Pf, P.unit(eta, f.dom), P.unit(eta, f.cod))
    PPf = lift_apply(P, Pf)
    m_f = Square(PPf, Pf, P.mult(mu, f.dom), P.mult(mu, f.cod))
    return h_f, m_f


# ---------------------------------------------------------------------------
# Pseudomonad assembly
# ---------------------------------------------------------------------------


# Each monad law as the names in ``monad_law_cells`` of its two parallel cells:
# associativity, left unit, right unit.
_LAW_CELLS = (("assoc_lhs", "assoc_rhs"), ("left_cell", "id_cell"), ("right_cell", "id_cell"))


@dataclass(frozen=True)
class PolynomialPseudomonad:
    """The pseudomonad of a universe's unit and sum structure.  Its carrier,
    ``eta`` and ``mu`` are built with it; the law cells, the three law
    adjustments and the strictness flags are built on first read, each in
    one table of shared builds, from those cells, and kept."""

    carrier: Polynomial
    eta: PolyMorphism
    mu: PolyMorphism
    # the universe the pseudomonad was assembled from
    universe: Universe = field(compare=False, repr=False)

    @_lazy
    @_shared_builds()
    def cells(self) -> dict:
        return monad_law_cells(self.universe, self.eta, self.mu)

    @_lazy
    @_shared_builds()
    def _adjustments(self) -> tuple:
        """Each law's unique adjustment between its square-normalised cells,
        which are normalised once each, also the one both unit laws share.
        They are kept whether or not they are invertible."""
        cells = self.cells
        normal = {name: canon(cells[name]) for name in dict.fromkeys(itertools.chain(*_LAW_CELLS))}
        return tuple([unique_adjustment(normal[x], normal[y]) for x, y in _LAW_CELLS])

    @_lazy
    def _strict(self) -> tuple:
        cells = self.cells
        return tuple([cells_square_equal(cells[x], cells[y]) for x, y in _LAW_CELLS])

    assoc = property(lambda self: self._adjustments[0])
    left_unit = property(lambda self: self._adjustments[1])
    right_unit = property(lambda self: self._adjustments[2])
    strict_assoc = property(lambda self: self._strict[0])
    strict_left = property(lambda self: self._strict[1])
    strict_right = property(lambda self: self._strict[2])

    def is_strict_monad(self) -> bool:
        return self.strict_assoc and self.strict_left and self.strict_right

    @_shared_builds()
    def pasting_report(self) -> dict:
        """The two coherence equations for the pseudomonad adjustments,
        checked as literal equalities of composite vertex maps.

        Nodes are fully bracketed composite cells from ((p.p).p).p (for the
        associativity equation) or p.p (for the unit equation) down to p,
        with the associator inserted wherever a rebracketing is needed; each
        node is square-normalised once, each edge is the unique adjustment
        between consecutive normal forms, and the two sides traverse
        different intermediate nodes.
        """
        cells = self.cells
        t, pp, mu, eta = cells["t"], cells["pp"], cells["mu"], cells["eta"]
        a3, p_mu, mu_p = cells["a3"], cells["p_mu"], cells["mu_p"]

        a_t_t_pp = associator(t, t, pp)
        pp_mu = whisker_left(pp, mu)
        p_mu_t = whisker_right(p_mu, t)
        a3_t = whisker_right(a3, t)
        mu_p_t = whisker_right(mu_p, t)

        U1, U2, U3, U4, V2 = map(canon, (
            vcomp_chain(mu, p_mu, a3, pp_mu, a_t_t_pp),
            vcomp_chain(mu, p_mu, a3, p_mu_t, a3_t),
            vcomp_chain(mu, mu_p, p_mu_t, a3_t),
            vcomp_chain(mu, mu_p, mu_p_t),
            vcomp_chain(mu, mu_p, pp_mu, a_t_t_pp),
        ))
        assoc_ok = _paths_agree(unique_adjustment, (U1, U2, U3, U4), (U1, V2, U4))

        t_eta = whisker_left(t, eta)
        t_eta_t = v_comp(whisker_right(t_eta, t), whisker_right(runitor_inv(t), t))
        W1, W2, M = map(canon, (vcomp_chain(mu, p_mu, a3, t_eta_t), vcomp_chain(mu, mu_p, t_eta_t), mu))
        unit_ok = _paths_agree(unique_adjustment, (W1, W2, M), (W1, M))

        return {"associativity_pasting": assoc_ok, "unit_pasting": unit_ok, "ok": assoc_ok and unit_ok}

    @_shared_builds()
    def pseudoalgebra(self) -> PolynomialPseudoalgebra:
        """The universe's product structure as a pseudoalgebra over this
        pseudomonad, in the arrow 2-category.  It reads only ``eta`` and
        ``mu``, and its two adjustments are kept whether or not they are
        invertible."""
        u = self.universe
        P = LiftedEndofunctor(u.p)
        zeta = pi_structure(u)
        z = square_of_cell(zeta)
        h_p, m_p = lift_unit_mult(P, self.eta, self.mu, u.p)
        Tz = lift_apply_square(P, z)
        lhs = z.after(Tz)
        rhs = z.after(m_p)
        sigma_adj = unique_adjustment(cell_of_square(lhs), cell_of_square(rhs))
        tau_lhs = z.after(h_p)
        tau_rhs = Square.identity(u.p)
        tau_adj = unique_adjustment(cell_of_square(tau_lhs), cell_of_square(tau_rhs))
        return PolynomialPseudoalgebra(
            self, self.carrier, zeta, sigma_adj, tau_adj,
            lhs == rhs, tau_lhs == tau_rhs, z, h_p, m_p, Tz,
        )


def _paths_agree(adjust, lhs: tuple, rhs: tuple) -> bool:
    """Whether two paths of nodes with common ends paste to the same vertex
    map, each edge being the adjustment ``adjust`` between consecutive nodes."""

    def paste(path):
        return reduce(lambda acc, edge: adj_vcomp(edge, acc), map(adjust, path, path[1:])).alpha

    return paste(lhs) == paste(rhs)


def monad_law_cells(u: Universe, eta: PolyMorphism | None = None, mu: PolyMorphism | None = None) -> dict:
    """The composite cells entering the three monad laws, with the unitor
    isos absorbed so that each law compares parallel cells.  They are built
    from ``eta`` and ``mu``, by default ``u``'s unit and sum structure
    cells, on the carrier ``mu.dst``."""
    eta = unit_structure(u) if eta is None else eta
    mu = sigma_structure(u) if mu is None else mu
    t = mu.dst
    a3 = associator(t, t, t)
    p_mu = whisker_left(t, mu)
    mu_p = whisker_right(mu, t)
    eta_p = v_comp(whisker_right(eta, t), lunitor_inv(t))
    p_eta = v_comp(whisker_left(t, eta), runitor_inv(t))
    return {
        "t": t, "pp": mu.src, "eta": eta, "mu": mu, "a3": a3,
        "p_mu": p_mu, "mu_p": mu_p, "eta_p": eta_p, "p_eta": p_eta,
        "assoc_lhs": vcomp_chain(mu, p_mu, a3),
        "assoc_rhs": v_comp(mu, mu_p),
        "left_cell": v_comp(mu, eta_p),
        "right_cell": v_comp(mu, p_eta),
        "id_cell": identity_cell(t),
    }


@_shared_builds()
def pseudomonad_from(u: Universe) -> PolynomialPseudomonad:
    """The pseudomonad of ``u``'s unit and sum structure, with only its
    structure cells built."""
    eta = unit_structure(u)
    mu = sigma_structure(u)
    return PolynomialPseudomonad(mu.dst, eta, mu, u)


# ---------------------------------------------------------------------------
# Pseudoalgebra assembly (in the arrow 2-category)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialPseudoalgebra:
    monad: PolynomialPseudomonad
    carrier: Polynomial
    zeta: PolyMorphism
    sigma_adj: Adjustment
    tau_adj: Adjustment
    strict_sigma: bool
    strict_tau: bool
    # zeta as a square z, and the unit and multiplication squares at p and Tz
    z: Square = field(compare=False, repr=False)
    h_p: Square = field(compare=False, repr=False)
    m_p: Square = field(compare=False, repr=False)
    Tz: Square = field(compare=False, repr=False)

    def is_strict(self) -> bool:
        return self.strict_sigma and self.strict_tau

    @_shared_builds()
    def pasting_report(self) -> dict:
        """The two coherence equations for the pseudoalgebra adjustments,
        checked as literal equalities of composite vertex maps between
        squares over the third and first powers of the carrier; each square
        is made a cell once, and each edge is the unique adjustment between
        consecutive cells."""
        z, h_p, m_p, Tz = self.z, self.h_p, self.m_p, self.Tz
        P = LiftedEndofunctor(self.carrier.f)
        _, m_Tp = lift_unit_mult(P, self.monad.eta, self.monad.mu, m_p.dst)
        TTz = lift_apply_square(P, Tz)
        Tm_p = lift_apply_square(P, m_p)
        Th_p = lift_apply_square(P, h_p)

        X1, X2, X3, X4, X6, X5 = map(cell_of_square, (
            z.after(Tz).after(TTz),
            z.after(Tz).after(Tm_p),
            z.after(m_p).after(Tm_p),
            z.after(m_p).after(m_Tp),
            z.after(m_p).after(TTz),
            z.after(Tz).after(m_Tp),
        ))
        assoc_ok = _paths_agree(unique_adjustment, (X1, X2, X3, X4), (X1, X6, X5, X4))

        Y1, Y2, Z = map(cell_of_square, (z.after(Tz).after(Th_p), z.after(m_p).after(Th_p), z))
        unit_ok = _paths_agree(unique_adjustment, (Y1, Y2, Z), (Y1, Z))
        return {"associativity_pasting": assoc_ok, "unit_pasting": unit_ok, "ok": assoc_ok and unit_ok}


def square_of_cell(phi: PolyMorphism) -> Square:
    """The square presentation of a cartesian cell between one-to-one
    polynomials, as arrow-category data."""
    return Square(phi.src.f, phi.dst.f, phi.square_top(), phi.phi0)


def cell_of_square(sq: Square) -> PolyMorphism:
    return cell_from_square(from_map(sq.src), from_map(sq.dst), sq.top, sq.bot)


# Delegations kept only because the `models` benchmark workload calls them
# (perfbench/workloads.py); they go when that workload next changes.
@_shared_builds()
def pseudomonad_pasting_report(u: Universe) -> dict:
    return pseudomonad_from(u).pasting_report()


@_shared_builds()
def pseudoalgebra_from(u: Universe) -> PolynomialPseudoalgebra:
    return pseudomonad_from(u).pseudoalgebra()


@_shared_builds()
def pseudoalgebra_pasting_report(u: Universe) -> dict:
    return pseudoalgebra_from(u).pasting_report()


# ---------------------------------------------------------------------------
# The five type isomorphisms
# ---------------------------------------------------------------------------


def verify_type_isos(u: Universe) -> dict:
    """Exhaustively build both sides of the five type isomorphisms for every
    choice of codes and code families, with explicit bijections.

    Returns per-row instance counts, failures, and how many instances were
    strict equalities of codes (with identity bijections).
    """
    _checked(u)
    rows = {
        "sum-associativity": [],
        "sum-right-unit": [],
        "sum-left-unit": [],
        "product-currying": [],
        "product-left-unit": [],
    }

    def record(row, lhs_code, rhs_code, bij: FinMap):
        ok = bij.is_bijection()
        strict = lhs_code == rhs_code and ok and bij == FinMap.identity(bij.dom)
        rows[row].append({"ok": ok, "strict": strict, "lhs": lhs_code, "rhs": rhs_code})

    for A in u.codes:
        # sum right unit: pairs with the unit over A against A itself
        bt = section_tuple({x: u.unit_code for x in u.el.fibre(A)})
        lhs = u.sigma_code(A, bt)
        unp = u.pairing(A, bt).inverse()
        table = {z: unp(z)[0] for z in u.term_fibre(lhs)}
        record("sum-right-unit", lhs, A, FinMap(u.term_fibre(lhs), u.term_fibre(A), table))

        # sum left unit: pairs over the unit against A
        bt1 = section_tuple({u.star[1]: A})
        lhs1 = u.sigma_code(u.unit_code, bt1)
        unp1 = u.pairing(u.unit_code, bt1).inverse()
        table1 = {z: unp1(z)[1] for z in u.term_fibre(lhs1)}
        record("sum-left-unit", lhs1, A, FinMap(u.term_fibre(lhs1), u.term_fibre(A), table1))

        # product left unit: sections over the unit against A
        lhs2 = u.pi_code(u.unit_code, bt1)
        unl = u.lam(u.unit_code, bt1).inverse()
        table2 = {z: section_lookup(unl(z), u.star) for z in u.term_fibre(lhs2)}
        record("product-left-unit", lhs2, A, FinMap(u.term_fibre(lhs2), u.term_fibre(A), table2))

        for btable in u.btables(A):
            bdict = dict(btable)
            sum_code = u.sigma_code(A, btable)
            pair_ab = u.pairing(A, btable)
            for ctable in u.btables(sum_code):
                cdict = dict(ctable)

                # nested sum on the left, sum over pairs on the right
                inner_tabs = {}
                inner_codes = {}
                for x in u.el.fibre(A):
                    tab = section_tuple(
                        {
                            y: cdict[pair_ab(((A, x), (bdict[x], y)))[1]]
                            for y in u.el.fibre(bdict[x])
                        }
                    )
                    inner_tabs[x] = tab
                    inner_codes[x] = u.sigma_code(bdict[x], tab)
                lhs_code = u.sigma_code(A, section_tuple(inner_codes))
                rhs_code = u.sigma_code(sum_code, ctable)
                unp_outer = u.pairing(A, section_tuple(inner_codes)).inverse()
                pair_rhs = u.pairing(sum_code, ctable)
                table = {}
                for z in u.term_fibre(lhs_code):
                    (xa, w) = unp_outer(z)
                    x = xa[1]
                    (yb, v) = u.pairing(bdict[x], inner_tabs[x]).inverse()(w)
                    paired = pair_ab((xa, yb))
                    table[z] = pair_rhs((paired, v))
                record(
                    "sum-associativity", lhs_code, rhs_code,
                    FinMap(u.term_fibre(lhs_code), u.term_fibre(rhs_code), table),
                )

                # nested product on the left, product over pairs on the right
                pi_inner_codes = {x: u.pi_code(bdict[x], inner_tabs[x]) for x in u.el.fibre(A)}
                lhs_pi = u.pi_code(A, section_tuple(pi_inner_codes))
                rhs_pi = u.pi_code(sum_code, ctable)
                unlam_outer = u.lam(A, section_tuple(pi_inner_codes)).inverse()
                lam_rhs = u.lam(sum_code, ctable)
                table_pi = {}
                for z in u.term_fibre(lhs_pi):
                    outer_sect = unlam_outer(z)
                    flat = {}
                    for xa, w in outer_sect:
                        x = xa[1]
                        for yb, v in u.lam(bdict[x], inner_tabs[x]).inverse()(w):
                            flat[pair_ab((xa, yb))] = v
                    table_pi[z] = lam_rhs(section_tuple(flat))
                record(
                    "product-currying", lhs_pi, rhs_pi,
                    FinMap(u.term_fibre(lhs_pi), u.term_fibre(rhs_pi), table_pi),
                )

    summary = {}
    for row, entries in rows.items():
        summary[row] = {
            "checked": len(entries),
            "failures": [e for e in entries if not e["ok"]],
            "strict": sum(1 for e in entries if e["strict"]),
            "nonidentity": sum(1 for e in entries if e["ok"] and not e["strict"]),
        }
    summary["ok"] = all(not v["failures"] for v in summary.values() if isinstance(v, dict))
    summary["total_checked"] = sum(
        v["checked"] for v in summary.values() if isinstance(v, dict)
    )
    return summary
