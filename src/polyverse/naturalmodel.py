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

A universe is validated once per value: ``Universe._problems`` finds its
violations on first read and keeps them, as ``FinMap._fibres`` keeps its
fibres.  ``validate_universe`` returns a copy, and every structure cell and
``verify_type_isos`` read it through ``_checked``.  Validation enumerates
nothing under the cap, so what is kept does not depend on the cap in force.

The unit and sum tables yield cartesian morphisms eta : i_1 => p and
mu : p.p => p; the product table yields zeta : P_p(p) => p.  ``mu`` and
``zeta`` read their maps off positions, as ``lift_mult`` does: the codes of
an operation off the trace of ``p.p`` (for ``mu``) or the layout of
``P_p(codes)`` (for ``zeta``), and the term the canonical bijection gives an
arity off the ranks of its terms in their fibres (``p._ranks``).  They build
no bijection and decode no label; ``cell_from_square`` still checks that
each square commutes and is a pullback.  ``verify_type_isos`` works on
labels, through ``term_fibre`` and the bijections ``Universe.pairing`` and
``Universe.lam``, in one table of shared builds: each bijection is built
once per check.

The unique invertible adjustments tying these into a pseudomonad and a
pseudoalgebra are computed between square-normalised cells, so a law holds
strictly exactly when the corresponding adjustment is an identity map.
Assembly never refuses an adjustment that is not invertible: the suites
decide that once, in their ``strictness-profile`` record.

As in the paper, the pseudoalgebra is built over the pseudomonad and needs
only its eta and mu: ``pseudomonad_from(u)`` builds those two cells, and
``.pseudoalgebra()`` adds zeta.  Each object holds its structure cells and
builds its law cells or squares, law adjustments and strictness flags when
first read, then keeps them.  Each checks its own pasting equations with
``.pasting_report()``, whose nodes extend the law cells or squares it keeps,
normalising each node once.

The endofunctor ``P_p`` is the carrier polynomial ``t = from_map(p)``
itself: ``apply_to_set``, ``lift_apply`` and ``lift_apply_square`` take
``t``, and ``lift_unit`` and ``lift_mult`` read it off ``eta.dst`` and
``mu.dst``.  They place the components ``Z -> P_p(Z)`` and
``P_p(P_p(Z)) -> P_p(Z)`` by the layout of ``P_p(Z)``, reading ``lift_mult``
off the trace of ``p.p`` and the vertex of ``mu``, without decoding a section
or extending ``p.p``.  The three structure cells are built ``@_built_once``,
and each ``P_p(Z)`` by ``extend``: once per check, whichever object asks for
them.
"""

from __future__ import annotations

import itertools
import math
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
    _Record,
    _built_once,
    _lazy,
    _shared_builds,
)
from .poly import (
    PolyError,
    Polynomial,
    compose,
    extend,
    from_map,
    identity_poly,
    _layout,
    _postcomposed,
    _radix,
)
from .poly2 import (
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


class Universe(_Record, fields=("codes", "el", "unit_code", "sigma", "pi")):
    def __init__(self, codes, el, unit_code, sigma, pi):
        self.__dict__.update(
            codes=codes, el=el, unit_code=unit_code, sigma=_normalise_table(sigma), pi=_normalise_table(pi),
        )

    @_lazy
    def _sigma_table(self) -> dict:
        return dict(self.sigma)

    @_lazy
    def _pi_table(self) -> dict:
        return dict(self.pi)

    @_lazy
    def _problems(self) -> tuple:
        """Every violation of the unit, sum and product conditions, found on
        first read and kept: none of them depends on the enumeration cap."""
        return tuple(_universe_problems(self))

    @_lazy
    def p(self) -> FinMap:
        return self.el.total()[1]

    terms = property(lambda self: self.p.dom)

    @_lazy
    def star(self):
        return (self.unit_code, self.el.fibre(self.unit_code).the_element())

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

    @_built_once
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

    @_built_once
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
    items = table if isinstance(table, tuple) else table.items()
    return tuple(sorted(items, key=lambda kv: label_key((kv[0][0], kv[0][1]))))


def validate_universe(u: Universe) -> list:
    """All violations of the unit, sum and product conditions, as strings."""
    return list(u._problems)


def _universe_problems(u: Universe) -> list:
    """The violations ``Universe._problems`` keeps, found in this order."""
    problems = []
    if u.unit_code not in u.codes:
        problems.append("unit code is not a code")
        return problems
    if len(u.el.fibre(u.unit_code)) != 1:
        problems.append("unit square: the fibre of the unit code is not a singleton")
    # counted first, so that no more families are listed than a table holds
    count = sum([len(u.codes) ** len(u.el.fibre(A)) for A in u.codes])
    sizes = []
    for name, table in (("sum", u._sigma_table), ("product", u._pi_table)):
        if len(table) == count and not sizes:
            sizes = list(u.fibre_sizes())
        if len(table) != count or set(table) != {(A, bt) for A, bt, _, _ in sizes}:
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
    if u._problems:
        raise UniverseError("; ".join(u._problems))
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


@_built_once
def sigma_structure(u: Universe) -> PolyMorphism:
    """The cartesian cell p.p => p, read off the trace of the engine's own
    composite ``p.p``.  An operation, an outer code ``A`` (``w``) with the
    inner code ``B_d`` its ``Q`` pick holds at each arity ``d`` (``picks``,
    ``qa``), goes to the sum code of ``(A, B)``; an arity ``(b, (m, d))``,
    by the canonical pairing, to the term of that code at the place of
    ``(d, b)`` among the pairs: the arities of each ``B_d'`` with ``d'``
    before ``d``, then the rank of ``b`` in its fibre."""
    _checked(u)
    p_poly = from_map(u.p)
    pp, tr = compose(p_poly, p_poly)
    codes, terms, pos = u.codes.elements, u.terms.elements, u.codes.pos
    arities, rank, qa = u.p._fibres, u.p._ranks, tr.qa.img
    bot, offsets = [], []
    for A, picks in zip(tr.w.img, tr.picks):
        Bs = [qa[k] for k in picks]
        btable = tuple([(terms[d][1], codes[B]) for d, B in zip(arities[A], Bs)])
        bot.append(pos[u.sigma_code(codes[A], btable)])
        offsets.append(list(itertools.accumulate([len(arities[B]) for B in Bs], initial=0)))
    q, qp_d = tr.q.img, tr.qp_d.img
    top = [arities[bot[q[x]]][offsets[q[x]][rank[qp_d[x]]] + rank[b]] for b, x in zip(tr.n.img, tr.p.img)]
    return cell_from_square(pp, p_poly, FinMap._of(pp.B, u.terms, tuple(top)), FinMap._of(pp.A, u.codes, tuple(bot)))


def lift_unit(eta: PolyMorphism, Z: FinSet) -> FinMap:
    """The unit ``Z -> P_p(Z)`` of the cell ``eta : i_1 => p``: each element
    as the constant section over the unit code, placed by the layout of
    ``P_p(Z)``."""
    starts, weights = _layout(eta.dst, [len(Z)])
    c = eta.phi0.img[0]
    return FinMap._of(Z, apply_to_set(eta.dst, Z), tuple([starts[c] + sum(weights[c]) * z for z in range(len(Z))]))


def lift_mult(mu: PolyMorphism, Z: FinSet) -> FinMap:
    """The multiplication ``P_p(P_p(Z)) -> P_p(Z)`` of the cell
    ``mu : p.p => p``.  The elements over a code ``A`` that pick the code
    ``B_b`` at each arity ``b`` of ``A`` are those of the operation ``m`` of
    ``p.p`` that the trace's ``*_at`` tables find; ``mu`` sends ``m`` to a
    code and each arity of that code to an arity ``b'`` of some ``B_b``,
    whose element in ``Z`` it takes.  Both sides are read off the layouts as
    mixed-radix digits, one per arity of ``m``."""
    F = mu.dst
    PZ = apply_to_set(F, Z)
    PPZ = apply_to_set(F, PZ)
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


def apply_to_set(t: Polynomial, Z: FinSet) -> FinSet:
    """``P_p`` on an object: the one fibre of the extension of ``t`` at ``Z``."""
    return extend(t, FinFamily._of(TERMINAL, (Z,))).fibre("*")


def lift_apply(t: Polynomial, f: FinMap) -> FinMap:
    """``P_p`` on maps: postcompose every section with ``f``; the extension
    on maps over the one-point family, read off positions."""
    [img] = _postcomposed(t, [f.img], [len(f.cod)])
    return FinMap._of(apply_to_set(t, f.dom), apply_to_set(t, f.cod), tuple(img))


def lift_apply_square(t: Polynomial, sq: Square) -> Square:
    """``P_p`` on squares, applied edgewise."""
    return Square(
        lift_apply(t, sq.src),
        lift_apply(t, sq.dst),
        lift_apply(t, sq.top),
        lift_apply(t, sq.bot),
    )


@_built_once
def pi_structure(u: Universe) -> PolyMorphism:
    """The cartesian cell P_p(p) => p, read off the layouts of ``P_p(codes)``
    and ``P_p(terms)``.  An operation, a code ``A`` with a code ``B_d`` at
    each arity ``d``, goes to the product code of ``(A, B)``.  An arity, a
    code with a term ``b_d`` at each arity, lies over the operation that
    ``lift_apply(t, p)`` sends it to, and goes, by the canonical abstraction,
    to the term of that product code whose place is the mixed-radix number of
    the ranks of the ``b_d`` in their fibres."""
    _checked(u)
    t = from_map(u.p)
    p_map = lift_apply(t, u.p)
    codes, terms, pos = u.codes.elements, u.terms.elements, u.codes.pos
    arities, rank, p, img = u.p._fibres, u.p._ranks, u.p.img, p_map.img
    bot, top = [], []
    # both layouts list the sections of each code in turn, in itertools.product order
    for A, ds in enumerate(arities):
        xs = [terms[d][1] for d in ds]
        for Bs in itertools.product(codes, repeat=len(ds)):
            bot.append(pos[u.pi_code(codes[A], tuple(zip(xs, Bs)))])
    for ds in arities:
        for bs in itertools.product(range(len(terms)), repeat=len(ds)):
            r = reduce(lambda r, b: r * len(arities[p[b]]) + rank[b], bs, 0)
            top.append(arities[bot[img[len(top)]]][r])
    top_map, bot_map = FinMap._of(p_map.dom, u.terms, tuple(top)), FinMap._of(p_map.cod, u.codes, tuple(bot))
    return cell_from_square(from_map(p_map), t, top_map, bot_map)


def lift_unit_mult(eta: PolyMorphism, mu: PolyMorphism, f: FinMap) -> tuple[Square, Square]:
    """The unit and multiplication squares of ``P_p`` at an object ``f`` of
    the arrow 2-category, for the carrier ``mu.dst``."""
    Pf = lift_apply(mu.dst, f)
    h_f = Square(f, Pf, lift_unit(eta, f.dom), lift_unit(eta, f.cod))
    PPf = lift_apply(mu.dst, Pf)
    m_f = Square(PPf, Pf, lift_mult(mu, f.dom), lift_mult(mu, f.cod))
    return h_f, m_f


# ---------------------------------------------------------------------------
# Pseudomonad assembly
# ---------------------------------------------------------------------------


# Each monad law as the names in ``monad_law_cells`` of its two parallel cells:
# associativity, left unit, right unit.
_LAW_CELLS = (("assoc_lhs", "assoc_rhs"), ("left_cell", "id_cell"), ("right_cell", "id_cell"))


class PolynomialPseudomonad(_Record, fields=("eta", "mu", "universe")):
    """The pseudomonad of a universe's unit and sum structure, on the carrier
    ``mu.dst``.  ``eta`` and ``mu`` are built with it; the law cells, the three
    law adjustments and the strictness flags are built on first read, each in
    one table of shared builds, from those cells, and kept.  ``universe`` is
    the universe it was assembled from."""

    @_lazy
    @_shared_builds()
    def cells(self) -> dict:
        return monad_law_cells(self.eta, self.mu)

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

    carrier = property(lambda self: self.mu.dst)
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
        lhs, rhs = cells["assoc_lhs"], cells["assoc_rhs"]  # mu.p_mu.a3 and mu.mu_p

        a_t_t_pp = associator(t, t, pp)
        pp_mu = whisker_left(pp, mu)
        p_mu_t = whisker_right(p_mu, t)
        a3_t = whisker_right(a3, t)
        mu_p_t = whisker_right(mu_p, t)

        U1, U2, U3, U4, V2 = map(canon, (
            vcomp_chain(lhs, pp_mu, a_t_t_pp),
            vcomp_chain(lhs, p_mu_t, a3_t),
            vcomp_chain(rhs, p_mu_t, a3_t),
            v_comp(rhs, mu_p_t),
            vcomp_chain(rhs, pp_mu, a_t_t_pp),
        ))
        assoc_ok = _paths_agree(unique_adjustment, (U1, U2, U3, U4), (U1, V2, U4))

        t_eta = whisker_left(t, eta)
        t_eta_t = v_comp(whisker_right(t_eta, t), whisker_right(runitor_inv(t), t))
        W1, W2, M = map(canon, (v_comp(lhs, t_eta_t), v_comp(rhs, t_eta_t), mu))
        unit_ok = _paths_agree(unique_adjustment, (W1, W2, M), (W1, M))

        return {"associativity_pasting": assoc_ok, "unit_pasting": unit_ok, "ok": assoc_ok and unit_ok}

    @_shared_builds()
    def pseudoalgebra(self) -> PolynomialPseudoalgebra:
        """The universe's product structure as a pseudoalgebra over this one."""
        return PolynomialPseudoalgebra(self, pi_structure(self.universe))


def _paths_agree(adjust, lhs: tuple, rhs: tuple) -> bool:
    """Whether two paths of nodes with common ends paste to the same vertex
    map, each edge being the adjustment ``adjust`` between consecutive nodes."""

    def paste(path):
        return reduce(lambda acc, edge: adj_vcomp(edge, acc), map(adjust, path, path[1:])).alpha

    return paste(lhs) == paste(rhs)


def monad_law_cells(eta: PolyMorphism, mu: PolyMorphism) -> dict:
    """The composite cells entering the three monad laws, with the unitor
    isos absorbed so that each law compares parallel cells.  They are built
    from ``eta`` and ``mu`` on the carrier ``mu.dst``."""
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
    return PolynomialPseudomonad(unit_structure(u), sigma_structure(u), u)


# ---------------------------------------------------------------------------
# Pseudoalgebra assembly (in the arrow 2-category)
# ---------------------------------------------------------------------------


class PolynomialPseudoalgebra(_Record, fields=("monad", "zeta")):
    """The pseudoalgebra of a universe's product structure over its
    pseudomonad, in the arrow 2-category, built with only ``zeta``.  The
    squares, the two law adjustments and the strictness flags are built on
    first read, each in one table of shared builds, and kept; a flag
    compares its law's two squares.  Its carrier is its monad's."""

    @_lazy
    @_shared_builds()
    def squares(self) -> dict:
        """``z``, zeta as a square; ``h_p`` and ``m_p``, the unit and
        multiplication squares at p; and ``Tz``, the lift of ``z``."""
        z = square_of_cell(self.zeta)
        h_p, m_p = lift_unit_mult(self.monad.eta, self.monad.mu, self.monad.universe.p)
        return {"z": z, "h_p": h_p, "m_p": m_p, "Tz": lift_apply_square(self.carrier, z)}

    @_lazy
    def _laws(self) -> tuple:
        """Each law's two sides as squares: associativity, then unit."""
        z, h_p, m_p, Tz = self.squares.values()
        return (z.after(Tz), z.after(m_p)), (z.after(h_p), Square.identity(self.monad.universe.p))

    @_lazy
    @_shared_builds()
    def _adjustments(self) -> tuple:
        """Each law's unique adjustment, kept whether or not it is invertible."""
        return tuple([unique_adjustment(cell_of_square(x), cell_of_square(y)) for x, y in self._laws])

    @_lazy
    def _strict(self) -> tuple:
        return tuple([x == y for x, y in self._laws])

    carrier = property(lambda self: self.monad.carrier)
    sigma_adj = property(lambda self: self._adjustments[0])
    tau_adj = property(lambda self: self._adjustments[1])
    strict_sigma = property(lambda self: self._strict[0])
    strict_tau = property(lambda self: self._strict[1])

    def is_strict(self) -> bool:
        return self.strict_sigma and self.strict_tau

    @_shared_builds()
    def pasting_report(self) -> dict:
        """The two coherence equations for the pseudoalgebra adjustments,
        checked as literal equalities of composite vertex maps between
        squares over the third and first powers of the carrier; each square
        is made a cell once, and each edge is the unique adjustment between
        consecutive cells."""
        z, h_p, m_p, Tz = self.squares.values()
        (zTz, zm_p), _ = self._laws
        t = self.carrier
        _, m_Tp = lift_unit_mult(self.monad.eta, self.monad.mu, m_p.dst)
        TTz = lift_apply_square(t, Tz)
        Tm_p = lift_apply_square(t, m_p)
        Th_p = lift_apply_square(t, h_p)

        X1, X2, X3, X4, X6, X5 = map(cell_of_square, (
            zTz.after(TTz),
            zTz.after(Tm_p),
            zm_p.after(Tm_p),
            zm_p.after(m_Tp),
            zm_p.after(TTz),
            zTz.after(m_Tp),
        ))
        assoc_ok = _paths_agree(unique_adjustment, (X1, X2, X3, X4), (X1, X6, X5, X4))

        Y1, Y2, Z = map(cell_of_square, (zTz.after(Th_p), zm_p.after(Th_p), z))
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


@_shared_builds()
def verify_type_isos(u: Universe) -> dict:
    """Exhaustively build both sides of the five type isomorphisms for every
    choice of codes and code families, with explicit bijections.

    Returns per-row instance counts, failures, and how many instances were
    strict equalities of codes (with identity bijections).
    """
    _checked(u)
    names = ("sum-associativity", "sum-right-unit", "sum-left-unit", "product-currying", "product-left-unit")
    rows = {row: [] for row in names}

    def record(row, lhs_code, rhs_code, table: dict):
        """An instance: ``table`` maps the terms of ``lhs_code`` to those of ``rhs_code``."""
        bij = FinMap(u.term_fibre(lhs_code), u.term_fibre(rhs_code), table)
        ok = bij.is_bijection()
        strict = lhs_code == rhs_code and ok and bij == FinMap.identity(bij.dom)
        rows[row].append({"ok": ok, "strict": strict, "lhs": lhs_code, "rhs": rhs_code})

    for A in u.codes:
        # sum right unit: pairs with the unit over A against A itself
        bt = section_tuple({x: u.unit_code for x in u.el.fibre(A)})
        lhs, unp = u.sigma_code(A, bt), u.pairing(A, bt).inverse()
        record("sum-right-unit", lhs, A, {z: unp(z)[0] for z in u.term_fibre(lhs)})

        # sum left unit: pairs over the unit against A
        bt1 = section_tuple({u.star[1]: A})
        lhs1, unp1 = u.sigma_code(u.unit_code, bt1), u.pairing(u.unit_code, bt1).inverse()
        record("sum-left-unit", lhs1, A, {z: unp1(z)[1] for z in u.term_fibre(lhs1)})

        # product left unit: sections over the unit against A
        lhs2, unl = u.pi_code(u.unit_code, bt1), u.lam(u.unit_code, bt1).inverse()
        record("product-left-unit", lhs2, A, {z: section_lookup(unl(z), u.star) for z in u.term_fibre(lhs2)})

        for btable in u.btables(A):
            bdict = dict(btable)
            sum_code = u.sigma_code(A, btable)
            pair_ab = u.pairing(A, btable)
            for ctable in u.btables(sum_code):
                cdict = dict(ctable)

                # nested sum on the left, sum over pairs on the right
                inner_tabs, inner_codes = {}, {}
                for x in u.el.fibre(A):
                    ys = u.el.fibre(bdict[x])
                    inner_tabs[x] = tab = section_tuple({y: cdict[pair_ab(((A, x), (bdict[x], y)))[1]] for y in ys})
                    inner_codes[x] = u.sigma_code(bdict[x], tab)
                lhs_code = u.sigma_code(A, section_tuple(inner_codes))
                unp_outer = u.pairing(A, section_tuple(inner_codes)).inverse()
                pair_rhs = u.pairing(sum_code, ctable)
                table = {}
                for z in u.term_fibre(lhs_code):
                    (xa, w) = unp_outer(z)
                    (yb, v) = u.pairing(bdict[xa[1]], inner_tabs[xa[1]]).inverse()(w)
                    table[z] = pair_rhs((pair_ab((xa, yb)), v))
                record("sum-associativity", lhs_code, u.sigma_code(sum_code, ctable), table)

                # nested product on the left, product over pairs on the right
                pi_inner_codes = {x: u.pi_code(bdict[x], inner_tabs[x]) for x in u.el.fibre(A)}
                lhs_pi = u.pi_code(A, section_tuple(pi_inner_codes))
                unlam_outer = u.lam(A, section_tuple(pi_inner_codes)).inverse()
                lam_rhs = u.lam(sum_code, ctable)
                table_pi = {}
                for z in u.term_fibre(lhs_pi):
                    flat = {}
                    for xa, w in unlam_outer(z):
                        for yb, v in u.lam(bdict[xa[1]], inner_tabs[xa[1]]).inverse()(w):
                            flat[pair_ab((xa, yb))] = v
                    table_pi[z] = lam_rhs(section_tuple(flat))
                record("product-currying", lhs_pi, u.pi_code(sum_code, ctable), table_pi)

    summary = {
        row: {
            "checked": len(entries),
            "failures": [e for e in entries if not e["ok"]],
            "strict": sum(1 for e in entries if e["strict"]),
            "nonidentity": sum(1 for e in entries if e["ok"] and not e["strict"]),
        }
        for row, entries in rows.items()
    }
    summary["ok"] = all(not v["failures"] for v in summary.values())
    summary["total_checked"] = sum(map(len, rows.values()))
    return summary
