"""Seeded verification suites.

Each suite runs a family of law checks over generated instances and
returns a ``Report``: one record per check carrying the law identifier,
an instance descriptor, and a pass/fail/skip status.  Reports are a pure
function of (suite, config), so rerunning with the same seed yields a
byte-identical serialisation.  ``run_suite`` runs the suite inside
``enumeration_cap(cfg.enumeration_cap)``, the suites' only size limit; it
covers every enumeration, structure cells included.  Composites multiply
sizes, so ``extension-composition``, ``bicategory-laws`` and ``coherence``
run each draw under ``min(cfg.enumeration_cap, _DRAW_CAP)`` (3000).  An
instance over the cap becomes a skip and the suite goes on; a skipped draw
is ``attempt<n>``, with the size and the cap in its detail.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from .finset import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    FamilyMorphism,
    FinMap,
    Square,
    enumeration_cap,
)
from .poly import (
    PolyError,
    compose,
    compose_direct,
    extend,
    extend_map,
    extension_composition_iso,
    slice_reduce,
    slice_unreduce,
    _shared_builds,
)
from .poly2 import (
    Adjustment,
    AdjustmentError,
    codiscreteness_check,
    extend_cell,
    identity_cell,
    pentagon_check,
    slice_reduce_cell,
    slice_unreduce_cell,
    triangle_check,
    unique_adjustment,
    v_comp,
    h_comp,
)
from .internalcat import (
    InternalCatError,
    adjustment_to_nat,
    all_internal_nat_trans,
    equivalence_sets,
    internal_full_subcat,
    internal_functor,
    nat_to_adjustment,
)
from .naturalmodel import (
    LiftedEndofunctor,
    Universe,
    UniverseError,
    cell_of_square,
    lift_apply,
    lift_apply_square,
    lift_unit_mult,
    mk_bool_universe,
    mk_skewed_universe,
    pi_structure,
    pseudomonad_from,
    sigma_structure,
    unit_structure,
    validate_universe,
    verify_type_isos,
)
from . import generators as gen


LAWS = {
    "extension-composite-bijection": "the composite's extension and the composed extensions are in bijection, round-tripping to the identity on every fibre",
    "extension-composite-naturality": "the composite bijection commutes with every fibrewise map of families",
    "composite-matches-direct": "the pullback-and-product composite equals the element-level composite exactly",
    "trace-revalidates": "every square recorded by composition satisfies the pullback universal property",
    "unique-adjustment": "exhaustive search finds exactly one adjustment into a cartesian morphism, equal to the closed form",
    "pentagon": "both reassociation composites of a fourfold composite agree as maps",
    "triangle": "the unitor triangle commutes as maps",
    "local-codiscreteness": "between a parallel pair with cartesian target there is exactly one adjustment",
    "corrupted-adjustment-rejected": "an adjustment with a broken triangle over the arities is refused",
    "internal-category-laws": "unit and associativity laws of the internal full subcategory hold by enumeration",
    "internal-functor-composition": "the internal functor of a composite is the composite of the internal functors",
    "internal-fully-faithful": "induced internal functors are bijective on hom fibres",
    "adjustment-nat-roundtrip": "transposes between adjustments and internal natural transformations invert each other",
    "internal-nt-unique": "exhaustive search finds exactly one internal natural transformation between induced functors",
    "four-way-equivalence": "the four descriptions of an adjustment select the same candidate maps",
    "universe-validates": "unit, sum and product squares of the universe are pullbacks",
    "monad-structure-cartesian": "the unit, sum and product structure cells validate and are cartesian",
    "strictness-profile": "the universe's monad laws are strict or pseudo exactly as expected",
    "pseudomonad-pasting": "both pasting composites of the pseudomonad coherence equations agree as maps",
    "pseudoalgebra-pasting": "both pasting composites of the pseudoalgebra coherence equations agree as maps",
    "corrupted-universe-rejected": "a universe with a broken sum fibre is refused",
    "type-isomorphisms": "all five type isomorphism rows hold as explicit bijections",
    "lift-identity": "the lifted endofunctor preserves identity squares",
    "lift-composition": "the lifted endofunctor preserves composition of squares",
    "lift-preserves-pullbacks": "the lifted endofunctor sends pullback squares to pullback squares",
    "lift-unit-mult-squares": "the unit and multiplication components are pullback squares",
    "lift-naturality": "unit and multiplication components are natural in cartesian squares",
    "lift-monad-laws": "the lifted unit and multiplication satisfy the monad laws up to unique invertible adjustments",
    "slice-roundtrip": "reduction to the slice and back is the identity on polynomials and morphisms",
    "slice-cartesian-iff": "reduction preserves and reflects cartesianness",
    "slice-functorial": "reduction commutes with vertical composition, fibre by fibre",
    "slice-adjustment-identity": "reduction leaves adjustment data unchanged",
    "extension-functorial": "extensions of composites of morphisms are composites of extensions",
    "vcomp-associative": "extending either bracketing of a threefold vertical composite of 2-cells gives the same family morphism",
    "extension-identity": "the extension of an identity morphism is the identity",
    "hcomp-extension": "the extension of a horizontal composite matches the horizontal composite of extensions",
    "cartesian-naturality-pullback": "naturality squares of cartesian morphisms' extensions are pullbacks",
}


class UnknownSuiteError(Exception):
    pass


class UnregisteredLawError(ValueError):
    """A suite recorded a check under a law id that is not a key of ``LAWS``."""


@dataclass(frozen=True)
class InstanceGenConfig:
    seed: int = 0
    count: int = 20
    max_set_size: int = 3
    enumeration_cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.count <= 0 or self.max_set_size <= 0 or self.enumeration_cap <= 0:
            raise ValueError("configuration bounds must be positive")

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "max_set_size": self.max_set_size,
            "enumeration_cap": self.enumeration_cap,
        }


@dataclass
class Report:
    suite: str
    config: InstanceGenConfig
    records: list = field(default_factory=list)

    def check(self, law: str, instance: str, ok: bool, detail: str = ""):
        self._record(law, instance, "pass" if ok else "fail", detail)

    def skip(self, law: str, instance: str, detail: str):
        self._record(law, instance, "skip", detail)

    def _record(self, law: str, instance: str, status: str, detail: str):
        if law not in LAWS:
            raise UnregisteredLawError(f"unregistered law {law!r}")
        self.records.append({"law": law, "instance": instance, "status": status, "detail": detail})

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r["status"] == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["status"] == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.records if r["status"] == "skip")

    def exit_code(self) -> int:
        if self.records and all(r["status"] == "skip" for r in self.records):
            return 3
        return 0 if self.failed == 0 else 1

    def to_jsonable(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config.to_jsonable(),
            "records": self.records,
            "summary": {
                "passed": self.passed,
                "failed": self.failed,
                "skipped": self.skipped,
                "total": len(self.records),
            },
        }


# composites multiply sizes, so one draw can outgrow the run's cap
_DRAW_CAP = 3000


@contextmanager
def _skip_over_cap(rep: Report, name: str, law: str):
    """Run one instance's checks in one table of builds, or in the run's if
    one is open; over the cap, their records move to ``name`` and a skip
    under ``law`` follows.  The block records ``law`` after its last
    enumeration, so no law is both checked and skipped for one instance."""
    mark = len(rep.records)
    try:
        with _shared_builds():
            yield
    except EnumerationCapExceeded as exc:
        for r in rep.records[mark:]:
            r["instance"] = name
        rep.skip(law, name, str(exc))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_extension_composition(cfg: InstanceGenConfig) -> Report:
    rep = Report("extension-composition", cfg)
    rng = random.Random(cfg.seed)
    made, attempts = 0, 0
    while made < cfg.count and attempts < cfg.count * 60:
        attempts += 1
        F, G = gen.rand_composable_pair(rng, cfg.max_set_size)
        families = [gen.rand_family(rng, F.I, cfg.max_set_size, prefix=f"x{k}") for k in range(3)]
        inst = f"pair{made}"
        with (_skip_over_cap(rep, f"attempt{attempts}", "extension-composite-bijection"),
              enumeration_cap(min(cfg.enumeration_cap, _DRAW_CAP))):
            GF, trace = compose(G, F)
            try:
                trace.validate(G, F)
            except PolyError as exc:
                rep.check("trace-revalidates", inst, False, str(exc))
                made += 1
                continue
            rep.check("trace-revalidates", inst, True)
            rep.check("composite-matches-direct", inst, GF == compose_direct(G, F))
            ok_bij, ok_nat = True, True
            for X in families:
                fwd, bwd = extension_composition_iso(G, F, X)
                for k in G.J:
                    ident = FinMap.identity(fwd.src.fibre(k))
                    if bwd.at(k).after(fwd.at(k)) != ident:
                        ok_bij = False
                    ident2 = FinMap.identity(fwd.dst.fibre(k))
                    if fwd.at(k).after(bwd.at(k)) != ident2:
                        ok_bij = False
                for _ in range(2):
                    h = gen.rand_family_morphism(rng, X, cfg.max_set_size)
                    fwd2, _ = extension_composition_iso(G, F, h.dst)
                    lhs = fwd2.after(extend_map(GF, h))
                    rhs = extend_map(G, extend_map(F, h)).after(fwd)
                    if lhs != rhs:
                        ok_nat = False
            rep.check("extension-composite-bijection", inst, ok_bij)
            rep.check("extension-composite-naturality", inst, ok_nat)
            made += 1
    return rep


def suite_unique_adjustment(cfg: InstanceGenConfig) -> Report:
    rep = Report("unique-adjustment", cfg)
    rng = random.Random(cfg.seed)
    for n in range(cfg.count):
        phi, psi = gen.rand_parallel_pair(rng, cfg.max_set_size, max_vertex=4)
        with _skip_over_cap(rep, f"pair{n}", "unique-adjustment"):
            cd = codiscreteness_check(phi, psi)
            rep.check("unique-adjustment", f"pair{n}", cd["ok"], f"found={cd['count']}")
    return rep


def suite_coherence(cfg: InstanceGenConfig) -> Report:
    rep = Report("coherence", cfg)
    rng = random.Random(cfg.seed)
    made, attempts = 0, 0
    quad_size = min(cfg.max_set_size, 2)
    while made < cfg.count and attempts < cfg.count * 60:
        attempts += 1
        quad = [gen.rand_polynomial(rng, quad_size, one_to_one=True) for _ in range(4)]
        f, g, h, k = quad
        inst = f"quad{made}"
        with (_skip_over_cap(rep, f"attempt{attempts}", "local-codiscreteness"),
              enumeration_cap(min(cfg.enumeration_cap, _DRAW_CAP))):
            rep.check("pentagon", inst, pentagon_check(f, g, h, k)["ok"])
            rep.check("triangle", inst, triangle_check(f, g)["ok"])
            phi, psi = gen.rand_parallel_pair(rng, cfg.max_set_size, max_vertex=4)
            cd = codiscreteness_check(phi, psi)
            rep.check("local-codiscreteness", inst, cd["ok"], f"count={cd['count']}")
            made += 1
    # negative control: swap the image of phi's first vertex element with
    # another element of psi's vertex; psi is cartesian, so the triangle breaks
    ctl = random.Random(cfg.seed + 1)
    for _ in range(60):
        phi, psi = gen.rand_parallel_pair(ctl, cfg.max_set_size, max_vertex=4)
        if phi.dphi and len(psi.dphi) >= 2:
            break
    else:
        rep.skip("corrupted-adjustment-rejected", "control", "no pair to corrupt in 60 draws")
        return rep
    good = unique_adjustment(phi, psi)
    hit = good.alpha(phi.dphi.elements[0])
    other = next(e for e in psi.dphi if e != hit)
    swap = {hit: other, other: hit}
    bad = FinMap(phi.dphi, psi.dphi, {e: swap.get(good.alpha(e), good.alpha(e)) for e in phi.dphi})
    rejected = False
    try:
        Adjustment(phi, psi, bad)
    except AdjustmentError:
        rejected = True
    rep.check("corrupted-adjustment-rejected", "control", rejected)
    return rep


def suite_internal_equiv(cfg: InstanceGenConfig) -> Report:
    rep = Report("internal-equiv", cfg)
    rng = random.Random(cfg.seed)
    made, attempts = 0, 0
    while made < cfg.count and attempts < cfg.count * 80:
        attempts += 1
        try:
            phi, psi = gen.rand_parallel_cartesian_pair(rng, min(cfg.max_set_size, 2))
        except RuntimeError:
            continue
        inst = f"inst{made}"
        with _skip_over_cap(rep, f"attempt{attempts}", "four-way-equivalence"):
            try:
                cat = internal_full_subcat(phi.src.f)
            except InternalCatError as exc:
                rep.check("internal-category-laws", inst, False, str(exc))
                made += 1
                continue
            rep.check("internal-category-laws", inst, True, f"morphisms={len(cat.mor)}")
            F, Gf = internal_functor(phi), internal_functor(psi)
            rep.check("internal-fully-faithful", inst, F.is_fully_faithful() and Gf.is_fully_faithful())
            chi = gen.rand_morphism(
                rng, min(cfg.max_set_size, 2), cartesian=True,
                target=gen.rand_polynomial(rng, min(cfg.max_set_size, 2), one_to_one=True),
            )
            outer = gen.rand_morphism(rng, min(cfg.max_set_size, 2), cartesian=True, target=chi.src)
            lhs = internal_functor(v_comp(chi, outer))
            rep.check("internal-functor-composition", inst, lhs == internal_functor(chi).after(internal_functor(outer)))
            alpha = unique_adjustment(phi, psi)
            nat = adjustment_to_nat(alpha)
            back = nat_to_adjustment(nat, phi, psi)
            rep.check("adjustment-nat-roundtrip", inst, back.alpha == alpha.alpha)
            count = len(all_internal_nat_trans(F, Gf))
            rep.check("internal-nt-unique", inst, count == 1, f"count={count}")
            sets = equivalence_sets(phi, psi)
            same = sets["natural"] == sets["component"] == sets["conjugate"] == sets["over_b"]
            rep.check("four-way-equivalence", inst, same and len(sets["over_b"]) == 1)
            made += 1
    return rep


def _universe_instances(cfg: InstanceGenConfig) -> list[tuple[str, Universe, str]]:
    rng = random.Random(cfg.seed)
    out = [
        ("bool", mk_bool_universe(), "strict"),
        ("skewed", mk_skewed_universe(), "right-unit-broken"),
    ]
    for n in range(max(0, cfg.count - 2)):
        out.append((f"random{n}", gen.rand_universe(rng, cfg.max_set_size + 1), "any"))
    return out


def suite_pseudomonad(cfg: InstanceGenConfig) -> Report:
    rep = Report("pseudomonad", cfg)
    for name, u, profile in _universe_instances(cfg):
        problems = validate_universe(u)
        rep.check("universe-validates", name, not problems, "; ".join(problems))
        if problems:
            continue
        with _skip_over_cap(rep, name, "pseudomonad-pasting"):
            eta = unit_structure(u)
            mu = sigma_structure(u)
            zeta = pi_structure(u)
            rep.check(
                "monad-structure-cartesian", name,
                eta.is_cartesian() and mu.is_cartesian() and zeta.is_cartesian(),
            )
            pm = pseudomonad_from(u)
            invertible = (
                pm.assoc.is_invertible()
                and pm.left_unit.is_invertible()
                and pm.right_unit.is_invertible()
            )
            if profile == "strict":
                ok = invertible and pm.is_strict_monad() and pm.right_unit.is_identity()
            elif profile == "right-unit-broken":
                ok = invertible and not pm.strict_right and not pm.right_unit.is_identity()
            else:
                ok = invertible
            rep.check("strictness-profile", name, ok, f"strict={pm.is_strict_monad()}")
            rep.check("pseudomonad-pasting", name, pm.pasting_report()["ok"])
    # negative control: corrupt the sum table of the two-code universe
    u = mk_bool_universe()
    broken_sigma = {k: ("code0" if v == "code1" else v) for k, v in u.sigma}
    rejected = False
    try:
        bad = Universe(u.codes, u.el, u.unit_code, broken_sigma, dict(u.pi))
        sigma_structure(bad)
    except UniverseError:
        rejected = True
    rep.check("corrupted-universe-rejected", "control", rejected)
    return rep


def _validates(rep: Report, name: str, u: Universe) -> bool:
    """Whether ``u`` validates; if not, a failed ``universe-validates`` record
    with the problems says so, and the suite goes on to the next universe."""
    problems = validate_universe(u)
    if problems:
        rep.check("universe-validates", name, False, "; ".join(problems))
    return not problems


def suite_pseudoalgebra(cfg: InstanceGenConfig) -> Report:
    rep = Report("pseudoalgebra", cfg)
    for name, u, profile in _universe_instances(cfg):
        if not _validates(rep, name, u):
            continue
        with _skip_over_cap(rep, name, "pseudoalgebra-pasting"):
            alg = pseudomonad_from(u).pseudoalgebra()
            invertible = alg.sigma_adj.is_invertible() and alg.tau_adj.is_invertible()
            if profile == "strict":
                ok = invertible and alg.is_strict()
            elif profile == "right-unit-broken":
                ok = invertible and not alg.strict_tau and not alg.tau_adj.is_identity()
            else:
                ok = invertible
            rep.check("strictness-profile", name, ok, f"strict={alg.is_strict()}")
            rep.check("pseudoalgebra-pasting", name, alg.pasting_report()["ok"])
    return rep


def suite_type_isos(cfg: InstanceGenConfig) -> Report:
    rep = Report("type-isos", cfg)
    for name, u, profile in _universe_instances(cfg):
        if not _validates(rep, name, u):
            continue
        with _skip_over_cap(rep, name, "type-isomorphisms"):
            summary = verify_type_isos(u)
            ok = summary["ok"]
            if profile == "strict":
                ok = ok and all(
                    v["nonidentity"] == 0 for k, v in summary.items() if isinstance(v, dict)
                )
            if profile == "right-unit-broken":
                ok = ok and any(
                    v["nonidentity"] > 0 for k, v in summary.items() if isinstance(v, dict)
                )
            rep.check("type-isomorphisms", name, ok, f"checked={summary['total_checked']}")
    return rep


def suite_lift(cfg: InstanceGenConfig) -> Report:
    rep = Report("lift", cfg)
    rng = random.Random(cfg.seed)
    # instance n draws universe n % 2, so a count-1 run builds only ``bool``
    universes = [mk() for mk in (mk_bool_universe, mk_skewed_universe)[:cfg.count]]
    # the universes are fixed, so one table serves the whole run: eta, mu and
    # each P_p(Z) are built once per universe
    with _shared_builds():
        for n in range(cfg.count):
            u = universes[n % 2]
            P = LiftedEndofunctor(u.p)
            inst = f"sq{n}"
            sq = gen.rand_cartesian_square(rng, cfg.max_set_size)
            with _skip_over_cap(rep, inst, "lift-monad-laws"):
                eta, mu = unit_structure(u), sigma_structure(u)
                f = sq.src
                Pid = lift_apply_square(P, Square.identity(f))
                rep.check("lift-identity", inst, Pid == Square.identity(lift_apply(P, f)))
                sq2 = gen.rand_cartesian_square(rng, cfg.max_set_size, dst=sq.src)
                lhs = lift_apply_square(P, sq.after(sq2))
                Psq = lift_apply_square(P, sq)
                rep.check("lift-composition", inst, lhs == Psq.after(lift_apply_square(P, sq2)))
                rep.check("lift-preserves-pullbacks", inst, Psq.is_pullback())
                h_f, m_f = lift_unit_mult(P, eta, mu, f)
                pullbacks = h_f.is_pullback() and m_f.is_pullback()
                rep.check("lift-unit-mult-squares", inst, pullbacks)
                h_g, m_g = lift_unit_mult(P, eta, mu, sq.dst)
                nat_h = h_g.after(sq) == Psq.after(h_f)
                PPsq = lift_apply_square(P, Psq)
                nat_m = m_g.after(PPsq) == Psq.after(m_f)
                rep.check("lift-naturality", inst, nat_h and nat_m)
                Pf = lift_apply(P, f)
                h_Pf, m_Pf = lift_unit_mult(P, eta, mu, Pf)
                Pm_f = lift_apply_square(P, m_f)
                Ph_f = lift_apply_square(P, h_f)
                # the laws' cells are built from those pullback squares
                laws = pullbacks and all(
                    unique_adjustment(cell_of_square(lhs_sq), cell_of_square(rhs_sq)).is_invertible()
                    for lhs_sq, rhs_sq in (
                        (m_f.after(Pm_f), m_f.after(m_Pf)),
                        (m_f.after(h_Pf), Square.identity(Pf)),
                        (m_f.after(Ph_f), Square.identity(Pf)),
                    )
                )
                rep.check("lift-monad-laws", inst, laws)
    return rep


def suite_slice_reduction(cfg: InstanceGenConfig) -> Report:
    rep = Report("slice-reduction", cfg)
    rng = random.Random(cfg.seed)
    for n in range(cfg.count):
        inst = f"inst{n}"
        with _skip_over_cap(rep, inst, "slice-functorial"):
            F = gen.rand_polynomial(rng, cfg.max_set_size)
            S = slice_reduce(F)
            rep.check("slice-roundtrip", inst, slice_unreduce(S) == F)
            phi, psi = gen.rand_parallel_pair(rng, cfg.max_set_size, max_vertex=6)
            cells_phi = slice_reduce_cell(phi)
            cells_psi = slice_reduce_cell(psi)
            rep.check(
                "slice-roundtrip", inst + "-cell",
                slice_unreduce_cell(cells_phi) == phi and slice_unreduce_cell(cells_psi) == psi,
            )
            rep.check(
                "slice-cartesian-iff", inst,
                all(c.is_cartesian() for c in cells_phi.values()) == phi.is_cartesian()
                and all(c.is_cartesian() for c in cells_psi.values()) == psi.is_cartesian(),
            )
            alpha = unique_adjustment(phi, psi)
            ok_adj = True
            for z, fc_phi in cells_phi.items():
                fc_psi = cells_psi[z]
                restricted = FinMap(
                    fc_phi.dphi, fc_psi.dphi, {e: alpha.alpha(e) for e in fc_phi.dphi}
                )
                try:
                    Adjustment(fc_phi, fc_psi, restricted)
                except AdjustmentError:
                    ok_adj = False
            rep.check("slice-adjustment-identity", inst, ok_adj)
            outer = gen.rand_morphism(rng, cfg.max_set_size, target=None)
            inner = gen.rand_morphism(rng, cfg.max_set_size, target=outer.src)
            cells_comp = slice_reduce_cell(v_comp(outer, inner))
            cells_outer = slice_reduce_cell(outer)
            cells_inner = slice_reduce_cell(inner)
            ok_fun = all(cells_comp[z] == v_comp(cells_outer[z], cells_inner[z]) for z in cells_comp)
            rep.check("slice-functorial", inst, ok_fun)
    return rep


def suite_bicategory_laws(cfg: InstanceGenConfig) -> Report:
    rep = Report("bicategory-laws", cfg)
    rng = random.Random(cfg.seed)
    made, attempts = 0, 0
    while made < cfg.count and attempts < cfg.count * 60:
        attempts += 1
        inst = f"inst{made}"
        with (_skip_over_cap(rep, f"attempt{attempts}", "cartesian-naturality-pullback"),
              enumeration_cap(min(cfg.enumeration_cap, _DRAW_CAP))):
            outer = gen.rand_morphism(rng, cfg.max_set_size)
            inner = gen.rand_morphism(rng, cfg.max_set_size, target=outer.src)
            X = gen.rand_family(rng, inner.src.I, cfg.max_set_size)
            comp = v_comp(outer, inner)
            lhs = extend_cell(comp, X)
            rhs = extend_cell(outer, X).after(extend_cell(inner, X))
            rep.check("extension-functorial", inst, lhs == rhs)
            third = gen.rand_morphism(rng, cfg.max_set_size, target=inner.src)
            assoc_lhs = extend_cell(v_comp(v_comp(outer, inner), third), X)
            assoc_rhs = extend_cell(v_comp(outer, v_comp(inner, third)), X)
            rep.check("vcomp-associative", inst, assoc_lhs == assoc_rhs)
            ident = extend_cell(identity_cell(inner.src), X)
            rep.check("extension-identity", inst, ident == FamilyMorphism.identity(extend(inner.src, X)))
            phi = gen.rand_morphism(rng, min(cfg.max_set_size, 2), cartesian=True)
            psi = gen.rand_morphism(
                rng, min(cfg.max_set_size, 2), cartesian=True,
                target=gen.rand_polynomial(rng, min(cfg.max_set_size, 2), I=phi.src.J),
            )
            Y = gen.rand_family(rng, phi.src.I, min(cfg.max_set_size, 2))
            hc = h_comp(psi, phi)
            fwd_src, _ = extension_composition_iso(psi.src, phi.src, Y)
            _, bwd_dst = extension_composition_iso(psi.dst, phi.dst, Y)
            inner_nat = extend_map(psi.src, extend_cell(phi, Y))
            outer_nat = extend_cell(psi, extend(phi.dst, Y))
            composite = bwd_dst.after(outer_nat.after(inner_nat)).after(fwd_src)
            rep.check("hcomp-extension", inst, extend_cell(hc, Y) == composite)
            hmorph = gen.rand_family_morphism(rng, Y, min(cfg.max_set_size, 2))
            cells = extend_cell(phi, Y)
            cells2 = extend_cell(phi, hmorph.dst)
            ok_pb = True
            for j in phi.src.J:
                sq = Square(
                    extend_map(phi.src, hmorph).at(j),
                    extend_map(phi.dst, hmorph).at(j),
                    cells.at(j),
                    cells2.at(j),
                )
                if not sq.is_pullback():
                    ok_pb = False
            rep.check("cartesian-naturality-pullback", inst, ok_pb)
            made += 1
    return rep


SUITES = {
    "extension-composition": suite_extension_composition,
    "unique-adjustment": suite_unique_adjustment,
    "coherence": suite_coherence,
    "internal-equiv": suite_internal_equiv,
    "pseudomonad": suite_pseudomonad,
    "pseudoalgebra": suite_pseudoalgebra,
    "type-isos": suite_type_isos,
    "lift": suite_lift,
    "slice-reduction": suite_slice_reduction,
    "bicategory-laws": suite_bicategory_laws,
}


def run_suite(name: str, cfg: InstanceGenConfig) -> Report:
    try:
        fn = SUITES[name]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        ) from None
    with enumeration_cap(cfg.enumeration_cap):
        return fn(cfg)
