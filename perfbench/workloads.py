"""The benchmark's three workloads.

Each workload is built from a seed by ``setup`` and is a fixed list of
ops.  An op is one instance's checks: ``run`` makes the calls into
``polyverse`` that a user would wait for and returns the verdict as JSON
data, and ``judge`` compares that verdict with its known answer outside the
timed region.  Every call goes through a module attribute (``poly2.h_comp``,
not a name imported into this file), so the traced run sees it.

Instances are drawn with the library's own generators and then kept only
inside fixed size bands, so that every seed asks for about the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from polyverse import cli, generators as gen, interchange, naturalmodel as nm, poly, poly2, suites


@dataclass
class Op:
    id: str
    run: Callable[[], dict]
    # verdict -> (law-check verdicts completed, problems found); no problems
    # means the verdict is the known answer
    judge: Callable[[dict], tuple]


def instance_op(name: str, parts: list) -> Op:
    """One instance's checks as one op: its parts run in order, and its
    verdict holds each part's under the part's id."""

    def run():
        return {part.id: part.run() for part in parts}

    def judge(verdict: dict) -> tuple:
        checks, problems = 0, []
        for part in parts:
            c, p = part.judge(verdict[part.id])
            checks += c
            problems += [f"{part.id}: {problem}" for problem in p]
        return checks, problems

    return Op(name, run, judge)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_digest(verdict: dict) -> str:
    return sha256(json.dumps(verdict, sort_keys=True))


# ---------------------------------------------------------------------------
# coherence: criterion-3 checks on quads from the suite's generator
# ---------------------------------------------------------------------------

# The quads of the criterion-3 acceptance config (coherence suite, seed 11,
# count 20), as arity profiles of f, g, h, k, with its one giant (quad8:
# |A4| = 257, |B4| = 2048, over 60 s alone) replaced by the first two quads
# after it in the same stream with 81 <= |A4| <= 101.  |A4| and |B4| are the
# operation and arity counts of the fourfold composite k.h.g.f.  The seed
# draws the polynomials; the profiles fix their shape, so every seed asks
# for the same work.
LIGHT_QUADS = (
    ((0, 1), (2,), (2,), (1,)),
    ((0,), (0,), (0, 1), (2,)),
    ((0,), (1,), (1,), (2,)),
    ((0,), (0,), (0, 1), (2,)),
    ((0,), (0, 0), (1,), (0, 1)),
    ((2,), (2,), (2,), (2,)),
    ((2,), (0, 1), (0,), (0, 0)),
    ((0,), (2,), (1, 1), (0,)),
    ((1, 1), (0, 1), (2,), (1, 1)),
    ((0,), (1,), (1, 1), (2,)),
    ((0, 1), (2,), (0, 1), (0,)),
    ((1,), (1,), (0, 1), (0, 2)),
    ((0,), (0, 0), (0, 1), (0, 0)),
    ((0, 1), (1, 1), (2,), (1, 1)),
    ((0, 0), (0, 2), (0,), (0,)),
    ((2,), (1, 1), (0, 2), (1,)),
    ((0, 0), (0,), (0,), (0, 1)),
    ((2,), (0, 1), (0, 0), (2,)),
    ((0, 1), (0, 0), (0,), (0, 1)),
)
MID_QUADS = (
    ((0, 0), (0, 1), (0, 2), (2,)),
    ((0, 0), (0, 1), (2,), (0, 2)),
)
# The light shapes are drawn twice, so that a pass has 40 ops and op_tail_ms
# can be p75 (ten ops beyond it).
COHERENCE_QUADS = tuple(("mid", q) for q in MID_QUADS) + tuple(("light", q) for q in LIGHT_QUADS * 2)
MAX_POLY_DRAWS = 1000
# The codiscreteness search tries |psi.dphi| ** |phi.dphi| maps; pairs are
# kept at 3 and 3 vertex elements (27 candidates) so that its cost does not
# swing between 1 and 256 candidates from seed to seed.
PAIR_SHAPE = (3, 3)


def _arities(P) -> tuple:
    return tuple(sorted(len(P.f.preimage(a)) for a in P.A))


def _eval(arities, x: int) -> int:
    return sum(x ** n for n in arities)


def _deriv(arities, x: int) -> int:
    return sum(n * x ** (n - 1) for n in arities if n)


def fourfold_sizes(f, g, h, k) -> tuple:
    """|A| and |B| of k.h.g.f, read off the arities: a one-to-one
    polynomial is a power series, so the composite's operations are its
    value at 1 and its arities the derivative there (chain rule)."""
    af, ag, ah, ak = (_arities(P) for P in (f, g, h, k))
    x1 = _eval(af, 1)
    x2 = _eval(ag, x1)
    x3 = _eval(ah, x2)
    return _eval(ak, x3), _deriv(ak, x3) * _deriv(ah, x2) * _deriv(ag, x1) * _deriv(af, 1)


def draw_quads(seed: int, quads=COHERENCE_QUADS) -> list:
    """Quads drawn as the coherence suite draws them (one-to-one
    polynomials with sets of at most 2), each polynomial redrawn until it
    has its place's arity profile."""
    rng = random.Random(seed)
    kept = []
    for band, profile in quads:
        quad = []
        for arities in profile:
            for _ in range(MAX_POLY_DRAWS):
                P = gen.rand_polynomial(rng, 2, one_to_one=True)
                if _arities(P) == arities:
                    quad.append(P)
                    break
            else:
                raise RuntimeError(f"seed {seed}: no polynomial with arities {arities}")
        kept.append((f"{band}{len(kept)}", quad, fourfold_sizes(*quad)))
    return kept


def draw_pair(rng: random.Random) -> tuple:
    for _ in range(MAX_POLY_DRAWS):
        phi, psi = gen.rand_parallel_pair(rng, 3, max_vertex=4)
        if (len(phi.dphi), len(psi.dphi)) == PAIR_SHAPE:
            return phi, psi
    raise RuntimeError(f"no parallel pair of shape {PAIR_SHAPE}")


def _coherence_judge(verdict: dict) -> tuple:
    problems = [law for law in ("pentagon", "triangle", "codiscreteness") if not verdict[law]["ok"]]
    return 3, problems


def setup_coherence(seed: int, workdir: str) -> list:
    pair_rng = random.Random(seed + 1_000_003)
    ops = []
    for name, quad, sizes in draw_quads(seed):
        phi, psi = draw_pair(pair_rng)
        inputs = sha256(interchange.dumps({
            "quad": [interchange.polynomial_to_json(P) for P in quad],
            "pair": [interchange.morphism_to_json(phi), interchange.morphism_to_json(psi)],
        }))

        def run(quad=quad, phi=phi, psi=psi, name=name, sizes=sizes, inputs=inputs):
            f, g, h, k = quad
            return {
                "instance": name,
                "sizes": list(sizes),
                "inputs": inputs,
                "pentagon": poly2.pentagon_check(f, g, h, k, 3000),
                "triangle": poly2.triangle_check(f, g, 3000),
                "codiscreteness": poly2.codiscreteness_check(phi, psi),
            }

        ops.append(Op(name, run, _coherence_judge))
    return ops


# ---------------------------------------------------------------------------
# sweep: one-instance suite runs at their acceptance max sizes
# ---------------------------------------------------------------------------

SWEEP_SUITES = (
    ("extension-composition", 3),
    ("unique-adjustment", 3),
    ("internal-equiv", 2),
    ("lift", 2),
    ("slice-reduction", 3),
)
# An op is one round: two instances of each of the five suites.  A single
# suite run costs from 0.3 to 60 ms, and which of them sat at the median of
# a pass moved op_p50_ms by a third from seed to seed; a round sums ten
# and its cost varies far less, in the tail too.
SWEEP_ROUNDS = 50
SWEEP_PER_ROUND = 2
# Suite seeds are kept by the size class of the instance the suite will
# draw, so that every seed asks for about the same work:
# - an extension-composition instance costs about as many elements as its
#   extensions have, and those range over three orders of magnitude, so
#   only instances with 40 to 119 extension elements are kept;
# - an internal-equiv instance whose source has more than two arities costs
#   about eight times one with fewer, and one draw in eleven has them; only
#   the common class, at most two, is kept, so that rounds do not split
#   into two cost groups with op_p50_ms or op_tail_ms between them.
EXTENSION_BAND = range(40, 120)
INTERNAL_EQUIV_MAX_ARITIES = 2


def _composite_size(G, F) -> int:
    return sum(
        _product(sum(1 for a in F.A if F.t(a) == G.s(d)) for d in G.f.preimage(c)) for c in G.A
    )


def _extension_size(P, X) -> int:
    return sum(_product(len(X.fibre(P.s(b))) for b in P.f.preimage(a)) for a in P.A)


def _product(factors) -> int:
    out = 1
    for n in factors:
        out *= n
    return out


def extension_work(seed: int, size: int) -> int | None:
    """Extension elements of the first instance the extension-composition
    suite draws for ``seed``, replaying its draws; None when the composite
    would have more than 50 operations, far outside the band."""
    rng = random.Random(seed)
    F, G = gen.rand_composable_pair(rng, size)
    if _composite_size(G, F) > 50:
        return None
    GF, _ = poly.compose(G, F)
    work = 0
    for X in [gen.rand_family(rng, F.I, size, prefix=f"x{k}") for k in range(3)]:
        work += _extension_size(GF, X) + _extension_size(F, X)
        for _ in range(2):
            h = gen.rand_family_morphism(rng, X, size)
            work += _extension_size(GF, h.dst) + _extension_size(F, h.dst)
    return work


def internal_equiv_arities(seed: int, size: int) -> int | None:
    """|B| of the source of the first pair the internal-equiv suite keeps
    for ``seed``, replaying its draws; None if it keeps none."""
    rng = random.Random(seed)
    for _ in range(80):
        try:
            phi, _ = gen.rand_parallel_cartesian_pair(rng, min(size, 2))
        except RuntimeError:
            continue
        if len(phi.src.B) <= 4 and len(phi.dst.B) <= 4:
            return len(phi.src.B)
    return None


def _in_band(name: str, seed: int, size: int) -> bool:
    if name == "extension-composition":
        return extension_work(seed, size) in EXTENSION_BAND
    if name == "internal-equiv":
        arities = internal_equiv_arities(seed, size)
        return arities is not None and arities <= INTERNAL_EQUIV_MAX_ARITIES
    return True


def _sweep_seeds(seed: int, name: str, size: int) -> list:
    """The first ``SWEEP_ROUNDS * SWEEP_PER_ROUND`` suite seeds from
    ``seed * 1000`` on whose instance is in the suite's size band."""
    kept = []
    for s in range(seed * 1000, seed * 1000 + 1000):
        if _in_band(name, s, size):
            kept.append(s)
            if len(kept) == SWEEP_ROUNDS * SWEEP_PER_ROUND:
                return kept
    raise RuntimeError(f"seed {seed}: {name} size band not filled")


def _sweep_judge(verdict: dict) -> tuple:
    summary = verdict["summary"]
    problems = []
    if summary["failed"]:
        problems.append(f"{summary['failed']} law checks failed")
    if not summary["passed"]:
        problems.append("no law check passed")
    return summary["passed"] + summary["failed"], problems


def setup_sweep(seed: int, workdir: str) -> list:
    seeds = {name: _sweep_seeds(seed, name, size) for name, size in SWEEP_SUITES}
    ops = []
    for i in range(SWEEP_ROUNDS):
        parts = []
        for name, size in SWEEP_SUITES:
            for suite_seed in seeds[name][i * SWEEP_PER_ROUND:(i + 1) * SWEEP_PER_ROUND]:
                cfg = suites.InstanceGenConfig(seed=suite_seed, count=1, max_set_size=size)

                def run(name=name, cfg=cfg):
                    return suites.run_suite(name, cfg).to_jsonable()

                parts.append(Op(f"{name}/{suite_seed}", run, _sweep_judge))
        ops.append(instance_op(f"round{i}", parts))
    return ops


# ---------------------------------------------------------------------------
# models, first half: criteria 5 and 6 on built-in and random universes
# ---------------------------------------------------------------------------

# Random universes kept per number of codes, drawn as the suites draw them.
# A 2-code universe costs about 0.1 s and a 3-code one about 0.5 s; 4-code
# ones (2 s) are left out so that a pass stays short enough to repeat.
# The counts place the quantiles inside groups of ops of like cost: of the
# 40 ops of a pass, 11 are CLI and JSON ops on small inputs (under 10 ms),
# 14 are the 2-code universes, bool and the light quads (60-200 ms), and
# 15 are the 3-code universes, skewed and the mid quads (300-600 ms).  The
# median falls in the middle group and p75 (ten ops beyond it) five ops
# into the last.
UNIVERSE_BANDS = {2: 8, 3: 12}
MAX_UNIVERSE_DRAWS = 10_000


def _universe_run(u):
    def run():
        problems = nm.validate_universe(u)
        eta, mu, zeta = nm.unit_structure(u), nm.sigma_structure(u), nm.pi_structure(u)
        pm = nm.pseudomonad_from(u)
        pm_pasting = nm.pseudomonad_pasting_report(u)
        alg = nm.pseudoalgebra_from(u)
        pa_pasting = nm.pseudoalgebra_pasting_report(u)
        isos = nm.verify_type_isos(u)
        return {
            "problems": problems,
            "cartesian": eta.is_cartesian() and mu.is_cartesian() and zeta.is_cartesian(),
            "monad_invertible": pm.assoc.is_invertible() and pm.left_unit.is_invertible()
            and pm.right_unit.is_invertible(),
            "strict_monad": pm.is_strict_monad(),
            "strict_right": pm.strict_right,
            "right_unit_identity": pm.right_unit.is_identity(),
            "algebra_invertible": alg.sigma_adj.is_invertible() and alg.tau_adj.is_invertible(),
            "strict_algebra": alg.is_strict(),
            "strict_tau": alg.strict_tau,
            "tau_identity": alg.tau_adj.is_identity(),
            "pseudomonad_pasting": pm_pasting,
            "pseudoalgebra_pasting": pa_pasting,
            "type_isos": isos,
        }

    return run


def _universe_judge(profile: str):
    def judge(v: dict) -> tuple:
        rows = [row for row in v["type_isos"].values() if isinstance(row, dict)]
        if profile == "strict":
            monad_ok = v["strict_monad"] and v["right_unit_identity"]
            algebra_ok = v["strict_algebra"]
            isos_ok = all(row["nonidentity"] == 0 for row in rows)
        elif profile == "right-unit-broken":
            monad_ok = not v["strict_right"] and not v["right_unit_identity"]
            algebra_ok = not v["strict_tau"] and not v["tau_identity"]
            isos_ok = any(row["nonidentity"] > 0 for row in rows)
        else:
            monad_ok = algebra_ok = isos_ok = True
        laws = {
            "universe-validates": v["problems"] == [],
            "monad-structure-cartesian": v["cartesian"],
            "pseudomonad-strictness-profile": v["monad_invertible"] and monad_ok,
            "pseudomonad-pasting": v["pseudomonad_pasting"]["ok"],
            "pseudoalgebra-strictness-profile": v["algebra_invertible"] and algebra_ok,
            "pseudoalgebra-pasting": v["pseudoalgebra_pasting"]["ok"],
            "type-isomorphisms": v["type_isos"]["ok"] and isos_ok,
        }
        return len(laws), [law for law, ok in laws.items() if not ok]

    return judge


def _corrupted_sum_run(u):
    def run():
        broken = {key: ("code0" if code == "code1" else code) for key, code in u.sigma}
        try:
            nm.sigma_structure(nm.Universe(u.codes, u.el, u.unit_code, broken, dict(u.pi)))
        except nm.UniverseError as exc:
            return {"rejected": True, "reason": str(exc)}
        return {"rejected": False}

    return run


def _corrupted_sum_judge(v: dict) -> tuple:
    return 1, [] if v["rejected"] else ["corrupted sum table accepted"]


def draw_universes(seed: int) -> list:
    rng = random.Random(seed)
    want = dict(UNIVERSE_BANDS)
    kept = []
    for _ in range(MAX_UNIVERSE_DRAWS):
        u = gen.rand_universe(rng, 4)
        if want.get(len(u.codes)):
            want[len(u.codes)] -= 1
            kept.append((f"random{len(kept)}-codes{len(u.codes)}", u))
        if not any(want.values()):
            return kept
    raise RuntimeError(f"seed {seed}: universe bands not filled after {MAX_UNIVERSE_DRAWS} draws")


def setup_universes(seed: int, workdir: str) -> list:
    bool_u = nm.mk_bool_universe()
    instances = [("bool", bool_u, "strict"), ("skewed", nm.mk_skewed_universe(), "right-unit-broken")]
    instances += [(name, u, "any") for name, u in draw_universes(seed)]
    ops = [Op(name, _universe_run(u), _universe_judge(profile)) for name, u, profile in instances]
    ops.append(Op("corrupted-sum", _corrupted_sum_run(bool_u), _corrupted_sum_judge))
    return ops


# ---------------------------------------------------------------------------
# models, second half: the command line and the interchange boundary
# ---------------------------------------------------------------------------

# the mid quads and the light quads whose fourfold composite has arities
CLI_QUADS = tuple(("mid", q) for q in MID_QUADS) + tuple(
    ("light", LIGHT_QUADS[i]) for i in (0, 5, 8, 13, 15)
)
CLI_MORPHISMS = 6
CLI_UNIVERSES = 4


def _cli(argv: list) -> tuple:
    """``polyverse <argv>`` in-process: exit code and standard output."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(path: str, record) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(interchange.dumps(record))
    return path


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _problems(**facts) -> list:
    return [name for name, ok in facts.items() if not ok]


def _compose_op(name, outer_path, inner_path, out_path, sizes):
    def run():
        code, _ = _cli(["poly", "compose", "--outer", outer_path, "--inner", inner_path, "-o", out_path])
        return {"exit": code, "output": _read(out_path) if code == 0 else ""}

    def judge(v):
        data = json.loads(v["output"]) if v["exit"] == 0 else {}
        return 1, _problems(
            exit_zero=v["exit"] == 0,
            operations=len(data.get("A", ())) == sizes[0],
            arities=len(data.get("B", ())) == sizes[1],
        )

    return Op(name, run, judge)


def _roundtrip_op(name, value, to_json, from_json):
    def run():
        text = interchange.dumps(to_json(value))
        back = from_json(interchange.loads(text))
        return {"equal": back == value, "output": text}

    return Op(name, run, lambda v: (1, _problems(round_trip=v["equal"])))


def setup_cli_json(seed: int, workdir: str) -> list:
    rng = random.Random(seed + 2_000_003)
    ops = []
    for name, (f, g, h, k), sizes in draw_quads(seed, CLI_QUADS):
        gf, _ = poly.compose(g, f)
        kh, _ = poly.compose(k, h)
        outer = _write(os.path.join(workdir, f"{name}-kh.json"), interchange.polynomial_to_json(kh))
        inner = _write(os.path.join(workdir, f"{name}-gf.json"), interchange.polynomial_to_json(gf))
        fourfold, _ = poly.compose(kh, gf)
        ops.append(instance_op(f"quad/{name}", [
            _compose_op("compose", outer, inner, os.path.join(workdir, f"{name}-out.json"), sizes),
            _roundtrip_op("roundtrip", fourfold, interchange.polynomial_to_json, interchange.polynomial_from_json),
        ]))
    for i in range(CLI_MORPHISMS):
        cartesian = i % 2 == 0
        phi = gen.rand_morphism(rng, 3, cartesian=cartesian)
        path = _write(os.path.join(workdir, f"cell{i}.json"), interchange.morphism_to_json(phi))

        def check_run(path=path):
            code, out = _cli(["cell", "check", path])
            return {"exit": code, "output": out}

        def check_judge(v, cartesian=cartesian):
            return 1, _problems(
                exit_zero=v["exit"] == 0,
                answer=v["exit"] == 0 and json.loads(v["output"]) == {"valid": True, "cartesian": cartesian},
            )

        check = Op("cell-check", check_run, check_judge)
        inner_cell = gen.rand_morphism(rng, 3, target=phi.src)
        inner_path = _write(os.path.join(workdir, f"cell{i}-inner.json"), interchange.morphism_to_json(inner_cell))
        out_path = os.path.join(workdir, f"cell{i}-out.json")
        want_src = interchange.polynomial_to_json(inner_cell.src)
        want_dst = interchange.polynomial_to_json(phi.dst)

        def compose_run(path=path, inner_path=inner_path, out_path=out_path):
            code, _ = _cli(["cell", "compose", "--outer", path, "--inner", inner_path, "-o", out_path])
            return {"exit": code, "output": _read(out_path) if code == 0 else ""}

        def compose_judge(v, want_src=want_src, want_dst=want_dst):
            data = json.loads(v["output"]) if v["exit"] == 0 else {}
            return 1, _problems(
                exit_zero=v["exit"] == 0,
                source=data.get("src") == want_src,
                target=data.get("dst") == want_dst,
            )

        ops.append(instance_op(f"morphism/{i}", [
            check,
            Op("cell-compose", compose_run, compose_judge),
            _roundtrip_op("roundtrip", phi, interchange.morphism_to_json, interchange.morphism_from_json),
        ]))
    for i in range(CLI_UNIVERSES):
        u = gen.rand_universe(rng, 4)
        path = _write(os.path.join(workdir, f"universe{i}.json"), interchange.universe_to_json(u))

        def model_run(path=path):
            code, out = _cli(["model", "check", path])
            return {"exit": code, "output": out}

        def model_judge(v):
            return 1, _problems(
                exit_zero=v["exit"] == 0,
                answer=v["exit"] == 0 and json.loads(v["output"]) == {"valid": True, "problems": []},
            )

        ops.append(instance_op(f"universe/{i}", [
            Op("model-check", model_run, model_judge),
            _roundtrip_op("roundtrip", u, interchange.universe_to_json, interchange.universe_from_json),
        ]))
    return ops


def setup_models(seed: int, workdir: str) -> list:
    """The universe checks and the command line and JSON boundary, as one
    workload: a run then repeats each op often enough to find its best."""
    return setup_universes(seed, workdir) + setup_cli_json(seed, workdir)


SETUPS = {
    "coherence": setup_coherence,
    "sweep": setup_sweep,
    "models": setup_models,
}
