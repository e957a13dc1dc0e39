"""Command-line interface.

Exit codes: 0 all checks passed, 1 some law failed or an input file holds
invalid data, 2 input could not be parsed, 3 every instance exceeded the
enumeration cap, 4 internal error in the program.  ``main`` lets an
internal error propagate so that in-process callers see it; ``entry``, the
installed command, turns it into exit 4.  ``main(argv)`` may be called
in-process any number of times: the parser is built once, when this module
is imported, so ``suite run --help`` lists the suites registered by then.
Size, count and cap flags must be at least 1, or the command exits 2.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .finset import DEFAULT_CAP, EnumerationCapExceeded, FinSetError
from .poly import PolyError, _shared_builds, compose, extend
from .internalcat import internal_full_subcat
from .naturalmodel import (
    mk_bool_universe,
    mk_skewed_universe,
    pseudomonad_from,
    validate_universe,
    verify_type_isos,
)
from .suites import InstanceGenConfig, Report, UnknownSuiteError, SUITES, run_suite
from . import generators as gen
from . import interchange as io


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return io.loads(fh.read())


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_report(rep: Report, fmt: str) -> int:
    if fmt == "json":
        sys.stdout.write(io.dumps(rep.to_jsonable()))
    else:
        for r in rep.records:
            line = f"[{r['status'].upper():4}] law={r['law']} instance={r['instance']}"
            if r["detail"]:
                line += f" ({r['detail']})"
            sys.stdout.write(line + "\n")
        sys.stdout.write(
            f"suite={rep.suite} passed={rep.passed} failed={rep.failed} "
            f"skipped={rep.skipped} seed={rep.config.seed}\n"
        )
    return rep.exit_code()


def _config_from_args(args) -> InstanceGenConfig:
    return InstanceGenConfig(
        seed=args.seed,
        count=args.count,
        max_set_size=args.max_size,
        enumeration_cap=args.cap,
    )


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        # argparse's own wording for ``type=int``
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _add_suite_flags(p, count_default=20):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=count_default)
    p.add_argument("--max-size", type=_positive_int, default=3)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--format", choices=["text", "json"], default="text")


_BUILTIN_UNIVERSES = {"bool": mk_bool_universe, "skewed": mk_skewed_universe}


def _universe_from_arg(arg: str):
    if arg in _BUILTIN_UNIVERSES:
        return _BUILTIN_UNIVERSES[arg]()
    return io.universe_from_json(_read_json(arg))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyverse",
        description="polynomials over finite sets, with every law checked by enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="compose and evaluate polynomials")
    poly_sub = p_poly.add_subparsers(dest="poly_command", required=True)
    pc = poly_sub.add_parser("compose", help="composite of two polynomial records")
    pc.add_argument("--outer", required=True, help="polynomial applied second")
    pc.add_argument("--inner", required=True, help="polynomial applied first")
    pc.add_argument("-o", "--out")
    pe = poly_sub.add_parser("extend", help="evaluate a polynomial on a family")
    pe.add_argument("--poly", required=True)
    pe.add_argument("--family", required=True)
    pe.add_argument("-o", "--out")

    p_cell = sub.add_parser("cell", help="validate and compose morphisms")
    cell_sub = p_cell.add_subparsers(dest="cell_command", required=True)
    cc = cell_sub.add_parser("check", help="validate a morphism record")
    cc.add_argument("morphism")
    cv = cell_sub.add_parser("compose", help="vertical composite of two morphism records")
    cv.add_argument("--outer", required=True)
    cv.add_argument("--inner", required=True)
    cv.add_argument("-o", "--out")

    p_coh = sub.add_parser("coherence", help="coherence law suite")
    coh_sub = p_coh.add_subparsers(dest="coherence_command", required=True)
    cr = coh_sub.add_parser("run")
    _add_suite_flags(cr)

    p_int = sub.add_parser("internal", help="internal full subcategories")
    int_sub = p_int.add_subparsers(dest="internal_command", required=True)
    ic = int_sub.add_parser("cat", help="internal full subcategory of a polynomial's middle map")
    ic.add_argument("poly")
    ic.add_argument("-o", "--out")
    ie = int_sub.add_parser("check-equiv", help="adjustment / natural transformation equivalence suite")
    _add_suite_flags(ie)

    p_model = sub.add_parser("model", help="finite universes")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    mc = model_sub.add_parser("check", help="validate a universe record")
    mc.add_argument("universe")
    mp = model_sub.add_parser("pseudomonad", help="assemble and verify the induced pseudomonad and pseudoalgebra")
    mp.add_argument("universe")
    mi = model_sub.add_parser("isos", help="type isomorphism sweep")
    mi.add_argument("universe")
    mb = model_sub.add_parser("builtin", help="emit a built-in universe record")
    mb.add_argument("name", choices=sorted(_BUILTIN_UNIVERSES))
    mb.add_argument("-o", "--out")

    p_suite = sub.add_parser("suite", help="run a verification suite")
    suite_sub = p_suite.add_subparsers(dest="suite_command", required=True)
    sr = suite_sub.add_parser("run")
    sr.add_argument("name", help=", ".join(sorted(SUITES)))
    _add_suite_flags(sr)

    p_gen = sub.add_parser("generate", help="emit a seeded random instance")
    p_gen.add_argument("kind", choices=["polynomial", "morphism", "universe"])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-size", type=_positive_int, default=3)
    p_gen.add_argument("-o", "--out")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _dispatch(args)
    except io.ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return 2
    except EnumerationCapExceeded as exc:
        sys.stderr.write(f"enumeration cap exceeded: {exc}\n")
        return 3
    except (PolyError, FinSetError) as exc:
        if not _reads_data_file(args):
            raise
        sys.stderr.write(f"invalid data: {exc}\n")
        return 1


def _reads_data_file(args) -> bool:
    """Whether the command works on records read from files, so that a
    ``PolyError`` or ``FinSetError`` describes the input, not the program."""
    if args.command in ("poly", "cell"):
        return True
    if args.command == "internal":
        return args.internal_command == "cat"
    if args.command == "model" and args.model_command != "builtin":
        return args.universe not in _BUILTIN_UNIVERSES
    return False


def _dispatch(args) -> int:
    if args.command == "poly":
        if args.poly_command == "compose":
            G = io.polynomial_from_json(_read_json(args.outer))
            F = io.polynomial_from_json(_read_json(args.inner))
            composite, _ = compose(G, F)
            _emit(io.dumps(io.polynomial_to_json(composite)), args.out)
            return 0
        if args.poly_command == "extend":
            F = io.polynomial_from_json(_read_json(args.poly))
            X = io.family_from_json(_read_json(args.family))
            _emit(io.dumps(io.family_to_json(extend(F, X))), args.out)
            return 0

    if args.command == "cell":
        if args.cell_command == "check":
            phi = io.morphism_from_json(_read_json(args.morphism))
            sys.stdout.write(
                io.dumps({"valid": True, "cartesian": phi.is_cartesian()})
            )
            return 0
        if args.cell_command == "compose":
            from .poly2 import v_comp

            outer = io.morphism_from_json(_read_json(args.outer))
            inner = io.morphism_from_json(_read_json(args.inner))
            _emit(io.dumps(io.morphism_to_json(v_comp(outer, inner))), args.out)
            return 0

    if args.command == "coherence" and args.coherence_command == "run":
        return _print_report(run_suite("coherence", _config_from_args(args)), args.format)

    if args.command == "internal":
        if args.internal_command == "cat":
            P = io.polynomial_from_json(_read_json(args.poly))
            cat = internal_full_subcat(P.f)
            record = {
                "objects": io.finset_to_json(cat.obj),
                "morphisms": io.finset_to_json(cat.mor),
                "dom": io.finmap_to_json(cat.dom),
                "cod": io.finmap_to_json(cat.cod),
                "identity": io.finmap_to_json(cat.ident),
                "composition": io.finmap_to_json(cat.comp),
            }
            _emit(io.dumps(record), args.out)
            return 0
        if args.internal_command == "check-equiv":
            return _print_report(run_suite("internal-equiv", _config_from_args(args)), args.format)

    if args.command == "model":
        if args.model_command == "builtin":
            u = _universe_from_arg(args.name)
            _emit(io.dumps(io.universe_to_json(u)), args.out)
            return 0
        u = _universe_from_arg(args.universe)
        if args.model_command == "check":
            problems = validate_universe(u)
            sys.stdout.write(io.dumps({"valid": not problems, "problems": problems}))
            return 0 if not problems else 1
        if args.model_command == "pseudomonad":
            # one table for the whole command; not around _dispatch, so that
            # each instance of ``suite run`` keeps its own
            with _shared_builds():
                pm = pseudomonad_from(u)
                alg = pm.pseudoalgebra()
                record = {
                    "strict_monad": pm.is_strict_monad(),
                    "strict_assoc": pm.strict_assoc,
                    "strict_left_unit": pm.strict_left,
                    "strict_right_unit": pm.strict_right,
                    "strict_algebra": alg.is_strict(),
                    "pseudomonad_pastings": pm.pasting_report(),
                    "pseudoalgebra_pastings": alg.pasting_report(),
                }
            sys.stdout.write(io.dumps(record))
            ok = record["pseudomonad_pastings"]["ok"] and record["pseudoalgebra_pastings"]["ok"]
            return 0 if ok else 1
        if args.model_command == "isos":
            summary = verify_type_isos(u)
            sys.stdout.write(io.dumps(summary))
            return 0 if summary["ok"] else 1

    if args.command == "suite" and args.suite_command == "run":
        try:
            rep = run_suite(args.name, _config_from_args(args))
        except UnknownSuiteError as exc:
            sys.stderr.write(f"{exc}\n")
            return 2
        return _print_report(rep, args.format)

    if args.command == "generate":
        import random

        rng = random.Random(args.seed)
        if args.kind == "polynomial":
            record = io.polynomial_to_json(gen.rand_polynomial(rng, args.max_size))
        elif args.kind == "morphism":
            record = io.morphism_to_json(gen.rand_morphism(rng, args.max_size))
        else:
            record = io.universe_to_json(gen.rand_universe(rng, args.max_size + 1))
        _emit(io.dumps(record), args.out)
        return 0

    raise AssertionError("unhandled command")


def entry() -> None:
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = 4
    sys.exit(code)


if __name__ == "__main__":
    entry()
