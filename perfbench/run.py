"""polyverse benchmark: one closed-loop client over seeded law-checking workloads.

    python3 perfbench/run.py --workload coherence --seed 1 --seconds 30 --trace 0

Run from the root of a polyverse checkout; the library is imported from
``src``.  The client sends the next op only after the previous verdict.
With ``--trace 0`` the run repeats full passes over the workload's ops for
``--seconds`` (and at least ``MIN_PASSES`` passes) and prints the
end-to-end metrics, every time rescaled to a reference CPU speed by the
probe in ``calibration.py``.  With ``--trace 1`` it times untraced
passes, then one traced setup and pass that record spans and one that
counts the recursive label functions, and prints the per-layer metrics and
the tracing overhead.  Every verdict is checked against its known answer,
against the stored digests for the default seed, against the first pass
and, with ``--trace 1``, against two reruns under other hash seeds.  The
last line of standard output is the JSON result; the exit code is 0 only
if every check held.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_PROBE_S, calibrate, calibrated, probe_s, probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("coherence", "sweep", "models")
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_REPEATS = 5
TRACE_MIN_UNTRACED = 3
PROBE_HASH_SEEDS = ("1", "2")
PROBE_TIMEOUT_S = 150
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
ACCOUNTING_TOLERANCE = 0.01

# small suite runs for the robustness preflight
PREFLIGHT_FLAGS = ["--seed", "0", "--count", "1", "--max-size", "2", "--format", "json"]
PREFLIGHT_CAP = "5"


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_polyverse() -> float:
    src = ROOT / "src"
    if not (src / "polyverse" / "__init__.py").is_file():
        _fail(f"no polyverse sources under {src}; run from the root of a polyverse checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import polyverse  # noqa: F401

    return time.perf_counter() - t0


def tail_percentile(samples: int) -> int:
    """The highest percentile that leaves at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples * (100 - p) / 100 >= 10:
            return p
    raise ValueError(f"{samples} samples leave fewer than ten beyond the median")


def percentile(values: list, p: int) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.latencies: list = []
        self.probes: list = []
        self.digests: dict = {}
        self.checks = 0
        self.failures: list = []

    @property
    def verdict_s(self) -> float:
        """Wall time of the pass's ops."""
        return sum(self.latencies)

    @property
    def calibrated(self) -> list:
        return calibrate(self.latencies, self.probes)

    @property
    def calibrated_s(self) -> float:
        return sum(self.calibrated)


def op_latencies(passes: list) -> list:
    """Each op's latency at the reference speed, the median of its repeats
    in the run's passes."""
    return [statistics.median(repeats) for repeats in zip(*(p.calibrated for p in passes))]


def run_pass(ops, tracer=None) -> Pass:
    """One full pass: time each op's calls, then judge its verdict."""
    from workloads import verdict_digest

    from tracing import OFF

    result = Pass()
    gc.collect()
    for number, op in enumerate(ops, start=1):
        result.probes.append(probe_s())
        if tracer is not None:
            tracer.op = number
        t0 = time.perf_counter()
        try:
            verdict = op.run()
        except Exception as exc:  # a crash in the program is a failed op
            verdict = None
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = OFF
        result.latencies.append(latency)
        if verdict is None:
            result.failures.append(f"{op.id}: raised {error}")
            continue
        checks, problems = op.judge(verdict)
        result.checks += checks
        result.digests[op.id] = verdict_digest(verdict)
        if problems:
            result.failures.append(f"{op.id}: {', '.join(problems)}")
    result.probes.append(probe_s())
    return result


def digest_failures(passes: list, ops, seed: int, workload: str, probe: dict | None) -> list:
    """Ops whose verdict digest moved between passes, from the stored
    digests (default seed) or under another hash seed."""
    failures = []
    first = passes[0].digests
    for later in passes[1:]:
        failures += [f"{k}: verdict changed between passes" for k, v in later.digests.items() if first.get(k) != v]
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text()).get(workload, {})
        failures += [f"{op.id}: verdict digest differs from {GOLDEN.name}" for op in ops
                     if first.get(op.id) is not None and golden.get(op.id) != first[op.id]]
    if probe is not None:
        for hash_seed, digests in probe.items():
            failures += [f"{op.id}: verdict differs under PYTHONHASHSEED={hash_seed}" for op in ops
                         if first.get(op.id) is not None and digests.get(op.id) != first[op.id]]
    return failures


def determinism_probe(workload: str, seed: int) -> tuple:
    """Verdict digests of one pass in child processes with other hash seeds."""
    children = {}
    for hash_seed in PROBE_HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        children[hash_seed] = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--digests", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    digests, errors = {}, []
    for hash_seed, child in children.items():
        try:
            out, err = child.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            errors.append(f"probe under PYTHONHASHSEED={hash_seed} timed out")
            continue
        if child.returncode != 0:
            errors.append(f"probe under PYTHONHASHSEED={hash_seed} exited {child.returncode}: {err.strip()[-500:]}")
            continue
        digests[hash_seed] = json.loads(out.strip().splitlines()[-1])
    return digests, errors


# ---------------------------------------------------------------------------
# untimed robustness preflight
# ---------------------------------------------------------------------------


def _suite_cli(argv: list) -> tuple:
    from polyverse import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv), out.getvalue(), None
        except Exception as exc:
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"


def preflight() -> dict:
    """Every suite from the CLI, small: which raise instead of returning an
    exit code, and which abort with exit 3 and no records at a small cap."""
    from polyverse.suites import SUITES

    crashes, aborts = [], []
    for name in sorted(SUITES):
        code, _, error = _suite_cli(["suite", "run", name] + PREFLIGHT_FLAGS)
        capped, out, cap_error = _suite_cli(["suite", "run", name] + PREFLIGHT_FLAGS + ["--cap", PREFLIGHT_CAP])
        if error or cap_error:
            crashes.append(f"{name} ({error or cap_error})")
        elif capped == 3 and not out.strip():
            aborts.append(name)
    return {"suite_crashes": crashes, "cap_aborts": aborts}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path) -> tuple:
    from workloads import SETUPS

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    before = probes()
    t0 = time.perf_counter()
    ops = SETUPS[workload](seed, str(workdir))
    elapsed = time.perf_counter() - t0
    return ops, calibrated(elapsed, before + probes())


def timed_passes(ops, seconds: float, min_passes: int) -> list:
    """At least ``min_passes`` passes, then more while the next one would
    end nearer to ``seconds`` than stopping now does."""
    start = time.perf_counter()
    passes = [run_pass(ops) for _ in range(min_passes)]
    elapsed = time.perf_counter() - start
    while elapsed + elapsed / len(passes) / 2 < seconds:
        passes.append(run_pass(ops))
        elapsed = time.perf_counter() - start
    return passes


def end_to_end(args, workdir: Path, import_s: float) -> tuple:
    setups = [setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    ops = setups[-1][0]
    passes = timed_passes(ops, args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    robustness = preflight()

    failures = [f for p in passes for f in p.failures]
    failures += digest_failures(passes, ops, args.seed, args.workload, None)
    attempted = sum(len(p.latencies) for p in passes)
    failed_ops = min(attempted, len(failures))
    latencies = op_latencies(passes)
    verdict_s = sum(latencies)
    tail_p = tail_percentile(len(latencies))
    metrics = {
        "setup_s": (import_s + statistics.median(t for _, t in setups), "s"),
        "verdict_s": (verdict_s, "s"),
        "checks_per_s": (passes[0].checks / verdict_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (percentile(latencies, tail_p) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = dict(metrics)
    report["ops_failed_ratio"] = (failed_ops / attempted, "ratio")
    report["suite_crashes"] = (len(robustness["suite_crashes"]), "count")
    report["cap_aborts"] = (len(robustness["cap_aborts"]), "count")
    notes = [
        f"passes={len(passes)} ops_per_pass={len(ops)} checks_per_pass={passes[0].checks}"
        f" wall pass_s=[{', '.join(f'{p.verdict_s:.3f}' for p in passes)}]",
        f"probe_ms median={statistics.median(k for p in passes for k in p.probes) * 1000:.4f}"
        f" (reference {REFERENCE_PROBE_S * 1000:g}); times are at the reference speed",
        f"op_tail_ms is p{tail_p} of {len(latencies)} op latencies ({len(latencies) * (100 - tail_p) / 100:g} beyond it),"
        f" each the median of {len(passes)} passes",
        f"suite_crashes: {', '.join(robustness['suite_crashes']) or 'none'}",
        f"cap_aborts (--cap {PREFLIGHT_CAP}): {', '.join(robustness['cap_aborts']) or 'none'}",
    ]
    return metrics, report, notes, attempted, failed_ops, failures


def per_layer(args, workdir: Path) -> tuple:
    from tracing import OFF, SETUP, Tracer
    import layers

    ops, _ = setup(args.workload, args.seed, workdir)
    probe, probe_errors = determinism_probe(args.workload, args.seed)
    untraced = timed_passes(ops, args.seconds / 2, TRACE_MIN_UNTRACED)
    tracer = Tracer()

    def traced_setup_and_pass(counting: bool) -> Pass:
        tracer.install(counting)
        try:
            tracer.op = SETUP
            setup(args.workload, args.seed, workdir)
            return run_pass(ops, tracer)
        finally:
            tracer.op = OFF
            tracer.uninstall()

    traced = traced_setup_and_pass(counting=False)
    counted = traced_setup_and_pass(counting=True)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.bin"
    tracer.write(str(spans_path), [op.id for op in ops])

    passes = untraced + [traced, counted]
    failures = [f for p in passes for f in p.failures]
    failures += digest_failures(passes, ops, args.seed, args.workload, probe)
    attempted = sum(len(p.latencies) for p in passes)
    failed_ops = min(attempted, len(failures))
    failures += probe_errors
    untraced_s = sum(op_latencies(untraced))
    metrics, accounting = layers.metrics(tracer, traced, untraced_s)
    if accounting["error"] > ACCOUNTING_TOLERANCE:
        failures.append(
            f"layer self times plus remainder ({accounting['accounted_s']:.6f} s) do not account "
            f"for the traced verdict_s ({traced.verdict_s:.6f} s)"
        )
    notes = [
        f"untraced pass_s=[{', '.join(f'{p.verdict_s:.3f}' for p in untraced)}] traced pass_s={traced.verdict_s:.3f}"
        f" spans={len(tracer.span_name)} written to {spans_path.relative_to(ROOT)}",
        f"accounting: layer self {accounting['self_s']:.4f} s + untraced remainder {accounting['remainder_s']:.4f} s"
        f" = {accounting['accounted_s']:.4f} s against traced verdict_s {traced.verdict_s:.4f} s",
    ]
    return metrics, metrics, notes, attempted, failed_ops, failures


def digests_main(args, workdir: Path) -> None:
    ops, _ = setup(args.workload, args.seed, workdir)
    result = run_pass(ops)
    print(json.dumps(result.digests, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--digests", action="store_true",
        help="print the verdict digests of one untimed pass as JSON and exit "
        "(the determinism probe runs this; its output for the default seed is golden.json)",
    )
    args = parser.parse_args(argv)

    import_s = calibrated(_import_polyverse(), probes())
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.digests:
            digests_main(args, workdir)
            return 0
        if args.trace:
            result = per_layer(args, workdir)
        else:
            result = end_to_end(args, workdir, import_s)
        metrics, report, notes, attempted, failed_ops, failures = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in report.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for failure in failures[:50]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
