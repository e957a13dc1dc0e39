"""Run the interpreter matrix of CI on the interpreters installed on a host.

    python tests/matrix.py [--pythonpath EXTRA] PYTHON [PYTHON ...]

Under each interpreter ``PYTHON`` it runs three steps in child processes:

* ``goldens``: every digest in ``tests/goldens.py`` recomputed with
  ``run_suite``, ``interchange`` and ``cli_golden_digests`` only, so no
  test framework is needed;
* ``perfbench``: ``perfbench/run.py --digests`` on each workload, compared
  with ``perfbench/golden.json``;
* ``tier-1``: the tier-1 tests, where ``pytest`` and ``hypothesis`` import
  with ``EXTRA`` (for example another interpreter's ``site-packages``)
  appended to ``PYTHONPATH``; otherwise the step is reported as not run.

It prints one line per interpreter and step, and exits 1 if a step failed.
It takes interpreter paths, so it is a script and not a tier-1 test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("coherence", "sweep", "models")


def golden_mismatches() -> tuple[int, list]:
    """How many digests of ``tests/goldens.py`` this interpreter recomputed,
    and the names of those that differ; runs in the child process."""
    import random

    from goldens import CAPPED_CONFIG, CAPPED_GOLDEN, CLI_GOLDEN, CONFIGS, FOURFOLD_GOLDEN, GOLDEN, cli_golden_digests
    from polyverse import interchange as io
    from polyverse.generators import rand_polynomial
    from polyverse.poly import compose
    from polyverse.suites import InstanceGenConfig, run_suite

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    got = {name: digest(io.dumps(run_suite(name, cfg).to_jsonable())) for name, cfg in CONFIGS.items()}
    expected = dict(GOLDEN)
    for (name, cap), golden in CAPPED_GOLDEN.items():
        count, size = CAPPED_CONFIG[name]
        cfg = InstanceGenConfig(seed=1, count=count, max_set_size=size, enumeration_cap=cap)
        got[f"{name} at cap {cap}"] = digest(io.dumps(run_suite(name, cfg).to_jsonable()))
        expected[f"{name} at cap {cap}"] = golden
    # the composite of tests/test_interchange.py::_fourfold(0), whose module imports pytest
    rng = random.Random(0)
    f, g, h, k = (rand_polynomial(rng, 2, one_to_one=True) for _ in range(4))
    got["fourfold"] = digest(io.dumps(io.polynomial_to_json(compose(compose(k, h)[0], compose(g, f)[0])[0])))
    expected["fourfold"] = FOURFOLD_GOLDEN
    with tempfile.TemporaryDirectory() as workdir:
        for name, value in cli_golden_digests(Path(workdir)).items():
            got[f"cli {name}"] = value
    expected.update({f"cli {name}": value for name, value in CLI_GOLDEN.items()})
    return len(expected), sorted(name for name in expected if got.get(name) != expected[name])


def _run(cmd: list, pythonpath: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def _last_line(proc: subprocess.CompletedProcess) -> str:
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[-1] if lines else f"exit {proc.returncode}"


def goldens_step(python: str) -> tuple[bool, str]:
    proc = _run([python, __file__, "--goldens"], [ROOT / "src", ROOT / "tests"])
    if proc.returncode != 0:
        return False, _last_line(proc)
    checked, mismatches = json.loads(proc.stdout.strip().splitlines()[-1])
    if mismatches:
        return False, f"{len(mismatches)} of {checked} digests differ: {', '.join(mismatches)}"
    return True, f"all {checked} digests equal"


def perfbench_step(python: str) -> tuple[bool, str]:
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    notes, ok = [], True
    for workload in WORKLOADS:
        proc = _run([python, "perfbench/run.py", "--digests", "--workload", workload], [])
        if proc.returncode != 0:
            ok = False
            notes.append(f"{workload}: {_last_line(proc)}")
            continue
        digests = json.loads(proc.stdout.strip().splitlines()[-1])
        same = digests == golden[workload]
        ok = ok and same
        notes.append(f"{workload}: {len(digests)} {'equal' if same else 'DIFFER'}")
    return ok, "; ".join(notes)


def tier1_step(python: str, extra: list) -> tuple[bool | None, str]:
    pythonpath = [ROOT / "src", *extra]
    probe = _run([python, "-c", "import pytest, hypothesis"], pythonpath)
    if probe.returncode != 0:
        return None, f"not run: {_last_line(probe)}"
    proc = _run([python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"], pythonpath)
    return proc.returncode == 0, _last_line(proc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON", help="interpreter paths")
    parser.add_argument("--pythonpath", action="append", default=[], metavar="EXTRA",
                        help="a path appended to PYTHONPATH for tier-1 (repeatable)")
    parser.add_argument("--goldens", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.goldens:  # the child of goldens_step
        print(json.dumps(golden_mismatches()))
        return 0
    if not args.pythons:
        parser.error("give at least one interpreter")
    failed = False
    for python in args.pythons:
        version = _run([python, "-c", "import sys; print(sys.version.split()[0])"], []).stdout.strip() or "?"
        steps = {
            "goldens": goldens_step(python),
            "perfbench": perfbench_step(python),
            "tier-1": tier1_step(python, args.pythonpath),
        }
        for step, (ok, note) in steps.items():
            failed = failed or ok is False
            verdict = {True: "PASS", False: "FAIL", None: "SKIP"}[ok]
            print(f"{version:8} {step:9} {verdict}  {note}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
