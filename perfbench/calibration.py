"""The benchmark's CPU speed probe.

On shared machines the speed the host gives this process drifts by up to a
factor of two in phases of seconds to minutes, and process time drifts with
wall time, so a wall time alone says as much about the host as about the
program.  The benchmark runs a fixed probe between ops, outside every timed
region, and reports each op's latency rescaled to a reference speed: the
speed at which the probe takes ``REFERENCE_PROBE_S``.

The probe is four small loops over the interpreter's main paths: integer
arithmetic, dict lookups with tuple keys, method calls and string methods.
Their layout in memory differs from process to process, and a sum of four
is moved less by that than any one of them.  None of them allocates a
container, so the collector never runs inside the probe, and they touch
none of the program's memory, so nothing the program does moves the
probe's time: only the host's speed does.
"""

from __future__ import annotations

import statistics
import time

# the probe's time at the reference speed, about its fast time on a shared
# 2-vCPU virtual machine (Intel Xeon, 2.0 GHz, Python 3.11)
REFERENCE_PROBE_S = 0.0018
# an op is rescaled by the median of this many probes on either side of it
WINDOW = 3

_TABLE = {(i, str(i)): i for i in range(20_000)}
_KEYS = list(_TABLE)[::4]
_WORDS = [str(i) * 3 for i in range(500)]


class _Slotted:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a, self.b = 1, 2

    def plus(self, x):
        return self.a + x


_OBJ = _Slotted()


def probe_s() -> float:
    """Wall time of one run of the probe."""
    table, obj = _TABLE, _OBJ
    t0 = time.perf_counter()
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) & 0xFFFFFF
    for key in _KEYS:
        x += table[key]
    for i in range(4_000):
        x += obj.plus(i) + obj.b
    for word in _WORDS:
        x += len(word.upper()) + word.count("1") + word.find("9")
    return time.perf_counter() - t0


def probes(n: int = 2 * WINDOW) -> list:
    return [probe_s() for _ in range(n)]


def calibrated(seconds: float, probe_times: list) -> float:
    """``seconds`` of wall time at the reference speed, by the median of
    the probes taken around them."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probe_times)


def calibrate(latencies: list, probe_times: list) -> list:
    """Each op's latency at the reference speed.  ``probe_times[i]`` ran
    just before op ``i`` and ``probe_times[i + 1]`` just after it."""
    return [
        calibrated(t, probe_times[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
        for i, t in enumerate(latencies)
    ]
