"""Latency summaries and the environment record of a benchmark run."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Candidate tail percentiles in per mille, highest first. The reported tail is
# the highest one that leaves at least MIN_BEYOND items above it.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750)
MIN_BEYOND = 10


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, items beyond it), by the nearest-rank rule.

    With fewer than 4 * MIN_BEYOND items no ladder percentile qualifies and
    the tail is the median, with the (smaller) count of items above it.
    """
    if not values:
        raise ValueError("no items")
    xs = sorted(values)
    n = len(xs)
    for k in TAIL_LADDER_PERMILLE:
        rank = -(-k * n // 1000)          # ceil(k/1000 * n), exactly
        if n - rank >= MIN_BEYOND:
            return k / 10, xs[rank - 1], n - rank
    return 50.0, statistics.median(xs), n // 2


def latency_summary(latencies_s: list[float], speed: float) -> dict:
    """Throughput, median and tail of one timed loop, in wall-clock time
    divided by the loop's machine speed factor."""
    q, tail, beyond = tail_percentile(latencies_s)
    busy_s = math.fsum(latencies_s)
    return {
        "items": len(latencies_s),
        "busy_s": busy_s,
        "speed_factor": speed,
        "items_per_s": len(latencies_s) / busy_s * speed,
        "p50_ms": statistics.median(latencies_s) * 1e3 / speed,
        "tail_ms": tail * 1e3 / speed,
        "tail_percentile": q,
        "tail_items_beyond": beyond,
        "raw_items_per_s": len(latencies_s) / busy_s,
        "raw_p50_ms": statistics.median(latencies_s) * 1e3,
        "raw_tail_ms": tail * 1e3,
    }


class SpeedProbe:
    """Machine speed measured between items.

    On a shared machine the speed of one core drifts by 20-30% over tens of
    seconds, with no time stolen from the process, so wall-clock item times
    from runs a minute apart are not comparable. After each item the probe
    times a fixed workload for about SHARE of the item's time: interpreter-
    driven small-array numpy calls, the kind of work in the program's inner
    loops, plus, for a workload whose vectors exceed the caches, a Python
    loop that reads scalars from two arrays of that size, in a window that
    moves through them. That loop feels contention for the caches and memory
    as the walk's scalar loop over its vectors does. `factor()` is the mean
    probe time over the nominal one: 1 on the machine the nominal times were
    taken on, 1.2 when that machine runs 20% slow.
    """

    # One probe unit on a 2-core Xeon at 2.1 GHz, undisturbed: the small-array
    # part, and the loop over WINDOW elements of the large arrays.
    NOMINAL_SMALL_S = 0.003
    NOMINAL_WINDOW_S = 0.011
    WINDOW = 40_000
    SHARE = 0.05

    def __init__(self, stream_mib: int = 0):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(40)
        rng = np.random.default_rng(1)
        self._big = [rng.random(stream_mib * 2 ** 17) for _ in range(2)] if stream_mib else None
        self._offset = 0
        self.nominal_s = self.NOMINAL_SMALL_S + (self.NOMINAL_WINDOW_S if stream_mib else 0.0)
        self.times: list[float] = []

    def _unit(self) -> float:
        np, x = self._np, self._x
        start = time.perf_counter()
        for _ in range(300):
            float(np.max(np.abs(np.maximum.accumulate(np.cumsum(x)))))
        if self._big is not None:
            a, b = self._big
            best, lo = 0.0, self._offset
            for i in range(lo, lo + self.WINDOW):
                v = a[i] - b[i]
                if v > best:
                    best = v
            self._offset = (lo + self.WINDOW) % (len(a) - self.WINDOW)
        return time.perf_counter() - start

    def after_item(self, item_s: float) -> None:
        for _ in range(max(1, round(self.SHARE * item_s / self.nominal_s))):
            self.times.append(self._unit())

    def factor(self) -> float:
        return statistics.fmean(self.times) / self.nominal_s


# The import of program.REFERENCE_MODULES in a fresh interpreter on a 2-core
# Xeon at 2.1 GHz, undisturbed.
NOMINAL_REFERENCE_IMPORT_S = 0.045


def setup_seconds(import_s: float, reference_import_s: float,
                  generation_s: float, speed: float) -> float:
    """One set-up's time: the program's import plus the input generation.

    On a shared machine a fresh interpreter's import drifts by a factor of
    two from run to run. The program's import is therefore scaled by the
    import of a fixed set of standard-library modules that the same
    interpreter makes right after it: the same kind of work, at the same
    moment. Its ratio to that import spreads a few percent. The input
    generation runs in this process and is divided by `speed`, the factor of
    a speed probe run between the set-ups, as item times are.
    """
    return (import_s * NOMINAL_REFERENCE_IMPORT_S / reference_import_s
            + generation_s / speed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from the files; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                out[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def environment(root: Path) -> dict:
    import numpy  # imported by the program already; read its version only

    return {
        "git_sha": _git_sha(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "METRIC_ATLAS_THREADS": os.environ.get("METRIC_ATLAS_THREADS"),
    }
