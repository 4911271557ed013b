"""Benchmark of metric-atlas: one run of one workload.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

A run imports the program from src/ and sets the workload up SETUP_REPS times
(each set-up is a fresh-interpreter import plus the input generation). It
runs one warm-up item, then items back to back for --seconds: a closed loop,
one caller, no threads. With --trace 1 the time is split: an untraced loop of
half the length is followed by a traced loop of the other half, whose spans
give the per-layer metrics and are written to perfbench/out/. Every output,
warm-up and traced ones included, is checked against reference.json as it
arrives, outside the item's latency.

Times are wall-clock times divided by the run's machine speed factor, which
a probe measures between items (see measure.SpeedProbe); the detail record
keeps the raw times and the factor.

The second-to-last line of stdout is a detail record (environment, tail
percentile and its item count, failure share, mismatches); the last line is
the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer ones for --trace 1.
Exit code: 0 when every output matched, 1 on any mismatch or raised item,
2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import statistics
import sys
import time
from pathlib import Path

import measure
import program
import reference
import tracing

SETUP_REPS = 15
OUT_DIR = Path(__file__).with_name("out")


def timed_loop(workload, inputs, seconds: float, probe, consume,
               tracer=None) -> list[float]:
    """Item latencies in seconds. After each item, outside its latency, the
    probe runs and consume(key, result or exception) takes the output.
    Stops after the first whole pass past the deadline."""
    items = workload.items(inputs)
    latencies: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        key, call = next(items)
        if tracer is not None:
            tracer.item = f"{key}#{len(latencies)}"
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising item counts as failed; the loop goes on
            result = exc
        latencies.append(time.perf_counter() - start)
        probe.after_item(latencies[-1])
        consume(key, result)
        if len(latencies) % workload.pass_len == 0 and time.perf_counter() >= deadline:
            return latencies


class Checker:
    """Checks each output against its reference as it arrives, so that no
    output is kept and memory does not grow with the number of items."""

    def __init__(self, expected: dict, edges: list):
        self.expected = expected
        self.edges = edges
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, key: str, result) -> None:
        self.attempted += 1
        failure = check_output(key, result, self.expected, self.edges)
        if failure:
            self.failures.append(failure)


def check_output(key: str, result, expected: dict, edges: list) -> str | None:
    """Why the output raised or differs from its reference; None if it matches."""
    import workloads

    if isinstance(result, Exception):
        return f"{key}: raised {type(result).__name__}: {result}"
    if key not in expected:
        return f"{key}: no reference output"
    try:
        mismatches = reference.compare_output(
            workloads.encode(result, edges), expected[key], key)
    except ValueError as exc:
        mismatches = [str(exc)]
    return "; ".join(mismatches[:3]) or None


def count_edges(result, counts: collections.Counter) -> None:
    """Edge statuses, and reads of the ball-growth modulus, in the reports
    an item returned."""
    import workloads

    for rep in workloads.reports_of(result):
        for r in rep.results:
            counts[r.status] += 1
            counts["phi_reads"] += r.edge_id == workloads.PHI_EDGE and r.status != "skip"


def layer_metrics(tracer, traced: dict, counts: collections.Counter,
                  untraced: dict) -> dict:
    import workloads

    spans = tracer.finished_spans()
    totals = tracing.layer_totals(spans)
    item_s = traced["busy_s"]
    m = {}
    for name in workloads.LAYER_NAMES:
        calls, own = totals.get(name, (0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (own, "s")
        m[f"{name}.share"] = (own / item_s, "fraction")

    points = tracer.counters.get("transport.tightest_ball_growth.points", 0)
    for s in ("pass", "skip", "fail"):
        m[f"bounds.edges.{s}"] = (counts[s], "count")
    m["bounds.phi_reads"] = (counts["phi_reads"], "count")
    m["transport.tightest_ball_growth.points"] = (points, "count")
    m["transport.tightest_ball_growth.useful_ratio"] = (
        counts["phi_reads"] / points if points else 0.0, "ratio")

    m["trace.items_per_s"] = (traced["items_per_s"], "1/s")
    m["trace.overhead_items_per_s"] = (
        untraced["items_per_s"] - traced["items_per_s"], "1/s")
    m["trace.covered_share"] = (
        math.fsum(own for _, own in totals.values()) / item_s, "fraction")
    m["trace.spans"] = (len(spans), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        import_s = program.import_program()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads  # needs the program on sys.path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    expected = reference.load()
    checker = Checker(expected["workloads"][workload.name], expected["catalog"])

    # One set-up is the program's import in a fresh interpreter plus the
    # input generation (see measure.setup_seconds).
    setup_runs = []
    setup_probe = measure.SpeedProbe()
    for _ in range(SETUP_REPS):
        program_s, reference_s = program.fresh_import_seconds()
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        generation_s = time.perf_counter() - start
        setup_probe.after_item(generation_s)
        setup_runs.append({"import_s": program_s, "reference_import_s": reference_s,
                           "generation_s": generation_s})
    setup_speed = setup_probe.factor()

    key, call = next(workload.items(inputs))      # warm-up, not timed
    try:
        checker(key, call())
    except Exception as exc:
        checker(key, exc)

    loop_s = args.seconds / 2 if args.trace else args.seconds
    probe = measure.SpeedProbe(workload.stream_mib)
    latencies = timed_loop(workload, inputs, loop_s, probe, checker)
    speed = probe.factor()
    untraced = measure.latency_summary(latencies, speed)
    rss_mb = measure.peak_rss_mb()

    traced = spans_file = None
    if args.trace:
        tracer = tracing.Tracer()
        traced_probe = measure.SpeedProbe(workload.stream_mib)
        counts = collections.Counter()

        def consume(key, result):
            checker(key, result)
            count_edges(result, counts)

        workloads.install(tracer)
        try:
            traced_latencies = timed_loop(workload, inputs, loop_s, traced_probe,
                                          consume, tracer)
        finally:
            tracer.uninstall()
        traced = measure.latency_summary(traced_latencies, traced_probe.factor())
        metrics = layer_metrics(tracer, traced, counts, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write(spans_file)
    else:
        metrics = {
            "setup_s": (statistics.median(measure.setup_seconds(**r, speed=setup_speed)
                                          for r in setup_runs), "s"),
            "items_per_s": (untraced["items_per_s"], "1/s"),
            "item_p50_ms": (untraced["p50_ms"], "ms"),
            "item_tail_ms": (untraced["tail_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_frac": (1.0 - len(checker.failures) / checker.attempted, "fraction"),
        }

    failures, attempted = checker.failures, checker.attempted
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": measure.environment(program.ROOT),
        "import_s": import_s, "setup_runs": setup_runs,
        "setup_speed_factor": setup_speed, "speed_factor": speed,
        "untraced": untraced, "traced": traced, "peak_rss_mb": rss_mb,
        "fail_frac": len(failures) / attempted, "failures": failures[:20],
        "spans_file": str(spans_file.relative_to(program.ROOT)) if spans_file else None,
    }
    for line in failures[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
