"""Self-tests of the benchmark's own pieces.

    python3 -m pytest perfbench
"""

import copy
import itertools
import math
import random
from types import SimpleNamespace

import pytest

import measure
import reference
import tracing


# ---------------------------------------------------------------------------
# tail percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, q, value, beyond", [
    (1, 50.0, 1, 0),
    (19, 50.0, 10, 9),
    (20, 50.0, 10.5, 10),
    (39, 50.0, 20, 19),
    (40, 75.0, 30, 10),
    (99, 75.0, 75, 24),
    (100, 90.0, 90, 10),
    (200, 95.0, 190, 10),
    (1000, 99.0, 990, 10),
    (10000, 99.9, 9990, 10),
])
def test_tail_is_highest_percentile_with_ten_items_beyond(n, q, value, beyond):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    assert measure.tail_percentile(values) == (q, value, beyond)


def test_tail_needs_items():
    with pytest.raises(ValueError):
        measure.tail_percentile([])


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, "a"),
        S("child", 1.0, 4.0, 0, "a"),
        S("grandchild", 2.0, 3.0, 1, "a"),
        S("child", 5.0, 6.0, 0, "a"),
        S("other-root", 11.0, 12.0, -1, "b"),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    assert tracing.layer_totals(spans) == {
        "root": (1, 6.0), "child": (2, 3.0), "grandchild": (1, 1.0),
        "other-root": (1, 1.0)}
    # self times of a tree add up to the root's duration
    assert math.fsum(tracing.self_times(spans[:4])) == 10.0


def test_self_time_clips_children_to_parent():
    S = tracing.Span
    spans = [S("p", 0.0, 4.0, -1, "a"), S("c", 1.0, 3.0, 0, "a"),
             S("c", 2.0, 6.0, 0, "a")]
    assert tracing.self_times(spans)[0] == 1.0


def test_tracer_records_nesting_items_and_counts():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    ns = SimpleNamespace()
    ns.inner = lambda x: [x] * x
    ns.outer = lambda x: ns.inner(x) + ns.inner(1)
    original_inner = ns.inner
    tracer.wrap(ns, "inner", "m.inner", count=lambda r: {"m.len": len(r)})
    tracer.wrap(ns, "outer", "m.outer")

    tracer.item = "i0"
    assert ns.outer(2) == [2, 2, 1]
    tracer.uninstall()
    assert ns.inner is original_inner
    ns.outer(3)                          # no longer recorded

    spans = tracer.finished_spans()
    assert [(s.name, s.parent, s.item) for s in spans] == [
        ("m.outer", -1, "i0"), ("m.inner", 0, "i0"), ("m.inner", 0, "i0")]
    # outer: ticks 0..5, inners: 1..2 and 3..4
    assert tracing.self_times(spans) == [3.0, 1.0, 1.0]
    assert tracer.counters == {"m.len": 3}


def test_tracer_closes_span_when_call_raises():
    tracer = tracing.Tracer()
    ns = SimpleNamespace(f=lambda: 1 / 0)
    tracer.wrap(ns, "f", "m.f")
    with pytest.raises(ZeroDivisionError):
        ns.f()
    (span,) = tracer.finished_spans()
    assert span.name == "m.f" and span.end >= span.start


# ---------------------------------------------------------------------------
# reference check
# ---------------------------------------------------------------------------

CATALOG = [["A<=B", "a", "b"], ["B<=2C", "b", "c"], ["C<=D", "c", "d"]]


def _report(a=0.25, b=0.5, c=0.75, h=(0.5, 1.5), status=("pass", "pass", "skip")):
    r = SimpleNamespace
    results = [r(edge_id="A<=B", status=status[0], lhs=a, rhs=b, h_rhs=h[0]),
               r(edge_id="B<=2C", status=status[1], lhs=b, rhs=c, h_rhs=h[1]),
               r(edge_id="C<=D", status=status[2], lhs=None, rhs=None, h_rhs=None)]
    return SimpleNamespace(instance_id="x", results=results)


def test_encoded_report_matches_itself():
    enc = reference.encode_report(_report(), CATALOG)
    assert enc == {"id": "x", "status": "pps",
                   "values": {"a": 0.25, "b": 0.5, "c": 0.75}, "h": [0.5, 1.5]}
    assert reference.compare_output(enc, copy.deepcopy(enc)) == []


@pytest.mark.parametrize("got, caught", [
    (_report(a=0.25 + 1e-14), False),      # within 1e-12
    (_report(a=0.25 + 1e-9), True),
    (_report(c=math.inf), True),
    (_report(h=(0.5 + 1e-10, 1.5)), False),  # within REL_SLACK
    (_report(h=(0.5 + 1e-7, 1.5)), True),
    (_report(status=("pass", "fail", "skip")), True),
    (_report(status=("pass", "skip", "skip")), True),
])
def test_perturbed_output_is_caught(got, caught):
    ref = reference.encode_report(_report(), CATALOG)
    mismatches = reference.compare_output(reference.encode_report(got, CATALOG), ref)
    assert bool(mismatches) == caught, mismatches


def test_report_with_other_edges_or_inconsistent_values_is_refused():
    with pytest.raises(ValueError, match="edge list"):
        reference.encode_report(_report(), CATALOG[::-1])
    bad = _report()
    bad.results[1].lhs = 0.6                 # b read differently by two edges
    with pytest.raises(ValueError, match="another edge"):
        reference.encode_report(bad, CATALOG)


def test_infinite_values_compare_equal_only_to_themselves():
    assert reference.close(math.inf, math.inf, 1e-12)
    assert not reference.close(1e300, math.inf, 1e-12)
    assert not reference.close(None, 0.0, 1e-12)


# ---------------------------------------------------------------------------
# against the program and the stored reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def program_modules():
    import program
    program.import_program()
    import run
    import workloads
    return run, workloads


def test_reference_covers_every_pooled_item(program_modules):
    _, workloads = program_modules
    stored = reference.load()
    assert stored["catalog"] == workloads.catalog()
    for name, workload in workloads.WORKLOADS.items():
        keys = [key for key, _ in workload.pool()]
        assert len(keys) == len(set(keys))
        assert sorted(stored["workloads"][name]) == sorted(keys), name


def test_perturbed_reference_value_fails_the_run_check(program_modules):
    run, workloads = program_modules
    stored = reference.load()
    expected = stored["workloads"]["line-walks"]
    _, (key, call) = workloads.WORKLOADS["line-walks"].pool()
    output = call()
    assert run.check_output(key, output, expected, stored["catalog"]) is None

    perturbed = copy.deepcopy(expected)
    perturbed[key]["product-10"]["tv"] *= 1 + 1e-10
    perturbed[key]["binomial-16"]["values"]["levy"] += 1e-11
    failure = run.check_output(key, output, perturbed, stored["catalog"])
    assert "binomial-16: levy" in failure and "product-10: tv" in failure

    checker = run.Checker(expected, stored["catalog"])
    checker(key, output)
    checker(key, RuntimeError("boom"))
    assert checker.attempted == 2
    assert checker.failures == [f"{key}: raised RuntimeError: boom"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_metrics_benchmark_json_names(program_modules, capsys,
                                                         trace, section):
    import json

    import program

    run, _ = program_modules
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    status = run.main(["--workload", "line-walks", "--seed", "3",
                       "--seconds", "0.01", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
