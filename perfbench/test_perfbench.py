"""Tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import env  # noqa: E402

env.use_source_tree()
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pmhgraph import cycles, pmh  # noqa: E402
from pmhgraph.graph_core import are_isomorphic, make_named_graph, parse_graph6  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.percentile(list(range(1, 1001)), 0.99) == 990
    assert measure.percentile(list(range(1, 21)), 0.50) == 10
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(1, 1000)), 0.99)
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(1, 20)), 0.50)


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    leaf = tr.wrap("leaf", lambda: clock.advance(2.0))

    def mid():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    mid = tr.wrap("mid", mid)

    def top():
        clock.advance(3.0)
        mid()

    tr.wrap("top", top)()
    agg = spans.aggregate([tr.spans])
    assert (agg["leaf"]["calls"], agg["leaf"]["self_s"]) == (2, 4.0)
    assert agg["mid"]["self_s"] == 1.5
    assert agg["top"]["self_s"] == 3.0
    assert tr.stack == []


def test_generator_wrapper_times_each_next_not_the_consumer():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def gen():
        clock.advance(1.0)
        yield "a"
        clock.advance(2.0)
        yield "b"
        clock.advance(0.25)

    traced = tr.wrap_generator("g", gen)

    def consume():
        out = []
        for item in traced():
            clock.advance(10.0)
            out.append(item)
        return out

    assert tr.wrap("consumer", consume)() == ["a", "b"]
    agg = spans.aggregate([tr.spans])
    assert (agg["g"]["calls"], agg["g"]["yielded"]) == (3, 2)
    assert agg["g"]["self_s"] == 3.25
    assert agg["consumer"]["self_s"] == 20.0


def test_install_wraps_every_lookup_path_and_uninstall_restores():
    import pmhgraph
    orig = cycles.find_hamiltonian_cycle
    tr = spans.Tracer()
    tr.install()
    try:
        wrapped = cycles.find_hamiltonian_cycle
        assert wrapped is not orig
        assert pmh.find_hamiltonian_cycle is wrapped
        assert pmhgraph.find_hamiltonian_cycle is wrapped
        k4 = make_named_graph("complete", [4])
        assert cycles.find_dominating_cycle(k4).outcome == "found"
    finally:
        tr.uninstall()
    assert cycles.find_hamiltonian_cycle is orig
    assert pmh.find_hamiltonian_cycle is orig
    agg = spans.aggregate([tr.spans])
    assert agg["cycles.find_dominating_cycle"]["searches"] == 1
    assert agg["cycles.find_dominating_cycle"]["found"] == 1
    assert agg["kernel.ham_cycle"]["calls"] == 1


def test_inputs_repeat_for_a_seed_and_keep_the_graphs():
    graphs = [make_named_graph("petersen", []), make_named_graph("complete", [5])]
    a = workloads.relabelled(graphs, random.Random(7))
    assert a == workloads.relabelled(graphs, random.Random(7))
    assert a != workloads.relabelled(graphs, random.Random(8))
    assert all(are_isomorphic(parse_graph6(s), g) for s, g in zip(a, graphs))
    circ = workloads.CliCirc()
    assert circ.prepare(3) == circ.prepare(3)
    assert circ.prepare(3)[0] != circ.prepare(4)[0]


def test_wrong_reference_value_is_a_failed_op():
    env.OUT.mkdir(exist_ok=True)
    circ = workloads.CliCirc()
    lines, expected = circ.prepare(1)[0]
    lines, expected = lines[:30], list(expected[:30])
    ok = circ.unit([(lines, expected)], 0, None)
    assert (ok.ops, ok.failed) == (30, 0)
    expected[5] += 1
    bad = circ.unit([(lines, expected)], 0, None)
    assert (bad.ops, bad.failed) == (30, 1)


def test_layer_metrics_cover_every_per_layer_name():
    b = workloads.Batch(elapsed=1.0)
    metrics = run.layer_metrics(spans.aggregate([]), b, b, 1.0)
    assert list(metrics) == [name for name, _, _ in run.PER_LAYER]


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


class FakeWorkload:
    """Instant units, so the runner's plumbing can be tested in milliseconds."""
    name = "fake"
    why = "test"
    throughput = "things_per_s"
    latency = "thing_ms"
    cli = False
    min_units = traced_units = 1

    def prepare(self, seed):
        return seed

    def unit(self, inputs, i, tracer):
        return workloads.Batch(ops=1, work=1, wall=0.001, elapsed=0.001,
                               latencies=[1.0] * 20)


def test_untraced_and_traced_runs_report_every_metric():
    env.OUT.mkdir(exist_ok=True)
    args = type("Args", (), {"seed": 1, "seconds": 0.05})()
    b, table, metrics = run.untraced(FakeWorkload(), args, 0.01)
    assert list(metrics) == [name for name, _, _ in run.END_TO_END]
    assert all(v > 0 for v in metrics.values())
    assert {"things_per_s", "thing_ms_p50", "thing_ms_p99", "error_rate"} \
        <= {row[0] for row in table}
    assert b.failed == 0 and b.ops >= 1
    b, table, metrics = run.traced_run(FakeWorkload(), args)
    assert list(metrics) == [name for name, _, _ in run.PER_LAYER]
