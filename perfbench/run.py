"""pmhgraph benchmark runner; README.md beside this file describes the
workloads, the metrics and their units, the layer table and traced runs.

    python3 perfbench/run.py --workload coxeter_forced --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock

import env

SETUP_REPS = 3
CALIBRATE_EVERY = 0.5   # s of units between speed probes
NAMES = ("coxeter_forced", "subcubic_sweep", "survey", "cli_circ")
BASELINE = Path(__file__).resolve().parent / "baseline_counts.json"

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
_KERNEL = tuple(
    (f"kernel.{k}.{q}", unit, better)
    for k in ("ham_cycle", "longest_cycle")
    for q, unit, better in (("calls", "count", "lower"), ("nodes", "count", "lower"),
                            ("self_s", "s", "lower"), ("ns_per_node", "ns", "lower")))
PER_LAYER = _KERNEL + (
    ("cycles.find_hamiltonian_cycle.calls", "count", "lower"),
    ("cycles.find_hamiltonian_cycle.self_s", "s", "lower"),
    ("cycles.validate_walk.calls", "count", "lower"),
    ("cycles.validate_walk.self_s", "s", "lower"),
    ("cycles.find_dominating_cycle.calls", "count", "lower"),
    ("cycles.find_dominating_cycle.searches", "count", "lower"),
    ("cycles.find_dominating_cycle.found_ratio", "ratio", "higher"),
    ("cycles.find_dominating_cycle.self_s", "s", "lower"),
    ("cycles.longest_cycle_search.self_s", "s", "lower"),
    ("pmh.extend_matching_subcubic.self_s", "s", "lower"),
    ("pmh.extend_via_dominating_cycle.self_s", "s", "lower"),
    ("pmh.is_pmh.calls", "count", "lower"),
    ("pmh.is_pmh.self_s", "s", "lower"),
    ("matching.enumerate_perfect_matchings.yielded", "count", "lower"),
    ("matching.enumerate_perfect_matchings.self_s", "s", "lower"),
    ("line_graph.build_line_graph.calls", "count", "lower"),
    ("line_graph.build_line_graph.self_s", "s", "lower"),
    ("graph_core.parse_graph6.calls", "count", "lower"),
    ("graph_core.parse_graph6.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.lines", "count", "lower"),
    ("corpus.generate.self_s", "s", "lower"),
    ("trace.kernel_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def speed_probe(wl):
    """The reference timing that follows the machine's speed for this
    workload's units, and its value at reference speed: in this process for
    library workloads, a child process for CLI workloads."""
    import measure
    if wl.cli:
        return (lambda: measure.child_reference_time(env.child_env()),
                measure.CHILD_REFERENCE_S)
    return measure.reference_time, measure.REFERENCE_S


def drive(wl, inputs, seconds=None, units=None, tracer=None):
    """Closed loop: repeat the workload's unit until `units` are done, or
    until `seconds` have passed and at least the workload's `min_units`.

    The speed probe runs before the first unit and then between units at
    least every CALIBRATE_EVERY seconds; the times of each stretch of units
    are scaled to reference speed by the probe times on either side of it.
    Returns the batch, the machine speed (reference over median probe time)
    and the unscaled elapsed time of all units.
    """
    import workloads
    probe, reference = speed_probe(wl)
    total = workloads.Batch()
    stretch = workloads.Batch()
    refs = [probe()]
    raw = 0.0
    i = 0
    start = last = clock()
    while i < units if units is not None else \
            (i < wl.min_units or clock() - start < seconds):
        if tracer is not None:
            tracer.op = i
        stretch.add(wl.unit(inputs, i, tracer))
        i += 1
        if clock() - last >= CALIBRATE_EVERY:
            refs.append(probe())
            raw += stretch.elapsed
            stretch.scale(2 * reference / (refs[-2] + refs[-1]))
            total.add(stretch)
            stretch = workloads.Batch()
            last = clock()
    raw += stretch.elapsed
    if stretch.ops:
        refs.append(probe())
        stretch.scale(2 * reference / (refs[-2] + refs[-1]))
    total.add(stretch)
    return total, reference / statistics.median(refs), raw


def untraced(wl, args, import_s):
    import measure
    refs = [measure.reference_time()]
    setups = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        inputs = wl.prepare(args.seed)
        dt = clock() - t0
        refs.append(measure.reference_time())
        setups.append(dt * 2 * measure.REFERENCE_S / (refs[-2] + refs[-1]))
    b, speed, _ = drive(wl, inputs, seconds=args.seconds)
    setup_s = import_s * measure.REFERENCE_S / refs[0] + statistics.median(setups)
    setup_note = f"imports + median of {SETUP_REPS} input set-ups"
    if b.first_line:
        setup_s += statistics.median(b.first_line)
        setup_note += f" + median spawn-to-first-report of {len(b.first_line)} children"
    rss = b.rss_mb if wl.cli else measure.self_peak_rss_mb()
    rate = b.work / b.wall if b.wall > 0 else 0.0
    table = [("machine_speed", speed, "ratio",
              "reference over median speed-probe time; times below are "
              "scaled to reference speed"),
             ("setup_s", setup_s, "s", setup_note),
             (wl.throughput, rate, "1/s", f"{b.work} in {b.wall:.3f} s")]
    if wl.latency:
        n = len(b.latencies)
        table += [(f"{wl.latency}_p50", measure.percentile(b.latencies, 0.50), "ms", f"n={n}"),
                  (f"{wl.latency}_p99", measure.percentile(b.latencies, 0.99), "ms", f"n={n}")]
    table += [("error_rate", b.failed / b.ops, "ratio",
               f"{b.failed} failed / {b.ops} attempted"),
              ("peak_rss_mb", rss, "MB",
               "largest CLI child" if wl.cli else "this process")]
    metrics = {"setup_s": setup_s, "ops_per_s": rate, "peak_rss_mb": rss}
    return b, table, metrics


def layer_metrics(agg, plain, traced, traced_raw):
    """Per-layer metrics from span aggregates.  `plain` and `traced` ran the
    same units (times scaled to reference speed); `traced_raw` is the traced
    units' unscaled time, which the unscaled span times are a share of."""
    def get(name, key):
        return agg[name][key] if name in agg else 0

    # "<span name>.<quantity>" reads the aggregate directly; the derived
    # quantities are overwritten below
    m = {name: get(*name.rsplit(".", 1)) for name, _, _ in PER_LAYER}
    for k in ("kernel.ham_cycle", "kernel.longest_cycle"):
        nodes = get(k, "nodes")
        m[k + ".ns_per_node"] = get(k, "self_s") * 1e9 / nodes if nodes else 0.0
    dom = "cycles.find_dominating_cycle"
    searches = get(dom, "searches")
    m[dom + ".found_ratio"] = get(dom, "found") / searches if searches else 0.0
    kernel = (get("kernel.ham_cycle", "op_self_s")
              + get("kernel.longest_cycle", "op_self_s"))
    m["trace.kernel_share"] = kernel / traced_raw
    m["trace.overhead_ratio"] = traced.elapsed / plain.elapsed - 1
    return {name: int(m[name]) if unit == "count" else m[name]
            for name, unit, _ in PER_LAYER}


def traced_run(wl, args):
    """The same fixed units untraced and then traced; counts are exact, so
    two traced runs of one commit and seed agree."""
    import spans
    inputs = wl.prepare(args.seed)
    plain, _, _ = drive(wl, inputs, units=wl.traced_units)
    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs = wl.prepare(args.seed)
        b, _, raw = drive(wl, inputs, units=wl.traced_units, tracer=tracer)
    finally:
        tracer.uninstall()
    span_lists = [tracer.spans, *b.child_spans]
    spans.dump(env.OUT / f"spans-{wl.name}-seed{args.seed}.jsonl", span_lists)
    metrics = layer_metrics(spans.aggregate(span_lists), plain, b, raw)
    plain.add(b)
    units = {name: unit for name, unit, _ in PER_LAYER}
    table = [(name, metrics[name], units[name], "") for name, _, _ in PER_LAYER]
    table.append(("error_rate", plain.failed / plain.ops, "ratio",
                  f"{plain.failed} failed / {plain.ops} attempted"))
    return plain, table, metrics


def compare_baseline(name, seed, backend, metrics):
    if not BASELINE.exists():
        return "no baseline recorded"
    base = json.loads(BASELINE.read_text())
    if (base["seed"], base["backend"]) != (seed, backend):
        return f"baseline is for seed {base['seed']} on {base['backend']}"
    want = base["counts"].get(name, {})
    diff = {k: (v, metrics.get(k)) for k, v in want.items() if metrics.get(k) != v}
    return "identical" if not diff else f"differ (baseline, now): {diff}"


def run_all(args):
    rc = 0
    for name in NAMES:
        rc |= subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("perfbench: refusing to run under python -O, which "
                         "strips the library's witness-check asserts")
    env.check_tree()
    env.OUT.mkdir(exist_ok=True)
    env.build()
    if args.workload == "all":
        return run_all(args)

    t0 = clock()
    env.use_source_tree()
    import measure
    import pmhgraph
    import workloads
    import_s = clock() - t0
    if not Path(pmhgraph.__file__).resolve().is_relative_to(env.SRC):
        raise SystemExit(f"perfbench: pmhgraph imported from {pmhgraph.__file__}")

    wl = workloads.WORKLOADS[args.workload]
    if hasattr(os, "sched_setaffinity"):
        # Runner and children share one CPU, so the reference loop times the
        # CPU the work runs on; only one of them computes at a time anyway.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    info = env.environment(args.seed)
    try:
        if args.trace:
            b, table, metrics = traced_run(wl, args)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            b, table, metrics = untraced(wl, args, import_s)
            units = {name: unit for name, unit, _ in END_TO_END}
    except (workloads.SetupError, measure.TooFewSamples) as exc:
        raise SystemExit(f"perfbench: {wl.name}: {exc}")

    print(f"workload {wl.name}  trace {args.trace}  why: {wl.why}")
    print("env " + json.dumps(info, sort_keys=True))
    for name, value, unit, note in table:
        print(f"  {name:46} {value:>16.6f} {unit:6} {note}")
    if args.trace:
        print("counts vs baseline: "
              + compare_baseline(wl.name, args.seed, info["backend"], metrics))
    for problem in b.problems:
        print(f"FAILED: {problem}")
    result = {"correct": b.failed == 0, "attempted": b.ops, "failed": b.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"env": info, "workload": wl.name, "trace": args.trace,
              "seconds": args.seconds, "table": table, **result}
    (env.OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
