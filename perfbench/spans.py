"""Span tracing installed from outside the program.

The wrappers go at every pmhgraph module attribute through which callers
look a traced function up, so the program's own code is unchanged.  Spans
stay in memory as ``[name, start, end, parent, op, info]`` lists and are
written out when the run ends; per-layer numbers are computed from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

SETUP_OP = -1


def _nodes(result):
    return {"nodes": result[2]}


def _found(result):
    return {"found": int(result.outcome == "found")}


# (span name, defining module, attribute, result -> counts).  The span name
# is the per-layer metric prefix; pmhgraph._kernel is named "kernel" because
# metric names may not start with an underscore.
TARGETS = (
    ("kernel.ham_cycle", "pmhgraph._kernel", "ham_cycle", _nodes),
    ("kernel.longest_cycle", "pmhgraph._kernel", "longest_cycle", _nodes),
    ("cycles.find_hamiltonian_cycle", "pmhgraph.cycles",
     "find_hamiltonian_cycle", None),
    ("cycles.validate_walk", "pmhgraph.cycles", "validate_walk", None),
    ("cycles.find_dominating_cycle", "pmhgraph.cycles",
     "find_dominating_cycle", _found),
    ("cycles.longest_cycle_search", "pmhgraph.cycles",
     "longest_cycle_search", None),
    ("pmh.extend_matching_subcubic", "pmhgraph.pmh",
     "extend_matching_subcubic", None),
    ("pmh.extend_via_dominating_cycle", "pmhgraph.pmh",
     "extend_via_dominating_cycle", None),
    ("pmh.is_pmh", "pmhgraph.pmh", "is_pmh", None),
    ("line_graph.build_line_graph", "pmhgraph.line_graph",
     "build_line_graph", None),
    ("graph_core.parse_graph6", "pmhgraph.graph_core", "parse_graph6", None),
    ("corpus.generate", "pmhgraph.corpus", "connected_subcubic_upto", None),
    ("corpus.generate", "pmhgraph.corpus", "connected_graphs_upto", None),
)
GENERATOR_TARGETS = (
    ("matching.enumerate_perfect_matchings", "pmhgraph.matching",
     "enumerate_perfect_matchings"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = SETUP_OP
        self._undo = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counts is not None:
                self.spans[idx][5] = counts(result)
            return result
        return traced

    def wrap_generator(self, name, fn):
        """Each next() on the generator is its own span, because the body of
        a generator runs lazily inside whoever consumes it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                self.spans[idx][5] = {"yielded": 1}
                yield item
        return traced

    def _patch(self, module_name, attr, wrapped_for):
        if module_name not in sys.modules:
            return  # never imported, so nothing can call it
        orig = getattr(sys.modules[module_name], attr)
        wrapped = wrapped_for(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pmhgraph"
                                   or mod_name.startswith("pmhgraph.")):
                continue
            # the kernel backends themselves stay unwrapped, so the parity
            # check can still call the reference implementation directly
            if mod_name.startswith("pmhgraph._kernel."):
                continue
            if getattr(mod, attr, None) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def install(self):
        """Wrap every traced function; pmhgraph and its modules must be
        imported already."""
        for name, module, attr, counts in TARGETS:
            self._patch(module, attr,
                        lambda fn, n=name, c=counts: self.wrap(n, fn, c))
        for name, module, attr in GENERATOR_TARGETS:
            self._patch(module, attr,
                        lambda fn, n=name: self.wrap_generator(n, fn))

    def uninstall(self):
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

def dump(path, span_lists):
    """Write the spans of one or more processes, one JSON list per line."""
    with open(path, "w") as fh:
        for spans in span_lists:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def aggregate(span_lists):
    """Per span name: calls, self time and summed counts.  Self time is a
    span's duration minus the durations of its direct children, which in one
    thread are disjoint and nested inside it.  Each list is self-contained
    (parent indices are local to it)."""
    agg = defaultdict(lambda: defaultdict(float))
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _info in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, op, info) in enumerate(spans):
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += end - start - child[i]
            if op != SETUP_OP:
                a["op_self_s"] += end - start - child[i]
            for key, value in (info or {}).items():
                a[key] += value
            if parent >= 0 and spans[parent][0] == "cycles.find_dominating_cycle" \
                    and name == "cycles.find_hamiltonian_cycle":
                agg["cycles.find_dominating_cycle"]["searches"] += 1
    return agg
