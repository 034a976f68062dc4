"""Tracing from outside the program, for the per-layer metrics.

``Tracer.install`` wraps public functions of lucentnet's layers: it swaps
each function object for a wrapper in every ``lucentnet`` module that binds
it, so calls made through ``from .x import f`` names are caught too.  A
wrapper records a span (id, operation, name, start, end, parent id) and adds
its duration to its parent's child time, so the self time of every call (the
span minus its children) is known without a second pass.  Spans are kept in
memory and written out when the run ends.

The hottest kernel functions (``enabled_transitions``, ``fire``) are not
wrapped: a span per call would cost more than the call.  ``kernel_rates``
times them from outside over every state and edge of the operation's nets.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


# (module, attribute, span name, what the span counts); "Class.method" names
# a method.  The short-circuit steps of find_home_clusters are private
# helpers; they are wrapped because no public function bounds that work.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("textio", "parse_net", "textio.parse", None),
    ("net", "PetriNet.__init__", "net.build", None),
    ("reachability", "explore", "reachability.explore",
     lambda rg: {"reachability.states": len(rg.states), "reachability.edges": len(rg.edges)}),
    ("reachability", "ReachabilityGraph.sccs", "reachability.sccs", None),
    ("reachability", "ReachabilityGraph.terminal_sccs", "reachability.sccs", None),
    ("reachability", "is_live", "reachability.live", None),
    ("reachability", "home_markings", "reachability.home_markings", None),
    ("lucency", "check_lucency", "lucency.check", None),
    ("lucency", "is_fully_transparent", "lucency.transparent", None),
    ("lucency", "find_conflict_pairs", "lucency.conflict_pairs", None),
    ("homecluster", "find_home_clusters", "homecluster.find",
     lambda hc: {"homecluster.clusters": len(hc.details)}),
    ("homecluster", "is_home_cluster_direct", "homecluster.direct", None),
    ("homecluster", "clean", "homecluster.short_circuit", None),
    ("homecluster", "support_closure", "homecluster.short_circuit", None),
    ("homecluster", "_attach_ring", "homecluster.short_circuit", None),
    ("homecluster", "_ring_verdict", "homecluster.short_circuit", None),
    ("paths", "verify_expedite_safe", "paths.expedite_replay", None),
    ("paths", "find_rooted_path", "paths.rooted", None),
    ("paths", "verify_path_safety", "paths.rooted", None),
    ("corpus", "generate", "corpus.generate", None),
    ("corpus", "run_theorem_suite", "corpus.suite", None),
    ("report", "build_report", "report.build", None),
    ("report", "emit_report", "report.emit", lambda text: {"report.bytes": len(text)}),
)

# per-layer metric -> (span name, "self" or "total").  Self time is the
# span minus its children.  The two home-cluster methods are totals: what
# they cost is mostly the explorations they start, and that is what a
# change to them moves.
LAYER_TIMES = {
    "textio.parse_ms": ("textio.parse", "self"),
    "net.build_ms": ("net.build", "self"),
    "reachability.explore_ms": ("reachability.explore", "self"),
    "reachability.sccs_ms": ("reachability.sccs", "self"),
    "reachability.live_ms": ("reachability.live", "self"),
    "lucency.check_ms": ("lucency.check", "self"),
    "lucency.transparent_ms": ("lucency.transparent", "self"),
    "lucency.conflict_pairs_ms": ("lucency.conflict_pairs", "self"),
    "homecluster.direct_ms": ("homecluster.direct", "total"),
    "homecluster.short_circuit_ms": ("homecluster.short_circuit", "total"),
    "paths.expedite_replay_ms": ("paths.expedite_replay", "self"),
    "paths.rooted_ms": ("paths.rooted", "self"),
    "corpus.generate_ms": ("corpus.generate", "self"),
    "corpus.suite_ms": ("corpus.suite", "self"),
    "report.build_ms": ("report.build", "self"),
    "report.emit_ms": ("report.emit", "self"),
}
LAYER_COUNTS = ("reachability.states", "reachability.edges", "homecluster.clusters",
                "report.bytes")
MAX_SPANS = 100_000  # spans kept per run; the per-operation sums cover every span
KERNEL_SECONDS = 0.5


class Tracer:
    """Spans and per-operation sums of span times and counts."""

    def __init__(self):
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.active = True
        self.ops: List[Dict[str, float]] = []  # per operation: key -> seconds or count
        self._op = -1
        self._stack: List[List] = []  # open spans: [id, name, child seconds]
        self._open: Dict[str, int] = {}  # span name -> open spans of that name
        self._next_id = 0

    def begin_op(self) -> None:
        self._op += 1
        self.ops.append({})

    def span(self, name: str, count: Optional[Callable], fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = t1 - t0
            if self._stack:
                self._stack[-1][2] += duration
            sums = self.ops[self._op]
            sums[name + ":self"] = sums.get(name + ":self", 0.0) + duration - frame[2]
            if not self._open[name]:  # outermost span of this name: count its total once
                sums[name + ":total"] = sums.get(name + ":total", 0.0) + duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, self._op, name, t0, t1, parent))
        if count is not None:
            for key, value in count(result).items():
                sums[key] = sums.get(key, 0) + value
        return result

    def install(self, package) -> None:
        """Wrap every function in ``TRACED`` in the imported ``package``."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for mod_name, attr, span_name, count in TRACED:
            mod = sys.modules[f"{prefix}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), span_name, count))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, span_name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.span(name, count, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self) -> Dict[str, float]:
        """Median over operations of each layer's time (ms, scaled to
        reference speed by the operation's factor) and counts."""
        out: Dict[str, float] = {}
        for metric, (name, kind) in LAYER_TIMES.items():
            out[metric] = statistics.median(op.get(f"{name}:{kind}", 0.0) * op["scale"]
                                            for op in self.ops) * 1e3
        for metric in LAYER_COUNTS:
            out[metric] = statistics.median(op.get(metric, 0) for op in self.ops)
        out["reachability.states_per_s"] = statistics.median(
            op.get("reachability.states", 0) / (op["reachability.explore:self"] * op["scale"])
            for op in self.ops)
        return out

    def dump(self) -> Dict:
        names = sorted({n for op in self.ops for n in op})
        mean = {n: sum(op.get(n, 0) for op in self.ops) / len(self.ops) for n in names}
        return {"operations": len(self.ops),
                "mean_per_operation": {n: (v * 1e3 if n.endswith((":self", ":total")) else v)
                                       for n, v in mean.items()},
                "spans": [{"id": i, "op": op, "name": n, "start": s, "end": e, "parent": p}
                          for i, op, n, s, e, p in self.spans]}


def kernel_rates(meter, lib, nets: List[Tuple[object, object]]) -> Dict[str, float]:
    """Calls per second of ``enabled_transitions`` over every reachable state
    and of ``fire`` over every edge of ``nets``, timed from outside by
    ``meter`` and scaled; the median of at least three passes lasting
    KERNEL_SECONDS together."""
    graphs = [(net, lib.explore(net, m0)) for net, m0 in nets]
    states = sum(len(rg.states) for _, rg in graphs)
    edges = sum(len(rg.edges) for _, rg in graphs)

    def enable_all():
        for net, rg in graphs:
            for state in rg.states:
                lib.enabled_transitions(net, state)

    def fire_all():
        for net, rg in graphs:
            reached = rg.states
            for i, t, _ in rg.edges:
                lib.fire(net, reached[i], t)

    enabled, fired = [], []
    start = time.perf_counter()
    while len(enabled) < 3 or time.perf_counter() - start < KERNEL_SECONDS:
        enabled.append(states / meter.time(enable_all)[2])
        fired.append(edges / meter.time(fire_all)[2])
    return {"net.enabled_per_s": statistics.median(enabled),
            "net.fire_per_s": statistics.median(fired)}
