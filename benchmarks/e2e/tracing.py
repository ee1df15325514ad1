"""Per-layer tracing for the end-to-end benchmark, installed at run time.

The tracer wraps the public entry points of each simulator layer (a
method on a class, or a module-level function) with a span recorder and
restores the originals afterwards. Nothing under ``src/`` is edited: a
layer boundary is wherever :func:`_layers` says it is.

Spans are stack-based. Each records its layer, start, end, the index of
its parent span and the index of its root span (the outermost call, so
every span of one engine run or one what-if query shares a root id).
A layer's *self* time is its spans' duration minus the time covered by
child spans, so the self times of all layers plus the untraced gaps add
up to the measured run time. *Total* time counts only the outermost
span of a layer, so recursion never double-counts.

Some layers carry extra counters (flows retired per advance, events per
pop, memo hits, decisions that changed no rate). The work of deriving
them runs inside a ``trace.bookkeeping`` span, so it is charged to no
simulator layer.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept in memory for the trace file; aggregates count every span.
MAX_SPANS = 50_000

BOOKKEEPING = "trace.bookkeeping"

#: Layer names in report order.
LAYER_NAMES = (
    "topology.route",
    "network.inject",
    "network.advance",
    "network.next_finish",
    "network.sync",
    "network.set_rates",
    "events.pop",
    "engine.run",
    "workloads.build",
    "scheduling.allocate",
    "scheduling.gamma",
    "allocation.fill",
    "allocation.maxmin",
    "scheduling.memo",
    "state.snapshot",
    "state.fork",
    "whatif.query",
    "obs.hooks",
    "obs.report",
)

#: Layers whose spans nest other layers' spans: they also report total time.
NESTING = ("network.inject", "engine.run", "scheduling.allocate", "scheduling.memo",
           "whatif.query")

#: Per-call ratios: metric -> (counter, layer whose calls divide it, unit).
RATIOS = {
    "network.advance.retired_per_call": ("network.advance.retired", "network.advance", "count"),
    "events.pop.events_per_call": ("events.pop.events", "events.pop", "count"),
    "scheduling.allocate.flows_mean": ("scheduling.allocate.flows", "scheduling.allocate", "count"),
    "scheduling.allocate.unchanged_frac": (
        "scheduling.allocate.unchanged", "scheduling.allocate", "ratio"),
    "scheduling.memo.hit_frac": ("scheduling.memo.hits", "scheduling.memo", "ratio"),
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in NESTING:
            units[f"{layer}.total_s"] = "s"
        units.update({name: unit for name, (_c, owner, unit) in RATIOS.items() if owner == layer})
    units["trace.run_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def layer_metrics(layers: Dict[str, Dict[str, float]], counters: Dict[str, float],
                  traced_run_s: float, untraced_run_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced rep, given its untraced twin's run time."""
    values: Dict[str, float] = {}
    for name in metric_units():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = layers[layer]["calls"]
        elif stat in ("self_s", "total_s"):
            values[name] = layers[layer][stat]
        elif name in RATIOS:
            counter, owner, _unit = RATIOS[name]
            calls = layers[owner]["calls"]
            values[name] = counters.get(counter, 0) / calls if calls else 0.0
    values["trace.run_s"] = traced_run_s
    values["trace.overhead"] = traced_run_s / untraced_run_s
    return values


def _retired(tracer: "Tracer", args, result, token) -> None:
    tracer.count("network.advance.retired", len(result))


def _events(tracer: "Tracer", args, result, token) -> None:
    tracer.count("events.pop.events", len(result))


def _decision(tracer: "Tracer", args, result, token) -> None:
    network = args[1].network
    tracer.count("scheduling.allocate.flows", network.active_count)
    unchanged = all(
        network.state(flow_id).rate == rate for flow_id, rate in result.items()
    )
    tracer.count("scheduling.allocate.unchanged", int(unchanged))


def _memo_before(args) -> int:
    return args[0].hits


def _memo_after(tracer: "Tracer", args, result, token) -> None:
    tracer.count("scheduling.memo.hits", int(args[0].hits > token))


def _layers() -> List[Tuple[str, object, str, Optional[Callable], Optional[Callable]]]:
    """(layer, owner, attribute, before, after) for every traced entry point.

    ``owner`` is a class (the method is wrapped on the class, so every
    instance, including engines materialized by a fork, goes through it)
    or a module (the function is rebound in every ``repro`` module that
    imported it by name).
    """
    from repro.obs.instrumentation import Instrumentation
    from repro.obs.jsonl import JsonlEventLog
    from repro.obs.profiling import ProfiledScheduler
    import repro.obs.report as report
    import repro.scheduling.coflow_madd as coflow_madd
    from repro.scheduling.cache import MemoizingScheduler
    from repro.scheduling.echelon_madd import EchelonMaddScheduler
    import repro.simulator.allocation as allocation
    from repro.simulator.engine import Engine
    from repro.simulator.events import EventQueue
    from repro.simulator.network import NetworkModel
    from repro.topology.routing import EcmpRouter, ShortestPathRouter
    from repro.whatif.service import WhatIfService
    import repro.whatif.workload as whatif_workload

    layers = [
        ("topology.route", ShortestPathRouter, "path", None, None),
        ("topology.route", EcmpRouter, "path", None, None),
        ("network.inject", NetworkModel, "inject", None, None),
        ("network.advance", NetworkModel, "advance", None, _retired),
        ("network.next_finish", NetworkModel, "earliest_finish_interval", None, None),
        ("network.sync", NetworkModel, "sync_active", None, None),
        ("network.set_rates", NetworkModel, "set_rates", None, None),
        ("events.pop", EventQueue, "pop_batch", None, _events),
        ("engine.run", Engine, "run", None, None),
        ("workloads.build", whatif_workload, "build_paradigm_job", None, None),
        ("scheduling.allocate", EchelonMaddScheduler, "allocate", None, _decision),
        ("scheduling.gamma", coflow_madd, "remaining_gamma", None, None),
        ("allocation.fill", allocation, "greedy_priority_fill", None, None),
        ("allocation.maxmin", allocation, "max_min_fair", None, None),
        ("scheduling.memo", MemoizingScheduler, "allocate", _memo_before, _memo_after),
        ("state.snapshot", Engine, "snapshot", None, None),
        ("state.fork", Engine, "fork", None, None),
        ("whatif.query", WhatIfService, "run_query", None, None),
        ("obs.hooks", JsonlEventLog, "append", None, None),
        ("obs.hooks", ProfiledScheduler, "allocate", None, None),
        ("obs.report", report, "build_metrics_report", None, None),
    ]
    for name in sorted(vars(Instrumentation)):
        if name.startswith("on_") and callable(getattr(Instrumentation, name)):
            layers.append(("obs.hooks", Instrumentation, name, None, None))
    return layers


class Tracer:
    """Stack-based span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open frames: [layer, start, child_seconds, span_index, root_index].
        self._stack: List[list] = []
        #: layer -> [calls, self_seconds, total_seconds]
        self._stats: Dict[str, List[float]] = {}
        self._open_count: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        #: [layer, start, end, parent_index, root_index]; -1 = none.
        self.spans: List[list] = []
        self.spans_dropped = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, layer: str) -> list:
        stack = self._stack
        index = len(self.spans)
        if index < MAX_SPANS:
            parent = stack[-1][3] if stack else -1
            root = stack[-1][4] if stack else index
            self.spans.append([layer, 0.0, 0.0, parent, root])
        else:
            index = -1
            root = stack[-1][4] if stack else -1
            self.spans_dropped += 1
        self._open_count[layer] = self._open_count.get(layer, 0) + 1
        frame = [layer, 0.0, 0.0, index, root]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        layer, start, children, index, _root = frame
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        stats = self._stats.get(layer)
        if stats is None:
            stats = self._stats[layer] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration - children
        self._open_count[layer] -= 1
        if self._open_count[layer] == 0:
            stats[2] += duration
        if index >= 0:
            span = self.spans[index]
            span[1] = start
            span[2] = end

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, layer: str, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                book = tracer._open(BOOKKEEPING)
                try:
                    after(tracer, args, result, token)
                finally:
                    tracer._close(book)
            return result

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every entry point in :func:`_layers`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, owner, attribute, before, after in _layers():
            if isinstance(owner, type):
                original = vars(owner)[attribute]
                self._patch(owner, attribute, self._wrap(layer, original, before, after))
                continue
            original = getattr(owner, attribute)
            wrapped = self._wrap(layer, original, before, after)
            for name, module in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    if getattr(module, attribute, None) is original:
                        self._patch(module, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest patch first."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """layer -> {calls, self_s, total_s}; every layer, called or not."""
        out = {}
        for layer in LAYER_NAMES + (BOOKKEEPING,):
            calls, self_s, total_s = self._stats.get(layer, (0, 0.0, 0.0))
            out[layer] = {"calls": int(calls), "self_s": self_s, "total_s": total_s}
        return out

    def write(self, path: Path, meta: Dict) -> None:
        """Write aggregates, counters and the kept spans as one JSON file."""
        document = {
            "meta": meta,
            "layers": self.layer_stats(),
            "counters": self.counters,
            "span_fields": ["layer", "start", "end", "parent", "root"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document) + "\n")
