"""Span tracing around calls into the sprec modules, from outside the package.

A traced pass swaps a few public names for timing wrappers, records one span
per wrapped call, and puts every original back when it ends. Nothing under
``src/`` is edited: the wrappers are installed on

* the ``sprec.reconstruct`` module, which binds ``centroid``,
  ``neighbors_of_set`` and ``components_masked`` by name (``import
  sprec.reconstruct`` yields the re-exported *function*, so the module is
  taken from ``sys.modules``);
* the classes ``DistanceOracle`` (``query``, ``batch_distances_from``) and
  ``LayeringTree`` (``append_layer``).

``DistanceOracle.query`` runs about 1.5 million times per 2-tree instance, so
it gets no span of its own: its calls are folded into a count, a distinct
count and a summed time per (instance, parent span, phase).

Self time of a span is its duration minus its child spans' durations, minus
the folded query time charged to it.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from typing import Iterator

# Short phase names used in metric names, keyed by QueryPhase.value.
PHASES = {
    "root-bfs": "root",
    "bootstrap": "bootstrap",
    "ancestor-search": "ancestor",
    "neighbor-search": "neighbor",
}

ORACLE_SPAN = "oracle.batch_distances_from"

WRAPPER_MARK = "_perfbench_wrapped"


class Tracer:
    """In-memory span store for one traced pass.

    A span is ``[name, start, end, parent, instance, phase]``; ``parent`` is
    the index of the enclosing span or -1. ``queries`` maps
    ``(instance, parent, phase)`` to ``[calls, distinct, seconds]``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.queries: dict[tuple[int, int, str], list] = {}
        self.instance = -1

    @contextmanager
    def span(self, name: str, phase: str | None = None) -> Iterator[None]:
        parent = self.stack[-1] if self.stack else -1
        sid = len(self.spans)
        rec = [name, self.clock(), 0.0, parent, self.instance, phase]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield
        finally:
            rec[2] = self.clock()
            self.stack.pop()

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "queries": [
                [inst, parent, phase, *acc]
                for (inst, parent, phase), acc in self.queries.items()
            ],
        }


def _wrap_function(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    setattr(wrapper, WRAPPER_MARK, True)
    return wrapper


def _wrap_batch(tracer: Tracer, fn):
    def batch_distances_from(self, s, targets, phase):
        with tracer.span(ORACLE_SPAN, phase.value):
            return fn(self, s, targets, phase)

    setattr(batch_distances_from, WRAPPER_MARK, True)
    return batch_distances_from


def _wrap_query(tracer: Tracer, fn):
    clock = tracer.clock
    stack = tracer.stack
    queries = tracer.queries

    def query(self, u, v, phase):
        ledger = self.ledger
        before = ledger.distinct_queries
        t0 = clock()
        d = fn(self, u, v, phase)
        dt = clock() - t0
        key = (tracer.instance, stack[-1] if stack else -1, phase.value)
        acc = queries.get(key)
        if acc is None:
            acc = queries[key] = [0, 0, 0.0]
        acc[0] += 1
        acc[1] += ledger.distinct_queries - before
        acc[2] += dt
        return d

    setattr(query, WRAPPER_MARK, True)
    return query


def patch_targets() -> list[tuple[object, str]]:
    """(owner, attribute) pairs the traced pass replaces."""
    from sprec.layering import LayeringTree
    from sprec.oracle import DistanceOracle

    rec_mod = sys.modules["sprec.reconstruct"]
    return [
        (rec_mod, "centroid"),
        (rec_mod, "neighbors_of_set"),
        (rec_mod, "components_masked"),
        (LayeringTree, "append_layer"),
        (DistanceOracle, "batch_distances_from"),
        (DistanceOracle, "query"),
    ]


_SPAN_NAMES = {
    "centroid": "layering.centroid",
    "neighbors_of_set": "graph.neighbors_of_set",
    "components_masked": "graph.components_masked",
    "append_layer": "layering.append_layer",
}


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install the wrappers for the duration of the block, then restore."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr in patch_targets():
            original = vars(owner)[attr]
            if attr == "query":
                wrapper = _wrap_query(tracer, original)
            elif attr == "batch_distances_from":
                wrapper = _wrap_batch(tracer, original)
            else:
                wrapper = _wrap_function(tracer, original, _SPAN_NAMES[attr])
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names of patch targets that currently hold a tracing wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in patch_targets()
        if getattr(vars(owner)[attr], WRAPPER_MARK, False)
    ]


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list], queries: list[list]) -> list[float]:
    """Self seconds of every span.

    Spans come from one thread's stack of context managers, so children
    neither overlap nor outlive their parent and their durations simply add.
    """
    out = [end - start for _name, start, end, *_rest in spans]
    for _name, start, end, parent, _inst, _phase in spans:
        if parent >= 0:
            out[parent] -= end - start
    for _inst, parent, _phase, _calls, _distinct, seconds in queries:
        if parent >= 0:
            out[parent] -= seconds
    return out


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict, results: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one instance, so per instance).

    ``results`` holds, per traced instance, the ledger split (``per_phase``
    keyed by QueryPhase.value) and the LayerTrace maxima read from the
    ReconstructionResult.
    """
    spans, queries = trace["spans"], trace["queries"]
    selfs = self_times(spans, queries)
    names = [s[0] for s in spans]

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    m: dict[str, float] = {}
    calls = sum(q[3] for q in queries)
    distinct = sum(q[4] for q in queries)
    # Oracle busy time: top-level oracle spans plus folded queries that did
    # not run inside one (those inside are already part of the span).
    busy = {short: 0.0 for short in PHASES.values()}
    for name, start, end, parent, _inst, phase in spans:
        if name == ORACLE_SPAN and (parent < 0 or names[parent] != ORACLE_SPAN):
            busy[PHASES[phase]] += end - start
    for _inst, parent, phase, _calls, _distinct, seconds in queries:
        if parent < 0 or names[parent] != ORACLE_SPAN:
            busy[PHASES[phase]] += seconds
    busy_s = sum(busy.values())
    m["oracle.calls"] = calls
    m["oracle.distinct"] = distinct
    m["oracle.reuse_ratio"] = distinct / calls if calls else 0.0
    m["oracle.busy_s"] = busy_s
    m["oracle.us_per_distinct"] = busy_s / distinct * 1e6 if distinct else 0.0
    for short, seconds in busy.items():
        m[f"oracle.busy_s.{short}"] = seconds

    for value, short in PHASES.items():
        m[f"reconstruct.q_{short}"] = sum(r["per_phase"][value] for r in results)
    recon = [i for i, s in enumerate(spans) if s[0] == "reconstruct"]
    m["reconstruct.total_s"] = sum(spans[i][2] - spans[i][1] for i in recon)
    m["reconstruct.self_s"] = sum(selfs[i] for i in recon)

    intervals: list[float] = []
    growth: list[float] = []
    for i in recon:
        starts = [s[1] for s in spans if s[0] == "layering.append_layer" and s[3] == i]
        bounds = starts + [spans[i][2]]
        per_layer = [b - a for a, b in zip(bounds, bounds[1:])]
        intervals.extend(per_layer)
        tenth = max(1, len(per_layer) // 10)
        if per_layer:
            first = statistics.fmean(per_layer[:tenth])
            last = statistics.fmean(per_layer[-tenth:])
            growth.append(last / first if first > 0 else 0.0)
    m["reconstruct.layers"] = len(intervals)
    m["reconstruct.layer_s_p50"] = _p50(intervals)
    m["reconstruct.layer_s_max"] = max(intervals, default=0.0)
    m["reconstruct.layer_growth"] = _p50(growth)
    for key in ("max_candidate_set", "max_ancestor_rounds", "max_ancestor_call_queries"):
        m[f"reconstruct.{key}"] = max(r.get(key, 0) for r in results)

    m["layering.centroid_calls"] = names.count("layering.centroid")
    m["layering.centroid_s"] = total("layering.centroid")
    m["layering.append_layer_s"] = total("layering.append_layer")
    m["graph.components_masked_s"] = total("graph.components_masked")
    m["graph.neighbors_of_set_s"] = total("graph.neighbors_of_set")
    m["graph.verify_s"] = total("graph.graphs_equal")
    m["generate.s"] = total("generate")
    return m
