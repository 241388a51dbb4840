"""Layer tracing from outside the program.

The benchmark measures each layer of the blueprint without changing a line
under ``src/``: :class:`SpanRecorder` replaces a layer's public functions
with timing wrappers for the length of the traced run and puts the
originals back afterwards.  Spans are kept in memory as flat records
``[name, start, end, parent]`` (wall seconds from ``time.perf_counter``;
``parent`` is the index of the enclosing span, -1 for a root), so a
layer's self time is its span minus its direct child spans.

:data:`TARGETS` names every wrapped function; :data:`LAYER_MOVES` records
which end-to-end metric each layer is expected to move, on which workload.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class Target(NamedTuple):
    """One function to wrap: ``module.owner.attr`` reported as *metric*.

    *counted* targets are counted (calls and truthy results) but not
    timed: they run so often that a timer would swamp what it measures.
    """

    metric: str
    module: str
    owner: str
    attr: str
    counted: bool = False


#: Every function the traced run wraps, grouped by layer.  Several
#: functions may report under one metric name (their calls and self time
#: add up).
TARGETS: tuple[Target, ...] = (
    Target("streams.publish", "repro.streams.store", "StreamStore", "publish"),
    Target("streams.dispatch", "repro.streams.subscription", "Subscription",
           "wants", counted=True),
    Target("llm.complete", "repro.llm.model", "SimulatedLLM", "complete"),
    Target("core.coordinator", "repro.core.coordinator", "PlanExecution", "step"),
    Target("core.coordinator", "repro.core.coordinator", "TaskCoordinator",
           "execute_plan"),
    Target("core.fleet.run", "repro.core.fleet.scheduler", "FleetScheduler", "run"),
    Target("core.fleet.run", "repro.core.fleet.scheduler", "FleetScheduler",
           "run_offers"),
    Target("core.overload.admission", "repro.core.overload.admission",
           "AdmissionController", "offer"),
    Target("core.overload.admission", "repro.core.overload.admission",
           "AdmissionController", "pop"),
    Target("core.overload.admission", "repro.core.overload.admission",
           "AdmissionController", "expire"),
    Target("core.recovery.journal", "repro.core.recovery.journal",
           "WriteAheadJournal", "record"),
    # ``Tracer.span`` is an alias of ``start_span``; both names are wrapped.
    Target("observability.start_span", "repro.observability.span", "Tracer",
           "start_span"),
    Target("observability.start_span", "repro.observability.span", "Tracer", "span"),
    Target("core.planners.task_planner.plan", "repro.core.planners.task_planner",
           "TaskPlanner", "plan"),
    *(
        Target("core.planners.data_planner.plan", "repro.core.planners.data_planner",
               "DataPlanner", attr)
        for attr in (
            "plan_job_query", "plan_direct_query", "plan_rag",
            "plan_retrieval", "plan_transform", "plan_knowledge",
        )
    ),
    Target("core.planners.data_executor.execute", "repro.core.planners.data_executor",
           "DataPlanExecutor", "execute"),
    Target("core.optimizer.optimize", "repro.core.optimizer.optimizer",
           "PlanOptimizer", "optimize"),
    Target("core.registries.search", "repro.core.registries", "SearchableRegistry",
           "search"),
    Target("embedding.embed", "repro.embedding.hashing", "HashingEmbedder", "embed"),
    Target("embedding.embed", "repro.embedding.hashing", "HashingEmbedder",
           "embed_many"),
    Target("storage.relational.execute", "repro.storage.relational.database",
           "Database", "execute"),
    Target("storage.cluster.find", "repro.storage.cluster.docs",
           "ClusteredCollection", "find"),
    Target("storage.cluster.sql", "repro.storage.cluster.relational",
           "ShardedDatabase", "execute"),
    Target("storage.cluster.write", "repro.storage.cluster.docs",
           "ClusteredCollection", "insert"),
    # Bulk loads run while the sharded enterprise is built (setup_s).
    Target("storage.cluster.load", "repro.storage.cluster.docs",
           "ClusteredCollection", "insert_many"),
    Target("storage.cluster.load", "repro.storage.cluster.relational",
           "ShardedTable", "insert_many"),
)

#: Layer -> the end-to-end metrics (on the named workloads) a change to
#: that layer should move.  "none" lists workloads where the prediction
#: is no change.
LAYER_MOVES: dict[str, dict[str, str]] = {
    "streams": {
        "moves": "throughput_per_s@fleet,surge; peak_rss_mb@surge",
        "none": "conversation",
    },
    "llm": {
        "moves": "sim_cost_usd_per_request@fleet; sim_latency_s_p95@fleet",
        "none": "surge (reuse off)",
    },
    "core.coordinator": {"moves": "throughput_per_s@fleet,surge", "none": ""},
    "core.fleet": {
        "moves": "throughput_per_s@fleet,surge; sim_latency_s_p95@fleet,surge",
        "none": "conversation, shard",
    },
    "core.overload": {
        "moves": "completion_rate@surge; tier0_slo_rate@surge; sim_latency_s_p95@surge",
        "none": "fleet (layer not run)",
    },
    "core.recovery": {
        "moves": "throughput_per_s@fleet,surge; peak_rss_mb@surge",
        "none": "conversation",
    },
    "observability": {
        "moves": "throughput_per_s@surge; peak_rss_mb@surge",
        "none": "",
    },
    "core.planners": {
        "moves": "wall_ms_p50@conversation; wall_ms_p95@conversation",
        "none": "fleet, surge",
    },
    "core.optimizer": {
        "moves": "wall_ms_p50@conversation; wall_ms_p95@conversation",
        "none": "fleet, surge",
    },
    "core.registries": {
        "moves": "wall_ms_p50@conversation; wall_ms_p95@conversation",
        "none": "fleet, surge",
    },
    "embedding": {
        "moves": "wall_ms_p50@conversation; wall_ms_p95@conversation; "
                 "setup_s@conversation",
        "none": "fleet, surge",
    },
    "storage.relational": {
        "moves": "wall_ms_p50@conversation; wall_ms_p95@conversation",
        "none": "fleet, surge",
    },
    "storage.cluster": {
        "moves": "throughput_per_s@shard; wall_ms_p95@shard; setup_s@shard",
        "none": "fleet, surge, conversation",
    },
    "unattributed": {"moves": "", "none": ""},
    "bench": {"moves": "", "none": ""},
}


def layer_of(metric: str) -> str:
    """The :data:`LAYER_MOVES` key a per-layer metric name belongs to."""
    for layer in sorted(LAYER_MOVES, key=len, reverse=True):
        if metric == layer or metric.startswith(layer + "."):
            return layer
    raise KeyError(metric)


class SpanRecorder:
    """Wraps functions at runtime and records their calls as spans.

    Single-threaded by design: the benchmark runs every workload on the
    serial backend in one thread, so one open-span stack suffices.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        #: ``[name, start, end, parent]`` per timed call, in call order.
        self.spans: list[list[Any]] = []
        #: name -> ``[calls, truthy results]`` for counted targets.
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._clock = clock
        self._patches: list[tuple[type, str, Any]] = []

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped to record one span per call."""
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped to count calls and truthy results, untimed."""
        tally = self.counts.setdefault(name, [0, 0])

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            tally[0] += 1
            if result:
                tally[1] += 1
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Replace each target function on its class with a wrapper.

        A target must be a plain function defined on the named class
        itself, so a renamed or moved function fails loudly here instead
        of silently going unmeasured.
        """
        for target in targets:
            owner = getattr(importlib.import_module(target.module), target.owner)
            original = owner.__dict__.get(target.attr)
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(
                    f"{target.module}.{target.owner}.{target.attr} is not a "
                    "plain function defined on that class"
                )
            wrap = self.counted if target.counted else self.timed
            setattr(owner, target.attr, wrap(target.metric, original))
            self._patches.append((owner, target.attr, original))

    def uninstall(self) -> None:
        """Put every original function back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target] = TARGETS) -> Iterator["SpanRecorder"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[list[Any]]) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self seconds): each span minus its children.

    Spans nest strictly (one thread, one stack), so the children of a span
    never overlap and their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list[float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[index]
    return {name: (int(calls), self_s) for name, (calls, self_s) in totals.items()}


def root_time(spans: list[list[Any]]) -> float:
    """Wall seconds covered by root spans: the time inside any layer."""
    return sum(end - start for _name, start, end, parent in spans if parent < 0)


def sim_self_by_kind(spans: Iterable[Any]) -> dict[str, float]:
    """Simulated self seconds per span kind, from the program's own spans.

    Simulated children can overlap (wave nodes run on parallel timeline
    branches), so a span's self time is its duration minus the *union* of
    its children's intervals, clipped to the span.  Spans still open have
    no duration and are skipped.
    """
    spans = [s for s in spans if s.end is not None]
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[span.kind] = totals.get(span.kind, 0.0) + (span.end - span.start) - covered
    return totals
