"""The blueprint's benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``fleet``, ``surge``, ``conversation`` and
``shard``.  Each run uses one process, one thread and the serial backend.

``--trace 0`` builds and warms the system, then serves repetitions until
``--seconds`` have passed (at least two).  A single-use system is rebuilt
before every further repetition, a reusable one ``builds`` times spread
over the run, each time ``setup_repeats`` builds in a row; ``setup_s`` is
the median of all these timed builds, each scaled by the host speed
sampled around it.

Each repetition marks a timeline at the same points every time (a stage
starting or ending, a turn or an operation starting and ending), and the
wall metrics come from the fastest reading of each stretch between two
marks over all repetitions: bursts of noise from a shared host slow some
readings of a stretch, rarely all of them.  Throughput is completed
requests over the summed fastest stretches; a request's wall latency is
the sum of the stretches it is made of.  A fleet plan's latency runs from
the batch's submission to its last stage ending; a surge plan's is its
service time, the stretches that end where one of its stages starts or
ends.  Every wall time is then scaled to a reference host speed, read with
the same statistic from a fixed kernel timed between repetitions
(``calibrate.py``); the raw values are printed beside the scaled ones.

Every simulated metric and every count must repeat exactly across
repetitions, and every answer is checked against a reference, or the run
reports ``"correct": false``.  The gated end-to-end metrics are the ones
every workload has; the simulated ones (``sim_*``, ``tier0_slo_rate``)
are printed where they apply.

``--trace 1`` serves untraced repetitions for half the time, then traces
one setup plus one repetition: ``layers.SpanRecorder`` wraps each layer's
public functions at runtime and removes the wrappers afterwards.  It
reports every per-layer metric, tagged with the end-to-end metric and
workload it should move, plus ``bench.trace_overhead`` (traced over
untraced throughput) and ``unattributed.share`` (traced wall time inside
no wrapped layer).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
MIN_REPS = 2

#: End-to-end metrics every workload reports (gated by BENCHMARK.json).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "completion_rate": "ratio",
    "wall_ms_p50": "ms",
    "wall_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics only some workloads have; printed, not gated.
SIM_UNITS = {
    "sim_latency_s_p50": "sim_s",
    "sim_latency_s_p95": "sim_s",
    "sim_makespan_s": "sim_s",
    "sim_cost_usd_per_request": "sim_usd",
    "tier0_slo_rate": "ratio",
}

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "streams.publish.calls": "count",
    "streams.publish.self_s": "s",
    "streams.dispatch.candidates": "count",
    "streams.dispatch.candidates_per_publish": "ratio",
    "streams.dispatch.match_ratio": "ratio",
    "streams.subscriptions.live_end": "count",
    "streams.trace.messages_end": "count",
    "llm.complete.calls": "count",
    "llm.complete.self_s": "s",
    "llm.physical_calls": "count",
    "llm.reuse_ratio": "ratio",
    "llm.single_flight.joins": "count",
    "llm.batch.joins": "count",
    "llm.batch.mean_size": "count",
    "llm.capacity.queued": "count",
    "llm.capacity.wait_sim_s": "sim_s",
    "llm.sim_self_s": "sim_s",
    "core.coordinator.calls": "count",
    "core.coordinator.self_s": "s",
    "core.coordinator.node_sim_self_s": "sim_s",
    "core.fleet.run.self_s": "s",
    "core.fleet.queue_wait_sim_s_p95": "sim_s",
    "core.overload.admission.calls": "count",
    "core.overload.admission.self_s": "s",
    "core.overload.rejected.rate_limited": "count",
    "core.overload.rejected.shed": "count",
    "core.overload.rejected.deadline_expired": "count",
    "core.overload.rejected.backlog_full": "count",
    "core.overload.brownout.transitions": "count",
    "core.recovery.journal.records": "count",
    "core.recovery.journal.self_s": "s",
    "observability.start_span.calls": "count",
    "observability.start_span.self_s": "s",
    "observability.spans_end": "count",
    "core.planners.task_planner.plan.calls": "count",
    "core.planners.task_planner.plan.self_s": "s",
    "core.planners.data_planner.plan.calls": "count",
    "core.planners.data_planner.plan.self_s": "s",
    "core.planners.data_executor.execute.calls": "count",
    "core.planners.data_executor.execute.self_s": "s",
    "core.optimizer.optimize.calls": "count",
    "core.optimizer.optimize.self_s": "s",
    "core.registries.search.calls": "count",
    "core.registries.search.self_s": "s",
    "embedding.embed.calls": "count",
    "embedding.embed.self_s": "s",
    "storage.relational.execute.calls": "count",
    "storage.relational.execute.self_s": "s",
    "storage.cluster.find.calls": "count",
    "storage.cluster.find.self_s": "s",
    "storage.cluster.docs_scanned_per_find": "count",
    "storage.cluster.shards_scanned_per_query": "count",
    "storage.cluster.sql.calls": "count",
    "storage.cluster.sql.self_s": "s",
    "storage.cluster.write.calls": "count",
    "storage.cluster.write.self_s": "s",
    "storage.cluster.write.rejected": "count",
    "storage.cluster.load.calls": "count",
    "storage.cluster.load.self_s": "s",
    "unattributed.share": "ratio",
    "bench.trace_overhead": "ratio",
}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload: Any, setups: list[tuple[float, int]], speed: Any) -> Any:
    """Build the system ``workload.setup_repeats`` times back to back; each
    build's seconds go to *setups* with the host speed sample taken before
    it (the first one, for builds before any).  Returns the last build."""
    system = None
    for _ in range(workload.setup_repeats):
        system = None  # free the previous build before the next
        gc.collect()
        start = time.perf_counter()
        system = workload.setup()
        setups.append((time.perf_counter() - start, max(0, len(speed.samples) - 1)))
    return system


def serve(workload: Any, setups: list[tuple[float, int]], speed: Any, seconds: float,
          min_reps: int) -> list[Any]:
    """Serve repetitions until *seconds* have passed and *min_reps* ran.

    A single-use system is rebuilt before every further repetition; a
    reusable one is built ``workload.builds`` times, spread evenly over the
    run.  The first build also pays for first imports; the median shrugs
    that off.  *speed* samples the host before and after every repetition."""
    system = timed_setup(workload, setups, speed)
    workload.prepare(system)
    speed.sample()
    reps: list[Any] = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        built = len(setups) // workload.setup_repeats
        if reps and (workload.single_use or (
                built < workload.builds and built <= workload.builds * elapsed / seconds)):
            system = None  # free the old system before building the next
            system = timed_setup(workload, setups, speed)
            workload.prepare(system)
        gc.collect()
        reps.append(workload.run(system, len(reps)))
        speed.sample()
    return reps


def throughput(rep: Any) -> float:
    return rep.completed / rep.wall_s


def fastest(reps: list[Any]) -> tuple[list[float], float]:
    """Per timeline segment, the fastest reading over *reps*.

    Returns the cumulative instants of the segments (starting at 0.0) and
    the busy seconds, which leave out segments marked idle."""
    labels = reps[0].timeline.labels
    series = [r.timeline.instants for r in reps if r.timeline.labels == labels]
    best = [min(s[i + 1] - s[i] for s in series) for i in range(len(labels) - 1)]
    idle = set(reps[0].timeline.idle)
    busy = sum(seconds for i, seconds in enumerate(best) if i not in idle)
    return [0.0, *itertools.accumulate(best)], busy


def end_to_end(reps: list[Any], setup_s: float, factor: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics; fastest-per-segment wall times are multiplied
    by *factor* (see ``calibrate.py``)."""
    from workloads import quantile

    first = reps[0]
    at, busy = fastest(reps)
    latencies = [sum(at[last] - at[start] for start, last in spans) for spans in first.windows]
    return {
        "setup_s": setup_s,
        "throughput_per_s": first.completed / (factor * busy),
        "completion_rate": first.completed / first.attempted,
        "wall_ms_p50": factor * 1000 * quantile(latencies, 0.50),
        "wall_ms_p95": factor * 1000 * quantile(latencies, 0.95),
        "peak_rss_mb": peak_rss_mb(),
    }


def problems_of(reps: list[Any]) -> list[str]:
    """Wrong answers, plus any exact metric that differs between reps."""
    found = [problem for rep in reps for problem in rep.problems]
    for index, rep in enumerate(reps[1:], start=1):
        if rep.fingerprint() != reps[0].fingerprint():
            found.append(f"repetition {index} differs from repetition 0 in an exact "
                         "metric, count or output")
    return found


def layer_metrics(recorder: Any, rep: Any, window_s: float,
                  trace_overhead: float) -> dict[str, float]:
    """Every per-layer metric from one traced setup plus repetition."""
    from layers import TARGETS, root_time, self_times

    timed = self_times(recorder.spans)
    metrics: dict[str, float] = {}
    for name in {t.metric for t in TARGETS if not t.counted}:
        calls, self_s = timed.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    metrics["core.recovery.journal.records"] = metrics.pop("core.recovery.journal.calls")
    wants, matched = recorder.counts.get("streams.dispatch", [0, 0])
    publishes = metrics["streams.publish.calls"]
    metrics["streams.dispatch.candidates"] = wants
    metrics["streams.dispatch.candidates_per_publish"] = wants / publishes if publishes else 0.0
    metrics["streams.dispatch.match_ratio"] = matched / wants if wants else 0.0
    metrics.update(rep.counts)
    logical = metrics["llm.complete.calls"]
    physical = metrics.get("llm.physical_calls", 0)
    metrics["llm.reuse_ratio"] = 1.0 - physical / logical if logical else 0.0
    metrics["unattributed.share"] = 1.0 - root_time(recorder.spans) / window_s
    metrics["bench.trace_overhead"] = trace_overhead
    return {name: float(metrics.get(name, 0)) for name in PER_LAYER_UNITS}


def run_traced(workload: Any, untraced: list[Any]) -> tuple[dict[str, float], list[str]]:
    """Trace one setup plus one repetition; returns (metrics, problems)."""
    from layers import SpanRecorder, TARGETS

    recorder = SpanRecorder()
    gc.collect()
    with recorder.installed():
        start = time.perf_counter()
        system = workload.setup()
        setup_s = time.perf_counter() - start
    workload.prepare(system)
    gc.collect()
    with recorder.installed():
        rep = workload.run(system, len(untraced))
    problems = list(rep.problems)
    if rep.fingerprint() != untraced[0].fingerprint():
        problems.append("the traced repetition differs from the untraced one")
    for target in TARGETS:
        owner = getattr(sys.modules[target.module], target.owner)
        if hasattr(owner.__dict__[target.attr], "__wrapped__"):
            problems.append(f"wrapper left on {target.owner}.{target.attr}")
    overhead = throughput(rep) / statistics.median(throughput(r) for r in untraced)
    return layer_metrics(recorder, rep, setup_s + rep.wall_s, overhead), problems


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>16.6g} {unit:<8} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = HERE.parent / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program to measure at {source}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from calibrate import HostSpeed
    from layers import LAYER_MOVES, layer_of
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    setups: list[tuple[float, int]] = []
    speed = HostSpeed()
    budget = args.seconds / 2 if args.trace else args.seconds
    reps = serve(workload, setups, speed, budget, 1 if args.trace else MIN_REPS)
    problems = problems_of(reps)
    first = reps[0]

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  "
          f"requests per repetition {first.attempted}  "
          f"latency samples per repetition {len(first.windows)}  builds {len(setups)}")
    print(f"  completed {first.completed}  refused {first.refused}  "
          f"wrong or failed {first.wrong}")
    raw = end_to_end(reps, statistics.median(seconds for seconds, _ in setups))
    factor = speed.fastest_factor()
    setup_s = statistics.median(seconds * speed.typical_factor(k) for seconds, k in setups)
    e2e = end_to_end(reps, setup_s, factor)
    print(f"end-to-end (wall times x {factor:.4f}, the host speed factor; each build x the "
          "factor of the samples around it; raw in brackets):")
    for name, value in e2e.items():
        note = f"[{raw[name]:.6g}]" if raw[name] != value else ""
        report(name, value, END_TO_END_UNITS[name], note)
    for name, value in first.sim.items():
        report(name, value, SIM_UNITS[name], "(exact for the seed)")

    if args.trace:
        metrics, traced_problems = run_traced(workload, reps)
        problems += traced_problems
        units = PER_LAYER_UNITS
        print("per-layer (one traced setup plus one repetition):")
        for name, value in metrics.items():
            moves = LAYER_MOVES[layer_of(name)]
            note = "; ".join(
                f"{label} {moves[key]}"
                for key, label in (("moves", "moves"), ("none", "no change on"))
                if moves[key]
            )
            report(name, value, units[name], f"[{note}]" if note else "")
    else:
        metrics, units = e2e, END_TO_END_UNITS

    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.wrong for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
