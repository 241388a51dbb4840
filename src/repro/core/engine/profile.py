"""Hot-path profiling harness for the execution backends.

Runs a representative fleet workload under cProfile and buckets the
cumulative time into the runtime's hot subsystems — span/trace
allocation, metric updates, journal writes, stream dispatch, LLM
simulation, scheduling — so a perf change can be judged by where the
time actually goes rather than by the end-to-end number alone.

Usage::

    PYTHONPATH=src python -m repro.core.engine.profile [--backend threads]
                                                       [--plans 8] [--top 15]
                                                       [--json out.json]

Programmatic use: :func:`profile_fleet` returns per-bucket tottime and
call counts plus the raw :class:`pstats.Stats`; :func:`to_artifact`
renders that into the JSON payload ``benchmarks/bench_profile.py`` gates
on, and ``--json`` writes it to disk.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
from typing import Any

#: Bucket name -> path fragments matched against profiled filenames.
#:
#: Fragments name whole ``.py`` files so no fragment is a substring of a
#: path another bucket also matches (``streams/stream`` used to swallow
#: ``streams/stream...`` prefixes, and classification took whichever
#: bucket iterated first).  :func:`classify` checks every bucket and
#: treats a double match as a configuration error rather than silently
#: keeping the first.
HOT_PATHS: dict[str, tuple[str, ...]] = {
    "spans": ("observability/span.py",),
    "metrics": ("observability/metrics.py",),
    "journal": ("recovery/journal.py",),
    "streams": (
        "streams/store.py",
        "streams/stream.py",
        "streams/subscription.py",
        "streams/message.py",
    ),
    "llm": ("llm/model.py", "llm/knowledge.py", "llm/tokenizer.py"),
    "scheduling": (
        "core/coordinator.py",
        "core/engine/backend.py",
        "core/fleet/scheduler.py",
        "core/scheduler/timeline.py",
    ),
}


def classify(filename: str) -> str | None:
    """The bucket *filename* belongs to, or None for unbucketed frames.

    Raises:
        ValueError: if the filename matches more than one bucket — the
            fragment table is meant to partition the tree, and an overlap
            would otherwise mis-attribute time depending on dict order.
    """
    normalized = filename.replace("\\", "/")
    matched: str | None = None
    for name, fragments in HOT_PATHS.items():
        for fragment in fragments:
            if fragment in normalized:
                if matched is not None:
                    raise ValueError(
                        f"HOT_PATHS overlap: {filename!r} matches both "
                        f"{matched!r} and {name!r}"
                    )
                matched = name
                break
    return matched


def _run_fleet(plans: int, backend: str) -> None:
    """The profiled workload: N standard fleet plans on one blueprint."""
    from ...cli import _fleet_agents, _fleet_plan
    from ..fleet import FleetSubmission
    from ..runtime import Blueprint

    blueprint = Blueprint()
    submissions = [
        FleetSubmission(
            plan=_fleet_plan(index),
            agents=_fleet_agents(blueprint.catalog, index),
        )
        for index in range(plans)
    ]
    blueprint.run_fleet(
        submissions,
        max_inflight=max(2, plans // 2),
        single_flight=False,
        backend=backend,
    )


def profile_fleet(plans: int = 8, backend: str = "serial") -> dict[str, Any]:
    """Profile one fleet run; returns bucket totals and the raw stats.

    The result maps each :data:`HOT_PATHS` bucket to its cumulative
    *tottime* (seconds spent inside that subsystem's own frames, not
    callees — so buckets do not double-count each other) under
    ``buckets``, its primitive-call count under ``calls``, plus
    ``total`` / ``total_calls`` (whole-run) and ``stats`` (the
    :class:`pstats.Stats` for ad-hoc inspection).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run_fleet(plans, backend)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    buckets = {name: 0.0 for name in HOT_PATHS}
    calls = {name: 0 for name in HOT_PATHS}
    total = 0.0
    total_calls = 0
    for (filename, _line, _func), (cc, _nc, tottime, _cum, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        total += tottime
        total_calls += cc
        name = classify(filename)
        if name is not None:
            buckets[name] += tottime
            calls[name] += cc
    return {
        "buckets": buckets,
        "calls": calls,
        "total": total,
        "total_calls": total_calls,
        "stats": stats,
    }


def to_artifact(report: dict[str, Any], plans: int, backend: str) -> dict[str, Any]:
    """The JSON-serializable profile summary the perf gate consumes.

    ``share`` is each bucket's fraction of whole-run tottime;
    ``observability_share`` (spans + metrics) is the number the hot-path
    budget in ``benchmarks/BENCH_profile.json`` bounds.
    """
    total = report["total"] or 1.0
    buckets = {
        name: {
            "tottime": report["buckets"][name],
            "share": report["buckets"][name] / total,
            "calls": report["calls"][name],
        }
        for name in HOT_PATHS
    }
    return {
        "workload": {"plans": plans, "backend": backend},
        "total_tottime": report["total"],
        "total_calls": report["total_calls"],
        "buckets": buckets,
        "observability_share": (
            (report["buckets"]["spans"] + report["buckets"]["metrics"]) / total
        ),
        "observability_calls": report["calls"]["spans"] + report["calls"]["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plans", type=int, default=8)
    parser.add_argument("--backend", choices=("serial", "threads"), default="serial")
    parser.add_argument(
        "--top", type=int, default=15, help="also print the top-N functions"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the profile summary as JSON"
    )
    args = parser.parse_args(argv)
    report = profile_fleet(plans=args.plans, backend=args.backend)
    total = report["total"] or 1.0
    print(f"fleet profile: {args.plans} plans, backend={args.backend}")
    print(f"{'bucket':<12} {'tottime':>9} {'share':>7} {'calls':>9}")
    for name, seconds in sorted(
        report["buckets"].items(), key=lambda kv: -kv[1]
    ):
        print(
            f"{name:<12} {seconds:>8.3f}s {seconds / total:>6.1%}"
            f" {report['calls'][name]:>9}"
        )
    print(f"{'(total)':<12} {report['total']:>8.3f}s {'':>7} {report['total_calls']:>9}")
    if args.json:
        artifact = to_artifact(report, plans=args.plans, backend=args.backend)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.top:
        print()
        report["stats"].sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual harness
    raise SystemExit(main())
