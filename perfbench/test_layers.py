"""Self-tests for the benchmark's layer tracing and workload checks.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from layers import SpanRecorder, Target, self_times, sim_self_by_kind  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... so every span boundary has a known time."""

    def __init__(self) -> None:
        self.now = -1

    def __call__(self) -> int:
        self.now += 1
        return self.now


def test_self_time_is_duration_minus_children():
    recorder = SpanRecorder(clock=FakeClock())
    leaf = recorder.timed("leaf", lambda: None)
    mid = recorder.timed("mid", lambda: (leaf(), leaf()))
    root = recorder.timed("root", lambda: (mid(), leaf()))
    root()
    # Clock reads: root [0, 9], mid [1, 6] with leaves [2, 3] and [4, 5],
    # then a leaf [7, 8] directly under root.
    spans = {(name, start, end) for name, start, end, _ in recorder.spans}
    assert spans == {
        ("root", 0, 9), ("mid", 1, 6), ("leaf", 2, 3), ("leaf", 4, 5), ("leaf", 7, 8),
    }
    totals = self_times(recorder.spans)
    assert totals["root"] == (1, 9 - (6 - 1) - (8 - 7))
    assert totals["mid"] == (1, 5 - 1 - 1)
    assert totals["leaf"] == (3, 3)
    assert layers.root_time(recorder.spans) == 9


def test_span_closes_when_the_call_raises():
    recorder = SpanRecorder(clock=FakeClock())

    def boom():
        raise ValueError("expected")

    with pytest.raises(ValueError):
        recorder.timed("boom", boom)()
    assert [span[:3] for span in recorder.spans] == [["boom", 0, 1]]
    assert recorder._stack == []


def test_simulated_self_time_subtracts_the_union_of_children():
    def span(span_id, parent, kind, start, end):
        return SimpleNamespace(span_id=span_id, parent_id=parent, kind=kind,
                               start=start, end=end)

    spans = [
        span(0, None, "node", 0.0, 10.0),
        # Two overlapping children cover [1, 6]; one more covers [8, 9].
        span(1, 0, "llm", 1.0, 4.0),
        span(2, 0, "llm", 3.0, 6.0),
        span(3, 0, "llm", 8.0, 9.0),
        span(4, 0, "llm", 9.5, None),  # still open: ignored
    ]
    totals = sim_self_by_kind(spans)
    assert totals["node"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["llm"] == pytest.approx(3.0 + 3.0 + 1.0)


def test_wrappers_are_removed_even_after_an_error():
    import repro.streams.store as store_module

    originals = {
        (t.module, t.owner, t.attr): _raw(t) for t in layers.TARGETS
    }
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.installed():
            assert hasattr(store_module.StreamStore.__dict__["publish"], "__wrapped__")
            raise RuntimeError("expected")
    for target in layers.TARGETS:
        assert _raw(target) is originals[(target.module, target.owner, target.attr)]


def test_install_refuses_a_missing_target():
    recorder = SpanRecorder()
    with pytest.raises(TypeError):
        recorder.install([Target("x", "repro.streams.store", "StreamStore", "no_such")])
    assert recorder._patches == []


def test_every_per_layer_metric_maps_to_a_layer():
    import run

    for name in run.PER_LAYER_UNITS:
        assert layers.layer_of(name) in layers.LAYER_MOVES


def _raw(target: Target):
    module = sys.modules.get(target.module) or __import__(target.module, fromlist=["_"])
    return getattr(module, target.owner).__dict__[target.attr]


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a repetition takes well under a second."""
    monkeypatch.setattr(workloads, "FLEET_PLANS", 24)
    monkeypatch.setattr(workloads, "FLEET_INFLIGHT", 6)
    monkeypatch.setattr(workloads, "SURGE_HORIZON", 30.0)
    monkeypatch.setattr(workloads, "SURGE_ARRIVALS", 40)
    monkeypatch.setattr(workloads, "CONVERSATION_JOBS", 200)
    monkeypatch.setattr(workloads, "CONVERSATION_SEEKERS", 150)
    monkeypatch.setattr(workloads, "CONVERSATION_SESSIONS", 2)
    monkeypatch.setattr(workloads, "SHARD_SEEKERS", 3000)
    monkeypatch.setattr(workloads, "SHARD_GETS", 8)
    monkeypatch.setattr(workloads, "SHARD_WRITES", 8)
    monkeypatch.setattr(workloads, "SHARD_FANOUT_EACH", 1)
    monkeypatch.setattr(workloads, "SHARD_PRUNED_PER_CITY", ("title",))
    monkeypatch.setattr(workloads, "SHARD_SQL_PER_CITY", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_run(small, name):
    """Tracing changes no output, no count and no simulated metric, and the
    same seed repeats exactly in a fresh workload instance."""
    workload = workloads.WORKLOADS[name](seed=5)
    system = workload.setup()
    workload.prepare(system)
    untraced = workload.run(system, 0)
    assert untraced.completed > 0 and untraced.wrong == 0, untraced.problems

    if workload.single_use:
        system = workload.setup()
        workload.prepare(system)
    recorder = SpanRecorder()
    with recorder.installed():
        traced = workload.run(system, 1)
    assert traced.fingerprint() == untraced.fingerprint()
    assert recorder.spans, "no wrapped layer was called"

    again = workloads.WORKLOADS[name](seed=5)
    system = again.setup()
    again.prepare(system)
    assert again.run(system, 0).fingerprint() == untraced.fingerprint()


def test_a_wrong_answer_is_caught(small):
    workload = workloads.Fleet(seed=5)
    system = workload.setup()
    workload.prepare(system)
    who = workload.candidates[0]
    workload._expected[who] = {"OUT": "not what the plan returns"}
    rep = workload.run(system, 0)
    assert rep.wrong >= 1 and rep.completed == rep.attempted - rep.wrong


def test_a_repetition_that_differs_is_a_problem():
    import run

    reps = [workloads.Rep(attempted=2, completed=2, counts={"x": 1}) for _ in range(2)]
    assert run.problems_of(reps) == []
    reps[1].counts["x"] = 2
    assert run.problems_of(reps)


def test_wall_metrics_keep_each_segments_fastest_reading():
    import run

    reps = []
    for instants in ([0.0, 1.0, 5.0, 6.0, 9.0], [10.0, 13.0, 14.0, 14.5, 20.0]):
        rep = workloads.Rep(attempted=2, completed=2, windows=[[(0, 1)], [(2, 3), (3, 4)]])
        rep.timeline.instants = instants
        rep.timeline.labels = ["a", "b", "c", "d", "e"]
        rep.timeline.idle = [1]  # b -> c is bookkeeping
        reps.append(rep)
    # Fastest segments: a-b 1.0, b-c 1.0, c-d 0.5, d-e 3.0.
    at, busy = run.fastest(reps)
    assert at == [0.0, 1.0, 2.0, 2.5, 5.5]
    assert busy == 4.5
    metrics = run.end_to_end(reps, 0.25)
    assert metrics["throughput_per_s"] == 2 / 4.5
    assert metrics["wall_ms_p50"] == 1000.0 and metrics["wall_ms_p95"] == 3500.0
    # The host speed factor scales wall times and nothing else.
    scaled = run.end_to_end(reps, 0.25, factor=2.0)
    assert scaled["setup_s"] == 0.25 and scaled["throughput_per_s"] == 1 / 4.5
    assert scaled["wall_ms_p50"] == 2000.0 and scaled["wall_ms_p95"] == 7000.0
    assert scaled["completion_rate"] == metrics["completion_rate"] == 1.0


def test_host_speed_reads_the_kernel_like_the_timeline():
    from calibrate import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    speed.samples = [[2.0, 5.0, 3.0], [4.0, 1.0, 9.0]]
    # Per slot the fastest reading (2, 1, 3), averaged; the median chunk of
    # a sample and the next one.
    assert speed.fastest_factor() == REFERENCE_S / 2.0
    assert speed.typical_factor(0) == REFERENCE_S / 3.5
    assert speed.typical_factor(1) == REFERENCE_S / 4.0
    speed.samples = []
    speed.sample(chunks=3)
    assert len(speed.samples) == 1 and all(t > 0.0 for t in speed.samples[0])


def test_benchmark_json_lists_what_the_run_reports():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
