"""Differential tests: the occupancy-profile search against the ledger scan.

:class:`ModelCapacity` answers each reservation with one forward sweep
over a per-model occupancy profile.  The oracle below is the search it
replaced: try the desired start and then every recorded interval end
after it, in order, and take the first whose window never reaches the
limit, rebuilding and sorting an event list over the whole ledger for
every candidate.  Both must pick the same float, bit for bit, on any
ledger.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.errors import CapacityExceededError
from repro.llm import ModelCapacity


def _max_overlap(intervals, lo, hi):
    """Peak number of *intervals* simultaneously active within ``[lo, hi)``."""
    if hi <= lo:
        return sum(1 for s, e in intervals if s <= lo < e)
    events = []
    for s, e in intervals:
        s2, e2 = max(s, lo), min(e, hi)
        if s2 < e2:
            events.append((s2, 1))
            events.append((e2, -1))
    events.sort()
    current = peak = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def oracle_start(intervals, limit, start, duration):
    if limit is None or not intervals:
        return start
    candidates = sorted({start} | {e for _, e in intervals if e > start})
    for t in candidates:
        if _max_overlap(intervals, t, t + duration) < limit:
            return t
    return start


def oracle_peak(intervals):
    if not intervals:
        return 0
    lo = min(s for s, _ in intervals)
    hi = max(e for _, e in intervals)
    return _max_overlap(intervals, lo, hi if hi > lo else lo + 1.0)


def random_calls(rng: random.Random, n: int):
    """Out-of-order starts with zero, repeated and touching durations."""
    on_grid = rng.random() < 0.5
    durations = [0.0, 0.5, 1.0, 1.0, 2.5, rng.uniform(0.1, 4.0)]
    calls = []
    ends: list[float] = []
    for _ in range(n):
        if ends and rng.random() < 0.25:
            start = rng.choice(ends)  # start exactly where a reservation ended
        elif on_grid:
            start = rng.randint(0, 24) * 0.5
        else:
            start = rng.uniform(0.0, 30.0)
        duration = rng.choice(durations) if rng.random() < 0.7 else rng.uniform(0, 6)
        calls.append((start, duration))
        ends.append(start + duration)
    return calls


def replay(capacity, model, limit, calls):
    """Reserve *calls* on *capacity*, checking each start against the oracle."""
    intervals: list[tuple[float, float]] = []
    for start, duration in calls:
        expected = oracle_start(intervals, limit, start, duration)
        got = capacity.reserve(model, start, duration)
        assert got == expected and repr(got) == repr(expected), (start, duration)
        intervals.append((got, got + duration))
    return intervals


class TestReserveMatchesOracle:
    @pytest.mark.parametrize("block", range(8))
    def test_limited_models(self, block):
        for seed in range(block * 40, (block + 1) * 40):
            rng = random.Random(seed)
            limit = rng.randint(1, 4)
            capacity = ModelCapacity({"m": limit})
            intervals = replay(capacity, "m", limit, random_calls(rng, rng.randint(1, 50)))
            assert capacity.intervals("m") == intervals
            assert capacity.max_concurrency("m") == oracle_peak(intervals)
            assert capacity.max_concurrency("m") <= limit

    def test_default_slots_and_unlimited_models(self):
        for seed in range(60):
            rng = random.Random(1000 + seed)
            default = rng.randint(1, 3)
            capacity = ModelCapacity({"capped": 1}, default_slots=default)
            free = ModelCapacity()
            for model, limit, target in (
                ("capped", 1, capacity),
                ("fallback", default, capacity),
                ("open", None, free),
            ):
                intervals = replay(target, model, limit, random_calls(rng, 30))
                assert target.max_concurrency(model) == oracle_peak(intervals)
            assert capacity.models() == ["capped", "fallback"]

    def test_out_of_order_branch_rebasing(self):
        # A later reservation lands earlier on the timeline than ones
        # already recorded, between and across them.
        capacity = ModelCapacity({"m": 2})
        calls = [(5.0, 1.0), (5.0, 2.0), (0.0, 5.5), (0.0, 1.0), (4.5, 1.0),
                 (6.0, 0.0), (5.5, 0.5), (0.0, 7.0), (7.0, 0.0)]
        replay(capacity, "m", 2, calls)
        assert capacity.max_concurrency("m") == 2

    def test_zero_length_reservations_hold_no_slot(self):
        capacity = ModelCapacity({"m": 1})
        replay(capacity, "m", 1, [(1.0, 0.0), (1.0, 0.0), (0.0, 2.0), (1.0, 0.0),
                                  (2.0, 0.0), (0.5, 1.0)])
        assert capacity.intervals("m")[:2] == [(1.0, 1.0), (1.0, 1.0)]


class TestRefusalAndClear:
    def test_refusal_changes_nothing_but_the_rejected_tally(self):
        for seed in range(40):
            rng = random.Random(2000 + seed)
            limit = rng.randint(1, 3)
            # Random traffic ending before 40.0, then ``limit`` calls that
            # fill every slot on [40, 45): the refused call must wait.
            calls = random_calls(rng, 25) + [(40.0, 5.0)] * limit
            refused = (40.0 + rng.uniform(0.0, 4.0), 1.0)
            probe = (rng.uniform(0.0, 45.0), rng.uniform(0.5, 2.0))
            twin = ModelCapacity({"m": limit})
            tested = ModelCapacity({"m": limit})
            for start, duration in calls:
                twin.reserve("m", start, duration)
                tested.reserve("m", start, duration)
            before = tested.stats()
            tested.max_queue_wait = 0.0
            with pytest.raises(CapacityExceededError):
                tested.reserve("m", *refused)
            tested.max_queue_wait = None
            after = tested.stats()
            assert after.rejected == before.rejected + 1
            assert after == replace(before, rejected=after.rejected)
            assert tested.intervals("m") == twin.intervals("m")
            assert tested.reserve("m", *probe) == twin.reserve("m", *probe)
            assert tested.max_concurrency("m") == twin.max_concurrency("m")

    def test_clear_then_reserve_behaves_like_fresh(self):
        for seed in range(40):
            rng = random.Random(3000 + seed)
            limit = rng.randint(1, 4)
            used = ModelCapacity({"m": limit})
            for start, duration in random_calls(rng, 30):
                used.reserve("m", start, duration)
            used.clear()
            assert used.models() == []
            assert used.intervals("m") == []
            assert used.max_concurrency("m") == 0
            fresh = ModelCapacity({"m": limit})
            for start, duration in random_calls(rng, 30):
                assert used.reserve("m", start, duration) == fresh.reserve(
                    "m", start, duration
                )
            assert used.intervals("m") == fresh.intervals("m")
            assert used.max_concurrency("m") == fresh.max_concurrency("m")
