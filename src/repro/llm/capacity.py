"""Per-model concurrency limits with deterministic queueing.

A hosted model endpoint serves a bounded number of concurrent requests;
an enterprise fleet driving many plans at once shares those slots.  A
:class:`ModelCapacity` models that shared admission control on the
simulated timeline: each completed call reserves a half-open interval
``[start, start + latency)`` against its model's slot pool, and a call
that would push the in-flight count past the model's limit is *queued* —
its start is deterministically delayed to the earliest instant a slot is
free for its whole duration.

The queueing delay is pure simulated time: the caller advances the
shared clock by the wait before paying the model latency, so budgets,
spans, and message stamps all see it, and it is surfaced as
``llm.queue_wait`` metrics and span attributes.  Because reservations
are processed in execution order (which is deterministic), two same-seed
fleet runs queue identically.

Reservation order is **not** timeline order: logically-concurrent plan
branches rebase the clock, so a later reservation may start earlier in
simulated time than one already recorded.  :meth:`reserve` therefore
checks the whole candidate window against every recorded interval — the
invariant is that no instant ever has more than ``limit`` overlapping
reservations, regardless of the order they were made in.  Each model
keeps an occupancy profile (active-reservation counts between sorted
breakpoints) that every reservation updates, so that check is one
forward sweep from the desired start, not a re-sort of the ledger per
candidate start.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from dataclasses import dataclass

from ..errors import CapacityExceededError


@dataclass(frozen=True)
class CapacityStats:
    """Point-in-time tallies of one :class:`ModelCapacity`."""

    reservations: int
    queued: int
    total_wait: float
    max_wait: float
    #: Reservations refused because their wait exceeded ``max_queue_wait``.
    rejected: int = 0

    @property
    def queue_rate(self) -> float:
        return self.queued / self.reservations if self.reservations else 0.0


class _Ledger:
    """One model's reservations and the occupancy profile they build.

    The profile is a step function over simulated time: ``points`` are
    the sorted distinct starts and ends of the positive-length intervals,
    ``counts[i]`` is the number of reservations active on the segment
    ``[points[i], points[i + 1])`` (zero before ``points[0]`` and from the
    last point on), and ``ends`` holds every interval end, sorted — the
    instants at which a slot can free, hence the only starts worth trying
    after the desired one.
    """

    __slots__ = ("intervals", "points", "counts", "ends")

    def __init__(self) -> None:
        #: Every reservation in the order it was made.
        self.intervals: list[tuple[float, float]] = []
        self.points: list[float] = []
        self.counts: list[int] = []
        self.ends: list[float] = []

    def record(self, start: float, end: float) -> None:
        self.intervals.append((start, end))
        insort(self.ends, end)
        if start < end:
            first = self._split(start)
            last = self._split(end)
            counts = self.counts
            for index in range(first, last):
                counts[index] += 1

    def _split(self, point: float) -> int:
        """Index of the breakpoint *point*, inserting it if absent."""
        points = self.points
        index = bisect_left(points, point)
        if index == len(points) or points[index] != point:
            points.insert(index, point)
            self.counts.insert(index, self.counts[index - 1] if index else 0)
        return index

    def earliest_start(self, start: float, duration: float, limit: int) -> float:
        """First of ``start`` and the recorded ends after it at which
        ``[t, t + duration)`` never has ``limit`` reservations active.

        One forward sweep: a segment at or over the limit inside the
        window rules out every later candidate before that segment's end
        too, so the search jumps to the first interval end at or after it.
        """
        points, counts, ends = self.points, self.counts, self.ends
        t = start
        while True:
            hi = t + duration
            index = bisect_right(points, t) - 1
            blocked = -1
            if hi <= t:
                # Empty window: only the instant ``t`` itself counts.
                if index >= 0 and counts[index] >= limit:
                    blocked = index
            else:
                index = max(index, 0)
                while index < len(points) and points[index] < hi:
                    if counts[index] >= limit:
                        blocked = index
                        break
                    index += 1
            if blocked < 0:
                return t
            # The last segment has count 0, so ``blocked + 1`` exists, and
            # a reservation active on the blocked segment ends at or
            # after its end.
            t = ends[bisect_left(ends, points[blocked + 1])]


class ModelCapacity:
    """Slot-limited admission control over simulated call intervals.

    Example — two slots, three unit calls wanting to start together:
        >>> capacity = ModelCapacity({"mega-s": 2})
        >>> [capacity.reserve("mega-s", 0.0, 1.0) for _ in range(3)]
        [0.0, 0.0, 1.0]
    """

    def __init__(
        self,
        slots: Mapping[str, int] | None = None,
        default_slots: int | None = None,
        max_queue_wait: float | None = None,
    ) -> None:
        for model, limit in (slots or {}).items():
            if limit <= 0:
                raise ValueError(f"capacity for {model!r} must be > 0: {limit}")
        if default_slots is not None and default_slots <= 0:
            raise ValueError(f"default_slots must be > 0: {default_slots}")
        if max_queue_wait is not None and max_queue_wait < 0:
            raise ValueError(f"max_queue_wait must be >= 0: {max_queue_wait}")
        self._slots = dict(slots or {})
        self._default_slots = default_slots
        #: Queue-depth bound in simulated seconds: a reservation whose
        #: deterministic wait would exceed this raises
        #: :class:`~repro.errors.CapacityExceededError` instead of
        #: queueing (None = queue unboundedly, the pre-overload default).
        self.max_queue_wait = max_queue_wait
        self._ledgers: dict[str, _Ledger] = {}
        self._lock = threading.Lock()
        self._reservations = 0
        self._queued = 0
        self._total_wait = 0.0
        self._max_wait = 0.0
        self._rejected = 0

    def limit_for(self, model: str) -> int | None:
        """The model's slot count, or None when unlimited."""
        return self._slots.get(model, self._default_slots)

    # ------------------------------------------------------------------
    # Reservation
    # ------------------------------------------------------------------
    def reserve(self, model: str, start: float, duration: float) -> float:
        """Reserve a slot interval; returns the (possibly delayed) start.

        The interval ``[actual_start, actual_start + duration)`` is
        recorded against *model* even when the model is unlimited, so
        :meth:`max_concurrency` can report *observed* concurrency either
        way.  ``actual_start - start`` is the deterministic queue wait.
        """
        with self._lock:
            ledger = self._ledgers.get(model)
            if ledger is None:
                ledger = self._ledgers[model] = _Ledger()
            limit = self.limit_for(model)
            actual = (
                start
                if limit is None
                else ledger.earliest_start(start, duration, limit)
            )
            wait = actual - start
            if self.max_queue_wait is not None and wait > self.max_queue_wait:
                # Refuse rather than queue: nothing is recorded, so the
                # slot the caller would have waited for stays claimable
                # by whoever retries first (deterministically, since
                # reservation order is execution order).
                self._rejected += 1
                raise CapacityExceededError(
                    f"model {model!r} queue wait {wait:.3f}s exceeds "
                    f"max_queue_wait {self.max_queue_wait:.3f}s"
                )
            ledger.record(actual, actual + duration)
            self._reservations += 1
            if wait > 0:
                self._queued += 1
                self._total_wait += wait
                if wait > self._max_wait:
                    self._max_wait = wait
            return actual

    # ------------------------------------------------------------------
    # Inspection (benchmarks verify limits were honored)
    # ------------------------------------------------------------------
    def intervals(self, model: str) -> list[tuple[float, float]]:
        with self._lock:
            ledger = self._ledgers.get(model)
            return list(ledger.intervals) if ledger is not None else []

    def models(self) -> list[str]:
        with self._lock:
            return sorted(self._ledgers)

    def max_concurrency(self, model: str) -> int:
        """Peak observed in-flight calls for *model* across the ledger."""
        with self._lock:
            ledger = self._ledgers.get(model)
            return max(ledger.counts, default=0) if ledger is not None else 0

    def stats(self) -> CapacityStats:
        with self._lock:
            return CapacityStats(
                reservations=self._reservations,
                queued=self._queued,
                total_wait=self._total_wait,
                max_wait=self._max_wait,
                rejected=self._rejected,
            )

    def clear(self) -> None:
        """Drop the interval ledger (tallies survive: they are history)."""
        with self._lock:
            self._ledgers.clear()
