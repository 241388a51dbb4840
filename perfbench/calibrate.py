"""Host speed, read from a fixed pure-Python kernel timed between repetitions.

A shared host's speed drifts: for tens of seconds at a time, neighbours'
load can slow every instruction of this process by up to about 2x, so two
runs of the same code can read far apart even when each keeps its fastest
readings.  The benchmark therefore times a fixed kernel (dict and string
work, small objects and a pointer chase over a 50,000-node list, roughly
the mix of the program's hot paths) in chunks of about a millisecond,
:data:`CHUNKS_PER_SAMPLE` chunks before the first repetition and after
each one, and scales every wall-clock metric to the speed at which a chunk
takes :data:`REFERENCE_S`.

The kernel is read with the statistic its metric uses.  The program's
timeline keeps, per segment, the fastest reading over the repetitions, so
the fastest-metrics factor keeps, per chunk slot, the fastest reading over
the samples: both then see the same share of quiet moments.  A build is
timed once, so it is scaled by the median chunk of the samples on either
side of it.  The kernel
does not touch the program, so a change to the program moves the scaled
metrics exactly as much as the raw ones.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

#: A chunk's time on a quiet host (2-vCPU Intel Xeon VM, CPython 3.11);
#: scaled metrics read as if measured at that speed.
REFERENCE_S = 0.001
CHUNKS_PER_SAMPLE = 80
#: Kernel passes per chunk, so a chunk lasts about as long as a segment.
PASSES = 6
NODES = 50_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: _Node | None = None


class HostSpeed:
    """Chunk times of a fixed kernel, one list per :meth:`sample` call."""

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        self._nodes = [_Node(i) for i in range(NODES)]
        for node in self._nodes:
            node.next = self._nodes[rng.randrange(NODES)]
        self.samples: list[list[float]] = []

    def _kernel(self) -> int:
        table: dict[str, list] = {}
        for i in range(300):
            key = f"k{i % 97}"
            table.setdefault(key, []).append((i, key))
        ordered = sorted(table, key=lambda k: len(table[k]))
        objects = {}
        for i in range(60):
            objects[str(i)] = _Node(i)
            hashlib.md5(str(i).encode()).hexdigest()
        node, total = self._nodes[0], 0
        for _ in range(600):
            node = node.next
            total += node.value
        return total + len(ordered) + len(objects)

    def sample(self, chunks: int = CHUNKS_PER_SAMPLE) -> None:
        perf_counter = time.perf_counter
        times = []
        for _ in range(chunks):
            start = perf_counter()
            for _ in range(PASSES):
                self._kernel()
            times.append(perf_counter() - start)
        self.samples.append(times)

    def fastest_factor(self) -> float:
        """Multiply a fastest-per-segment wall time by this."""
        fastest = statistics.fmean(min(slot) for slot in zip(*self.samples))
        return REFERENCE_S / fastest

    def typical_factor(self, sample: int) -> float:
        """Multiply a wall time taken between *sample* and the next sample
        by this."""
        around = self.samples[sample] + self.samples[sample + 1] if sample + 1 < len(
            self.samples) else self.samples[sample]
        return REFERENCE_S / statistics.median(around)
