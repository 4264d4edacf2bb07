"""Machine-speed reference for the benchmark's timings.

The benchmark shares its machine with other processes whose load moves
the speed of pure-Python code by tens of percent over seconds and
minutes. To cancel that, a fixed reference kernel runs every
``INTERVAL_SECONDS`` between queries. It shares no code with the
program but does the two kinds of work the program does: small reads
at scattered offsets of a file (1,500 seeks and 16-byte reads in a
1 MiB file) and a breadth-first search over a seeded 20,000-node graph
written like the program's search loops. Without the reads, the
spread of the disk-cold latencies stayed twice that of the others. Each measured time is scaled by
``REFERENCE_SECONDS`` over the mean kernel time just before and just
after it (for a set-up, the median of five samples on either side):
figures read as on a machine where the kernel takes
``REFERENCE_SECONDS``. The raw wall-clock figures are reported next to
the scaled ones.
"""

from __future__ import annotations

import statistics
import os
from math import inf
from pathlib import Path
from time import perf_counter

import numpy as np

REFERENCE_SECONDS = 0.010
INTERVAL_SECONDS = 0.2


def reference_graph(n: int = 20_000, degree: int = 3, seed: int = 5) -> tuple[tuple[int, ...], ...]:
    targets = np.random.Generator(np.random.PCG64(seed)).integers(0, n, size=(n, degree))
    return tuple(tuple(sorted(set(row))) for row in targets.tolist())


READS = 1500
FILE_BYTES = 1 << 20


def reference_offsets(seed: int = 6) -> list[int]:
    return np.random.Generator(np.random.PCG64(seed)).integers(0, FILE_BYTES - 16, size=READS).tolist()


def reference_kernel(adj, fh, offsets) -> list[float]:
    for offset in offsets:
        fh.seek(offset)
        fh.read(16)
    n = len(adj)
    dist = [inf] * n
    prev: list[int | None] = [None] * n
    dist[0] = 0
    frontier = [0]
    while frontier:
        following = []
        for u in frontier:
            alt = dist[u] + 1
            for v in adj[u]:
                if dist[v] > alt:
                    dist[v] = alt
                    prev[v] = u
                    following.append(v)
        following.sort()
        frontier = following
    return dist


class Speed:
    """Samples of the reference kernel's wall time, taken between
    queries. Its file lives in ``directory`` until ``close()``."""

    def __init__(self, directory: Path) -> None:
        self._adj = reference_graph()
        self._offsets = reference_offsets()
        self._path = directory / f"speed-{os.getpid()}.bin"
        self._path.write_bytes(bytes(FILE_BYTES))
        self._fh = self._path.open("rb")
        self.samples: list[float] = []
        self._last = -inf
        self.mark(force=True)

    def close(self) -> None:
        self._fh.close()
        self._path.unlink(missing_ok=True)

    def mark(self, force: bool = False) -> int:
        """Run the kernel when a sample is due; returns the index of the
        latest sample, which the next measured interval follows."""
        if force or perf_counter() - self._last >= INTERVAL_SECONDS:
            t0 = perf_counter()
            reference_kernel(self._adj, self._fh, self._offsets)
            self._last = perf_counter()
            self.samples.append(self._last - t0)
        return len(self.samples) - 1

    def settled(self, runs: int = 5) -> float:
        """Median kernel time over ``runs`` samples taken now; brackets
        work that cannot be interleaved with samples, like a set-up."""
        for _ in range(runs):
            self.mark(force=True)
        return statistics.median(self.samples[-runs:])

    def scales(self, marks) -> np.ndarray:
        """Scale factors for intervals that began after the samples at
        ``marks``; takes a fresh sample to close the last of them."""
        self.mark(force=True)
        samples = np.asarray(self.samples)
        marks = np.asarray(marks)
        return REFERENCE_SECONDS / ((samples[marks] + samples[marks + 1]) / 2)
