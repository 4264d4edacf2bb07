"""In-memory trace of a traced run.

Spans mark the layer boundaries the benchmark calls (each set-up phase
and each ``run_search``). Access calls are far too many to keep as
spans, so a forwarding proxy times them and the benchmark stores the
totals of each query, by call kind, on that query's span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ACCESS_KINDS = ("successors", "predecessors", "method_meta", "begin_query")


class Spans:
    """Span records kept in memory and written once, at the end."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record a span around the block; yields its record, to which
        the caller may add attributes."""
        record = {"id": len(self.records), "parent": parent, "name": name, **attrs}
        self.records.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")


class AccessProxy:
    """Forwards the graph-access contract to ``inner`` and times every
    call. ``take()`` returns and clears the totals since the last take:
    for each call kind, [calls, seconds, miss calls, miss seconds]. A
    call is a miss when it raised the store's ``cache_misses`` counter,
    read through ``access_stats()``; the in-memory graph has no misses.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.node_count = inner.node_count
        self._stats = getattr(inner, "access_stats", None)
        self._misses = 0
        self._totals = _empty_totals()
        if self._stats is not None:
            self.access_stats = self._stats
        if hasattr(inner, "begin_query"):
            self.begin_query = self._begin_query

    def successors(self, u):
        return self._timed("successors", self._inner.successors, u)

    def predecessors(self, u):
        return self._timed("predecessors", self._inner.predecessors, u)

    def method_meta(self, u):
        return self._timed("method_meta", self._inner.method_meta, u)

    def _begin_query(self):
        return self._timed("begin_query", self._inner.begin_query)

    def reset_stats(self) -> None:
        self._inner.reset_stats()
        self._misses = 0

    def take(self) -> dict[str, list]:
        totals, self._totals = self._totals, _empty_totals()
        return totals

    def _timed(self, kind, fn, *args):
        t0 = perf_counter()
        value = fn(*args)
        dt = perf_counter() - t0
        total = self._totals[kind]
        total[0] += 1
        total[1] += dt
        if self._stats is not None:
            misses = self._stats().cache_misses
            if misses != self._misses:
                self._misses = misses
                total[2] += 1
                total[3] += dt
        return value


def _empty_totals() -> dict[str, list]:
    return {kind: [0, 0.0, 0, 0.0] for kind in ACCESS_KINDS}
