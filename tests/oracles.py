"""Independent oracles the test suite checks results against.

Everything here recomputes answers with textbook methods (queue BFS,
boolean-matrix closure, one numpy call per node), deliberately sharing
no code with the implementations it judges.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from math import inf

import numpy as np

from callpath.model import InMemoryGraph, MethodMeta, ClassKind
from callpath.store import AccessStats


def bfs_distances(graph, source: int) -> list[float]:
    """Unit-weight forward distances from ``source`` (inf when unreachable)."""
    dist: list[float] = [inf] * graph.node_count
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.successors(u):
            if dist[v] is inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_reachable(graph, source: int) -> set[int]:
    """Forward closure of ``source``, source excluded."""
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.successors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    seen.discard(source)
    return seen


def closure_matrix(graph) -> np.ndarray:
    """Boolean reachability matrix by repeated squaring; closure[u, v]
    is True when a path of length >= 1 leads from u to v."""
    n = graph.node_count
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in graph.successors(u):
            adj[u, v] = True
    closure = adj.copy()
    while True:
        step = closure @ adj | closure
        if np.array_equal(step, closure):
            return closure
        closure = step


def is_valid_path(graph, initial: int, final: int, path) -> bool:
    """Contiguous directed path from initial to final, every edge present."""
    if not path:
        return initial == final
    if path[0].caller != initial or path[-1].callee != final:
        return False
    for first, second in zip(path, path[1:]):
        if first.callee != second.caller:
            return False
    return all(callee in graph.successors(caller) for caller, callee in path)


def random_graph(rng: np.random.Generator, n: int, p: float) -> InMemoryGraph:
    """Bernoulli(p) digraph on n nodes with rng-assigned class kinds."""
    kinds = (ClassKind.CONCRETE, ClassKind.INTERFACE, ClassKind.ABSTRACT)
    kind_idx = rng.integers(0, len(kinds), size=n)
    metas = [MethodMeta(u, f"m{u}", f"C{u}", kinds[kind_idx[u]]) for u in range(n)]
    draws = rng.random((n, n))
    edges = [(u, v) for u in range(n) for v in range(n) if draws[u, v] < p]
    return InMemoryGraph(metas, edges)


def choice_loop(rng: np.random.Generator, sizes, counts) -> np.ndarray:
    """One ``rng.choice(size, k, replace=False)`` per row with k > 0, in
    row order, concatenated."""
    picks = [rng.choice(size, k, replace=False) for size, k in zip(sizes, counts) if k]
    return np.concatenate([np.empty(0, dtype=np.int64), *picks])


def out_degree_edges(rng: np.random.Generator, n: int, d: int, acyclic: bool):
    """The generator's out-degree background, drawn node by node: node u
    calls min(d, pool) distinct nodes of its pool, the later nodes when
    acyclic and every other node otherwise. Index i of the pool is node
    u + 1 + i when acyclic, else i below u and i + 1 from u on."""
    sizes = [n - 1 - u if acyclic else n - 1 for u in range(n)]
    counts = [min(d, size) for size in sizes]
    idx = choice_loop(rng, sizes, counts)
    src = np.repeat(np.arange(n), counts)
    return src, idx + src + 1 if acyclic else idx + (idx >= src)


def bernoulli_edges(rng: np.random.Generator, n: int, p: float, acyclic: bool):
    """The generator's edge-probability background, one ``rng.random(n)``
    per node: u -> v where draw v of row u is below p."""
    src, dst = [], []
    if p > 0.0:
        for u in range(n):
            row = rng.random(n)
            for v in range(u + 1 if acyclic else 0, n):
                if v != u and row[v] < p:
                    src.append(u)
                    dst.append(v)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def layered_bfs(graph, initial: int, final: int) -> dict:
    """Counter reference for the ``uni`` search: a layered forward BFS.

    Each round expands the whole frontier in ascending node-id order
    (one visit per expanded node) and sorts the next frontier after the
    round; the search stops the moment ``final`` is first relaxed. The
    result holds ``path`` as (caller, callee) pairs (None when no path
    exists), ``visited``, ``steps`` (rounds, including the last one that
    ran dry) and ``trace``, one (step, node) per expansion.
    """
    if initial == final:
        return {"path": [], "visited": 0, "steps": 0, "trace": []}
    prev: list[int | None] = [None] * graph.node_count
    dist: list[float] = [inf] * graph.node_count
    dist[initial] = 0
    todo = [initial]
    steps = visited = 0
    trace: list[tuple[int, int]] = []
    found = False
    while todo and not found:
        steps += 1
        todo2: list[int] = []
        for u in todo:
            visited += 1
            trace.append((steps, u))
            for v in graph.successors(u):
                if dist[v] > dist[u] + 1:
                    prev[v] = u
                    dist[v] = dist[u] + 1
                    if v == final:
                        found = True
                        break
                    todo2.append(v)
            if found:
                break
        todo = sorted(todo2)
    path = None
    if found:
        chain = [final]
        while chain[-1] != initial:
            chain.append(prev[chain[-1]])
        chain.reverse()
        path = list(zip(chain, chain[1:]))
    return {"path": path, "visited": visited, "steps": steps, "trace": trace}


class LruRecordModel:
    """Reference read accounting of a store handle: an LRU of whole node
    records, each holding the sections read so far.

    A read of ``section`` ("fwd", "bwd" or "meta") of node u is a hit when
    u's record holds that section and a miss otherwise; either way u
    becomes the most recent record and the section is added to it. A new
    record beyond ``capacity`` evicts the least recent record whole.
    ``begin_query`` empties the cache in cold mode. It counts the reads
    and the misses, and the hits follow from them, as in ``AccessStats``.
    """

    def __init__(self, capacity: int, cold: bool) -> None:
        self.capacity = capacity
        self.cold = cold
        self.records: OrderedDict[int, set[str]] = OrderedDict()
        self.stats = AccessStats()

    def read(self, section: str, u: int) -> None:
        if section == "meta":
            self.stats.meta_reads += 1
        else:
            self.stats.adjacency_reads += 1
        sections = self.records.pop(u, set())
        if section not in sections:
            self.stats.cache_misses += 1
            sections.add(section)
        self.records[u] = sections
        while len(self.records) > self.capacity:
            self.records.popitem(last=False)

    def begin_query(self) -> None:
        if self.cold:
            self.records.clear()
