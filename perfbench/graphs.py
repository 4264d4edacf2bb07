"""Benchmark inputs that do not come from the program under test.

The disk workloads get their graph from the hub-DAG generator here, as
JSONL text, so the program sees only the generated input. The edge
arrays built here also back the reachability oracle and the stratified
pair mining.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, shortest_path

# Regime rule of the paper's pair classification: a closure is "few"
# when it holds at most 5% of the nodes (and at least one node), and a
# side dominates when it is five times the other.
MANY_FRACTION = 0.05
DOMINANCE_RATIO = 5.0


def hub_dag(n: int, out_degree: int, hub_count: int, hub_indegree: int, seed: int):
    """Acyclic hub graph: every node calls ``out_degree`` distinct later
    nodes, and ``hub_count`` interface hubs gain ``hub_indegree`` extra
    callers each. Returns (src, dst, hubs) as sorted int64 arrays."""
    rng = np.random.Generator(np.random.PCG64(seed))
    hubs = np.sort(rng.choice(np.arange(hub_indegree, n), size=hub_count, replace=False))
    u = np.arange(n, dtype=np.int64)
    span = n - 1 - u
    full = span >= out_degree
    targets = u[full, None] + 1 + np.floor(
        rng.random((int(full.sum()), out_degree)) * span[full, None]
    ).astype(np.int64)
    while True:
        ordered = np.sort(targets, axis=1)
        dup = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if len(dup) == 0:
            break
        rows = u[full][dup]
        targets[dup] = rows[:, None] + 1 + np.floor(
            rng.random((len(dup), out_degree)) * span[rows][:, None]
        ).astype(np.int64)
    src = [np.repeat(u[full], out_degree)]
    dst = [targets.ravel()]
    for tail in u[~full]:
        src.append(np.full(span[tail], tail))
        dst.append(np.arange(tail + 1, n))
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    extra_src = []
    extra_dst = []
    for h in hubs:
        existing = src[dst == h]
        order = rng.permutation(int(h))
        callers = order[~np.isin(order, existing)][:hub_indegree]
        extra_src.append(callers)
        extra_dst.append(np.full(len(callers), h))
    src = np.concatenate([src, *extra_src])
    dst = np.concatenate([dst, *extra_dst])
    order = np.lexsort((dst, src))
    return src[order], dst[order], hubs


def jsonl_text(n: int, src, dst, hubs) -> str:
    """The graph as JSONL text. Lines go one at a time through a byte
    buffer, so no list of ~10^5 line strings inflates the peak memory
    the benchmark reports."""
    hub_set = set(hubs.tolist())
    out = io.BytesIO()
    for u in range(n):
        kind = b"interface" if u in hub_set else b"concrete"
        out.write(b'{"record": "node", "id": %d, "method": "m%d", "class": "C%d", "kind": "%s"}\n' % (u, u, u, kind))
    for caller, callee in zip(src.tolist(), dst.tolist()):
        out.write(b'{"record": "edge", "caller": %d, "callee": %d}\n' % (caller, callee))
    return out.getvalue().decode("ascii")


def csr(n: int, src, dst) -> csr_matrix:
    adj = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    adj.sum_duplicates()
    return adj


def edge_digest(src, dst) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(src, dtype="<i8").tobytes())
    h.update(np.asarray(dst, dtype="<i8").tobytes())
    return h.hexdigest()


def regime(forward: int, backward: int, n: int) -> str:
    threshold = max(1.0, MANY_FRACTION * n)
    few_f = forward <= threshold
    few_b = backward <= threshold
    if few_f and few_b:
        return "P2"
    if forward >= DOMINANCE_RATIO * backward and not few_f:
        return "P1"
    if backward >= DOMINANCE_RATIO * forward and not few_b:
        return "P3"
    if not few_f and not few_b:
        return "P4"
    return "P1" if forward >= backward else "P3"


def dag_closures(n: int, src, dst):
    """Forward reachability bitsets of an id-ordered DAG (row u holds
    the nodes u reaches, start excluded) plus the forward and backward
    closure size of every node."""
    adj = csr(n, src, dst)
    width = (n + 7) // 8
    reach = np.zeros((n, width), dtype=np.uint8)
    indptr, indices = adj.indptr, adj.indices
    for u in range(n - 1, -1, -1):
        succ = indices[indptr[u] : indptr[u + 1]]
        if len(succ):
            row = np.bitwise_or.reduce(reach[succ], axis=0)
            np.bitwise_or.at(row, succ >> 3, (1 << (succ & 7)).astype(np.uint8))
            reach[u] = row
    forward = np.bitwise_count(reach).sum(axis=1, dtype=np.int64)
    backward = np.zeros(n, dtype=np.int64)
    for start in range(0, width, 256):
        bits = np.unpackbits(reach[:, start : start + 256], axis=1, bitorder="little")
        backward[8 * start : 8 * start + bits.shape[1]] = bits.sum(axis=0)[: n - 8 * start]
    return reach, forward, backward


def reaches(reach, s: int, t: int) -> bool:
    return bool(reach[s, t >> 3] >> (t & 7) & 1)


def mine_strata(reach, forward, backward, strata, per_stratum: int, seed: int, max_draws: int = 200_000):
    """Seeded stratified pairs on a DAG. A regime stratum ("P1".."P4")
    draws ``s`` among nodes that call something and ``t`` uniformly from
    the forward closure of ``s``, so a path exists; the "none" stratum
    draws ``s`` and ``t`` uniformly and keeps unreachable pairs. Returns
    {stratum: [[s, t], ...]}."""
    n = len(forward)
    callers = np.flatnonzero(forward > 0)
    out = {}
    for index, stratum in enumerate(strata):
        rng = np.random.Generator(np.random.PCG64([seed, index]))
        found: list[list[int]] = []
        seen: set[tuple[int, int]] = set()
        for _ in range(max_draws):
            if stratum == "none":
                s, t = (int(x) for x in rng.integers(n, size=2))
                keep = s != t and not reaches(reach, s, t)
            else:
                s = int(callers[rng.integers(len(callers))])
                closure = np.flatnonzero(np.unpackbits(reach[s], bitorder="little")[:n])
                t = int(closure[rng.integers(len(closure))])
                keep = regime(int(forward[s]), int(backward[t]), n) == stratum
            if keep and (s, t) not in seen:
                seen.add((s, t))
                found.append([s, t])
                if len(found) == per_stratum:
                    break
        else:
            raise RuntimeError(f"stratum {stratum}: {len(found)} of {per_stratum} pairs")
        out[stratum] = found
    return out


def mine_reachable(adj: csr_matrix, count: int, seed: int, max_draws: int = 100_000):
    """Seeded pairs with ``s`` uniform and ``t`` uniform in the forward
    closure of ``s``; each is labelled with its regime. Returns
    [[s, t, regime], ...]."""
    n = adj.shape[0]
    rev = adj.T.tocsr()
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs: list[list] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(max_draws):
        s = int(rng.integers(n))
        closure = np.sort(breadth_first_order(adj, s, return_predecessors=False)[1:])
        if len(closure) == 0:
            continue
        t = int(closure[rng.integers(len(closure))])
        if (s, t) in seen:
            continue
        seen.add((s, t))
        backward = len(breadth_first_order(rev, t, return_predecessors=False)) - 1
        pairs.append([s, t, regime(len(closure), backward, n)])
        if len(pairs) == count:
            return pairs
    raise RuntimeError(f"{len(pairs)} of {count} pairs after {max_draws} draws")


class Oracle:
    """Unweighted shortest distances from the pair sources, computed by
    scipy over the benchmark's own copy of the edge list."""

    def __init__(self, adj: csr_matrix, sources):
        self._adj = adj
        sources = sorted(set(int(s) for s in sources))
        self._row = {s: i for i, s in enumerate(sources)}
        self._dist = shortest_path(adj, unweighted=True, indices=sources)

    def distance(self, s: int, t: int) -> float:
        return float(self._dist[self._row[s], t])

    def has_edge(self, u: int, v: int) -> bool:
        adj = self._adj
        run = adj.indices[adj.indptr[u] : adj.indptr[u + 1]]
        return bool((run == v).any())

    def path_error(self, s: int, t: int, path) -> str | None:
        """Why ``path`` (a sequence of (caller, callee) edges) is not a
        path from s to t in the graph, or None when it is one."""
        at = s
        for u, v in path:
            if u != at:
                return f"edge ({u}, {v}) does not continue from {at}"
            if not self.has_edge(u, v):
                return f"edge ({u}, {v}) is not in the graph"
            at = v
        if at != t:
            return f"path ends at {at}, not {t}"
        return None
