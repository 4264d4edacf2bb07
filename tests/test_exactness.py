"""Exactness at scale: ``uni`` and ``balanced`` against scipy.

The regression sweeps check exactness on graphs of a few nodes; this
checks it on generated hub graphs of 1k to 30k nodes, cyclic and
acyclic, against ``scipy.sparse.csgraph.shortest_path``, which shares
no code with the search kernel.
"""

import numpy as np
import pytest

from callpath.ingest import SyntheticSpec, generate_synthetic
from callpath.model import Direction
from callpath.search import Algorithm, FrontierPolicy, SearchConfig, SearchStatus, run_search

from oracles import is_valid_path

sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")

EXACT_CONFIGS = [
    SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL),
    SearchConfig(algorithm=Algorithm.BIDIR_BALANCED, frontier_policy=FrontierPolicy.PAPER_LITERAL),
    SearchConfig(algorithm=Algorithm.BIDIR_BALANCED, frontier_policy=FrontierPolicy.SMALLER_FIRST),
]
SOURCES = 4  # per graph; each gets a uniform target and, if it reaches any, a reachable one


@pytest.mark.parametrize("acyclic", [False, True], ids=["cyclic", "acyclic"])
@pytest.mark.parametrize("n", [1_000, 10_000, 30_000])
def test_exact_configs_return_scipy_distances(n, acyclic):
    spec = SyntheticSpec(
        node_count=n, out_degree=3, hub_count=n // 1000, hub_indegree=50, seed=n + acyclic, acyclic=acyclic
    )
    graph = generate_synthetic(spec)
    offsets, ids = graph.csr(Direction.FORWARD)
    adjacency = sparse.csr_matrix((np.ones(len(ids)), ids, offsets), shape=(n, n))
    rng = np.random.default_rng(spec.seed)
    sources = rng.choice(n, size=SOURCES, replace=False)
    dist = csgraph.shortest_path(adjacency, unweighted=True, indices=sources)
    pairs = []
    for s, row in zip(sources.tolist(), dist):
        reachable = np.flatnonzero(np.isfinite(row) & (row > 0))
        targets = [int(rng.integers(n))] + ([int(rng.choice(reachable))] if len(reachable) else [])
        pairs += [(s, t, row[t]) for t in targets]
    assert any(np.isfinite(expected) and expected > 1 for _, _, expected in pairs)
    for s, t, expected in pairs:
        for config in EXACT_CONFIGS:
            result = run_search(graph, s, t, config)
            if np.isinf(expected):
                assert result.status is SearchStatus.NO_PATH, (s, t, config.label)
            else:
                assert result.length == expected, (s, t, config.label)
                assert is_valid_path(graph, s, t, result.path)
