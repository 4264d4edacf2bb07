"""The two round bodies of the search kernel traverse alike.

A query on an InMemoryGraph runs a round as array operations over the
CSR arrays when its frontier holds at least ``search._ARRAY_ROUND_MIN``
nodes, and node by node otherwise. These tests force the threshold to 0
(every round an array round) and beyond any frontier (every round node
by node) and require the same ``SearchResult`` paths and counters and
the same trace events; where the state is returned, also the same
prev/dist tables, frontiers, delays and postponements.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from callpath import search
from callpath.bench import load_scenario
from callpath.ingest import SyntheticSpec, generate_synthetic
from callpath.model import resolve_name
from callpath.search import FrontierPolicy, SearchConfig, run_search

from oracles import bfs_reachable
from test_acceptance import SWEEP_CONFIGS, SWEEP_NODE_COUNT, SWEEP_SEED, _sweep_graph

EVERY_ROUND = 0
NO_ROUND = 2**62
# Array rounds from a frontier of 3 nodes on: a query's per-node rounds,
# delays and postponements index the array tables before its first
# array round.
MIDWAY = 3
REGIMES = load_scenario(Path(__file__).parent.parent / "data" / "scenarios" / "regimes.json")
# Every regimes.json config under both frontier policies.
CONFIGS = list(
    dict.fromkeys(
        replace(config, frontier_policy=policy)
        for config in REGIMES.algorithms
        for policy in FrontierPolicy
    )
)


def _run(graph, s, t, config, threshold):
    trace = []
    with mock.patch.object(search, "_ARRAY_ROUND_MIN", threshold):
        result = run_search(graph, s, t, config, trace=trace)
    return result, trace


def _assert_bodies_agree(graph, s, t, config, thresholds=(EVERY_ROUND, MIDWAY)):
    """Run the query with per-node rounds only and under each of
    ``thresholds``; returns the result once all agree."""
    node_result, node_trace = _run(graph, s, t, config, NO_ROUND)
    for threshold in thresholds:
        result, trace = _run(graph, s, t, config, threshold)
        assert result.same_traversal(node_result), (s, t, config, threshold)
        assert trace == node_trace, (s, t, config, threshold)
    return node_result


def _assert_states_agree(graph, s, t, config):
    """As ``_assert_bodies_agree``, for the state ``return_state`` gives."""
    runs = []
    for threshold in (NO_ROUND, EVERY_ROUND, MIDWAY):
        with mock.patch.object(search, "_ARRAY_ROUND_MIN", threshold):
            runs.append(search._search(graph, s, t, config, return_state=True))
    node_result, node_state = runs[0]
    for result, state in runs[1:]:
        assert result.same_traversal(node_result), (s, t, config)
        assert state == node_state, (s, t, config)


def test_bodies_agree_on_the_criterion_1_sweep_graphs():
    # the first graphs of the seeded 6-node sweep, every pair and config;
    # array rounds of one to six nodes hit every duplicate, delay and
    # meeting case the classification has
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(6):
        graph = _sweep_graph(rng)
        for s in range(SWEEP_NODE_COUNT):
            for t in range(SWEEP_NODE_COUNT):
                for config in SWEEP_CONFIGS.values():
                    _assert_bodies_agree(graph, s, t, config)


@lru_cache(maxsize=1)
def _hub_graph(node_count, seed, acyclic):
    spec = SyntheticSpec(
        node_count=node_count,
        out_degree=3,
        hub_count=node_count // 1000,
        hub_indegree=50,
        seed=seed,
        acyclic=acyclic,
    )
    return generate_synthetic(spec)


@pytest.mark.parametrize(
    "node_count, seed, acyclic",
    [(1_000, 3, False), (1_000, 4, True), (10_000, 5, False), (10_000, 6, True), (30_000, 7, False)],
)
def test_bodies_agree_on_generated_hub_graphs(node_count, seed, acyclic):
    # (30_000, 7, cyclic) is the hub30k graph of the mem-hub benchmark.
    # One pair with a path, the final node drawn from the initial one's
    # forward closure, and one uniform pair
    graph = _hub_graph(node_count, seed, acyclic)
    rng = np.random.default_rng(seed)
    pairs = []
    while not pairs:
        s = int(rng.integers(node_count))
        reachable = sorted(bfs_reachable(graph, s))
        if reachable:
            pairs.append((s, reachable[int(rng.integers(len(reachable)))]))
    pairs.append(tuple(rng.integers(node_count, size=2).tolist()))
    for s, t in pairs:
        for config in CONFIGS:
            _assert_bodies_agree(graph, s, t, config)


def test_bodies_agree_on_every_regime_config_and_pair():
    graph = generate_synthetic(REGIMES.synthetic)
    for pair in REGIMES.pairs:
        s, t = resolve_name(graph, pair.initial), resolve_name(graph, pair.final)
        for config in CONFIGS:
            assert _assert_bodies_agree(graph, s, t, config).found


def test_mid_round_improvement_on_hub30k():
    # a postponed node firing among newer ones lowers the dist of a node
    # that expands later in the same round; a body that reads every
    # dist at the start of the round visits 16193 nodes backward here
    graph = _hub_graph(30_000, 7, False)
    config = SearchConfig(delay_steps=3, frontier_policy=FrontierPolicy.PAPER_LITERAL)
    result = _assert_bodies_agree(graph, 21365, 864, config)
    assert result.visited_backward == 16198
    assert result.probe_count == 16210


def test_returned_state_agrees_between_bodies(hub_graph):
    rng = np.random.default_rng(77)
    for s, t in rng.integers(hub_graph.node_count, size=(6, 2)).tolist():
        for config in CONFIGS:
            _assert_states_agree(hub_graph, s, t, config)
