"""The two round bodies of the search kernel traverse alike.

A query on an InMemoryGraph runs a round as array operations over the
CSR arrays when its frontier holds at least ``search._ARRAY_ROUND_MIN``
nodes, and node by node otherwise. These tests force the threshold to 0
(every round an array round) and beyond any frontier (every round node
by node) and require the same ``SearchResult`` paths and counters and
the same trace events; where the state is returned, also the same
prev/dist tables, frontiers, delays and postponements.

A query on a store whose cache holds every node starts on list tables
and moves to array tables at its first round of
``search._ARRAY_MOVE_MIN`` nodes; that threshold is forced the same way,
and the store's read counts must agree too.
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
from callpath.model import ClassKind, Direction, InMemoryGraph, MethodMeta, resolve_name
from callpath.search import FrontierPolicy, SearchConfig, run_search
from callpath.store import CacheConfig, CacheMode, build_store, open_store

from oracles import bfs_reachable
from test_acceptance import SWEEP_CONFIGS, SWEEP_NODE_COUNT, SWEEP_SEED, _sweep_graph
from test_search import REGIME_CONFIGS

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


HUB_GRAPHS = [(1_000, 3, False), (1_000, 4, True), (10_000, 5, False), (10_000, 6, True), (30_000, 7, False)]


def _hub_pairs(graph, seed):
    """One pair with a path, the final node drawn from the initial one's
    forward closure, and one uniform pair."""
    rng = np.random.default_rng(seed)
    pairs = []
    while not pairs:
        s = int(rng.integers(graph.node_count))
        reachable = sorted(bfs_reachable(graph, s))
        if reachable:
            pairs.append((s, reachable[int(rng.integers(len(reachable)))]))
    pairs.append(tuple(rng.integers(graph.node_count, size=2).tolist()))
    return pairs


@pytest.mark.parametrize("node_count, seed, acyclic", HUB_GRAPHS)
def test_bodies_agree_on_generated_hub_graphs(node_count, seed, acyclic):
    # (30_000, 7, cyclic) is the hub30k graph of the mem-hub benchmark
    graph = _hub_graph(node_count, seed, acyclic)
    for s, t in _hub_pairs(graph, seed):
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


def _store_session(path, mode, threshold, queries):
    """Each query's result, read counts and returned state on a fresh
    handle whose cache holds every node, run plainly and then with
    ``return_state``, with moves to the array tables at ``threshold``;
    and how many queries moved."""
    moves = []
    move = search._move_to_arrays
    with (
        mock.patch.object(search, "_ARRAY_MOVE_MIN", threshold),
        mock.patch.object(search, "_move_to_arrays", lambda *args: moves.append(1) or move(*args)),
        open_store(path, CacheConfig(max_cached_nodes=10**9, mode=mode)) as handle,
    ):
        runs = []
        for s, t, config in queries:
            result = run_search(handle, s, t, config)
            stats = handle.access_stats()
            state_result, state = search._search(handle, s, t, config, return_state=True)
            runs.append((replace(result, elapsed=0.0), stats, replace(state_result, elapsed=0.0), state))
            runs.append(handle.access_stats())
    return runs, len(moves)


@pytest.mark.parametrize("mode", list(CacheMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("node_count, seed, acyclic", HUB_GRAPHS[:4])
def test_moving_to_array_tables_on_a_store_that_holds_every_node(tmp_path, mode, node_count, seed, acyclic):
    # array tables from the first round, a move after per-node rounds on
    # the lists, or lists throughout: every result, read count and state
    # agrees, in both cache modes
    graph = _hub_graph(node_count, seed, acyclic)
    build_store(graph, tmp_path / "hub.cgs")
    queries = [(s, t, config) for s, t in _hub_pairs(graph, seed) for config in REGIME_CONFIGS]
    never, none_moved = _store_session(tmp_path / "hub.cgs", mode, NO_ROUND, queries)
    assert none_moved == 0
    for threshold in (EVERY_ROUND, MIDWAY):
        runs, moved = _store_session(tmp_path / "hub.cgs", mode, threshold, queries)
        assert runs == never, threshold
        assert moved > 0, threshold


# ---- rounds cut at their first possible meeting ---------------------------
#
# A round whose opposite frontier holds one node runs ``_array_round`` on
# the frontier up to the first position that can meet that node, and on
# the rest only if that part does not meet. A spy on ``_array_round``
# records each call; a run whose ``_meeting_cut`` never cuts gives each
# round's whole frontier.


def _whole_round(frontier, *args):
    return len(frontier)


def _spied(graph, s, t, config, threshold, cut=None):
    """The query's result, trace (None on a store), returned state and
    store reads, and the ``_array_round`` calls it made as (step,
    frontier, meeting node); ``cut``, if given, replaces ``_meeting_cut``."""
    calls = []
    array_round = search._array_round

    def spy(frontier, *args):
        out = array_round(frontier, *args)
        calls.append((args[8], frontier.tolist(), out[1]))
        return out

    store = hasattr(graph, "reset_stats")
    trace = None if store else []
    with (
        mock.patch.object(search, "_array_round", spy),
        mock.patch.object(search, "_ARRAY_ROUND_MIN", threshold),
        mock.patch.object(search, "_meeting_cut", cut or search._meeting_cut),
    ):
        if store:
            graph.reset_stats()
        result, state = search._search(graph, s, t, config, trace=trace, return_state=True)
    reads = graph.access_stats() if store else None
    return (replace(result, elapsed=0.0), trace, state, reads), calls


def _cut_calls(graph, s, t, config, cut=None):
    """The ``_array_round`` calls of the query, which must give the same
    result, trace, state and store reads as a run node by node, and each
    round's whole frontier by step."""
    threshold = search._ARRAY_ROUND_MIN
    node_run, none = _spied(graph, s, t, config, NO_ROUND)
    assert none == []
    run, calls = _spied(graph, s, t, config, threshold, cut)
    assert run == node_run, (s, t, config)
    whole_run, whole_calls = _spied(graph, s, t, config, threshold, _whole_round)
    assert whole_run == node_run, (s, t, config)
    whole = {step: frontier for step, frontier, _ in whole_calls}
    assert len(whole) == len(whole_calls)
    return calls, whole


@pytest.fixture(scope="module", params=["memory", "evicting store"])
def hub10k(request, tmp_path_factory):
    graph = _hub_graph(10_000, 5, False)
    if request.param == "memory":
        yield graph
        return
    path = tmp_path_factory.mktemp("cut") / "hub10k.cgs"
    build_store(graph, path)
    with open_store(path, CacheConfig(max_cached_nodes=64, mode=CacheMode.COLD_PER_QUERY)) as handle:
        yield handle


UNI = SearchConfig(algorithm=search.Algorithm.UNIDIRECTIONAL)
PAPER = SearchConfig(frontier_policy=FrontierPolicy.PAPER_LITERAL)


@pytest.mark.parametrize(
    "config",
    [UNI, replace(PAPER, algorithm=search.Algorithm.BIDIR_BALANCED), PAPER],
    ids=["uni", "balanced-paper", "postpone-3-paper"],
)
def test_a_round_meets_in_a_call_on_a_strict_prefix(hub10k, config):
    # uni's opposite frontier is the final node, and a paper backward
    # sweep's the initial one: the meeting round gathers only the
    # frontier up to the first node that can meet it
    s, t = _hub_pairs(_hub_graph(10_000, 5, False), 5)[0]
    calls, whole = _cut_calls(hub10k, s, t, config)
    step, frontier, meeting = calls[-1]
    assert meeting is not None
    assert len(frontier) < len(whole[step]) and whole[step][: len(frontier)] == frontier


@pytest.mark.parametrize("s, t, action", [(8733, 1916, "postponed"), (7442, 1786, "delayed")])
def test_a_round_is_not_cut_at_a_node_that_does_not_expand(hub10k, s, t, action):
    # the first callee of the initial node in a backward round's frontier
    # is postponed or sits out the round, so it cannot meet: the round is
    # cut at a later callee, or not at all
    graph = _hub_graph(10_000, 5, False)
    calls, whole = _cut_calls(hub10k, s, t, PAPER)
    _, trace = _run(graph, s, t, PAPER, NO_ROUND)
    callees = set(graph.successors(s))
    rounds = 0
    for step, frontier in whole.items():
        first = next((p for p, u in enumerate(frontier) if u in callees), None)
        events = [event for event in trace if event.step == step]
        if first is not None and events[first].action == action:
            rounds += 1
            head = next(frontier for at, frontier, _ in calls if at == step)
            assert len(head) > first + 1, step
    assert rounds > 0


@pytest.mark.parametrize("config", [UNI, PAPER], ids=["uni", "postpone-3-paper"])
def test_a_prefix_that_does_not_meet_goes_on_to_the_rest_of_the_round(hub10k, config):
    # Here the prefix is forced to end after the round's first position,
    # as no query here meets the kernel's own cut without meeting in it:
    # under uni and paper the first expanding neighbour's offer to the
    # opposite node always counts, and a smaller-first round faces a
    # one-node opposite frontier only when that node occurs there at
    # least as often as the round's own frontier has positions.
    s, t = _hub_pairs(_hub_graph(10_000, 5, False), 5)[0]
    calls, whole = _cut_calls(hub10k, s, t, config, cut=lambda frontier, *args: 1)
    split = 0
    for (step, head, meeting), (next_step, rest, _) in zip(calls, calls[1:]):
        if step == next_step:
            assert meeting is None and head + rest == whole[step]
            split += 1
    assert split > 0 and calls[-1][2] is not None


# ---- how a round settles its relaxations ----------------------------------
#
# A round whose expanding occurrences share one distance keeps every
# relaxation that beats the round-start dist, duplicates too, and settles
# each node on its lowest relaxer when it writes. These call
# ``_array_round`` on one hand-built round: nodes 10, 11, 11 and 12 each
# relax 20 and 21, over each backend's CSR arrays (a store's ids are <u4).

SETTLE_NODES = 32
SETTLE_FRONTIER = np.array([10, 11, 11, 12], np.int64)


@pytest.fixture(scope="module", params=["memory", 16, SETTLE_NODES], ids=["memory", "evicting store", "every-node store"])
def settle_graph(request, tmp_path_factory):
    edges = [(u, v) for u in (10, 11, 12) for v in (20, 21)]
    graph = InMemoryGraph([MethodMeta(u, f"m{u}", f"C{u}", ClassKind.CONCRETE) for u in range(SETTLE_NODES)], edges)
    if request.param == "memory":
        yield graph
        return
    path = tmp_path_factory.mktemp("settle") / "settle.cgs"
    build_store(graph, path)
    with open_store(path, CacheConfig(max_cached_nodes=request.param)) as handle:
        yield handle


def _settle(graph, frontier, opposite, distances):
    """One forward array round of ``frontier`` against the opposite
    frontier ``opposite``, on fresh tables holding the distances
    ``distances`` (node -> distance); its output and the prev and dist
    tables after it."""
    tables = search._ArrayTables(SETTLE_NODES)
    for u, d in distances.items():
        tables.dist[True][u] = d
    tables.mark_nodes(opposite)
    out = search._array_round(
        frontier, True, tables, graph.csr(Direction.FORWARD), {}, set(), False, None, 3, 1, None, True
    )
    return out, tables.prev[True], tables.dist[True]


def test_a_one_offer_round_settles_each_node_on_its_lowest_relaxer(settle_graph):
    out, prev, dist = _settle(settle_graph, SETTLE_FRONTIER, [0], {10: 1, 11: 1, 12: 1})
    todo, meeting, visits, probes, postponements, reads = out
    assert meeting is None and (visits, probes, postponements) == (4, 0, 0)
    assert reads.tolist() == SETTLE_FRONTIER.tolist()
    assert todo.dtype == np.int64 and todo.tolist() == [20, 21]
    assert prev[[20, 21]].tolist() == [10, 10] and dist[[20, 21]].tolist() == [2, 2]


def test_a_one_offer_round_writes_nothing_past_its_meeting(settle_graph):
    # 10 relaxes 20, the opposite frontier, before it relaxes 21
    out, prev, dist = _settle(settle_graph, SETTLE_FRONTIER, [20], {10: 1, 11: 1, 12: 1})
    todo, meeting, visits, _, _, reads = out
    assert (todo, meeting, visits) == (None, 20, 1)
    assert reads.tolist() == [10]
    assert (prev[20], dist[20]) == (10, 2)
    assert (prev[21], dist[21]) == (-1, search._UNREACHED)


def test_a_several_offer_round_that_keeps_no_relaxation(settle_graph):
    # 10 and 12 offer 3 and 4 to 20 and 21, which stand at 1
    out, prev, dist = _settle(settle_graph, np.array([10, 12], np.int64), [0], {10: 2, 12: 3, 20: 1, 21: 1})
    todo, meeting, visits, _, _, _ = out
    assert meeting is None and visits == 2
    assert todo.dtype == np.int64 and todo.tolist() == []
    assert prev[[20, 21]].tolist() == [-1, -1] and dist[[20, 21]].tolist() == [1, 1]
