"""The search kernel's cached reads against the access contract.

A store handle searched directly reads through its ``readers()``,
which count only misses, and ``end_query`` adds the query's reads; when
its cache holds every node, a hit is one dict lookup. When its cache
can evict, it runs rounds of ``search._ARRAY_ROUND_MIN`` nodes or more
as array operations over its mapped sections and replays their reads.
A second handle reached through ``_RequiredMethodsOnly`` has neither
and is read one contract call at a time, node by node. Both must
traverse alike and count every read alike after every query.
"""

import weakref
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from callpath import ingest, search, store
from callpath.bench import Regime, find_regime_pairs
from callpath.ingest import SyntheticSpec, generate_synthetic, reachable_set
from callpath.model import Direction
from callpath.search import FrontierPolicy, SearchConfig, run_search
from callpath.store import CacheConfig, CacheMode, build_store, open_store

from oracles import bfs_reachable
from test_search import REGIME_CONFIGS, _pairs, _RequiredMethodsOnly
from test_store import kernel_kind_read


@pytest.fixture(scope="module")
def hub_store(tmp_path_factory, hub_graph):
    path = tmp_path_factory.mktemp("read-path") / "hub.cgs"
    build_store(hub_graph, path)
    return path


def _direct_reads(handle, nodes):
    kind = kernel_kind_read(handle)
    return [(handle.successors(u), handle.predecessors(u), handle.method_meta(u), kind(u)) for u in nodes]


@pytest.mark.parametrize("mode", list(CacheMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("room", ["evicting", "all-nodes"])
def test_cached_reads_match_the_contract_path(hub_store, hub_graph, mode, room):
    # 64 cached nodes evict, so every read goes through ``_load``; room for
    # every node serves hits from the section dicts
    n = hub_graph.node_count
    cache = CacheConfig(max_cached_nodes=64 if room == "evicting" else n, mode=mode)
    rng = np.random.default_rng(606)
    pairs = _pairs(rng, hub_graph, 8)
    warm = mode is CacheMode.WARM_ACROSS_QUERIES
    with open_store(hub_store, cache) as direct, open_store(hub_store, cache) as inner:
        contract = _RequiredMethodsOnly(inner)
        for k, config in enumerate(REGIME_CONFIGS):
            for s, t in pairs:
                got = run_search(direct, s, t, config)
                assert got.same_traversal(run_search(contract, s, t, config))
                assert direct.access_stats() == inner.access_stats()
                if warm:
                    nodes = [int(u) for u in rng.integers(n, size=3)]
                    reads = _direct_reads(direct, nodes)
                    assert reads == _direct_reads(inner, nodes) == _direct_reads(hub_graph, nodes)
                    assert direct.access_stats() == inner.access_stats()
            # closures read through the store's readers and report their
            # reads, so they count as closures of contract calls do
            for u in pairs[k % len(pairs)]:
                for direction in Direction:
                    closure = reachable_set(direct, u, direction)
                    assert closure == reachable_set(contract, u, direction) == reachable_set(hub_graph, u, direction)
                    assert direct.access_stats() == inner.access_stats()
        # so does the endpoint filter of pair mining
        for regime in (Regime.P1, Regime.P4):
            mined = find_regime_pairs(direct, regime, 2, seed=5)
            assert len(mined) == 2 and mined == find_regime_pairs(contract, regime, 2, seed=5)
            assert mined == find_regime_pairs(hub_graph, regime, 2, seed=5)
            assert direct.access_stats() == inner.access_stats(), regime
        stats = direct.access_stats()
    assert stats.meta_reads > 0 and stats.cache_misses > 0
    assert stats.cache_hits > 0 or not warm


class _Interrupted(Exception):
    pass


class _Tripwire(list):
    """A trace list whose ``events``-th append raises, ending the search there."""

    def __init__(self, events):
        super().__init__()
        self.left = events

    def append(self, event):
        self.left -= 1
        if self.left == 0:
            raise _Interrupted
        super().append(event)


def test_a_query_that_raised_counts_its_cache_hits(hub_store, hub_graph):
    # a warm cache with room for every node serves repeated queries from
    # its section dicts; those hits must be counted even when the query raises
    cache = CacheConfig(max_cached_nodes=hub_graph.node_count, mode=CacheMode.WARM_ACROSS_QUERIES)
    pairs = _pairs(np.random.default_rng(607), hub_graph, 4)
    interrupted = 0
    with open_store(hub_store, cache) as direct, open_store(hub_store, cache) as inner:
        contract = _RequiredMethodsOnly(inner)
        for config in REGIME_CONFIGS:
            for s, t in pairs:
                for handle in (direct, contract):
                    run_search(handle, s, t, config)
                for events in (1, 5, 40):
                    for handle in (direct, contract):
                        try:
                            run_search(handle, s, t, config, trace=_Tripwire(events))
                        except _Interrupted:
                            interrupted += handle is direct
                    assert direct.access_stats() == inner.access_stats()
        assert direct.access_stats().cache_hits > 0
    assert interrupted > 0


# A seeded acyclic hub graph of the disk benchmark's shape, a few thousand
# nodes: its paper-policy backward rounds pass the array-round size.
SYNTHETIC = SyntheticSpec(node_count=3000, out_degree=3, hub_count=30, hub_indegree=40, seed=21, acyclic=True)


@pytest.fixture(scope="module")
def synthetic_store(tmp_path_factory):
    graph = generate_synthetic(SYNTHETIC)
    path = tmp_path_factory.mktemp("read-path") / "synthetic.cgs"
    build_store(graph, path)
    return graph, path


def _reachable_pairs(rng, graph, count):
    """Pairs with a path: the final node drawn from the initial one's forward closure."""
    pairs = []
    while len(pairs) < count:
        s = int(rng.integers(graph.node_count))
        reachable = sorted(bfs_reachable(graph, s))
        if reachable:
            pairs.append((s, reachable[int(rng.integers(len(reachable)))]))
    return pairs


@pytest.fixture
def array_rounds(monkeypatch):
    """Each array round run from here on, as (frontier size, forward)."""
    rounds = []
    array_round = search._array_round

    def spy(*args):
        rounds.append((len(args[0]), args[1]))
        return array_round(*args)

    monkeypatch.setattr(search, "_array_round", spy)
    return rounds


@pytest.fixture
def sleeps(monkeypatch):
    """The store's injected-latency sleeps, recorded instead of slept."""
    calls = []
    monkeypatch.setattr(store, "time", SimpleNamespace(sleep=calls.append))
    return calls


@pytest.mark.parametrize("mode", list(CacheMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("capacity", [64, 512])
@pytest.mark.parametrize("which", ["hub", "synthetic"])
def test_array_rounds_on_an_evicting_store_match_the_contract_path(
    hub_store, hub_graph, synthetic_store, array_rounds, sleeps, which, capacity, mode
):
    # the direct handle runs large rounds as arrays and replays their
    # reads; the contract handle runs every round node by node. Results,
    # returned states and every counter, injected latency included, agree
    if which == "hub":
        graph, path = hub_graph, hub_store
        pairs = _pairs(np.random.default_rng(606), graph, 6)
    else:
        graph, path = synthetic_store
        pairs = _reachable_pairs(np.random.default_rng(21), graph, 5)
    cache = CacheConfig(max_cached_nodes=capacity, latency_per_miss=1e-6, mode=mode)
    with open_store(path, cache) as direct, open_store(path, cache) as inner:
        contract = _RequiredMethodsOnly(inner)
        for config in REGIME_CONFIGS:
            for s, t in pairs:
                got = run_search(direct, s, t, config)
                assert got.same_traversal(run_search(contract, s, t, config)), (s, t, config)
                assert direct.access_stats() == inner.access_stats(), (s, t, config)
                got, state = search._search(direct, s, t, config, return_state=True)
                want, want_state = search._search(contract, s, t, config, return_state=True)
                assert got.same_traversal(want) and state == want_state, (s, t, config)
                assert direct.access_stats() == inner.access_stats(), (s, t, config)
        stats = direct.access_stats()
    assert stats.injected_latency_total > 0
    assert sleeps == [1e-6] * (2 * stats.cache_misses)
    assert array_rounds, "no array round ran: the comparison says nothing about them"
    assert which == "synthetic" or any(forward for _, forward in array_rounds)


def test_a_raising_trace_on_an_evicting_store_leaves_the_per_node_counts(hub_store, hub_graph):
    # a traced store query runs node by node, so a trace hook that raises
    # midway, inside what would be an array round, leaves exactly the
    # reads the per-node body made up to that event
    cache = CacheConfig(max_cached_nodes=64)
    config = SearchConfig(delay_steps=3, frontier_policy=FrontierPolicy.PAPER_LITERAL)
    with open_store(hub_store, cache) as direct, open_store(hub_store, cache) as inner:
        contract = _RequiredMethodsOnly(inner)
        for s, t in [(643, 549), (85, 27)]:
            for events in (1, 100, 150, 300, 450):
                for handle in (direct, contract):
                    with pytest.raises(_Interrupted):
                        run_search(handle, s, t, config, trace=_Tripwire(events))
                assert direct.access_stats() == inner.access_stats(), (s, t, events)


class _TrippingQueue(deque):
    """A BFS queue whose ``pops``-th ``popleft`` raises, ending the closure there."""

    def __init__(self, items, pops):
        super().__init__(items)
        self.left = pops

    def popleft(self):
        self.left -= 1
        if self.left == 0:
            raise _Interrupted
        return super().popleft()


def test_a_store_closes_after_array_rounds(hub_store, hub_graph, array_rounds, monkeypatch):
    # the kernel and the closures keep no view of the map, nor a reader
    # that holds one, once they return or raise, so the file is unmapped
    # at the close: either left in a frame, even one a traceback keeps,
    # would hold the mapping past it
    handle = open_store(hub_store, CacheConfig(max_cached_nodes=64))
    arrayed = []
    for config in REGIME_CONFIGS:
        rounds = len(array_rounds)
        run_search(handle, 643, 549, config)
        if len(array_rounds) > rounds:
            arrayed.append(config)
    assert arrayed
    mapped = weakref.ref(handle._map)
    handle.close()
    assert mapped() is None
    spy = search._array_round

    def interrupted(*args):
        spy(*args)
        del args  # the round's own arguments hold views; the kernel's frame is under test
        raise _Interrupted

    monkeypatch.setattr(search, "_array_round", interrupted)
    for config in arrayed:
        with pytest.raises(_Interrupted) as raised:
            with open_store(hub_store, CacheConfig(max_cached_nodes=64)) as handle:
                mapped = weakref.ref(handle._map)
                run_search(handle, 643, 549, config)
        assert raised.traceback and mapped() is None, config
    # a traced query runs node by node, and its trace raises midway; a
    # closure's queue raises midway; on an evicting store and on one that
    # holds every node
    monkeypatch.setattr(ingest, "deque", lambda items: _TrippingQueue(items, 20))
    for capacity in (64, hub_graph.node_count):
        cache = CacheConfig(max_cached_nodes=capacity)
        for config in REGIME_CONFIGS:
            with pytest.raises(_Interrupted) as raised:
                with open_store(hub_store, cache) as handle:
                    mapped = weakref.ref(handle._map)
                    run_search(handle, 643, 549, config, trace=_Tripwire(20))
            assert raised.traceback and mapped() is None, (capacity, config)
        for u, direction in ((643, Direction.FORWARD), (549, Direction.BACKWARD)):
            with pytest.raises(_Interrupted) as raised:
                with open_store(hub_store, cache) as handle:
                    mapped = weakref.ref(handle._map)
                    reachable_set(handle, u, direction)
            assert raised.traceback and mapped() is None, (capacity, direction)
