"""The search kernel's cached reads against the access contract.

A store handle searched directly serves cache hits through its
``readers()`` lookups and counts them once per query; a second handle
reached through ``_RequiredMethodsOnly`` has no ``readers`` and is read
one contract call at a time. Both must traverse alike and count every
read alike after every query.
"""

import numpy as np
import pytest

from callpath.search import run_search
from callpath.store import CacheConfig, CacheMode, build_store, open_store

from test_search import REGIME_CONFIGS, _pairs, _RequiredMethodsOnly


@pytest.fixture(scope="module")
def hub_store(tmp_path_factory, hub_graph):
    path = tmp_path_factory.mktemp("read-path") / "hub.cgs"
    build_store(hub_graph, path)
    return path


def _direct_reads(handle, nodes):
    return [
        (handle.successors(u), handle.predecessors(u), handle.method_meta(u), handle.class_kind(u))
        for u in nodes
    ]


@pytest.mark.parametrize("mode", list(CacheMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("room", ["evicting", "all-nodes"])
def test_cached_reads_match_the_contract_path(hub_store, hub_graph, mode, room):
    # 64 cached nodes evict, so every read goes through ``load``; room for
    # every node serves hits from the section dicts
    n = hub_graph.node_count
    cache = CacheConfig(max_cached_nodes=64 if room == "evicting" else n, mode=mode)
    rng = np.random.default_rng(606)
    pairs = _pairs(rng, hub_graph, 8)
    warm = mode is CacheMode.WARM_ACROSS_QUERIES
    with open_store(hub_store, cache) as direct, open_store(hub_store, cache) as inner:
        contract = _RequiredMethodsOnly(inner)
        for config in REGIME_CONFIGS:
            for s, t in pairs:
                got = run_search(direct, s, t, config)
                assert got.same_traversal(run_search(contract, s, t, config))
                assert direct.access_stats() == inner.access_stats()
                if warm:
                    nodes = [int(u) for u in rng.integers(n, size=3)]
                    reads = _direct_reads(direct, nodes)
                    assert reads == _direct_reads(inner, nodes) == _direct_reads(hub_graph, nodes)
                    assert direct.access_stats() == inner.access_stats()
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
    # its lookups; those hits must be counted even when the query raises
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
