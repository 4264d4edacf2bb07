#!/usr/bin/env python3
"""Serialize a graph into a CGS1 store file and watch the read accounting.

The disk backend fetches node metadata and adjacency on demand, caches
whole node records with LRU eviction, and counts every read as a cache
hit or miss. An optional per-miss latency simulates slow storage, so
algorithm comparisons can include I/O cost without real disk variance.
"""

import tempfile
from pathlib import Path

from callpath import (
    Algorithm,
    CacheConfig,
    CacheMode,
    SearchConfig,
    SyntheticSpec,
    build_store,
    generate_synthetic,
    open_store,
    run_search,
)

BALANCED = SearchConfig(algorithm=Algorithm.BIDIR_BALANCED)
PROBE_ONLY = SearchConfig(probe_only=True)

graph = generate_synthetic(
    SyntheticSpec(node_count=1000, out_degree=3, hub_count=10, hub_indegree=50, seed=7)
)

with tempfile.TemporaryDirectory() as tmp:
    store_path = Path(tmp) / "hub.cgs"
    summary = build_store(graph, store_path)
    print(f"wrote {store_path.name}: {summary.node_count} nodes, "
          f"{summary.edge_count} edges, {summary.byte_size} bytes")

    print("\ncold cache per query (the default): every query re-reads from disk")
    with open_store(store_path, CacheConfig(max_cached_nodes=256)) as handle:
        for run in (1, 2):
            run_search(handle, 983, 348, BALANCED)
            stats = handle.access_stats()
            print(f"  after query {run}: adjacency_reads={stats.adjacency_reads} "
                  f"hits={stats.cache_hits} misses={stats.cache_misses}")

    print("\nwarm cache across queries: the second query is almost free")
    with open_store(store_path, CacheConfig(max_cached_nodes=256, mode=CacheMode.WARM_ACROSS_QUERIES)) as handle:
        for run in (1, 2):
            run_search(handle, 983, 348, BALANCED)
            stats = handle.access_stats()
            print(f"  after query {run}: adjacency_reads={stats.adjacency_reads} "
                  f"hits={stats.cache_hits} misses={stats.cache_misses}")

    print("\nmetadata probes are their own reads: the probing variant pays for them")
    with open_store(store_path, CacheConfig(max_cached_nodes=2048)) as handle:
        run_search(handle, 983, 348, BALANCED)
        print(f"  balanced:   meta_reads={handle.access_stats().meta_reads}")
        handle.reset_stats()
        result = run_search(handle, 983, 348, PROBE_ONLY)
        stats = handle.access_stats()
        print(f"  probe-only: meta_reads={stats.meta_reads} (probe_count={result.probe_count})")

    print("\nwith 1 ms of injected latency per miss, probe cost becomes wall-clock time")
    cache = CacheConfig(max_cached_nodes=2048, latency_per_miss=0.001)
    with open_store(store_path, cache) as handle:
        balanced = run_search(handle, 983, 348, BALANCED)
        probing = run_search(handle, 983, 348, PROBE_ONLY)
        print(f"  balanced:   {balanced.elapsed * 1000:7.1f} ms")
        print(f"  probe-only: {probing.elapsed * 1000:7.1f} ms "
              f"(+{(probing.elapsed - balanced.elapsed) * 1000:.1f} ms for "
              f"{probing.probe_count} probes)")
