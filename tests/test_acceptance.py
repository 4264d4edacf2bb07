"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
criterion-by-criterion lines. Every tolerance is pinned here; nothing
is deferred to later calibration. The two frozen regression constants
(the balanced-search optimality-gap bounds and the pathology fixture's
extra-visit count) were computed once from the seeded sweeps below and
must never drift.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import replace
from math import inf
from pathlib import Path

import numpy as np
import pytest

from callpath.bench import CSV_COLUMNS, TIMING_COLUMNS, emit_report, load_scenario, run_scenario
from callpath.fixtures import postponement_pathology_graph
from callpath.ingest import Regime, SyntheticSpec, classify_pair, generate_synthetic
from callpath.model import ClassKind, InMemoryGraph, MethodMeta
from callpath.search import (
    Algorithm,
    FrontierPolicy,
    SearchConfig,
    SearchStatus,
    run_search,
)
from callpath.store import CacheConfig, CacheMode, build_store, open_store

from oracles import bfs_distances, is_valid_path

# ---------------------------------------------------------------------------
# Frozen constants
# ---------------------------------------------------------------------------

SWEEP_SEED = 20240601
SWEEP_GRAPH_COUNT = 3000  # x 36 ordered pairs = 108,000 instances
SWEEP_NODE_COUNT = 6

# Largest (found length - true distance) the balanced search produced
# over the full seeded sweep, per frontier policy. Regression bounds.
FROZEN_BALANCED_MAX_GAP = {
    FrontierPolicy.PAPER_LITERAL: 0,
    FrontierPolicy.SMALLER_FIRST: 0,
}

# Largest (found length - true distance) of the postponing search over
# the seeded hub-graph family in test_postpone_gap_regression, per
# (frontier policy, delay). Postponement trades exactness for visits;
# this pins how inexact it is.
POSTPONE_GAP_SEED = 2016
FROZEN_POSTPONE_MAX_GAP = {
    (FrontierPolicy.PAPER_LITERAL, 3): 5,
    (FrontierPolicy.PAPER_LITERAL, 6): 7,
    (FrontierPolicy.SMALLER_FIRST, 3): 3,
    (FrontierPolicy.SMALLER_FIRST, 6): 5,
}

# Extra backward visits of postpone-3 over balanced on the shipped
# pathology fixture, pinned after first computation.
FROZEN_PATHOLOGY_EXTRA_BACKWARD = 127

HUB_P4_PAIR = (983, 348)

BALANCED = SearchConfig(algorithm=Algorithm.BIDIR_BALANCED)

_KINDS = (ClassKind.CONCRETE, ClassKind.INTERFACE, ClassKind.ABSTRACT)

SWEEP_CONFIGS = {
    "uni": SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL),
    "balanced/paper": SearchConfig(
        algorithm=Algorithm.BIDIR_BALANCED, frontier_policy=FrontierPolicy.PAPER_LITERAL
    ),
    "balanced/smaller": SearchConfig(
        algorithm=Algorithm.BIDIR_BALANCED, frontier_policy=FrontierPolicy.SMALLER_FIRST
    ),
    "postpone-3/paper": SearchConfig(delay_steps=3, frontier_policy=FrontierPolicy.PAPER_LITERAL),
    "postpone-3/smaller": SearchConfig(
        delay_steps=3, frontier_policy=FrontierPolicy.SMALLER_FIRST
    ),
    "postpone-6/paper": SearchConfig(delay_steps=6, frontier_policy=FrontierPolicy.PAPER_LITERAL),
    "probe-only/paper": SearchConfig(probe_only=True, frontier_policy=FrontierPolicy.PAPER_LITERAL),
}


def _passed(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


def _random_graph(rng: np.random.Generator, n: int, p: float) -> InMemoryGraph:
    kind_idx = rng.integers(0, 3, size=n)
    metas = [MethodMeta(u, f"m{u}", f"C{u}", _KINDS[kind_idx[u]]) for u in range(n)]
    draws = rng.random((n, n))
    edges = [(u, v) for u in range(n) for v in range(n) if draws[u, v] < p]
    return InMemoryGraph(metas, edges)


def _sweep_graph(rng: np.random.Generator) -> InMemoryGraph:
    # edge density drawn per instance so the sample spans empty to dense
    return _random_graph(rng, SWEEP_NODE_COUNT, float(rng.random()))


@pytest.fixture(scope="module")
def sweep():
    """The criterion-1/11 sweep, run once: status checks, path
    validation, and the balanced optimality-gap census."""
    rng = np.random.default_rng(SWEEP_SEED)
    pairs = [(s, t) for s in range(SWEEP_NODE_COUNT) for t in range(SWEEP_NODE_COUNT)]
    status_mismatches = {name: 0 for name in SWEEP_CONFIGS}
    invalid_paths = {name: 0 for name in SWEEP_CONFIGS}
    balanced_max_gap = {
        FrontierPolicy.PAPER_LITERAL: 0,
        FrontierPolicy.SMALLER_FIRST: 0,
    }
    balanced_names = {
        "balanced/paper": FrontierPolicy.PAPER_LITERAL,
        "balanced/smaller": FrontierPolicy.SMALLER_FIRST,
    }
    instances = 0
    for _ in range(SWEEP_GRAPH_COUNT):
        graph = _sweep_graph(rng)
        dists = [bfs_distances(graph, s) for s in range(SWEEP_NODE_COUNT)]
        for s, t in pairs:
            instances += 1
            oracle = 0 if s == t else dists[s][t]
            reachable = oracle is not inf
            for name, config in SWEEP_CONFIGS.items():
                result = run_search(graph, s, t, config)
                if result.found != reachable:
                    status_mismatches[name] += 1
                    continue
                if result.found:
                    if not is_valid_path(graph, s, t, result.path):
                        invalid_paths[name] += 1
                    policy = balanced_names.get(name)
                    if policy is not None:
                        gap = result.length - int(oracle)
                        if gap > balanced_max_gap[policy]:
                            balanced_max_gap[policy] = gap
    return {
        "instances": instances,
        "status_mismatches": status_mismatches,
        "invalid_paths": invalid_paths,
        "balanced_max_gap": balanced_max_gap,
    }


def test_criterion_01_oracle_correctness(sweep):
    assert sweep["instances"] >= 100_000
    for name, count in sweep["status_mismatches"].items():
        assert count == 0, f"{name}: {count} Found/NoPath mismatches vs BFS reachability"
    for name, count in sweep["invalid_paths"].items():
        assert count == 0, f"{name}: {count} invalid paths"
    _passed(
        f"1 oracle correctness ({sweep['instances']} instances x "
        f"{len(SWEEP_CONFIGS)} algorithms, 0 mismatches)"
    )


def test_criterion_02_unidirectional_optimality():
    checked = 0
    for seed, p in ((13, 0.01), (99, 0.02)):
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng, 200, p)
        for s in range(graph.node_count):
            dist = bfs_distances(graph, s)
            for t in range(graph.node_count):
                result = run_search(
                    graph, s, t, SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL)
                )
                checked += 1
                if s == t or dist[t] is not inf:
                    assert result.found
                    assert result.length == (0 if s == t else dist[t])
                else:
                    assert result.status is SearchStatus.NO_PATH
    _passed(f"2 unidirectional optimality ({checked} pairs, exact)")


def test_criterion_03_reduction_identity():
    rng = np.random.default_rng(4242)
    instances = 0
    for _ in range(100):
        n = int(rng.integers(8, 60))
        graph = _random_graph(rng, n, float(rng.random() * 0.25))
        endpoints = rng.integers(0, n, size=(10, 2))
        for s, t in endpoints:
            s, t = int(s), int(t)
            instances += 1
            for policy in FrontierPolicy:
                balanced = run_search(graph, s, t, replace(BALANCED, frontier_policy=policy))
                reduced = run_search(
                    graph, s, t, SearchConfig(delay_steps=0, frontier_policy=policy)
                )
                assert balanced.path == reduced.path
                assert balanced.visited_forward == reduced.visited_forward
                assert balanced.visited_backward == reduced.visited_backward
                assert balanced.steps == reduced.steps
                assert reduced.probe_count == 0 and reduced.postponements == 0
    assert instances == 1000
    _passed(f"3 reduction identity (delay 0 == balanced, {instances} instances x 2 policies)")


def test_criterion_04_probe_only_traversal_equivalence():
    rng = np.random.default_rng(515)
    instances = 0
    probes_seen = 0
    for _ in range(150):
        n = int(rng.integers(4, 50))
        graph = _random_graph(rng, n, float(rng.random() * 0.3))
        s, t = int(rng.integers(n)), int(rng.integers(n))
        instances += 1
        for policy in FrontierPolicy:
            trace_bal, trace_probe = [], []
            balanced = run_search(
                graph, s, t, replace(BALANCED, frontier_policy=policy), trace=trace_bal
            )
            probed = run_search(
                graph, s, t, SearchConfig(probe_only=True, frontier_policy=policy),
                trace=trace_probe,
            )
            visited_bal = {
                (e.forward, e.node) for e in trace_bal if e.action == "expanded"
            }
            visited_probe = {
                (e.forward, e.node) for e in trace_probe if e.action == "expanded"
            }
            assert visited_bal == visited_probe  # zero tolerance on node sets
            assert balanced.path == probed.path
            backward_processed = sum(1 for e in trace_probe if not e.forward)
            if backward_processed >= 1:
                assert probed.probe_count > 0
                probes_seen += 1
            else:
                assert probed.probe_count == 0
    assert probes_seen > 0
    _passed(f"4 probe-only traversal equivalence ({instances} instances x 2 policies)")


def test_criterion_05_p4_improvement(hub_graph):
    s, t = HUB_P4_PAIR
    profile = classify_pair(hub_graph, s, t)
    assert profile.regime is Regime.P4
    t0 = time.perf_counter()
    postponed = run_search(hub_graph, s, t, SearchConfig(delay_steps=3))
    balanced = run_search(hub_graph, s, t, BALANCED)
    elapsed = time.perf_counter() - t0
    total_postponed = postponed.visited_forward + postponed.visited_backward
    total_balanced = balanced.visited_forward + balanced.visited_backward
    assert postponed.found and balanced.found
    assert total_postponed < total_balanced
    assert elapsed < 1.0
    ratio = total_postponed / total_balanced
    _passed(
        f"5 dual-heavy-pair improvement (visited {total_postponed} < {total_balanced}, "
        f"ratio {ratio:.3f})"
    )


def test_criterion_06_p3_pathology_regression():
    graph, s, t = postponement_pathology_graph()
    meta = graph.method_meta(graph.successors(s)[0])
    assert meta.class_kind is ClassKind.INTERFACE  # node forward-adjacent to the meeting point
    postponed = run_search(graph, s, t, SearchConfig(delay_steps=3))
    balanced = run_search(graph, s, t, BALANCED)
    assert postponed.postponements >= 1
    assert postponed.visited_backward > balanced.visited_backward
    extra = postponed.visited_backward - balanced.visited_backward
    assert extra == FROZEN_PATHOLOGY_EXTRA_BACKWARD
    assert postponed.meeting_point == balanced.meeting_point == s
    _passed(f"6 postponement pathology (extra backward visits = {extra}, pinned)")


def test_criterion_07_backend_invariance(hub_graph, tmp_path):
    store_path = tmp_path / "hub.cgs"
    build_store(hub_graph, store_path)
    pairs = [HUB_P4_PAIR, (886, 867), (133, 130), (867, 886)]
    configs = [
        SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL),
        SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),
        SearchConfig(delay_steps=3),
        SearchConfig(delay_steps=6),
        SearchConfig(probe_only=True),
        SearchConfig(delay_steps=3, frontier_policy=FrontierPolicy.SMALLER_FIRST),
    ]
    cells = 0
    with open_store(store_path, CacheConfig(max_cached_nodes=128)) as handle:
        for s, t in pairs:
            for config in configs:
                memory = run_search(hub_graph, s, t, config)
                disk = run_search(handle, s, t, config)
                assert memory.same_traversal(disk), (s, t, config.label)
                cells += 1
        # randomized operation fuzzing for the stats counter identity
        rng = np.random.default_rng(321)
        for _ in range(2000):
            op = int(rng.integers(5))
            node = int(rng.integers(hub_graph.node_count))
            if op == 0:
                handle.successors(node)
            elif op == 1:
                handle.predecessors(node)
            elif op == 2:
                handle.method_meta(node)
            elif op == 3:
                handle.begin_query()
            else:
                if rng.random() < 0.05:
                    handle.reset_stats()
            stats = handle.access_stats()
            assert stats.cache_hits + stats.cache_misses == (
                stats.meta_reads + stats.adjacency_reads
            )
    _passed(f"7 backend invariance ({cells} cells identical; counter identity fuzzed)")


def test_criterion_08_probe_overhead_measurable(hub_graph, tmp_path):
    store_path = tmp_path / "hub-latency.cgs"
    build_store(hub_graph, store_path)
    latency = 0.001
    s, t = HUB_P4_PAIR
    repetitions = 3

    def mean_elapsed(config) -> tuple[float, int]:
        cache = CacheConfig(
            max_cached_nodes=2048, latency_per_miss=latency, mode=CacheMode.COLD_PER_QUERY
        )
        with open_store(store_path, cache) as handle:
            results = [run_search(handle, s, t, config) for _ in range(repetitions)]
        return statistics.fmean(r.elapsed for r in results), results[0].probe_count

    probe_mean, probe_count = mean_elapsed(SearchConfig(probe_only=True))
    balanced_mean, _ = mean_elapsed(SearchConfig(algorithm=Algorithm.BIDIR_BALANCED))
    assert probe_count > 0
    difference = probe_mean - balanced_mean
    budget = probe_count * latency
    assert difference > 0, f"probe run not slower ({probe_mean:.4f}s vs {balanced_mean:.4f}s)"
    assert difference <= 2 * budget, (
        f"difference {difference:.4f}s exceeds 2x probe budget {budget:.4f}s"
    )
    _passed(
        f"8 probe overhead measurable (diff {difference * 1000:.1f} ms for "
        f"{probe_count} probes at 1 ms)"
    )


@pytest.mark.parametrize("delay", [3, 6])
def test_criterion_09_delay_accounting(delay):
    graph, s, t = postponement_pathology_graph()
    trace = []
    result = run_search(graph, s, t, SearchConfig(delay_steps=delay), trace=trace)
    assert result.postponements >= 1
    by_node: dict[int, list[str]] = {}
    for event in trace:
        if not event.forward:
            by_node.setdefault(event.node, []).append(event.action)
    postponed_nodes = [u for u, acts in by_node.items() if "postponed" in acts]
    assert postponed_nodes
    for u in postponed_nodes:
        acts = by_node[u]
        sat_out = sum(1 for a in acts if a in ("postponed", "delayed"))
        assert sat_out == delay, f"node {u} sat out {sat_out} rounds, expected {delay}"
        assert acts.count("postponed") == 1
        assert acts[-1] == "expanded"
    _passed(f"9 delay accounting (delay {delay}: postponed nodes sit out exactly {delay})")


def test_criterion_10_bench_determinism():
    scenario = load_scenario(Path(__file__).parent.parent / "data" / "scenarios" / "regimes.json")
    first = emit_report(run_scenario(scenario), "csv")
    second = emit_report(run_scenario(scenario), "csv")

    def mask(text: str) -> str:
        reader = csv.DictReader(io.StringIO(text))
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=reader.fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in reader:
            for col in TIMING_COLUMNS:
                row[col] = "-"
            writer.writerow(row)
        return out.getvalue()

    assert first.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert mask(first) == mask(second)  # byte-identical once timing columns are blanked
    _passed("10 bench determinism (shipped scenario CSV identical minus timing columns)")


def test_criterion_11_balanced_gap_regression(sweep):
    observed = sweep["balanced_max_gap"]
    for policy, frozen in FROZEN_BALANCED_MAX_GAP.items():
        assert observed[policy] == frozen, (
            f"balanced optimality gap regressed for {policy.value}: "
            f"observed {observed[policy]}, frozen {frozen}"
        )
    _passed(
        "11 balanced optimality-gap regression "
        f"(paper={observed[FrontierPolicy.PAPER_LITERAL]}, "
        f"smaller={observed[FrontierPolicy.SMALLER_FIRST]})"
    )


def test_postpone_gap_regression():
    # 60 hub graphs of 30-200 nodes (out-degree 1-3, one interface hub
    # per 20 nodes with n/10 extra callers), 3 sources each, every
    # reachable target, checked against BFS distances
    rng = np.random.default_rng(POSTPONE_GAP_SEED)
    observed = {key: 0 for key in FROZEN_POSTPONE_MAX_GAP}
    queries = 0
    for _ in range(60):
        n = int(rng.integers(30, 201))
        spec = SyntheticSpec(
            node_count=n,
            out_degree=int(rng.integers(1, 4)),
            hub_count=n // 20,
            hub_indegree=n // 10,
            seed=int(rng.integers(2**31)),
        )
        graph = generate_synthetic(spec)
        for s in rng.choice(n, size=3, replace=False):
            dist = bfs_distances(graph, int(s))
            for t in range(n):
                if t == s or dist[t] is inf:
                    continue
                for policy, delay in observed:
                    config = SearchConfig(delay_steps=delay, frontier_policy=policy)
                    result = run_search(graph, int(s), t, config)
                    assert result.found
                    gap = result.length - int(dist[t])
                    observed[policy, delay] = max(observed[policy, delay], gap)
                queries += 1
    assert observed == FROZEN_POSTPONE_MAX_GAP
    _passed(
        "postpone gap regression ("
        + ", ".join(f"{p.value}/{d}={g}" for (p, d), g in observed.items())
        + f"; {queries} reachable pairs)"
    )
