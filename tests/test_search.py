import sys
import threading
from dataclasses import replace
from math import inf
from pathlib import Path

import numpy as np
import pytest

from callpath import search
from callpath.bench import load_scenario
from callpath.errors import InternalSearchError, InvalidNodeError
from callpath.fixtures import postponement_pathology_graph
from callpath.ingest import SyntheticSpec, generate_synthetic
from callpath.model import ClassKind, Edge, InMemoryGraph, MethodMeta
from callpath.search import (
    Algorithm,
    FrontierPolicy,
    SearchConfig,
    SearchStatus,
    run_search,
)
from callpath.search import SearchState, _join_chains

from callpath.store import CacheConfig, build_store, open_store

from oracles import bfs_distances, is_valid_path, layered_bfs, random_graph
from test_acceptance import SWEEP_SEED, _sweep_graph

POLICIES = (FrontierPolicy.PAPER_LITERAL, FrontierPolicy.SMALLER_FIRST)
UNI = SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL)
BALANCED = SearchConfig(algorithm=Algorithm.BIDIR_BALANCED)


def chain_graph(names_kinds, edges):
    metas = [
        MethodMeta(i, f"m{i}", f"C{i}", kind) for i, kind in enumerate(names_kinds)
    ]
    return InMemoryGraph(metas, edges)


# ---------------------------------------------------------------------------
# unidirectional
# ---------------------------------------------------------------------------


def test_uni_fig_direct_edge(fig_graph):
    result = run_search(fig_graph, 0, 3, UNI)
    assert result.found
    assert result.path == (Edge(0, 3),)
    assert result.length == 1
    assert result.visited_backward == 0


def test_uni_same_node(fig_graph):
    result = run_search(fig_graph, 2, 2, UNI)
    assert result.found
    assert result.path == ()
    assert result.length == 0


@pytest.mark.parametrize("config", [UNI, BALANCED, SearchConfig(delay_steps=3)])
def test_equal_endpoints_meet_before_the_first_round(fig_graph, config):
    # the query takes the main path and its state, built from its own
    # tables, holds the one endpoint at distance 0 in both directions
    result, state = search._search(fig_graph, 2, 2, config, return_state=True)
    assert result.same_traversal(run_search(fig_graph, 2, 2, config))
    assert (result.meeting_point, result.steps, result.probe_count) == (2, 0, 0)
    assert state.intermed == 2
    assert state.prev_forward == state.prev_backward == [None] * fig_graph.node_count
    unreached = [inf] * fig_graph.node_count
    assert state.dist_forward == state.dist_backward == unreached[:2] + [0] + unreached[3:]


def test_uni_unreachable(fig_graph):
    result = run_search(fig_graph, 3, 0, UNI)
    assert result.status is SearchStatus.NO_PATH
    assert result.path == ()


def test_uni_invalid_node(fig_graph):
    with pytest.raises(InvalidNodeError):
        run_search(fig_graph, 0, 99, UNI)


def test_uni_matches_bfs_oracle_all_pairs():
    graph = generate_synthetic(SyntheticSpec(node_count=200, edge_probability=0.01, seed=13))
    for s in range(graph.node_count):
        dist = bfs_distances(graph, s)
        for t in range(graph.node_count):
            result = run_search(graph, s, t, UNI)
            if dist[t] is inf:
                assert result.status is SearchStatus.NO_PATH
            else:
                assert result.found
                assert result.length == dist[t]
                assert is_valid_path(graph, s, t, result.path)


def _assert_uni_matches_layered_bfs(graph, s, t):
    trace = []
    result = run_search(graph, s, t, UNI, trace=trace)
    expected = layered_bfs(graph, s, t)
    if expected["path"] is None:
        assert result.status is SearchStatus.NO_PATH
        assert result.meeting_point is None
        assert result.path == ()
    else:
        assert result.found
        assert result.meeting_point == t
        assert [tuple(edge) for edge in result.path] == expected["path"]
    assert result.visited_forward == expected["visited"]
    assert result.visited_backward == 0
    assert result.postponements == result.probe_count == 0
    assert result.steps == expected["steps"]
    assert all(event.forward and event.action == "expanded" for event in trace)
    assert [(event.step, event.node) for event in trace] == expected["trace"]


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
def test_uni_counters_match_layered_bfs_reference(on_disk, hub_graph, tmp_path):
    # uni is the shared kernel with an empty backward frontier; its path,
    # visit count, rounds, meeting point and trace must equal a plain
    # layered BFS, including on no-path queries
    rng = np.random.default_rng(2016)
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 40))
        graph = random_graph(rng, n, float(rng.uniform(0.02, 0.2)))
        cases.append((graph, [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(4)]))
    cases.append((hub_graph, [tuple(int(x) for x in rng.integers(1000, size=2)) for _ in range(24)]))
    for i, (graph, pairs) in enumerate(cases):
        if on_disk:
            build_store(graph, tmp_path / f"g{i}.cgs")
            with open_store(tmp_path / f"g{i}.cgs") as handle:
                for s, t in pairs:
                    _assert_uni_matches_layered_bfs(handle, s, t)
        else:
            for s, t in pairs:
                _assert_uni_matches_layered_bfs(graph, s, t)


# ---------------------------------------------------------------------------
# balanced
# ---------------------------------------------------------------------------


def test_balanced_fig(fig_graph):
    result = run_search(fig_graph, 0, 3, BALANCED)
    assert result.found
    assert result.length == 1
    assert result.meeting_point in (0, 3)
    assert result.postponements == 0
    assert result.probe_count == 0


def test_balanced_unreachable(fig_graph):
    result = run_search(fig_graph, 3, 0, BALANCED)
    assert result.status is SearchStatus.NO_PATH
    assert result.meeting_point is None


@pytest.mark.parametrize("policy", POLICIES)
def test_balanced_exhaustive_small_sweep(policy):
    # every digraph instance on <= 5 nodes over a seeded sample; the
    # frozen gap bound (zero) is re-established by the acceptance sweep
    rng = np.random.default_rng(77)
    for _ in range(120):
        n = int(rng.integers(2, 6))
        graph = random_graph(rng, n, float(rng.random()))
        for s in range(n):
            dist = bfs_distances(graph, s)
            for t in range(n):
                result = run_search(graph, s, t, replace(BALANCED, frontier_policy=policy))
                reachable = (dist[t] is not inf) or s == t
                assert result.found == reachable
                if result.found:
                    assert is_valid_path(graph, s, t, result.path)
                    assert result.length == (0 if s == t else dist[t])


def test_balanced_paper_literal_is_backward_only(fig_graph):
    # under the literal frontier rule the forward frontier never grows
    # past the start node, so no forward expansion happens on found pairs
    result = run_search(
        fig_graph, 0, 3, replace(BALANCED, frontier_policy=FrontierPolicy.PAPER_LITERAL)
    )
    assert result.visited_forward == 0
    assert result.meeting_point == 0


def test_balanced_meeting_accounting():
    rng = np.random.default_rng(31)
    for _ in range(40):
        graph = random_graph(rng, 15, 0.15)
        s, t = int(rng.integers(15)), int(rng.integers(15))
        for policy in POLICIES:
            result = run_search(graph, s, t, replace(BALANCED, frontier_policy=policy))
            if result.found and s != t:
                assert result.length == len(result.path)
                assert result.meeting_point is not None


# ---------------------------------------------------------------------------
# postpone
# ---------------------------------------------------------------------------


def test_postpone_fig_no_interface_nodes(fig_graph):
    result = run_search(fig_graph, 0, 3, SearchConfig(delay_steps=3))
    assert result.found
    assert result.length == 1
    assert result.postponements == 0


def test_postpone_config_validation(fig_graph):
    with pytest.raises(ValueError):
        SearchConfig(algorithm=Algorithm.BIDIR_BALANCED, probe_only=True)
    with pytest.raises(ValueError):
        SearchConfig(delay_steps=-1)
    # a fractional countdown never reaches 1, so its node would never be released
    for delay in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="delay_steps must be an integer"):
            SearchConfig(delay_steps=delay)
    assert SearchConfig(delay_steps=np.int64(2)).delay_steps == 2
    # an enum's value, or a set of them, is not the member: "uni" ran a
    # balanced query labelled postpone-3, "paper" ran smaller-first, and
    # {"interface"} probed but never postponed
    for field, value in (
        ("algorithm", "uni"),
        ("algorithm", None),
        ("frontier_policy", "paper"),
        ("postpone_kinds", frozenset({"interface"})),
        ("postpone_kinds", frozenset({ClassKind.INTERFACE, "abstract"})),
        ("postpone_kinds", {ClassKind.INTERFACE}),
        ("postpone_kinds", (ClassKind.INTERFACE,)),
        # "no" ran a probe-only query labelled probe-only
        ("probe_only", "no"),
        ("probe_only", 1),
        ("probe_only", None),
    ):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})
    assert SearchConfig(postpone_kinds=frozenset()).postpone_kinds == frozenset()


def _hub60_graph():
    """The 60-node graph on which a postponing query from 4 to 56 once ran
    one round per step of the delay."""
    return generate_synthetic(
        SyntheticSpec(node_count=60, out_degree=2, hub_count=5, hub_indegree=10, seed=1)
    )


def test_a_huge_delay_counts_its_waiting_rounds_at_once():
    # the backward frontier holds only the postponed node while the
    # forward one is exhausted, so 10**30 - 1 rounds only count down
    result = run_search(_hub60_graph(), 4, 56, SearchConfig(delay_steps=10**30))
    assert result.found and result.length == 2
    assert result.steps == 10**30 + 2
    assert result.postponements == 1


@pytest.mark.parametrize("delay", range(4, 12))
def test_waiting_rounds_of_a_node_that_occurs_twice(delay):
    # t's callers c1 and interface y enter the backward frontier; y is
    # postponed while the chain c1 <- c2 <- ... grows one node a round. When
    # y fires, the chain's last node offers u a distance and y a lower one,
    # so u occurs twice in the next frontier; it is postponed at its first
    # occurrence and waits at both from then on, so each waiting round
    # counts its delay down twice
    s, u, y, t = 0, 1, delay + 3, delay + 4
    chain = list(range(2, delay + 3))
    kinds = [ClassKind.CONCRETE] * (delay + 5)
    kinds[u] = kinds[y] = ClassKind.INTERFACE
    edges = [(s, u), (u, y), (y, t), (chain[0], t), (u, chain[-1])]
    edges += [(b, a) for a, b in zip(chain, chain[1:])]
    graph = chain_graph(kinds, edges)
    config = SearchConfig(delay_steps=delay)
    trace = []
    result = run_search(graph, s, t, config)
    assert result.same_traversal(run_search(graph, s, t, config, trace=trace))
    assert result.path == (Edge(s, u), Edge(u, y), Edge(y, t))
    waits = [event.step for event in trace if event.node == u and event.action == "delayed"]
    assert any(waits.count(step) == 2 for step in waits)


@pytest.mark.parametrize("policy", POLICIES)
def test_waiting_rounds_counted_at_once_match_traced_rounds(policy):
    # a traced query runs every round, one event per occurrence; an
    # untraced one counts the rounds in which every occurrence waits at
    # once. The small random graphs also put a waiting node in a frontier twice
    graphs = [_hub60_graph()]
    rng = np.random.default_rng(60)
    for _ in range(40):
        n = int(rng.integers(3, 12))
        graphs.append(random_graph(rng, n, float(rng.uniform(0.1, 0.5))))
    for graph in graphs:
        n = graph.node_count
        for delay in (2, 3, 40) if n == 60 else (2, 3):
            config = SearchConfig(delay_steps=delay, frontier_policy=policy)
            for s in range(0, n, 3 if n == 60 else 1):
                for t in range(n):
                    assert run_search(graph, s, t, config).same_traversal(
                        run_search(graph, s, t, config, trace=[])
                    ), (n, delay, s, t)


def test_postpone_pathology_visits_more_backward():
    graph, s, t = postponement_pathology_graph()
    balanced = run_search(graph, s, t, BALANCED)
    postponed = run_search(graph, s, t, SearchConfig(delay_steps=3))
    assert postponed.postponements == 1
    assert postponed.visited_backward > balanced.visited_backward
    assert postponed.path == balanced.path  # same route, found later
    assert postponed.length == balanced.length == 3


def test_postpone_hub_fixture_beats_balanced_on_dual_heavy_pair(hub_graph):
    s, t = 983, 348
    balanced = run_search(hub_graph, s, t, BALANCED)
    postponed = run_search(hub_graph, s, t, SearchConfig(delay_steps=3))
    assert postponed.found and balanced.found
    total_postponed = postponed.visited_forward + postponed.visited_backward
    total_balanced = balanced.visited_forward + balanced.visited_backward
    assert total_postponed < total_balanced


@pytest.mark.parametrize("policy", POLICIES)
def test_delay_zero_reduces_to_balanced(policy):
    rng = np.random.default_rng(55)
    config = SearchConfig(delay_steps=0, frontier_policy=policy)
    for _ in range(150):
        n = int(rng.integers(2, 40))
        graph = random_graph(rng, n, float(rng.random() * 0.3))
        s, t = int(rng.integers(n)), int(rng.integers(n))
        a = run_search(graph, s, t, replace(BALANCED, frontier_policy=policy))
        b = run_search(graph, s, t, config)
        assert a.same_traversal(b)
        assert b.probe_count == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_probe_only_traversal_matches_balanced(policy):
    rng = np.random.default_rng(56)
    config = SearchConfig(probe_only=True, frontier_policy=policy)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        graph = random_graph(rng, n, float(rng.random() * 0.3))
        s, t = int(rng.integers(n)), int(rng.integers(n))
        trace_b, trace_p = [], []
        a = run_search(graph, s, t, replace(BALANCED, frontier_policy=policy), trace=trace_b)
        b = run_search(graph, s, t, config, trace=trace_p)
        assert a.path == b.path and a.status == b.status
        assert (a.visited_forward, a.visited_backward, a.steps) == (
            b.visited_forward,
            b.visited_backward,
            b.steps,
        )
        assert trace_b == trace_p  # identical node-by-node traversal
        backward_processed = sum(1 for e in trace_p if not e.forward)
        if backward_processed:
            assert b.probe_count > 0
        else:
            assert b.probe_count == 0


def test_no_postpone_kind_nodes_means_identical_to_balanced():
    rng = np.random.default_rng(58)
    for delay in (1, 3, 6):
        for _ in range(30):
            n = int(rng.integers(2, 30))
            metas = [MethodMeta(u, f"m{u}", f"C{u}", ClassKind.CONCRETE) for u in range(n)]
            draws = rng.random((n, n))
            graph = InMemoryGraph(
                metas, [(u, v) for u in range(n) for v in range(n) if draws[u, v] < 0.2]
            )
            s, t = int(rng.integers(n)), int(rng.integers(n))
            a = run_search(graph, s, t, BALANCED)
            b = run_search(graph, s, t, SearchConfig(delay_steps=delay))
            assert a.path == b.path
            assert (a.visited_forward, a.visited_backward, a.steps) == (
                b.visited_forward,
                b.visited_backward,
                b.steps,
            )
            assert b.postponements == 0


@pytest.mark.parametrize("delay", [1, 3, 6])
def test_postponed_node_sits_out_exactly_delay_rounds(delay):
    graph, s, t = postponement_pathology_graph()
    trace = []
    result = run_search(graph, s, t, SearchConfig(delay_steps=delay), trace=trace)
    assert result.postponements == 1
    by_node: dict[int, list[str]] = {}
    for event in trace:
        by_node.setdefault(event.node, []).append(event.action)
    postponed_nodes = [u for u, actions in by_node.items() if "postponed" in actions]
    assert len(postponed_nodes) == 1
    actions = by_node[postponed_nodes[0]]
    sat_out = sum(1 for a in actions if a in ("postponed", "delayed"))
    assert sat_out == delay
    assert actions[-1] == "expanded"
    assert actions.count("postponed") == 1  # the trigger fires at most once


def test_postponement_triggers_at_most_once_per_node():
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(3, 30))
        graph = random_graph(rng, n, 0.25)
        s, t = int(rng.integers(n)), int(rng.integers(n))
        trace = []
        run_search(graph, s, t, SearchConfig(delay_steps=2), trace=trace)
        triggers: dict[int, int] = {}
        for event in trace:
            if event.action == "postponed":
                triggers[event.node] = triggers.get(event.node, 0) + 1
        assert all(count == 1 for count in triggers.values())


def test_completeness_matches_reachability_randomized():
    rng = np.random.default_rng(62)
    for _ in range(80):
        n = int(rng.integers(2, 25))
        graph = random_graph(rng, n, float(rng.random() * 0.4))
        s, t = int(rng.integers(n)), int(rng.integers(n))
        reachable = (bfs_distances(graph, s)[t] is not inf) or s == t
        for policy in POLICIES:
            for config in (
                SearchConfig(delay_steps=3, frontier_policy=policy),
                SearchConfig(delay_steps=6, frontier_policy=policy),
                SearchConfig(probe_only=True, frontier_policy=policy),
            ):
                result = run_search(graph, s, t, config)
                assert result.found == reachable
                if result.found:
                    assert is_valid_path(graph, s, t, result.path)


def test_postpone_kinds_configurable():
    # abstract-kind node postpones under the default set, not when the
    # set is restricted to interface only
    kinds = [ClassKind.CONCRETE, ClassKind.ABSTRACT, ClassKind.CONCRETE, ClassKind.CONCRETE]
    graph = chain_graph(kinds, [(0, 1), (1, 2), (2, 3)])
    default = run_search(graph, 0, 3, SearchConfig(delay_steps=3))
    assert default.postponements == 1
    restricted = run_search(
        graph, 0, 3, SearchConfig(delay_steps=3, postpone_kinds=frozenset({ClassKind.INTERFACE}))
    )
    assert restricted.postponements == 0


def test_postponement_only_applies_backward():
    # interface node on the forward side of the meeting: never postponed
    kinds = [ClassKind.INTERFACE, ClassKind.INTERFACE, ClassKind.CONCRETE]
    graph = chain_graph(kinds, [(0, 1), (1, 2)])
    result = run_search(
        graph, 0, 2, SearchConfig(delay_steps=3, frontier_policy=FrontierPolicy.SMALLER_FIRST)
    )
    assert result.found
    # smaller-first with ties forward walks the chain forward only
    assert result.visited_backward == 0
    assert result.postponements == 0


# ---------------------------------------------------------------------------
# path reconstruction from the prev chains
# ---------------------------------------------------------------------------


def _path_of(state, initial, final):
    # a state's None, no predecessor, is the tables' -1
    prev_f, prev_b = (
        [-1 if u is None else u for u in prev] for prev in (state.prev_forward, state.prev_backward)
    )
    return _join_chains(prev_f, prev_b, state.intermed, initial, final)


def _blank_state(n, intermed):
    return SearchState(
        todo_forward=[],
        todo_backward=[],
        prev_forward=[None] * n,
        prev_backward=[None] * n,
        dist_forward=[inf] * n,
        dist_backward=[inf] * n,
        delay=[0] * n,
        postponed=[False] * n,
        intermed=intermed,
    )


def test_reconstruct_one_hop():
    state = _blank_state(2, intermed=1)
    state.prev_forward[1] = 0
    assert _path_of(state, 0, 1) == [Edge(0, 1)]


def test_reconstruct_two_sided():
    # intermed m=2; forward chain s=0 -> a=1 -> m; backward chain m -> b=3 -> t=4
    state = _blank_state(5, intermed=2)
    state.prev_forward[2] = 1
    state.prev_forward[1] = 0
    state.prev_backward[2] = 3
    state.prev_backward[3] = 4
    assert _path_of(state, 0, 4) == [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4)]


def test_reconstruct_detects_broken_chain():
    state = _blank_state(4, intermed=2)
    state.prev_forward[2] = 1  # chain stops at 1, never reaches initial 0
    with pytest.raises(InternalSearchError):
        _path_of(state, 0, 2)


def test_reconstruct_detects_cyclic_chain():
    state = _blank_state(3, intermed=2)
    state.prev_forward[2] = 1
    state.prev_forward[1] = 2
    with pytest.raises(InternalSearchError):
        _path_of(state, 0, 2)


def test_found_paths_pass_independent_validator_randomized():
    rng = np.random.default_rng(63)
    configs = [
        SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL),
        SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),
        SearchConfig(delay_steps=3),
        SearchConfig(delay_steps=6, frontier_policy=FrontierPolicy.SMALLER_FIRST),
        SearchConfig(probe_only=True),
    ]
    for _ in range(60):
        n = int(rng.integers(2, 35))
        graph = random_graph(rng, n, 0.15)
        s, t = int(rng.integers(n)), int(rng.integers(n))
        for config in configs:
            result = run_search(graph, s, t, config)
            if result.found:
                assert is_valid_path(graph, s, t, result.path)


def test_search_determinism_same_counts_across_runs(hub_graph):
    config = SearchConfig(delay_steps=3)
    first = run_search(hub_graph, 983, 348, config)
    second = run_search(hub_graph, 983, 348, config)
    assert first.same_traversal(second)


def test_config_labels():
    assert SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL).label == "uni"
    assert SearchConfig(algorithm=Algorithm.BIDIR_BALANCED).label == "balanced"
    assert SearchConfig(delay_steps=6).label == "postpone-6"
    assert SearchConfig(probe_only=True).label == "probe-only"


def test_chain_with_extra_callers_postpones_without_extra_visits():
    # interface node two hops from the meeting point, 20 extra callers:
    # the postponement fires but, with no other active backward branch,
    # it only shifts the expansion later; the visit count stays equal to
    # the balanced run. A decoy branch (see the pathology fixture) is
    # what turns the delay into extra visits.
    kinds = [ClassKind.CONCRETE] * 25
    kinds[2] = ClassKind.INTERFACE  # i
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]  # s -> a -> i -> b -> t
    edges += [(5 + j, 2) for j in range(20)]  # 20 callers of i
    graph = chain_graph(kinds, edges)
    balanced = run_search(graph, 0, 4, BALANCED)
    postponed = run_search(graph, 0, 4, SearchConfig(delay_steps=3))
    assert postponed.postponements == 1
    assert postponed.visited_backward == balanced.visited_backward
    assert postponed.steps == balanced.steps + 3  # the delay costs rounds, not visits
    assert postponed.path == balanced.path


@pytest.mark.parametrize("policy", POLICIES)
def test_meeting_accounting_for_delay_free_variants(policy):
    # white-box: when no node is ever delayed, the realized path length
    # equals dist_forward[meeting] + dist_backward[meeting]
    from callpath.search import _search

    rng = np.random.default_rng(64)
    met = 0
    for _ in range(60):
        n = int(rng.integers(2, 30))
        graph = random_graph(rng, n, 0.2)
        s, t = int(rng.integers(n)), int(rng.integers(n))
        for probe_only in (False, True):
            algorithm = Algorithm.BIDIR_POSTPONE if probe_only else Algorithm.BIDIR_BALANCED
            config = SearchConfig(
                algorithm=algorithm, delay_steps=0, probe_only=probe_only, frontier_policy=policy
            )
            result, state = _search(graph, s, t, config, return_state=True)
            if result.found and s != t:
                met += 1
                mp = result.meeting_point
                assert result.length == state.dist_forward[mp] + state.dist_backward[mp]
    assert met > 0


def test_postponement_can_shorten_path_below_distance_sum():
    # stale-distance effect: a postponed node's late expansion improves
    # an ancestor's distance after a descendant recorded it, so the
    # realized path can undercut the recorded distance sum; length must
    # report the real edge count
    from callpath.search import _search

    graph = generate_synthetic(
        SyntheticSpec(
            node_count=1000, out_degree=2, hub_count=10, hub_indegree=40, seed=7, acyclic=True
        )
    )
    config = SearchConfig(delay_steps=3, frontier_policy=FrontierPolicy.PAPER_LITERAL)
    result, state = _search(graph, 670, 973, config, return_state=True)
    assert result.found
    assert result.length == len(result.path) == 7
    assert is_valid_path(graph, 670, 973, result.path)
    mp = result.meeting_point
    assert state.dist_forward[mp] + state.dist_backward[mp] == 9  # stale, longer than the path


# ---------------------------------------------------------------------------
# prev/dist table reuse across queries
# ---------------------------------------------------------------------------

REGIME_CONFIGS = load_scenario(
    Path(__file__).parent.parent / "data" / "scenarios" / "regimes.json"
).algorithms


def _fresh(graph, s, t, config):
    """The reference: a query on empty pools builds fresh tables. The
    pools are put back as they were."""
    pools = search._SPARE_TABLES, search._SPARE_ARRAYS
    kept = [pool[:] for pool in pools]
    for pool in pools:
        pool.clear()
    try:
        return run_search(graph, s, t, config)
    finally:
        for pool, spare in zip(pools, kept):
            pool[:] = spare


def _reuse_graphs(hub_graph):
    small = generate_synthetic(
        SyntheticSpec(node_count=300, out_degree=2, hub_count=5, hub_indegree=30, seed=3)
    )
    return [hub_graph, small]


def _pairs(rng, graph, count):
    return [tuple(int(x) for x in rng.integers(graph.node_count, size=2)) for _ in range(count)]


@pytest.mark.parametrize("backend", ["memory", "disk", "arrays"])
def test_reused_tables_match_fresh_tables_across_graph_sizes(backend, hub_graph, tmp_path, monkeypatch):
    # runs of queries on one graph reuse the tables; every switch between
    # the two graph sizes rebuilds them. On disk, a second handle on the
    # same store serves the reference, so the I/O counts must agree too.
    # "memory" goes through a wrapper without ``csr``, so every round runs
    # node by node on the list tables; "arrays" runs every round of the
    # bare InMemoryGraph as array operations on the array tables
    rng = np.random.default_rng(404)
    graphs = _reuse_graphs(hub_graph)
    on_disk = backend == "disk"
    handles = []
    if on_disk:
        for i, graph in enumerate(graphs):
            build_store(graph, tmp_path / f"g{i}.cgs")
            handles.append(
                (open_store(tmp_path / f"g{i}.cgs"), open_store(tmp_path / f"g{i}.cgs"))
            )
    elif backend == "memory":
        handles = [(_RequiredMethodsOnly(graph), _RequiredMethodsOnly(graph)) for graph in graphs]
    else:
        monkeypatch.setattr(search, "_ARRAY_ROUND_MIN", 0)
        handles = [(graph, graph) for graph in graphs]
    try:
        for config in REGIME_CONFIGS:
            for graph, (reused, reference) in zip(graphs, handles):
                for s, t in _pairs(rng, graph, 6):
                    got = run_search(reused, s, t, config)
                    assert got.same_traversal(_fresh(reference, s, t, config))
                    if on_disk:
                        assert reused.access_stats() == reference.access_stats()
        spare = search._SPARE_ARRAYS if backend == "arrays" else search._SPARE_TABLES
        assert spare and spare[-1].base < 0
    finally:
        if on_disk:
            for reused, reference in handles:
                reused.close()
                reference.close()


def _bases_after_each_query(hub_graph, monkeypatch, arrays):
    """The base of the tables each query handed back, under a floor of
    three offsets, while every answer matches fresh tables."""
    rng = np.random.default_rng(405)
    runs = []
    for graph in _reuse_graphs(hub_graph):
        monkeypatch.setattr(search, "_BASE_FLOOR", -3 * (graph.node_count + 2))
        backend = graph if arrays else _RequiredMethodsOnly(graph)
        spare = search._SPARE_ARRAYS if arrays else search._SPARE_TABLES
        bases = []
        for config in REGIME_CONFIGS:
            for s, t in _pairs(rng, graph, 4):
                assert run_search(backend, s, t, config).same_traversal(
                    _fresh(backend, s, t, config)
                )
                if s != t:
                    bases.append(spare[-1].base)
        runs.append((graph.node_count + 2, bases))
    return runs


def test_tables_refilled_when_the_offset_runs_out(hub_graph, monkeypatch):
    # a floor of three offsets rebuilds the tables every third reuse; the
    # wrapper has no ``csr``, so only the list tables are in play
    for step, bases in _bases_after_each_query(hub_graph, monkeypatch, arrays=False):
        # rebuilt at base 0, lowered three times, rebuilt again
        first = bases.index(0)
        assert bases[first:] == [-(i % 4) * step for i in range(len(bases) - first)]


def test_array_tables_refilled_when_the_offset_runs_out(hub_graph, monkeypatch):
    # every round an array round, so every query takes the array tables
    monkeypatch.setattr(search, "_ARRAY_ROUND_MIN", 0)
    for step, bases in _bases_after_each_query(hub_graph, monkeypatch, arrays=True):
        first = bases.index(0)
        assert bases[first:] == [-(i % 4) * step for i in range(len(bases) - first)]


def test_array_tables_start_their_marks_over_when_the_stamp_runs_out(hub_graph, monkeypatch):
    # every query of the run starts on spare array tables whose stamp is
    # the last int32 stamp, so its first marking starts over from 0 while
    # the marks of earlier queries are still in the table
    monkeypatch.setattr(search, "_ARRAY_ROUND_MIN", 0)
    monkeypatch.setattr(search, "_SPARE_ARRAYS", [])
    rng = np.random.default_rng(406)
    for config in REGIME_CONFIGS:
        for s, t in _pairs(rng, hub_graph, 4):
            for tables in search._SPARE_ARRAYS:
                tables.stamp = search._UNREACHED
            assert run_search(hub_graph, s, t, config).same_traversal(_fresh(hub_graph, s, t, config))
            if s != t:
                assert 0 < search._SPARE_ARRAYS[-1].stamp < search._UNREACHED


def _pools_after(monkeypatch, queries):
    """The spare list and array tables after ``queries`` run on empty pools."""
    monkeypatch.setattr(search, "_SPARE_TABLES", [])
    monkeypatch.setattr(search, "_SPARE_ARRAYS", [])
    for graph, s, t, config in queries:
        run_search(graph, s, t, config)
    return search._SPARE_TABLES, search._SPARE_ARRAYS


def test_in_memory_queries_take_the_array_tables_from_the_start(hub_graph, monkeypatch):
    # the tables are chosen at a query's first line: every query on the
    # 1000-node fixture takes the arrays, also one that runs no array
    # round, and hands the same set back
    rounds = []
    array_round = search._array_round
    monkeypatch.setattr(
        search, "_array_round", lambda *args: rounds.append(args[1]) or array_round(*args)
    )
    neighbour = int(hub_graph.successors(0)[0])
    tables, arrays = _pools_after(monkeypatch, [(hub_graph, 0, neighbour, BALANCED)])
    assert rounds == [] and tables == [] and len(arrays) == 1
    queries = [(hub_graph, s, t, config) for config in REGIME_CONFIGS for s, t in [(0, 999), (670, 973)]]
    tables, arrays = _pools_after(monkeypatch, queries)
    assert rounds and tables == []
    assert len(arrays) == 1 and type(arrays[0]) is search._ArrayTables


def test_other_queries_take_the_list_tables(hub_graph, monkeypatch):
    # graphs below the array-round size, and backends without CSR arrays
    sweep = _sweep_graph(np.random.default_rng(SWEEP_SEED))
    wrapped = _RequiredMethodsOnly(hub_graph)
    queries = [(sweep, 0, 5, BALANCED), (wrapped, 0, 999, BALANCED), (wrapped, 670, 973, UNI)]
    tables, arrays = _pools_after(monkeypatch, queries)
    assert arrays == []
    assert len(tables) == 1 and type(tables[0]) is search._Tables


def test_a_query_that_moves_to_array_tables_hands_back_one_set_each(hub_graph, tmp_path, monkeypatch):
    # a store whose cache holds every node starts a query on the lists and
    # moves it to the arrays at its first round of _ARRAY_MOVE_MIN nodes;
    # the lists go back at the move and the arrays at the end, and a
    # query after it answers alike on the reused tables and on fresh ones
    monkeypatch.setattr(search, "_ARRAY_MOVE_MIN", 3)
    moves = []
    move = search._move_to_arrays
    monkeypatch.setattr(search, "_move_to_arrays", lambda *args: moves.append(1) or move(*args))
    path = tmp_path / "hub.cgs"
    build_store(hub_graph, path)
    cache = CacheConfig(max_cached_nodes=hub_graph.node_count)
    with open_store(path, cache) as reused, open_store(path, cache) as reference:
        tables, arrays = _pools_after(monkeypatch, [(reused, 670, 973, BALANCED)])
        assert moves == [1]
        _fresh(reference, 670, 973, BALANCED)
        assert len(tables) == 1 and type(tables[0]) is search._Tables
        assert len(arrays) == 1 and type(arrays[0]) is search._ArrayTables
        pooled = tables[0], arrays[0]
        for config in REGIME_CONFIGS:
            for s, t in [(670, 973), (0, 999), (224, 862)]:
                got = run_search(reused, s, t, config)
                assert got.same_traversal(_fresh(reference, s, t, config))
                assert reused.access_stats() == reference.access_stats()
        assert (tables[-1], arrays[-1]) == pooled
        assert len(moves) > 2


def test_returned_state_of_array_frontiers_is_lists(hub_graph, monkeypatch):
    # every round an array round, so both last frontiers are arrays; the
    # state holds them as lists of ints, and fresh tables as the
    # documented None / inf lists, and one set goes back to the pools
    monkeypatch.setattr(search, "_ARRAY_ROUND_MIN", 0)
    monkeypatch.setattr(search, "_SPARE_ARRAYS", [])
    config = replace(BALANCED, frontier_policy=FrontierPolicy.SMALLER_FIRST)
    result, state = search._search(hub_graph, 670, 973, config, return_state=True)
    assert result.found and result.visited_forward and result.visited_backward
    assert len(search._SPARE_ARRAYS) == 1
    assert state.todo_forward or state.todo_backward
    for todo in (state.todo_forward, state.todo_backward):
        assert type(todo) is list and all(type(u) is int for u in todo)
    for prev, dist, endpoint in (
        (state.prev_forward, state.dist_forward, 670),
        (state.prev_backward, state.dist_backward, 973),
    ):
        assert type(prev) is list and type(dist) is list
        assert len(prev) == len(dist) == hub_graph.node_count
        assert prev[endpoint] is None and dist[endpoint] == 0
        assert all(u is None or type(u) is int for u in prev)
        assert all(d == inf or type(d) is int for d in dist)
        reached = [v for v, d in enumerate(dist) if d != inf and v != endpoint]
        assert reached and all(prev[v] is not None for v in reached)
        assert sum(u is not None for u in prev) == len(reached)
    assert _path_of(state, 670, 973) == list(result.path)


@pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
def test_a_state_holds_only_the_entries_of_its_query(hub_graph, monkeypatch, arrays):
    # a state is built from reused tables, which hold what earlier queries
    # wrote under higher offsets; it must equal the state of the same
    # query on fresh tables
    backend = hub_graph if arrays else _RequiredMethodsOnly(hub_graph)
    rng = np.random.default_rng(408)
    monkeypatch.setattr(search, "_SPARE_TABLES", [])
    monkeypatch.setattr(search, "_SPARE_ARRAYS", [])
    for config in REGIME_CONFIGS:
        for s, t in _pairs(rng, hub_graph, 3):
            reused = search._search(backend, s, t, config, return_state=True)
            pools = search._SPARE_TABLES[:], search._SPARE_ARRAYS[:]
            search._SPARE_TABLES.clear()
            search._SPARE_ARRAYS.clear()
            fresh = search._search(backend, s, t, config, return_state=True)
            search._SPARE_TABLES[:], search._SPARE_ARRAYS[:] = pools
            assert reused[0].same_traversal(fresh[0]) and reused[1] == fresh[1], (s, t, config)
    spare = search._SPARE_ARRAYS if arrays else search._SPARE_TABLES
    assert len(spare) == 1 and spare[0].base < 0


class _FailingGraph:
    """Delegates to ``graph`` but raises on the ``fail_at``-th ``successors`` call."""

    def __init__(self, graph, fail_at):
        self._graph = graph
        self.node_count = graph.node_count
        self._calls_left = fail_at

    def successors(self, u):
        self._calls_left -= 1
        if self._calls_left == 0:
            raise OSError("injected read failure")
        return self._graph.successors(u)

    def predecessors(self, u):
        return self._graph.predecessors(u)

    def method_meta(self, u):
        return self._graph.method_meta(u)


def test_query_after_a_failed_query_is_exact(hub_graph):
    # a query that raises midway leaves half-written tables behind; the
    # next query on the real graph must not see any of it
    rng = np.random.default_rng(406)
    configs = [c for c in REGIME_CONFIGS if c.algorithm is Algorithm.UNIDIRECTIONAL]
    configs += [c for c in REGIME_CONFIGS if c.frontier_policy is FrontierPolicy.SMALLER_FIRST]
    failures = 0
    for config in configs:
        for s, t in _pairs(rng, hub_graph, 8):
            for fail_at in (1, 2, 5):
                try:
                    run_search(_FailingGraph(hub_graph, fail_at), s, t, config)
                except OSError:
                    failures += 1
                assert run_search(hub_graph, s, t, config).same_traversal(
                    _fresh(hub_graph, s, t, config)
                )
    assert failures > 0


def test_concurrent_searches_on_one_graph_match_sequential(hub_graph):
    rng = np.random.default_rng(407)
    queries = [(s, t, config) for config in REGIME_CONFIGS for s, t in _pairs(rng, hub_graph, 5)]
    expected = [_fresh(hub_graph, s, t, config) for s, t, config in queries]
    results = {}

    def worker(k):
        order = [int(i) for i in np.random.default_rng(k).permutation(len(queries))]
        results[k] = {i: run_search(hub_graph, *queries[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert all(got[i].same_traversal(want) for i, want in enumerate(expected))


# ---------------------------------------------------------------------------
# a backend with only the required methods
# ---------------------------------------------------------------------------


class _RequiredMethodsOnly:
    """A backend with the required access methods and, when ``inner`` has
    them, the store's ``begin_query`` and stats. Without ``readers`` the
    kernel's probes read the kind off ``method_meta``; not being an
    InMemoryGraph, it has every round run node by node."""

    def __init__(self, inner):
        self.node_count = inner.node_count
        self.successors = inner.successors
        self.predecessors = inner.predecessors
        self.method_meta = inner.method_meta
        for name in ("begin_query", "access_stats", "reset_stats"):
            if hasattr(inner, name):
                setattr(self, name, getattr(inner, name))


def test_probes_without_readers_give_the_same_traversal_and_io(hub_graph, tmp_path):
    # a 64-node cold cache, so records are evicted and read again
    path = tmp_path / "hub.cgs"
    build_store(hub_graph, path)
    cache = CacheConfig(max_cached_nodes=64)
    pairs = _pairs(np.random.default_rng(505), hub_graph, 12)
    with open_store(path, cache) as bare, open_store(path, cache) as inner:
        wrapped = _RequiredMethodsOnly(inner)
        assert not hasattr(wrapped, "readers")
        probes = 0
        for config in REGIME_CONFIGS:
            for s, t in pairs:
                got = run_search(wrapped, s, t, config)
                assert got.same_traversal(run_search(bare, s, t, config))
                assert wrapped.access_stats() == bare.access_stats()
                probes += got.probe_count
        stats = bare.access_stats()
    assert probes > 0 and stats.meta_reads == probes
    assert stats.cache_misses > len(REGIME_CONFIGS) * len(pairs) * 64
