"""Property: a store handle counts every read as the reference LRU of
whole node records does (``oracles.LruRecordModel``), under any
capacity from one node to more than the graph, in both cache modes,
for direct reads, ``begin_query`` and searches, including searches
that raise midway. ``search._ARRAY_ROUND_MIN`` and
``search._ARRAY_MOVE_MIN`` are drawn down to the size of these graphs,
so untraced searches also run array rounds and replay their reads: on a
store that can evict from their start, on one whose cache holds every
node after moving from list to array tables. ``store._ARRAY_REPLAY_MIN``
and ``store._FAR_SHARE`` are drawn at their extremes, so a replay is
counted with numpy, far reads and all, or read by read; a second
property hands the store's replay read lists of its own."""

from unittest import mock

import numpy as np
import pytest

from callpath import search, store
from callpath.store import CacheConfig, CacheMode, build_store, open_store
from callpath.search import run_search

from oracles import LruRecordModel, random_graph
from test_read_path import _Interrupted, _Tripwire
from test_search import REGIME_CONFIGS
from test_store import kernel_kind_read

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GRAPHS = [random_graph(np.random.default_rng(seed), n, p) for seed, n, p in ((1, 5, 0.4), (2, 9, 0.3))]


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    folder = tmp_path_factory.mktemp("read-path-property")
    paths = []
    for i, graph in enumerate(GRAPHS):
        paths.append(folder / f"g{i}.cgs")
        build_store(graph, paths[-1])
    return paths


class _Recorder:
    """The access contract of ``graph``, logging each read as (section, node)."""

    def __init__(self, graph):
        self._graph = graph
        self.node_count = graph.node_count
        self.log = []

    def successors(self, u):
        self.log.append(("fwd", u))
        return self._graph.successors(u)

    def predecessors(self, u):
        self.log.append(("bwd", u))
        return self._graph.predecessors(u)

    def method_meta(self, u):
        self.log.append(("meta", u))
        return self._graph.method_meta(u)


def _search(graph, s, t, config, events):
    try:
        return run_search(graph, s, t, config, trace=_Tripwire(events) if events else None)
    except _Interrupted:
        return None


def _operations(n):
    node = st.integers(0, n - 1)
    read = st.tuples(st.sampled_from(["fwd", "bwd", "meta", "kind"]), node)
    # Half the searches untraced (0 events): a traced store search runs node by node.
    events = st.one_of(st.just(0), st.integers(1, 12))
    query = st.tuples(st.just("search"), node, node, st.integers(0, len(REGIME_CONFIGS) - 1), events)
    return st.lists(st.one_of(read, read, query, st.just(("begin",))), min_size=10, max_size=40)


# Built once: a strategy rebuilt inside every draw costs more than the checks.
OPERATIONS = [_operations(graph.node_count) for graph in GRAPHS]
# Array rounds, or the move to array tables, from every frontier, from
# frontiers of two nodes, or never.
THRESHOLDS = st.sampled_from([0, 2, 2**62])
# (store._ARRAY_REPLAY_MIN, store._FAR_SHARE): every replay counted with
# numpy, far reads and all; every replay with numpy unless it holds many far
# reads; or every replay read by read.
REPLAY_MODES = st.sampled_from([(0, 0), (0, store._FAR_SHARE), (2**62, store._FAR_SHARE)])


@st.composite
def _sessions(draw):
    g = draw(st.integers(0, len(GRAPHS) - 1))
    n = GRAPHS[g].node_count
    return (
        g,
        # as often a cache that holds every node as one that can evict
        draw(st.one_of(st.integers(1, n + 1), st.integers(n, n + 1))),
        draw(st.sampled_from(list(CacheMode))),
        draw(THRESHOLDS),
        draw(THRESHOLDS),
        draw(REPLAY_MODES),
        draw(OPERATIONS[g]),
    )


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(session=_sessions())
def test_handle_counts_reads_as_the_reference_lru(stores, session):
    g, capacity, mode, threshold, move_threshold, (replay_threshold, far_share), ops = session
    graph = GRAPHS[g]
    model = LruRecordModel(capacity, cold=mode is CacheMode.COLD_PER_QUERY)
    with (
        mock.patch.object(search, "_ARRAY_ROUND_MIN", threshold),
        mock.patch.object(search, "_ARRAY_MOVE_MIN", move_threshold),
        mock.patch.object(store, "_ARRAY_REPLAY_MIN", replay_threshold),
        mock.patch.object(store, "_FAR_SHARE", far_share),
        open_store(stores[g], CacheConfig(max_cached_nodes=capacity, mode=mode)) as handle,
    ):
        contract = {
            "fwd": (handle.successors, graph.successors),
            "bwd": (handle.predecessors, graph.predecessors),
            "meta": (handle.method_meta, graph.method_meta),
            # the kernel's kind reads
            "kind": (kernel_kind_read(handle), graph.readers()[2]),
        }
        for op in ops:
            if op[0] == "begin":
                handle.begin_query()
                model.begin_query()
            elif op[0] == "search":
                _, s, t, c, events = op
                recorder = _Recorder(graph)
                want = _search(recorder, s, t, REGIME_CONFIGS[c], events)
                model.begin_query()
                for section, u in recorder.log:
                    model.read(section, u)
                got = _search(handle, s, t, REGIME_CONFIGS[c], events)
                assert (got is None) == (want is None)
                assert got is None or got.same_traversal(want)
            else:
                section, u = op
                read, reference = contract[section]
                assert read(u) == reference(u)
                model.read("meta" if section == "kind" else section, u)
            assert handle.access_stats() == model.stats


# Replay lists over more nodes than the search graphs, so repeats come far
# apart and gaps run past the cache size.
REPLAY_GRAPH = random_graph(np.random.default_rng(3), 40, 0.05)


def _replay_operations(n):
    node = st.integers(0, n - 1)
    read = st.integers(-n, n - 1)  # ~u, a negative id, reads u's class kind
    scattered = st.lists(read, max_size=300)
    # A cycle over a few nodes, read again and again: each gap is the cycle.
    cycles = st.tuples(st.lists(read, min_size=1, max_size=n, unique=True), st.integers(1, 8)).map(
        lambda cycle: cycle[0] * cycle[1]
    )
    replay = st.tuples(st.just("replay"), st.booleans(), st.one_of(scattered, cycles))
    # A ring of capacity + delta nodes from ``first`` on, each read ``twice``
    # in a row, all as runs or all as kinds, repeated in one replay or in one
    # replay each: its gaps sit on the cache size, where only the count of
    # nodes read in between decides.
    ring = st.tuples(
        st.just("ring"),
        st.booleans(),
        st.integers(-1, 2),
        st.integers(1, 2),
        st.integers(1, 4),
        node,
        st.booleans(),
        st.booleans(),
    )
    single = st.tuples(st.sampled_from(["fwd", "bwd", "kind"]), node)
    return st.lists(st.one_of(replay, ring, ring, single, st.just(("begin",))), min_size=1, max_size=20)


REPLAY_OPERATIONS = _replay_operations(REPLAY_GRAPH.node_count)


@pytest.fixture(scope="module")
def replay_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay-property") / "g.cgs"
    build_store(REPLAY_GRAPH, path)
    return path


@st.composite
def _replay_sessions(draw):
    n = REPLAY_GRAPH.node_count
    return (
        # as often a cache that holds every node as one that can evict
        draw(st.one_of(st.integers(1, n + 1), st.integers(n, n + 1))),
        draw(st.sampled_from(list(CacheMode))),
        draw(REPLAY_MODES),
        # No slack trims the history at almost every read.
        draw(st.sampled_from([0, store._HISTORY_SLACK])),
        draw(REPLAY_OPERATIONS),
    )


def _rings(ops, capacity):
    """``ops`` with each ring as the replays it stands for."""
    n = REPLAY_GRAPH.node_count
    for op in ops:
        if op[0] != "ring":
            yield op
            continue
        _, forward, delta, twice, repeats, first, kinds, split = op
        ring = [(first + i) % n for i in range(max(1, min(n, capacity + delta))) for _ in range(twice)]
        ring = [~u if kinds else u for u in ring]
        for reads in [ring] * repeats if split else [ring * repeats]:
            yield ("replay", forward, reads)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(session=_replay_sessions())
def test_replay_counts_reads_as_the_reference_lru(replay_store, session):
    """Any read list handed to ``replay``, among single reads and query
    starts, is counted as the reference LRU counts the same reads one by
    one, by a store that can evict and by one that cannot."""
    capacity, mode, (replay_threshold, far_share), slack, ops = session
    model = LruRecordModel(capacity, cold=mode is CacheMode.COLD_PER_QUERY)
    with (
        mock.patch.object(store, "_ARRAY_REPLAY_MIN", replay_threshold),
        mock.patch.object(store, "_FAR_SHARE", far_share),
        mock.patch.object(store, "_HISTORY_SLACK", slack),
        open_store(replay_store, CacheConfig(max_cached_nodes=capacity, mode=mode)) as handle,
    ):
        single = {"fwd": handle.successors, "bwd": handle.predecessors, "kind": kernel_kind_read(handle)}
        for op in _rings(ops, capacity):
            if op[0] == "begin":
                handle.begin_query()
                model.begin_query()
            elif op[0] == "replay":
                _, forward, reads = op
                run = "fwd" if forward else "bwd"
                handle.replay(forward, np.array(reads, np.int64))
                kinds = sum(u < 0 for u in reads)
                handle.end_query(len(reads) - kinds, kinds)
                for u in reads:
                    model.read("meta" if u < 0 else run, ~u if u < 0 else u)
            else:
                section, u = op
                single[section](u)
                model.read("meta" if section == "kind" else section, u)
            assert handle.access_stats() == model.stats
