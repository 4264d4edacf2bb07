"""Property: a store handle counts every read as the reference LRU of
whole node records does (``oracles.LruRecordModel``), under any
capacity from one node to more than the graph, in both cache modes,
for direct reads, ``begin_query`` and searches, including searches
that raise midway."""

import numpy as np
import pytest

from callpath.store import CacheConfig, CacheMode, build_store, open_store
from callpath.search import run_search

from oracles import LruRecordModel, random_graph
from test_read_path import _Interrupted, _Tripwire
from test_search import REGIME_CONFIGS

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

    def class_kind(self, u):
        self.log.append(("meta", u))
        return self._graph.class_kind(u)


def _search(graph, s, t, config, events):
    try:
        return run_search(graph, s, t, config, trace=_Tripwire(events) if events else None)
    except _Interrupted:
        return None


def _operations(n):
    node = st.integers(0, n - 1)
    read = st.tuples(st.sampled_from(["fwd", "bwd", "meta", "kind"]), node)
    search = st.tuples(
        st.just("search"), node, node, st.integers(0, len(REGIME_CONFIGS) - 1), st.integers(0, 12)
    )
    return st.lists(st.one_of(read, read, search, st.just(("begin",))), min_size=10, max_size=40)


# Built once: a strategy rebuilt inside every draw costs more than the checks.
OPERATIONS = [_operations(graph.node_count) for graph in GRAPHS]


@st.composite
def _sessions(draw):
    g = draw(st.integers(0, len(GRAPHS) - 1))
    n = GRAPHS[g].node_count
    return g, draw(st.integers(1, n + 1)), draw(st.sampled_from(list(CacheMode))), draw(OPERATIONS[g])


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(session=_sessions())
def test_handle_counts_reads_as_the_reference_lru(stores, session):
    g, capacity, mode, ops = session
    graph = GRAPHS[g]
    model = LruRecordModel(capacity, cold=mode is CacheMode.COLD_PER_QUERY)
    with open_store(stores[g], CacheConfig(max_cached_nodes=capacity, mode=mode)) as handle:
        contract = {
            "fwd": (handle.successors, graph.successors),
            "bwd": (handle.predecessors, graph.predecessors),
            "meta": (handle.method_meta, graph.method_meta),
            "kind": (handle.class_kind, graph.class_kind),
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
