import json

import numpy as np
import pytest

from callpath.errors import AmbiguousNameError, InvalidNodeError, NameNotFoundError
from callpath.ingest import reachable_set
from callpath.model import (
    ClassKind,
    Direction,
    Edge,
    InMemoryGraph,
    MethodMeta,
    NodeColumns,
    materialize,
    resolve_name,
)
from callpath.search import Algorithm, SearchConfig, run_search
from callpath.store import build_store, open_store

from oracles import random_graph


def test_successors_on_fig_graph(fig_graph):
    assert fig_graph.successors(0) == (1, 2, 3)
    assert fig_graph.successors(3) == ()  # send() calls nothing


def test_predecessors_on_fig_graph(fig_graph):
    assert fig_graph.predecessors(3) == (0,)
    assert fig_graph.predecessors(0) == ()  # nothing calls transmit


def test_successors_match_adjacency_matrix_oracle():
    rng = np.random.default_rng(42)
    n = 50
    kind_idx = rng.integers(0, 3, size=n)
    kinds = (ClassKind.CONCRETE, ClassKind.INTERFACE, ClassKind.ABSTRACT)
    metas = [MethodMeta(u, f"m{u}", f"C{u}", kinds[kind_idx[u]]) for u in range(n)]
    draws = rng.random((n, n))
    emitted = [(u, v) for u in range(n) for v in range(n) if draws[u, v] < 0.1]
    graph = InMemoryGraph(metas, emitted)
    # oracle built directly from the emitted edge stream
    matrix = np.zeros((n, n), dtype=bool)
    for u, v in emitted:
        matrix[u, v] = True
    for u in range(n):
        assert graph.successors(u) == tuple(int(v) for v in np.flatnonzero(matrix[u]))
        assert graph.predecessors(u) == tuple(int(v) for v in np.flatnonzero(matrix[:, u]))


def test_predecessors_are_inverse_of_successors():
    rng = np.random.default_rng(7)
    graph = random_graph(rng, 60, 0.08)
    for v in range(graph.node_count):
        expected = sorted(u for u in range(graph.node_count) if v in graph.successors(u))
        assert list(graph.predecessors(v)) == expected


def test_adjacency_symmetry_and_degree_conservation():
    rng = np.random.default_rng(123)
    for _ in range(5):
        graph = random_graph(rng, 40, rng.random() * 0.2)
        fwd_total = sum(len(graph.successors(u)) for u in range(graph.node_count))
        bwd_total = sum(len(graph.predecessors(u)) for u in range(graph.node_count))
        assert fwd_total == bwd_total == graph.edge_count
        for u in range(graph.node_count):
            for v in graph.successors(u):
                assert u in graph.predecessors(v)


def test_adjacency_symmetry_exhaustive_1000_nodes(hub_graph):
    for u in range(hub_graph.node_count):
        for v in hub_graph.successors(u):
            assert u in hub_graph.predecessors(v)
        for v in hub_graph.predecessors(u):
            assert u in hub_graph.successors(v)
    fwd_total = sum(len(hub_graph.successors(u)) for u in range(hub_graph.node_count))
    assert fwd_total == hub_graph.edge_count


def test_repr_names_the_backend_and_its_size(fig_graph, tmp_path):
    n, m = fig_graph.node_count, fig_graph.edge_count
    assert repr(fig_graph) == f"InMemoryGraph(nodes={n}, edges={m})"
    path = tmp_path / "fig.cgs"
    build_store(fig_graph, path)
    with open_store(path) as handle:
        assert repr(handle) == f"DiskGraph({str(path)!r}, nodes={n}, edges={m})"


def test_duplicate_edges_collapse():
    metas = [
        MethodMeta(0, "a", "X", ClassKind.CONCRETE),
        MethodMeta(1, "b", "X", ClassKind.CONCRETE),
    ]
    graph = InMemoryGraph(metas, [(0, 1), (0, 1), (0, 1)])
    assert graph.edge_count == 1
    assert graph.successors(0) == (1,)


def test_self_loops_are_stored():
    metas = [MethodMeta(0, "rec", "X", ClassKind.CONCRETE)]
    graph = InMemoryGraph(metas, [(0, 0)])
    assert graph.successors(0) == (0,)
    assert graph.predecessors(0) == (0,)


def test_rows_and_kind_codes_serve_what_the_contract_serves(hub_graph):
    # array rounds read the kind codes and node-by-node rounds the kind
    # read of readers(), and the store writes the columns instead of
    # each method_meta; they must hold the same values
    kinds = tuple(ClassKind)
    kind_read = hub_graph.readers()[2]
    codes = hub_graph.kind_codes()
    assert codes.dtype == np.int8 and not codes.flags.writeable
    assert hub_graph.kind_codes() is codes
    columns = hub_graph.columns()
    assert columns.class_kinds is codes
    for u in range(hub_graph.node_count):
        meta = hub_graph.method_meta(u)
        assert kinds[codes[u]] is kind_read(u) is meta.class_kind
        assert (meta.method_name, meta.class_name, meta.file, meta.line) == (
            columns.method_names[u], columns.class_names[u], columns.files[u], columns.lines[u]
        )


def _same_graph(a: InMemoryGraph, b: InMemoryGraph) -> None:
    assert a.edge_count == b.edge_count
    for direction in Direction:
        for x, y in zip(a.csr(direction), b.csr(direction)):
            assert x.dtype == y.dtype == np.int64
            np.testing.assert_array_equal(x, y)
    for u in range(a.node_count):
        assert a.successors(u) == b.successors(u)
        assert a.predecessors(u) == b.predecessors(u)


def _metas(n: int) -> list[MethodMeta]:
    return [MethodMeta(u, f"m{u}", f"C{u}", ClassKind.CONCRETE) for u in range(n)]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "n, edges",
    [
        (0, []),
        (3, []),
        (1, [(0, 0), (0, 0)]),
        (4, [(3, 0), (0, 1), (2, 2), (0, 1), (3, 0), (1, 3), (0, 3), (1, 0)]),
    ],
    ids=["no-nodes", "no-edges", "self-loop-twice", "duplicates-unsorted"],
)
def test_edge_array_builds_the_graph_of_the_pair_list(n, edges, dtype):
    from_pairs = InMemoryGraph(_metas(n), edges)
    from_array = InMemoryGraph(_metas(n), np.array(edges, dtype=dtype).reshape(-1, 2))
    _same_graph(from_array, from_pairs)


def test_edge_array_matches_pair_list_on_random_graph():
    rng = np.random.default_rng(3)
    n = 300
    edges = rng.integers(0, n, size=(2_000, 2))  # duplicates and self-loops included
    _same_graph(
        InMemoryGraph(_metas(n), edges),
        InMemoryGraph(_metas(n), [tuple(e) for e in edges.tolist()]),
    )


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("bad", [-1, 4, 2**31 - 1])
def test_edge_array_out_of_range_id_raises_with_that_id(bad, dtype):
    edges = np.array([(0, 1), (2, bad), (bad, 3)], dtype=dtype)
    for given in (edges, edges.tolist()):
        with pytest.raises(InvalidNodeError) as excinfo:
            InMemoryGraph(_metas(4), given)
        assert excinfo.value.node == bad


@pytest.mark.parametrize(
    "edges", [np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64), np.zeros((2, 2))]
)
def test_edge_array_must_be_m_by_2_integers(edges):
    with pytest.raises(ValueError, match="edge array"):
        InMemoryGraph(_metas(4), edges)


def test_invalid_node_errors(fig_graph):
    for bad in (-1, 4, 10_000):
        with pytest.raises(InvalidNodeError):
            fig_graph.successors(bad)
        with pytest.raises(InvalidNodeError):
            fig_graph.predecessors(bad)
        with pytest.raises(InvalidNodeError):
            fig_graph.method_meta(bad)


def test_method_meta_fields(fig_graph):
    meta = fig_graph.method_meta(0)
    assert meta.class_name == "Tranceiver"
    assert meta.method_name == "transmit"
    assert meta.class_kind is ClassKind.CONCRETE
    assert meta.qualified_name == "Tranceiver.transmit"


def test_meta_validation_rejects_empty_names():
    with pytest.raises(ValueError):
        MethodMeta(0, "", "X", ClassKind.CONCRETE)
    with pytest.raises(ValueError):
        MethodMeta(0, "m", "", ClassKind.CONCRETE)
    with pytest.raises(ValueError):
        MethodMeta(0, "m", "X", ClassKind.CONCRETE, line=-1)


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("files", ("f",), r"node columns differ in length: \[2, 2, 2, 1, 2\]"),
        ("method_names", ("a", ""), "method_name must be non-empty"),
        ("class_names", ("", "B"), "class_name must be non-empty"),
        ("lines", (0, -1), "line must be non-negative"),
        ("class_kinds", np.array([2, 3], np.int8), r"class kind codes must lie in \[0, 3\)"),
        ("class_kinds", np.array([2, -1], np.int8), r"class kind codes must lie in \[0, 3\)"),
        ("class_kinds", np.array([2.0, 2.0]), r"class kind codes must lie in \[0, 3\)"),
    ],
)
def test_from_columns_checks_the_columns_as_method_meta_checks_a_record(column, value, message):
    columns = NodeColumns(("a", "b"), ("A", "B"), np.array([2, 0], np.int8), ("", ""), (0, 7))
    graph = InMemoryGraph.from_columns(columns, [(0, 1)])
    assert graph.method_meta(1) == MethodMeta(1, "b", "B", ClassKind.INTERFACE, "", 7)
    with pytest.raises(ValueError, match=message):
        InMemoryGraph.from_columns(columns._replace(**{column: value}), [(0, 1)])


def test_resolve_name(fig_graph):
    assert resolve_name(fig_graph, "Tranceiver.transmit") == 0
    assert resolve_name(fig_graph, "Tranceiver.send") == 3
    with pytest.raises(NameNotFoundError):
        resolve_name(fig_graph, "NoSuch.method")


def test_resolve_name_ambiguous():
    metas = [
        MethodMeta(0, "f", "A", ClassKind.CONCRETE),
        MethodMeta(1, "f", "A", ClassKind.CONCRETE),
    ]
    graph = InMemoryGraph(metas, [])
    with pytest.raises(AmbiguousNameError) as excinfo:
        resolve_name(graph, "A.f")
    assert excinfo.value.candidates == [0, 1]
    assert "0" in str(excinfo.value) and "1" in str(excinfo.value)


def test_resolve_name_without_index_scans_metadata(fig_graph):
    class Plain:
        node_count = fig_graph.node_count
        method_meta = staticmethod(fig_graph.method_meta)

    assert resolve_name(Plain(), "Protocol.makeHeader") == 2


def test_materialize_round_trip(fig_graph):
    copy = materialize(fig_graph)
    assert copy.node_count == fig_graph.node_count
    assert copy.edge_count == fig_graph.edge_count
    for u in range(copy.node_count):
        assert copy.successors(u) == fig_graph.successors(u)
        assert copy.method_meta(u) == fig_graph.method_meta(u)


def test_node_ids_must_be_dense():
    with pytest.raises(ValueError):
        InMemoryGraph([MethodMeta(5, "m", "C", ClassKind.CONCRETE)], [])


@pytest.mark.parametrize(
    "node, valid",
    [
        (np.int64(0), True),
        (np.uint32(0), True),
        (True, False),
        (np.bool_(False), False),
        (0.0, False),
        ("0", False),
        (None, False),
    ],
    ids=repr,
)
def test_node_id_check_shared_by_backends_search_and_closure(tmp_path, fig_graph, node, valid):
    path = tmp_path / "fig.cgs"
    build_store(fig_graph, path)
    with open_store(path) as disk:
        for graph in (fig_graph, disk):
            calls = [
                lambda: graph.successors(node),
                lambda: graph.predecessors(node),
                lambda: graph.method_meta(node),
                lambda: reachable_set(graph, node, Direction.FORWARD),
            ] + [
                lambda config=config: run_search(graph, node, np.int64(3), config)
                for config in (
                    SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL),
                    SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),
                    SearchConfig(),
                )
            ]
            if not valid:
                for call in calls:
                    with pytest.raises(InvalidNodeError):
                        call()
                continue
            assert graph.successors(node) == (1, 2, 3)
            assert reachable_set(graph, node, Direction.FORWARD) == {1, 2, 3}
            assert graph.method_meta(node).class_kind is ClassKind.CONCRETE
            for call in calls[4:]:
                result = call()
                assert result.path == (Edge(0, 3),)
                assert all(type(v) is int for edge in result.path for v in edge)
                assert result.meeting_point is None or type(result.meeting_point) is int
                json.dumps([result.path, result.meeting_point])
