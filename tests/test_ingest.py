import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from callpath import ingest
from callpath.errors import CallpathError, JsonlFormatError, SyntheticSpecError
from callpath.ingest import (
    Regime,
    SyntheticSpec,
    classify_pair,
    export_jsonl,
    generate_synthetic,
    import_jsonl,
    reachable_count,
    reachable_set,
    regime_for_counts,
)
from callpath.model import ClassKind, Direction, InMemoryGraph, MethodMeta

from oracles import closure_matrix

FIG_JSONL = """\
{"record": "node", "id": "t", "method": "transmit", "class": "Tranceiver", "kind": "concrete"}
{"record": "node", "id": "e", "method": "encode", "class": "Transformer", "kind": "concrete"}
{"record": "node", "id": "h", "method": "makeHeader", "class": "Protocol", "kind": "concrete"}
{"record": "node", "id": "s", "method": "send", "class": "Tranceiver", "kind": "concrete"}
{"record": "edge", "caller": "t", "callee": "e"}
{"record": "edge", "caller": "t", "callee": "h"}
{"record": "edge", "caller": "t", "callee": "s"}
"""


# ---------------------------------------------------------------------------
# import_jsonl
# ---------------------------------------------------------------------------


def test_import_fig_fixture():
    graph = import_jsonl(FIG_JSONL.splitlines())
    assert graph.node_count == 4
    assert graph.edge_count == 3
    assert graph.successors(0) == (1, 2, 3)


def test_import_empty_stream():
    graph = import_jsonl([])
    assert graph.node_count == 0
    assert graph.edge_count == 0


def test_import_edge_before_node_declaration():
    lines = [
        '{"record": "node", "id": 1, "method": "a", "class": "A", "kind": "concrete"}',
        '{"record": "edge", "caller": 1, "callee": 2}',
    ]
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl(lines)
    assert excinfo.value.lineno == 2
    assert "callee" in str(excinfo.value)


def test_import_duplicate_id():
    lines = [
        '{"record": "node", "id": 1, "method": "a", "class": "A", "kind": "concrete"}',
        '{"record": "node", "id": 1, "method": "b", "class": "B", "kind": "concrete"}',
    ]
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl(lines)
    assert excinfo.value.lineno == 2


def test_import_malformed_json_names_line():
    lines = ['{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}', "{oops"]
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl(lines)
    assert excinfo.value.lineno == 2


_NODE0 = '{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}'


@pytest.mark.parametrize(
    "bad",
    [
        "{oops",
        '{"record": "node"} {}',
        '{"record": "node"}}',
        '{"record": "node",}',
        '{"record": "no',
        "\ufeff{}",
        "[1, 2",
        "nul",
        '{"a": "\x01"}',
    ],
)
def test_import_invalid_json_message_is_json_loads_message(bad):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(bad)
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl([_NODE0, bad])
    assert str(excinfo.value) == f"line 2: invalid JSON: {expected.value.msg}"


def test_import_deep_nesting_is_a_format_error():
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl([_NODE0, "[" * 200_000])
    assert str(excinfo.value) == "line 2: invalid JSON: nesting too deep"


def test_import_overlong_integer_is_a_format_error():
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl([_NODE0, '{"record": "edge", "caller": 0, "callee": ' + "9" * 5000 + "}"])
    assert excinfo.value.lineno == 2
    assert "invalid JSON: Exceeds the limit" in str(excinfo.value)


@pytest.mark.parametrize("field", ["method", "class", "file"])
def test_import_lone_surrogate_escape_is_a_format_error(field):
    # "\\ud800" decodes to a str that UTF-8 cannot encode, so the store
    # and the exporter could not write it; an escaped surrogate pair
    # still imports
    node = {"record": "node", "id": 1, "method": "m", "class": "C", "kind": "concrete"}
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl([_NODE0, json.dumps({**node, field: "x\ud800"})])
    assert str(excinfo.value) == f"line 2: {field!r} does not encode as UTF-8 (a lone surrogate)"
    graph = import_jsonl([_NODE0, json.dumps({**node, field: "x\u00e9\U0001d11e"})])
    attribute = {"method": "method_name", "class": "class_name", "file": "file"}[field]
    assert getattr(graph.method_meta(1), attribute) == "x\u00e9\U0001d11e"


def test_import_non_utf8_file_names_the_file(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_bytes(b"\xff\xfe" + FIG_JSONL.encode())
    with path.open(encoding="utf-8") as fh, pytest.raises(CallpathError) as excinfo:
        import_jsonl(fh)
    assert str(excinfo.value) == f"{path}: not UTF-8 text (invalid start byte)"


def _long_export():
    """An export of 24,000 lines: past line 20,000 and several chunks."""
    graph = generate_synthetic(SyntheticSpec(node_count=6000, out_degree=3, seed=4))
    lines = export_jsonl(graph).splitlines()
    assert len(lines) == 24_000
    return lines


def _read_line_by_line(fh):
    with mock.patch.object(ingest, "_read_fast", lambda lines, columns: 0):
        return import_jsonl(fh)


@pytest.mark.parametrize("read", [import_jsonl, _read_line_by_line], ids=["import", "line-by-line"])
def test_import_non_utf8_past_line_20000_names_the_file(tmp_path, read):
    lines = _long_export()
    path = tmp_path / "g.jsonl"
    head, tail = "\n".join(lines[:20_050]), "\n".join(lines[20_050:])
    path.write_bytes(head.encode() + b"\n\xff" + tail.encode() + b"\n")
    with path.open(encoding="utf-8") as fh, pytest.raises(CallpathError) as excinfo:
        read(fh)
    assert str(excinfo.value) == f"{path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("read", [import_jsonl, _read_line_by_line], ids=["import", "line-by-line"])
def test_import_fault_before_an_undecodable_byte_in_its_chunk_is_reported(tmp_path, read):
    # the chunk holding the bad byte is read up to it, so a fault on an
    # earlier line of that chunk is the error, as line by line
    lines = [line.encode() for line in _long_export()]
    lines[ingest._CHUNK_LINES + 5] = b"{oops"
    lines[2 * ingest._CHUNK_LINES - 100] = b"\xff" + lines[2 * ingest._CHUNK_LINES - 100]
    path = tmp_path / "g.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with path.open(encoding="utf-8") as fh, pytest.raises(JsonlFormatError) as excinfo:
        read(fh)
    assert excinfo.value.lineno == ingest._CHUNK_LINES + 6


def test_import_fault_before_a_stream_error_is_reported():
    def stream():
        yield _NODE0
        yield "{oops"
        raise OSError("device gone")

    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl(stream())
    assert excinfo.value.lineno == 2


@pytest.mark.parametrize("read", [import_jsonl, _read_line_by_line], ids=["import", "line-by-line"])
def test_import_fault_in_second_chunk_reports_its_line(tmp_path, read):
    lines = _long_export()
    lineno = ingest._CHUNK_LINES + 7  # 1-based, in the second chunk
    lines[lineno - 1] = lines[lineno - 1][:-1]
    path = tmp_path / "g.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with path.open(encoding="utf-8") as fh, pytest.raises(JsonlFormatError) as excinfo:
        read(fh)
    assert excinfo.value.lineno == lineno
    assert str(excinfo.value) == f"{path}: line {lineno}: invalid JSON: Expecting ',' delimiter"


def test_import_peak_memory_is_at_most_the_per_line_readers():
    # the fast reader holds a chunk's text and matches at once; with
    # chunks this small that stays below what reading line by line
    # builds (the id map), on the same lines
    graph = generate_synthetic(
        SyntheticSpec(node_count=5000, out_degree=3, hub_count=20, hub_indegree=40, seed=5, acyclic=True)
    )
    lines = export_jsonl(graph).splitlines()

    def peak(read):
        tracemalloc.start()
        try:
            read(lines)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(import_jsonl) <= peak(_read_line_by_line)


def test_import_unknown_kind_rejected():
    lines = ['{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "weird"}']
    with pytest.raises(JsonlFormatError):
        import_jsonl(lines)


@pytest.mark.parametrize(
    "record",
    [
        '{"record": "edge", "caller": [0], "callee": 0}',
        '{"record": "edge", "caller": 0, "callee": {}}',
        '{"record": "node", "id": 1, "method": "b", "class": "B", "kind": "concrete", "line": true}',
    ],
    ids=["list-caller", "object-callee", "bool-line"],
)
def test_import_rejects_non_scalar_edge_ids_and_bool_lines(record):
    lines = ['{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}', record]
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl(lines)
    assert excinfo.value.lineno == 2


_NODE_B = '"method": "b", "class": "B", "kind": "concrete"'


@pytest.mark.parametrize(
    "record, message",
    [
        ("[0, 1]", "record must be a JSON object"),
        ('{"record": "vertex", "id": 1}', "unknown record type 'vertex'"),
        ('{"record": "node", %s}' % _NODE_B, "node record missing 'id'"),
        ('{"record": "node", "id": [1], %s}' % _NODE_B, "node id must be a JSON scalar"),
        ('{"record": "node", "id": 1, "method": "b", "class": "", "kind": "concrete"}', "node record needs a non-empty 'class'"),
        ('{"record": "node", "id": 1, %s, "file": 3}' % _NODE_B, "'file' must be a string"),
        ('{"record": "edge", "caller": 0}', "edge record missing 'callee'"),
    ],
    ids=["not-an-object", "unknown-record", "no-id", "list-id", "empty-class", "file-not-a-string", "no-callee"],
)
def test_import_per_line_error_is_one_line_naming_its_line(record, message):
    lines = ['{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}', record]
    with pytest.raises(JsonlFormatError) as excinfo:
        import_jsonl(lines)
    assert excinfo.value.lineno == 2
    assert str(excinfo.value) == f"line 2: {message}"


def test_import_edge_ids_match_by_json_type():
    # true == 1 == 1.0 in Python, but they are three different JSON ids
    lines = [
        '{"record": "node", "id": 1, "method": "a", "class": "A", "kind": "concrete"}',
        '{"record": "node", "id": 2, "method": "b", "class": "B", "kind": "concrete"}',
        '{"record": "edge", "caller": true, "callee": 2.0}',
    ]
    with pytest.raises(JsonlFormatError, match="undeclared caller id True") as excinfo:
        import_jsonl(lines)
    assert excinfo.value.lineno == 3


def test_import_int_and_bool_ids_are_distinct_nodes():
    lines = [
        '{"record": "node", "id": 1, "method": "a", "class": "A", "kind": "concrete"}',
        '{"record": "node", "id": true, "method": "b", "class": "B", "kind": "concrete"}',
        '{"record": "edge", "caller": true, "callee": 1}',
    ]
    graph = import_jsonl(lines)
    assert graph.node_count == 2
    assert graph.successors(1) == (0,)


def test_import_missing_kind_defaults_concrete_with_warning():
    lines = ['{"record": "node", "id": 0, "method": "a", "class": "A"}']
    with pytest.warns(UserWarning, match="defaulting to concrete"):
        graph = import_jsonl(lines)
    assert graph.method_meta(0).class_kind is ClassKind.CONCRETE


def test_import_duplicate_edges_deduplicated():
    lines = [
        '{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}',
        '{"record": "node", "id": 1, "method": "b", "class": "B", "kind": "concrete"}',
        '{"record": "edge", "caller": 0, "callee": 1}',
        '{"record": "edge", "caller": 0, "callee": 1}',
    ]
    assert import_jsonl(lines).edge_count == 1


def test_round_trip_meta_preserved():
    lines = [
        '{"record": "node", "id": "x", "method": "run", "class": "Job", "kind": "abstract", "file": "Job.java", "line": 17}',
        '{"record": "node", "id": "y", "method": "poll", "class": "Queue", "kind": "interface"}',
        '{"record": "node", "id": "z", "method": "main", "class": "App", "kind": "concrete"}',
        '{"record": "edge", "caller": "z", "callee": "x"}',
    ]
    graph = import_jsonl(lines)
    meta = graph.method_meta(0)
    assert (meta.method_name, meta.class_name, meta.file, meta.line) == (
        "run",
        "Job",
        "Job.java",
        17,
    )
    assert meta.class_kind is ClassKind.ABSTRACT
    assert graph.method_meta(1).class_kind is ClassKind.INTERFACE


def test_export_import_identity():
    graph = generate_synthetic(SyntheticSpec(node_count=40, out_degree=2, seed=3))
    text = export_jsonl(graph)
    again = import_jsonl(text.splitlines())
    assert export_jsonl(again) == text
    for u in range(graph.node_count):
        assert again.successors(u) == graph.successors(u)
        assert again.method_meta(u) == graph.method_meta(u)


def test_export_emits_nodes_then_sorted_edges():
    graph = import_jsonl(FIG_JSONL.splitlines())
    lines = export_jsonl(graph).splitlines()
    records = [json.loads(line) for line in lines]
    kinds = [r["record"] for r in records]
    assert kinds == ["node"] * 4 + ["edge"] * 3
    edge_pairs = [(r["caller"], r["callee"]) for r in records if r["record"] == "edge"]
    assert edge_pairs == sorted(edge_pairs)


# ---------------------------------------------------------------------------
# generate_synthetic
# ---------------------------------------------------------------------------


def test_single_isolated_node():
    graph = generate_synthetic(SyntheticSpec(node_count=1, edge_probability=0.0))
    assert graph.node_count == 1
    assert graph.edge_count == 0


def test_spec_validation():
    with pytest.raises(SyntheticSpecError):
        SyntheticSpec(node_count=0, edge_probability=0.5)
    with pytest.raises(SyntheticSpecError):
        SyntheticSpec(node_count=5)  # neither density field
    with pytest.raises(SyntheticSpecError):
        SyntheticSpec(node_count=5, edge_probability=0.5, out_degree=2)
    with pytest.raises(SyntheticSpecError):
        SyntheticSpec(node_count=5, edge_probability=1.5)
    with pytest.raises(SyntheticSpecError):
        SyntheticSpec(node_count=5, out_degree=1, hub_count=2, hub_indegree=5)
    with pytest.raises(SyntheticSpecError, match="seed"):
        SyntheticSpec(node_count=5, out_degree=2, seed=-1)  # numpy's seeds are non-negative
    with pytest.raises(SyntheticSpecError, match="format limit"):
        SyntheticSpec(node_count=2**32, out_degree=3)  # a CGS1 store holds fewer
    SyntheticSpec(node_count=2**32 - 1, out_degree=3)


@pytest.mark.parametrize(
    "field, value",
    [
        ("node_count", 10.5),
        ("node_count", "10"),
        ("out_degree", True),
        ("out_degree", 2.0),
        ("hub_count", 1.0),
        ("hub_indegree", None),
        ("hub_kind", "interface"),
        ("seed", 1.5),
        ("seed", False),
        ("acyclic", 1),
        ("edge_probability", "0.5"),
        ("edge_probability", True),
    ],
)
def test_spec_rejects_a_wrongly_typed_field(field, value):
    # 10.5 nodes and a seed of 1.5 failed in numpy, "interface" with an
    # AttributeError, and True was taken as an out-degree of 1
    fields = {"node_count": 10, "out_degree": 2}
    if field == "edge_probability":
        del fields["out_degree"]
    with pytest.raises(SyntheticSpecError, match=field):
        SyntheticSpec(**{**fields, field: value})
    spec = SyntheticSpec(node_count=np.int64(10), out_degree=np.int32(2), seed=np.uint64(3), hub_count=np.int8(1))
    assert generate_synthetic(spec).edge_count == 10 * 2 + 1


def test_hub_census():
    spec = SyntheticSpec(
        node_count=1000, out_degree=3, hub_count=10, hub_indegree=50, seed=7
    )
    graph = generate_synthetic(spec)
    hubs = [
        u
        for u in range(graph.node_count)
        if graph.method_meta(u).class_kind is ClassKind.INTERFACE
    ]
    assert len(hubs) == 10
    # recount degrees from the forward edge ids, not the backward index
    _, callees = graph.csr(Direction.FORWARD)
    indegree = np.bincount(callees, minlength=graph.node_count)
    for h in hubs:
        assert indegree[h] >= 50


def test_generator_determinism_byte_identical():
    spec = SyntheticSpec(node_count=200, out_degree=3, hub_count=4, hub_indegree=20, seed=99)
    first = export_jsonl(generate_synthetic(spec))
    second = export_jsonl(generate_synthetic(spec))
    assert first == second


def test_generator_seed_changes_output():
    a = export_jsonl(generate_synthetic(SyntheticSpec(node_count=50, out_degree=2, seed=1)))
    b = export_jsonl(generate_synthetic(SyntheticSpec(node_count=50, out_degree=2, seed=2)))
    assert a != b


def test_acyclic_edges_ascend():
    graph = generate_synthetic(
        SyntheticSpec(node_count=120, out_degree=3, hub_count=3, hub_indegree=10, seed=5, acyclic=True)
    )
    offsets, callees = graph.csr(Direction.FORWARD)
    callers = np.repeat(np.arange(graph.node_count), np.diff(offsets))
    assert (callers < callees).all()


def test_probability_model_density():
    graph = generate_synthetic(SyntheticSpec(node_count=100, edge_probability=0.05, seed=11))
    expected = 0.05 * 100 * 99
    assert 0.5 * expected < graph.edge_count < 1.5 * expected


# ---------------------------------------------------------------------------
# reachable_count / classify_pair
# ---------------------------------------------------------------------------


def test_reachable_count_fig(fig_graph):
    assert reachable_count(fig_graph, 0, Direction.FORWARD) == 3
    assert reachable_count(fig_graph, 3, Direction.FORWARD) == 0
    assert reachable_count(fig_graph, 3, Direction.BACKWARD) == 1


@pytest.mark.parametrize("direction", ["forward", "backward", None, 1])
def test_reachable_refuses_a_direction_that_is_not_a_direction(fig_graph, direction):
    # "forward" was taken silently: it walked predecessors and found set()
    for reach in (reachable_set, reachable_count):
        with pytest.raises(ValueError, match="direction must be a Direction"):
            reach(fig_graph, 0, direction)


def test_reachable_count_matches_matrix_oracle():
    graph = generate_synthetic(SyntheticSpec(node_count=150, edge_probability=0.02, seed=21))
    closure = closure_matrix(graph)
    for u in range(0, graph.node_count, 7):
        fwd = reachable_count(graph, u, Direction.FORWARD)
        bwd = reachable_count(graph, u, Direction.BACKWARD)
        assert fwd == int(closure[u].sum()) - int(closure[u, u])
        assert bwd == int(closure[:, u].sum()) - int(closure[u, u])


def test_reachable_excludes_start_on_cycle():
    metas = [MethodMeta(i, f"m{i}", f"C{i}", ClassKind.CONCRETE) for i in range(2)]
    graph = InMemoryGraph(metas, [(0, 1), (1, 0)])
    assert reachable_count(graph, 0, Direction.FORWARD) == 1


def test_regime_rule_on_counts():
    assert regime_for_counts(10_000, 100, 100_000) is Regime.P1
    assert regime_for_counts(0, 0, 100) is Regime.P2
    assert regime_for_counts(100, 10_000, 100_000) is Regime.P3
    assert regime_for_counts(8_000, 9_000, 100_000) is Regime.P4


def test_classify_pair_regimes(hub_graph):
    # mined pairs, counts re-verified against fresh BFS closures
    p1 = classify_pair(hub_graph, 886, 867)
    assert p1.regime is Regime.P1
    assert p1.forward_count >= 5 * max(p1.backward_count, 1)
    p4 = classify_pair(hub_graph, 983, 348)
    assert p4.regime is Regime.P4
    threshold = 0.05 * hub_graph.node_count
    assert p4.forward_count > threshold and p4.backward_count > threshold


def test_classify_pair_both_zero_is_p2():
    metas = [MethodMeta(i, f"m{i}", f"C{i}", ClassKind.CONCRETE) for i in range(3)]
    graph = InMemoryGraph(metas, [])
    assert classify_pair(graph, 0, 1).regime is Regime.P2


def test_classify_pair_small_graph_p2(fig_graph):
    profile = classify_pair(fig_graph, 1, 3)  # encode -> send: closures 0 and 1
    assert profile.forward_count == 0
    assert profile.backward_count == 1
    assert profile.regime is Regime.P2
