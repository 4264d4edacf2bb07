import csv
import io
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from callpath.bench import (
    CSV_COLUMNS,
    TIMING_COLUMNS,
    PairSpec,
    ReportRow,
    Scenario,
    ScenarioReport,
    StorageCondition,
    access_columns,
    emit_report,
    find_regime_pairs,
    load_scenario,
    run_scenario,
)
from callpath.errors import ScenarioError
from callpath.fixtures import hub_fixture_spec
from callpath.ingest import Regime, SyntheticSpec, classify_pair, generate_synthetic
from callpath.model import ClassKind, InMemoryGraph, MethodMeta
from callpath.search import Algorithm, FrontierPolicy, SearchConfig, run_search
from callpath.store import _MAX_LATENCY, AccessStats, CacheConfig, CacheMode, build_store, open_store

from oracles import closure_matrix

DATA = Path(__file__).parent.parent / "data"

FIG_PAIR_SCENARIO = Scenario(
    graph_jsonl=DATA / "transceiver.jsonl",
    pairs=(PairSpec("Tranceiver.transmit", "Tranceiver.send"),),
    algorithms=(
        SearchConfig(delay_steps=3),
        SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),
    ),
    repetitions=3,
)


def test_fig_pair_scenario_rows():
    report = run_scenario(FIG_PAIR_SCENARIO)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.status == "found"
        assert row.path_length == 1
        assert row.repetitions == 3
        assert row.timing_valid
    assert report.environment["node_count"] == 4


def test_unreachable_pair_reports_no_path():
    scenario = Scenario(
        graph_jsonl=DATA / "transceiver.jsonl",
        pairs=(PairSpec("Tranceiver.send", "Tranceiver.transmit"),),
        algorithms=(SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),),
        repetitions=2,
    )
    report = run_scenario(scenario)
    assert report.rows[0].status == "no-path"
    assert report.rows[0].path_length == 0


def test_hub_p4_postpone_beats_balanced():
    scenario = Scenario(
        synthetic=hub_fixture_spec(),
        pairs=(PairSpec(983, 348, Regime.P4),),
        algorithms=(
            SearchConfig(delay_steps=3),
            SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),
        ),
        repetitions=1,
    )
    report = run_scenario(scenario)
    postponed, balanced = report.rows
    assert postponed.algorithm == "postpone-3"
    assert postponed.visited_total < balanced.visited_total


def test_expected_regime_mismatch_is_hard_error():
    scenario = Scenario(
        graph_jsonl=DATA / "transceiver.jsonl",
        pairs=(PairSpec("Tranceiver.transmit", "Tranceiver.send", Regime.P4),),
        algorithms=(SearchConfig(),),
    )
    with pytest.raises(ScenarioError, match="regime"):
        run_scenario(scenario)


@pytest.mark.parametrize("initial", [True, 4, -1, 1.0], ids=repr)
def test_pair_node_id_outside_graph_is_scenario_error(initial):
    scenario = Scenario(
        graph_jsonl=DATA / "transceiver.jsonl",
        pairs=(PairSpec(initial, 3),),
        algorithms=(SearchConfig(),),
    )
    with pytest.raises(ScenarioError, match="pair node id"):
        run_scenario(scenario)


def test_nondeterministic_counters_are_a_scenario_error(monkeypatch):
    # a kernel whose repetitions disagree on a counter is refused in one line
    calls = []

    def drifting(*args, **kwargs):
        calls.append(args)
        return replace(run_search(*args, **kwargs), steps=len(calls))

    monkeypatch.setattr("callpath.bench.run_search", drifting)
    with pytest.raises(ScenarioError, match="nondeterministic counters") as caught:
        run_scenario(FIG_PAIR_SCENARIO)
    assert "\n" not in str(caught.value)
    assert len(calls) == FIG_PAIR_SCENARIO.repetitions


def test_unresolved_pair_name_is_error():
    scenario = Scenario(
        graph_jsonl=DATA / "transceiver.jsonl",
        pairs=(PairSpec("No.where", "Tranceiver.send"),),
        algorithms=(SearchConfig(),),
    )
    with pytest.raises(Exception):
        run_scenario(scenario)


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario(pairs=(PairSpec(0, 1),), algorithms=(SearchConfig(),))  # no source
    with pytest.raises(ScenarioError):
        Scenario(
            graph_jsonl=DATA / "transceiver.jsonl",
            synthetic=hub_fixture_spec(),
            pairs=(PairSpec(0, 1),),
            algorithms=(SearchConfig(),),
        )
    with pytest.raises(ScenarioError):
        Scenario(
            graph_jsonl=DATA / "transceiver.jsonl",
            pairs=(PairSpec(0, 1),),
            algorithms=(SearchConfig(),),
            repetitions=0,
        )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_empty_report_is_header_only_csv():
    text = emit_report(ScenarioReport(environment={}, rows=()), "csv")
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0] == ",".join(CSV_COLUMNS)


def test_csv_header_is_frozen():
    # The column order is append-only: this is the header as first shipped.
    text = emit_report(ScenarioReport(environment={}, rows=()), "csv")
    assert text == (
        "initial,final,initial_name,final_name,forward_reach,backward_reach,regime,"
        "algorithm,frontier_policy,status,path_length,visited_forward,visited_backward,"
        "visited_total,postponements,probe_count,steps,repetitions,mean_elapsed_s,"
        "stddev_elapsed_s,timing_valid,meta_reads,adjacency_reads,cache_hits,"
        "cache_misses,injected_latency_s\n"
    )


def test_csv_row_count_is_pairs_times_algorithms():
    scenario = Scenario(
        graph_jsonl=DATA / "transceiver.jsonl",
        pairs=(
            PairSpec("Tranceiver.transmit", "Tranceiver.send"),
            PairSpec("Tranceiver.transmit", "Transformer.encode"),
            PairSpec("Transformer.encode", "Protocol.makeHeader"),
        ),
        algorithms=(SearchConfig(), SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL)),
        repetitions=1,
    )
    report = run_scenario(scenario)
    reader = csv.DictReader(io.StringIO(emit_report(report, "csv")))
    rows = list(reader)
    assert len(rows) == 3 * 2
    assert tuple(reader.fieldnames) == CSV_COLUMNS


def test_json_report_round_trip():
    # the document holds the whole report: its schema tag, the environment
    # and one object per row, keyed by the CSV columns
    report = run_scenario(FIG_PAIR_SCENARIO)
    doc = json.loads(emit_report(report, "json"))
    assert doc["schema"] == "callpath-report@1"
    assert all(tuple(row) == CSV_COLUMNS for row in doc["rows"])
    assert ScenarioReport(doc["environment"], tuple(ReportRow(**row) for row in doc["rows"])) == report


def test_markdown_report_tables():
    report = run_scenario(FIG_PAIR_SCENARIO)
    text = emit_report(report, "markdown")
    for heading in (
        "## Mean elapsed (s)",
        "## Visited nodes (total)",
        "## Visited forward",
        "## Visited backward",
        "## Mean elapsed relative to postpone-3[paper]",
        "## Visited total relative to postpone-3[paper]",
    ):
        assert heading in text
    assert "1.00x" in text  # the baseline column is unity
    assert "postpone-3[paper]" in text


_ROW = ReportRow(
    initial=0, final=3, initial_name="A.a", final_name="B.b",
    forward_reach=3, backward_reach=2, regime="P2-like",
    algorithm="postpone-3", frontier_policy="paper", status="found", path_length=2,
    visited_forward=1, visited_backward=3, visited_total=4, postponements=1,
    probe_count=3, steps=4, repetitions=2, mean_elapsed_s=0.000125, stddev_elapsed_s=0.0,
    timing_valid=True, meta_reads=0, adjacency_reads=0, cache_hits=0, cache_misses=0,
    injected_latency_s=0.0,
)
_BALANCED = dict(algorithm="balanced", postponements=0, probe_count=0)

#: Markdown of the report below, byte for byte. A.a -> C.c has a zero
#: elapsed baseline and A.a -> D.d no balanced cell; both print "-".
_GOLDEN_MARKDOWN = """\
# Scenario report

- node_count: 4
- edge_count: 3
- condition: memory
- repetitions: 2

## Mean elapsed (s)

| pair | postpone-3[paper] | balanced[paper] |
|---|---|---|
| A.a -> B.b (P2-like) | 0.000125 | 0.000250 |
| A.a -> C.c (P2-like) | 0.000000 | 0.000500 |
| A.a -> D.d (P1-like) | 0.000125 | - |

## Visited nodes (total)

| pair | postpone-3[paper] | balanced[paper] |
|---|---|---|
| A.a -> B.b (P2-like) | 4 | 6 |
| A.a -> C.c (P2-like) | 4 | 4 |
| A.a -> D.d (P1-like) | 5 | - |

## Visited forward

| pair | postpone-3[paper] | balanced[paper] |
|---|---|---|
| A.a -> B.b (P2-like) | 1 | 1 |
| A.a -> C.c (P2-like) | 1 | 1 |
| A.a -> D.d (P1-like) | 2 | - |

## Visited backward

| pair | postpone-3[paper] | balanced[paper] |
|---|---|---|
| A.a -> B.b (P2-like) | 3 | 5 |
| A.a -> C.c (P2-like) | 3 | 3 |
| A.a -> D.d (P1-like) | 3 | - |

## Mean elapsed relative to postpone-3[paper]

| pair | postpone-3[paper] | balanced[paper] |
|---|---|---|
| A.a -> B.b (P2-like) | 1.00x | 2.00x |
| A.a -> C.c (P2-like) | - | - |
| A.a -> D.d (P1-like) | 1.00x | - |

## Visited total relative to postpone-3[paper]

| pair | postpone-3[paper] | balanced[paper] |
|---|---|---|
| A.a -> B.b (P2-like) | 1.00x | 1.50x |
| A.a -> C.c (P2-like) | 1.00x | 1.00x |
| A.a -> D.d (P1-like) | 1.00x | - |
"""


def test_markdown_report_golden():
    report = ScenarioReport(
        environment={"node_count": 4, "edge_count": 3, "condition": "memory", "repetitions": 2},
        rows=(
            _ROW,
            replace(_ROW, **_BALANCED, visited_backward=5, visited_total=6, mean_elapsed_s=0.00025),
            replace(_ROW, final=1, final_name="C.c", mean_elapsed_s=0.0),
            replace(_ROW, final=1, final_name="C.c", **_BALANCED, mean_elapsed_s=0.0005),
            replace(_ROW, final=2, final_name="D.d", regime="P1-like", visited_forward=2, visited_total=5),
        ),
    )
    assert emit_report(report, "markdown") == _GOLDEN_MARKDOWN


def test_unknown_format_rejected():
    report = ScenarioReport(environment={}, rows=())
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def _mask_timing(text: str) -> str:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for row in reader:
        for col in TIMING_COLUMNS:
            row[col] = "-"
        rows.append(row)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def test_shipped_scenario_deterministic_csv():
    scenario = load_scenario(DATA / "scenarios" / "regimes.json")
    first = emit_report(run_scenario(scenario), "csv")
    second = emit_report(run_scenario(scenario), "csv")
    assert _mask_timing(first) == _mask_timing(second)


def test_shipped_scenario_covers_all_regimes():
    scenario = load_scenario(DATA / "scenarios" / "regimes.json")
    assert [p.regime for p in scenario.pairs] == [
        Regime.P1,
        Regime.P2,
        Regime.P3,
        Regime.P4,
    ]
    report = run_scenario(scenario)
    assert {row.regime for row in report.rows} == {
        "P1-like",
        "P2-like",
        "P3-like",
        "P4-like",
    }
    assert all(row.status == "found" for row in report.rows)


# ---------------------------------------------------------------------------
# storage conditions
# ---------------------------------------------------------------------------


def test_disk_condition_builds_store_and_matches_memory(tmp_path, monkeypatch):
    # the store is built in a temporary directory, gone with the report
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    spec = SyntheticSpec(node_count=120, out_degree=2, hub_count=2, hub_indegree=10, seed=5)
    pairs = (PairSpec(0, 60), PairSpec(10, 11))
    algorithms = (SearchConfig(delay_steps=3), SearchConfig(algorithm=Algorithm.BIDIR_BALANCED))
    memory = run_scenario(
        Scenario(synthetic=spec, pairs=pairs, algorithms=algorithms, repetitions=2)
    )
    disk = run_scenario(
        Scenario(
            synthetic=spec,
            pairs=pairs,
            algorithms=algorithms,
            repetitions=2,
            condition=StorageCondition(on_disk=True, cache=CacheConfig(max_cached_nodes=16)),
        )
    )
    assert list(tmp_path.iterdir()) == []
    skip = set(TIMING_COLUMNS) | set(access_columns(AccessStats()))
    for mem_row, disk_row in zip(memory.rows, disk.rows):
        for col in CSV_COLUMNS:
            if col in skip:
                continue
            assert getattr(mem_row, col) == getattr(disk_row, col), col
        assert disk_row.cache_misses > 0


def test_disk_condition_uses_prebuilt_store(tmp_path):
    graph = generate_synthetic(SyntheticSpec(node_count=50, out_degree=2, seed=4))
    store_path = tmp_path / "pre.cgs"
    build_store(graph, store_path)
    scenario = Scenario(
        store_path=store_path,
        pairs=(PairSpec(0, 25),),
        algorithms=(SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),),
        repetitions=1,
        condition=StorageCondition(on_disk=True),
    )
    report = run_scenario(scenario)
    assert report.rows[0].adjacency_reads > 0


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_scenario_file_with_a_store_graph_reports_as_the_graph(tmp_path, storage):
    # a scenario whose graph is a store path, relative to the file, reports
    # what the same scenario reports on the graph the store was built from
    spec = {"node_count": 120, "out_degree": 2, "hub_count": 2, "hub_indegree": 10, "seed": 5}
    build_store(generate_synthetic(SyntheticSpec(**spec)), tmp_path / "g.cgs")
    doc = {
        "pairs": [{"initial": 0, "final": 60}, {"initial": 10, "final": 11}],
        "algorithms": [{"algorithm": "postpone", "delay_steps": 3}, {"algorithm": "balanced"}],
        "condition": {"storage": storage, "cache": {"max_cached_nodes": 16}},
        "repetitions": 1,
    }
    reports = []
    for name, graph in (("store", {"store": "g.cgs"}), ("synthetic", {"synthetic": spec})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, "graph": graph}))
        reports.append(run_scenario(load_scenario(path)))
    assert load_scenario(tmp_path / "store.json").store_path == (tmp_path / "g.cgs").resolve()
    untimed = [[replace(row, mean_elapsed_s=0.0, stddev_elapsed_s=0.0) for row in r.rows] for r in reports]
    assert untimed[0] == untimed[1]
    assert all((row.cache_misses > 0) == (storage == "disk") for row in reports[0].rows)


@pytest.mark.parametrize("mode", list(CacheMode), ids=lambda mode: mode.value)
def test_store_rows_report_one_querys_io(tmp_path, mode):
    # three repetitions on one handle: the row's reads, hits and misses are
    # those of one query from a fresh handle, like its visits and probes
    graph = generate_synthetic(SyntheticSpec(node_count=120, out_degree=2, hub_count=2, hub_indegree=10, seed=5))
    store_path = tmp_path / "g.cgs"
    build_store(graph, store_path)
    config = SearchConfig(delay_steps=3)
    cache = CacheConfig(max_cached_nodes=16, mode=mode)
    scenario = Scenario(
        store_path=store_path,
        pairs=(PairSpec(0, 60),),
        algorithms=(config,),
        repetitions=3,
        condition=StorageCondition(on_disk=True, cache=cache),
    )
    row = run_scenario(scenario).rows[0]
    with open_store(store_path, cache) as handle:
        result = run_search(handle, 0, 60, config)
        stats = handle.access_stats()
    assert stats.meta_reads > 0 and stats.cache_misses > 0
    assert row.visited_total == result.visited_forward + result.visited_backward
    assert (row.meta_reads, row.adjacency_reads, row.cache_hits, row.cache_misses) == (
        stats.meta_reads,
        stats.adjacency_reads,
        stats.cache_hits,
        stats.cache_misses,
    )


# ---------------------------------------------------------------------------
# scenario file parsing
# ---------------------------------------------------------------------------


def test_load_scenario_round_trip(tmp_path):
    doc = {
        "schema": "callpath-scenario@1",
        "graph": {"synthetic": {"node_count": 10, "out_degree": 1, "seed": 1}},
        "pairs": [{"initial": 0, "final": 5}],
        "algorithms": [{"algorithm": "balanced", "frontier_policy": "smaller"}],
        "condition": {
            "storage": "disk",
            "cache": {"max_cached_nodes": 8, "latency_per_miss_ms": 2, "mode": "warm"},
        },
        "repetitions": 5,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    assert scenario.synthetic.node_count == 10
    assert scenario.repetitions == 5
    assert scenario.condition.on_disk
    assert scenario.condition.cache.latency_per_miss == pytest.approx(0.002)
    assert scenario.condition.cache.mode is CacheMode.WARM_ACROSS_QUERIES
    assert scenario.algorithms[0].frontier_policy is FrontierPolicy.SMALLER_FIRST


def test_load_scenario_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nope@0"}))
    with pytest.raises(ScenarioError, match="schema"):
        load_scenario(path)


def test_load_scenario_rejects_bad_algorithm(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "graph": {"synthetic": {"node_count": 4, "out_degree": 1}},
                "pairs": [{"initial": 0, "final": 1}],
                "algorithms": [{"algorithm": "warp"}],
            }
        )
    )
    with pytest.raises(ScenarioError):
        load_scenario(path)


_VALID_DOC = {
    "graph": {"synthetic": {"node_count": 10, "out_degree": 1, "seed": 1}},
    "pairs": [{"initial": 0, "final": 5, "regime": "P2"}],
    "algorithms": [{"algorithm": "postpone", "delay_steps": 3}],
    "condition": {"storage": "disk", "cache": {"max_cached_nodes": 8, "latency_per_miss_ms": 2}},
    "repetitions": 2,
}


def _edited(path, value):
    """_VALID_DOC with the field at ``path`` (a key/index tuple) set to ``value``."""
    doc = json.loads(json.dumps(_VALID_DOC))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, field",
    [
        (_edited(("graph", "synthetic", "nodes"), 10), "nodes"),
        (_edited(("graph", "synthetic", "node_count"), "10"), "graph.synthetic.node_count"),
        (_edited(("graph", "synthetic", "acyclic"), 1), "graph.synthetic.acyclic"),
        (_edited(("graph",), {"jsonl": 3}), "graph.jsonl"),
        (_edited(("pairs",), 5), "pairs"),
        (_edited(("pairs", 0), [0, 5]), "pairs[0]"),
        (_edited(("pairs", 0), {"initial": 0}), "pairs[0].final"),
        (_edited(("pairs", 0, "regime"), "P9"), "pairs[0].regime"),
        (_edited(("algorithms", 0, "algorithm"), ["uni"]), "algorithms[0].algorithm"),
        (_edited(("algorithms", 0, "delay_steps"), "3"), "algorithms[0].delay_steps"),
        (_edited(("algorithms", 0, "delay_steps"), True), "algorithms[0].delay_steps"),
        (_edited(("algorithms", 0, "delay_steps"), -1), "algorithms[0]"),
        (_edited(("algorithms", 0, "probe_only"), 1), "algorithms[0].probe_only"),
        (_edited(("algorithms", 0, "postpone_kinds"), "interface"), "algorithms[0].postpone_kinds"),
        (_edited(("condition",), "disk"), "condition"),
        (_edited(("condition", "cache", "max_cached_nodes"), 0), "max_cached_nodes"),
        (_edited(("condition", "cache", "max_cached_nodes"), 8.0), "max_cached_nodes"),
        (_edited(("condition", "cache", "latency_per_miss_ms"), "5"), "latency_per_miss_ms"),
        (_edited(("condition", "cache", "latency_per_miss_ms"), float("inf")), "latency_per_miss_ms"),
        (_edited(("condition", "cache", "latency_per_miss_ms"), -1), "latency_per_miss"),
        (_edited(("condition", "cache", "mode"), "hot"), "condition.cache.mode"),
        (_edited(("repetitions",), "2"), "repetitions"),
        (_edited(("repetitions",), True), "repetitions"),
        (_edited(("repetitions",), 0), "repetitions"),
        (_edited(("repetition",), 1), "scenario: unknown field(s) ['repetition']"),
        (_edited(("pairs", 0, "regim"), "P2"), "pairs[0]: unknown field(s) ['regim']"),
        (_edited(("algorithms", 0, "delay"), 6), "algorithms[0]: unknown field(s) ['delay']"),
        (_edited(("condition", "latency_ms"), 2), "condition: unknown field(s) ['latency_ms']"),
        (_edited(("condition", "cache", "size"), 8), "condition.cache: unknown field(s) ['size']"),
        (
            _edited(("condition",), {"storage": "memory", "cache": {"mod": "warm"}}),
            "condition.cache: unknown field(s) ['mod']",
        ),
        (_edited(("graph", "synthetic"), {"out_degree": 2}), "graph.synthetic.node_count is required"),
        # a memory scenario's cache block is checked as a store's is
        (
            _edited(
                ("condition",),
                {"storage": "memory", "cache": {"max_cached_nodes": "x", "mode": [3], "latency_per_miss_ms": -5}},
            ),
            "condition.cache",
        ),
        # the field takes milliseconds, and so does its bound
        (
            _edited(("condition", "cache", "latency_per_miss_ms"), 1e308),
            f"condition.cache: latency_per_miss_ms must be finite and non-negative, at most {_MAX_LATENCY * 1000} ms",
        ),
        (_edited(("pairs",), []), "scenario has no pairs"),
        (_edited(("algorithms",), []), "scenario has no algorithms"),
        (_edited(("graph",), {"sql": "g.db"}), "graph source must be jsonl | synthetic | store"),
    ],
)
def test_load_scenario_rejects_malformed_fields(tmp_path, doc, field):
    # json.dumps writes float("inf") as the JSON extension Infinity,
    # which json.loads reads back as a float
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=re.escape(field)):
        load_scenario(path)


def test_load_scenario_accepts_valid_doc(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_VALID_DOC))
    scenario = load_scenario(path)
    assert scenario.pairs == (PairSpec(0, 5, Regime.P2),)
    assert scenario.condition.cache.latency_per_miss == pytest.approx(0.002)


def test_load_scenario_relative_jsonl(tmp_path):
    (tmp_path / "g.jsonl").write_text(
        '{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}\n'
    )
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps(
            {
                "graph": {"jsonl": "g.jsonl"},
                "pairs": [{"initial": 0, "final": 0}],
                "algorithms": [{"algorithm": "uni"}],
            }
        )
    )
    scenario = load_scenario(path)
    report = run_scenario(scenario)
    assert report.rows[0].status == "found"


# ---------------------------------------------------------------------------
# find_regime_pairs
# ---------------------------------------------------------------------------


def test_find_regime_pairs_budget_zero(fig_graph):
    assert find_regime_pairs(fig_graph, Regime.P2, 0) == []


def test_find_regime_pairs_without_candidate_endpoints():
    # no node at all, and no node with an edge for a P4 pair's many-sided ends
    assert find_regime_pairs(InMemoryGraph([], []), Regime.P2, 3) == []
    edgeless = InMemoryGraph([MethodMeta(u, f"m{u}", f"C{u}", ClassKind.CONCRETE) for u in range(5)], [])
    assert find_regime_pairs(edgeless, Regime.P4, 3) == []


def test_find_regime_pairs_p2_on_fig(fig_graph):
    pairs = find_regime_pairs(fig_graph, Regime.P2, 3, seed=1)
    assert pairs
    threshold = max(1.0, 0.05 * fig_graph.node_count)
    for s, t in pairs:
        profile = classify_pair(fig_graph, s, t)
        assert profile.regime is Regime.P2
        assert profile.forward_count <= threshold
        assert profile.backward_count <= threshold


def test_find_regime_pairs_deterministic(hub_graph):
    a = find_regime_pairs(hub_graph, Regime.P4, 5, seed=11)
    b = find_regime_pairs(hub_graph, Regime.P4, 5, seed=11)
    assert a == b and len(a) == 5


def test_find_regime_pairs_verified_by_matrix_oracle_downscale():
    spec = SyntheticSpec(node_count=200, out_degree=3, hub_count=4, hub_indegree=12, seed=7)
    graph = generate_synthetic(spec)
    closure = closure_matrix(graph)
    threshold = 0.05 * graph.node_count
    pairs = find_regime_pairs(graph, Regime.P4, 4, seed=2)
    assert pairs
    for s, t in pairs:
        fwd = int(closure[s].sum()) - int(closure[s, s])
        bwd = int(closure[:, t].sum()) - int(closure[t, t])
        assert fwd > threshold
        assert bwd > threshold
