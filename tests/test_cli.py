import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from callpath.bench import load_scenario, run_scenario
from callpath.cli import main
from callpath.ingest import SyntheticSpec, export_jsonl, generate_synthetic, import_jsonl
from callpath.store import build_store

DATA = Path(__file__).parent.parent / "data"
FIG = str(DATA / "transceiver.jsonl")


def run_cli(*argv):
    return main(list(argv))


def test_path_direct_edge(capsys):
    code = run_cli(
        "path",
        "--graph", FIG,
        "--from", "Tranceiver.transmit",
        "--to", "Tranceiver.send",
        "--algo", "postpone",
        "--delay", "3",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status=found length=1" in out
    assert "Tranceiver.transmit -> Tranceiver.send" in out


def test_path_same_node(capsys):
    code = run_cli("path", "--graph", FIG, "--from", "Transformer.encode", "--to", "Transformer.encode")
    out = capsys.readouterr().out
    assert code == 0
    assert "status=found length=0" in out


def test_path_no_path_exits_zero(capsys):
    code = run_cli("path", "--graph", FIG, "--from", "Tranceiver.send", "--to", "Tranceiver.transmit")
    out = capsys.readouterr().out
    assert code == 0
    assert "status=no-path" in out


def test_path_unknown_name_exits_one(capsys):
    code = run_cli("path", "--graph", FIG, "--from", "No.where", "--to", "Tranceiver.send")
    captured = capsys.readouterr()
    assert code == 1
    assert "No.where" in captured.err
    assert "Traceback" not in captured.err


def test_path_numeric_ids(capsys):
    code = run_cli("path", "--graph", FIG, "--from", "0", "--to", "3", "--algo", "uni")
    assert code == 0
    assert "status=found length=1" in capsys.readouterr().out


def test_path_json_format(capsys):
    code = run_cli(
        "--format", "json",
        "path", "--graph", FIG,
        "--from", "Tranceiver.transmit", "--to", "Tranceiver.send",
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "found"
    assert doc["length"] == 1
    assert doc["path"][0]["callee"] == "Tranceiver.send"


def test_path_flag_conflicts_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("path", "--graph", FIG, "--from", "0", "--to", "3", "--algo", "uni", "--delay", "3")
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli("path", "--graph", FIG, "--from", "0", "--to", "3", "--algo", "balanced", "--probe-only")
    assert excinfo.value.code == 2


def test_path_frontier_with_uni_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("path", "--graph", FIG, "--from", "0", "--to", "3", "--algo", "uni", "--frontier", "smaller")
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--frontier does not apply to --algo uni" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--delay", "-1"),
        ("--cache-nodes", "0"),
        ("--latency-ms", "-1"),
        ("--latency-ms", "inf"),
        ("--latency-ms", "1e308"),
    ],
)
def test_path_out_of_range_numbers_exit_two(capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("path", "--graph", FIG, "--from", "0", "--to", "3", flag, value)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--delay", "--cache-nodes", "--latency-ms"])
def test_path_double_dash_value_exits_two(capsys, flag):
    # some argparse versions read "--flag=--" as an empty list, others
    # as the text "--"; neither is a number
    with pytest.raises(SystemExit) as excinfo:
        run_cli("path", "--graph", FIG, "--from", "0", "--to", "3", f"{flag}=--")
    assert excinfo.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_path_text_output_is_pure_function_of_inputs(capsys):
    args = ("path", "--graph", FIG, "--from", "0", "--to", "3")
    run_cli(*args)
    first = capsys.readouterr().out
    run_cli(*args)
    second = capsys.readouterr().out
    assert first == second


def test_import_summary(capsys):
    code = run_cli("import", "--graph", FIG)
    assert code == 0
    assert "nodes=4 edges=3" in capsys.readouterr().out


def test_import_normalized_export(tmp_path, capsys):
    out = tmp_path / "normalized.jsonl"
    code = run_cli("import", "--graph", FIG, "--out", str(out))
    assert code == 0
    graph = import_jsonl(out.read_text().splitlines())
    assert graph.node_count == 4 and graph.edge_count == 3


def test_import_from_stdin_reads_as_from_the_file(tmp_path, capsys, monkeypatch):
    from_file, from_stdin = tmp_path / "file.jsonl", tmp_path / "stdin.jsonl"
    assert run_cli("--quiet", "import", "--graph", FIG, "--out", str(from_file)) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(FIG).read_text(encoding="utf-8")))
    assert run_cli("import", "--graph", "-", "--out", str(from_stdin)) == 0
    assert "nodes=4 edges=3" in capsys.readouterr().out
    assert from_stdin.read_bytes() == from_file.read_bytes()


def test_import_malformed_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"record": "edge", "caller": 0, "callee": 1}\n')
    code = run_cli("import", "--graph", str(bad))
    captured = capsys.readouterr()
    assert code == 1
    assert "line 1" in captured.err


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ("generate", "--nodes", "60", "--out-degree", "2", "--hubs", "3",
            "--hub-indegree", "10", "--seed", "5")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_generate_without_out_writes_the_out_bytes_to_stdout(tmp_path, capsys):
    out = tmp_path / "g.jsonl"
    args = ("generate", "--nodes", "60", "--out-degree", "2", "--hubs", "3",
            "--hub-indegree", "10", "--seed", "5", "--acyclic")
    assert run_cli("--quiet", *args, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(*args) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_generate_past_the_store_limit_exits_one(tmp_path, capsys):
    # numpy would refuse this size at once too, so a missing check fails
    # here with a traceback, not by allocating
    out = tmp_path / "g.jsonl"
    code = run_cli("generate", "--nodes", str(10**15), "--out-degree", "3", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "node_count" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, edges",
    [
        (("--out-degree", str(10**21)), 20),
        (("--out-degree", "2", "--hub-indegree", str(10**21)), 10),
    ],
    ids=["out-degree", "unused-hub-indegree"],
)
def test_generate_takes_integers_past_int64_where_they_are_capped(tmp_path, capsys, flags, edges):
    # numpy refuses an integer past int64: an out-degree is capped at the
    # n - 1 other nodes, and a hub indegree without hubs is unused
    out = tmp_path / "g.jsonl"
    code = run_cli("generate", "--nodes", "5", *flags, "--out", str(out))
    assert code == 0 and capsys.readouterr().err == ""
    with out.open() as fh:
        assert import_jsonl(fh).edge_count == edges


def test_generate_negative_seed_exits_one(tmp_path, capsys):
    out = tmp_path / "g.jsonl"
    code = run_cli("generate", "--nodes", "5", "--out-degree", "2", "--seed", "-1", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "seed must be non-negative" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bench_negative_synthetic_seed_exits_one(tmp_path, capsys):
    doc = json.loads((DATA / "scenarios" / "regimes.json").read_text())
    doc["graph"]["synthetic"]["seed"] = -1
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc))
    code = run_cli("bench", "--scenario", str(path))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "seed must be non-negative" in err
    assert "Traceback" not in err


def test_generate_requires_density_choice():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("generate", "--nodes", "10")
    assert excinfo.value.code == 2


def test_build_store_and_query_it(tmp_path, capsys):
    store = tmp_path / "fig.cgs"
    assert run_cli("build-store", "--graph", FIG, "--out", str(store)) == 0
    out = capsys.readouterr().out
    assert "nodes=4" in out and "edges=3" in out
    code = run_cli(
        "path", "--graph", str(store), "--from", "Tranceiver.transmit",
        "--to", "Tranceiver.send", "--algo", "balanced",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status=found length=1" in out
    assert "meta_reads=0" in out  # balanced never probes class kinds


@pytest.mark.parametrize("cache_nodes", ["64", "1000"], ids=["evicting", "holds-every-node"])
def test_path_by_names_reads_as_by_ids_on_a_warm_store(tmp_path, capsys, cache_nodes):
    # resolving a name reads every node's metadata; the query's warm
    # cache must not start with those records
    store = tmp_path / "g300.cgs"
    spec = SyntheticSpec(node_count=300, out_degree=3, hub_count=10, hub_indegree=20, seed=7, acyclic=True)
    build_store(generate_synthetic(spec), store)
    docs = []
    for initial, final in (("C0.m0", "C299.m299"), ("0", "299")):
        code = run_cli(
            "--format", "json", "path", "--graph", str(store), "--from", initial, "--to", final,
            "--cache-mode", "warm", "--cache-nodes", cache_nodes,
        )
        assert code == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["status"] == "found"
    assert docs[0]["access"] == docs[1]["access"]
    assert docs[0]["access"]["cache_hits"] == 0


def test_reach_single_node(capsys):
    code = run_cli("reach", "--graph", FIG, "Tranceiver.transmit")
    out = capsys.readouterr().out
    assert code == 0
    assert "forward=3" in out and "backward=0" in out


def test_reach_pair_regime(capsys):
    code = run_cli("reach", "--graph", FIG, "Transformer.encode", "Tranceiver.send")
    out = capsys.readouterr().out
    assert code == 0
    assert "regime=P2-like" in out


def test_reach_json(capsys):
    code = run_cli("--format", "json", "reach", "--graph", FIG, "0")
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc == {"node": 0, "name": "Tranceiver.transmit", "forward": 3, "backward": 0}


def test_reach_pair_json(capsys):
    code = run_cli("--format", "json", "reach", "--graph", FIG, "Transformer.encode", "Tranceiver.send")
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc == {
        "initial": 1,
        "final": 3,
        "initial_name": "Transformer.encode",
        "final_name": "Tranceiver.send",
        "forward": 0,
        "backward": 1,
        "regime": "P2-like",
    }


def test_bench_writes_csv_matching_library(tmp_path, capsys):
    scenario_path = DATA / "scenarios" / "regimes.json"
    out = tmp_path / "report.csv"
    code = run_cli("bench", "--scenario", str(scenario_path), "--out", str(out))
    capsys.readouterr()
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    library = run_scenario(load_scenario(scenario_path))
    assert len(rows) == len(library.rows)
    for got, want in zip(rows, library.rows):
        assert int(got["visited_forward"]) == want.visited_forward
        assert int(got["visited_backward"]) == want.visited_backward
        assert got["status"] == want.status
        assert got["algorithm"] == want.algorithm


def test_bench_markdown_to_stdout(capsys):
    scenario_path = DATA / "scenarios" / "regimes.json"
    code = run_cli("--format", "markdown", "bench", "--scenario", str(scenario_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "## Visited nodes (total)" in out


def test_bench_rejects_text_format():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--format", "text", "bench", "--scenario", "x.json")
    assert excinfo.value.code == 2


def test_bench_parallel_flag_is_gone():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("bench", "--scenario", str(DATA / "scenarios" / "regimes.json"), "--parallel")
    assert excinfo.value.code == 2


def test_bench_malformed_scenario_exits_one_without_traceback(tmp_path):
    doc = json.loads((DATA / "scenarios" / "regimes.json").read_text())
    doc["algorithms"][0]["delay_steps"] = "3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "callpath.cli", "bench", "--scenario", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "algorithms[0].delay_steps" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_unknown_scenario_field_exits_one_without_traceback(tmp_path):
    # a misspelt field must fail, not fall back to a default: "delay"
    # would run postpone-3 and "repetition" three repetitions
    doc = json.loads((DATA / "scenarios" / "regimes.json").read_text())
    doc["algorithms"][5]["delay"] = doc["algorithms"][5].pop("delay_steps")
    doc["repetition"] = doc.pop("repetitions")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "callpath.cli", "bench", "--scenario", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "unknown field(s) ['repetition']" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_graph_file_exits_one(capsys):
    code = run_cli("import", "--graph", "/nonexistent/g.jsonl")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_path_postpone_kinds_flag(tmp_path, capsys):
    # abstract-kind node on the backward side: postponed by default,
    # not when --postpone-kinds is narrowed to interface
    lines = [
        '{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}',
        '{"record": "node", "id": 1, "method": "b", "class": "B", "kind": "abstract"}',
        '{"record": "node", "id": 2, "method": "c", "class": "C", "kind": "concrete"}',
        '{"record": "edge", "caller": 0, "callee": 1}',
        '{"record": "edge", "caller": 1, "callee": 2}',
    ]
    graph_path = tmp_path / "abs.jsonl"
    graph_path.write_text("\n".join(lines) + "\n")
    base = ("--format", "json", "path", "--graph", str(graph_path), "--from", "0", "--to", "2")
    assert run_cli(*base) == 0
    default_doc = json.loads(capsys.readouterr().out)
    assert run_cli(*base, "--postpone-kinds", "interface") == 0
    narrowed_doc = json.loads(capsys.readouterr().out)
    assert default_doc["postponements"] == 1
    assert narrowed_doc["postponements"] == 0


def _cli_subprocess(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    return subprocess.run(
        [sys.executable, "-m", "callpath.cli", *argv], capture_output=True, text=True, env=env
    )


def test_bench_graph_jsonl_error_names_the_graph_file(tmp_path):
    graph = tmp_path / "graph.jsonl"
    graph.write_text('{"record": "edge", "caller": 0, "callee": 1}\n')
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "graph": {"jsonl": "graph.jsonl"},
                "pairs": [{"initial": 0, "final": 1}],
                "algorithms": [{"algorithm": "uni"}],
            }
        )
    )
    proc = _cli_subprocess("bench", "--scenario", str(scenario))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert f"{graph.resolve()}: line 1: " in proc.stderr


_NOT_UTF8 = b"\xff\xfe" + (DATA / "transceiver.jsonl").read_bytes()


@pytest.mark.parametrize(
    "content, argv, message",
    [
        (b"[" * 200_000, ["import", "--graph"], "line 1: invalid JSON: nesting too deep"),
        (b'{"a":' * 100_000, ["bench", "--scenario"], "{path}: JSON nesting too deep"),
        (_NOT_UTF8, ["import", "--graph"], "{path}: not UTF-8 text"),
        (_NOT_UTF8, ["reach", "0", "--graph"], "{path}: not UTF-8 text"),
        (b"\xff\xfe{}", ["bench", "--scenario"], "{path}: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["jsonl-deep", "scenario-deep", "jsonl-not-utf8", "reach-not-utf8", "scenario-not-utf8"],
)
def test_hostile_input_exits_one_without_traceback(tmp_path, content, argv, message):
    path = tmp_path / "input"
    path.write_bytes(content + b"\n")
    proc = _cli_subprocess(*argv, str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert message.format(path=path) in proc.stderr


@pytest.mark.parametrize("command", ["build-store", "import"])
def test_lone_surrogate_escape_exits_one_without_traceback(tmp_path, command):
    # the escape decodes to a str that cannot be written as UTF-8
    path = tmp_path / "g.jsonl"
    path.write_text('{"record": "node", "id": 0, "method": "\\ud800", "class": "A", "kind": "concrete"}\n')
    out = tmp_path / ("g.cgs" if command == "build-store" else "again.jsonl")
    proc = _cli_subprocess(command, "--graph", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"callpath: error: {path}: line 1: 'method' does not encode as UTF-8 (a lone surrogate)\n"


def _export_past_line_20000():
    lines = export_jsonl(generate_synthetic(SyntheticSpec(node_count=6000, out_degree=3, seed=4))).splitlines()
    return [line.encode() for line in lines]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines.insert(20_050, b"\xff"), "{path}: not UTF-8 text (invalid start byte)"),
        (lambda lines: lines.__setitem__(4100, lines[4100][:-1]), "{path}: line 4101: invalid JSON"),
    ],
    ids=["not-utf8-past-line-20000", "bad-line-in-second-chunk"],
)
def test_build_store_fault_past_the_first_chunk_is_one_line(tmp_path, edit, message):
    lines = _export_past_line_20000()
    edit(lines)
    path = tmp_path / "g.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    proc = _cli_subprocess("build-store", "--graph", str(path), "--out", str(tmp_path / "g.cgs"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert message.format(path=path) in proc.stderr


@pytest.mark.parametrize(
    "argv, name",
    [
        (["path", "--graph", FIG, "--from=--5", "--to", "3"], "--5"),
        (["path", "--graph", FIG, "--from", "\u00b2", "--to", "3"], "\u00b2"),
        (["path", "--graph", FIG, "--from", "0", "--to", "\u0663"], "\u0663"),
        (["reach", "--graph", FIG, "--", "--5"], "--5"),
        (["reach", "\u00b2", "--graph", FIG], "\u00b2"),
        (["reach", "0", "\u0663", "--graph", FIG], "\u0663"),
    ],
    ids=["path-double-minus", "path-superscript", "path-arabic-indic", "reach-double-minus",
         "reach-superscript", "reach-arabic-indic"],
)
def test_node_that_is_not_an_ascii_id_is_looked_up_by_name(argv, name):
    # only -?[0-9]+ is an id: other digit-like text is a name, and an
    # unknown name is one error line, never an int() traceback or the
    # node an Arabic-Indic digit happens to spell
    proc = _cli_subprocess(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"callpath: error: no node named {name!r}\n"
