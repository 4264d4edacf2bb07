"""Checks of the benchmark itself: its inputs re-mine from their seeds,
its labels agree with the program's classifier, and its result line
keeps the format the benchmark promises.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import graphs
import mine_inputs
import spec
import workloads
from run import import_program

HERE = Path(__file__).resolve().parent
cp = import_program()


def test_configs_are_those_of_the_shipped_scenario():
    scenario = cp.load_scenario(HERE.parent / "data" / "scenarios" / "regimes.json")
    assert list(workloads.search_configs(cp).values()) == list(scenario.algorithms)


@pytest.mark.parametrize("input_set", list(spec.INPUT_SETS))
def test_stored_inputs_re_mine_from_their_seeds(input_set):
    stored = workloads.load_inputs()[input_set]
    mined = mine_inputs.mine_pairs(cp, input_set)
    for name in spec.GRAPHS:
        assert mined[name]["edge_digest"] == stored[name]["edge_digest"]
        assert mined[name]["pairs"] == stored[name]["pairs"]


def _program_graph(name: str, input_set: str):
    recipe = spec.GRAPHS[name]
    seed = spec.INPUT_SETS[input_set]["graph_seed"]
    if recipe["source"] == "callpath":
        return cp.generate_synthetic(workloads.synthetic_spec(cp, recipe, seed))
    n = recipe["node_count"]
    src, dst, hubs = graphs.hub_dag(
        n, recipe["out_degree"], recipe["hub_count"], recipe["hub_indegree"], seed
    )
    return cp.import_jsonl(io.StringIO(graphs.jsonl_text(n, src, dst, hubs)))


@pytest.mark.parametrize("name", list(spec.GRAPHS))
def test_pair_labels_agree_with_the_program(name):
    graph = _program_graph(name, "main")
    for s, t, label in workloads.load_inputs()["main"][name]["pairs"]:
        reachable = t in cp.reachable_set(graph, s, cp.Direction.FORWARD)
        assert reachable == (label != "none"), (s, t, label)
        if label != "none":
            assert cp.classify_pair(graph, s, t).regime.value == label, (s, t)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, names", [("0", spec.END_TO_END), ("1", spec.LAYERS)])
def test_result_line(trace, names):
    done = _run(HERE.parent, "--workload", "disk-warm", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(names)
    for name, metric in line["metrics"].items():
        unit = spec.END_TO_END[name] if trace == "0" else spec.LAYERS[name][0]
        assert metric["unit"] == unit


def test_benchmark_alone_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "mem-hub", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_names_the_metrics_of_spec():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (unit, _, _) in spec.LAYERS.items()
    }
