#!/usr/bin/env python3
"""Mine the benchmark's query pairs and record their outcome digests.

    python3 perfbench/mine_inputs.py    # rewrites perfbench/inputs.json

For every input set of spec.INPUT_SETS this builds each graph from its
seed, mines the pairs from the pair seed, and runs every workload's
queries once to record the per-config digest of their outcomes. Runs
of the benchmark read the result instead of mining: stratified mining
and the digest pass must never be timed or repeated per run.
test_perfbench.py re-mines the pairs and compares them with the file.
"""

from __future__ import annotations

import json
import re
import sys

import graphs
import spec
import workloads
from run import import_program


def mine_pairs(cp, input_set: str) -> dict:
    """Edge digest and pairs of every graph of ``input_set``."""
    seeds = spec.INPUT_SETS[input_set]
    out = {}
    for name, recipe in spec.GRAPHS.items():
        n = recipe["node_count"]
        if recipe["source"] == "callpath":
            graph = cp.generate_synthetic(workloads.synthetic_spec(cp, recipe, seeds["graph_seed"]))
            src, dst = workloads.edge_arrays(graph)
            del graph
            pairs = graphs.mine_reachable(graphs.csr(n, src, dst), recipe["pairs"], seeds["pair_seed"])
        else:
            src, dst, _ = graphs.hub_dag(
                n, recipe["out_degree"], recipe["hub_count"], recipe["hub_indegree"], seeds["graph_seed"]
            )
            reach, forward, backward = graphs.dag_closures(n, src, dst)
            strata = graphs.mine_strata(
                reach, forward, backward, recipe["strata"], recipe["per_stratum"], seeds["pair_seed"]
            )
            del reach
            pairs = [[s, t, stratum] for stratum in recipe["strata"] for s, t in strata[stratum]]
        out[name] = {"edge_digest": graphs.edge_digest(src, dst), "pairs": pairs}
    return out


def build(cp) -> dict:
    doc = {}
    for input_set in spec.INPUT_SETS:
        stored = mine_pairs(cp, input_set)
        stored["digests"] = {
            workload: workloads.record_digests(cp, workload, input_set, stored)
            for workload in spec.WORKLOADS
        }
        doc[input_set] = stored
    return doc


def dumps(doc: dict) -> str:
    """JSON with one pair per line."""
    text = json.dumps(doc, indent=2)
    return re.sub(r'\[\s+(\d+),\s+(\d+),\s+("\w+")\s+\]', r"[\1, \2, \3]", text) + "\n"


def main() -> int:
    cp = import_program()
    workloads.INPUTS_FILE.write_text(dumps(build(cp)), encoding="utf-8")
    print(f"wrote {workloads.INPUTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
