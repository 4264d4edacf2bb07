#!/usr/bin/env python3
"""Load a tiny call graph and extract call paths with each algorithm.

The graph is four methods of a toy messaging stack: transmit() calls
encode(), makeHeader() and send(). We look up nodes by qualified name,
inspect adjacency in both directions, and compare the three search
algorithms on the same query.
"""

from pathlib import Path

from callpath import Algorithm, SearchConfig, import_jsonl, resolve_name, run_search

DATA = Path(__file__).resolve().parent.parent / "data"

with open(DATA / "transceiver.jsonl", encoding="utf-8") as fh:
    graph = import_jsonl(fh)
print(f"loaded {graph}")

transmit = resolve_name(graph, "Tranceiver.transmit")
send = resolve_name(graph, "Tranceiver.send")

print("\nadjacency around transmit():")
for callee in graph.successors(transmit):
    print(f"  transmit -> {graph.method_meta(callee).qualified_name}")
print(f"callers of send(): {[graph.method_meta(u).qualified_name for u in graph.predecessors(send)]}")

print("\nsame query, three algorithms:")
for name, config in [
    ("unidirectional", SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL)),
    ("balanced bidirectional", SearchConfig(algorithm=Algorithm.BIDIR_BALANCED)),
    ("postponing bidirectional", SearchConfig(delay_steps=3)),
]:
    result = run_search(graph, transmit, send, config)
    edges = " ".join(
        f"{graph.method_meta(e.caller).qualified_name}->{graph.method_meta(e.callee).qualified_name}"
        for e in result.path
    )
    print(
        f"  {name:<26} {result.status.value:<8} length={result.length} "
        f"visited(fwd={result.visited_forward}, bwd={result.visited_backward}) path: {edges}"
    )

print("\na pair with no connecting path:")
reverse = run_search(graph, send, transmit, SearchConfig(algorithm=Algorithm.BIDIR_BALANCED))
print(f"  send -> transmit: {reverse.status.value}")
