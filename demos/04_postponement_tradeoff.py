#!/usr/bin/env python3
"""When postponement helps and when it hurts.

Postponing backward expansion of interface-kind methods avoids pulling
their many callers into the frontier. That pays off when the meeting
happens before the postponed node would have mattered. It backfires
when the only route to the meeting point runs *through* the postponed
node: every delayed round lets the other backward branches expand
useless nodes.

Both cases below are deterministic fixtures the regression suite pins
exact numbers on.
"""

from callpath import Algorithm, SearchConfig, generate_synthetic, run_search
from callpath.fixtures import hub_fixture_spec, postponement_pathology_graph

BALANCED = SearchConfig(algorithm=Algorithm.BIDIR_BALANCED)

print("case 1: the pathology fixture (postponement hurts)")
graph, s, t = postponement_pathology_graph()
print(f"  {graph}; only path runs through an interface-kind handler next to the start")
balanced = run_search(graph, s, t, BALANCED)
for delay in (3, 6):
    postponed = run_search(graph, s, t, SearchConfig(delay_steps=delay))
    extra = postponed.visited_backward - balanced.visited_backward
    print(
        f"  delay {delay}: visited_backward {postponed.visited_backward:>4} vs "
        f"balanced {balanced.visited_backward} -> {extra} extra nodes, "
        f"{postponed.steps - balanced.steps} extra rounds"
    )

print("\ncase 2: the hub fixture, dual-heavy pair (postponement helps)")
hub_graph = generate_synthetic(hub_fixture_spec())
s, t = 983, 348
balanced = run_search(hub_graph, s, t, BALANCED)
postponed = run_search(hub_graph, s, t, SearchConfig(delay_steps=3))
total_b = balanced.visited_forward + balanced.visited_backward
total_p = postponed.visited_forward + postponed.visited_backward
print(f"  balanced:  visited {total_b:>4} nodes, path length {balanced.length}")
print(
    f"  postpone3: visited {total_p:>4} nodes, path length {postponed.length}, "
    f"{postponed.postponements} postponements"
)
print(f"  visited-node ratio: {total_p / total_b:.3f}")
print("\n  the win: delayed hubs never expand, so their ~50 callers each")
print("  stay out of the frontier while the meeting happens elsewhere.")
