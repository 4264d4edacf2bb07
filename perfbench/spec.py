"""What the benchmark runs: graphs, input sets, search configs,
workloads, and the end-to-end metric each layer metric should move.

Every workload is a closed loop with one client in one process: the
next query starts when the previous one returned.
"""

# The seven search configs of ``data/scenarios/regimes.json``, by the
# labels the per-visit metrics use. Keyword arguments of SearchConfig;
# enum fields are given by value and converted in workloads.py.
CONFIGS = {
    "uni": {"algorithm": "uni"},
    "balanced-paper": {"algorithm": "balanced", "frontier_policy": "paper"},
    "balanced-smaller": {"algorithm": "balanced", "frontier_policy": "smaller"},
    "postpone-3-paper": {"algorithm": "postpone", "delay_steps": 3, "frontier_policy": "paper"},
    "postpone-3-smaller": {"algorithm": "postpone", "delay_steps": 3, "frontier_policy": "smaller"},
    "postpone-6-paper": {"algorithm": "postpone", "delay_steps": 6, "frontier_policy": "paper"},
    "probe-only-paper": {"algorithm": "postpone", "probe_only": True, "frontier_policy": "paper"},
}

# Configs whose answer must equal the oracle distance. probe-only makes
# the same traversal as balanced, so it is exact as well.
EXACT_CONFIGS = {"uni", "balanced-paper", "balanced-smaller", "probe-only-paper"}
POSTPONE_CONFIGS = {"postpone-3-paper", "postpone-3-smaller", "postpone-6-paper"}

GRAPHS = {
    # Built by the program's own generator; generating it is the
    # mem-hub set-up. Pairs: s uniform, t uniform in the forward
    # closure of s.
    "hub30k": {
        "source": "callpath",
        "node_count": 30_000,
        "out_degree": 3,
        "hub_count": 30,
        "hub_indegree": 50,
        "acyclic": False,
        "pairs": 64,
    },
    # Built by perfbench/graphs.py and handed to the program as JSONL.
    # Pairs: equal strata of path-guaranteed P1..P4 pairs and of pairs
    # without a path.
    "dag20k": {
        "source": "perfbench",
        "node_count": 20_000,
        "out_degree": 3,
        "hub_count": 200,
        "hub_indegree": 40,
        "acyclic": True,
        "strata": ["P1", "P2", "P3", "P4", "none"],
        "per_stratum": 16,
    },
}

# Seeds of the graphs and of the pair mining. "main" is the input set
# the benchmark runs by default; "holdout" is the second set on which
# a claimed gain must also hold (run.py --inputs holdout). Inputs are
# mined once by mine_inputs.py into inputs.json; --seed orders the
# queries of each pass and picks the one-edge pairs of search.floor_us.
INPUT_SETS = {
    "main": {"graph_seed": 7, "pair_seed": 11},
    "holdout": {"graph_seed": 8, "pair_seed": 12},
}

WORKLOADS = {
    "mem-hub": {
        "graph": "hub30k",
        "storage": "memory",
        # setup_s is the median of this many set-ups in a run; the disk
        # set-up takes under a second, so five cost less than three here.
        "setup_repeats": 3,
        "why": "30k-node cyclic hub graph in memory: big frontiers, no store; set-up is the generator",
    },
    "disk-cold": {
        "graph": "dag20k",
        "storage": "disk",
        "cache": {"max_cached_nodes": 1024, "mode": "cold"},
        "setup_repeats": 5,
        "why": "20k-node hub DAG on a cold CGS1 store, cache below the query working set: the miss path dominates",
    },
    "disk-warm": {
        "graph": "dag20k",
        "storage": "disk",
        "cache": {"max_cached_nodes": 20_000, "mode": "warm"},
        "setup_repeats": 5,
        "warm_pass": True,
        "why": "same store and pairs, whole graph cached: every timed read is a hit, so hits and per-query cost dominate",
    },
}

FLOOR_PAIRS = 16
FLOOR_REPEATS = 5
# At least two passes, so every outcome is seen to repeat. A traced run
# alternates untraced and traced passes; the untraced ones give the
# per-visit times and the base of trace.overhead.
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "postpone_stretch": "ratio",
}

# Per-layer metric -> (unit, end-to-end metric it should move, the
# workloads it should move it on). A layer a workload does not touch
# reads 0 there. The search counters are invariants: a change in them
# is a changed traversal, not a speed-up.
_INVARIANT = "none (invariant)"
LAYERS = {
    "ingest.generate_s": ("s", "setup_s", ["mem-hub"]),
    "ingest.import_jsonl_s": ("s", "setup_s", ["disk-cold", "disk-warm"]),
    "store.build_s": ("s", "setup_s", ["disk-cold", "disk-warm"]),
    "store.open_s": ("s", "setup_s", ["disk-cold", "disk-warm"]),
    "model.access_us_per_call": ("us", "queries_per_s", ["mem-hub"]),
    "model.access_share": ("ratio", "query_p50_ms", ["mem-hub"]),
    "store.reads_per_query": ("count", "query_p95_ms", ["disk-cold"]),
    "store.meta_reads_per_query": ("count", "query_p95_ms", ["disk-cold"]),
    "store.misses_per_query": ("count", "query_p95_ms", ["disk-cold"]),
    "store.hit_ratio": ("ratio", "query_p95_ms", ["disk-cold"]),
    "store.miss_us": ("us", "query_p50_ms", ["disk-cold"]),
    "store.hit_us": ("us", "queries_per_s", ["disk-warm"]),
    "store.access_share": ("ratio", "query_p50_ms", ["disk-cold", "disk-warm"]),
    "search.visited_per_query": ("count", _INVARIANT, []),
    "search.probes_per_query": ("count", _INVARIANT, []),
    "search.postponements_per_query": ("count", _INVARIANT, []),
    "search.steps_per_query": ("count", _INVARIANT, []),
    "search.self_us_per_query": ("us", "queries_per_s", ["mem-hub"]),
    **{f"search.us_per_visit.{label}": ("us", "query_p95_ms", ["mem-hub"]) for label in CONFIGS},
    "search.floor_us": ("us", "query_p50_ms", ["disk-warm"]),
    "trace.overhead": ("ratio", "none (cost of tracing)", []),
}
