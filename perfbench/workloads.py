"""Set-up, timed query passes and metrics of one workload run.

A run sets the workload up ``setup_repeats`` times, then runs whole
passes over its queries (every pair under every search config, in an
order drawn from the run seed) until another pass would overrun the
time budget. Every answer is checked against the scipy oracle, every
query's outcome must repeat exactly in every pass, and the outcomes of
each config must hash to the digest stored in ``inputs.json``. Times
are scaled to the reference machine speed of ``speed.py``.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import graphs
import spec
from speed import REFERENCE_SECONDS, Speed
from tracing import AccessProxy, Spans

HERE = Path(__file__).resolve().parent
INPUTS_FILE = HERE / "inputs.json"
OUT_DIR = HERE / "out"


class BenchmarkError(Exception):
    """Inputs, answers or repeated outcomes did not check out."""


@dataclass(frozen=True)
class Query:
    key: int  # position in canonical order: pair-major, config-minor
    s: int
    t: int
    stratum: str
    label: str
    config: object
    distance: float


def load_inputs() -> dict:
    return json.loads(INPUTS_FILE.read_text(encoding="utf-8"))


def search_configs(cp) -> dict:
    enums = {"algorithm": cp.Algorithm, "frontier_policy": cp.FrontierPolicy}
    return {
        label: cp.SearchConfig(
            **{k: enums[k](v) if k in enums else v for k, v in kwargs.items()}
        )
        for label, kwargs in spec.CONFIGS.items()
    }


def synthetic_spec(cp, graph: dict, seed: int):
    return cp.SyntheticSpec(
        node_count=graph["node_count"],
        out_degree=graph["out_degree"],
        hub_count=graph["hub_count"],
        hub_indegree=graph["hub_indegree"],
        seed=seed,
        acyclic=graph["acyclic"],
    )


def edge_arrays(graph) -> tuple[np.ndarray, np.ndarray]:
    """(callers, callees) of a program graph, read through the access
    contract, sorted by (caller, callee)."""
    edges = [(u, v) for u in range(graph.node_count) for v in graph.successors(u)]
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def check_edges(src, dst, expected: str, what: str) -> None:
    digest = graphs.edge_digest(src, dst)
    if digest != expected:
        raise BenchmarkError(f"{what}: edge digest {digest[:16]} != stored {expected[:16]}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Setup:
    """Builds the workload's graph from inputs in hand to ready to query."""

    def __init__(self, cp, workload: str, input_set: str, stored: dict):
        self.cp = cp
        self.workload = spec.WORKLOADS[workload]
        self.recipe = spec.GRAPHS[self.workload["graph"]]
        self.seed = spec.INPUT_SETS[input_set]["graph_seed"]
        self.stored = stored
        self.src = self.dst = None
        self.jsonl = None
        if self.recipe["source"] == "perfbench":
            g = self.recipe
            self.src, self.dst, hubs = graphs.hub_dag(
                g["node_count"], g["out_degree"], g["hub_count"], g["hub_indegree"], self.seed
            )
            check_edges(self.src, self.dst, stored["edge_digest"], "perfbench hub DAG")
            self.jsonl = graphs.jsonl_text(g["node_count"], self.src, self.dst, hubs)
        self.store_path = OUT_DIR / f"{workload}-{os.getpid()}.cgs"
        self.handle = None

    def run(self, spans: Spans | None) -> tuple[object, dict[str, float]]:
        """One set-up; returns the graph to query and the wall seconds
        of each phase."""
        cp = self.cp
        phases: dict[str, float] = {}
        with _span(spans, "setup") as root:
            parent = root["id"] if root else None

            def phase(name, fn, *args):
                with _span(spans, name, parent):
                    t0 = perf_counter()
                    value = fn(*args)
                    phases[name] = perf_counter() - t0
                return value

            if self.jsonl is None:
                graph = phase(
                    "ingest.generate",
                    cp.generate_synthetic,
                    synthetic_spec(cp, self.recipe, self.seed),
                )
            else:
                self.close()
                cache = self.workload["cache"]
                config = cp.CacheConfig(
                    max_cached_nodes=cache["max_cached_nodes"],
                    latency_per_miss=0.0,
                    mode=cp.CacheMode(cache["mode"]),
                )
                memory = phase("ingest.import_jsonl", lambda: cp.import_jsonl(io.StringIO(self.jsonl)))
                phase("store.build", cp.build_store, memory, self.store_path)
                del memory
                graph = self.handle = phase("store.open", cp.open_store, self.store_path, config)
        return graph, phases

    def edges(self, graph) -> tuple[np.ndarray, np.ndarray]:
        """The benchmark's own copy of the edge list, checked against
        the digest stored with the inputs."""
        if self.src is None:
            self.src, self.dst = edge_arrays(graph)
            check_edges(self.src, self.dst, self.stored["edge_digest"], "generated graph")
        return self.src, self.dst

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None
        self.store_path.unlink(missing_ok=True)


def _span(spans: Spans | None, name: str, parent: int | None = None, **attrs):
    return nullcontext() if spans is None else spans.span(name, parent, **attrs)


# ---------------------------------------------------------------------------
# Queries and their checks
# ---------------------------------------------------------------------------


def build_queries(pairs, configs: dict, oracle: graphs.Oracle) -> list[Query]:
    queries = []
    for s, t, stratum in pairs:
        distance = oracle.distance(s, t)
        for label, config in configs.items():
            queries.append(Query(len(queries), s, t, stratum, label, config, distance))
    return queries


def run_query(cp, graph, q: Query, store: bool):
    """Time one ``run_search``; returns (seconds, outcome, result).

    The outcome is the query's determinism tuple: path, visited counts,
    probes, postponements, steps and, on a store, its reads, hits and
    misses. A raised exception becomes the outcome and result is None.
    """
    if store:
        graph.reset_stats()
    t0 = perf_counter()
    try:
        result = cp.run_search(graph, q.s, q.t, q.config)
    except Exception as exc:  # a failed query is counted, not fatal
        return perf_counter() - t0, ("raised", type(exc).__name__, str(exc)), None
    elapsed = perf_counter() - t0
    outcome = (
        result.status.value,
        tuple((e.caller, e.callee) for e in result.path),
        result.visited_forward,
        result.visited_backward,
        result.probe_count,
        result.postponements,
        result.steps,
    )
    if store:
        st = graph.access_stats()
        outcome += (st.meta_reads, st.adjacency_reads, st.cache_hits, st.cache_misses)
    return elapsed, outcome, result


def answer_error(q: Query, outcome, result, oracle: graphs.Oracle) -> str | None:
    """Why the answer to ``q`` is wrong, or None when it is right."""
    if result is None:
        return f"raised {outcome[1]}: {outcome[2]}"
    reachable = math.isfinite(q.distance)
    if result.found != reachable:
        return f"status {result.status.value}, oracle distance {q.distance}"
    if not reachable:
        return None
    error = oracle.path_error(q.s, q.t, outcome[1])
    if error is not None:
        return error
    if result.length != len(result.path):
        return f"length {result.length} for a path of {len(result.path)} edges"
    if q.label in spec.EXACT_CONFIGS and result.length != q.distance:
        return f"length {result.length}, oracle distance {q.distance:.0f}"
    return None


class Ledger:
    """Outcome of every query, checked once against the oracle and then
    required to repeat exactly in every later pass."""

    def __init__(self, queries: list[Query], oracle: graphs.Oracle):
        self.queries = queries
        self.oracle = oracle
        self.outcomes: list[tuple | None] = [None] * len(queries)
        self.errors: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, q: Query, outcome, result) -> None:
        self.attempted += 1
        first = self.outcomes[q.key]
        if first is None:
            self.outcomes[q.key] = outcome
            error = answer_error(q, outcome, result, self.oracle)
            if error is not None:
                self.errors[q.key] = error
        elif outcome != first:
            raise BenchmarkError(
                f"query {q.s}->{q.t} [{q.label}] changed between passes: {first} then {outcome}"
            )
        if q.key in self.errors:
            self.failed += 1

    def digests(self) -> dict[str, str]:
        """Per config, a hash of its outcomes in canonical order."""
        out = {}
        for label in spec.CONFIGS:
            h = hashlib.sha256()
            for q in self.queries:
                if q.label == label:
                    h.update(json.dumps(self.outcomes[q.key]).encode())
            out[label] = h.hexdigest()[:16]
        return out

    def lengths(self, labels) -> list[tuple[int, float]]:
        """(path length, oracle distance) of the found queries of ``labels``."""
        return [
            (len(self.outcomes[q.key][1]), q.distance)
            for q in self.queries
            if q.label in labels and self.outcomes[q.key][0] == "found"
        ]


@dataclass
class Pass:
    """One pass over the queries, indexed by query key."""

    raw: np.ndarray  # wall seconds of each query
    scale: np.ndarray  # machine-speed scale of each query (speed.py)
    access: list[dict] | None  # traced passes: access totals of each query

    @property
    def seconds(self) -> np.ndarray:
        return self.raw * self.scale


def run_pass(cp, graph, queries, order, store: bool, ledger=None, speed=None, spans=None) -> Pass:
    """Run ``queries`` in ``order``. With ``spans`` the graph is an
    AccessProxy and every query gets a span holding its access totals."""
    raw = np.zeros(len(queries))
    marks = np.zeros(len(queries), dtype=np.int64)
    access = [{}] * len(queries) if spans is not None else None
    for key in order:
        q = queries[key]
        if speed is not None:
            marks[key] = speed.mark()
        if spans is None:
            raw[key], outcome, result = run_query(cp, graph, q, store)
        else:
            with spans.span("search.run_search", key=q.key, label=q.label, stratum=q.stratum) as span:
                raw[key], outcome, result = run_query(cp, graph, q, store)
                access[key] = span["access"] = graph.take()
        if ledger is not None:
            ledger.record(q, outcome, result)
    scale = speed.scales(marks) if speed is not None else np.ones(len(queries))
    return Pass(raw, scale, access)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Ready:
    """A workload set up and ready to query, with its checked queries."""

    setup: Setup
    graph: object
    phases: list[dict[str, float]]  # scaled seconds of each phase, per set-up
    raw_setup_s: list[float]
    store: bool
    adj: object
    src: np.ndarray
    dst: np.ndarray
    configs: dict
    queries: list[Query]
    ledger: Ledger

    @property
    def setup_s(self) -> list[float]:
        return [sum(phases.values()) for phases in self.phases]


def prepare(cp, workload: str, input_set: str, stored: dict, repeats: int, speed=None, spans=None) -> Ready:
    """Set ``workload`` up ``repeats`` times and build its queries. The
    caller closes ``ready.setup``."""
    graph_name = spec.WORKLOADS[workload]["graph"]
    setup = Setup(cp, workload, input_set, stored[graph_name])
    OUT_DIR.mkdir(exist_ok=True)
    try:
        phases, raw_setup_s = [], []
        graph = None
        for _ in range(repeats):
            graph = None
            gc.collect()
            before = speed.settled() if speed else None
            graph, seconds = setup.run(spans)
            scale = REFERENCE_SECONDS / ((before + speed.settled()) / 2) if speed else 1.0
            phases.append({name: s * scale for name, s in seconds.items()})
            raw_setup_s.append(sum(seconds.values()))
        src, dst = setup.edges(graph)
        adj = graphs.csr(graph.node_count, src, dst)
        pairs = stored[graph_name]["pairs"]
        oracle = graphs.Oracle(adj, [s for s, _, _ in pairs])
        configs = search_configs(cp)
        queries = build_queries(pairs, configs, oracle)
        store = spec.WORKLOADS[workload]["storage"] == "disk"
        if spec.WORKLOADS[workload].get("warm_pass"):
            run_pass(cp, graph, queries, range(len(queries)), store)
    except BaseException:
        setup.close()
        raise
    return Ready(
        setup, graph, phases, raw_setup_s, store, adj, src, dst, configs, queries, Ledger(queries, oracle)
    )


def run(cp, workload: str, seed: int, seconds: float, traced: bool, input_set: str) -> dict:
    """Run ``workload`` once; returns {"correct", "attempted", "failed",
    "errors", "extras", "metrics"}. Raises BenchmarkError when inputs or
    repeated outcomes do not check out."""
    stored = load_inputs()[input_set]
    spans = Spans() if traced else None
    OUT_DIR.mkdir(exist_ok=True)
    speed = Speed(OUT_DIR)
    try:
        repeats = spec.WORKLOADS[workload]["setup_repeats"]
        ready = prepare(cp, workload, input_set, stored, repeats, speed, spans)
    except BaseException:
        speed.close()
        raise
    queries, ledger = ready.queries, ready.ledger
    try:
        rng = np.random.Generator(np.random.PCG64(seed))
        proxy = AccessProxy(ready.graph) if traced else None
        plain: list[Pass] = []
        instrumented: list[Pass] = []
        gc.collect()
        start = perf_counter()
        while True:
            order = rng.permutation(len(queries))
            if traced and len(plain) > len(instrumented):
                instrumented.append(
                    run_pass(cp, proxy, queries, order, ready.store, ledger, speed, spans)
                )
            else:
                plain.append(run_pass(cp, ready.graph, queries, order, ready.store, ledger, speed))
            done = len(plain) + len(instrumented)
            elapsed = perf_counter() - start
            balanced = not traced or len(plain) == len(instrumented)
            if done >= spec.MIN_PASSES and balanced and elapsed * (done + 1) / done > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ledgers = [ledger]
        if traced:
            floor_s, floor_ledger = _floor(cp, ready, seed, speed)
            ledgers.append(floor_ledger)
        errors = [
            f"{lg.queries[k].s}->{lg.queries[k].t} [{lg.queries[k].label}]: {e}"
            for lg in ledgers
            for k, e in sorted(lg.errors.items())
        ]
        if not errors:
            digests = ledger.digests()
            expected = stored["digests"][workload]
            changed = [label for label in digests if digests[label] != expected[label]]
            if changed:
                raise BenchmarkError(f"outcomes differ from the stored digests of {', '.join(changed)}")
        result = {
            "correct": not errors,
            "attempted": sum(lg.attempted for lg in ledgers),
            "failed": sum(lg.failed for lg in ledgers),
            "errors": errors,
            "extras": _extras(ledger, plain, ready, speed, input_set, seed),
            "metrics": {},
        }
        if errors:
            return result
        if traced:
            result["metrics"] = _layer_metrics(ready, plain, instrumented, floor_s)
            spans.write(OUT_DIR / f"trace-{workload}-{input_set}-seed{seed}.jsonl")
        else:
            result["metrics"] = _end_to_end(ledger, plain, ready, peak_rss_mb)
        return result
    finally:
        ready.setup.close()
        speed.close()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile_95(values: np.ndarray) -> tuple[float, int]:
    """Nearest-rank 95th percentile and the number of samples above it."""
    ordered = np.sort(values)
    rank = math.ceil(0.95 * len(ordered))
    return float(ordered[rank - 1]), len(ordered) - rank


def _extras(ledger: Ledger, plain: list[Pass], ready: Ready, speed: Speed, input_set: str, seed: int) -> dict:
    excess = [length - distance for length, distance in ledger.lengths(spec.POSTPONE_CONFIGS)]
    raw = np.concatenate([p.raw for p in plain])
    return {
        "input_set": input_set,
        "seed": seed,
        "passes": len(plain),
        "queries_per_pass": len(ledger.queries),
        "query_fail_rate": ledger.failed / ledger.attempted,
        "attempted": ledger.attempted,
        "p95_samples": len(raw),
        "p95_samples_beyond": percentile_95(raw)[1],
        "postpone_excess_edges": statistics.fmean(excess) if excess else 0.0,
        "postpone_found": len(excess),
        "reference_kernel_ms": statistics.median(speed.samples) * 1e3,
        "raw_setup_s": statistics.median(ready.raw_setup_s),
        "raw_query_p50_ms": float(np.median(raw)) * 1e3,
        "raw_query_p95_ms": percentile_95(raw)[0] * 1e3,
        "raw_queries_per_s": len(raw) / float(raw.sum()),
    }


def _end_to_end(ledger: Ledger, plain: list[Pass], ready: Ready, peak_rss_mb: float) -> dict:
    times = np.concatenate([p.seconds for p in plain])
    lengths = ledger.lengths(spec.POSTPONE_CONFIGS)
    return {
        "setup_s": statistics.median(ready.setup_s),
        "query_p50_ms": float(np.median(times)) * 1e3,
        "query_p95_ms": percentile_95(times)[0] * 1e3,
        "queries_per_s": len(times) / float(times.sum()),
        "peak_rss_mb": peak_rss_mb,
        "postpone_stretch": sum(l for l, _ in lengths) / sum(d for _, d in lengths),
    }


def _floor(cp, ready: Ready, seed: int, speed: Speed) -> tuple[float, Ledger]:
    """Median ``run_search`` seconds over one-edge pairs under every
    config, and the ledger that checked those answers."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    picks = rng.choice(len(ready.src), size=spec.FLOOR_PAIRS, replace=False)
    pairs = [(int(ready.src[i]), int(ready.dst[i]), "edge") for i in picks]
    oracle = graphs.Oracle(ready.adj, [s for s, _, _ in pairs])
    queries = build_queries(pairs, ready.configs, oracle)
    ledger = Ledger(queries, oracle)
    everything = range(len(queries))
    run_pass(cp, ready.graph, queries, everything, ready.store)
    passes = [
        run_pass(cp, ready.graph, queries, everything, ready.store, ledger, speed)
        for _ in range(spec.FLOOR_REPEATS)
    ]
    return float(np.median(np.concatenate([p.seconds for p in passes]))), ledger


def _layer_metrics(ready: Ready, plain: list[Pass], instrumented: list[Pass], floor_s: float) -> dict:
    store = ready.store
    per_key = np.mean([p.seconds for p in plain], axis=0)
    access_s = np.zeros(len(ready.queries))
    kinds: dict[str, list] = {}
    for p in instrumented:
        for key, totals in enumerate(p.access):
            for kind, (calls, secs, miss_calls, miss_secs) in totals.items():
                scale = p.scale[key]
                access_s[key] += secs * scale
                agg = kinds.setdefault(kind, [0, 0.0, 0, 0.0])
                agg[0] += calls
                agg[1] += secs * scale
                agg[2] += miss_calls
                agg[3] += miss_secs * scale
    access_s /= len(instrumented)
    reads = [kinds[k] for k in ("successors", "predecessors", "method_meta")]
    calls = sum(r[0] for r in reads)
    secs = sum(r[1] for r in reads)
    miss_calls = sum(r[2] for r in reads)
    miss_secs = sum(r[3] for r in reads)
    share = float(access_s.sum() / per_key.sum())

    outcomes = ready.ledger.outcomes
    visited = np.array([o[2] + o[3] for o in outcomes], dtype=float)
    io_counts = np.array([o[7:11] if store else (0, 0, 0, 0) for o in outcomes], dtype=float)
    labels = np.array([q.label for q in ready.queries])

    def setup_phase(name):
        durations = [phases[name] for phases in ready.phases if name in phases]
        return statistics.median(durations) if durations else 0.0

    def qps(passes):
        return len(passes) * len(ready.queries) / float(sum(p.seconds.sum() for p in passes))

    metrics = {
        "ingest.generate_s": setup_phase("ingest.generate"),
        "ingest.import_jsonl_s": setup_phase("ingest.import_jsonl"),
        "store.build_s": setup_phase("store.build"),
        "store.open_s": setup_phase("store.open"),
        "model.access_us_per_call": 0.0 if store else secs / calls * 1e6,
        "model.access_share": 0.0 if store else share,
        "store.reads_per_query": float(io_counts[:, 0:2].sum(axis=1).mean()),
        "store.meta_reads_per_query": float(io_counts[:, 0].mean()),
        "store.misses_per_query": float(io_counts[:, 3].mean()),
        "store.hit_ratio": float(io_counts[:, 2].sum() / io_counts[:, 0:2].sum()) if store else 0.0,
        "store.miss_us": miss_secs / miss_calls * 1e6 if miss_calls else 0.0,
        "store.hit_us": (secs - miss_secs) / (calls - miss_calls) * 1e6 if store else 0.0,
        "store.access_share": share if store else 0.0,
        "search.visited_per_query": float(visited.mean()),
        "search.probes_per_query": statistics.fmean(o[4] for o in outcomes),
        "search.postponements_per_query": statistics.fmean(o[5] for o in outcomes),
        "search.steps_per_query": statistics.fmean(o[6] for o in outcomes),
        "search.self_us_per_query": float((per_key - access_s).mean()) * 1e6,
    }
    for label in spec.CONFIGS:
        mask = labels == label
        metrics[f"search.us_per_visit.{label}"] = float(per_key[mask].sum() / visited[mask].sum()) * 1e6
    metrics["search.floor_us"] = floor_s * 1e6
    metrics["trace.overhead"] = qps(instrumented) / qps(plain)
    return metrics


def record_digests(cp, workload: str, input_set: str, stored: dict) -> dict[str, str]:
    """Run every query of ``workload`` once, check the answers, and
    return the per-config outcome digests to store with the inputs."""
    ready = prepare(cp, workload, input_set, stored, 1)
    try:
        run_pass(cp, ready.graph, ready.queries, range(len(ready.queries)), ready.store, ready.ledger)
    finally:
        ready.setup.close()
    if ready.ledger.errors:
        raise BenchmarkError(f"{workload}: {len(ready.ledger.errors)} wrong answers")
    return ready.ledger.digests()
