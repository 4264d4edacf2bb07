"""Scenario harness: regime-classified node pairs x algorithm variants
x storage conditions, with deterministic tabular reports.

A scenario names a graph source (JSONL file, synthetic spec, or a
prebuilt store), the endpoint pairs to query, the algorithm
configurations to compare, the storage condition, and a repetition
count. Every (pair, algorithm) cell runs ``repetitions`` times; all
counters must agree across repetitions (any divergence is a hard
error), so only the timing columns carry noise. On a store, each cell
opens a fresh handle, and its read, hit, miss and latency columns are
one query's, the first repetition's; in memory they are zero. A disk
scenario without a prebuilt store gets one built in a temporary
directory, which is removed with the report. Reports render as CSV
(fixed column set, one row per cell), versioned JSON, or Markdown
tables grouped per metric.

Timing measures the search call only; graph loading, store building
and store opening are excluded. Absolute times are environment-bound,
so comparisons should read the visited counts and the per-report
ratios rather than the raw seconds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidNodeError, ScenarioError
from .ingest import (
    PairProfile,
    Regime,
    SyntheticSpec,
    classify_pair,
    generate_synthetic,
    import_jsonl,
)
from .model import ClassKind, InMemoryGraph, NodeId, check_node, graph_readers, materialize, resolve_name
from .search import Algorithm, FrontierPolicy, SearchConfig, run_search
from .store import AccessStats, CacheConfig, CacheMode, _latency_from_ms, build_store, open_store

SCENARIO_SCHEMA = "callpath-scenario@1"
REPORT_SCHEMA = "callpath-report@1"

#: Columns whose values are wall-clock noise; everything else is deterministic.
TIMING_COLUMNS = ("mean_elapsed_s", "stddev_elapsed_s")


@dataclass(frozen=True)
class PairSpec:
    """An endpoint pair, by node id or qualified name, with an optional
    regime expectation that run_scenario re-checks."""

    initial: int | str
    final: int | str
    regime: Regime | None = None


@dataclass(frozen=True)
class StorageCondition:
    on_disk: bool = False
    cache: CacheConfig = field(default_factory=CacheConfig)

    def describe(self) -> str:
        if not self.on_disk:
            return "memory"
        return (
            f"disk(cache={self.cache.max_cached_nodes},"
            f"latency={self.cache.latency_per_miss}s,{self.cache.mode.value})"
        )


@dataclass(frozen=True)
class Scenario:
    graph_jsonl: Path | None = None
    synthetic: SyntheticSpec | None = None
    store_path: Path | None = None
    pairs: tuple[PairSpec, ...] = ()
    algorithms: tuple[SearchConfig, ...] = ()
    condition: StorageCondition = field(default_factory=StorageCondition)
    repetitions: int = 3

    def __post_init__(self) -> None:
        sources = [
            s for s in (self.graph_jsonl, self.synthetic, self.store_path) if s is not None
        ]
        if len(sources) != 1:
            raise ScenarioError("scenario needs exactly one graph source")
        if self.repetitions < 1:
            raise ScenarioError("repetitions must be at least 1")
        if not self.pairs:
            raise ScenarioError("scenario has no pairs")
        if not self.algorithms:
            raise ScenarioError("scenario has no algorithms")


@dataclass(frozen=True)
class ReportRow:
    """One (pair, algorithm) cell of a report; its fields are the CSV
    columns, in order.

    ``timing_valid`` is always True and says nothing about the cell: the
    column is kept because the CSV column list is append-only."""

    initial: int
    final: int
    initial_name: str
    final_name: str
    forward_reach: int
    backward_reach: int
    regime: str
    algorithm: str
    frontier_policy: str
    status: str
    path_length: int
    visited_forward: int
    visited_backward: int
    visited_total: int
    postponements: int
    probe_count: int
    steps: int
    repetitions: int
    mean_elapsed_s: float
    stddev_elapsed_s: float
    timing_valid: bool
    meta_reads: int
    adjacency_reads: int
    cache_hits: int
    cache_misses: int
    injected_latency_s: float


#: Column order of the CSV emitter: ReportRow's fields. Frozen, append-only.
CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


def access_columns(stats: AccessStats) -> dict:
    """A handle's read counters under their report column names, the last
    five columns of a row, in column order."""
    return {
        "meta_reads": stats.meta_reads,
        "adjacency_reads": stats.adjacency_reads,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "injected_latency_s": stats.injected_latency_total,
    }


@dataclass(frozen=True)
class ScenarioReport:
    environment: dict
    rows: tuple[ReportRow, ...]


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file; relative paths resolve against the file.

    Every field is type-checked here (a JSON boolean is not an integer),
    so a malformed document fails with a ScenarioError naming the field.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise ScenarioError(f"cannot read scenario {path}: JSON nesting too deep") from exc
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        return _parse_scenario(doc, path.parent)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_scenario(doc, base: Path) -> Scenario:
    _typed(doc, dict, "scenario")
    _known(doc, _SCENARIO_KEYS, "scenario")
    schema = doc.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"unsupported schema {schema!r}")

    graph = doc.get("graph")
    if not isinstance(graph, dict) or len(graph) != 1:
        raise ScenarioError("'graph' must name exactly one source")
    graph_jsonl = synthetic = store_path = None
    if "jsonl" in graph:
        graph_jsonl = (base / _field(graph, "jsonl", str, "graph")).resolve()
    elif "synthetic" in graph:
        spec = _field(graph, "synthetic", dict, "graph")
        _known(spec, _SYNTHETIC_TYPES, "graph.synthetic")
        if "node_count" not in spec:
            raise ScenarioError("graph.synthetic.node_count is required")
        synthetic = SyntheticSpec(**_given(spec, _SYNTHETIC_TYPES, "graph.synthetic"))
    elif "store" in graph:
        store_path = (base / _field(graph, "store", str, "graph")).resolve()
    else:
        raise ScenarioError("graph source must be jsonl | synthetic | store")

    pairs = []
    for i, entry in enumerate(_field(doc, "pairs", list, "", [])):
        where = f"pairs[{i}]"
        _typed(entry, dict, where)
        _known(entry, ("initial", "final", "regime"), where)
        for key in ("initial", "final"):
            if key not in entry:
                raise ScenarioError(f"{where}.{key} is required")
        regime = _field(entry, "regime", Regime, where)
        pairs.append(PairSpec(entry["initial"], entry["final"], regime))

    algorithms = [
        _parse_algorithm(entry, f"algorithms[{i}]")
        for i, entry in enumerate(_field(doc, "algorithms", list, "", []))
    ]

    cond = _field(doc, "condition", dict, "", {})
    _known(cond, ("storage", "cache"), "condition")
    cache_doc = _field(cond, "cache", dict, "condition", {})
    where = "condition.cache"
    _known(cache_doc, _CACHE_TYPES, where)
    kwargs = _given(cache_doc, _CACHE_TYPES, where)
    # Checked whatever the storage, though only a store reads it.
    try:
        if "latency_per_miss_ms" in kwargs:
            kwargs["latency_per_miss"] = _latency_from_ms(kwargs.pop("latency_per_miss_ms"))
        cache = CacheConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    storage = cond.get("storage", "memory")
    if storage not in ("memory", "disk"):
        raise ScenarioError(f"unknown storage condition {storage!r}")
    condition = StorageCondition(on_disk=storage == "disk", cache=cache)

    return Scenario(
        graph_jsonl=graph_jsonl,
        synthetic=synthetic,
        store_path=store_path,
        pairs=tuple(pairs),
        algorithms=tuple(algorithms),
        condition=condition,
        **_given(doc, {"repetitions": int}, ""),
    )


def _parse_algorithm(entry, where: str) -> SearchConfig:
    _typed(entry, dict, where)
    _known(entry, _ALGORITHM_TYPES, where)
    if "algorithm" not in entry:
        raise ScenarioError(f"{where}.algorithm is required")
    kwargs = _given(entry, _ALGORITHM_TYPES, where)
    if "postpone_kinds" in kwargs:
        kwargs["postpone_kinds"] = frozenset(
            _typed(kind, ClassKind, f"{where}.postpone_kinds") for kind in kwargs["postpone_kinds"]
        )
    try:
        return SearchConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


#: Top-level fields of a scenario document.
_SCENARIO_KEYS = ("schema", "graph", "pairs", "algorithms", "condition", "repetitions")
#: JSON type of every field a scenario may set, for SyntheticSpec and SearchConfig.
_SYNTHETIC_TYPES = {
    "node_count": int,
    "edge_probability": float,
    "out_degree": int,
    "hub_count": int,
    "hub_indegree": int,
    "hub_kind": ClassKind,
    "seed": int,
    "acyclic": bool,
}
_ALGORITHM_TYPES = {
    "algorithm": Algorithm,
    "delay_steps": int,
    "probe_only": bool,
    "frontier_policy": FrontierPolicy,
    "postpone_kinds": list,
}
#: JSON type of every field of ``condition.cache``; the latency is in milliseconds.
_CACHE_TYPES = {"max_cached_nodes": int, "latency_per_miss_ms": float, "mode": CacheMode}
_TYPE_NAMES = {
    int: "an integer", float: "a finite number", str: "a string",
    bool: "a boolean", dict: "an object", list: "a list",
}


def _known(obj: dict, keys, where: str) -> None:
    """Reject fields outside ``keys``, so a misspelt one is not silently ignored."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {unknown}")


def _field(obj: dict, key: str, kind: type, where: str, default=None):
    """``obj[key]`` checked by ``_typed``, or ``default`` when absent."""
    if key not in obj:
        return default
    return _typed(obj[key], kind, f"{where}.{key}" if where else key)


def _given(obj: dict, types: dict, where: str) -> dict:
    """The fields of ``obj`` that ``types`` names, each checked by ``_typed``;
    the ones absent are left to the defaults of the class they build."""
    return {key: _field(obj, key, types[key], where) for key in obj if key in types}


def _typed(value, kind: type, name: str):
    """Return ``value`` as a JSON ``kind``, or an Enum ``kind`` member.

    A boolean is not an ``int``; ``float`` takes any finite number.
    """
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise ScenarioError(f"{name} must be one of {choices}, got {value!r}") from None
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok or (kind is float and not math.isfinite(value)):
        raise ScenarioError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _load_base_graph(scenario: Scenario) -> InMemoryGraph:
    if scenario.synthetic is not None:
        return generate_synthetic(scenario.synthetic)
    if scenario.graph_jsonl is not None:
        with scenario.graph_jsonl.open("r", encoding="utf-8") as fh:
            return import_jsonl(fh)
    with open_store(scenario.store_path) as handle:
        return materialize(handle)


def _resolve_pair(graph: InMemoryGraph, spec: PairSpec) -> tuple[int, int]:
    def one(value: int | str) -> int:
        if isinstance(value, str):
            return resolve_name(graph, value)
        try:
            return check_node(value, graph.node_count)
        except InvalidNodeError as exc:
            raise ScenarioError(f"pair {exc}") from exc

    return one(spec.initial), one(spec.final)


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Execute every (pair, algorithm) cell and assemble the report.

    Rows appear in deterministic order (pairs outer, algorithms inner).
    On-disk scenarios without a prebuilt store get one built in a
    temporary directory, removed before this returns.
    """
    base = _load_base_graph(scenario)
    resolved: list[tuple[int, int, PairProfile]] = []
    for spec in scenario.pairs:
        s, t = _resolve_pair(base, spec)
        profile = classify_pair(base, s, t)
        if spec.regime is not None and profile.regime is not spec.regime:
            raise ScenarioError(
                f"pair ({spec.initial}, {spec.final}) expected regime "
                f"{spec.regime.value}, classified {profile.regime.value} "
                f"(forward={profile.forward_count}, backward={profile.backward_count})"
            )
        resolved.append((s, t, profile))
    on_disk = scenario.condition.on_disk

    def run_cell(s: int, t: int, profile: PairProfile, config: SearchConfig) -> ReportRow:
        with open_store(store_path, scenario.condition.cache) if on_disk else nullcontext(base) as handle:
            # I/O is one query's, like the other counters: the first
            # repetition's, from the fresh handle's empty cache.
            results = [run_search(handle, s, t, config)]
            stats = handle.access_stats() if on_disk else AccessStats()
            results += [run_search(handle, s, t, config) for _ in range(scenario.repetitions - 1)]
        first = results[0]
        if not all(first.same_traversal(other) for other in results[1:]):
            raise ScenarioError(
                f"nondeterministic counters for pair ({s}, {t}) algorithm {config.label}"
            )
        elapsed = [r.elapsed for r in results]
        return ReportRow(
            initial=s,
            final=t,
            initial_name=base.method_meta(s).qualified_name,
            final_name=base.method_meta(t).qualified_name,
            forward_reach=profile.forward_count,
            backward_reach=profile.backward_count,
            regime=profile.regime.label,
            algorithm=config.label,
            frontier_policy=config.frontier_policy.value,
            status=first.status.value,
            path_length=first.length,
            visited_forward=first.visited_forward,
            visited_backward=first.visited_backward,
            visited_total=first.visited_forward + first.visited_backward,
            postponements=first.postponements,
            probe_count=first.probe_count,
            steps=first.steps,
            repetitions=scenario.repetitions,
            mean_elapsed_s=statistics.fmean(elapsed),
            stddev_elapsed_s=statistics.stdev(elapsed) if len(elapsed) > 1 else 0.0,
            timing_valid=True,
            **access_columns(stats),
        )

    with tempfile.TemporaryDirectory(prefix="callpath-bench-") as workdir:
        store_path = scenario.store_path
        if on_disk and store_path is None:
            store_path = Path(workdir) / "scenario.cgs"
            build_store(base, store_path)
        rows = tuple(
            run_cell(s, t, profile, config)
            for (s, t, profile) in resolved
            for config in scenario.algorithms
        )

    environment = {
        "node_count": base.node_count,
        "edge_count": base.edge_count,
        "condition": scenario.condition.describe(),
        "repetitions": scenario.repetitions,
    }
    return ScenarioReport(environment=environment, rows=rows)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def emit_report(report: ScenarioReport, format: str = "csv") -> str:
    """Render a report as ``csv``, ``json`` or ``markdown`` text."""
    if format == "csv":
        return _emit_csv(report)
    if format == "json":
        return _emit_json(report)
    if format == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown report format {format!r}")


def _emit_csv(report: ScenarioReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(astuple(row) for row in report.rows)
    return buf.getvalue()


def _emit_json(report: ScenarioReport) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "environment": report.environment,
        "rows": [asdict(row) for row in report.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit_markdown(report: ScenarioReport) -> str:
    out = ["# Scenario report", ""]
    for key, value in report.environment.items():
        out.append(f"- {key}: {value}")
    out.append("")
    cells = {
        (f"{r.initial_name} -> {r.final_name} ({r.regime})", f"{r.algorithm}[{r.frontier_policy}]"): r
        for r in report.rows
    }
    pair_labels = list(dict.fromkeys(pair for pair, _ in cells))
    algo_labels = list(dict.fromkeys(algo for _, algo in cells))
    # Each table renders a cell from its row and the pair's row in the
    # first algorithm column; a missing cell prints "-".
    tables = [
        ("Mean elapsed (s)", lambda r, base: f"{r.mean_elapsed_s:.6f}"),
        ("Visited nodes (total)", lambda r, base: str(r.visited_total)),
        ("Visited forward", lambda r, base: str(r.visited_forward)),
        ("Visited backward", lambda r, base: str(r.visited_backward)),
    ]
    if algo_labels:
        # Ratio tables relative to the first algorithm column, so runs on
        # different machines stay comparable.
        baseline = algo_labels[0]
        tables += [
            (f"Mean elapsed relative to {baseline}", _ratio(lambda r: r.mean_elapsed_s)),
            (f"Visited total relative to {baseline}", _ratio(lambda r: r.visited_total)),
        ]
    for title, render in tables:
        out.append(f"## {title}")
        out.append("")
        out.append("| pair | " + " | ".join(algo_labels) + " |")
        out.append("|---" * (len(algo_labels) + 1) + "|")
        for pair in pair_labels:
            base = cells.get((pair, algo_labels[0]))
            values = []
            for algo in algo_labels:
                row = cells.get((pair, algo))
                values.append(render(row, base) if row is not None else "-")
            out.append(f"| {pair} | " + " | ".join(values) + " |")
        out.append("")
    return "\n".join(out)


def _ratio(value):
    """A cell renderer printing ``value(row) / value(base)``, or "-" when
    the pair has no baseline row or its value is zero."""

    def render(row: ReportRow, base: ReportRow | None) -> str:
        return f"{value(row) / value(base):.2f}x" if base is not None and value(base) else "-"

    return render


# ---------------------------------------------------------------------------
# Regime pair mining
# ---------------------------------------------------------------------------


def find_regime_pairs(
    graph,
    regime: Regime,
    sample_budget: int,
    seed: int = 0,
) -> list[tuple[NodeId, NodeId]]:
    """Sample distinct (initial, final) pairs that classify as ``regime``.

    Sampling is uniform over candidate endpoints; sides that must be
    "many" draw only from nodes with at least one edge in the relevant
    direction, since pure sinks/sources can never reach anything.
    Deterministic for a fixed seed; may return fewer than requested.

    The endpoint filter reads runs through ``model.graph_readers``, as
    the closures that classify each pair do, so they reuse the runs it
    decoded; it hands a store's ``end_query`` its reads, even when one
    raised, so the store counts them as contract calls would.
    """
    if sample_budget <= 0:
        return []
    n = graph.node_count
    if n == 0:
        return []
    needs_forward = regime in (Regime.P1, Regime.P4)
    needs_backward = regime in (Regime.P3, Regime.P4)
    read_fwd, read_bwd = graph_readers(graph)[:2]
    end_query = getattr(graph, "end_query", None)
    reads = 0  # counted before each read, as a contract call counts its own
    try:
        initials = [u for u in range(n) if (reads := reads + 1) and read_fwd(u)] if needs_forward else range(n)
        finals = [u for u in range(n) if (reads := reads + 1) and read_bwd(u)] if needs_backward else range(n)
    finally:
        # A traceback keeps this frame: drop the readers, as ``reachable_set`` does.
        read_fwd = read_bwd = None
        if end_query is not None:
            end_query(reads, 0)
    if not initials or not finals:
        return []
    rng = np.random.Generator(np.random.PCG64(seed))
    found: list[tuple[NodeId, NodeId]] = []
    seen: set[tuple[NodeId, NodeId]] = set()
    for _ in range(max(1000, 200 * sample_budget)):
        s = initials[int(rng.integers(len(initials)))]
        t = finals[int(rng.integers(len(finals)))]
        if s == t or (s, t) in seen:
            continue
        seen.add((s, t))
        if classify_pair(graph, s, t).regime is regime:
            found.append((s, t))
            if len(found) >= sample_budget:
                break
    return found
