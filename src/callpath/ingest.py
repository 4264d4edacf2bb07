"""Graph import/export and synthetic graph generation.

The interchange format is JSONL: one record per line, UTF-8. Node
records must precede any edge that references them::

    {"record": "node", "id": 0, "method": "transmit", "class": "Tranceiver",
     "kind": "concrete", "file": "Tranceiver.java", "line": 12}
    {"record": "edge", "caller": 0, "callee": 3}

``id`` is any unique JSON scalar chosen by the producer; dense integer
node ids are assigned in node-record order. ``kind`` is one of
interface | abstract | concrete; a missing kind defaults to concrete
with a warning. ``file`` and ``line`` are optional.

The synthetic generator reproduces the structural regimes the search
benchmarks need: a random background digraph (fixed edge probability or
fixed out-degree) plus a configurable number of high-indegree "hub"
nodes flagged interface/abstract, mimicking how widely-implemented
interface methods accumulate callers. Output is a pure function of the
spec: the random source is numpy's PCG64 stream seeded from ``seed``,
and the stream is read in a fixed order, which is what fixes the graph:

1. one ``choice(pool length, hub_count, replace=False)`` for the hubs;
2. the background: with ``out_degree``, one ``choice(pool length, k,
   replace=False)`` per node whose pool is not empty, in id order;
   with ``edge_probability``, ``node_count`` uniforms per node, in id
   order;
3. one ``choice(pool length, hub_indegree, replace=False)`` per hub, in
   id order, over the nodes that may still call it.

Every draw is of indices into a pool, never of the pool itself, and an
index maps to a node id arithmetically. ``choice(array)`` is
``array[choice(len(array))]`` for the same stream, so these are the
draws a per-node pool array would make; tests/test_generator_golden.py
pins the graphs they give.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import CallpathError, JsonlFormatError, SyntheticSpecError
from .model import ClassKind, Direction, InMemoryGraph, MethodMeta, NodeId, check_node

_KIND_NAMES = {kind.value: kind for kind in ClassKind}

# "Few vs many" reachability boundary, as a fraction of the node count,
# and the dominance ratio for the lopsided regimes.
MANY_FRACTION = 0.05
DOMINANCE_RATIO = 5.0


# ---------------------------------------------------------------------------
# JSONL import / export
# ---------------------------------------------------------------------------


def import_jsonl(lines: Iterable[str] | IO[str]) -> InMemoryGraph:
    """Build a graph from a JSONL record stream.

    Raises JsonlFormatError (with the line number) on malformed JSON,
    unknown record or kind values, duplicate node ids, or edges that
    reference an id not yet declared. Duplicate edges are deduplicated.
    Both errors name the file when the stream has a ``name`` (an open
    text file does); a text file whose bytes are not UTF-8 raises a
    CallpathError.
    """
    metas: list[MethodMeta] = []
    id_map: dict[object, int] = {}  # keyed by _id_key
    callers: list[int] = []
    callees: list[int] = []
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):
                obj = _decode(line, lineno)
            if not isinstance(obj, dict):
                raise JsonlFormatError(lineno, "record must be a JSON object")
            record = obj.get("record")
            if record == "node":
                metas.append(_parse_node(obj, lineno, id_map, len(metas)))
            elif record == "edge":
                caller, callee = _parse_edge(obj, lineno, id_map)
                callers.append(caller)
                callees.append(callee)
            else:
                raise JsonlFormatError(lineno, f"unknown record type {record!r}")
    except JsonlFormatError as exc:
        name = getattr(lines, "name", None)
        if name is None:
            raise
        raise JsonlFormatError(exc.lineno, exc.detail, source=name) from exc
    except UnicodeDecodeError as exc:  # from a text file's line iterator
        name = getattr(lines, "name", "input")
        raise CallpathError(f"{name}: not UTF-8 text ({exc.reason})") from exc
    return InMemoryGraph(metas, np.array([callers, callees], dtype=np.int64).T)


# The C scanner behind json.loads, without its per-call wrapping. A line
# decodes when it scans to its end; any other line goes to _decode,
# which names the fault exactly as json.loads does.
_scan_once = json.decoder.JSONDecoder().scan_once


def _decode(line: str, lineno: int) -> object:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise JsonlFormatError(lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise JsonlFormatError(lineno, "invalid JSON: nesting too deep") from exc
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise JsonlFormatError(lineno, f"invalid JSON: {exc}") from exc


def _id_key(value) -> object:
    """Dict key of a JSON id. ``true == 1 == 1.0`` in Python, so ids other
    than ints and strings are keyed together with their type."""
    return value if type(value) is int or type(value) is str else (type(value), value)


def _parse_node(obj: dict, lineno: int, id_map: dict, next_id: int) -> MethodMeta:
    if "id" not in obj:
        raise JsonlFormatError(lineno, "node record missing 'id'")
    key = obj["id"]
    if isinstance(key, (dict, list)):
        raise JsonlFormatError(lineno, "node id must be a JSON scalar")
    if _id_key(key) in id_map:
        raise JsonlFormatError(lineno, f"duplicate node id {key!r}")
    method = obj.get("method")
    cls = obj.get("class")
    if not method or not isinstance(method, str):
        raise JsonlFormatError(lineno, "node record needs a non-empty 'method'")
    if not cls or not isinstance(cls, str):
        raise JsonlFormatError(lineno, "node record needs a non-empty 'class'")
    if "kind" in obj:
        kind_name = obj["kind"]
        kind = _KIND_NAMES.get(kind_name) if isinstance(kind_name, str) else None
        if kind is None:
            raise JsonlFormatError(
                lineno,
                f"unknown kind {kind_name!r} (expected one of {sorted(_KIND_NAMES)})",
            )
    else:
        warnings.warn(
            f"line {lineno}: node {key!r} has no 'kind'; defaulting to concrete",
            stacklevel=3,
        )
        kind = ClassKind.CONCRETE
    file = obj.get("file", "")
    line_no = obj.get("line", 0)
    if not isinstance(file, str):
        raise JsonlFormatError(lineno, "'file' must be a string")
    if isinstance(line_no, bool) or not isinstance(line_no, int) or line_no < 0:
        raise JsonlFormatError(lineno, "'line' must be a non-negative integer")
    id_map[_id_key(key)] = next_id
    return MethodMeta(
        node=next_id,
        method_name=method,
        class_name=cls,
        class_kind=kind,
        file=file,
        line=line_no,
    )


def _parse_edge(obj: dict, lineno: int, id_map: dict) -> tuple[int, int]:
    try:
        caller_key = obj["caller"]
        callee_key = obj["callee"]
    except KeyError as exc:
        raise JsonlFormatError(lineno, f"edge record missing {exc.args[0]!r}") from exc
    try:
        caller, callee = _id_key(caller_key), _id_key(callee_key)
        if caller not in id_map:
            raise JsonlFormatError(lineno, f"edge references undeclared caller id {caller_key!r}")
        if callee not in id_map:
            raise JsonlFormatError(lineno, f"edge references undeclared callee id {callee_key!r}")
    except TypeError as exc:  # a list or object does not hash, and no node id is one
        raise JsonlFormatError(lineno, "edge caller and callee must be JSON scalars") from exc
    return id_map[caller], id_map[callee]


def iter_jsonl(graph) -> Iterator[str]:
    """Yield the graph's JSONL lines: nodes in id order, then edges
    sorted by (caller, callee). Optional file/line fields are omitted
    when unset, so exports of identical graphs are byte-identical."""
    for u in range(graph.node_count):
        meta = graph.method_meta(u)
        record: dict[str, object] = {
            "record": "node",
            "id": u,
            "method": meta.method_name,
            "class": meta.class_name,
            "kind": meta.class_kind.value,
        }
        if meta.file:
            record["file"] = meta.file
        if meta.line:
            record["line"] = meta.line
        yield json.dumps(record, ensure_ascii=False)
    for u in range(graph.node_count):
        for v in graph.successors(u):
            yield json.dumps({"record": "edge", "caller": u, "callee": v})


def export_jsonl(graph) -> str:
    """The full JSONL text for a graph (trailing newline included)."""
    return "\n".join(iter_jsonl(graph)) + "\n"


# ---------------------------------------------------------------------------
# Synthetic graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic recipe for a synthetic call graph.

    Exactly one of ``edge_probability`` (independent Bernoulli per
    ordered pair) or ``out_degree`` (fixed number of distinct targets
    per node, where available) describes the background edges. On top
    of those, ``hub_count`` nodes are flagged ``hub_kind`` and wired
    with exactly ``hub_indegree`` additional incoming edges from
    distinct callers, so every hub ends with indegree >= hub_indegree.
    With ``acyclic`` set, all edges point from lower to higher node id.
    """

    node_count: int
    edge_probability: float | None = None
    out_degree: int | None = None
    hub_count: int = 0
    hub_indegree: int = 1
    hub_kind: ClassKind = ClassKind.INTERFACE
    seed: int = 0
    acyclic: bool = False

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise SyntheticSpecError("node_count must be positive")
        if (self.edge_probability is None) == (self.out_degree is None):
            raise SyntheticSpecError(
                "exactly one of edge_probability or out_degree must be set"
            )
        if self.edge_probability is not None and not 0.0 <= self.edge_probability <= 1.0:
            raise SyntheticSpecError("edge_probability must lie in [0, 1]")
        if self.out_degree is not None and self.out_degree < 0:
            raise SyntheticSpecError("out_degree must be non-negative")
        if not 0 <= self.hub_count <= self.node_count:
            raise SyntheticSpecError("hub_count must lie in [0, node_count]")
        if self.hub_indegree < 1:
            raise SyntheticSpecError("hub_indegree must be positive")
        if self.hub_count > 0 and self.hub_indegree > self.node_count - 1:
            raise SyntheticSpecError(
                f"hub_indegree {self.hub_indegree} infeasible with "
                f"{self.node_count} nodes"
            )


def generate_synthetic(spec: SyntheticSpec) -> InMemoryGraph:
    """Generate the graph described by ``spec``; identical spec, identical graph."""
    n = spec.node_count
    rng = np.random.Generator(np.random.PCG64(spec.seed))

    # Hub selection first so the stream layout is stable. Acyclic hubs
    # need hub_indegree callers with smaller ids, so only sufficiently
    # late nodes qualify.
    if spec.hub_count > 0:
        first_ok = spec.hub_indegree if spec.acyclic else 0
        if n - first_ok < spec.hub_count:
            raise SyntheticSpecError(
                f"cannot place {spec.hub_count} acyclic hubs of indegree "
                f"{spec.hub_indegree} in {n} nodes"
            )
        hubs = np.sort(rng.choice(n - first_ok, size=spec.hub_count, replace=False) + first_ok)
    else:
        hubs = np.empty(0, dtype=np.int64)
    hub_set = set(hubs.tolist())

    metas = [
        MethodMeta(
            node=u,
            method_name=f"m{u}",
            class_name=f"C{u}",
            class_kind=spec.hub_kind if u in hub_set else ClassKind.CONCRETE,
        )
        for u in range(n)
    ]

    if spec.edge_probability is not None:
        src, dst = _bernoulli_edges(rng, n, spec.edge_probability, spec.acyclic)
    else:
        src, dst = _out_degree_edges(rng, n, spec.out_degree or 0, spec.acyclic)

    # Hub wiring happens after the background edges and never replaces
    # one: callers are drawn from nodes not already calling the hub, so
    # each hub gains exactly hub_indegree new incoming edges.
    hub_src = []
    for h in hubs.tolist():
        eligible = np.ones(h if spec.acyclic else n, dtype=bool)
        eligible[src[dst == h]] = False
        if not spec.acyclic:
            eligible[h] = False
        pool = np.flatnonzero(eligible)
        if len(pool) < spec.hub_indegree:
            raise SyntheticSpecError(
                f"hub {h}: only {len(pool)} eligible callers for indegree "
                f"{spec.hub_indegree}"
            )
        hub_src.append(pool[rng.choice(len(pool), size=spec.hub_indegree, replace=False)])

    callers = np.concatenate([src, *hub_src])
    callees = np.concatenate([dst, np.repeat(hubs, spec.hub_indegree)])
    return InMemoryGraph(metas, np.column_stack([callers, callees]))


def _bernoulli_edges(rng, n: int, p: float, acyclic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Edge u -> v for every ordered pair whose uniform draw is below p;
    row u draws its n uniforms with one ``rng.random(n)``, in id order."""
    src, dst = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    if p > 0.0:
        for u in range(n):
            v = np.flatnonzero(rng.random(n) < p)
            v = v[v > u] if acyclic else v[v != u]
            src.append(np.full(len(v), u, dtype=np.int64))
            dst.append(v)
    return np.concatenate(src), np.concatenate(dst)


def _out_degree_edges(rng, n: int, d: int, acyclic: bool) -> tuple[np.ndarray, np.ndarray]:
    """min(d, pool) distinct callees per node: the later nodes when
    acyclic, every other node otherwise. In id order, each node with a
    non-zero count draws that many indices into its pool; index i of
    node u's pool is node u + 1 + i when acyclic, else i below u and
    i + 1 from u on."""
    sizes = n - 1 - np.arange(n) if acyclic else np.full(n, n - 1)
    counts = np.minimum(d, sizes)
    choice = rng.choice
    idx = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [choice(size, size=k, replace=False) for size, k in zip(sizes.tolist(), counts.tolist()) if k]
    )
    src = np.repeat(np.arange(n), counts)
    return src, idx + src + 1 if acyclic else idx + (idx >= src)


# ---------------------------------------------------------------------------
# Reachability and regime classification
# ---------------------------------------------------------------------------


def reachable_count(graph, start: NodeId, direction: Direction) -> int:
    """Size of the BFS closure from ``start`` in ``direction``, excluding start."""
    return len(reachable_set(graph, start, direction))


def reachable_set(graph, start: NodeId, direction: Direction) -> set[NodeId]:
    """All nodes reachable from ``start`` (start itself excluded even on cycles)."""
    start = check_node(start, graph.node_count)
    step = graph.successors if direction is Direction.FORWARD else graph.predecessors
    seen: set[NodeId] = {start}
    queue: deque[NodeId] = deque([start])
    while queue:
        u = queue.popleft()
        for v in step(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    seen.discard(start)
    return seen


class Regime(Enum):
    """Endpoint-pair shape by the sizes of the two relevant closures.

    P1: forward closure dominates the backward one (>= 5x).
    P2: both closures small (<= 5% of the graph).
    P3: backward closure dominates the forward one.
    P4: both closures large.
    """

    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"

    @property
    def label(self) -> str:
        return f"{self.value}-like"


@dataclass(frozen=True)
class PairProfile:
    initial: NodeId
    final: NodeId
    forward_count: int
    backward_count: int
    regime: Regime


def regime_for_counts(forward: int, backward: int, node_count: int) -> Regime:
    """Classification rule on raw closure sizes.

    A count is "few" when it is at most max(1, MANY_FRACTION * nodes)
    and a side dominates when it is DOMINANCE_RATIO times the other.
    Both-few wins first (P2), then dominance with a genuinely large
    winner (P1/P3), then both-large (P4); mixed leftovers fall to
    whichever side is bigger. The floor of 1 keeps closure-size-1
    endpoints "few" on toy graphs where 5% rounds below one node.
    """
    threshold = max(1.0, MANY_FRACTION * node_count)
    few_f = forward <= threshold
    few_b = backward <= threshold
    if few_f and few_b:
        return Regime.P2
    if forward >= DOMINANCE_RATIO * backward and not few_f:
        return Regime.P1
    if backward >= DOMINANCE_RATIO * forward and not few_b:
        return Regime.P3
    if not few_f and not few_b:
        return Regime.P4
    return Regime.P1 if forward >= backward else Regime.P3


def classify_pair(graph, initial: NodeId, final: NodeId) -> PairProfile:
    """Profile a pair by |forward closure of initial| and |backward closure of final|."""
    fwd = reachable_count(graph, initial, Direction.FORWARD)
    bwd = reachable_count(graph, final, Direction.BACKWARD)
    return PairProfile(
        initial=initial,
        final=final,
        forward_count=fwd,
        backward_count=bwd,
        regime=regime_for_counts(fwd, bwd, graph.node_count),
    )
