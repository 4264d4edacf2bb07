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

``import_jsonl`` reads the stream in chunks of a few thousand lines and
strips each line. A chunk whose lines have the form that ``iter_jsonl``
writes is read with a few calls over the whole chunk and never builds a
per-line dict. That form is: node lines, then edge lines; the keys in
the order above, with ``json.dumps``' default separators, and ``file``
and ``line`` each present or not; ids and lines as ASCII integers of at
most 18 digits without a leading zero or ``-0``; and strings without a
quote, a backslash or a control character. The i-th node line must
have the id i, and an edge's ids must be declared before it. Every
other line (other spacing or key order, escapes, other ids, a missing
kind, a blank line, a fault) is parsed on its own, by the same reader
that would read it if no line had the fast form, and so is every line
after it. The two readers share one state, so the graph, the warnings
and every error with its line number are the same whichever reads a
line.

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
import re
import warnings
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import CallpathError, JsonlFormatError, SyntheticSpecError
from .model import ClassKind, Direction, InMemoryGraph, NodeColumns, NodeId, check_node
from .store import _MAX_NODES

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
    columns = _Columns()
    try:
        for first, chunk in _chunks(lines):
            taken = _read_fast(chunk, columns)
            if taken < len(chunk):
                _read_lines(chunk[taken:], first + taken, columns)
    except JsonlFormatError as exc:
        name = getattr(lines, "name", None)
        if name is None:
            raise
        raise JsonlFormatError(exc.lineno, exc.detail, source=name) from exc
    except UnicodeDecodeError as exc:  # from a text file's line iterator
        name = getattr(lines, "name", "input")
        raise CallpathError(f"{name}: not UTF-8 text ({exc.reason})") from exc
    return columns.graph()


# Lines per chunk: enough that the per-chunk calls cost little per line,
# few enough that a chunk's strings and arrays stay near a megabyte.
_CHUNK_LINES = 4096


def _chunks(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """The stream's lines, stripped, in chunks, each with the line number
    of its first line. When reading raises (a text file whose bytes are
    not UTF-8 raises UnicodeDecodeError), the lines read before it are
    yielded first, so a fault on an earlier line is reported as it would
    be line by line."""
    stream = iter(lines)
    first = 1
    while True:
        chunk: list[str] = []
        try:
            chunk.extend(islice(stream, _CHUNK_LINES))
        except Exception:  # list.extend keeps the lines read before it
            yield first, list(map(str.strip, chunk))
            raise
        if not chunk:
            return
        # Rebinding drops the unstripped lines before the chunk is read.
        chunk = list(map(str.strip, chunk))
        yield first, chunk
        first += len(chunk)


class _Columns:
    """What the lines read so far declare: the node columns, the id map
    and the edges as arrays of dense (caller, callee) rows. Both readers
    add to it, so a stream can pass from the fast reader to the per-line
    one at any line."""

    def __init__(self) -> None:
        self.methods: list[str] = []
        self.classes: list[str] = []
        self.kinds = bytearray()  # ClassKind codes
        self.files: list[str] = []
        self.lines: list[int] = []
        self.edges: list[np.ndarray] = []
        # Dense id of each declared JSON id, keyed by _id_key. None until
        # a line is read on its own: till then the i-th node declared has
        # the JSON int id i, and edges need no lookup.
        self._id_map: dict[object, int] | None = None

    @property
    def dense_ids(self) -> bool:
        return self._id_map is None

    def id_map(self) -> dict[object, int]:
        if self._id_map is None:
            n = len(self.methods)
            self._id_map = dict(zip(range(n), range(n)))
        return self._id_map

    def graph(self) -> InMemoryGraph:
        edges = np.concatenate(self.edges) if self.edges else np.empty((0, 2), dtype=np.int64)
        kinds = np.frombuffer(self.kinds, dtype=np.int8)
        return InMemoryGraph.from_columns(
            NodeColumns(tuple(self.methods), tuple(self.classes), kinds, tuple(self.files), tuple(self.lines)),
            edges,
        )


# The fast form: the lines iter_jsonl and perfbench write. Keys in this
# order with json.dumps' default separators, ids ASCII ints of at most
# 18 digits (so int64) with one spelling each (no -0), and strings
# without a quote, backslash or control character (so without escapes).
_STR = r'[^"\\\x00-\x1f]'
_INT = r"(?:0|-?[1-9][0-9]{0,17})"
_FAST_NODE = re.compile(
    rf'^\{{"record": "node", "id": ({_INT}), "method": "({_STR}+)", "class": "({_STR}+)", '
    rf'"kind": "(?=([iac]))(?:interface|abstract|concrete)"(?:, "file": "({_STR}*)")?'
    rf'(?:, "line": (0|[1-9][0-9]{{0,17}}))?\}}$',
    re.MULTILINE,
)
_FAST_EDGE = re.compile(rf'\{{"record": "edge", "caller": {_INT}, "callee": {_INT}\}}\n')
_EDGE_START = '{"record": "edge"'
# Leaves an edge line's two ids and blanks the rest.
_ID_CHARS = {c: " " for c in range(128) if chr(c) not in "-0123456789"}
_KIND_CODE = {kind.value: code for code, kind in enumerate(ClassKind)}
# The fast form captures a kind's first letter: one-letter strings are
# shared objects, where the whole name would be a new string per line.
_KIND_CODE_BY_INITIAL = {name[0]: code for name, code in _KIND_CODE.items()}


def _read_fast(lines: list[str], columns: _Columns) -> int:
    """Read the leading lines of a chunk that are node lines, then edge
    lines, of the fast form, while the i-th node declared has the JSON
    int id i and every edge's ids are declared before it. Returns how
    many lines it read: none, the node lines, or all. The rest goes to
    ``_read_lines``, which reads them as it reads any line, so the
    result does not depend on which lines were read here."""
    if not columns.dense_ids:
        return 0
    blob = "\n".join(chain(lines, [""]))  # every line ends in a newline
    if blob.count("\n") != len(lines):  # a line holds a newline
        return 0
    cut = blob.find(_EDGE_START)
    if cut < 0:
        cut = len(blob)
    elif cut and blob[cut - 1] != "\n":
        return 0
    k = blob.count("\n", 0, cut)
    nodes = _FAST_NODE.findall(blob, 0, cut)
    if len(nodes) != k:
        return 0
    if k:
        ids, methods, classes, kinds, files, line_numbers = zip(*nodes)
        del nodes
        keys = np.fromstring(" ".join(ids), dtype=np.int64, sep=" ")
        base = len(columns.methods)
        if not np.array_equal(keys, np.arange(base, base + k)):
            return 0
        columns.methods.extend(methods)
        columns.classes.extend(classes)
        columns.kinds.extend(map(_KIND_CODE_BY_INITIAL.__getitem__, kinds))
        columns.files.extend(files)
        columns.lines.extend([int(line) if line else 0 for line in line_numbers])
    edges = blob[cut:]
    # Removing every edge line of the fast form must leave nothing. (A
    # fullmatch of the repeated line holds a backtracking frame per line.)
    if k == len(lines) or _FAST_EDGE.sub("", edges):
        return k
    ends = np.fromstring(edges.translate(_ID_CHARS), dtype=np.int64, sep=" ")
    if ends.min() < 0 or ends.max() >= len(columns.methods):
        return k
    columns.edges.append(ends.reshape(-1, 2))
    return len(lines)


def _read_lines(lines: list[str], first: int, columns: _Columns) -> None:
    """Read stripped lines one at a time; ``first`` is the line number
    of the first."""
    id_map = columns.id_map()
    callers: list[int] = []
    callees: list[int] = []
    for lineno, line in enumerate(lines, start=first):
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
            _parse_node(obj, lineno, id_map, columns)
        elif record == "edge":
            caller, callee = _parse_edge(obj, lineno, id_map)
            callers.append(caller)
            callees.append(callee)
        else:
            raise JsonlFormatError(lineno, f"unknown record type {record!r}")
    if callers:
        columns.edges.append(np.array([callers, callees], dtype=np.int64).T)


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


def _parse_node(obj: dict, lineno: int, id_map: dict, columns: _Columns) -> None:
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
        code = _KIND_CODE.get(kind_name) if isinstance(kind_name, str) else None
        if code is None:
            raise JsonlFormatError(
                lineno,
                f"unknown kind {kind_name!r} (expected one of {sorted(_KIND_CODE)})",
            )
    else:
        warnings.warn(
            f"line {lineno}: node {key!r} has no 'kind'; defaulting to concrete",
            stacklevel=4,  # the caller of import_jsonl
        )
        code = _KIND_CODE[ClassKind.CONCRETE.value]
    file = obj.get("file", "")
    line_no = obj.get("line", 0)
    if not isinstance(file, str):
        raise JsonlFormatError(lineno, "'file' must be a string")
    if isinstance(line_no, bool) or not isinstance(line_no, int) or line_no < 0:
        raise JsonlFormatError(lineno, "'line' must be a non-negative integer")
    for field, text in (("method", method), ("class", cls), ("file", file)):
        # Only a JSON escape of a lone surrogate makes a str that UTF-8
        # cannot encode; the store and the exporter write UTF-8.
        if not text.isascii():
            try:
                text.encode()
            except UnicodeEncodeError:
                raise JsonlFormatError(lineno, f"{field!r} does not encode as UTF-8 (a lone surrogate)") from None
    id_map[_id_key(key)] = len(columns.methods)
    columns.methods.append(method)
    columns.classes.append(cls)
    columns.kinds.append(code)
    columns.files.append(file)
    columns.lines.append(line_no)


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
        if self.node_count >= _MAX_NODES:
            raise SyntheticSpecError(f"node_count must be below {_MAX_NODES}, the CGS1 format limit")
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
    kinds = np.full(n, _KIND_CODE[ClassKind.CONCRETE.value], dtype=np.int8)
    kinds[hubs] = _KIND_CODE[spec.hub_kind.value]
    columns = NodeColumns(
        tuple(map("m{}".format, range(n))), tuple(map("C{}".format, range(n))), kinds, ("",) * n, (0,) * n
    )

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
    return InMemoryGraph.from_columns(columns, np.column_stack([callers, callees]))


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
