"""Core call-graph data model and the in-memory backend.

A call graph is a directed graph whose nodes are methods and whose
edges point from a caller method to a callee method. Nodes carry the
source-level metadata (most importantly the kind of the enclosing
class) that the postponing search variants consult.

Any object with ``node_count``, ``successors``, ``predecessors`` and
``method_meta`` satisfies the graph-access contract; :class:`InMemoryGraph`
here and ``store.DiskGraph`` are the two backends. The search kernel
looks up each optional method once per query:

* ``begin_query()`` is called when a search starts (the disk backend
  empties a cold cache there and notes its read counters); without it
  nothing is called.
* ``class_kind(u)`` returns ``method_meta(u).class_kind`` and is what a
  postponement probe calls, so a backend can answer it without building
  the whole record. Without it a probe calls ``method_meta(u)`` and
  reads the field, with the same result.
* ``readers()`` returns three ``(lookup, load)`` pairs, for forward
  runs, backward runs and class kinds. The kernel reads node u as
  ``lookup(u)``, and calls ``load(u)`` only when that returns None.
  Neither checks u, since the kernel passes only ids it read from the
  graph. Both backends have it: an ``InMemoryGraph`` lookup never
  misses; a store's lookups count nothing and its loads count the read
  they make.
* ``end_query(runs, kinds)`` receives, once per query and even when
  the query raised, the number of run and kind reads it made. Only the
  store has it: the reads its loads did not count were lookup hits,
  and it counts them so.

A backend without ``readers`` gets lookups that never hit and its
contract methods (``class_kind``, or the ``method_meta`` fallback) as
loads, so every read is one checked contract call, as any wrapper or
proxy around a backend expects; without ``end_query`` nothing is
reported.

The search kernel reads an :class:`InMemoryGraph` through more than
the contract. Rounds with a large frontier run as array operations over
its CSR arrays (``csr``) and postponement tests over its per-node kind
codes (``kind_codes``). A store has both, and a ``replay`` that counts
the reads of such a round, handed over in the order the per-node body
would have made them, as its loads would have; a backend runs array
rounds only when it has all three. A store whose lookups can hit starts
each query on list tables and moves to array tables at its first large
round (see ``search``). Any other backend is searched node by node.

Graphs are immutable once built, so concurrent readers are safe; the
per-node objects an :class:`InMemoryGraph` builds on first read are
covered in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AmbiguousNameError, InvalidNodeError, NameNotFoundError

NodeId = int


class Direction(Enum):
    """Edge-traversal direction: FORWARD follows caller->callee edges."""

    FORWARD = "forward"
    BACKWARD = "backward"


class ClassKind(Enum):
    """Kind of a method's enclosing class; drives the postponement predicate."""

    INTERFACE = "interface"
    ABSTRACT = "abstract"
    CONCRETE = "concrete"


_KINDS = tuple(ClassKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}


class Edge(NamedTuple):
    """Directed caller -> callee edge. One edge stands for any number of call sites."""

    caller: NodeId
    callee: NodeId


@dataclass(frozen=True)
class MethodMeta:
    """A node's identity plus the source properties the search may probe.

    ``file`` may be empty and ``line`` 0 when the importer had no
    position information. ``class_kind`` is always resolved; importers
    default missing kinds to CONCRETE rather than guessing INTERFACE,
    which would silently trigger postponement.
    """

    node: NodeId
    method_name: str
    class_name: str
    class_kind: ClassKind
    file: str = ""
    line: int = 0

    def __post_init__(self) -> None:
        if not self.method_name:
            raise ValueError("method_name must be non-empty")
        if not self.class_name:
            raise ValueError("class_name must be non-empty")
        if self.line < 0:
            raise ValueError("line must be non-negative")

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.method_name}"


#: A ``readers()`` lookup that never hits, so every read goes to the load.
NO_LOOKUP = {}.get


def check_node(u: object, node_count: int) -> int:
    """Return node id ``u`` as a Python ``int`` if it lies in ``[0, node_count)``.

    Python and numpy integers are accepted; ``bool`` and every other
    type raise InvalidNodeError, as does an out-of-range id. This is the
    one node-id check every backend, search and closure entry point uses.
    """
    if type(u) is not int:
        if isinstance(u, bool) or not isinstance(u, (int, np.integer)):
            raise InvalidNodeError(u, node_count)
        u = int(u)
    if not 0 <= u < node_count:
        raise InvalidNodeError(u, node_count)
    return u


class NodeColumns(NamedTuple):
    """The metadata of every node as columns indexed by node id: what the
    ``MethodMeta`` records hold, without an object per node.
    ``class_kinds`` holds each kind's index in ``tuple(ClassKind)`` as
    int8; ``files`` is empty and ``lines`` 0 where a node has no position."""

    method_names: tuple[str, ...]
    class_names: tuple[str, ...]
    class_kinds: np.ndarray
    files: tuple[str, ...]
    lines: tuple[int, ...]


class InMemoryGraph:
    """Call graph held fully in memory.

    Each direction is stored in one CSR layout, the same one the CGS1
    store serialises: ``node_count + 1`` int64 offsets and an int64 id
    array in which node u's run ``ids[offsets[u]:offsets[u + 1]]`` is
    sorted ascending and duplicate-free. Node metadata is stored as
    :class:`NodeColumns`. Node ids are dense, assigned in construction
    order.

    What the access contract serves is built on first read: each run
    as a tuple of Python ints (``successors``, ``predecessors``,
    ``readers``, ``edges``), each node's ``ClassKind`` (``class_kind``,
    ``readers``) and its ``MethodMeta`` (``method_meta``). So a graph
    that is only written to a store (``build_store`` reads the columns
    and the CSR arrays) never builds them. Each is one
    ``cached_property``. On Python 3.12 and later, two threads that read
    one at once may both build it: each gets a complete, equal,
    immutable value, and the later assignment replaces the earlier, so
    any reader sees the same answers. On 3.10 and 3.11,
    ``cached_property`` holds a lock while it builds, so the builds run
    one after the other. Either way the graph needs no lock of its own.
    """

    def __init__(
        self, nodes: Sequence[MethodMeta], edges: Iterable[tuple[int, int]] | np.ndarray
    ):
        """``edges`` is an iterable of (caller, callee) pairs or an
        ``(m, 2)`` integer array; duplicates are dropped."""
        for i, meta in enumerate(nodes):
            if meta.node != i:
                raise ValueError(f"node record {i} carries id {meta.node}; ids must be dense")
        columns = NodeColumns(
            tuple([meta.method_name for meta in nodes]),
            tuple([meta.class_name for meta in nodes]),
            np.fromiter([_KIND_CODES[meta.class_kind] for meta in nodes], np.int8, len(nodes)),
            tuple([meta.file for meta in nodes]),
            tuple([meta.line for meta in nodes]),
        )
        self._fill(columns, edges)
        self._metas = tuple(nodes)

    @classmethod
    def from_columns(
        cls, columns: NodeColumns, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "InMemoryGraph":
        """The graph of ``InMemoryGraph(nodes, edges)`` whose nodes are
        ``columns``, without building a ``MethodMeta`` per node. The
        columns are checked as ``MethodMeta`` checks one record."""
        n = len(columns.method_names)
        if any(len(column) != n for column in columns):
            raise ValueError(f"node columns differ in length: {[len(column) for column in columns]}")
        if not all(columns.method_names):
            raise ValueError("method_name must be non-empty")
        if not all(columns.class_names):
            raise ValueError("class_name must be non-empty")
        if n and min(columns.lines) < 0:
            raise ValueError("line must be non-negative")
        codes = np.asarray(columns.class_kinds)
        if n and (codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= len(_KINDS)):
            raise ValueError(f"class kind codes must lie in [0, {len(_KINDS)})")
        graph = cls.__new__(cls)
        graph._fill(columns, edges)
        return graph

    def _fill(self, columns: NodeColumns, edges) -> None:
        n = len(columns.method_names)
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
                raise ValueError(f"edge array must be (m, 2) integers, got {edges.shape} {edges.dtype}")
            pairs = edges
        else:
            pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero((pairs < 0) | (pairs >= n))
        if len(bad):
            raise InvalidNodeError(int(pairs.flat[bad[0]]), n)
        # One packed key per edge sorts by (caller, callee) and drops
        # duplicates; max(n, 1) keeps the unpacking defined on no nodes.
        # A sort and a mask: on 68k keys np.unique took 15 ms and this
        # under 2 ms (numpy 2.4, one shared vCPU).
        pairs = pairs.astype(np.int64, copy=False)
        width = max(n, 1)
        keys = np.sort(pairs[:, 0] * width + pairs[:, 1])
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        callers, callees = np.divmod(keys[first], width)
        by_callee = np.divmod(np.sort(callees * width + callers), width)
        self._csr_fwd = _csr(callers, callees, n)
        self._csr_bwd = _csr(*by_callee, n)
        self._edge_count = len(callers)
        self._node_count = n
        codes = np.array(columns.class_kinds, dtype=np.int8)
        codes.flags.writeable = False
        # tuple() of a tuple is the tuple itself; lists are copied, so no
        # caller can change a column the graph holds.
        self._columns = NodeColumns(
            tuple(columns.method_names), tuple(columns.class_names), codes, tuple(columns.files), tuple(columns.lines)
        )

    # ---- per-node objects, built on first read ------------------------------

    @cached_property
    def _node_ids(self) -> list[int]:
        # One int object per id, shared by the runs of both directions.
        return list(range(self._node_count))

    @cached_property
    def _fwd(self) -> tuple[tuple[int, ...], ...]:
        return _rows(*self._csr_fwd, self._node_ids)

    @cached_property
    def _bwd(self) -> tuple[tuple[int, ...], ...]:
        return _rows(*self._csr_bwd, self._node_ids)

    @cached_property
    def _kinds(self) -> tuple[ClassKind, ...]:
        return tuple(map(_KINDS.__getitem__, self._columns.class_kinds.tolist()))

    @cached_property
    def _metas(self) -> tuple[MethodMeta, ...]:
        c = self._columns
        return tuple(map(MethodMeta, self._node_ids, c.method_names, c.class_names, self._kinds, c.files, c.lines))

    # ---- access contract ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def successors(self, u: NodeId) -> tuple[int, ...]:
        """All v with an edge u -> v, sorted ascending."""
        return self._fwd[check_node(u, self._node_count)]

    def predecessors(self, u: NodeId) -> tuple[int, ...]:
        """All v with an edge v -> u, sorted ascending."""
        return self._bwd[check_node(u, self._node_count)]

    def method_meta(self, u: NodeId) -> MethodMeta:
        return self._metas[check_node(u, self._node_count)]

    def class_kind(self, u: NodeId) -> ClassKind:
        """``method_meta(u).class_kind``: the one field a search probe reads."""
        return self._kinds[check_node(u, self._node_count)]

    def readers(self):
        """The search kernel's unchecked reads: a ``(lookup, load)`` pair
        each for forward runs, backward runs and class kinds. Each lookup
        indexes a per-node tuple and never misses."""
        return (
            (self._fwd.__getitem__, self.successors),
            (self._bwd.__getitem__, self.predecessors),
            (self._kinds.__getitem__, self.class_kind),
        )

    # ---- helpers -------------------------------------------------------------

    def csr(self, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (offsets, ids) arrays of one direction."""
        return self._csr_fwd if direction is Direction.FORWARD else self._csr_bwd

    def columns(self) -> NodeColumns:
        """The node metadata as columns; ``class_kinds`` is ``kind_codes()``."""
        return self._columns

    def kind_codes(self) -> np.ndarray:
        """Each node's class kind as its index in ``tuple(ClassKind)``: a
        read-only int8 array."""
        return self._columns.class_kinds

    def __repr__(self) -> str:
        return f"InMemoryGraph(nodes={self.node_count}, edges={self.edge_count})"


def _csr(sources: np.ndarray, targets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and ids of edges already sorted by (source, target)."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
    ids = np.ascontiguousarray(targets)
    offsets.flags.writeable = ids.flags.writeable = False
    return offsets, ids


def _rows(offsets: np.ndarray, ids: np.ndarray, node_ids: list[int]) -> tuple[tuple[int, ...], ...]:
    """Every run as a tuple of Python ints. The ints come from the shared
    ``node_ids`` list, so each id is one object however many rows hold it
    (``tolist`` alone would allocate one int per edge and direction)."""
    values = list(map(node_ids.__getitem__, ids.tolist()))
    bounds = offsets.tolist()
    return tuple([tuple(values[a:b]) for a, b in zip(bounds, bounds[1:])])


def materialize(graph) -> InMemoryGraph:
    """Copy any graph-access backend into a fresh InMemoryGraph."""
    metas = [graph.method_meta(u) for u in range(graph.node_count)]
    edges = [(u, v) for u in range(graph.node_count) for v in graph.successors(u)]
    return InMemoryGraph(metas, edges)


def resolve_name(graph, qualified_name: str) -> NodeId:
    """Map a ``ClassName.methodName`` string to its unique node id.

    Raises NameNotFoundError when nothing matches and AmbiguousNameError
    (listing the candidate ids) when imported overloads collapsed onto
    one name. Works against any backend: it scans the node metadata
    once, so it costs one ``method_meta`` call per node.
    """
    candidates = [
        u
        for u in range(graph.node_count)
        if graph.method_meta(u).qualified_name == qualified_name
    ]
    if not candidates:
        raise NameNotFoundError(qualified_name)
    if len(candidates) > 1:
        raise AmbiguousNameError(qualified_name, candidates)
    return candidates[0]
