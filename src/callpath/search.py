"""Shortest call-path search: unidirectional baseline, balanced
bidirectional search, and the postponing bidirectional variant.

``run_search(graph, initial, final, config)`` is the one search call:
``SearchConfig`` names the variant and its knobs, and every variant
runs one kernel, ``_search``. It treats every edge as weight one and
runs layered frontier expansion: each round picks one direction,
processes that direction's entire frontier in ascending node-id order,
and commits the next frontier only after the round finishes. The search stops the
moment a relaxation lands on a node currently sitting in the *opposite*
frontier (not merely the opposite visited set), which keeps visited
counts and meeting points reproducible at the cost of sometimes
detecting a meeting later than a visited-set check would. The
unidirectional baseline is the same kernel with an empty backward
frontier whose membership set is just the final node.

The postponing variant additionally inspects the class kind of every
backward-frontier node before expanding it. Methods of interface or
abstract classes tend to have many callers, so expanding them backward
floods the frontier; instead the node is parked in the frontier for a
fixed number of rounds (a "postponement") before it expands. The
kind lookup is a metadata *probe* and is counted, because on the disk
backend each probe can cost a read. ``probe_only`` performs the probes
but never postpones, isolating probe cost from postponement behavior.

Two frontier-selection policies are implemented because they explore
very different amounts of the graph:

* ``PAPER_LITERAL`` (the default) expands the forward frontier only
  when it is strictly *larger* than the backward one, ties going
  backward. While the backward frontier is alive the forward frontier
  therefore never grows past the start node, and the meeting point is
  always the start node itself; the search degenerates into a
  backward-only sweep.
* ``SMALLER_FIRST`` expands the smaller non-empty frontier (ties
  forward), the classical cardinality criterion; both searches
  genuinely advance.

The benchmark module reports both so their behavior can be compared.

Each round runs one of two bodies; both do exactly the same thing to the
frontier, so a round's body decides its speed, never the result. The
per-node body walks the frontier in order and, for each node, applies
its delay countdown, probe and postponement, then relaxes its neighbours
one by one. It runs on every backend and reads every one the same way,
through the three callables of ``graph.readers()`` (see ``model``): a
probe is ``read_kind(u)``, and an expansion one read of u's run in that
direction. An ``InMemoryGraph``'s readers index tuples; a store whose
cache holds every node serves its hits from C-level dicts; a backend
without ``readers`` is read through its checked contract methods. The
kernel counts its own reads: each query hands the store's ``end_query``
its visits and its probes once, in a ``finally``, and the store adds
them to its read counts, having counted only the misses. Each visit or
probe is counted before its read, so a read that raises leaves both
sides equal.

On an ``InMemoryGraph`` of at least ``_ARRAY_ROUND_MIN`` nodes, a round
whose frontier holds at least that many runs the array body,
``_array_round``, instead: it gathers every neighbour of the frontier
at once from the graph's CSR arrays and relaxes them with numpy. When
the nodes it expands share one distance, as in all but a few array
rounds, it keeps every relaxation that beats the round-start distances,
duplicates too, and settles them as it writes: each node takes its
lowest relaxer, which is its first in processing order. On the mem-hub
benchmark graph an array round of 96 to 127 nodes takes about 66 us,
most of it fixed cost, and rounds above 4,096 nodes about 0.11 us per
frontier node; node by node, a round costs about 1.5 us per node there
and about 0.5 us on small sparse graphs. ``_ARRAY_ROUND_MIN`` is a
constant set by timing both bodies (see its comment), not an option: it
moves no counter, only time.

An array round stops at its first possible meeting when the opposite
frontier holds one node m, as in every array round of ``uni`` (m is the
final node) and of a ``paper`` backward sweep (m is the initial node).
Only an expanding occurrence of one of m's neighbours the other way can
meet it, and ``_meeting_cut`` finds the first such position from the
CSR arrays of the other direction, skipping a node in ``delay`` and one
a probing round is about to postpone. The round runs ``_array_round``
on the frontier up to that position and, only if that part does not
meet, on the rest in the same step: the array body does everything the
per-node body does up to its last processed position, so the second
part starts from the state the per-node body has there. Over a mem-hub
pass this stops gathering 3.0M of the 9.4M edges its array rounds would
gather whole. When the opposite frontier holds several nodes, as in most
smaller-first rounds, the round runs whole.

An untraced query on a store runs the array body too, over the
store's ``csr`` and ``kind_codes``, which count nothing. The store still
counts every read in processing order: the round hands the store's
``replay`` its reads as the int64 array it built them in, cut at the
meeting node and in the order the per-node body would have made them,
and the store counts them with numpy (see ``store``). A traced store
query runs node by node, so a raising trace hook leaves the per-node
counts. Other backends have no CSR arrays and always run node by node.

A query costs the nodes it touches, not ``node_count``. A query that can
run array rounds from its start (on an ``InMemoryGraph`` of at least
``_ARRAY_ROUND_MIN`` nodes, or untraced on a store of that size whose
cache can evict) takes int32 arrays, ``_ArrayTables``, which its
per-node rounds index through memoryviews, and keeps them to its end. An
untraced query on a store whose cache holds every node
(``holds_every_node``) starts on lists, ``_Tables``: its per-node rounds
read hits with a C-level dict lookup and index lists, which a memoryview
read or an array round beats only in large rounds. Each of its per-node
rounds logs its next frontier, which holds every node the round wrote
but the meeting node. At its first round of at least ``_ARRAY_MOVE_MIN``
nodes it takes array tables, copies the endpoints and the logged nodes
across, hands the lists back and goes on as a query on array tables.
Every other query takes lists and keeps them. Both kinds are tables that
earlier queries handed back, taken under a distance offset that makes
their old entries read as "not reached", so nothing is allocated, filled
or reset per query; delays and postponements live in a dict and a set of
a few entries. Tables of length ``node_count`` are built only on first
use, when the graph size changes, and every ~2**30 / node_count queries
when the offset runs out. Each thread searching at the same time keeps
one spare set of each kind it used: about 28 * node_count bytes of
arrays and about 32 * node_count bytes of lists. Both kinds hold -1 for
no predecessor and ``_UNREACHED`` for an entry never written. Every
query reads its path off the prev tables it holds; ``return_state=True``
also builds a ``SearchState`` from the query's own tables before it
hands them back.

A query whose endpoints are equal meets before its first round, but it
takes the same path as every other: it takes and hands back tables, and
on a graph's first query it may build the graph's per-node objects (see
``model``) and the tables, and with ``return_state=True`` it returns a
``SearchState``, not None.

A round in which every occurrence of the chosen frontier sits out the
round only counts delays down, and the next round repeats it. An
untraced query counts such rounds at once, up to the one in which a
countdown would end; a traced one runs each, one event per occurrence.
So a huge ``delay_steps`` costs no more than a small one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from math import inf
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .errors import InternalSearchError
from .model import ClassKind, Direction, Edge, InMemoryGraph, NodeId, check_node, is_integer

DEFAULT_POSTPONE_KINDS = frozenset({ClassKind.INTERFACE, ClassKind.ABSTRACT})
DEFAULT_DELAY_STEPS = 3


class Algorithm(Enum):
    UNIDIRECTIONAL = "uni"
    BIDIR_BALANCED = "balanced"
    BIDIR_POSTPONE = "postpone"


class FrontierPolicy(Enum):
    PAPER_LITERAL = "paper"
    SMALLER_FIRST = "smaller"


class SearchStatus(Enum):
    FOUND = "found"
    NO_PATH = "no-path"


@dataclass(frozen=True)
class SearchConfig:
    """Algorithm variant plus its knobs.

    ``delay_steps`` is the number of frontier rounds a postponed node
    sits out (0 disables postponement entirely and reduces the
    postponing variant to the balanced one, probes included).
    ``probe_only`` keeps the metadata probes but never postpones;
    it is only meaningful for BIDIR_POSTPONE.
    """

    algorithm: Algorithm = Algorithm.BIDIR_POSTPONE
    delay_steps: int = DEFAULT_DELAY_STEPS
    probe_only: bool = False
    postpone_kinds: frozenset[ClassKind] = DEFAULT_POSTPONE_KINDS
    frontier_policy: FrontierPolicy = FrontierPolicy.PAPER_LITERAL

    def __post_init__(self) -> None:
        # A field of another type would run a different query, unrefused.
        if not isinstance(self.algorithm, Algorithm):
            raise ValueError(f"algorithm must be an Algorithm, got {self.algorithm!r}")
        if not isinstance(self.frontier_policy, FrontierPolicy):
            raise ValueError(f"frontier_policy must be a FrontierPolicy, got {self.frontier_policy!r}")
        kinds = self.postpone_kinds
        if not isinstance(kinds, frozenset) or not all(isinstance(kind, ClassKind) for kind in kinds):
            raise ValueError(f"postpone_kinds must be a frozenset of ClassKind, got {kinds!r}")
        if not is_integer(self.delay_steps):
            raise ValueError(f"delay_steps must be an integer, got {self.delay_steps!r}")
        if self.delay_steps < 0:
            raise ValueError("delay_steps must be non-negative")
        if not isinstance(self.probe_only, bool):
            raise ValueError(f"probe_only must be a bool, got {self.probe_only!r}")
        if self.probe_only and self.algorithm is not Algorithm.BIDIR_POSTPONE:
            raise ValueError("probe_only is only valid for the postponing algorithm")

    @property
    def label(self) -> str:
        """Short row label used by reports: uni, balanced, probe-only, postpone-N."""
        if self.algorithm is Algorithm.UNIDIRECTIONAL:
            return "uni"
        if self.algorithm is Algorithm.BIDIR_BALANCED:
            return "balanced"
        if self.probe_only:
            return "probe-only"
        return f"postpone-{self.delay_steps}"


class TraceEvent(NamedTuple):
    """One frontier-processing event; ``action`` is expanded | delayed | postponed."""

    step: int
    forward: bool
    node: NodeId
    action: str


@dataclass
class SearchState:
    """Raw per-query bookkeeping, exposed for tests.

    ``prev_forward[v]`` is v's predecessor on the tree grown from the
    initial node; ``prev_backward[v]`` is the node *through which the
    backward search reached v*, i.e. v's successor on the way to the
    final node. Distances default to infinity; the endpoints start at 0.
    ``delay`` maps each node still sitting out rounds to the rounds
    left, and ``postponed`` holds the nodes whose postponement fired.

    Only ``_search(..., return_state=True)`` builds one, from the
    query's own tables (reused from earlier queries, see ``_Tables``
    and ``_ArrayTables``), before it hands them back. It keeps the
    entries the query wrote, as lists of length ``node_count`` holding
    plain distances, ``None`` for no predecessor and ``inf`` for not
    reached, whichever tables the query ran on, and the frontiers as
    lists. A query with equal endpoints returns one too, which holds
    just the endpoint at distance 0 both ways.
    """

    todo_forward: list[NodeId]
    todo_backward: list[NodeId]
    prev_forward: list[NodeId | None]
    prev_backward: list[NodeId | None]
    dist_forward: list[float]
    dist_backward: list[float]
    delay: dict[NodeId, int]
    postponed: set[NodeId]
    intermed: NodeId | None


@dataclass(frozen=True)
class SearchResult:
    """Outcome plus the instrumentation counters the benchmarks report.

    ``visited_forward`` / ``visited_backward`` count nodes whose
    neighbor relaxation actually executed in that direction; a node
    sitting postponed in the frontier is not counted until it expands.
    ``steps`` counts frontier rounds (both directions combined).
    """

    status: SearchStatus
    path: tuple[Edge, ...]
    length: int
    meeting_point: NodeId | None
    visited_forward: int
    visited_backward: int
    postponements: int
    probe_count: int
    steps: int
    elapsed: float

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND

    def same_traversal(self, other: "SearchResult") -> bool:
        """True when everything but wall-clock time matches."""
        return replace(self, elapsed=0.0) == replace(other, elapsed=0.0)


def _join_chains(prev_f, prev_b, intermed: NodeId, initial: NodeId, final: NodeId) -> list[Edge]:
    """Stitch the two predecessor chains at the meeting node ``intermed``
    into one path. The prev tables are lists or int32 memoryviews, where
    -1 means no predecessor.

    The forward chain is walked from the meeting node back to the
    initial node and reversed, then the backward chain is walked from
    the meeting node to the final node. A chain that fails to terminate
    at its endpoint is an internal invariant violation."""
    chains = []
    for prev, end, name in ((prev_f, initial, "forward"), (prev_b, final, "backward")):
        chain = [intermed]
        for _ in range(len(prev) + 1):
            u = prev[chain[-1]]
            if u < 0:
                break
            chain.append(u)
        else:
            raise InternalSearchError(f"{name} predecessor chain does not terminate")
        if chain[-1] != end:
            raise InternalSearchError(f"{name} predecessor chain ends at {chain[-1]}, expected {end}")
        chains.append(chain)
    forward, backward = chains
    forward.reverse()
    return [Edge(u, v) for chain in (forward, backward) for u, v in zip(chain, chain[1:])]


#: A dist entry no query has written: above every ``base + d``.
_UNREACHED = 2**31 - 1


class _Tables:
    """The prev/dist lists of one query, kept for the next one.

    A prev of -1 means no predecessor, and an entry never written holds
    ``_UNREACHED``. Distances are stored as ``base + d``. Each reuse
    lowers ``base`` by ``n + 2``, more than any distance a query can
    record (a recorded distance is the length of a simple path, at most
    ``n - 1``), so every entry left by an earlier query compares larger
    than any distance of the current one and reads as "not reached":
    nothing is reset between queries. Only the endpoints' prev entries
    are cleared; every other node on a prev chain was relaxed by the
    current query.
    """

    __slots__ = ("prev_f", "prev_b", "dist_f", "dist_b", "base")

    def __init__(self, n: int) -> None:
        self.prev_f: list[NodeId] = [-1] * n
        self.prev_b: list[NodeId] = [-1] * n
        self.dist_f: list[int] = [_UNREACHED] * n
        self.dist_b: list[int] = [_UNREACHED] * n
        self.base = 0


class _ArrayTables:
    """The tables of a query that can run array rounds, from its start.

    ``prev[forward]`` and ``dist[forward]`` are int32 arrays, read and
    written by the array round; ``prev_f`` ... ``dist_b`` are memoryviews
    on them, which the per-node round indexes like the lists of
    ``_Tables``, under the same falling ``base`` and encoding.
    ``mark[v] == stamp`` says v sits in the opposite frontier; ``stamp``
    only rises, so a new marking clears nothing. ``scratch`` holds
    per-round working values.
    """

    __slots__ = ("prev", "dist", "prev_f", "prev_b", "dist_f", "dist_b", "mark", "stamp", "scratch", "base")

    def __init__(self, n: int) -> None:
        self.prev = {d: np.full(n, -1, np.int32) for d in (True, False)}
        self.dist = {d: np.full(n, _UNREACHED, np.int32) for d in (True, False)}
        self.prev_f, self.prev_b = memoryview(self.prev[True]), memoryview(self.prev[False])
        self.dist_f, self.dist_b = memoryview(self.dist[True]), memoryview(self.dist[False])
        self.mark = np.zeros(n, np.int32)
        self.stamp = 0
        self.scratch = np.empty(n, np.int64)
        self.base = 0

    def mark_nodes(self, nodes) -> None:
        """Make ``mark[v] == stamp`` hold for exactly the nodes given."""
        if self.stamp == _UNREACHED:  # the last int32 stamp: start over
            self.mark.fill(0)
            self.stamp = 0
        self.stamp += 1
        self.mark[_as_array(nodes)] = self.stamp


#: Tables handed back by finished queries, lists and arrays apart.
#: ``pop`` and ``append`` are atomic, so concurrent searches each take
#: their own set.
_SPARE_TABLES: list[_Tables] = []
_SPARE_ARRAYS: list[_ArrayTables] = []
#: Lowest ``base`` before the tables are rebuilt: it keeps every stored
#: distance a one-digit CPython int (magnitude below 2**30) and inside int32.
_BASE_FLOOR = 1 - 2**30
#: Frontier size from which a round on an ``InMemoryGraph`` runs as array
#: operations; smaller rounds run node by node. A graph of fewer nodes
#: never fills an array round with distinct nodes, so its queries take
#: the list tables and run node by node. Timed round by round on the
#: mem-hub benchmark queries, the array body wins from about 48 nodes.
#: With one-offer rounds settled as they write, 10 s perfbench runs (4
#: each in rotation, medians, queries/s) read 1,235 / 1,217 / 1,147 on
#: mem-hub, 1,426 / 1,366 / 1,302 on disk-cold and 2,039 / 2,026 / 2,034
#: on disk-warm at 64 / 96 / 128. In alternating pairs 64 against 96
#: won mem-hub (6 of 6, +5.4%) and disk-cold (5 of 6, +4.9%) but lost
#: disk-warm (3 of 8 won, -1.6%), and small sparse graphs, where a node
#: costs a third as much, are faster at 96: all pairs of the two
#: 200-node criterion-2 graphs under ``uni`` took 3.13 s at 96 and
#: 3.57 s at 64 (minimum of 5).
_ARRAY_ROUND_MIN = 96


#: Frontier size from which a query on a store whose cache holds every
#: node moves from list to array tables: its per-node rounds read hits
#: with a C-level dict lookup into lists, which array rounds beat only in
#: large rounds. Timed on the disk-warm benchmark (3 runs each), a move at
#: 256, 512 or 1,024 nodes gave +39%, +32% and +18% queries/s and +18%,
#: +15% and +10% median query time: a small query after a large one runs
#: on a CPU cache that array rounds left colder (see CHANGES.md).
_ARRAY_MOVE_MIN = 512


def _move_to_arrays(lists: _Tables, written, initial: NodeId, final: NodeId) -> _ArrayTables:
    """Spare array tables holding what the list tables ``lists`` hold for
    the current query, which hands the lists back. Only the endpoints and
    the nodes of ``written``, per direction the frontiers its rounds left,
    can hold a distance of this query; each is copied across with its
    distance moved from the lists' base to the arrays'."""
    n = len(lists.dist_f)
    tables = _take_tables(_SPARE_ARRAYS, _ArrayTables, n)
    shift = tables.base - lists.base
    for forward, endpoint, prev, dist in (
        (True, initial, lists.prev_f, lists.dist_f),
        (False, final, lists.prev_b, lists.dist_b),
    ):
        nodes = [endpoint]
        for frontier in written[forward]:
            nodes += frontier
        at = np.array(nodes, np.int64)
        tables.prev[forward][at] = list(map(prev.__getitem__, nodes))
        tables.dist[forward][at] = np.fromiter(map(dist.__getitem__, nodes), np.int64, len(nodes)) + shift
    _SPARE_TABLES.append(lists)
    return tables


def _take_tables(spare: list, make, n: int):
    """Reuse spare tables of length ``n`` under a lowered base, or ``make`` fresh ones."""
    try:
        tables = spare.pop()
    except IndexError:
        return make(n)
    if len(tables.dist_f) != n or tables.base - (n + 2) < _BASE_FLOOR:
        return make(n)
    tables.base -= n + 2
    return tables


def _as_array(nodes) -> np.ndarray:
    if isinstance(nodes, np.ndarray):
        return nodes
    return np.fromiter(nodes, np.int64, len(nodes))


def _readers(graph):
    """The reads of forward runs, backward runs and class kinds. A backend
    without ``readers`` is read through its contract methods, a kind read
    taking the field off ``method_meta``."""
    readers = getattr(graph, "readers", None)
    if readers is not None:
        return readers()
    return graph.successors, graph.predecessors, lambda u: graph.method_meta(u).class_kind


def _choose_forward(policy: FrontierPolicy, n_fwd: int, n_bwd: int) -> bool:
    """Pick the direction to expand; caller guarantees one frontier is non-empty."""
    if policy is FrontierPolicy.PAPER_LITERAL:
        # Expand forward only when the backward frontier is strictly
        # smaller; ties go backward. The chosen frontier is never empty:
        # an empty backward frontier forces forward and vice versa.
        return n_bwd < n_fwd
    if n_fwd == 0:
        return False
    if n_bwd == 0:
        return True
    return n_fwd <= n_bwd


def _search(
    graph,
    initial: NodeId,
    final: NodeId,
    config: SearchConfig,
    *,
    trace: list[TraceEvent] | None = None,
    return_state: bool = False,
):
    """The one frontier loop behind every algorithm.

    ``uni`` starts with an empty backward frontier and a fixed backward
    membership set ``{final}``: the backward side never runs, and the
    forward search meets it exactly when it relaxes the final node.
    """
    initial = check_node(initial, graph.node_count)
    final = check_node(final, graph.node_count)
    begin_query = getattr(graph, "begin_query", None)
    if begin_query is not None:
        begin_query()
    t0 = perf_counter()
    n = graph.node_count
    # Frontier ids come from the graph, so the per-node reads do not check them.
    read_fwd, read_bwd, read_kind = _readers(graph)
    # The query's tables. A query that can run array rounds from its start
    # gets the int32 arrays, whose memoryviews its per-node rounds index
    # too: one on an InMemoryGraph large enough to fill an array round, or
    # an untraced one on a store whose cache can evict, which is handed
    # each array round's reads to ``replay``. An untraced query on a store
    # whose cache holds every node starts on the lists and logs the nodes
    # each round writes in ``written``; at its first round of
    # ``_ARRAY_MOVE_MIN`` nodes it moves to the arrays.
    # Every other query gets the lists. Rounds of ``array_min`` nodes or
    # more run as arrays.
    replay = None if trace is not None else getattr(graph, "replay", None)
    written = None
    if replay is not None and getattr(graph, "holds_every_node", False):
        arrays, array_min = False, _ARRAY_MOVE_MIN
        written = {True: [], False: []}
    else:
        arrays = n >= _ARRAY_ROUND_MIN and (replay is not None or isinstance(graph, InMemoryGraph))
        array_min = _ARRAY_ROUND_MIN if arrays else inf
    spare, make = (_SPARE_ARRAYS, _ArrayTables) if arrays else (_SPARE_TABLES, _Tables)
    tables = _take_tables(spare, make, n)
    prev_f, prev_b = tables.prev_f, tables.prev_b
    dist_f, dist_b = tables.dist_f, tables.dist_b
    prev_f[initial] = prev_b[final] = -1
    dist_f[initial] = dist_b[final] = tables.base
    end_query = getattr(graph, "end_query", None)
    # Nodes sitting out rounds -> rounds left (never 0), and the nodes
    # whose postponement fired; both stay a handful of entries.
    delay: dict[NodeId, int] = {}
    postponed: set[NodeId] = set()
    uni = config.algorithm is Algorithm.UNIDIRECTIONAL
    # A frontier is a sorted list after a per-node round and a sorted
    # int64 array after an array round.
    todo_f: list[NodeId] | np.ndarray = [initial]
    todo_b: list[NodeId] | np.ndarray = [] if uni else [final]
    # Membership sets for the meeting test, built only when the opposite
    # direction expands and dropped whenever their frontier is recommitted.
    set_f: set[NodeId] | None = {initial}
    set_b: set[NodeId] | None = {final}
    # The direction whose frontier ``tables.mark`` holds.
    marked: bool | None = None

    # With delay 0 and probing off, the postpone branch can never fire;
    # skipping it entirely makes the reduction to the balanced variant
    # exact, probes included.
    delay_steps = config.delay_steps
    # A tuple tests membership by identity in C; a frozenset of Enum
    # members would call the Python-level Enum.__hash__ on every probe.
    postpone_kinds = tuple(config.postpone_kinds)
    may_postpone = (
        config.algorithm is Algorithm.BIDIR_POSTPONE
        and not config.probe_only
        and delay_steps > 0
    )
    probing = config.probe_only or may_postpone
    # Array rounds test postponability by kind code; built on the first.
    postponable = None

    # A query whose endpoints are equal meets before its first round.
    intermed: NodeId | None = initial if initial == final else None
    steps = 0
    visited_f = 0
    visited_b = 0
    postponements = 0
    probes = 0

    last_du = alt = None
    try:
        while intermed is None:
            n_f, n_b = len(todo_f), len(todo_b)
            if not (n_f or n_b):
                break
            forward = _choose_forward(config.frontier_policy, n_f, n_b)
            steps += 1
            todo = todo_f if forward else todo_b
            if delay and trace is None and all(u in delay for u in todo):
                # Every occurrence sits out this round, so rounds repeat it
                # until a countdown would end: count those at once.
                occurs = Counter(todo if type(todo) is list else todo.tolist())
                wait = min((delay[u] - 1) // k for u, k in occurs.items())
                steps += wait
                for u, k in occurs.items():
                    delay[u] -= wait * k
            if len(todo) >= array_min:
                if not arrays:
                    tables = _move_to_arrays(tables, written, initial, final)
                    prev_f, prev_b = tables.prev_f, tables.prev_b
                    dist_f, dist_b = tables.dist_f, tables.dist_b
                    arrays, array_min, spare, written = True, _ARRAY_ROUND_MIN, _SPARE_ARRAYS, None
                if may_postpone and postponable is None:
                    codes = np.array([kind in postpone_kinds for kind in ClassKind])
                    postponable = graph.kind_codes(), codes
                opposite = not forward
                other = (final,) if uni else todo_b if forward else todo_f
                if marked is not opposite:
                    tables.mark_nodes(other)
                    marked = opposite
                # Against a one-node opposite frontier, the round is cut at
                # its first possible meeting (see the module docstring).
                front = _as_array(todo)
                cut = len(front)
                if len(other) and other[0] == other[-1]:
                    back = graph.csr(Direction.BACKWARD if forward else Direction.FORWARD)
                    cut = _meeting_cut(front, back, int(other[0]), delay, postponed,
                                       postponable if probing and not forward else None)
                csr = graph.csr(Direction.FORWARD if forward else Direction.BACKWARD)
                nexts = []
                for part in (front[:cut], front[cut:]) if cut < len(front) else (front,):
                    todo2, intermed, visits, round_probes, round_postponements, reads = _array_round(
                        part, forward, tables, csr, delay, postponed,
                        probing and not forward, postponable, delay_steps, steps, trace,
                        replay is not None,
                    )
                    if forward:
                        visited_f += visits
                    else:
                        visited_b += visits
                    probes += round_probes
                    postponements += round_postponements
                    if replay is not None:
                        replay(forward, reads)
                    if intermed is not None:
                        break
                    nexts.append(todo2)
                if intermed is not None:
                    break
                todo2 = nexts[0] if len(nexts) == 1 else np.sort(np.concatenate(nexts))
            else:
                if type(todo) is not list:
                    todo = todo.tolist()
                if forward:
                    if set_b is None:
                        set_b = set(todo_b if type(todo_b) is list else todo_b.tolist())
                    other_set, dist, prev, read = set_b, dist_f, prev_f, read_fwd
                else:
                    if set_f is None:
                        set_f = set(todo_f if type(todo_f) is list else todo_f.tolist())
                    other_set, dist, prev, read = set_f, dist_b, prev_b, read_bwd
                todo2 = []
                met = False
                for u in todo:
                    if delay and u in delay:
                        if delay[u] == 1:
                            del delay[u]
                        else:
                            delay[u] -= 1
                        todo2.append(u)
                        if trace is not None:
                            trace.append(TraceEvent(steps, forward, u, "delayed"))
                        continue
                    if probing and not forward and u not in postponed:
                        probes += 1
                        kind = read_kind(u)
                        if may_postpone and kind in postpone_kinds:
                            postponed.add(u)
                            if delay_steps > 1:
                                delay[u] = delay_steps - 1
                            postponements += 1
                            todo2.append(u)
                            if trace is not None:
                                trace.append(TraceEvent(steps, forward, u, "postponed"))
                            continue
                    if forward:
                        visited_f += 1
                    else:
                        visited_b += 1
                    neighbors = read(u)
                    if trace is not None:
                        trace.append(TraceEvent(steps, forward, u, "expanded"))
                    # On list tables, one ``alt`` object per distance: a level's
                    # nodes share it, so no expansion allocates an int, and stale
                    # entries point at a few objects that stay cached.
                    du = dist[u]
                    if du is not last_du:
                        last_du, alt = du, du + 1
                    for v in neighbors:
                        if dist[v] > alt:
                            prev[v] = u
                            dist[v] = alt
                            if v in other_set:
                                intermed = v
                                met = True
                                break
                            todo2.append(v)
                    if met:
                        break
                if met:
                    break
                todo2.sort()
                if written is not None:
                    written[forward].append(todo2)
            if forward:
                todo_f, set_f = todo2, None
            else:
                todo_b, set_b = todo2, None
            if marked is forward:
                marked = None
    finally:
        # A traceback keeps this frame: drop the views of a store's map, or
        # they would keep it mapped past the store's close while the
        # exception is handled.
        csr = back = postponable = None
        # The reads of this query, reported once, even when it raised.
        if end_query is not None:
            end_query(visited_f + visited_b, probes)

    # The dist tables can be stale relative to the prev chains: a
    # postponed node's late expansion may improve an ancestor's distance
    # after a descendant recorded it, so the realized path can be shorter
    # than dist_f[intermed] + dist_b[intermed]. Without postponement the
    # two always agree. Length reports the real edge count.
    path = () if intermed is None else tuple(_join_chains(prev_f, prev_b, intermed, initial, final))
    result = SearchResult(
        status=SearchStatus.NO_PATH if intermed is None else SearchStatus.FOUND,
        path=path,
        length=len(path),
        meeting_point=intermed,
        visited_forward=visited_f,
        visited_backward=visited_b,
        postponements=postponements,
        probe_count=probes,
        steps=steps,
        elapsed=perf_counter() - t0,
    )
    if return_state:
        # Built before the tables go back. The entries below ``top`` are
        # exactly those this query wrote.
        base, top = tables.base, tables.base + n
        result = result, SearchState(
            todo_forward=todo_f if type(todo_f) is list else todo_f.tolist(),
            todo_backward=todo_b if type(todo_b) is list else todo_b.tolist(),
            prev_forward=[u if d < top and u >= 0 else None for u, d in zip(prev_f, dist_f)],
            prev_backward=[u if d < top and u >= 0 else None for u, d in zip(prev_b, dist_b)],
            dist_forward=[d - base if d < top else inf for d in dist_f],
            dist_backward=[d - base if d < top else inf for d in dist_b],
            delay=delay,
            postponed=postponed,
            intermed=intermed,
        )
    spare.append(tables)
    return result


#: What an occurrence of an array round that does not expand does.
_DELAYED, _POSTPONED = "delayed", "postponed"


def _array_round(
    frontier: np.ndarray,
    forward: bool,
    tables: _ArrayTables,
    csr: tuple[np.ndarray, np.ndarray],
    delay: dict[NodeId, int],
    postponed: set[NodeId],
    probing: bool,
    postponable: tuple[np.ndarray, np.ndarray] | None,
    delay_steps: int,
    step: int,
    trace: list[TraceEvent] | None,
    want_reads: bool,
):
    """One round of the frontier loop as array operations over the CSR arrays.

    It does exactly what the per-node round does to the same frontier:
    the same visits, probes, postponements, delay countdowns, trace
    events, prev/dist writes, meeting node and next frontier. Returns
    ``(next frontier, meeting node or None, visits, probes,
    postponements, reads)``. ``probing`` says whether this round probes (a
    backward round of a probing config); ``postponable`` is the graph's
    kind codes and, per code, whether a probe postpones the node, or
    None when nothing can be postponed; the opposite frontier is
    ``tables.mark``-ed with ``tables.stamp``. With ``want_reads``,
    ``reads`` lists the reads the per-node body would have made, in its
    order (see ``_round_reads``); otherwise it is None.

    The round takes three steps:

    * classify each occurrence as delayed, postponed or expanded. Only
      the occurrences of a node sitting out rounds, of a postponable node
      and of a node that occurs twice ("irregular") are classified one by
      one; their effect on ``delay`` and ``postponed`` is applied after
      the meeting is known, up to the meeting node only;
    * relax every neighbour of the expanded occurrences. A relaxation
      offers ``dist[u] + 1`` and is kept when that is below the
      round-start ``dist[v]``. When the expanded occurrences share one
      distance, every kept relaxation offers the same value and all of
      them are kept, duplicates too; writing ``prev[v]`` as the lowest
      relaxer settles v on its first one, as the per-node body does.
      When they span several distances, a relaxation counts only when
      its offer is also below every offer made to v earlier in the
      round, and ``prev[v]`` comes from the last one that counts.
      ``dist[u]`` is then the value when u expands: an earlier node of
      the round can lower it, which happens only when the expanded
      nodes span three or more distances (a postponed node firing among
      newer ones);
    * stop at the first kept or counted relaxation, in processing order,
      that lands on the opposite frontier.

    ``frontier`` may be a prefix or the rest of a round's frontier: the
    caller cuts a round whose opposite frontier holds one node after the
    first position that can meet it (``_meeting_cut``) and runs the rest
    in a second call only when the first does not meet.
    """
    offsets, ids = csr
    dist, prev = tables.dist[forward], tables.prev[forward]
    size = len(frontier)

    # Step 1: classify. A node's delay and postponement depend only on
    # its own earlier occurrences, so the irregular ones are replayed in
    # order against a local overlay of ``delay`` and ``postponed``.
    odd = _irregular(frontier, delay, postponable if probing else None)
    actions: dict[int, str] = {}  # position -> action, for those not expanded
    unprobed: list[int] = []  # positions a probing round does not probe
    left: dict[NodeId, int] = {}
    fired: set[NodeId] = set()
    for p, u in zip(odd, frontier[odd].tolist() if odd else ()):
        rounds = left[u] if u in left else delay.get(u, 0)
        if rounds:
            left[u] = rounds - 1
            actions[p] = _DELAYED
            unprobed.append(p)
        elif probing:
            if u in postponed or u in fired:
                unprobed.append(p)
            elif postponable is not None and postponable[1][postponable[0][u]]:
                fired.add(u)
                left[u] = delay_steps - 1
                actions[p] = _POSTPONED
    if actions:
        expanding = np.ones(size, bool)
        expanding[list(actions)] = False
        expanding = np.flatnonzero(expanding)
        nodes = frontier[expanding]
    else:
        expanding, nodes = None, frontier

    # Step 2: relax. ``source`` is each relaxation's index in ``nodes``.
    starts = offsets[nodes]
    degrees = offsets[nodes + 1] - starts
    source = np.repeat(np.arange(len(nodes)), degrees)
    firsts = starts - np.cumsum(degrees) + degrees
    targets = ids[np.arange(len(source)) + firsts[source]]
    du = dist[nodes]
    several = len(du) > 0 and du.min() != du.max()
    if several:
        kept, offers = _offers(du, source, targets, dist)
        if int(du.max()) - int(du.min()) >= 2:
            # An offer to a node that expands later in the round lowers the
            # dist it expands with; settle those in processing order.
            while True:
                lowered = _lowered(du, nodes, source[kept], targets[kept], offers, tables.scratch)
                if lowered is None:
                    break
                du = lowered
                kept, offers = _offers(du, source, targets, dist)
        chosen = _counted(targets[kept], offers, tables.scratch)
        kept, offers = kept[chosen], offers[chosen]
    else:
        # One offer value: every relaxation that beats the round-start
        # dist is kept, duplicates too; the writes settle them.
        offers = du[0] + 1 if len(du) else 0
        kept = np.flatnonzero(dist[targets] > offers)
    v, source = targets[kept], source[kept]

    # Step 3: meet, then cut every count and effect at the meeting node.
    # Under one offer value, the first kept relaxation to a node is its
    # first offer, so the first one to land on the opposite frontier meets.
    meets = tables.mark[v] == tables.stamp
    if meets.any():
        k = int(meets.argmax()) + 1
        v, source = v[:k], source[:k]
        if several:
            offers = offers[:k]
        meeting = int(v[-1])
        visits = int(source[-1]) + 1
        last = visits - 1 if expanding is None else int(expanding[visits - 1])
    else:
        meeting = None
        visits = len(nodes)
        last = size - 1
    postponements = 0
    for p, action in actions.items():
        if p > last:
            break
        u = int(frontier[p])
        if action is _DELAYED:
            if delay[u] == 1:
                del delay[u]
            else:
                delay[u] -= 1
        else:
            postponements += 1
            postponed.add(u)
            if delay_steps > 1:
                delay[u] = delay_steps - 1
    unprobed = [p for p in unprobed if p <= last]
    probes = last + 1 - len(unprobed) if probing else 0
    reads = None
    if want_reads:
        runs_at = np.arange(visits) if expanding is None else expanding[:visits]
        reads = _round_reads(frontier[: last + 1], runs_at, unprobed if probing else None)
    if trace is not None:
        for p, u in enumerate(frontier[: last + 1].tolist()):
            trace.append(TraceEvent(step, forward, u, actions.get(p, "expanded")))
    if several:
        # A node can be counted more than once, at most once per value:
        # writing the values in falling order leaves it its last, lowest
        # offer.
        for level in _levels(offers)[::-1]:
            at = np.flatnonzero(offers == level)
            dist[v[at]] = offers[at]
            prev[v[at]] = nodes[source[at]]
    else:
        # Expanding occurrences ascend, so a node's first relaxer in
        # processing order is its lowest.
        dist[v] = offers
        prev[v] = _UNREACHED
        np.minimum.at(prev, v, nodes.astype(np.int32)[source])
    if meeting is not None:
        return None, meeting, visits, probes, postponements, reads
    if not several:
        v = np.sort(v)
        distinct = np.ones(len(v), bool)
        distinct[1:] = v[1:] != v[:-1]
        v = v[distinct]
    # A store's ids are ``<u4``; a frontier is int64, or ``~u`` would
    # not make a kind read of it (see ``_round_reads``).
    if several or actions:
        todo = np.sort(np.concatenate((frontier[list(actions)], v)))
    else:
        todo = v.astype(np.int64, copy=False)
    return todo, None, visits, probes, postponements, reads


def _meeting_cut(frontier, csr, m, delay, postponed, postponable) -> int:
    """Where a round whose opposite frontier is the one node ``m`` is cut:
    just after the first position of ``frontier`` that holds one of m's
    neighbours in ``csr``, the other direction's runs, and expands this
    round, so not a node in ``delay`` nor, when ``postponable`` is given,
    one about to be postponed. No earlier relaxation can land on m. The
    frontier's length when no position can meet.

    Positions are tried in the order of m's run; runs are ascending, so
    that is the frontier's order. Any cut is exact: a later one only
    gathers more."""
    offsets, ids = csr
    run = ids[offsets[m]:offsets[m + 1]]
    at = frontier.searchsorted(run)
    # A clipped position holds a node below the one sought, so never it.
    for p in at[frontier.take(at, mode="clip") == run].tolist():
        u = int(frontier[p])
        if u in delay or (postponable is not None and u not in postponed and postponable[1][postponable[0][u]]):
            continue
        return p + 1
    return len(frontier)


def _round_reads(head: np.ndarray, runs_at: np.ndarray, unprobed: list[int] | None) -> np.ndarray:
    """The reads of a round's processed occurrences ``head``, as an int64
    array in the per-node body's order: at each position a kind read,
    ``~u``, unless the round does not probe (``unprobed`` is None) or the
    position is in ``unprobed``; then a run read, ``u``, if the position
    is in ``runs_at``."""
    if unprobed is None:
        return head[runs_at]
    probed = np.ones(len(head), np.int64)
    probed[unprobed] = 0
    count = probed.copy()
    count[runs_at] += 1
    at = np.cumsum(count) - count  # where each position's reads start
    reads = np.empty(int(count.sum()), np.int64)
    kinds_at = np.flatnonzero(probed)
    reads[at[kinds_at]] = ~head[kinds_at]
    reads[at[runs_at] + probed[runs_at]] = head[runs_at]
    return reads


def _irregular(frontier, delay, postponable) -> list[int]:
    """Ascending positions of the occurrences an array round classifies
    one by one: of a node that occurs twice, sits out rounds, or (when
    ``postponable`` is given) may be postponed."""
    odd: set[int] = set()
    twice = frontier[1:] == frontier[:-1]
    if twice.any():
        twice = np.flatnonzero(twice)
        odd.update(twice.tolist())
        odd.update((twice + 1).tolist())
    if delay:
        waiting = np.fromiter(delay, np.int64, len(delay))
        lo = np.searchsorted(frontier, waiting, "left").tolist()
        hi = np.searchsorted(frontier, waiting, "right").tolist()
        for a, b in zip(lo, hi):
            odd.update(range(a, b))
    if postponable is not None:
        codes, postpones = postponable
        odd.update(np.flatnonzero(postpones[codes[frontier]]).tolist())
    return sorted(odd)


def _offers(du, source, targets, dist):
    """Indices of the relaxations whose offer ``du[source] + 1`` beats
    the round-start ``dist`` of their target, and those offers."""
    offered = (du + 1)[source]
    kept = np.flatnonzero(offered < dist[targets])
    return kept, offered[kept]


def _lowered(du, nodes, source, targets, offers, scratch):
    """``du`` lowered by every offer to a node that expands later in the
    round than the offer's source, or None when no offer lowers it."""
    scratch[targets] = -1
    scratch[nodes] = 0
    hit = np.flatnonzero(scratch[targets] == 0)
    if not len(hit):
        return None
    targets, source, offers = targets[hit], source[hit], offers[hit]
    # The occurrences of a target in ``nodes`` that come after the source.
    start = np.maximum(np.searchsorted(nodes, targets, "left"), source + 1)
    count = np.maximum(np.searchsorted(nodes, targets, "right") - start, 0)
    later = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
    lowered = du.copy()
    np.minimum.at(lowered, later, np.repeat(offers, count))
    return None if np.array_equal(lowered, du) else lowered


def _counted(v, offers, scratch):
    """Indices, in processing order, of the offers that lower ``dist[v]``
    below every earlier offer to the same v (all of them beat the
    round-start dist).

    An offer counts when it is the first offer to its node of a value
    at most its own: value by value, ascending, ``scratch[v]`` keeps the
    first index of such an offer.
    """
    scratch[v] = len(v)
    counted = [np.arange(0)]
    for level in _levels(offers):
        at = np.flatnonzero(offers == level)
        np.minimum.at(scratch, v[at], at)
        counted.append(at[scratch[v[at]] == at])
    return np.sort(np.concatenate(counted))


def _levels(offers):
    """The distinct values of ``offers``, ascending."""
    if not len(offers):
        return offers
    low = int(offers.min())
    return np.flatnonzero(np.bincount(offers - low)) + low


def run_search(
    graph,
    initial: NodeId,
    final: NodeId,
    config: SearchConfig,
    *,
    trace: list[TraceEvent] | None = None,
) -> SearchResult:
    """Run ``config`` on one query from ``initial`` to ``final``: the one search call.

    ``config.algorithm`` picks the variant (uni, balanced or postpone)
    and the other fields its knobs. A postpone config with
    ``delay_steps=0`` traverses exactly as balanced; with
    ``probe_only=True`` it also traverses as balanced, but pays one
    metadata probe per backward-processed node. ``trace``, if given,
    receives one TraceEvent per frontier event.
    """
    return _search(graph, initial, final, config, trace=trace)
