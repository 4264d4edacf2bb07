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

A query costs the nodes it touches, not ``node_count``. The prev/dist
lists are taken from tables that earlier queries handed back, under a
distance offset that makes their old entries read as "not reached"
(``_Tables``), so nothing is allocated, filled or reset per query;
delays and postponements live in a dict and a set of a few entries.
Tables of length ``node_count`` are built only on first use, when the
graph size changes, every ~2**30 / node_count queries when the offset
runs out, and for ``return_state=True``, which always gets fresh tables
holding plain distances. Each thread searching at the same time keeps
one spare set, about 32 * node_count bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import inf
from time import perf_counter
from typing import NamedTuple

from .errors import InternalSearchError
from .model import ClassKind, Edge, NodeId, check_node

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
        if self.delay_steps < 0:
            raise ValueError("delay_steps must be non-negative")
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
    """Raw per-query bookkeeping, exposed for path reconstruction and tests.

    ``prev_forward[v]`` is v's predecessor on the tree grown from the
    initial node; ``prev_backward[v]`` is the node *through which the
    backward search reached v*, i.e. v's successor on the way to the
    final node. Distances default to infinity; the endpoints start at 0.
    ``delay`` maps each node still sitting out rounds to the rounds
    left, and ``postponed`` holds the nodes whose postponement fired.

    ``_search(..., return_state=True)`` builds fresh prev/dist lists of
    length ``node_count`` for the state it returns, so they hold plain
    distances. Without it the kernel reuses tables from earlier queries
    (see ``_Tables``) and a query costs only the nodes it touches.
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


def reconstruct_path(state: SearchState, initial: NodeId, final: NodeId) -> list[Edge]:
    """Stitch the two predecessor chains at ``state.intermed`` into one path.

    The forward chain is walked from the meeting node back to the
    initial node and reversed, then the backward chain is walked from
    the meeting node to the final node. A chain that fails to terminate
    at its endpoint is an internal invariant violation.
    """
    if state.intermed is None:
        raise InternalSearchError("reconstruct_path called without a meeting point")
    limit = len(state.prev_forward) + 1
    edges: list[Edge] = []
    v = state.intermed
    for _ in range(limit):
        u = state.prev_forward[v]
        if u is None:
            break
        edges.append(Edge(u, v))
        v = u
    else:
        raise InternalSearchError("forward predecessor chain does not terminate")
    if v != initial:
        raise InternalSearchError(
            f"forward predecessor chain roots at {v}, expected initial node {initial}"
        )
    edges.reverse()
    v = state.intermed
    for _ in range(limit):
        w = state.prev_backward[v]
        if w is None:
            break
        edges.append(Edge(v, w))
        v = w
    else:
        raise InternalSearchError("backward predecessor chain does not terminate")
    if v != final:
        raise InternalSearchError(
            f"backward predecessor chain ends at {v}, expected final node {final}"
        )
    return edges


class _Tables:
    """The prev/dist lists of one query, kept for the next one.

    Distances are stored as ``base + d``. Each reuse lowers ``base`` by
    ``n + 2``, more than any distance a query can record (a recorded
    distance is the length of a simple path, at most ``n - 1``), so
    every entry left by an earlier query compares larger than any
    distance of the current one and reads as "not reached": nothing is
    reset between queries. Only the endpoints' prev entries are cleared;
    every other node on a prev chain was relaxed by the current query.
    """

    __slots__ = ("prev_f", "prev_b", "dist_f", "dist_b", "base")

    def __init__(self, n: int) -> None:
        self.prev_f: list[NodeId | None] = [None] * n
        self.prev_b: list[NodeId | None] = [None] * n
        self.dist_f: list[float] = [inf] * n
        self.dist_b: list[float] = [inf] * n
        self.base = 0


#: Tables handed back by finished queries. ``pop`` and ``append`` are
#: atomic, so concurrent searches each take their own set.
_SPARE_TABLES: list[_Tables] = []
#: Lowest ``base`` before the tables are rebuilt: it keeps every stored
#: distance a one-digit CPython int (magnitude below 2**30).
_BASE_FLOOR = 1 - 2**30


def _take_tables(n: int) -> _Tables:
    """Reuse spare tables of length ``n`` under a lowered base, or build fresh ones."""
    try:
        tables = _SPARE_TABLES.pop()
    except IndexError:
        return _Tables(n)
    if len(tables.dist_f) != n or tables.base - (n + 2) < _BASE_FLOOR:
        return _Tables(n)
    tables.base -= n + 2
    return tables


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
    if initial == final:
        result = SearchResult(
            status=SearchStatus.FOUND,
            path=(),
            length=0,
            meeting_point=initial,
            visited_forward=0,
            visited_backward=0,
            postponements=0,
            probe_count=0,
            steps=0,
            elapsed=perf_counter() - t0,
        )
        return (result, None) if return_state else result

    tables = _Tables(graph.node_count) if return_state else _take_tables(graph.node_count)
    prev_f, prev_b = tables.prev_f, tables.prev_b
    dist_f, dist_b = tables.dist_f, tables.dist_b
    prev_f[initial] = prev_b[final] = None
    dist_f[initial] = dist_b[final] = tables.base
    # Nodes sitting out rounds -> rounds left (never 0), and the nodes
    # whose postponement fired; both stay a handful of entries.
    delay: dict[NodeId, int] = {}
    postponed: set[NodeId] = set()
    todo_f: list[NodeId] = [initial]
    todo_b: list[NodeId] = [] if config.algorithm is Algorithm.UNIDIRECTIONAL else [final]
    # Membership sets for the meeting test, built only when the opposite
    # direction expands and dropped whenever their frontier is recommitted.
    set_f: set[NodeId] | None = {initial}
    set_b: set[NodeId] | None = {final}

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
    # ``class_kind`` is optional in the access contract; without it a
    # probe reads the kind off ``method_meta``.
    class_kind = getattr(graph, "class_kind", None) or (lambda u: graph.method_meta(u).class_kind)

    intermed: NodeId | None = None
    steps = 0
    visited_f = 0
    visited_b = 0
    postponements = 0
    probes = 0

    last_du = alt = None
    while todo_f or todo_b:
        forward = _choose_forward(config.frontier_policy, len(todo_f), len(todo_b))
        steps += 1
        if forward:
            if set_b is None:
                set_b = set(todo_b)
            todo, other_set, dist, prev = todo_f, set_b, dist_f, prev_f
        else:
            if set_f is None:
                set_f = set(todo_f)
            todo, other_set, dist, prev = todo_b, set_f, dist_b, prev_b
        todo2: list[NodeId] = []
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
                kind = class_kind(u)
                probes += 1
                if may_postpone and kind in postpone_kinds:
                    postponed.add(u)
                    if delay_steps > 1:
                        delay[u] = delay_steps - 1
                    postponements += 1
                    todo2.append(u)
                    if trace is not None:
                        trace.append(TraceEvent(steps, forward, u, "postponed"))
                    continue
            neighbors = graph.successors(u) if forward else graph.predecessors(u)
            if forward:
                visited_f += 1
            else:
                visited_b += 1
            if trace is not None:
                trace.append(TraceEvent(steps, forward, u, "expanded"))
            # One ``alt`` object per distance: a level's nodes share it,
            # so no expansion allocates an int, and the entries that later
            # queries find stale point at a few objects that stay cached.
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
        if forward:
            todo_f, set_f = todo2, None
        else:
            todo_b, set_b = todo2, None

    state = SearchState(
        todo_forward=todo_f,
        todo_backward=todo_b,
        prev_forward=prev_f,
        prev_backward=prev_b,
        dist_forward=dist_f,
        dist_backward=dist_b,
        delay=delay,
        postponed=postponed,
        intermed=intermed,
    )
    # The dist tables can be stale relative to the prev chains: a
    # postponed node's late expansion may improve an ancestor's distance
    # after a descendant recorded it, so the realized path can be shorter
    # than dist_f[intermed] + dist_b[intermed]. Without postponement the
    # two always agree. Length reports the real edge count.
    path = () if intermed is None else tuple(reconstruct_path(state, initial, final))
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
        return result, state
    _SPARE_TABLES.append(tables)
    return result


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
