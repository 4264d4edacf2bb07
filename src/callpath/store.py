"""Disk-resident graph backend with read accounting.

Models the environment where graph data lives on disk and is fetched
on demand: every first touch of a node's metadata or adjacency costs a
"disk access", optionally with injected latency, and a cache of at most
``max_cached_nodes`` node records bounds what stays in memory. Searches
running over this backend produce exactly the same results as over the
in-memory backend; only timing and access statistics differ.

File format ``CGS1`` (all integers little-endian, strings UTF-8):

========  =====================================================================
section   layout
========  =====================================================================
header    magic ``b"CGS1"``, version u32, node_count u32, edge_count u64,
          then (offset u64, size u64) for each of the four data sections,
          then the trailer offset u64. 92 bytes total.
meta      node_count fixed-width records ``<QQQBI``: method-name offset,
          class-name offset, file offset (all into the string heap),
          class-kind byte (0 interface / 1 abstract / 2 concrete), line u32.
heap      length-prefixed strings: u32 byte length, then the bytes.
          Identical strings are stored once.
fwd       (node_count + 1) u64 prefix offsets, then edge_count u32 callee
          ids; node u's run is ``ids[prefix[u]:prefix[u+1]]``, sorted.
bwd       same layout for caller ids.
trailer   five u32 CRC32 values: header, meta, heap, fwd, bwd. 20 bytes.
========  =====================================================================

The fwd and bwd sections are the CSR adjacency layout of
``model.InMemoryGraph`` written out as is, and the meta and heap
sections are written from its node columns with numpy. A handle maps
the file read-only once and decodes rows, metadata records and heap
strings straight from the map; the file must not be modified while a
handle is open. ``open_store`` verifies every checksum up front (a
corrupt or truncated file fails naming the damaged section). It then
builds, once, the views of the map that the search kernel reads: per
adjacency section its offsets as ``<i8`` and its ids as ``<u4``, and
the strided class-kind bytes of the meta records. It checks with numpy
over exactly those views that each prefix rises from 0 to
``edge_count``, every id is below ``node_count``, each run is strictly
ascending and bwd is the transpose of fwd, and that every class-kind
byte is a ``ClassKind`` code. What it checked is what the handle serves
(``csr``, ``kind_codes``); when a check fails it drops the views, so
the map can be closed. So a reader never indexes past a section, and
the ids and kinds a search reads back are valid. All of this happens
before any access accounting starts. Heap strings are checked when
``method_meta`` reads them: one past the heap, not UTF-8, or an empty
name is a ``StoreFormatError`` naming the node.

The cache is the model that ``oracles.LruRecordModel`` in the tests
states: an LRU of at most ``max_cached_nodes`` whole node records, each
holding the sections read so far. A record has three sections: the
forward run, the backward run and the meta record, which a kind read
and ``method_meta`` read alike. A read is one cache hit when the node's
record holds its section and one miss otherwise, which adds the section
to the record; either way the record becomes the most recent, and a new
record beyond ``max_cached_nodes`` evicts the least recent one whole.

When the cache can evict (``max_cached_nodes`` = C below ``node_count``)
no decoded value is kept: every read decodes from the map, an id run
with one unpack, a kind from its one byte, and ``method_meta`` the whole
record. The cache itself is recency stamps, not an ordered dict. Each
read takes the next tick of a read clock. Per node the handle keeps the
time of its latest read (``_last``, int64) and its record's section bits
(``_held``, uint8); per read since ``_base`` it keeps the node read
(``_nodes``). The records held are those of the nodes whose latest read
is at or after the horizon (``_horizon``), ``_live`` of them, at most C.
A read finds its node's record when the node's latest read is at or
after the horizon, and hits when that record holds its bit. Either way
it stamps the node and adds its bit, to a fresh record when it found
none; a fresh record in a full cache evicts the least recent one, which
moves the horizon past the next latest read, a Python step per read it
passes. A cold ``begin_query`` moves the horizon and ``_base`` to the
clock. When the history fills, ``_make_room`` replaces it with one read
of each held node, in their order. So it holds at most C +
``_HISTORY_SLACK`` reads, or that and the longest round; ``_last`` and
``_held`` take 9 bytes per node.

An LRU holds the C most recently read nodes: the inclusion property of
Mattson, Gecsei, Slutz & Traiger, "Evaluation Techniques for Storage
Hierarchies", IBM Systems Journal, 1970. So a read at time t of a node
last read at p finds its record exactly when p is after the cache was
last emptied and fewer than C distinct nodes were read between them.
That lets ``_count_round`` count a whole round with numpy: a read whose
node's record was not held as the round started and that is its node's
first read in the round finds none, and one within C reads of its
previous read finds it. Only a far read, t - p > C after the horizon,
needs the count of distinct nodes (``_distinct``); a round with many is
read by read instead.

Otherwise (``holds_every_node``) no record is ever evicted and recency
decides nothing, so the cache is one dict of decoded values per section
(the runs of each direction, kinds), and a read is a hit when its dict
holds the node; ``method_meta`` decodes the rest of a record from the
map each time. The same bits as above (``_held``, one uint8 per node)
say which dicts hold a node: a decode into a dict sets its bit, and a
cold ``begin_query`` clears the bits with the dicts.

Each count has one owner. Whoever reads counts the read: each contract
method its own, and the search kernel, which reads through
``readers()`` and ``replay``, hands ``end_query`` the run and kind
reads it made, even when the query raises. The store counts only the
misses and the injected latency, and ``AccessStats.cache_hits`` is the
rest of the reads. The contract methods read through the same
callables as the kernel, one per section: when the cache can evict,
``_load(bit, u)``, which keeps the recency stamps and decodes from the
map in one Python frame without the node-id check; otherwise the
section dict's ``__getitem__``, so a hit is one C call and only a miss
reaches ``_load``, through the dict's ``__missing__``. On either kind
of store the kernel runs its large rounds as numpy over the views
``open_store`` checked (``csr``, ``kind_codes``), then hands the store
the round's reads as one int64 array, in the order the per-node body
would have made them, through ``replay``. It counts the misses and
injected latency that ``_load`` would have made. Without eviction that
is ``_replay_decoded``: a read whose node's bit is set is a hit, found
with numpy, and each other read goes, in order, through its section
dict, which loads a miss into the dict. With eviction ``_replay``
counts by the recency stamps. A round of ``_ARRAY_REPLAY_MIN``
(256) reads or more is counted with numpy, with no Python step per
read, unless more than one read in ``_FAR_SHARE`` (16) is far; the
rest are read by read, as ``_load`` does. Both are constants set by
timing the store calls of one disk-cold benchmark pass (1,138 replays
of 793,012 reads, 255,582 single reads), replayed on a fresh handle,
the minimum of 5 to 9 runs on 2 shared vCPUs. Cold at 1,024 cached
nodes: every round in numpy took 234 ms, every round read by read 408
ms, and a split at 128, 256 or 1,024 reads 213-226 ms, within the noise
of each other. Warm at 10,000 cached nodes, where 40% of a round's
reads can be far: counting every far read took 785 ms, and a far share
of 4, 16 or 64 330-353 ms, no slower than every round read by read.
``close`` drops the views before it unmaps the file.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from zlib import crc32

import numpy as np

from .errors import ChecksumError, StoreFormatError, StoreLimitError
from .model import (
    _KINDS,
    ClassKind,
    Direction,
    InMemoryGraph,
    MethodMeta,
    NodeColumns,
    NodeId,
    check_node,
    is_integer,
    materialize,
)

MAGIC = b"CGS1"
VERSION = 1
_HEADER = struct.Struct("<4sIIQ" + "QQ" * 4 + "Q")
_TRAILER = struct.Struct("<IIIII")
_META_RECORD = struct.Struct("<QQQBI")
_KIND_OFFSET = struct.calcsize("<QQQ")  # the class-kind byte within a meta record
_U32 = struct.Struct("<I")
_U64x2 = struct.Struct("<QQ")

_SECTION_NAMES = ("meta-index", "string-heap", "forward-adjacency", "backward-adjacency")

_MAX_NODES = 2**32
_MAX_LINE = 2**32
#: The longest ``time.sleep`` the platform takes, in seconds.
_MAX_LATENCY = threading.TIMEOUT_MAX
#: The sections of a cached node record, as bits.
_FWD, _BWD, _META = 1, 2, 4
#: ``_replay`` counts a round of at least this many reads with numpy, and a
#: smaller one read by read (see ``DiskGraph._replay``).
_ARRAY_REPLAY_MIN = 256
#: The read history of an evicting cache has room for its capacity plus
#: this many reads before ``DiskGraph._make_room`` trims it.
_HISTORY_SLACK = 1024
#: ``_replay`` reads a round read by read when more than one read in this
#: many is far, so that ``DiskGraph._distinct`` would count for it.
_FAR_SHARE = 16


class CacheMode(Enum):
    """COLD_PER_QUERY drops the cache whenever a search begins, so every
    query starts from an empty cache; WARM_ACROSS_QUERIES keeps it."""

    COLD_PER_QUERY = "cold"
    WARM_ACROSS_QUERIES = "warm"


@dataclass(frozen=True)
class CacheConfig:
    max_cached_nodes: int = 1024
    latency_per_miss: float = 0.0  # seconds of injected delay per cache miss
    mode: CacheMode = CacheMode.COLD_PER_QUERY

    def __post_init__(self) -> None:
        if not is_integer(self.max_cached_nodes):
            raise ValueError(f"max_cached_nodes must be an integer, got {self.max_cached_nodes!r}")
        if self.max_cached_nodes < 1:
            raise ValueError("max_cached_nodes must be at least 1")
        if not isinstance(self.mode, CacheMode):
            raise ValueError(f"mode must be a CacheMode, got {self.mode!r}")
        latency = self.latency_per_miss
        if isinstance(latency, bool) or not isinstance(latency, (int, float, np.integer, np.floating)):
            raise ValueError(f"latency_per_miss must be a number, got {latency!r}")
        if not 0 <= latency <= _MAX_LATENCY:  # also rejects NaN
            raise ValueError(
                f"latency_per_miss must be finite and non-negative, at most {_MAX_LATENCY} s"
            )


def _latency_from_ms(ms) -> float:
    """A ``latency_per_miss`` given in milliseconds, in seconds; a value
    outside ``CacheConfig``'s bound is refused with the bound in
    milliseconds."""
    if not 0 <= ms <= _MAX_LATENCY * 1000:  # also rejects NaN
        raise ValueError(
            f"latency_per_miss_ms must be finite and non-negative, at most {_MAX_LATENCY * 1000} ms"
        )
    return ms / 1000


@dataclass
class AccessStats:
    """Monotone read counters since open or the last reset.

    Every metadata or adjacency read is exactly one cache hit or miss.
    The store counts the misses, and ``cache_hits`` is the rest of the
    reads. A contract call counts its own read; the reads a search made
    through ``readers()`` and ``replay`` are added by ``end_query`` when
    it returns or raises.
    """

    meta_reads: int = 0
    adjacency_reads: int = 0
    cache_misses: int = 0
    injected_latency_total: float = 0.0

    @property
    def cache_hits(self) -> int:
        return self.meta_reads + self.adjacency_reads - self.cache_misses

    def copy(self) -> "AccessStats":
        return replace(self)


@dataclass(frozen=True)
class StoreSummary:
    node_count: int
    edge_count: int
    byte_size: int


def build_store(graph, output_path: str | Path) -> StoreSummary:
    """Serialize any graph-access backend into a CGS1 file.

    The meta and heap sections are written from the graph's node
    columns and the adjacency sections are its CSR arrays; other
    backends are copied into an InMemoryGraph first. Round-trips:
    opening the file yields the same successors, predecessors and
    metadata for every node.
    """
    n = graph.node_count
    if n >= _MAX_NODES:
        raise StoreLimitError(f"node_count {n} exceeds format limit {_MAX_NODES - 1}")
    if not isinstance(graph, InMemoryGraph):
        graph = materialize(graph)

    sections = list(_meta_and_heap(graph.columns()))
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        prefix, ids = graph.csr(direction)
        sections.append(prefix.astype("<u8").tobytes() + ids.astype("<u4").tobytes())
    edge_count = graph.edge_count

    offset = _HEADER.size
    table: list[int] = []
    for payload in sections:
        table.extend((offset, len(payload)))
        offset += len(payload)
    trailer_offset = offset
    header = _HEADER.pack(MAGIC, VERSION, n, edge_count, *table, trailer_offset)
    trailer = _TRAILER.pack(crc32(header), *(crc32(p) for p in sections))

    path = Path(output_path)
    with path.open("wb") as fh:
        fh.write(header)
        for payload in sections:
            fh.write(payload)
        fh.write(trailer)
    return StoreSummary(node_count=n, edge_count=edge_count, byte_size=trailer_offset + _TRAILER.size)


# The meta record ``<QQQBI`` as a packed numpy record.
_META_DTYPE = np.dtype([("method", "<u8"), ("class", "<u8"), ("file", "<u8"), ("kind", "u1"), ("line", "<u4")])


def _meta_and_heap(columns: NodeColumns) -> tuple[bytes, bytes]:
    """The meta and heap sections of the nodes in ``columns``.

    The heap holds each distinct string once, in the order of first use
    when each node's method, class and file are taken in turn, which is
    the order of interning them node by node."""
    n = len(columns.method_names)
    if n and max(columns.lines) >= _MAX_LINE:
        line = next(line for line in columns.lines if line >= _MAX_LINE)
        raise StoreLimitError(f"line number {line} exceeds format limit")
    strings: list[str] = [""] * (3 * n)
    strings[0::3] = columns.method_names
    strings[1::3] = columns.class_names
    strings[2::3] = columns.files
    # Each distinct string in order of first use, then its index in it.
    distinct = dict.fromkeys(strings)
    distinct.update(zip(distinct, range(len(distinct))))
    text = "".join(distinct)
    data = text.encode("utf-8")
    # Byte lengths; only a non-ASCII heap needs each string encoded alone.
    encoded = distinct if len(data) == len(text) else map(str.encode, distinct)
    sizes = np.fromiter(map(len, encoded), np.int64, len(distinct))
    if len(sizes) and sizes.max() >= 2**32:
        raise StoreLimitError(f"a string of {sizes.max()} bytes exceeds format limit")
    # Each string is its u32 byte length, then its bytes.
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes + _U32.size, out=starts[1:])
    heap = np.empty(starts[-1], dtype=np.uint8)
    length_at = starts[:-1, None] + np.arange(_U32.size)
    heap[length_at] = sizes.astype("<u4").view(np.uint8).reshape(-1, _U32.size)
    is_data = np.ones(len(heap), dtype=bool)
    is_data[length_at] = False
    heap[is_data] = np.frombuffer(data, dtype=np.uint8)
    refs = starts[np.fromiter(map(distinct.__getitem__, strings), np.int64, len(strings))].reshape(n, 3)
    records = np.empty(n, dtype=_META_DTYPE)
    records["method"], records["class"], records["file"] = refs.T
    records["kind"] = columns.class_kinds
    records["line"] = columns.lines
    return records.tobytes(), heap.tobytes()


def is_store_file(path: str | Path) -> bool:
    """Cheap sniff: does the file start with the CGS1 magic bytes?"""
    try:
        with Path(path).open("rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


class _Decoded(dict):
    """One section's decoded values by node, on a store that holds every
    node: ``d[u]`` serves a hit in one C call, and a miss calls ``load(u)``,
    which decodes the value into the dict."""

    __slots__ = ("load",)

    def __init__(self, load) -> None:
        super().__init__()
        self.load = load

    def __missing__(self, u: int):
        return self.load(u)


class DiskGraph:
    """Graph-access handle over a CGS1 file.

    Satisfies the same contract as InMemoryGraph. Each handle maps the
    file read-only and owns its cache and statistics, and serves one
    query at a time; open several handles on the same file for
    parallelism.
    """

    def __init__(self, path: str | Path, cache: CacheConfig):
        self._path = Path(path)
        self._cache_config = cache
        self._map = _map_file(self._path)
        try:
            layout = _verify(self._map, self._path)
        except Exception:
            self._map.close()
            raise
        # (fwd csr, bwd csr, kind bytes) as the views of the map that
        # ``open_store`` checked; ``csr`` and ``kind_codes`` serve them.
        (self._node_count, self._edge_count, (meta, heap, fwd, bwd), self._views) = layout
        n, capacity = self._node_count, cache.max_cached_nodes
        # Where each section starts in the map: the meta records, the heap
        # (which ends where fwd starts), and per run bit its prefix
        # offsets and its ids.
        self._meta_start, self._heap_start, self._heap_end = meta, heap, fwd
        self._run_starts = {bit: (start, start + 8 * (n + 1)) for bit, start in ((_FWD, fwd), (_BWD, bwd))}
        self._capacity = capacity
        # When the cache can evict, the recency stamps (see the module
        # docstring): per node the read-clock time of its latest read (-1
        # before any) and its record's section bits; per read since
        # ``_base`` its node and the time of the previous read of that
        # node, at index ``time - _base``; the horizon, the earliest time
        # whose read still finds its record; and how many records the
        # cache holds. Each array is also held as a memoryview, which
        # single reads index faster. Otherwise ``_last`` is None, and the
        # cache is one ``_Decoded`` dict per section bit; ``_held`` then
        # has a node's bit set exactly when its section dict holds the
        # node.
        self._last: np.ndarray | None = None
        self._last_mv: memoryview | None = None
        self._held = np.zeros(n, np.uint8)
        self._held_mv = memoryview(self._held)
        if capacity < n:
            self._last = np.full(n, -1, np.int64)
            self._last_mv = memoryview(self._last)
            self._nodes = np.empty(capacity + _HISTORY_SLACK, np.int64)
            self._nodes_mv = memoryview(self._nodes)
            self._base = self._clock = self._horizon = self._live = 0
        self._decoded = {bit: _Decoded(partial(self._load, bit)) for bit in (_FWD, _BWD, _META)}
        # ``readers()``: per section (fwd, bwd, meta) its dict's lookup, or
        # its ``_load`` when the cache can evict and the dicts stay empty.
        self._reads = tuple(
            decoded.__getitem__ if self._last is None else decoded.load for decoded in self._decoded.values()
        )
        self._run_structs: dict[int, struct.Struct] = {}
        self._stats = AccessStats()

    # ---- access contract ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def successors(self, u: NodeId) -> tuple[int, ...]:
        u = check_node(u, self._node_count)
        self._stats.adjacency_reads += 1
        return self._reads[0](u)

    def predecessors(self, u: NodeId) -> tuple[int, ...]:
        u = check_node(u, self._node_count)
        self._stats.adjacency_reads += 1
        return self._reads[1](u)

    def method_meta(self, u: NodeId) -> MethodMeta:
        """One meta read of node ``u``, the kernel's kind read, then its
        whole record decoded from the map."""
        u = check_node(u, self._node_count)
        self._stats.meta_reads += 1
        return self._read_meta(u, self._reads[2](u))

    def readers(self):
        """The search kernel's unchecked reads of forward runs, backward
        runs and class kinds, which the contract methods read through
        too. Each counts the miss it makes but not the read: the kernel
        hands its reads to ``end_query``.

        When the cache holds every node, each is its section dict's
        ``__getitem__``: a hit costs one C call, and the kernel starts
        such a store's queries on list tables. When it can evict, each is
        ``_load``, which keeps recency and decodes from the map. Ids must
        lie in ``[0, node_count)``.
        """
        return self._reads

    @property
    def holds_every_node(self) -> bool:
        """Whether the cache has room for every node, so that nothing is
        ever evicted."""
        return self._last is None

    def csr(self, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
        """One direction's (offsets, ids) as the zero-copy read-only views
        of the map that ``open_store`` checked: offsets as ``<i8``, proved
        to rise from 0 to ``edge_count``, and ids as ``<u4``, proved below
        ``node_count``. Reading them counts nothing."""
        return self._views[0] if direction is Direction.FORWARD else self._views[1]

    def kind_codes(self) -> np.ndarray:
        """Each node's class-kind byte, the strided zero-copy read-only
        view of the meta records that ``open_store`` checked, each byte
        the kind's index in ``tuple(ClassKind)``, as
        ``InMemoryGraph.kind_codes`` gives it. Reading it counts nothing."""
        return self._views[2]

    @property
    def replay(self):
        """What counts an array round's reads: ``_replay`` when the cache
        can evict, ``_replay_decoded`` when it cannot. The kernel runs
        array rounds only on a store that has it and hands it their reads."""
        return self._replay_decoded if self._last is None else self._replay

    # ---- query/statistics management ----------------------------------------

    def begin_query(self) -> None:
        """Searches call this on entry; in cold mode it empties the cache."""
        if self._cache_config.mode is CacheMode.COLD_PER_QUERY:
            if self._last is not None:
                # No earlier read finds its record, so the history restarts.
                self._base = self._horizon = self._clock
                self._live = 0
            else:
                self._held.fill(0)
                for cache in self._decoded.values():
                    cache.clear()

    def end_query(self, runs: int, kinds: int) -> None:
        """Searches call this on exit, even when they raise, with the
        ``runs`` run reads and ``kinds`` kind reads they made through
        ``readers()`` and ``replay``, which counted only their misses."""
        self._stats.adjacency_reads += runs
        self._stats.meta_reads += kinds

    def access_stats(self) -> AccessStats:
        return self._stats.copy()

    def reset_stats(self) -> None:
        self._stats = AccessStats()

    def close(self) -> None:
        self._views = None  # a view of the map would keep it from closing
        self._map.close()

    def __enter__(self) -> "DiskGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"DiskGraph({str(self._path)!r}, nodes={self._node_count}, edges={self._edge_count})"

    # ---- internals -------------------------------------------------------

    # ``_load`` serves single reads and ``_replay`` an array round's reads,
    # each in one frame: routing either through a helper frame per read
    # costs more than the code it would share (see CHANGES.md).

    def _load(self, bit: int, u: int) -> tuple[int, ...] | ClassKind:
        """One read of section ``bit`` of node ``u``: its run in that
        direction, or its class kind for ``_META``. It counts a miss, not
        the read. When the cache holds every node, only a miss of the
        section dict comes here, and the value is decoded into the dict."""
        last = self._last_mv
        if last is not None:
            t, base = self._clock, self._base
            if t - base == len(self._nodes):
                self._make_room(1)
                t, base = self._clock, self._base
            p = last[u]
            if p >= self._horizon:
                held = self._held_mv[u]
            else:
                held = 0
                if self._live < self._capacity:
                    self._live += 1
                else:  # evict the least recent record: the horizon's next latest read
                    nodes, j = self._nodes_mv, self._horizon - base
                    while last[nodes[j]] != base + j:
                        j += 1
                    self._horizon = base + j + 1
            last[u] = t
            self._nodes_mv[t - base] = u
            self._clock = t + 1
        else:
            held = self._held_mv[u]
        self._held_mv[u] = held | bit
        if not held & bit:
            stats = self._stats
            stats.cache_misses += 1
            latency = self._cache_config.latency_per_miss
            if latency > 0:
                time.sleep(latency)
                stats.injected_latency_total += latency
        if bit == _META:
            value = _KINDS[self._map[self._meta_start + _META_RECORD.size * u + _KIND_OFFSET]]
        else:
            prefix, ids = self._run_starts[bit]
            start, end = _U64x2.unpack_from(self._map, prefix + 8 * u)
            decode = self._run_structs.get(end - start)
            if decode is None:
                decode = self._run_structs[end - start] = struct.Struct(f"<{end - start}I")
            value = decode.unpack_from(self._map, ids + 4 * start)
        if last is None:
            self._decoded[bit][u] = value
        return value

    def _replay(self, forward: bool, reads: np.ndarray) -> None:
        """Count an array round's misses as ``_load`` would have: ``u`` is
        a read of u's run in the round's direction, ``~u`` a read of u's
        class kind, in the order the per-node body makes them, as an int64
        array. The kernel calls this only on a store that can evict.

        A round of ``_ARRAY_REPLAY_MIN`` reads or more is counted with
        numpy by ``_count_round``, unless it holds too many far reads to
        count; the rest are read by read, as ``_load`` does."""
        m = len(reads)
        run_bit = _FWD if forward else _BWD
        if self._clock - self._base + m > len(self._nodes):
            self._make_room(m)
        hits = self._count_round(run_bit, reads) if m >= _ARRAY_REPLAY_MIN else None
        if hits is None:
            last, held, nodes = self._last_mv, self._held_mv, self._nodes_mv
            base, capacity, horizon, live = self._base, self._capacity, self._horizon, self._live
            t = self._clock
            hits = 0
            for u in reads.tolist():
                if u < 0:
                    u = ~u
                    bit = _META
                else:
                    bit = run_bit
                p = last[u]
                if p >= horizon:
                    bits = held[u]
                    if bits & bit:
                        hits += 1
                else:
                    bits = 0
                    if live < capacity:
                        live += 1
                    else:
                        j = horizon - base
                        while last[nodes[j]] != base + j:
                            j += 1
                        horizon = base + j + 1
                held[u] = bits | bit
                last[u] = t
                nodes[t - base] = u
                t += 1
            self._clock, self._horizon, self._live = t, horizon, live
        stats = self._stats
        stats.cache_misses += m - hits
        latency = self._cache_config.latency_per_miss
        if latency > 0:
            for _ in range(m - hits):
                time.sleep(latency)
                stats.injected_latency_total += latency

    def _replay_decoded(self, forward: bool, reads: np.ndarray) -> None:
        """``_replay`` for a store that holds every node: a read whose
        node's ``_held`` bit is set is a hit, found with numpy; each other
        read goes, in order, through its section dict, which loads a miss
        into the dict or hits on an earlier such read. On a warm cache
        there are none."""
        run_bit = _FWD if forward else _BWD
        is_kind = reads < 0
        nodes = np.where(is_kind, ~reads, reads)
        bits = np.where(is_kind, _META, run_bit)
        unheld = np.flatnonzero((self._held[nodes] & bits) == 0)
        decoded = self._decoded
        for bit, u in zip(bits[unheld].tolist(), nodes[unheld].tolist()):
            decoded[bit][u]  # a miss loads through ``_Decoded.__missing__``

    def _count_round(self, run_bit: int, reads: np.ndarray) -> int | None:
        """Count a round's reads with numpy and return its hits, or
        return None, changing nothing, when more than one read in
        ``_FAR_SHARE`` is far: its node's previous read is at or after the
        horizon but more than C reads back, so only a count of the nodes
        read in between tells whether it finds its record.

        A stable argsort by node finds each read's previous read of the
        same node, the horizon, the stack-distance rule and ``_distinct``
        find which reads find their record, and exclusive cumsums within
        each record's run of found reads give the section bits it holds."""
        m = len(reads)
        base, clock, capacity, horizon = self._base, self._clock, self._capacity, self._horizon
        is_kind = reads < 0
        nodes = np.where(is_kind, ~reads, reads)
        # Read by read in node order; within a node, in time order.
        order = np.argsort(nodes, kind="stable")
        nodes, is_kind = nodes[order], is_kind[order]
        t = clock + order
        first = np.ones(m, bool)
        first[1:] = nodes[1:] != nodes[:-1]
        p = np.empty(m, np.int64)
        p[1:] = t[:-1]
        p[first] = self._last[nodes[first]]
        found = p >= horizon
        far = np.flatnonzero(found & (t - p > capacity))
        if len(far) * _FAR_SHARE > m:
            return None
        if len(far):
            prev = np.empty(m, np.int64)
            prev[order] = p
            found[far] = self._distinct(prev, p[far], t[far]) < capacity
        # A record's run of found reads starts at the round's first read
        # of its node, carrying the bits held before the round when that
        # read finds it, or at a read that does not find it, carrying none.
        starts = first | ~found
        carry = np.where(first & found, self._held[nodes], 0)
        run_start = np.maximum.accumulate(np.where(starts, np.arange(m), 0))
        kinds_before = np.cumsum(is_kind) - is_kind
        runs_before = np.arange(m) - kinds_before
        carried = carry[run_start]
        same_before = np.where(
            is_kind, kinds_before - kinds_before[run_start], runs_before - runs_before[run_start]
        )
        bits = np.where(is_kind, _META, run_bit)
        hits = int(np.count_nonzero(found & ((same_before > 0) | (carried & bits != 0))))
        # Each node's last read leaves its record's bits and its stamp.
        ends = np.ones(m, bool)
        ends[:-1] = first[1:]
        ends = np.flatnonzero(ends)
        runs = run_start[ends]
        kinds_in = kinds_before[ends] + is_kind[ends] - kinds_before[runs]
        runs_in = runs_before[ends] + ~is_kind[ends] - runs_before[runs]
        kept = np.where(kinds_in > 0, _META, 0) | np.where(runs_in > 0, run_bit, 0)
        self._held[nodes[ends]] = carried[ends] | kept
        self._last[nodes[ends]] = t[ends]
        self._nodes[t - base] = nodes
        self._clock = clock + m
        # The records held before the round and not read in it.
        self._evict(self._live - int(np.count_nonzero(p[first] >= horizon)), t[ends])
        return hits

    def _distinct(self, prev: np.ndarray, p: np.ndarray, t: np.ndarray) -> np.ndarray:
        """How many distinct nodes were read between each time ``t`` in a
        numpy round that starts at ``_clock`` and ``p``, the previous read
        of its node, at or after the horizon; ``prev`` holds the previous
        read of each of the round's reads, in time order. They are the
        nodes first read in that span: before the round, those whose
        latest read as it starts falls after p; in it, the reads before t
        whose own previous read falls before p, less the round's reads up
        to p when the round holds it."""
        base, clock, horizon = self._base, self._clock, self._horizon
        stretch = self._nodes[horizon - base : clock - base]
        latest = self._last[stretch] == np.arange(horizon, clock)
        counts = []
        for a, b in zip(p.tolist(), t.tolist()):
            before = np.count_nonzero(latest[a + 1 - horizon :]) if a < clock else clock - 1 - a
            counts.append(before + np.count_nonzero(prev[: b - clock] < a))
        return np.array(counts)

    def _evict(self, old: int, ends: np.ndarray) -> None:
        """Settle the cache after a numpy round: ``old`` records held
        before the round were not read in it, and ``ends`` are the times of
        the round's last read of each node it read, whose records are now
        held. Beyond ``max_cached_nodes`` the least recent go: the old ones
        first, the earliest latest reads from the horizon on, found a
        doubling stretch at a time; then the round's, by time."""
        capacity = self._capacity
        drop = old + len(ends) - capacity
        self._live = min(capacity, old + len(ends))
        if drop <= 0:
            return
        if drop > old:
            self._horizon = int(np.partition(ends, drop - old - 1)[drop - old - 1]) + 1
            return
        base, j, stop, span = self._base, self._horizon - self._base, self._clock - self._base, 2 * drop
        while True:
            stretch = self._nodes[j : min(j + span, stop)]
            latest = np.flatnonzero(self._last[stretch] == np.arange(base + j, base + j + len(stretch)))
            if len(latest) >= drop:
                self._horizon = base + j + int(latest[drop - 1]) + 1
                return
            drop -= len(latest)
            j += len(stretch)
            span *= 2

    def _make_room(self, m: int) -> None:
        """Make room for ``m`` more reads in the history, keeping every
        count it gives. Only the records the cache holds can still be
        found, and only their order matters; their nodes' latest reads are
        the latest reads from the horizon on. So the history is replaced by
        one read of each, in that order, after a new ``_base`` and horizon
        that no other stamp reaches; a node's held bits stay. It grows only
        when a round is longer than the room this leaves, so it holds at
        most C + ``_HISTORY_SLACK`` reads, or that and the longest round."""
        base, clock = self._base, self._clock
        records = self._nodes[self._horizon - base : clock - base]
        records = records[self._last[records] == np.arange(self._horizon, clock)]
        if len(records) + m > len(self._nodes):
            self._nodes = np.empty(len(records) + m + _HISTORY_SLACK, np.int64)
            self._nodes_mv = memoryview(self._nodes)
        self._base = self._horizon = clock
        self._clock = clock + len(records)
        self._last[records] = np.arange(clock, self._clock)
        self._nodes[: len(records)] = records

    def _read_meta(self, u: int, kind: ClassKind) -> MethodMeta:
        name_off, class_off, file_off, _, line = _META_RECORD.unpack_from(
            self._map, self._meta_start + _META_RECORD.size * u
        )
        try:  # UnicodeDecodeError is a ValueError, and so is an empty name
            return MethodMeta(
                node=u,
                method_name=self._read_string(name_off),
                class_name=self._read_string(class_off),
                class_kind=kind,
                file=self._read_string(file_off),
                line=line,
            )
        except ValueError as exc:
            raise StoreFormatError(f"node {u}: {exc}") from exc

    def _read_string(self, offset: int) -> str:
        end = self._heap_end
        start = self._heap_start + offset + _U32.size  # the bytes follow their u32 length
        if start > end:
            raise ValueError(f"string offset {offset} is past the string heap")
        stop = start + _U32.unpack_from(self._map, start - _U32.size)[0]
        if stop > end:
            raise ValueError(f"string at offset {offset} runs past the string heap")
        return self._map[start:stop].decode("utf-8")


def open_store(path: str | Path, cache: CacheConfig | None = None) -> DiskGraph:
    """Open and fully verify a CGS1 file; returns a graph-access handle."""
    return DiskGraph(path, cache or CacheConfig())


def _map_file(path: Path) -> mmap.mmap:
    """Map a store file read-only. Empty files cannot be mapped, so the
    header-size check comes first."""
    with path.open("rb") as fh:
        if os.fstat(fh.fileno()).st_size < _HEADER.size:
            raise StoreFormatError(f"{path}: file too short for a CGS1 header")
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def _verify(buf: mmap.mmap, path: Path) -> tuple[int, int, list[int], tuple]:
    """Validate the header layout, all five checksums and the sections
    the kernel reads; returns (node_count, edge_count, [section offsets],
    views), where views are the views of the map that were checked: the
    fwd and bwd (offsets ``<i8``, ids ``<u4``) and the class-kind bytes.
    When a check fails no view is left on the map, so it can be closed."""
    file_size = len(buf)
    header = buf[: _HEADER.size]
    fields = _HEADER.unpack(header)
    magic, version, node_count, edge_count = fields[0], fields[1], fields[2], fields[3]
    if magic != MAGIC:
        raise StoreFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    table = fields[4:12]
    trailer_offset = fields[12]
    offsets = [table[0], table[2], table[4], table[6]]
    sizes = [table[1], table[3], table[5], table[7]]

    expected_meta = _META_RECORD.size * node_count
    if sizes[0] != expected_meta:
        raise StoreFormatError(
            f"{path}: meta-index size {sizes[0]} != {expected_meta} for {node_count} nodes"
        )
    expected_adj = 8 * (node_count + 1) + 4 * edge_count
    for idx in (2, 3):
        if sizes[idx] != expected_adj:
            raise StoreFormatError(
                f"{path}: {_SECTION_NAMES[idx]} size {sizes[idx]} != {expected_adj}"
            )
    expected_offset = _HEADER.size
    for idx in range(4):
        if offsets[idx] != expected_offset:
            raise StoreFormatError(f"{path}: {_SECTION_NAMES[idx]} offset out of order")
        expected_offset += sizes[idx]
    if trailer_offset != expected_offset:
        raise StoreFormatError(f"{path}: trailer offset mismatch")

    # Truncation shows up as a section extending past end-of-file.
    expected_size = trailer_offset + _TRAILER.size
    if file_size < expected_size:
        for idx in range(4):
            if offsets[idx] + sizes[idx] > file_size:
                raise ChecksumError(
                    _SECTION_NAMES[idx],
                    f"truncated: section ends at {offsets[idx] + sizes[idx]}, "
                    f"file has {file_size} bytes",
                )
        raise ChecksumError("trailer", f"truncated: file has {file_size} bytes, need {expected_size}")
    if file_size > expected_size:
        raise StoreFormatError(f"{path}: {file_size - expected_size} bytes of trailing garbage")

    crcs = _TRAILER.unpack_from(buf, trailer_offset)
    if crcs[0] != crc32(header):
        raise ChecksumError.mismatch("header", crcs[0], crc32(header))
    with memoryview(buf) as view:
        for idx in range(4):
            actual = crc32(view[offsets[idx] : offsets[idx] + sizes[idx]])
            if actual != crcs[idx + 1]:
                raise ChecksumError.mismatch(_SECTION_NAMES[idx], crcs[idx + 1], actual)
    n, m = node_count, edge_count
    views = (
        *[
            (np.frombuffer(buf, "<i8", n + 1, start), np.frombuffer(buf, "<u4", m, start + 8 * (n + 1)))
            for start in offsets[2:]
        ],
        np.ndarray((n,), np.uint8, buf, offsets[0] + _KIND_OFFSET, (_META_RECORD.size,)),
    )
    problem = _kind_problem(views[2]) or _adjacency_problem(views[:2], n, m)
    if problem is not None:
        del views  # the traceback keeps this frame, and a view on the map keeps it open
        raise StoreFormatError(f"{path}: {problem}")
    return n, m, offsets, views


def _kind_problem(kinds: np.ndarray) -> str | None:
    """The first meta record whose class-kind byte is not a ``ClassKind``
    code, named with its byte, or None."""
    bad = np.flatnonzero(kinds >= len(_KINDS))
    if len(bad):
        return f"node {bad[0]}: unknown class-kind byte {kinds[bad[0]]}"
    return None


def _adjacency_problem(csr: tuple, n: int, m: int) -> str | None:
    """What makes the fwd and bwd (offsets, ids) other than the CSR
    layouts of one edge set, naming the section, or None when nothing
    does. Offsets that rise from 0 to ``m`` lie in [0, m], whatever the
    sign of their ``<i8`` reading."""
    for name, (prefix, ids) in zip(_SECTION_NAMES[2:], csr):
        if prefix[0] != 0 or prefix[-1] != m or (prefix[1:] < prefix[:-1]).any():
            return f"{name}: prefix offsets do not rise from 0 to {m}"
        if m and ids.max() >= n:
            return f"{name}: node id {int(ids.max())} out of range for {n} nodes"
        # Each id must exceed the one before it, except where a run starts.
        rises = ids[1:] > ids[:-1]
        starts = prefix[1:-1]
        rises[starts[(starts > 0) & (starts < m)] - 1] = True
        if not rises.all():
            return f"{name}: a run of ids is not strictly ascending"
    # Both sections as (callee, caller) keys: the forward edges sorted by
    # callee must be the backward runs, which are already in that order.
    width = np.uint64(n)
    keys = []
    for (prefix, ids), ids_are_callees in zip(csr, (True, False)):
        owners = np.repeat(np.arange(n, dtype=np.uint64), np.diff(prefix))
        keys.append(ids * width + owners if ids_are_callees else owners * width + ids)
    if not np.array_equal(np.sort(keys[0]), keys[1]):
        return "backward-adjacency: not the transpose of forward-adjacency"
    return None
