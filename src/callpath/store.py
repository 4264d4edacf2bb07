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
corrupt or truncated file fails naming the damaged section), then
checks with numpy over the map that the adjacency sections are well
formed: each prefix rises from 0 to ``edge_count``, every id is below
``node_count``, each run is strictly ascending and bwd is the transpose
of fwd. So a reader never indexes past a section, and the ids a search
reads back are valid node ids. Class-kind bytes are checked when read.
All of this happens before any access accounting starts.

The cache holds one dict per record section, keyed by node id: forward
runs, backward runs, class kinds and decoded ``MethodMeta``. A node is
cached while any of them holds it, and an evicted node loses all four,
so the cache behaves as an LRU of whole node records. Recency is kept
in an ``OrderedDict`` of the cached ids only when the cache can evict,
that is when ``max_cached_nodes < node_count``.

A read is one cache hit or one miss. A miss decodes only what the call
returns: an adjacency miss unpacks one id run, and ``class_kind``, the
call a search probe makes, reads the single kind byte of the node's
meta record. ``method_meta`` counts as the same meta read (a hit once
either call has read the record) and decodes the record's strings on
its first call while the record stays cached. The search kernel reads
through ``readers()``: when nothing can be evicted, a hit there is one
C-level ``dict.get`` that counts nothing, and the kernel hands the
store the number of such hits once per query, through ``count_hits``,
even when the query raises; every other read is counted by the load
that serves it, in one Python frame and without the node-id check.

When the cache can evict, the kernel runs its large rounds as numpy
over zero-copy views of the mapped sections (``csr``, ``kind_codes``)
and then hands the store the round's reads, in the order the per-node
body would have made them, through ``replay``. The replay makes the
same recency moves, evictions, hit and miss counts and injected latency
as those loads, in one Python frame, but a replayed miss only marks its
section as loaded: the entry holds ``_UNDECODED`` until the first later
read that returns it decodes the bytes. ``close`` drops the views
before it unmaps the file.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from zlib import crc32

import numpy as np

from .errors import ChecksumError, StoreFormatError, StoreLimitError
from .model import (
    NO_LOOKUP,
    ClassKind,
    Direction,
    InMemoryGraph,
    MethodMeta,
    NodeColumns,
    NodeId,
    check_node,
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

_KIND_TO_BYTE = {ClassKind.INTERFACE: 0, ClassKind.ABSTRACT: 1, ClassKind.CONCRETE: 2}
_BYTE_TO_KIND = {b: k for k, b in _KIND_TO_BYTE.items()}

_MAX_NODES = 2**32
_MAX_LINE = 2**32
#: The longest ``time.sleep`` the platform takes, in seconds.
_MAX_LATENCY = threading.TIMEOUT_MAX
#: A cache entry whose read was replayed as a miss: its bytes are decoded
#: by the first later read that returns it.
_UNDECODED = object()


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
        if self.max_cached_nodes < 1:
            raise ValueError("max_cached_nodes must be at least 1")
        if not 0 <= self.latency_per_miss <= _MAX_LATENCY:  # also rejects NaN
            raise ValueError(
                f"latency_per_miss must be finite and non-negative, at most {_MAX_LATENCY} s"
            )


@dataclass
class AccessStats:
    """Monotone read counters since open or the last reset.

    Every metadata or adjacency read is classified as exactly one cache
    hit or miss, so ``cache_hits + cache_misses`` always equals
    ``meta_reads + adjacency_reads``. The hits a search serves from
    ``readers()`` lookups are added when the search returns or raises.
    """

    meta_reads: int = 0
    adjacency_reads: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    injected_latency_total: float = 0.0

    def copy(self) -> "AccessStats":
        return AccessStats(
            self.meta_reads,
            self.adjacency_reads,
            self.cache_hits,
            self.cache_misses,
            self.injected_latency_total,
        )


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
_KIND_BYTES = np.array([_KIND_TO_BYTE[kind] for kind in ClassKind], dtype=np.uint8)  # by kind code


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
    records["kind"] = _KIND_BYTES[columns.class_kinds]
    records["line"] = columns.lines
    return records.tobytes(), heap.tobytes()


def is_store_file(path: str | Path) -> bool:
    """Cheap sniff: does the file start with the CGS1 magic bytes?"""
    try:
        with Path(path).open("rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


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
        (self._node_count, self._edge_count, self._section_offsets) = layout
        # One cache dict per record section, keyed by node id; a node's
        # record is its entries in the four, and eviction drops them all.
        self._fwd: dict[int, tuple[int, ...]] = {}
        self._bwd: dict[int, tuple[int, ...]] = {}
        self._kinds: dict[int, ClassKind] = {}
        self._metas: dict[int, MethodMeta] = {}
        self._sections = (self._fwd, self._bwd, self._kinds, self._metas)
        # The cached ids in recency order, kept only when the cache can
        # evict; with room for every node nothing is ever evicted.
        self._recency: OrderedDict[int, None] | None = (
            OrderedDict() if cache.max_cached_nodes < self._node_count else None
        )
        self._run_structs: dict[int, struct.Struct] = {}
        # (fwd csr, bwd csr, kind bytes) as views of the map, built on first use.
        self._views: tuple | None = None
        self._stats = AccessStats()

    # ---- access contract ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def successors(self, u: NodeId) -> tuple[int, ...]:
        return self._load_run(self._fwd, self._section_offsets[2], check_node(u, self._node_count))

    def predecessors(self, u: NodeId) -> tuple[int, ...]:
        return self._load_run(self._bwd, self._section_offsets[3], check_node(u, self._node_count))

    def method_meta(self, u: NodeId) -> MethodMeta:
        u = check_node(u, self._node_count)
        kind = self._load_kind(u)
        meta = self._metas.get(u)
        if meta is None:
            meta = self._metas[u] = self._read_meta(u, kind)
        return meta

    def class_kind(self, u: NodeId) -> ClassKind:
        """``method_meta(u).class_kind``, counted as the same meta read,
        but a miss reads only the record's kind byte."""
        return self._load_kind(check_node(u, self._node_count))

    def readers(self):
        """The search kernel's unchecked reads: a ``(lookup, load)`` pair
        each for forward runs, backward runs and class kinds.

        ``lookup(u)`` is the section dict's ``get`` when nothing can be
        evicted: a hit costs one C call and is not counted until
        ``count_hits``. When the cache can evict it never hits, so every
        read goes through ``load(u)``, which counts itself, keeps recency
        and reads the map on a miss. Ids must lie in ``[0, node_count)``.
        """
        offsets = self._section_offsets
        fwd = partial(self._load_run, self._fwd, offsets[2])
        bwd = partial(self._load_run, self._bwd, offsets[3])
        if self._recency is not None:
            return (NO_LOOKUP, fwd), (NO_LOOKUP, bwd), (NO_LOOKUP, self._load_kind)
        return (self._fwd.get, fwd), (self._bwd.get, bwd), (self._kinds.get, self._load_kind)

    def csr(self, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
        """One direction's (offsets, ids) as zero-copy read-only views of
        the map: offsets as ``<i8``, which ``open_store`` proved rise from
        0 to ``edge_count``, and ids as ``<u4``. Reading them counts nothing."""
        views = self._views or self._map_views()
        return views[0] if direction is Direction.FORWARD else views[1]

    def kind_codes(self) -> np.ndarray:
        """Each node's class-kind byte, a strided zero-copy view of the
        meta records. A valid byte equals the kind's index in
        ``tuple(ClassKind)``, as ``InMemoryGraph.kind_codes`` gives it; an
        unknown one is larger. Reading it counts nothing."""
        return (self._views or self._map_views())[2]

    def _map_views(self) -> tuple:
        n, m, buf = self._node_count, self._edge_count, self._map
        meta, _, *adjacency = self._section_offsets
        csr = [
            (np.frombuffer(buf, "<i8", n + 1, offset), np.frombuffer(buf, "<u4", m, offset + 8 * (n + 1)))
            for offset in adjacency
        ]
        kinds = np.ndarray((n,), np.uint8, buf, meta + _KIND_OFFSET, (_META_RECORD.size,))
        self._views = (*csr, kinds)
        return self._views

    @property
    def replay(self):
        """``_replay`` when the cache can evict, else None: the kernel runs
        array rounds only on a store that has it and hands it their reads.
        Without eviction every hit is a C-level ``dict.get``, which makes
        the per-node body cheaper than an array round (see ``search``)."""
        return None if self._recency is None else self._replay

    def count_hits(self, adjacency: int, meta: int) -> None:
        """Count reads that a ``readers()`` lookup served from the cache:
        ``adjacency`` run reads and ``meta`` kind reads, all hits."""
        stats = self._stats
        stats.adjacency_reads += adjacency
        stats.meta_reads += meta
        stats.cache_hits += adjacency + meta

    # ---- query/statistics management ----------------------------------------

    def begin_query(self) -> None:
        """Searches call this on entry; in cold mode it empties the cache."""
        if self._cache_config.mode is CacheMode.COLD_PER_QUERY:
            for section in self._sections:
                section.clear()
            if self._recency is not None:
                self._recency.clear()

    def access_stats(self) -> AccessStats:
        return self._stats.copy()

    def reset_stats(self) -> None:
        self._stats = AccessStats()

    @property
    def cache_config(self) -> CacheConfig:
        return self._cache_config

    def close(self) -> None:
        self._views = None  # an exported view would keep the map from closing
        self._map.close()

    def __enter__(self) -> "DiskGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"DiskGraph({str(self._path)!r}, nodes={self._node_count}, edges={self._edge_count})"

    # ---- internals -------------------------------------------------------

    # The two loads below count one read of node ``u`` and, when the
    # cache can evict, move ``u`` to the recent end, adding it and
    # evicting the least recent node's whole record if it was not cached.
    # Each runs in one frame, hit or miss: the recency and miss code is
    # written out in both, and in ``_replay``. A hit on an entry that a
    # replay left ``_UNDECODED`` decodes it as a miss would.

    def _load_run(self, runs: dict[int, tuple[int, ...]], prefix: int, u: int) -> tuple[int, ...]:
        """One adjacency read of ``u`` from the section at ``prefix``."""
        stats = self._stats
        stats.adjacency_reads += 1
        recency = self._recency
        if recency is not None:
            if u in recency:
                recency.move_to_end(u)
            else:
                recency[u] = None
                if len(recency) > self._cache_config.max_cached_nodes:
                    evicted = recency.popitem(last=False)[0]
                    for section in self._sections:
                        section.pop(evicted, None)
        run = runs.get(u)
        if run is not None:
            stats.cache_hits += 1
            if run is not _UNDECODED:
                return run
        else:
            stats.cache_misses += 1
            latency = self._cache_config.latency_per_miss
            if latency > 0:
                time.sleep(latency)
                stats.injected_latency_total += latency
        start, end = _U64x2.unpack_from(self._map, prefix + 8 * u)
        decode = self._run_structs.get(end - start)
        if decode is None:
            decode = self._run_structs[end - start] = struct.Struct(f"<{end - start}I")
        run = runs[u] = decode.unpack_from(self._map, prefix + 8 * (self._node_count + 1) + 4 * start)
        return run

    def _load_kind(self, u: int) -> ClassKind:
        """One meta read of ``u``; a miss reads only its kind byte."""
        stats = self._stats
        stats.meta_reads += 1
        recency = self._recency
        if recency is not None:
            if u in recency:
                recency.move_to_end(u)
            else:
                recency[u] = None
                if len(recency) > self._cache_config.max_cached_nodes:
                    evicted = recency.popitem(last=False)[0]
                    for section in self._sections:
                        section.pop(evicted, None)
        kind = self._kinds.get(u)
        if kind is not None:
            stats.cache_hits += 1
            if kind is not _UNDECODED:
                return kind
        else:
            stats.cache_misses += 1
            latency = self._cache_config.latency_per_miss
            if latency > 0:
                time.sleep(latency)
                stats.injected_latency_total += latency
        kind_byte = self._map[self._section_offsets[0] + _META_RECORD.size * u + _KIND_OFFSET]
        kind = _BYTE_TO_KIND.get(kind_byte)
        if kind is None:
            raise StoreFormatError(f"node {u}: unknown class-kind byte {kind_byte}")
        self._kinds[u] = kind
        return kind

    def _replay(self, forward: bool, reads: list[int]) -> None:
        """Count an array round's reads as the loads would have: ``u`` is
        a read of u's run in the round's direction, ``~u`` a read of u's
        class kind, in the order the per-node body makes them. A miss
        marks its entry ``_UNDECODED`` instead of decoding it. The kernel
        calls this only on a store that can evict, with kind reads of
        nodes whose kind byte is known."""
        stats = self._stats
        runs, kinds = (self._fwd if forward else self._bwd), self._kinds
        fwd, bwd, metas = self._fwd, self._bwd, self._metas
        recency = self._recency
        move_to_end, popitem = recency.move_to_end, recency.popitem
        room = self._cache_config.max_cached_nodes - len(recency)  # never negative
        latency = self._cache_config.latency_per_miss
        kind_reads = hits = 0
        for u in reads:
            if u < 0:
                u = ~u
                section = kinds
                kind_reads += 1
            else:
                section = runs
            if u in recency:
                move_to_end(u)
            else:
                recency[u] = None
                if room:
                    room -= 1
                else:
                    evicted = popitem(last=False)[0]
                    fwd.pop(evicted, None)
                    bwd.pop(evicted, None)
                    kinds.pop(evicted, None)
                    metas.pop(evicted, None)
            if u in section:
                hits += 1
            else:
                section[u] = _UNDECODED
                if latency > 0:
                    time.sleep(latency)
                    stats.injected_latency_total += latency
        stats.meta_reads += kind_reads
        stats.adjacency_reads += len(reads) - kind_reads
        stats.cache_hits += hits
        stats.cache_misses += len(reads) - hits

    def _read_meta(self, u: int, kind: ClassKind) -> MethodMeta:
        name_off, class_off, file_off, _, line = _META_RECORD.unpack_from(
            self._map, self._section_offsets[0] + _META_RECORD.size * u
        )
        return MethodMeta(
            node=u,
            method_name=self._read_string(name_off),
            class_name=self._read_string(class_off),
            class_kind=kind,
            file=self._read_string(file_off),
            line=line,
        )

    def _read_string(self, offset: int) -> str:
        start = self._section_offsets[1] + offset
        (length,) = _U32.unpack_from(self._map, start)
        return self._map[start + 4 : start + 4 + length].decode("utf-8")


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


def _verify(buf: mmap.mmap, path: Path) -> tuple[int, int, list[int]]:
    """Validate header layout and all five checksums; returns
    (node_count, edge_count, [section offsets])."""
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
    problem = _adjacency_problem(buf, node_count, edge_count, offsets)
    if problem is not None:
        raise StoreFormatError(f"{path}: {problem}")
    return node_count, edge_count, offsets


def _adjacency_problem(buf: mmap.mmap, n: int, m: int, offsets: list[int]) -> str | None:
    """What makes the fwd and bwd sections other than the CSR layouts of
    one edge set, naming the section, or None when nothing does.

    The arrays are views of the map; they are gone when this returns, so
    the map can still be closed if the caller raises.
    """
    runs = []
    for idx in (2, 3):
        name = _SECTION_NAMES[idx]
        prefix = np.frombuffer(buf, "<u8", n + 1, offsets[idx])
        ids = np.frombuffer(buf, "<u4", m, offsets[idx] + 8 * (n + 1))
        if prefix[0] != 0 or prefix[-1] != m or (prefix[1:] < prefix[:-1]).any():
            return f"{name}: prefix offsets do not rise from 0 to {m}"
        prefix = prefix.astype(np.int64)  # at most m, which the file size bounds
        if m and ids.max() >= n:
            return f"{name}: node id {int(ids.max())} out of range for {n} nodes"
        # Each id must exceed the one before it, except where a run starts.
        rises = ids[1:] > ids[:-1]
        starts = prefix[1:-1]
        rises[starts[(starts > 0) & (starts < m)] - 1] = True
        if not rises.all():
            return f"{name}: a run of ids is not strictly ascending"
        runs.append((prefix, ids))
    # Both sections as (callee, caller) keys: the forward edges sorted by
    # callee must be the backward runs, which are already in that order.
    width = np.uint64(n)
    keys = []
    for (prefix, ids), ids_are_callees in zip(runs, (True, False)):
        owners = np.repeat(np.arange(n, dtype=np.uint64), np.diff(prefix))
        keys.append(ids * width + owners if ids_are_callees else owners * width + ids)
    if not np.array_equal(np.sort(keys[0]), keys[1]):
        return "backward-adjacency: not the transpose of forward-adjacency"
    return None
