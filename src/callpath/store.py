"""Disk-resident graph backend with read accounting.

Models the environment where graph data lives on disk and is fetched
on demand: every first touch of a node's metadata or adjacency costs a
"disk access", optionally with injected latency, and an LRU cache of
whole node records bounds what stays in memory. Searches running over
this backend produce exactly the same results as over the in-memory
backend; only timing and access statistics differ.

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
``model.InMemoryGraph`` written out as is. A handle maps the file
read-only once and decodes rows, metadata records and heap strings
straight from the map; the file must not be modified while a handle is
open. ``open_store`` verifies every checksum up front (a corrupt or
truncated file fails naming the damaged section); the verification
scan happens before any access accounting starts.

A miss decodes only what the call returns. An adjacency miss unpacks
one id run. ``class_kind``, the call a search probe makes, reads the
single kind byte of the node's meta record; ``method_meta`` counts as
the same meta read (a hit once either call has read the record) and
decodes the record's strings into a ``MethodMeta`` on its first call
while the record stays cached.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from zlib import crc32

from .errors import ChecksumError, StoreFormatError, StoreLimitError
from .model import ClassKind, Direction, InMemoryGraph, MethodMeta, NodeId, check_node, materialize

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
        if not 0 <= self.latency_per_miss < math.inf:  # also rejects NaN
            raise ValueError("latency_per_miss must be finite and non-negative")


@dataclass
class AccessStats:
    """Monotone read counters since open or the last reset.

    Every metadata or adjacency read is classified as exactly one cache
    hit or miss, so ``cache_hits + cache_misses`` always equals
    ``meta_reads + adjacency_reads``.
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

    The adjacency sections are the graph's CSR arrays; other backends
    are copied into an InMemoryGraph first. Round-trips: opening the
    file yields the same successors, predecessors and metadata for
    every node.
    """
    n = graph.node_count
    if n >= _MAX_NODES:
        raise StoreLimitError(f"node_count {n} exceeds format limit {_MAX_NODES - 1}")
    if not isinstance(graph, InMemoryGraph):
        graph = materialize(graph)

    heap = bytearray()
    offsets: dict[str, int] = {}

    def intern(s: str) -> int:
        off = offsets.get(s)
        if off is None:
            data = s.encode("utf-8")
            off = len(heap)
            heap.extend(_U32.pack(len(data)))
            heap.extend(data)
            offsets[s] = off
        return off

    meta = bytearray()
    for u in range(n):
        m = graph.method_meta(u)
        if m.line >= _MAX_LINE:
            raise StoreLimitError(f"line number {m.line} exceeds format limit")
        meta.extend(
            _META_RECORD.pack(
                intern(m.method_name),
                intern(m.class_name),
                intern(m.file),
                _KIND_TO_BYTE[m.class_kind],
                m.line,
            )
        )

    sections = [bytes(meta), bytes(heap)]
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


def is_store_file(path: str | Path) -> bool:
    """Cheap sniff: does the file start with the CGS1 magic bytes?"""
    try:
        with Path(path).open("rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


class _NodeRecord:
    """One LRU cache entry; sections fill in lazily as they are first read.

    The meta section counts as read once ``kind`` is set; ``meta`` is
    decoded from the map on the first ``method_meta`` call after that.
    """

    __slots__ = ("kind", "meta", "fwd", "bwd")

    def __init__(self) -> None:
        self.kind: ClassKind | None = None
        self.meta: MethodMeta | None = None
        self.fwd: tuple[int, ...] | None = None
        self.bwd: tuple[int, ...] | None = None


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
        self._lru: OrderedDict[int, _NodeRecord] = OrderedDict()
        # With room for every node nothing is ever evicted, so recency
        # order is never read and hits skip maintaining it.
        self._evicts = cache.max_cached_nodes < self._node_count
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
        return self._adjacency(u, forward=True)

    def predecessors(self, u: NodeId) -> tuple[int, ...]:
        return self._adjacency(u, forward=False)

    def method_meta(self, u: NodeId) -> MethodMeta:
        u = check_node(u, self._node_count)
        record = self._meta_entry(u)
        if record.meta is None:
            record.meta = self._read_meta(u, record.kind)
        return record.meta

    def class_kind(self, u: NodeId) -> ClassKind:
        """``method_meta(u).class_kind``, counted as the same meta read,
        but a miss reads only the record's kind byte."""
        return self._meta_entry(check_node(u, self._node_count)).kind

    # ---- query/statistics management ----------------------------------------

    def begin_query(self) -> None:
        """Searches call this on entry; in cold mode it empties the cache."""
        if self._cache_config.mode is CacheMode.COLD_PER_QUERY:
            self._lru.clear()

    def access_stats(self) -> AccessStats:
        return self._stats.copy()

    def reset_stats(self) -> None:
        self._stats = AccessStats()

    @property
    def cache_config(self) -> CacheConfig:
        return self._cache_config

    def close(self) -> None:
        self._map.close()

    def __enter__(self) -> "DiskGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"DiskGraph({str(self._path)!r}, nodes={self._node_count}, edges={self._edge_count})"

    # ---- internals -------------------------------------------------------

    def _entry(self, u: int) -> _NodeRecord:
        record = self._lru.get(u)
        if record is None:
            record = _NodeRecord()
            self._lru[u] = record
            while len(self._lru) > self._cache_config.max_cached_nodes:
                self._lru.popitem(last=False)
        elif self._evicts:
            self._lru.move_to_end(u)
        return record

    def _meta_entry(self, u: int) -> _NodeRecord:
        """Count one meta read of ``u``; on a miss read its kind byte."""
        record = self._entry(u)
        self._stats.meta_reads += 1
        if record.kind is not None:
            self._stats.cache_hits += 1
            return record
        self._miss()
        offset = self._section_offsets[0] + _META_RECORD.size * u + _KIND_OFFSET
        kind_byte = self._map[offset]
        record.kind = _BYTE_TO_KIND.get(kind_byte)
        if record.kind is None:
            raise StoreFormatError(f"node {u}: unknown class-kind byte {kind_byte}")
        return record

    def _miss(self) -> None:
        self._stats.cache_misses += 1
        latency = self._cache_config.latency_per_miss
        if latency > 0:
            time.sleep(latency)
            self._stats.injected_latency_total += latency

    def _adjacency(self, u: NodeId, forward: bool) -> tuple[int, ...]:
        u = check_node(u, self._node_count)
        record = self._entry(u)
        self._stats.adjacency_reads += 1
        cached = record.fwd if forward else record.bwd
        if cached is not None:
            self._stats.cache_hits += 1
            return cached
        self._miss()
        run = self._read_adjacency(u, forward)
        if forward:
            record.fwd = run
        else:
            record.bwd = run
        return run

    def _read_adjacency(self, u: int, forward: bool) -> tuple[int, ...]:
        prefix = self._section_offsets[2 if forward else 3]
        start, end = _U64x2.unpack_from(self._map, prefix + 8 * u)
        ids = prefix + 8 * (self._node_count + 1)
        run = self._run_structs.get(end - start)
        if run is None:
            run = self._run_structs[end - start] = struct.Struct(f"<{end - start}I")
        return run.unpack_from(self._map, ids + 4 * start)

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
    return node_count, edge_count, offsets
