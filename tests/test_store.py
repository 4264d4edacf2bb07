import hashlib
import os
import struct
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path
from zlib import crc32

import numpy as np
import pytest

from callpath import store
from callpath.errors import ChecksumError, InvalidNodeError, StoreFormatError
from callpath.ingest import SyntheticSpec, generate_synthetic
from callpath.model import ClassKind, InMemoryGraph, MethodMeta
from callpath.search import (
    Algorithm,
    FrontierPolicy,
    SearchConfig,
    run_search,
)
from callpath.store import (
    CacheConfig,
    CacheMode,
    build_store,
    is_store_file,
    open_store,
)

from oracles import LruRecordModel, random_graph

BALANCED = SearchConfig(algorithm=Algorithm.BIDIR_BALANCED)


def kernel_kind_read(graph):
    """The search kernel's kind read of ``graph``, each read reported to
    its ``end_query``, if it has one, as the kernel reports its reads."""
    kind = graph.readers()[2]
    end_query = getattr(graph, "end_query", None)
    if end_query is None:
        return kind

    def read(u):
        value = kind(u)
        end_query(0, 1)
        return value

    return read


@pytest.fixture()
def fig_store(tmp_path, fig_graph):
    path = tmp_path / "fig.cgs"
    build_store(fig_graph, path)
    return path


def test_build_store_summary(tmp_path, fig_graph):
    summary = build_store(fig_graph, tmp_path / "fig.cgs")
    assert summary.node_count == 4
    assert summary.edge_count == 3
    assert summary.byte_size == (tmp_path / "fig.cgs").stat().st_size


def test_store_magic_sniff(tmp_path, fig_store):
    assert is_store_file(fig_store)
    other = tmp_path / "not-a-store.txt"
    other.write_text("{}\n")
    assert not is_store_file(other)
    assert not is_store_file(tmp_path / "missing")


def test_empty_graph_round_trip(tmp_path):
    path = tmp_path / "empty.cgs"
    summary = build_store(InMemoryGraph([], []), path)
    assert summary.node_count == 0 and summary.edge_count == 0
    with open_store(path) as handle:
        assert handle.node_count == 0
        with pytest.raises(InvalidNodeError):
            handle.successors(0)
        with pytest.raises(InvalidNodeError):
            handle.method_meta(0)


def test_round_trip_equality_fig(fig_store, fig_graph):
    with open_store(fig_store) as handle:
        assert handle.node_count == fig_graph.node_count
        assert handle.edge_count == fig_graph.edge_count
        for u in range(fig_graph.node_count):
            assert handle.successors(u) == fig_graph.successors(u)
            assert handle.predecessors(u) == fig_graph.predecessors(u)
            assert handle.method_meta(u) == fig_graph.method_meta(u)


def test_round_trip_preserves_unicode_strings(tmp_path):
    from callpath.model import ClassKind, MethodMeta

    metas = [
        MethodMeta(0, "übertrage", "Sände®", ClassKind.ABSTRACT, "pfad/Quelle.java", 42),
        MethodMeta(1, "受信", "受信機", ClassKind.INTERFACE),
    ]
    graph = InMemoryGraph(metas, [(0, 1)])
    path = tmp_path / "uni.cgs"
    build_store(graph, path)
    with open_store(path) as handle:
        assert handle.method_meta(0) == metas[0]
        assert handle.method_meta(1) == metas[1]


def test_round_trip_equality_10k_nodes(tmp_path):
    graph = generate_synthetic(
        SyntheticSpec(node_count=10_000, out_degree=3, hub_count=20, hub_indegree=40, seed=17)
    )
    path = tmp_path / "big.cgs"
    summary = build_store(graph, path)
    assert summary.node_count == 10_000
    with open_store(path, CacheConfig(max_cached_nodes=256)) as handle:
        for u in range(graph.node_count):
            assert handle.successors(u) == graph.successors(u)
            assert handle.predecessors(u) == graph.predecessors(u)
            assert handle.method_meta(u) == graph.method_meta(u)


# The sha256 of build_store output for three shipped graphs. The
# round-trip tests only compare what is read back; these pin the CGS1
# bytes themselves, so a format change fails here.
GOLDEN_STORE_SHA256 = {
    "transceiver": "9c111a77c8e575c53e2a77218027a76c8b5e0cf22c02a04ee4c1a211305781eb",
    "hub-1000": "652b371b435fa8c0a7a6d2a3dceae12271593720ad1770c78128feed95bae2c3",
    "empty": "96b2b9ed4baed6164b8fa4fce761b6a30bc737c45d6ea473834aae03d0caa311",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STORE_SHA256))
def test_store_bytes_match_golden_sha256(tmp_path, fig_graph, hub_graph, name):
    graph = {"transceiver": fig_graph, "hub-1000": hub_graph, "empty": InMemoryGraph([], [])}[name]
    path = tmp_path / f"{name}.cgs"
    build_store(graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_STORE_SHA256[name]
    with open_store(path) as handle:
        copy = tmp_path / f"{name}-copy.cgs"
        build_store(handle, copy)  # serialising a store handle reproduces the bytes
    assert copy.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# cache behavior and stats
# ---------------------------------------------------------------------------


def test_second_read_hits_cache(fig_store):
    with open_store(fig_store, CacheConfig(max_cached_nodes=4)) as handle:
        handle.successors(0)
        stats = handle.access_stats()
        assert (stats.adjacency_reads, stats.cache_misses, stats.cache_hits) == (1, 1, 0)
        handle.successors(0)
        stats = handle.access_stats()
        assert (stats.adjacency_reads, stats.cache_misses, stats.cache_hits) == (2, 1, 1)


def test_fresh_handle_stats_zero(fig_store):
    with open_store(fig_store) as handle:
        stats = handle.access_stats()
        assert stats.meta_reads == 0
        assert stats.adjacency_reads == 0
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0
        assert stats.injected_latency_total == 0.0


def test_meta_and_adjacency_are_separate_fetches(fig_store):
    with open_store(fig_store) as handle:
        handle.method_meta(0)
        handle.successors(0)  # same node record, different section
        stats = handle.access_stats()
        assert stats.meta_reads == 1
        assert stats.adjacency_reads == 1
        assert stats.cache_misses == 2
        handle.method_meta(0)
        assert handle.access_stats().cache_hits == 1


def test_lru_eviction_bounds_cache(fig_store):
    with open_store(fig_store, CacheConfig(max_cached_nodes=1)) as handle:
        handle.successors(0)
        handle.successors(1)  # evicts node 0
        handle.successors(0)  # miss again
        stats = handle.access_stats()
        assert stats.cache_misses == 3
        assert stats.cache_hits == 0


def test_cold_mode_clears_cache_per_query(fig_store, fig_graph):
    with open_store(fig_store, CacheConfig(mode=CacheMode.COLD_PER_QUERY)) as handle:
        run_search(handle, 0, 3, BALANCED)
        first = handle.access_stats()
        run_search(handle, 0, 3, BALANCED)
        second = handle.access_stats()
        # identical cold traversal: the second query repeats every miss
        assert second.cache_misses == 2 * first.cache_misses


def test_warm_mode_keeps_cache_across_queries(fig_store):
    with open_store(fig_store, CacheConfig(mode=CacheMode.WARM_ACROSS_QUERIES)) as handle:
        run_search(handle, 0, 3, BALANCED)
        first = handle.access_stats()
        run_search(handle, 0, 3, BALANCED)
        second = handle.access_stats()
        assert second.cache_misses == first.cache_misses
        assert second.cache_hits > first.cache_hits


def test_balanced_never_reads_metadata(fig_store):
    with open_store(fig_store) as handle:
        run_search(handle, 0, 3, BALANCED)
        assert handle.access_stats().meta_reads == 0


def test_probe_only_reads_metadata(fig_store):
    with open_store(fig_store) as handle:
        result = run_search(handle, 0, 3, SearchConfig(probe_only=True))
        stats = handle.access_stats()
        assert stats.meta_reads > 0
        assert stats.meta_reads == result.probe_count


@pytest.mark.parametrize("latency", [float("nan"), float("inf"), -0.001])
def test_cache_config_rejects_non_finite_or_negative_latency(latency):
    with pytest.raises(ValueError, match="latency_per_miss"):
        CacheConfig(latency_per_miss=latency)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_cached_nodes", 2.5),
        ("max_cached_nodes", 4.0),
        ("max_cached_nodes", True),
        ("max_cached_nodes", "4"),
        ("mode", "cold"),
        ("mode", None),
        ("latency_per_miss", "0"),
        ("latency_per_miss", True),
        ("latency_per_miss", None),
    ],
)
def test_cache_config_rejects_a_wrongly_typed_field(field, value):
    # "cold" kept the cache across queries, 2.5 failed in numpy at
    # open_store, True was taken as 1 and "0" failed in a comparison
    with pytest.raises(ValueError, match=field):
        CacheConfig(**{field: value})
    assert CacheConfig(max_cached_nodes=np.int64(4)).max_cached_nodes == 4


@pytest.mark.parametrize("latency", [1e305, threading.TIMEOUT_MAX * 2])
def test_cache_config_rejects_a_latency_sleep_cannot_take(latency):
    # time.sleep raises OverflowError beyond its bound, at the first miss
    with pytest.raises(ValueError, match="latency_per_miss"):
        CacheConfig(latency_per_miss=latency)
    assert CacheConfig(latency_per_miss=threading.TIMEOUT_MAX).latency_per_miss == threading.TIMEOUT_MAX


def test_latency_injection_lower_bound(tmp_path):
    graph = generate_synthetic(SyntheticSpec(node_count=120, out_degree=2, seed=9))
    path = tmp_path / "lat.cgs"
    build_store(graph, path)
    with open_store(path, CacheConfig(latency_per_miss=0.001)) as handle:
        t0 = time.perf_counter()
        for u in range(100):
            handle.successors(u)
        wall = time.perf_counter() - t0
        stats = handle.access_stats()
        assert stats.cache_misses == 100
        assert stats.injected_latency_total >= 0.100
        assert wall >= 0.100


def test_reset_stats(fig_store):
    with open_store(fig_store) as handle:
        handle.successors(0)
        handle.reset_stats()
        stats = handle.access_stats()
        assert stats.adjacency_reads == 0 and stats.cache_misses == 0


def test_stats_counter_identity_under_fuzzing(fig_store):
    # A reference LRU of node records, each holding the sections read so
    # far, predicts every hit and miss. At capacity 4, the node count,
    # nothing can be evicted and the handle keeps no recency order.
    for capacity in (2, 4):
        rng = np.random.default_rng(101)
        model: OrderedDict[int, set[str]] = OrderedDict()
        hits = misses = 0
        with open_store(fig_store, CacheConfig(max_cached_nodes=capacity)) as handle:
            reads = {
                0: ("fwd", handle.successors),
                1: ("bwd", handle.predecessors),
                2: ("meta", handle.method_meta),
                3: ("meta", kernel_kind_read(handle)),
            }
            for _ in range(500):
                op = int(rng.integers(7))
                node = int(rng.integers(4))
                if op in reads:
                    section, read = reads[op]
                    read(node)
                    sections = model.pop(node, set())
                    if section in sections:
                        hits += 1
                    else:
                        misses += 1
                    sections.add(section)
                    model[node] = sections
                    while len(model) > capacity:
                        model.popitem(last=False)
                elif op == 4:
                    handle.begin_query()
                    model.clear()
                elif op == 5 and rng.random() < 0.1:
                    handle.reset_stats()
                    hits = misses = 0
                stats = handle.access_stats()
                assert stats.cache_hits + stats.cache_misses == (
                    stats.meta_reads + stats.adjacency_reads
                )
                assert (stats.cache_hits, stats.cache_misses) == (hits, misses)


@pytest.mark.parametrize("working_set", [10, 40], ids=["below-capacity", "above-capacity"])
def test_warm_evicting_history_does_not_grow_with_reads(tmp_path, working_set):
    # A warm handle that can evict keeps a history entry per read since
    # its cache was emptied, which in warm mode is never. It must trim
    # them: the history stays at most max_cached_nodes +
    # store._HISTORY_SLACK + the longest replayed round, however many reads
    # go through it, and every count stays the reference LRU's.
    graph = random_graph(np.random.default_rng(5), 64, 0.05)
    path = tmp_path / "g.cgs"
    build_store(graph, path)
    capacity, longest_round = 16, 300
    bound = capacity + store._HISTORY_SLACK + longest_round
    rng = np.random.default_rng(working_set)
    nodes = rng.choice(graph.node_count, working_set, replace=False)
    model = LruRecordModel(capacity, cold=False)
    reads = 0
    with open_store(path, CacheConfig(max_cached_nodes=capacity, mode=CacheMode.WARM_ACROSS_QUERIES)) as handle:
        while reads < 100_000:
            round_reads = rng.choice(nodes, int(rng.integers(1, longest_round + 1)))
            kinds = rng.random(len(round_reads)) < 0.3
            round_reads[kinds] = ~round_reads[kinds]
            handle.begin_query()
            handle.replay(True, round_reads)
            handle.end_query(len(round_reads) - int(kinds.sum()), int(kinds.sum()))
            for u in round_reads.tolist():
                model.read("meta" if u < 0 else "fwd", ~u if u < 0 else u)
            for u in rng.choice(nodes, 100).tolist():
                handle.predecessors(u)
                model.read("bwd", u)
            reads += len(round_reads) + 100
            assert len(handle._nodes) <= bound
        assert handle.access_stats() == model.stats


@pytest.mark.parametrize("capacity", [3, 4], ids=["evicting", "every-node"])
def test_kernel_reads_count_misses_until_end_query_adds_the_reads(fig_store, capacity):
    # The kernel's reads, through readers() and replay, count only their
    # misses, and end_query adds the reads; a contract call counts its own.
    # The hits are the rest of the reads after every step.
    cache = CacheConfig(max_cached_nodes=capacity, mode=CacheMode.WARM_ACROSS_QUERIES)
    with open_store(fig_store, cache) as handle:
        read_fwd, read_bwd, read_kind = handle.readers()

        def counts():
            stats = handle.access_stats()
            assert stats.cache_hits == stats.meta_reads + stats.adjacency_reads - stats.cache_misses
            return stats.adjacency_reads, stats.meta_reads, stats.cache_misses

        handle.begin_query()
        assert read_fwd(0) == (1, 2, 3) and read_kind(0) is ClassKind.CONCRETE
        read_fwd(0)
        read_bwd(3)
        assert counts() == (0, 0, 3)
        handle.replay(True, np.array([0, ~0, 1, ~1, 1], np.int64))
        assert counts() == (0, 0, 5)
        handle.end_query(3 + 3, 1 + 2)
        assert counts() == (6, 3, 5)
        handle.successors(1)  # a hit
        assert counts() == (7, 3, 5)
        handle.predecessors(2)  # a miss
        assert counts() == (8, 3, 6)
        handle.method_meta(2)  # a miss, then a hit
        handle.method_meta(2)
        assert counts() == (8, 5, 7)


@pytest.mark.parametrize("capacity, every", [(1, False), (3, False), (4, True), (5, True)])
def test_holds_every_node_when_the_cache_has_room_for_every_node(fig_store, capacity, every):
    with open_store(fig_store, CacheConfig(max_cached_nodes=capacity)) as handle:
        assert handle.holds_every_node is every


def test_class_kind_is_a_meta_read_and_method_meta_then_hits(fig_store, fig_graph):
    # the kernel's kind read is one meta read of a node's record, and
    # method_meta's read of the same record then hits
    with open_store(fig_store) as handle:
        kind = kernel_kind_read(handle)
        for u in range(fig_graph.node_count):
            assert kind(u) is fig_graph.method_meta(u).class_kind
            assert handle.method_meta(u) == fig_graph.method_meta(u)
        stats = handle.access_stats()
    n = fig_graph.node_count
    assert (stats.meta_reads, stats.cache_misses, stats.cache_hits) == (2 * n, n, n)


# ---------------------------------------------------------------------------
# corruption and format errors
# ---------------------------------------------------------------------------


def test_corrupt_section_names_it(tmp_path, fig_graph):
    path = tmp_path / "corrupt.cgs"
    build_store(fig_graph, path)
    data = bytearray(path.read_bytes())
    data[-25] ^= 0xFF  # a byte inside the backward-adjacency section
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError) as excinfo:
        open_store(path)
    assert excinfo.value.section == "backward-adjacency"


def test_truncated_file_names_damaged_section(tmp_path, fig_graph):
    path = tmp_path / "trunc.cgs"
    build_store(fig_graph, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 40])
    with pytest.raises(ChecksumError) as excinfo:
        open_store(path)
    assert "truncated" in str(excinfo.value)
    assert excinfo.value.section in (
        "backward-adjacency",
        "trailer",
    )


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda data: b"", "too short"),
        (lambda data: data[:50], "too short"),
        (lambda data: data + b"\0", "trailing garbage"),
    ],
    ids=["empty", "short", "trailing-garbage"],
)
def test_malformed_length_is_format_error(tmp_path, fig_graph, mangle, message):
    path = tmp_path / "bad.cgs"
    build_store(fig_graph, path)
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(StoreFormatError, match=message):
        open_store(path)


_HEADER_FORMAT = "<4sIIQ" + "QQ" * 4 + "Q"


def _with_crcs(data: bytearray, header: tuple) -> bytes:
    """``data`` with every CRC recomputed where ``header``, the unpacked
    header of the unedited store, puts them, so the file passes the
    checksum scan."""
    sections = [(header[4 + 2 * i], header[5 + 2 * i]) for i in range(4)]
    crcs = [crc32(data[:92])] + [crc32(data[offset : offset + size]) for offset, size in sections]
    struct.pack_into("<IIIII", data, header[12], *crcs)
    return bytes(data)


def _edited_store(path, graph, section, at, fmt, value):
    """Build ``graph``'s store at ``path``, pack ``value`` as ``fmt`` at
    byte ``at`` of a section (0 meta, 1 heap, 2 fwd, 3 bwd), and
    recompute every CRC."""
    build_store(graph, path)
    data = bytearray(path.read_bytes())
    header = struct.unpack_from(_HEADER_FORMAT, data)
    struct.pack_into(fmt, data, header[4 + 2 * section] + at, value)
    path.write_bytes(_with_crcs(data, header))


def _patched_store(path, graph, edit):
    """``_edited_store`` with one adjacency entry set. ``edit`` is
    (section, array, index, value): section "fwd" or "bwd", array 0 for
    the prefix offsets or 1 for the ids."""
    section, array, index, value = edit
    at, fmt = (8 * index, "<Q") if array == 0 else (8 * (graph.node_count + 1) + 4 * index, "<I")
    _edited_store(path, graph, 2 if section == "fwd" else 3, at, fmt, value)


def _fails_in_one_line(argv, message):
    """``callpath`` run on ``argv`` exits 1 with ``message`` as its one stderr line."""
    proc = subprocess.run(
        [sys.executable, "-m", "callpath.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert proc.returncode == 1
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


# A meta record is ``<QQQBI``: method, class and file offsets, then the kind byte.
_METHOD_AT, _KIND_AT = 0, 24


def test_unknown_class_kind_byte_is_format_error(tmp_path, fig_graph):
    # node 3's kind byte becomes 7 under a recomputed meta CRC: the file
    # passes the checksum scan and fails the open-time kind check, so even
    # a search that never probes fails, in one line
    path = tmp_path / "kind.cgs"
    _edited_store(path, fig_graph, 0, 29 * 3 + _KIND_AT, "B", 7)
    message = "node 3: unknown class-kind byte 7"
    with pytest.raises(StoreFormatError, match=message):
        open_store(path)
    _fails_in_one_line(["path", "--graph", path, "--from", 0, "--to", 3, "--algo", "balanced"], message)


# The heap of a one-node store whose method, class and file are "m", "C"
# and "": the strings start at offsets 0, 5 and 10.
_EMPTY_FILE_AT = 10
_BAD_HEAP_STRINGS = {
    "offset-past-heap": (0, _METHOD_AT, "<Q", 10**9, "string offset 1000000000 is past the string heap"),
    "length-past-heap": (0, _METHOD_AT, "<Q", 1, "string at offset 1 runs past the string heap"),
    "empty-name": (0, _METHOD_AT, "<Q", _EMPTY_FILE_AT, "method_name must be non-empty"),
    "not-utf-8": (1, 4, "B", 0xFF, "'utf-8' codec can't decode byte 0xff"),
}


@pytest.mark.parametrize("case", sorted(_BAD_HEAP_STRINGS))
def test_a_bad_heap_string_is_format_error(tmp_path, case):
    # the heap is checked only when method_meta reads it; a string outside
    # the heap, not UTF-8, or an empty name is a one-line format error
    section, at, fmt, value, message = _BAD_HEAP_STRINGS[case]
    graph = InMemoryGraph([MethodMeta(0, "m", "C", ClassKind.CONCRETE)], [])
    path = tmp_path / f"{case}.cgs"
    _edited_store(path, graph, section, at, fmt, value)
    message = f"node 0: {message}"
    with open_store(path) as handle:
        assert handle.successors(0) == ()
        with pytest.raises(StoreFormatError, match=message):
            handle.method_meta(0)
    _fails_in_one_line(["reach", "--graph", path, 0], message)


# Edits of the transceiver store, whose forward run of node 0 is
# (1, 2, 3) and whose backward runs of nodes 1, 2 and 3 are (0,) each.
_BROKEN_STRUCTURE = {
    "prefix-start": (("fwd", 0, 0, 1), "forward-adjacency: prefix offsets"),
    "prefix-falls": (("fwd", 0, 2, 1), "forward-adjacency: prefix offsets"),
    "prefix-end": (("bwd", 0, 4, 2), "backward-adjacency: prefix offsets"),
    "id-range": (("fwd", 1, 0, 4 + 5), "forward-adjacency: node id 9 out of range"),
    "run-order": (("fwd", 1, 1, 1), "forward-adjacency: a run of ids is not strictly"),
    "transpose": (("bwd", 1, 1, 1), "backward-adjacency: not the transpose"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_STRUCTURE))
def test_broken_adjacency_with_valid_checksums_is_format_error(tmp_path, fig_graph, case):
    edit, message = _BROKEN_STRUCTURE[case]
    path = tmp_path / f"{case}.cgs"
    _patched_store(path, fig_graph, edit)
    with pytest.raises(StoreFormatError, match=message):
        open_store(path)


@pytest.mark.parametrize(
    "case, argv",
    [
        ("id-range", ["path", "--from", "0", "--to", "3", "--algo", "uni"]),
        ("prefix-falls", ["path", "--from", "0", "--to", "3", "--algo", "uni"]),
        ("prefix-falls", ["reach", "0"]),
    ],
)
def test_cli_rejects_broken_adjacency_in_one_line(tmp_path, fig_graph, case, argv):
    edit, message = _BROKEN_STRUCTURE[case]
    path = tmp_path / f"{case}.cgs"
    _patched_store(path, fig_graph, edit)
    _fails_in_one_line([argv[0], "--graph", path, *argv[1:]], message)


def test_bad_magic(tmp_path, fig_graph):
    path = tmp_path / "magic.cgs"
    build_store(fig_graph, path)
    data = bytearray(path.read_bytes())
    data[0:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match="magic"):
        open_store(path)


def test_version_mismatch(tmp_path, fig_graph):
    path = tmp_path / "ver.cgs"
    build_store(fig_graph, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 4, 999)
    path.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match="version"):
        open_store(path)


def test_header_corruption_detected(tmp_path, fig_graph):
    path = tmp_path / "hdr.cgs"
    build_store(fig_graph, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8, 4)  # keep node_count but dirty the header CRC
    data[16] ^= 0x01  # flip a bit inside edge_count
    path.write_bytes(bytes(data))
    with pytest.raises((ChecksumError, StoreFormatError)):
        open_store(path)


# ---------------------------------------------------------------------------
# backend equivalence
# ---------------------------------------------------------------------------


def test_search_results_identical_across_backends(tmp_path, hub_graph):
    path = tmp_path / "hub.cgs"
    build_store(hub_graph, path)
    pairs = [(983, 348), (886, 867), (133, 130), (3, 3), (867, 886)]
    configs = [
        SearchConfig(algorithm=Algorithm.UNIDIRECTIONAL),
        SearchConfig(algorithm=Algorithm.BIDIR_BALANCED),
        SearchConfig(algorithm=Algorithm.BIDIR_BALANCED, frontier_policy=FrontierPolicy.SMALLER_FIRST),
        SearchConfig(delay_steps=3),
        SearchConfig(delay_steps=6),
        SearchConfig(probe_only=True),
    ]
    with open_store(path, CacheConfig(max_cached_nodes=64)) as handle:
        for s, t in pairs:
            for config in configs:
                mem = run_search(hub_graph, s, t, config)
                disk = run_search(handle, s, t, config)
                assert mem.same_traversal(disk)


def test_concurrent_handles_are_independent(fig_store):
    with open_store(fig_store) as first, open_store(fig_store) as second:
        first.successors(0)
        assert second.access_stats().adjacency_reads == 0
        assert first.access_stats().adjacency_reads == 1
