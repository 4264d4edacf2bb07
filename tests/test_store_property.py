"""Property: a CGS1 store with one to three bytes changed, its CRCs left
alone or recomputed, either opens and serves every read and search or
fails with a ``CallpathError``, never another exception. The recomputed
edits pass the checksum scan and reach the structure checks, the
class-kind check and the heap-string checks. ``search._ARRAY_ROUND_MIN``
is set below the size of the graph, so the search on the evicting
handle runs array rounds. A store cut at any length either opens or
fails with a one-line ``CallpathError``."""

import struct
from unittest import mock

import numpy as np
import pytest

from callpath import search
from callpath.errors import CallpathError
from callpath.search import SearchConfig, run_search
from callpath.store import CacheConfig, build_store, open_store

from oracles import random_graph
from test_store import _HEADER_FORMAT, _with_crcs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GRAPH = random_graph(np.random.default_rng(3), 8, 0.3)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """The path edited stores are written to, and the unedited store's bytes."""
    path = tmp_path_factory.mktemp("store-property") / "g.cgs"
    build_store(GRAPH, path)
    return path, path.read_bytes()


# Built once: positions are drawn below a bound above any file size here
# and wrapped to the file.
EDITS = st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=3)
# Lengths wrapped to the file, so the whole file (no cut) is drawn too.
CUTS = st.integers(0, 2**16)


def _reads(handle):
    """Every read of every node, then one postponing search."""
    n = handle.node_count
    for u in range(n):
        for read in (handle.successors, handle.predecessors, handle.method_meta, handle.class_kind):
            try:
                read(u)
            except CallpathError:
                pass
    try:
        run_search(handle, 0, n - 1, SearchConfig())
    except CallpathError:
        pass


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(edits=EDITS, recompute=st.booleans())
def test_an_edited_store_opens_and_reads_or_fails_cleanly(store, edits, recompute):
    path, original = store
    data = bytearray(original)
    for at, value in edits:
        data[at % len(data)] = value
    path.write_bytes(_with_crcs(data, struct.unpack_from(_HEADER_FORMAT, original)) if recompute else data)
    with mock.patch.object(search, "_ARRAY_ROUND_MIN", 2):
        for capacity in (4, GRAPH.node_count):
            try:
                handle = open_store(path, CacheConfig(max_cached_nodes=capacity))
            except CallpathError:
                return
            with handle:
                _reads(handle)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(cut=CUTS)
def test_a_truncated_store_opens_or_fails_in_one_line(store, cut):
    path, original = store
    length = cut % (len(original) + 1)
    path.write_bytes(original[:length])
    try:
        handle = open_store(path, CacheConfig(max_cached_nodes=4))
    except CallpathError as exc:
        assert length < len(original)
        message = str(exc)
        assert message and "\n" not in message
        return
    assert length == len(original)
    with handle:
        _reads(handle)
