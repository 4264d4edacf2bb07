"""Property: the generator's bulk draws are the per-node draws.

``generate_synthetic`` computes what one ``rng.choice`` per node (and
one ``rng.random(n)`` per row) would return, block by block. The loops
in tests/oracles.py make those calls; both sides must give the same
edges and leave the generator in the same state, also when a 32-bit
half of a 64-bit output is pending when they start.
"""

from unittest import mock

import numpy as np
import pytest

from callpath import ingest

from oracles import bernoulli_edges, choice_loop, out_degree_edges

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _twins(seed: int, pending: bool):
    """Two generators in the same state; ``pending`` leaves the second
    half of a 64-bit output buffered for the next 32-bit draw."""
    pair = [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 2**32, size=int(pending), dtype=np.uint32)
    return pair


def _same(bulk, loop, bulk_rng, loop_rng):
    assert [a.tolist() for a in bulk] == [a.tolist() for a in loop]
    assert bulk_rng.bit_generator.state == loop_rng.bit_generator.state


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 400),
    d=st.integers(0, 40) | st.just(10**21),
    acyclic=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    pending=st.booleans(),
    block=st.sampled_from([1, 50, 1 << 17]),
)
# Pool sizes of 10,001 on both sides of numpy's switch to shuffling a
# whole arange (k > size // 50), and an acyclic run of pool sizes that
# goes from Floyd's algorithm to that branch and back.
@hypothesis.example(n=10_002, d=200, acyclic=False, seed=3, pending=False, block=1 << 17)
@hypothesis.example(n=10_002, d=201, acyclic=False, seed=3, pending=True, block=1 << 17)
@hypothesis.example(n=10_060, d=201, acyclic=True, seed=4, pending=False, block=1 << 17)
def test_out_degree_draws_are_the_per_node_draws(n, d, acyclic, seed, pending, block):
    bulk_rng, loop_rng = _twins(seed, pending)
    with mock.patch.object(ingest, "_BLOCK_DRAWS", block):
        bulk = ingest._out_degree_edges(bulk_rng, n, d, acyclic)
    _same(bulk, out_degree_edges(loop_rng, n, d, acyclic), bulk_rng, loop_rng)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(1, 120),
    p=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    acyclic=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    pending=st.booleans(),
    block=st.sampled_from([1, 7, 1 << 17]),
)
def test_bernoulli_draws_are_the_per_row_draws(n, p, acyclic, seed, pending, block):
    bulk_rng, loop_rng = _twins(seed, pending)
    with mock.patch.object(ingest, "_BLOCK_DRAWS", block):
        bulk = ingest._bernoulli_edges(bulk_rng, n, p, acyclic)
    _same(bulk, bernoulli_edges(loop_rng, n, p, acyclic), bulk_rng, loop_rng)


@pytest.mark.parametrize("pending", [False, True])
def test_choice_rows_near_2_to_the_31(pending):
    # Just above 2**31 about half of Lemire's draws are rejected, and near
    # 3 * 2**30 about a quarter; each rejection takes one more raw value.
    sizes = np.concatenate([2**31 + np.arange(1, 301), 3 * 2**30 + np.arange(1, 301), 2**31 - np.arange(1, 51)])
    counts = np.resize([1, 2, 3, 4, 5, 8], len(sizes))
    bulk_rng, loop_rng = _twins(11, pending)
    bulk = ingest._choice_rows(bulk_rng, sizes, counts)
    _same([bulk], [choice_loop(loop_rng, sizes.tolist(), counts.tolist())], bulk_rng, loop_rng)
    # Count the raw values taken past one per draw: the rejections.
    draws = int(np.sum(2 * counts - 1))
    raw = _twins(11, pending)[0]
    raw.integers(0, 2**32, size=draws, dtype=np.uint32)
    for rejected in range(draws + 1):
        if raw.bit_generator.state == bulk_rng.bit_generator.state:
            break
        raw.integers(0, 2**32, size=1, dtype=np.uint32)
    assert raw.bit_generator.state == bulk_rng.bit_generator.state
    assert rejected > draws // 5
