"""Golden digests of the synthetic generator.

Each digest is the sha256 of ``export_jsonl(generate_synthetic(spec))``
as produced by the original per-edge Python generator. The vectorised
generator must reproduce every one byte for byte: the frozen fixtures,
the benchmark inputs and the acceptance constants all rest on these
graphs.
"""

import hashlib

import pytest

from callpath.errors import SyntheticSpecError
from callpath.ingest import SyntheticSpec, export_jsonl, generate_synthetic
from callpath.model import ClassKind

GOLDEN = {
    "cyclic-degree": (
        SyntheticSpec(node_count=300, out_degree=4, seed=1),
        "64cf0ac3eabb055375e9c43be5728a2c0c018fd19631a26628c3c6adf2209ba7",
    ),
    "acyclic-degree": (
        SyntheticSpec(node_count=300, out_degree=4, seed=2, acyclic=True),
        "9cf15c1738236b62a5c2f1828b5b40610f3f119e0a2c0d580513deb7489fc62f",
    ),
    "cyclic-prob": (
        SyntheticSpec(node_count=200, edge_probability=0.02, seed=3),
        "c969a289a3e3d6ad27275163680db111544dbadb051195e41464a6bddbcdbf3e",
    ),
    "acyclic-prob": (
        SyntheticSpec(node_count=200, edge_probability=0.03, seed=4, acyclic=True),
        "0f651e791493a57508b1dd190a59acd5e215fa05f48686f06a9fb5d345315436",
    ),
    "cyclic-degree-hubs": (
        SyntheticSpec(node_count=400, out_degree=3, hub_count=6, hub_indegree=40, seed=5),
        "2a89557fda2f630133303e4e700522953dc2c4bc260321f5f935254f6c0f0f17",
    ),
    "acyclic-degree-hubs": (
        SyntheticSpec(
            node_count=400,
            out_degree=3,
            hub_count=6,
            hub_indegree=40,
            seed=6,
            acyclic=True,
            hub_kind=ClassKind.ABSTRACT,
        ),
        "8faf5440415c9cb1896ac40383e8fab50027c3c9cf56376628dbd81d0f7ca84f",
    ),
    "cyclic-prob-hubs": (
        SyntheticSpec(node_count=200, edge_probability=0.05, hub_count=4, hub_indegree=30, seed=7),
        "43e8c6ee876136303743f640a6a5e1fd471c3be17ccdc266bbd4716e55997b2a",
    ),
    "acyclic-prob-hubs": (
        SyntheticSpec(
            node_count=200, edge_probability=0.05, hub_count=4, hub_indegree=30, seed=8, acyclic=True
        ),
        "f9d05369609a1cac1b38d555ba168b376621e2fff058c629e6b8f3eb71778897",
    ),
    # out_degree above the pool: every node calls all the others.
    "cyclic-degree-over-pool": (
        SyntheticSpec(node_count=6, out_degree=9, seed=9),
        "5299c58d3f02a56e7561ceb83e988e3ecbc526caa3954c849a19a6a78030c52c",
    ),
    # Acyclic pools shrink with the id, so the late nodes call all later ones.
    "acyclic-degree-over-pool": (
        SyntheticSpec(node_count=40, out_degree=12, hub_count=2, hub_indegree=3, seed=10, acyclic=True),
        "a9341312714edf22772eae4bca24a42338043e65ab9f6b138a89a1fa19a99717",
    ),
    # The benchmark's mem-hub graph on its main input set.
    "hub30k-seed7": (
        SyntheticSpec(node_count=30_000, out_degree=3, hub_count=30, hub_indegree=50, seed=7),
        "8b9b9999b0eab6f0b2c0ba38eb7ebf793b751c9d5cd4fc33a95160d73a3c4dd8",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generator_matches_golden_digest(name):
    spec, digest = GOLDEN[name]
    text = export_jsonl(generate_synthetic(spec))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "spec, message",
    [
        # A complete background leaves the hub no new caller.
        (
            SyntheticSpec(node_count=10, out_degree=9, hub_count=1, hub_indegree=1, seed=3),
            "hub 8: only 0 eligible callers for indegree 1",
        ),
        (
            SyntheticSpec(node_count=12, edge_probability=0.9, hub_count=3, hub_indegree=8, seed=4, acyclic=True),
            "hub 9: only 0 eligible callers for indegree 8",
        ),
        (
            SyntheticSpec(node_count=10, out_degree=2, hub_count=8, hub_indegree=3, seed=3, acyclic=True),
            "cannot place 8 acyclic hubs of indegree 3 in 10 nodes",
        ),
    ],
)
def test_infeasible_hub_wiring_message(spec, message):
    with pytest.raises(SyntheticSpecError) as exc:
        generate_synthetic(spec)
    assert str(exc.value) == message
