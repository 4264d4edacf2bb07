"""Property: on random small graphs under any config, array rounds and
per-node rounds give the same result, trace and returned state."""

import pytest

from callpath.model import ClassKind, InMemoryGraph, MethodMeta
from callpath.search import Algorithm, FrontierPolicy, SearchConfig

from test_array_rounds import _assert_bodies_agree, _assert_states_agree

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _queries(draw):
    n = draw(st.integers(2, 40))
    kinds = draw(st.lists(st.sampled_from(list(ClassKind)), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    graph = InMemoryGraph(
        [MethodMeta(u, f"m{u}", f"C{u}", kind) for u, kind in enumerate(kinds)], edges
    )
    algorithm = draw(st.sampled_from(list(Algorithm)))
    config = SearchConfig(
        algorithm=algorithm,
        delay_steps=draw(st.integers(0, 6)),
        probe_only=algorithm is Algorithm.BIDIR_POSTPONE and draw(st.booleans()),
        frontier_policy=draw(st.sampled_from(list(FrontierPolicy))),
    )
    return graph, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), config


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(_queries())
def test_bodies_agree_on_random_graphs(query):
    graph, s, t, config = query
    _assert_bodies_agree(graph, s, t, config)
    _assert_states_agree(graph, s, t, config)
