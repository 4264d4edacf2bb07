"""Property: on random small graphs under any config, array rounds and
per-node rounds give the same result, trace and returned state, also
when a round is cut at its first possible meeting or earlier."""

from unittest import mock

import pytest

from callpath import search
from callpath.model import ClassKind, InMemoryGraph, MethodMeta
from callpath.search import Algorithm, FrontierPolicy, SearchConfig

from test_array_rounds import EVERY_ROUND, _assert_bodies_agree, _assert_states_agree

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _queries(draw, min_nodes=2, min_edges_per_node=0):
    n = draw(st.integers(min_nodes, 40))
    kinds = draw(st.lists(st.sampled_from(list(ClassKind)), min_size=n, max_size=n))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=min_edges_per_node * n, max_size=4 * n)
    )
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


def test_cut_rounds_agree_on_random_graphs():
    # A round whose opposite frontier holds one node is cut after the
    # first position that can meet it; every cut must traverse as node
    # by node, whether its prefix meets or the rest of the round follows.
    # The kernel's own prefixes meet, so each query also runs with every
    # such round cut after at most ``early`` positions, where most
    # prefixes do not.
    seen = {"cut": 0, "rest": 0}
    meeting_cut, array_round = search._meeting_cut, search._array_round

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    # Graphs of 16 nodes or more and twice as many edges, so that array
    # rounds of several nodes meet.
    @hypothesis.given(_queries(min_nodes=16, min_edges_per_node=2), st.integers(1, 4))
    def agree(query, early):
        graph, s, t, config = query
        cuts, calls = [], []

        def counted_cut(frontier, *args):
            at = meeting_cut(frontier, *args)
            cuts.append(at < len(frontier))
            return at

        def spy(frontier, *args):
            out = array_round(frontier, *args)
            calls.append((args[8], out[1]))
            return out

        with mock.patch.object(search, "_meeting_cut", counted_cut):
            _assert_bodies_agree(graph, s, t, config)
            _assert_states_agree(graph, s, t, config)
        with (
            mock.patch.object(search, "_meeting_cut", lambda frontier, *args: min(meeting_cut(frontier, *args), early)),
            mock.patch.object(search, "_array_round", spy),
        ):
            _assert_bodies_agree(graph, s, t, config, thresholds=(EVERY_ROUND,))
        seen["cut"] += any(cuts)
        seen["rest"] += any(a == b and met is None for (a, met), (b, _) in zip(calls, calls[1:]))

    agree()
    assert seen["cut"] > 0 and seen["rest"] > 0, seen
