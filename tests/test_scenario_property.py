"""Property: ``callpath bench`` ends every scenario document in exit 0, or
in exit 1 with one line on stderr, and never in a traceback.

A document starts valid: a synthetic graph of at most 64 nodes, one or
two pairs and algorithms with delays up to 10**30, and at most two
repetitions, in memory or on a store, with or without a cache block but
without injected latency. The first property runs it with each
integer field of its synthetic graph in turn set to a negative value, to
an integer no int64 holds and to a value of the wrong JSON type. The
second replaces up to two fields anywhere by such values, drops them, or
adds a field the schema does not know. A huge value is drawn only where
it is refused, or is harmless, before anything is allocated or slept:
never for ``repetitions``, whose runs it would lengthen. A huge delay is
harmless: the rounds in which every frontier node waits are counted at
once."""

import copy
import json

import pytest

from callpath.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Built once: a strategy rebuilt inside every draw costs more than the checks.
NEGATIVE = st.integers(-(2**70), -1)
HUGE = st.integers(2**63, 2**70)
WRONG_TYPE = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=1),
)
BAD_INT = st.one_of(NEGATIVE, st.just(0), HUGE, WRONG_TYPE)
BAD_SMALL_INT = st.one_of(NEGATIVE, st.just(0), WRONG_TYPE)
BAD_ENUM = st.one_of(st.sampled_from(["", "bogus", "P5", "disk2"]), WRONG_TYPE)
BAD_NUMBER = st.one_of(st.floats(-1e300, -1e-9), st.just(1e300), HUGE, NEGATIVE, WRONG_TYPE)
BAD_BOOL = st.one_of(st.integers(0, 1), st.text(max_size=3), st.none())

SYNTHETIC_INTS = ("node_count", "out_degree", "hub_count", "hub_indegree", "seed")
#: Where a field may be spoilt, and with what. A path may run through a
#: list entry or an object the document does not hold; it is made then.
FIELDS = [
    *((("graph", "synthetic", key), BAD_INT) for key in SYNTHETIC_INTS),
    (("graph", "synthetic", "edge_probability"), BAD_NUMBER),
    (("graph", "synthetic", "hub_kind"), BAD_ENUM),
    (("graph", "synthetic", "acyclic"), BAD_BOOL),
    (("graph", "synthetic"), WRONG_TYPE),
    (("graph",), WRONG_TYPE),
    (("schema",), BAD_ENUM),
    (("pairs", 0, "initial"), BAD_INT),
    (("pairs", 0, "final"), st.one_of(BAD_INT, st.just("No.where"))),
    (("pairs", 0, "regime"), BAD_ENUM),
    (("pairs",), WRONG_TYPE),
    (("algorithms", 0, "algorithm"), BAD_ENUM),
    (("algorithms", 0, "delay_steps"), BAD_INT),
    (("algorithms", 0, "probe_only"), BAD_BOOL),
    (("algorithms", 0, "frontier_policy"), BAD_ENUM),
    (("algorithms", 0, "postpone_kinds"), st.one_of(WRONG_TYPE, st.lists(BAD_ENUM, min_size=1, max_size=2))),
    (("algorithms",), WRONG_TYPE),
    (("condition", "storage"), BAD_ENUM),
    (("condition", "cache", "max_cached_nodes"), BAD_INT),
    (("condition", "cache", "latency_per_miss_ms"), BAD_NUMBER),
    (("condition", "cache", "mode"), BAD_ENUM),
    (("condition",), WRONG_TYPE),
    (("repetitions",), BAD_SMALL_INT),
]
#: The objects an unknown field may be added to.
OBJECTS = [(), ("graph", "synthetic"), ("pairs", 0), ("algorithms", 0), ("condition",), ("condition", "cache")]
SPOILS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, len(FIELDS) - 1)),
        st.tuples(st.just("drop"), st.integers(0, len(FIELDS) - 1)),
        st.tuples(st.just("unknown"), st.integers(0, len(OBJECTS) - 1)),
    ),
    max_size=2,
)
KINDS = ["interface", "abstract", "concrete"]
ALGORITHMS = st.fixed_dictionaries(
    {"algorithm": st.sampled_from(["uni", "balanced", "postpone"])},
    optional={
        "delay_steps": st.integers(0, 10**30),
        "frontier_policy": st.sampled_from(["paper", "smaller"]),
        "postpone_kinds": st.lists(st.sampled_from(KINDS), max_size=3),
    },
)
CACHE = st.fixed_dictionaries(
    {},
    optional={
        "max_cached_nodes": st.integers(1, 80),
        "latency_per_miss_ms": st.just(0),
        "mode": st.sampled_from(["cold", "warm"]),
    },
)
CONDITIONS = st.fixed_dictionaries(
    {"storage": st.sampled_from(["memory", "disk"])}, optional={"cache": CACHE}
)


@st.composite
def _documents(draw):
    n = draw(st.integers(1, 64))
    synthetic = {"node_count": n, "seed": draw(st.integers(0, 2**70))}
    if draw(st.booleans()):
        synthetic["out_degree"] = draw(st.integers(0, 6))
    else:
        synthetic["edge_probability"] = draw(st.floats(0, 0.2))
    if n > 1 and draw(st.booleans()):
        synthetic["hub_count"] = draw(st.integers(0, n))
        synthetic["hub_indegree"] = draw(st.integers(1, n - 1))
        synthetic["hub_kind"] = draw(st.sampled_from(KINDS))
    synthetic["acyclic"] = draw(st.booleans())
    node = st.one_of(st.integers(0, n - 1), st.integers(0, n - 1).map("C{0}.m{0}".format))
    pair = st.fixed_dictionaries(
        {"initial": node, "final": node}, optional={"regime": st.sampled_from(["P1", "P2", "P3", "P4"])}
    )
    return {
        "schema": "callpath-scenario@1",
        "graph": {"synthetic": synthetic},
        "pairs": draw(st.lists(pair, min_size=1, max_size=2)),
        "algorithms": draw(st.lists(ALGORITHMS, min_size=1, max_size=2)),
        "condition": draw(CONDITIONS),
        "repetitions": draw(st.integers(1, 2)),
    }


def _bench(tmp_path, capsys, doc):
    """Run ``doc`` through ``callpath bench``: exit 0 with nothing on
    stderr, or exit 1 with one line there."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = main(["bench", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("callpath: error: ")


def _settings(max_examples):
    return hypothesis.settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
    )


@_settings(25)
@hypothesis.given(doc=_documents(), negative=NEGATIVE, huge=HUGE, wrong=WRONG_TYPE)
def test_every_bad_synthetic_integer_runs_or_fails_in_one_line(tmp_path, capsys, doc, negative, huge, wrong):
    for key in SYNTHETIC_INTS:
        for value in (negative, huge, wrong):
            spoilt = copy.deepcopy(doc)
            synthetic = spoilt["graph"]["synthetic"]
            synthetic[key] = value
            if key == "out_degree":  # then it is the one density field
                synthetic.pop("edge_probability", None)
            _bench(tmp_path, capsys, spoilt)


@_settings(200)
@hypothesis.given(doc=_documents(), spoils=SPOILS, data=st.data())
def test_any_scenario_document_runs_or_fails_in_one_line(tmp_path, capsys, doc, spoils, data):
    for how, i in spoils:
        *parents, key = OBJECTS[i] + ("unknown_field",) if how == "unknown" else FIELDS[i][0]
        obj = doc
        for step in parents:
            if isinstance(obj, list):
                if not obj:
                    obj.append({})
                obj = obj[step]
            elif isinstance(obj, dict):
                obj = obj.setdefault(step, [] if step in ("pairs", "algorithms") else {})
            else:
                break  # an earlier spoil replaced this object
        else:
            if isinstance(obj, dict):
                if how == "drop":
                    obj.pop(key, None)
                else:
                    obj[key] = 0 if how == "unknown" else data.draw(FIELDS[i][1])
    _bench(tmp_path, capsys, doc)
