"""Property: every ``callpath`` argv ends in exit 0, in exit 1 with one
``callpath: error:`` line on stderr, or in exit 2, a usage error, and
never in a traceback.

``path`` runs over the transceiver fixture and a 60-node hub graph, each
as JSONL and as a CGS1 store, with node ids and names in and out of
range, every algorithm, frontier, postpone-kind and probe-only
combination, delays up to 10**30, any cache size and mode, and malformed
values for each option. The 60-node graph is the one on which a query
from 4 to 56 with a huge delay once ran one round per step of the delay.
A huge value is drawn only where it is refused, or is harmless, before
anything is allocated or slept: a miss latency is 0 or refused, and a
cache of more nodes than the graph holds every node. ``generate`` is
drawn only with a size that ``SyntheticSpec`` refuses, so it writes
nothing and must not exit 0."""

import pytest

from callpath.cli import main
from callpath.fixtures import transceiver_graph
from callpath.ingest import SyntheticSpec, export_jsonl, generate_synthetic
from callpath.store import build_store

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Built once: a strategy rebuilt inside every draw costs more than the checks.
HUGE = st.integers(2**63, 10**30)
MALFORMED = st.sampled_from(["", "x", "2.5", "1e3", "nan", "0x10", "--"])
# Half the nodes are ids of the 60-node graph, or names of either graph.
NODE = st.one_of(
    st.integers(0, 59).map(str),
    st.integers(-3, 70).map(str),
    HUGE.map(str),
    st.sampled_from(["C4.m4", "C56.m56", "C0.m0", "Tranceiver.transmit", "Protocol.makeHeader"]),
    st.sampled_from(["No.where", "C4", "m4", "C99.m99", ""]),
)
DELAY = st.one_of(
    st.integers(0, 10).map(str),
    st.integers(0, 10**30).map(str),
    st.integers(-(10**30), -1).map(str),
    MALFORMED,
)
CACHE_NODES = st.one_of(
    st.integers(1, 80).map(str),
    HUGE.map(str),
    st.integers(-5, 0).map(str),
    MALFORMED,
)
LATENCY_MS = st.one_of(
    st.sampled_from(["0", "0.0", "-0"]),
    st.just("0"),
    st.floats(-1e300, -1e-9).map(repr),
    st.sampled_from(["1e300", "inf", "-inf", "nan"]),
    MALFORMED,
)
KINDS = ["interface", "abstract", "concrete"]
POSTPONE_KINDS = st.one_of(
    st.lists(st.sampled_from(KINDS), max_size=3).map(",".join),
    st.sampled_from(["interface,,abstract", " concrete ", "bogus", "interface,bogus"]),
)
#: Each optional ``path`` flag and the values it is drawn with (None: a switch).
PATH_OPTIONS = {
    "--algo": st.sampled_from(["uni", "balanced", "postpone", "warp"]),
    "--delay": DELAY,
    "--probe-only": None,
    "--frontier": st.sampled_from(["paper", "smaller", "larger"]),
    "--postpone-kinds": POSTPONE_KINDS,
    "--cache-nodes": CACHE_NODES,
    "--latency-ms": LATENCY_MS,
    "--cache-mode": st.sampled_from(["cold", "warm", "hot"]),
}
GLOBAL_OPTIONS = st.lists(
    st.one_of(
        st.just(["--quiet"]),
        st.sampled_from(["text", "json", "csv", ""]).map(lambda value: ["--format", value]),
    ),
    max_size=2,
).map(lambda options: [arg for option in options for arg in option])
#: Refused node counts: no graph, or more nodes than a CGS1 store can index.
BAD_NODES = st.one_of(st.integers(-(10**30), 0), st.integers(2**32, 10**30))


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """The transceiver fixture and the 60-node graph, each as JSONL and as
    a store, and a path that does not exist."""
    folder = tmp_path_factory.mktemp("cli-property")
    hub = SyntheticSpec(node_count=60, out_degree=2, hub_count=5, hub_indegree=10, seed=1)
    files = []
    for name, graph in (("transceiver", transceiver_graph()), ("hub60", generate_synthetic(hub))):
        files.append(folder / f"{name}.jsonl")
        files[-1].write_text(export_jsonl(graph), encoding="utf-8")
        files.append(folder / f"{name}.cgs")
        build_store(graph, files[-1])
    return [str(path) for path in files] + [str(folder / "missing.jsonl")]


@st.composite
def _path_argv(draw, graph):
    argv = draw(GLOBAL_OPTIONS) + ["path", "--graph", graph]
    argv += ["--from", draw(NODE), "--to", draw(NODE)]
    for flag in draw(st.lists(st.sampled_from(sorted(PATH_OPTIONS)), max_size=5, unique=True)):
        values = PATH_OPTIONS[flag]
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv += [flag, draw(values)]
        else:  # the one form argparse reads a leading '-' in as a value
            argv.append(f"{flag}={draw(values)}")
    return argv


@st.composite
def _generate_argv(draw):
    """``generate`` with at least one size its spec refuses."""
    n = draw(st.integers(1, 64))
    sizes = {
        "--nodes": n,
        "--out-degree": draw(st.one_of(st.integers(0, 6), HUGE)),
        "--hubs": draw(st.integers(0, n)),
        "--hub-indegree": draw(st.integers(1, max(1, n - 1))),
        "--seed": draw(st.integers(0, 2**70)),
    }
    refused = {
        "--nodes": BAD_NODES,
        "--out-degree": st.integers(-(10**30), -1),
        "--edge-probability": st.one_of(st.floats(-1e300, -1e-9), st.floats(1.0001, 1e300), st.just(float("nan"))),
        "--hubs": st.one_of(st.integers(-(10**30), -1), st.integers(n + 1, 10**30)),
        "--hub-indegree": st.integers(-(10**30), 0),
        "--seed": st.integers(-(10**30), -1),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(refused)), min_size=1, max_size=2, unique=True)):
        if flag == "--edge-probability":
            del sizes["--out-degree"]
        sizes[flag] = draw(refused[flag])
    argv = ["generate"]
    for flag, value in sizes.items():
        argv += [f"{flag}={value}"]
    if draw(st.booleans()):
        argv.append("--acyclic")
    return argv


def _run(capsys, argv) -> tuple[int, str]:
    """Run ``argv`` through ``callpath``; return its exit code and stdout
    once its stderr has been checked."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    elif code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("callpath: error: "), (argv, err)
    else:
        assert code == 2 and "error:" in err, (argv, code, err)
    return code, out


def _settings(max_examples):
    return hypothesis.settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
    )


@_settings(300)
@hypothesis.given(data=st.data())
def test_any_path_argv_exits_cleanly(graph_files, capsys, data):
    *graphs, missing = graph_files
    graph = data.draw(st.one_of(st.sampled_from(graphs), st.sampled_from(graphs), st.just(missing)))
    _run(capsys, data.draw(_path_argv(graph)))


@_settings(100)
@hypothesis.given(argv=_generate_argv())
def test_a_refused_generate_size_is_a_one_line_error(capsys, argv):
    assert _run(capsys, argv)[0] in (1, 2)


def test_a_huge_delay_on_the_hub_graph_answers(graph_files, capsys):
    # the backward frontier holds only the postponed node for 10**30 - 1
    # rounds, which are counted at once
    for graph in graph_files[2:4]:
        argv = ["path", "--graph", graph, "--algo", "postpone", "--delay", str(10**30)]
        code, out = _run(capsys, argv + ["--from", "4", "--to", "56"])
        assert code == 0 and f"steps={10**30 + 2}" in out
