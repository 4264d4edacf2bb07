"""Property: ``import_jsonl`` reads any stream as the per-line reader
alone reads it. The fast reader takes chunks of the form exports have;
these streams are exports of random graphs with one line edited, read
in chunks of a few lines, so a chunk may start or end anywhere and the
edit may land in either reader. Both must give the same graph, or the
same error with the same line number, and the same warnings."""

import io
import json
import warnings
from unittest import mock

import numpy as np
import pytest

from callpath import ingest
from callpath.errors import CallpathError
from callpath.ingest import import_jsonl
from callpath.model import Direction

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class _NamedStream(io.StringIO):
    """A text stream with a ``name``, as an open file has."""

    name = "graph.jsonl"


def _outcome(lines, named):
    """What reading ``lines`` gives: the graph's columns and edges, or
    the error; and the warnings, with where each points."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            source = _NamedStream("".join(line + "\n" for line in lines)) if named else list(lines)
            graph = import_jsonl(source)
        except CallpathError as exc:
            result = ("error", type(exc).__name__, str(exc), getattr(exc, "lineno", None))
        else:
            columns = graph.columns()
            result = (
                "graph",
                columns._replace(class_kinds=columns.class_kinds.tolist()),
                [array.tolist() for array in graph.csr(Direction.FORWARD)],
                [array.tolist() for array in graph.csr(Direction.BACKWARD)],
            )
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _per_line(lines, named):
    with mock.patch.object(ingest, "_read_fast", lambda lines, columns: 0):
        return _outcome(lines, named)


def _fast(lines, named, chunk):
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
        return _outcome(lines, named)


_NAME_CHARS = st.sampled_from(list("abXY_$09é受ß") + ["\U0001f600"])
_NAMES = st.text(_NAME_CHARS, min_size=1, max_size=4)
_KINDS = st.sampled_from(["interface", "abstract", "concrete"])
_INT_IDS = st.integers(-(10**18) + 1, 10**18 - 1)
_STR_IDS = st.text(_NAME_CHARS, max_size=3)


@st.composite
def _exports(draw):
    """The lines ``iter_jsonl`` would write for a random graph, with ids
    that are the dense ids, other distinct ints, or strings."""
    n = draw(st.integers(1, 8))
    id_form = draw(st.sampled_from(["dense", "int", "str"]))
    if id_form == "dense":
        ids = list(range(n))
    else:
        ids = draw(st.lists(_INT_IDS if id_form == "int" else _STR_IDS, min_size=n, max_size=n, unique=True))
    lines = []
    for u in range(n):
        record = {"record": "node", "id": ids[u], "method": draw(_NAMES), "class": draw(_NAMES), "kind": draw(_KINDS)}
        if draw(st.booleans()):
            record["file"] = draw(_NAMES)
        if draw(st.booleans()):
            record["line"] = draw(st.integers(1, 10**6))
        lines.append(json.dumps(record, ensure_ascii=False))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    for u, v in sorted(set(pairs)):
        lines.append(json.dumps({"record": "edge", "caller": ids[u], "callee": ids[v]}))
    return lines


def _replace_value(line, key, text):
    """``line`` with the JSON text of ``key``'s value replaced by ``text``."""
    obj = json.loads(line)
    if key not in obj:
        return line
    marker = "\x00marker\x00"
    obj[key] = marker
    return json.dumps(obj, ensure_ascii=False).replace(json.dumps(marker), text)


def _edit(lines, kind, i, j):
    """One edit of line ``i`` (``j`` picks a second line where one is needed)."""
    lines = list(lines)
    line = lines[i]
    try:
        obj = json.loads(line)
    except ValueError:  # an earlier edit broke the line
        return lines
    if not isinstance(obj, dict) or obj.get("record") not in ("node", "edge"):
        return lines
    node = obj["record"] == "node"
    id_key = "id" if node else "caller"
    if kind == "spacing":
        lines[i] = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    elif kind == "key order":
        lines[i] = json.dumps(dict(reversed(list(obj.items()))), ensure_ascii=False)
    elif kind == "duplicate key":
        lines[i] = line[:-1] + f', "{id_key}": {json.dumps(obj[id_key], ensure_ascii=False)}}}'
    elif kind == "escape":
        lines[i] = line.replace('"record"', '"rec\\u006frd"', 1)
    elif kind == "ascii escape":
        lines[i] = json.dumps(obj)
    elif kind == "arabic digit":
        lines[i] = _replace_value(line, id_key, "٣")
    elif kind == "19-digit id":
        lines[i] = _replace_value(line, id_key, "1234567890123456789")
    elif kind == "minus zero":
        lines[i] = _replace_value(line, id_key, "-0")
    elif kind == "leading zero":
        lines[i] = _replace_value(line, id_key, "07")
    elif kind == "float id":
        lines[i] = _replace_value(line, id_key, "0.0")
    elif kind == "bool id":
        lines[i] = _replace_value(line, id_key, "true")
    elif kind == "blank line":
        lines.insert(i, "")
    elif kind == "whitespace":
        lines[i] = "  " + line + "\t"
    elif kind == "line moved to the end":
        lines.append(lines.pop(i))
    elif kind == "undeclared id":
        lines[i] = _replace_value(line, id_key, "987654321")
    elif kind == "duplicate line":
        lines.insert(j, line)
    elif kind == "bad kind":
        lines[i] = _replace_value(line, "kind", '"Interface"')
    elif kind == "missing kind":
        obj.pop("kind", None)
        lines[i] = json.dumps(obj, ensure_ascii=False)
    elif kind == "empty method":
        lines[i] = _replace_value(line, "method", '""')
    elif kind == "negative line":
        lines[i] = _replace_value(line, "line", "-3")
    elif kind == "line with two records":
        lines[i] = line + "\n" + line
    elif kind == "not json":
        lines[i] = line[:-1]
    return lines


EDITS = [
    "none", "spacing", "key order", "duplicate key", "escape", "ascii escape", "arabic digit",
    "19-digit id", "minus zero", "leading zero", "float id", "bool id", "blank line", "whitespace",
    "line moved to the end", "undeclared id", "duplicate line", "bad kind", "missing kind",
    "empty method", "negative line", "line with two records", "not json",
]


@st.composite
def _streams(draw):
    lines = draw(_exports())
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(EDITS))
        if kind != "none":
            i = draw(st.integers(0, len(lines) - 1))
            lines = _edit(lines, kind, i, draw(st.integers(0, len(lines))))
    # Lines are split on "\n" only when the stream is a file.
    named = draw(st.booleans()) and not any("\n" in line for line in lines)
    return lines, named, draw(st.sampled_from([1, 2, 3, 5, 4096]))


# Built once: a strategy rebuilt inside every draw costs more than the checks.
STREAMS = _streams()


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(stream=STREAMS)
def test_import_reads_as_the_per_line_reader(stream):
    lines, named, chunk = stream
    want = _per_line(lines, named)
    assert _fast(lines, named, chunk) == want
    for _, _, filename, _ in want[1]:
        assert filename == __file__  # the warning points at the caller


_N0 = '{"record": "node", "id": 0, "method": "a", "class": "A", "kind": "concrete"}'
_N1 = '{"record": "node", "id": 1, "method": "b", "class": "B", "kind": "interface", "file": "B.java", "line": 3}'
_E01 = '{"record": "edge", "caller": 0, "callee": 1}'


@pytest.mark.parametrize("chunk", [1, 2, 4096])
@pytest.mark.parametrize(
    "lines",
    [
        [_N0, _N1, _E01 + "\n" + _E01],
        [_N0 + "\n" + _N1, _E01],
        [_N0, _E01, _N1],
        [_N0, _E01],
        [_N0, _N1, _E01.replace("caller\": 0", "caller\": -1")],
        [_N0, _N1, "1" + _E01],
        [_N0, _N1, "[" + _E01],
        [_N0, _N1.replace('"id": 1', '"id": 0')],
        [_N1.replace('"id": 1', '"id": 5'), _N0.replace('"id": 0', '"id": -5'), _E01.replace("0", "-5").replace("1}", "5}")],
        [_N0, _N1, _E01.replace("0", "٣")],
    ],
    ids=[
        "two-edges-in-one-line", "two-nodes-in-one-line", "node-after-edge", "edge-to-next-id",
        "negative-edge-id", "text-before-edge", "array-before-edge", "duplicate-dense-id",
        "sparse-int-ids", "arabic-digit",
    ],
)
def test_import_reads_edge_cases_as_the_per_line_reader(lines, chunk):
    assert _fast(lines, False, chunk) == _per_line(lines, False)


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_exports_never_go_line_by_line(hub_graph, fig_graph, chunk):
    # the form iter_jsonl writes, with and without file and line, is
    # read by the fast reader alone at any chunk size
    def refuse(lines, first, columns):
        raise AssertionError(f"line {first} read on its own")

    for graph in (hub_graph, fig_graph):
        text = ingest.export_jsonl(graph)
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk), mock.patch.object(ingest, "_read_lines", refuse):
            again = import_jsonl(io.StringIO(text))
        assert ingest.export_jsonl(again) == text
        assert np.array_equal(again.kind_codes(), graph.kind_codes())
