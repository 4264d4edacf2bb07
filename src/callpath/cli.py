"""Command-line front end.

Subcommands::

    callpath import      validate/normalize a JSONL graph
    callpath generate    emit a seeded synthetic graph as JSONL
    callpath build-store serialize a graph into a CGS1 store file
    callpath reach       forward/backward closure sizes, pair regimes
    callpath path        run one search and print the call path
    callpath bench       run a scenario file and emit a report

Flags that ``path`` is not given take the defaults of ``SearchConfig``
and ``CacheConfig``; a value either refuses is a usage error naming its
flag. ``bench`` builds a scenario's store, when it needs one, in a
temporary directory that is removed with the report.

Exit codes: 0 success (a no-path result is an answer, not a failure),
1 domain errors (bad input data, unresolvable names), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import access_columns, emit_report, load_scenario, run_scenario
from .errors import CallpathError
from .ingest import (
    SyntheticSpec,
    classify_pair,
    export_jsonl,
    generate_synthetic,
    import_jsonl,
    reachable_count,
)
from .model import ClassKind, Direction, resolve_name
from .search import Algorithm, FrontierPolicy, SearchConfig, SearchStatus, run_search
from .store import CacheConfig, CacheMode, DiskGraph, _latency_from_ms, build_store, is_store_file, open_store


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="callpath",
        description="Call-graph call-path extraction and benchmarking.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    parser.add_argument(
        "--format",
        default=None,
        help="output format: text|json for queries, csv|json|markdown for bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_import = sub.add_parser("import", help="validate a JSONL graph, optionally re-export it")
    p_import.add_argument("--graph", required=True, help="JSONL file, or - for stdin")
    p_import.add_argument("--out", help="write the normalized JSONL here")

    p_gen = sub.add_parser("generate", help="emit a seeded synthetic graph as JSONL")
    p_gen.add_argument("--nodes", type=int, required=True)
    group = p_gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--edge-probability", type=float)
    group.add_argument("--out-degree", type=int)
    p_gen.add_argument("--hubs", type=int, default=0)
    p_gen.add_argument("--hub-indegree", type=int, default=1)
    p_gen.add_argument(
        "--hub-kind",
        choices=[k.value for k in ClassKind],
        default=ClassKind.INTERFACE.value,
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--acyclic", action="store_true")
    p_gen.add_argument("--out", help="output file (default stdout)")

    p_store = sub.add_parser("build-store", help="serialize a JSONL graph into a CGS1 store")
    p_store.add_argument("--graph", required=True)
    p_store.add_argument("--out", required=True)

    p_reach = sub.add_parser("reach", help="closure sizes for a node, or a pair's regime")
    p_reach.add_argument("--graph", required=True, help="JSONL or CGS1 file")
    p_reach.add_argument("node", help="node name (Class.method) or id")
    p_reach.add_argument("node2", nargs="?", help="optional final node; prints the pair regime")

    search, cache = SearchConfig(), CacheConfig()
    kinds = ",".join(kind.value for kind in ClassKind if kind in search.postpone_kinds)
    p_path = sub.add_parser("path", help="extract one call path")
    p_path.add_argument("--graph", required=True, help="JSONL or CGS1 file")
    p_path.add_argument("--from", dest="initial", required=True)
    p_path.add_argument("--to", dest="final", required=True)
    p_path.add_argument(
        "--algo",
        choices=[a.value for a in Algorithm],
        help=f"search algorithm (default {search.algorithm.value})",
    )
    p_path.add_argument("--delay", type=int, help=f"postpone rounds (default {search.delay_steps})")
    p_path.add_argument("--probe-only", action="store_true")
    p_path.add_argument(
        "--frontier",
        choices=[p.value for p in FrontierPolicy],
        help=f"which frontier expands next (default {search.frontier_policy.value})",
    )
    p_path.add_argument(
        "--postpone-kinds", help=f"comma-separated class kinds to postpone (default {kinds})"
    )
    p_path.add_argument(
        "--latency-ms",
        type=float,
        help=f"store miss latency (default {cache.latency_per_miss * 1000})",
    )
    p_path.add_argument(
        "--cache-nodes", type=int, help=f"store cache size in nodes (default {cache.max_cached_nodes})"
    )
    p_path.add_argument(
        "--cache-mode",
        choices=[m.value for m in CacheMode],
        help=f"store cache mode (default {cache.mode.value})",
    )

    p_bench = sub.add_parser("bench", help="run a scenario file")
    p_bench.add_argument("--scenario", required=True)
    p_bench.add_argument("--out", help="report file (default stdout)")
    return parser


def _load_graph(path: str, cache: CacheConfig | None = None) -> object:
    if is_store_file(path):
        return open_store(path, cache)
    if path == "-":
        return import_jsonl(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return import_jsonl(fh)


def _is_id(text: str) -> bool:
    """Is a node given as an id (ASCII digits, optionally negative), not a name?"""
    return re.fullmatch(r"-?[0-9]+", text) is not None


def _node_ref(graph, text: str) -> int:
    """A node given as an id or a name."""
    return int(text) if _is_id(text) else resolve_name(graph, text)


def _cmd_import(args, parser: argparse.ArgumentParser) -> int:
    graph = _load_graph(args.graph)
    if args.out:
        Path(args.out).write_text(export_jsonl(graph), encoding="utf-8")
    if not args.quiet:
        print(f"nodes={graph.node_count} edges={graph.edge_count}")
    return 0


def _cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    spec = SyntheticSpec(
        node_count=args.nodes,
        edge_probability=args.edge_probability,
        out_degree=args.out_degree,
        hub_count=args.hubs,
        hub_indegree=args.hub_indegree,
        hub_kind=ClassKind(args.hub_kind),
        seed=args.seed,
        acyclic=args.acyclic,
    )
    graph = generate_synthetic(spec)
    text = export_jsonl(graph)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if not args.quiet:
            print(f"wrote {args.out}: nodes={graph.node_count} edges={graph.edge_count}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_build_store(args, parser: argparse.ArgumentParser) -> int:
    graph = _load_graph(args.graph)
    summary = build_store(graph, args.out)
    if not args.quiet:
        print(
            f"wrote {args.out}: nodes={summary.node_count} "
            f"edges={summary.edge_count} bytes={summary.byte_size}"
        )
    return 0


def _cmd_reach(args, parser: argparse.ArgumentParser) -> int:
    graph = _load_graph(args.graph)
    u = _node_ref(graph, args.node)
    if args.node2 is None:
        fwd = reachable_count(graph, u, Direction.FORWARD)
        bwd = reachable_count(graph, u, Direction.BACKWARD)
        name = graph.method_meta(u).qualified_name
        doc = {"node": u, "name": name, "forward": fwd, "backward": bwd}
        text = f"{name} (node {u}): forward={fwd} backward={bwd}"
    else:
        v = _node_ref(graph, args.node2)
        profile = classify_pair(graph, u, v)
        names = (graph.method_meta(u).qualified_name, graph.method_meta(v).qualified_name)
        doc = {
            "initial": u,
            "final": v,
            "initial_name": names[0],
            "final_name": names[1],
            "forward": profile.forward_count,
            "backward": profile.backward_count,
            "regime": profile.regime.label,
        }
        text = (
            f"{names[0]} -> {names[1]}: forward={profile.forward_count} "
            f"backward={profile.backward_count} regime={profile.regime.label}"
        )
    print(json.dumps(doc) if args.format == "json" else text)
    return 0


def _configs(args, parser: argparse.ArgumentParser) -> tuple[SearchConfig, CacheConfig]:
    """The query's search and cache configs: each flag given replaces its
    field of the library's default config, and a value the config refuses
    is a usage error that names the flag.

    ``--probe-only`` is set before ``--algo``, so the config refuses it
    together with an algorithm other than postpone."""
    configs = {SearchConfig: SearchConfig(), CacheConfig: CacheConfig()}
    for flag, value, kind, name, convert in (
        ("--probe-only", args.probe_only or None, SearchConfig, "probe_only", bool),
        ("--algo", args.algo, SearchConfig, "algorithm", Algorithm),
        ("--delay", args.delay, SearchConfig, "delay_steps", int),
        ("--postpone-kinds", args.postpone_kinds, SearchConfig, "postpone_kinds", _class_kinds),
        ("--frontier", args.frontier, SearchConfig, "frontier_policy", FrontierPolicy),
        ("--cache-nodes", args.cache_nodes, CacheConfig, "max_cached_nodes", int),
        ("--latency-ms", args.latency_ms, CacheConfig, "latency_per_miss", _latency_from_ms),
        ("--cache-mode", args.cache_mode, CacheConfig, "mode", CacheMode),
    ):
        if value is not None:
            try:
                configs[kind] = replace(configs[kind], **{name: convert(value)})
            except ValueError as exc:
                parser.error(f"{flag} {value}: {exc}")
    search = configs[SearchConfig]
    if search.algorithm is not Algorithm.BIDIR_POSTPONE:
        for flag, value in (("--delay", args.delay), ("--postpone-kinds", args.postpone_kinds)):
            if value is not None:
                parser.error(f"{flag} only applies to --algo postpone")
    if search.algorithm is Algorithm.UNIDIRECTIONAL and args.frontier is not None:
        parser.error("--frontier does not apply to --algo uni")
    return search, configs[CacheConfig]


def _class_kinds(text: str) -> frozenset[ClassKind]:
    """A ``--postpone-kinds`` value: class kinds, comma-separated."""
    return frozenset(ClassKind(part.strip()) for part in text.split(",") if part.strip())


def _cmd_path(args, parser: argparse.ArgumentParser) -> int:
    config, cache = _configs(args, parser)
    graph = _load_graph(args.graph, cache)
    on_disk = isinstance(graph, DiskGraph)
    # A store reads names on a second handle, so the query's own cache and
    # counters start as they do for ids.
    named = not (_is_id(args.initial) and _is_id(args.final))
    with (open_store(args.graph) if named and on_disk else nullcontext(graph)) as names:
        s, t = _node_ref(names, args.initial), _node_ref(names, args.final)
    result = run_search(graph, s, t, config)
    access = access_columns(graph.access_stats()) if on_disk else None
    if args.format == "json":
        doc = {
            "status": result.status.value,
            "length": result.length,
            "path": [
                {
                    "caller": graph.method_meta(e.caller).qualified_name,
                    "callee": graph.method_meta(e.callee).qualified_name,
                }
                for e in result.path
            ],
            "meeting_point": result.meeting_point,
            "visited_forward": result.visited_forward,
            "visited_backward": result.visited_backward,
            "postponements": result.postponements,
            "probe_count": result.probe_count,
            "steps": result.steps,
            "elapsed_s": result.elapsed,
        }
        if access is not None:
            doc["access"] = access
        print(json.dumps(doc))
        return 0
    if result.status is SearchStatus.FOUND:
        print(f"status=found length={result.length}")
        for edge in result.path:
            caller = graph.method_meta(edge.caller).qualified_name
            callee = graph.method_meta(edge.callee).qualified_name
            print(f"  {caller} -> {callee}")
    else:
        print("status=no-path")
    if not args.quiet:
        # deterministic counters only; timing lives in the JSON format
        print(
            f"visited_forward={result.visited_forward} "
            f"visited_backward={result.visited_backward} "
            f"postponements={result.postponements} probes={result.probe_count} "
            f"steps={result.steps}"
        )
        if access is not None:
            print(" ".join(f"{k}={v:.6f}" if type(v) is float else f"{k}={v}" for k, v in access.items()))
    return 0


def _cmd_bench(args, parser: argparse.ArgumentParser) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario)
    text = emit_report(report, args.format or "csv")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if not args.quiet:
            print(f"wrote {args.out}: {len(report.rows)} rows")
    else:
        sys.stdout.write(text)
    return 0


#: Each command's handler and the ``--format`` values it accepts.
_COMMANDS = {
    "import": (_cmd_import, (None,)),
    "generate": (_cmd_generate, (None,)),
    "build-store": (_cmd_build_store, (None,)),
    "reach": (_cmd_reach, (None, "text", "json")),
    "path": (_cmd_path, (None, "text", "json")),
    "bench": (_cmd_bench, (None, "csv", "json", "markdown")),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    # Some argparse versions read ``--option=--`` as an empty list.
    if any(type(value) is list for value in vars(args).values()):
        spelt = next(arg for arg in argv if arg.startswith("-") and arg.endswith("=--"))
        parser.error(f"{spelt}: '--' is not an option value")
    handler, formats = _COMMANDS[args.command]
    if args.format not in formats:
        parser.error(f"--format {args.format!r} not supported for {args.command}")
    try:
        return handler(args, parser)
    except (CallpathError, OSError) as exc:
        print(f"callpath: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
