"""Command-line front end.

Subcommands::

    callpath import      validate/normalize a JSONL graph
    callpath generate    emit a seeded synthetic graph as JSONL
    callpath build-store serialize a graph into a CGS1 store file
    callpath reach       forward/backward closure sizes, pair regimes
    callpath path        run one search and print the call path
    callpath bench       run a scenario file and emit a report

Exit codes: 0 success (a no-path result is an answer, not a failure),
1 domain errors (bad input data, unresolvable names), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .bench import emit_report, load_scenario, run_scenario
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
from .search import (
    DEFAULT_POSTPONE_KINDS,
    Algorithm,
    FrontierPolicy,
    SearchConfig,
    SearchStatus,
    run_search,
)
from .store import CacheConfig, CacheMode, build_store, is_store_file, open_store


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

    p_path = sub.add_parser("path", help="extract one call path")
    p_path.add_argument("--graph", required=True, help="JSONL or CGS1 file")
    p_path.add_argument("--from", dest="initial", required=True)
    p_path.add_argument("--to", dest="final", required=True)
    p_path.add_argument(
        "--algo", choices=[a.value for a in Algorithm], default=Algorithm.BIDIR_POSTPONE.value
    )
    p_path.add_argument("--delay", type=int, default=None, help="postpone rounds (default 3)")
    p_path.add_argument("--probe-only", action="store_true")
    p_path.add_argument(
        "--frontier", choices=[p.value for p in FrontierPolicy], default=None
    )
    p_path.add_argument(
        "--postpone-kinds",
        default=None,
        help="comma-separated class kinds to postpone (default interface,abstract)",
    )
    p_path.add_argument("--latency-ms", type=float, default=0.0, help="store miss latency")
    p_path.add_argument("--cache-nodes", type=int, default=1024)
    p_path.add_argument(
        "--cache-mode", choices=[m.value for m in CacheMode], default=CacheMode.COLD_PER_QUERY.value
    )

    p_bench = sub.add_parser("bench", help="run a scenario file")
    p_bench.add_argument("--scenario", required=True)
    p_bench.add_argument("--out", help="report file (default stdout)")
    return parser


def _load_graph(path: str, args) -> object:
    if is_store_file(path):
        cache = CacheConfig(
            max_cached_nodes=getattr(args, "cache_nodes", 1024),
            latency_per_miss=getattr(args, "latency_ms", 0.0) / 1000.0,
            mode=CacheMode(getattr(args, "cache_mode", "cold")),
        )
        return open_store(path, cache)
    if path == "-":
        return import_jsonl(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return import_jsonl(fh)


def _node_ref(graph, text: str) -> int:
    """A node given as an id (ASCII digits, optionally negative) or a name."""
    if re.fullmatch(r"-?[0-9]+", text):
        return int(text)
    return resolve_name(graph, text)


def _cmd_import(args, parser: argparse.ArgumentParser) -> int:
    graph = _load_graph(args.graph, args)
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
    graph = _load_graph(args.graph, args)
    summary = build_store(graph, args.out)
    if not args.quiet:
        print(
            f"wrote {args.out}: nodes={summary.node_count} "
            f"edges={summary.edge_count} bytes={summary.byte_size}"
        )
    return 0


def _cmd_reach(args, parser: argparse.ArgumentParser) -> int:
    graph = _load_graph(args.graph, args)
    u = _node_ref(graph, args.node)
    fmt = args.format or "text"
    if args.node2 is None:
        fwd = reachable_count(graph, u, Direction.FORWARD)
        bwd = reachable_count(graph, u, Direction.BACKWARD)
        name = graph.method_meta(u).qualified_name
        if fmt == "json":
            print(json.dumps({"node": u, "name": name, "forward": fwd, "backward": bwd}))
        else:
            print(f"{name} (node {u}): forward={fwd} backward={bwd}")
        return 0
    v = _node_ref(graph, args.node2)
    profile = classify_pair(graph, u, v)
    names = (graph.method_meta(u).qualified_name, graph.method_meta(v).qualified_name)
    if fmt == "json":
        print(
            json.dumps(
                {
                    "initial": u,
                    "final": v,
                    "initial_name": names[0],
                    "final_name": names[1],
                    "forward": profile.forward_count,
                    "backward": profile.backward_count,
                    "regime": profile.regime.label,
                }
            )
        )
    else:
        print(
            f"{names[0]} -> {names[1]}: forward={profile.forward_count} "
            f"backward={profile.backward_count} regime={profile.regime.label}"
        )
    return 0


def _search_config(args, parser: argparse.ArgumentParser) -> SearchConfig:
    algorithm = Algorithm(args.algo)
    if algorithm is not Algorithm.BIDIR_POSTPONE:
        for flag, given in (
            ("--delay", args.delay is not None),
            ("--probe-only", args.probe_only),
            ("--postpone-kinds", args.postpone_kinds is not None),
        ):
            if given:
                parser.error(f"{flag} only applies to --algo postpone")
    if algorithm is Algorithm.UNIDIRECTIONAL and args.frontier is not None:
        parser.error("--frontier does not apply to --algo uni")
    for flag, value, minimum in (
        ("--delay", args.delay, 0),
        ("--cache-nodes", args.cache_nodes, 1),
        ("--latency-ms", args.latency_ms, 0),
    ):
        if value is not None and not minimum <= value < math.inf:  # also rejects NaN
            parser.error(f"{flag} must be a finite number of at least {minimum}, got {value}")
    try:  # the store's own bound: the longest sleep the platform takes
        CacheConfig(latency_per_miss=args.latency_ms / 1000.0)
    except ValueError as exc:
        parser.error(f"--latency-ms {args.latency_ms}: {exc}")
    kinds = DEFAULT_POSTPONE_KINDS
    if args.postpone_kinds is not None:
        try:
            kinds = frozenset(
                ClassKind(part.strip()) for part in args.postpone_kinds.split(",") if part.strip()
            )
        except ValueError as exc:
            parser.error(str(exc))
    return SearchConfig(
        algorithm=algorithm,
        delay_steps=args.delay if args.delay is not None else 3,
        probe_only=args.probe_only,
        postpone_kinds=kinds,
        frontier_policy=FrontierPolicy(args.frontier) if args.frontier else FrontierPolicy.PAPER_LITERAL,
    )


def _cmd_path(args, parser: argparse.ArgumentParser) -> int:
    config = _search_config(args, parser)
    graph = _load_graph(args.graph, args)
    s = _node_ref(graph, args.initial)
    t = _node_ref(graph, args.final)
    if hasattr(graph, "reset_stats"):
        graph.reset_stats()  # name resolution reads should not pollute the query stats
    result = run_search(graph, s, t, config)
    stats = graph.access_stats() if hasattr(graph, "access_stats") else None
    fmt = args.format or "text"
    if fmt == "json":
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
        if stats is not None:
            doc["access"] = {
                "meta_reads": stats.meta_reads,
                "adjacency_reads": stats.adjacency_reads,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "injected_latency_s": stats.injected_latency_total,
            }
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
        if stats is not None:
            print(
                f"meta_reads={stats.meta_reads} adjacency_reads={stats.adjacency_reads} "
                f"cache_hits={stats.cache_hits} cache_misses={stats.cache_misses} "
                f"injected_latency_s={stats.injected_latency_total:.6f}"
            )
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
    args = parser.parse_args(argv)
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
