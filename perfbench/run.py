#!/usr/bin/env python3
"""Benchmark of callpath: set-up, query latency and store I/O.

    python3 perfbench/run.py --workload disk-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --out perfbench/baseline/main.json

A single workload runs as a closed loop, one client in this process.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
spec.END_TO_END with ``--trace 0``, the per-layer metrics of
spec.LAYERS with ``--trace 1``. Times are scaled to a fixed machine
speed (speed.py). The line before it holds the run's extra figures:
failure rate, p95 sample count, postponement excess and the raw,
unscaled timings. Exit status 0 means every answer checked out.

``--workload all`` runs every workload untraced and traced, each in a
process of its own, prints every metric by name and unit, and with
``--out`` writes the results and the environment as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Peak memory depends on the memory layout: with address-space
# randomisation, Python's per-process salt of str hashes, or command
# lines and environments of other sizes it moved between 124 and 142 MB
# from run to run of one workload. Every run turns the first off, fixes
# the salt, and pads the seed and the environment to fixed sizes.
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000
LAYOUT_BYTES = 32768
PAD = "PERFBENCH_PAD"


def import_program():
    """Import callpath from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "callpath"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no callpath sources at {package}")
    sys.path.insert(0, str(package.parent))
    import callpath

    if Path(callpath.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported callpath from {callpath.__file__}, not {package}")
    return callpath


def unit_of(name: str) -> str:
    return spec.END_TO_END[name] if name in spec.END_TO_END else spec.LAYERS[name][0]


def run_one(args) -> int:
    cp = import_program()
    import workloads

    try:
        result = workloads.run(
            cp, args.workload, args.seed, args.seconds, bool(args.trace), args.inputs
        )
    except workloads.BenchmarkError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for error in result["errors"][:20]:
        print(f"perfbench: wrong answer: {error}", file=sys.stderr)
    print(json.dumps({"extras": result["extras"]}))
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "platform": platform.platform(),
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results: dict[str, dict] = {}
    status = 0
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--inputs", args.inputs,
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or len(lines) < 2:
                print(f"perfbench: {workload} --trace {trace} failed (exit {child.returncode})", file=sys.stderr)
                status = 1
                continue
            extras, line = (json.loads(text) for text in lines[-2:])
            results.setdefault(workload, {})["traced" if trace else "untraced"] = {**line, **extras}
    print(f"{'workload':10} {'metric':34} {'value':>14} {'unit':6} should move")
    for workload, entry in results.items():
        for run in entry.values():
            for name, metric in run["metrics"].items():
                moves = ""
                if name in spec.LAYERS:
                    _, target, where = spec.LAYERS[name]
                    moves = f"{target} on {', '.join(where)}" if where else target
                print(f"{workload:10} {name:34} {metric['value']:14.6g} {metric['unit']:6} {moves}")
        if "untraced" in entry:
            run = entry["untraced"]
            extras = run["extras"]
            for name, value, unit, note in (
                ("query_fail_rate", extras["query_fail_rate"], "ratio",
                 f"{run['failed']} of {run['attempted']} attempted"),
                ("postpone_excess_edges", extras["postpone_excess_edges"], "edges",
                 f"mean over {extras['postpone_found']} found postpone queries"),
                ("query_p95_samples", extras["p95_samples"], "count",
                 f"{extras['p95_samples_beyond']} beyond the p95"),
                ("reference_kernel_ms", extras["reference_kernel_ms"], "ms", "machine speed, speed.py"),
            ):
                print(f"{workload:10} {name:34} {value:14.6g} {unit:6} {note}")
    if args.out:
        doc = {
            "environment": environment(),
            "seed": args.seed,
            "seconds": args.seconds,
            "inputs": args.inputs,
            "results": results,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return status


def main(argv=None, fix_layout: bool = False) -> int:
    parser = argparse.ArgumentParser(description="callpath benchmark")
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="orders the queries of each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", choices=list(spec.INPUT_SETS), default="main",
                        help="input set: main, or the hold-out set a gain must also hold on")
    parser.add_argument("--out", help="with --workload all: write the results here as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if fix_layout:
        exec_with_fixed_layout(args)
    return run_all(args) if args.workload == "all" else run_one(args)


def exec_with_fixed_layout(args) -> None:
    """Re-execute this script, unless it already runs so, with a fixed
    hash salt, a command line and environment of LAYOUT_BYTES in all,
    and, where the kernel allows it, no address-space randomisation."""
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", f"{args.seed:020d}", "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--inputs", args.inputs, *(["--out", args.out] if args.out else []),
    ]
    env = {k: v for k, v in os.environ.items() if k != PAD}
    env["PYTHONHASHSEED"] = HASH_SEED
    size = sum(len(os.fsencode(a)) + 1 for a in argv) + len(PAD) + 2
    size += sum(len(os.fsencode(k)) + len(os.fsencode(v)) + 2 for k, v in env.items())
    if size <= LAYOUT_BYTES:
        env[PAD] = "x" * (LAYOUT_BYTES - size)
    again = sys.argv[1:] != argv[2:] or dict(os.environ) != env
    personality = ctypes.CDLL(None).personality
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    flags = personality(0xFFFFFFFF)
    if flags != -1 and not flags & ADDR_NO_RANDOMIZE:
        again |= personality(flags | ADDR_NO_RANDOMIZE) != -1
    if again:
        os.execve(sys.executable, argv, env)


if __name__ == "__main__":
    sys.exit(main(fix_layout=True))
