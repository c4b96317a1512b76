#!/usr/bin/env python3
"""The repo benchmark: ``python3 perf/run.py [--workload W] [--seed N] [--trace]``.

Runs each selected workload of ``BENCHMARK.json`` in its own fresh
interpreter (``PYTHONHASHSEED=0``), prints every metric by name with
its unit, checks the outputs, and ends its standard output with one
JSON object per workload::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run, and a bare ``--trace``
both. See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

from harness import spec as specs  # noqa: E402

#: A run must exit within the contract's 180 s; the child gets less.
CHILD_TIMEOUT_S = 160.0
#: Seeds whose quality sets a workload's recorded envelope, and the
#: margin kept around what they showed.
ENVELOPE_SEEDS = range(1, 11)
ENVELOPE_MARGIN = 0.10


def run_child(arguments: List[str], timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """One ``harness.child`` invocation; returns the record it wrote.

    The child leads its own process group, which is killed when the
    child is done, so nothing a workload started (daemon, pool worker)
    outlives the run, however it ended.
    """
    specs.OUT_DIR.mkdir(parents=True, exist_ok=True)
    handle, name = tempfile.mkstemp(prefix="record-", suffix=".json", dir=specs.OUT_DIR)
    os.close(handle)
    result = Path(name)
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(specs.SRC_DIR), str(PERF_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        *(sys.executable, str(PERF_DIR / "harness" / "child.py")),
        *("--result", str(result)),
        *arguments,
    ]
    # the child's own stdout joins stderr: only this process writes the
    # result lines
    started = time.perf_counter()
    proc = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
        text = result.read_text(encoding="utf-8")
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: no result within {timeout:.0f}s: {' '.join(arguments)}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        result.unlink(missing_ok=True)
    if code != 0 or not text:
        raise SystemExit(f"error: workload process exited {code}: {' '.join(arguments)}")
    record = json.loads(text)
    record["wall_s"] = time.perf_counter() - started
    return record


def child_arguments(args: argparse.Namespace, workload: str, seed: int, trace: int) -> List[str]:
    arguments = [
        *("--workload", workload, "--seed", str(seed)),
        *("--seconds", str(args.seconds), "--trace", str(trace)),
    ]
    if args.quick:
        arguments.append("--quick")
    if args.expected_dir is not None:
        arguments += ["--expected-dir", str(args.expected_dir)]
    return arguments


def finish_record(spec: Dict[str, Any], record: Dict[str, Any], trace: int) -> Dict[str, Any]:
    """Add the full metric set the contract wants to a child's record."""
    if trace:
        record["metrics"] = specs.complete_per_layer(spec, record.pop("layer"))
    else:
        native = record.pop("native")
        record["metrics"] = specs.complete_end_to_end(spec, native)
        record["native"] = sorted(native)
    record["trace"] = trace
    bad = [
        name
        for name, metric in record["metrics"].items()
        if not math.isfinite(metric["value"])
    ]
    if bad:
        raise SystemExit(f"error: non-finite metrics {bad} on {record['workload']}")
    return record


def print_record(record: Dict[str, Any]) -> None:
    kind = "traced run, per-layer metrics" if record["trace"] else "end-to-end metrics"
    print(
        f"== {record['workload']}  seed {record['seed']}  {kind}  "
        f"({record['attempted']} ops, {record['failed']} failed)"
    )
    native = record.get("native")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = f"{value:,.0f}" if metric["unit"] == "count" else f"{value:,.4f}"
        alias = "" if native is None or name in native else "   (= op_wall_s)"
        print(f"  {name:<40}{shown:>16} {metric['unit']}{alias}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["trace"]:
        print(f"  spans: {record['trace_file']}")


def result_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def write_results(path: Path, env: Dict[str, Any], records: List[Dict[str, Any]], append: bool) -> None:
    payload: Dict[str, Any] = {"env": env, "runs": []}
    if append and path.is_file():
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload["runs"] += records
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def update_expected(args: argparse.Namespace, workloads: List[str]) -> None:
    """Regenerate ``perf/expected/<workload>.json``: the default-seed
    digest and the quality envelope, at both sizes."""
    directory = args.expected_dir or specs.EXPECTED_DIR
    directory.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        payload: Dict[str, Any] = {"seed": specs.DEFAULT_SEED}
        for size, quick in (("full", False), ("quick", True)):
            args.quick = quick
            recorded = {
                seed: run_child(child_arguments(args, workload, seed, 0) + ["--record"])
                for seed in sorted({specs.DEFAULT_SEED, *ENVELOPE_SEEDS})
            }
            qualities = [r["quality"] for r in recorded.values() if r["quality"] is not None]
            payload[size] = {"digest": recorded[specs.DEFAULT_SEED]["digest"]}
            if qualities:
                payload[size]["quality"] = [
                    round(max(0.0, min(qualities) - ENVELOPE_MARGIN), 4),
                    round(min(1.0, max(qualities) + ENVELOPE_MARGIN), 4),
                ]
        path = directory / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    if not (specs.SRC_DIR / "repro").is_dir():
        print(f"error: no program to measure at {specs.SRC_DIR / 'repro'}", file=sys.stderr)
        return 2
    spec = specs.load_spec()
    names = specs.workload_names(spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: all six")
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"timed phase of a run (default {spec['run_seconds']}; 0.2 with --quick)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="both",
        default="0",
        choices=("0", "1", "both"),
        help="0: end-to-end run; 1: traced run; bare: both",
    )
    parser.add_argument("--quick", action="store_true", help="toy sizes (harness self-test)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds N, N+1, ...")
    parser.add_argument("--out", type=Path, default=None, help="append run records to this file")
    parser.add_argument("--expected-dir", type=Path, default=None)
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    if args.seconds is None:
        args.seconds = 0.2 if args.quick else float(spec["run_seconds"])

    if args.update_expected:
        update_expected(args, workloads)
        return 0

    from harness.core import cpus_available, environment

    env = environment(args.seed)
    if env["load_1min"] > cpus_available() / 2:
        print(
            f"warning: 1-min load average {env['load_1min']:.2f} exceeds half of "
            f"{cpus_available()} CPUs; timings will be noisy",
            file=sys.stderr,
        )
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    records = []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            for trace in traces:
                record = run_child(child_arguments(args, workload, seed, trace))
                records.append(finish_record(spec, record, trace))
                print_record(records[-1])
    write_results(args.out or specs.OUT_DIR / "results.json", env, records, args.out is not None)
    for record in records:
        print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
