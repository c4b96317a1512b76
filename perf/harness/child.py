"""One workload run in a fresh interpreter (spawned by ``perf/run.py``).

The parent sets ``PYTHONHASHSEED=0`` and puts ``src`` and ``perf`` on
the path; the result record goes to ``--result`` as JSON, so nothing a
child process of the workload prints can be mistaken for it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--record", action="store_true", help="for --update-expected")
    parser.add_argument("--expected-dir", type=Path, default=None)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    from harness.core import load_expected, pin, run_measure, run_record, run_trace
    from harness.workloads import workload_class

    if args.record:
        record = run_record(workload_class(args.workload)(args.seed, args.quick, {}))
    else:
        expected = load_expected(args.expected_dir, args.workload, args.quick)
        workload = workload_class(args.workload)(args.seed, args.quick, expected)
        if workload.cpu is not None:
            pin(0, workload.cpu)
        run = run_trace if args.trace else run_measure
        record = run(workload, args.seconds)
    args.result.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
