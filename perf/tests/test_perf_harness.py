"""Self-test of the benchmark harness at toy size (no timing asserted).

Named ``test_perf_harness`` because ``tests/experiments/test_harness.py``
already owns the ``test_harness`` module name under pytest's rootdir
import mode.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perf" / "run.py"), "--quick"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TIMEOUT_S = 120


def run(*arguments: str) -> list:
    """The JSON result lines of one ``perf/run.py --quick`` invocation."""
    proc = subprocess.run(
        [*RUN, *arguments], capture_output=True, text=True, timeout=TIMEOUT_S
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Every workload once untraced and once traced, two at a time."""
    out = tmp_path_factory.mktemp("perf")

    def one(workload: str):
        return run("--workload", workload, "--trace", "--out", str(out / f"{workload}.json"))

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(WORKLOADS, pool.map(one, WORKLOADS)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_exactly_the_benchmark_names(quick_runs, workload):
    untraced, traced = quick_runs[workload]
    for result, group in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
        assert list(result["metrics"]) == list(expected)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == expected[name]
            assert math.isfinite(metric["value"])
    assert all(metric["value"] > 0 for metric in untraced["metrics"].values())


def test_doctored_expected_digest_fails_ops(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(ROOT / "perf" / "expected", expected)
    path = expected / "learn-classify.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["quick"]["digest"] = "0" * 64
    path.write_text(json.dumps(payload), encoding="utf-8")
    (result,) = run(
        *("--workload", "learn-classify"),
        *("--expected-dir", str(expected)),
        *("--out", str(tmp_path / "out.json")),
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_trace_spans_nest_and_self_times_sum_to_the_op(quick_runs):
    trace = json.loads(
        (ROOT / "perf" / "out" / "trace-learn-classify.json").read_text(encoding="utf-8")
    )
    spans = {span["id"]: span for span in trace["spans"]}
    roots = [span for span in spans.values() if span["parent"] is None]
    assert len(roots) == trace["ops"] >= 1
    for span in spans.values():
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["op"] == span["op"]
    for root in roots:
        own = sum(span["self_s"] for span in spans.values() if span["op"] == root["op"])
        assert own == pytest.approx(root["duration"], abs=1e-6)
    assert not any(span["layer"] in ("engine", "serve") for span in spans.values())
