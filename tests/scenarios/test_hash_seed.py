"""Scenario outputs do not depend on the interpreter's hash seed.

``PYTHONHASHSEED`` reorders every ``set`` and ``str``-keyed ``dict``
iteration between processes, so one in-process run cannot see a
hash-order leak into an emission or RNG-consumption order. Two child
processes under different seeds can. The two scenarios cover q-gram
blocking (``electronics-harsh-feed``) and rule blocking
(``electronics-deep-rules``); wall-clock fields are the only keys
allowed to differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = ("electronics-harsh-feed", "electronics-deep-rules")


def _without_timings(value):
    if isinstance(value, dict):
        return {
            key: _without_timings(item)
            for key, item in value.items()
            if not key.endswith("_seconds")
        }
    if isinstance(value, list):
        return [_without_timings(item) for item in value]
    return value


def _run_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [sys.executable, "-m", "repro", "scenarios", "run", "--json"]
    for name in SCENARIOS:
        argv += ["--scenario", name]
    completed = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


def test_outputs_agree_across_hash_seeds():
    first = _run_under("0")
    second = _run_under("12345")
    assert [report["scenario"] for report in first] == list(SCENARIOS)
    assert _without_timings(first) == _without_timings(second)
