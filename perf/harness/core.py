"""What every workload shares: the op loop, output checks, spans.

A workload subclasses :class:`Workload` and provides ``setup``, ``op``
(one timed operation, returning an :class:`Outcome`), ``native`` (its
own end-to-end metrics from the timed outcomes) and, for ``--trace``
runs, ``probes``, ``replay`` and ``layer_metrics``. :func:`run_measure`
and :func:`run_trace` drive them and return the result record that
``perf/run.py`` prints.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from harness.spec import DEFAULT_SEED, EXPECTED_DIR, OUT_DIR, ROOT

#: Set-up is repeated (``setup_s`` is the median) until three repeats
#: are in or this much wall time has gone into them.
SETUP_REPEATS = 3
SETUP_ALLOWANCE_S = 3.0
#: A timed phase never ends on fewer ops than this, however slow.
MIN_OPS = 3
#: Stage replays of a trace run score at most this many candidate pairs
#: per uncached pass, so a trace run costs about what a timed run does.
PAIR_SAMPLE = 30_000

now = time.perf_counter


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def digest(payload: Any) -> str:
    """sha256 over the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0.0 on no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def lower_quartile(values: Sequence[float]) -> float:
    """The first quartile of a run's op walls: what a timing reports.

    Interference on a shared host only ever adds time, and it comes in
    spells of 10 to 30 s, as long as a run. Over eight consecutive runs
    of one workload the median of the op walls ranged over 12 %, their
    lower quartile over 7 %; the minimum is no steadier (12 %), because
    it follows the odd fast outlier.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of its reaped children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


#: The CPUs this process may run on, as found at import (before any
#: pinning narrows the mask).
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def cpus_available() -> int:
    return len(CPUS) or os.cpu_count() or 1


def pin(pid: int, which: int) -> None:
    """Pin process *pid* to one available CPU: ``-1`` the last one, where
    a measured single-threaded process runs, ``0`` the first, where a
    load generator runs. A process the scheduler moves between the
    CPUs of a shared host repeats to about 8 %, a pinned one to about
    2 %. Does nothing with fewer than two CPUs."""
    if len(CPUS) >= 2:
        try:
            os.sched_setaffinity(pid, {CPUS[which]})
        except OSError as exc:  # a sandbox may forbid it; run unpinned
            print(f"warning: could not pin process {pid}: {exc}", file=sys.stderr)


def environment(seed: int) -> Dict[str, Any]:
    """The environment block of a result record."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "cpus_available": cpus_available(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "load_1min": os.getloadavg()[0],
        "seed": seed,
    }


def scratch_dir(label: str) -> Path:
    """A fresh directory under ``perf/out`` (the only place the
    benchmark writes); the caller removes it."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"tmp-{label}-", dir=OUT_DIR))


def child_env() -> Dict[str, str]:
    """Environment of a ``python -m repro`` child: this checkout's
    ``src`` first on the path, nothing else changed."""
    env = os.environ.copy()
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def load_expected(directory: Optional[Path], workload: str, quick: bool) -> Dict[str, Any]:
    """The committed digest and quality envelope for one workload size."""
    path = (directory or EXPECTED_DIR) / f"{workload}.json"
    if not path.is_file():
        print(f"warning: no expected outputs at {path}", file=sys.stderr)
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload.get("quick" if quick else "full", {})


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is named after the per-layer timing it feeds
    (``core.predict_many_s``); its layer is the name's first component.
    A disabled tracer records nothing, which is how the untraced twin
    of a replay is timed for ``trace.overhead_share``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op = -1

    def next_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Time a block; the yielded dict takes counts made at the same
        boundary (``counts["pairs"] = len(pairs)``)."""
        if not self.enabled:
            yield {}
            return
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "layer": name.split(".", 1)[0],
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "counts": {},
            "start": now(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = now()
            self._stack.pop()

    def finish(self) -> None:
        """Self time of every span: its duration minus its children's."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            span["duration"] = span["end"] - span["start"]
            if span["parent"] is not None:
                covered[span["parent"]] += span["duration"]
        for span in self.spans:
            span["self_s"] = span["duration"] - covered[span["id"]]

    def duration(self, name: str) -> float:
        """Median duration of the spans called *name* (0.0 if none)."""
        return median([s["duration"] for s in self.spans if s["name"] == name])

    def count(self, name: str, key: str) -> int:
        """A count recorded on the spans called *name* (it repeats
        exactly, so the first one speaks for all)."""
        for span in self.spans:
            if span["name"] == name and key in span["counts"]:
                return span["counts"][key]
        return 0

    def layer_self_s(self) -> Dict[str, float]:
        """Per layer, the median over ops of the self time spent in it."""
        per_op: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            per_op[span["layer"]][span["op"]] += span["self_s"]
        return {layer: median(list(ops.values())) for layer, ops in per_op.items()}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one op did: its wall, named sub-timings, and what to check."""

    wall: float
    parts: Dict[str, Any] = field(default_factory=dict)
    digest: Any = None
    quality: Optional[float] = None
    failure: Optional[str] = None


class Workload:
    """Base of the six workloads; see the module docstring."""

    name = ""
    #: peak RSS is read from reaped child processes, not this one
    rss_from_children = False
    #: the CPU this process is pinned to for the run (see :func:`pin`);
    #: ``None`` where child processes must inherit the whole mask
    cpu: Optional[int] = -1

    def __init__(self, seed: int, quick: bool, expected: Dict[str, Any]) -> None:
        self.seed = seed
        self.quick = quick
        self.expected = expected
        #: per-layer values collected along the way (set-up timings,
        #: probes, trace-derived metrics); reported by ``--trace`` runs
        self.layer: Dict[str, float] = {}

    # -- hooks ----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` opened (processes, scratch dirs)."""

    def op(self) -> Outcome:
        raise NotImplementedError

    def native(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """This workload's own end-to-end metrics (``op_wall_s`` among
        them) from the timed outcomes."""
        raise NotImplementedError

    def recorded(self, outcome: Outcome) -> Dict[str, Any]:
        """What ``perf/expected`` keeps of one good op."""
        return {"digest": outcome.digest, "quality": outcome.quality}

    def probes(self) -> None:
        """Fixed per-layer probes of a trace run (fills ``self.layer``)."""

    def replay(self, tracer: Tracer) -> Outcome:
        """One op as explicit stage calls, a span around each."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        """Per-layer metrics read off the finished spans."""
        return {}

    # -- machinery ------------------------------------------------------
    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run *fn*, keeping its wall as per-layer value *name*."""
        started = now()
        result = fn()
        self.layer[name] = now() - started
        return result

    def guarded(self, fn: Callable[[], Outcome]) -> Outcome:
        """One op that cannot crash the harness: any exception is a
        failed op with the reason kept. It starts from a collected
        heap, so a collection inside it is the op's own doing."""
        gc.collect()
        started = now()
        try:
            return fn()
        except Exception as exc:  # the run must go on and report it
            return Outcome(
                wall=now() - started, failure=f"{type(exc).__name__}: {exc}"
            )

    def warm_up(self) -> Outcome:
        """One untimed op: process-global memo caches fill and lazy
        set-up finishes outside every timing; its wall belongs to
        set-up. Toy-size runs time nothing worth warming for."""
        return Outcome(wall=0.0) if self.quick else self.guarded(self.op)

    def measure(self, seconds: float) -> List[Outcome]:
        """Timed ops, back to back, for about *seconds*."""
        outcomes: List[Outcome] = []
        deadline = now() + seconds
        while len(outcomes) < (1 if self.quick else MIN_OPS) or now() < deadline:
            outcomes.append(self.guarded(self.op))
        return outcomes

    def check(self, outcomes: List[Outcome]) -> List[str]:
        """One entry per failed op: why its output was not accepted."""
        reference = self.expected.get("digest") if self.seed == DEFAULT_SEED else None
        envelope = self.expected.get("quality")
        first = None
        failures: List[str] = []
        for index, outcome in enumerate(outcomes):
            reason = outcome.failure
            if reason is None and outcome.digest is not None:
                if first is None:
                    first = outcome.digest
                if reference is not None and outcome.digest != reference:
                    reason = "output digest differs from perf/expected"
                elif outcome.digest != first:
                    reason = "output digest differs from the run's first op"
            if reason is None and outcome.quality is not None and envelope:
                low, high = envelope
                if not low <= outcome.quality <= high:
                    reason = (
                        f"quality {outcome.quality:.4f} outside the recorded "
                        f"envelope [{low:.4f}, {high:.4f}]"
                    )
            if reason is not None:
                failures.append(f"op {index}: {reason}")
        return failures


def link_outcome(result, truth, threshold: float, wall: float) -> Outcome:
    """The outcome of one engine run: digest over the canonical match
    list plus ``compared``, F1 against the generator's truth, and the
    per-op checks (no degraded executor, every score at the threshold)."""
    rows = [
        (str(d.vector.left.id), str(d.vector.right.id), repr(d.score))
        for d in result.matches
    ]
    failure = None
    if result.stats is not None and result.stats.fallback_reason:
        failure = f"degraded execution: {result.stats.fallback_reason}"
    elif any(d.score < threshold for d in result.matches):
        failure = f"a match scored below the threshold {threshold}"
    return Outcome(
        wall=wall,
        digest=digest({"matches": rows, "compared": result.compared}),
        quality=result.matching_quality(truth).f1,
        failure=failure,
    )


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def _record(workload: Workload, outcomes: List[Outcome], failures: List[str]) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "quick": workload.quick,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:20],
    }


def run_record(workload: Workload) -> Dict[str, Any]:
    """One op's digest and quality, for ``--update-expected``."""
    try:
        workload.setup()
        outcome = workload.guarded(workload.op)
        if outcome.failure:
            raise RuntimeError(f"cannot record a failed op: {outcome.failure}")
        return workload.recorded(outcome)
    finally:
        workload.teardown()


def run_measure(workload: Workload, seconds: float) -> Dict[str, Any]:
    """The untraced run: set-up (repeated), warm-up, timed ops, checks."""
    setup_walls: List[float] = []
    try:
        while True:
            started = now()
            workload.setup()
            setup_walls.append(now() - started)
            if len(setup_walls) == SETUP_REPEATS or sum(setup_walls) >= SETUP_ALLOWANCE_S:
                break
            workload.teardown()
            gc.collect()
        warmup = workload.warm_up()
        # the inputs stay for the whole run, as a long-lived service's
        # would: out of the collector's way, so that a collection during
        # an op walks what the op allocated, not the catalog
        gc.collect()
        gc.freeze()
        outcomes = workload.measure(seconds)
        failures = workload.check(outcomes)
        native = workload.native(outcomes)
    finally:
        workload.teardown()
    native["setup_s"] = median(setup_walls) + warmup.wall
    native["peak_rss_mb"] = peak_rss_mb(workload.rss_from_children)
    record = _record(workload, outcomes, failures)
    record["native"] = native
    record["setup_repeats"] = len(setup_walls)
    return record


def run_trace(workload: Workload, seconds: float) -> Dict[str, Any]:
    """The traced run: probes, then untraced/traced replay pairs."""
    started = now()
    tracer = Tracer()
    outcomes: List[Outcome] = []
    untraced: List[float] = []
    traced: List[float] = []
    try:
        workload.setup()
        workload.warm_up()
        workload.probes()
        while True:
            plain = workload.guarded(lambda: workload.replay(Tracer(enabled=False)))
            tracer.next_op()
            spanned = workload.guarded(lambda: workload.replay(tracer))
            outcomes += [plain, spanned]
            untraced.append(plain.wall)
            traced.append(spanned.wall)
            if workload.quick or now() - started >= seconds:
                break
        tracer.finish()
        failures = workload.check(outcomes)
        layer = dict(workload.layer)
        layer.update(workload.layer_metrics(tracer))
    finally:
        workload.teardown()
    self_s = tracer.layer_self_s()
    for name, value in self_s.items():
        if name != "perf":
            layer[f"{name}.self_s"] = value
    layer["trace.overhead_share"] = median(traced) / median(untraced) - 1.0
    layer["failed_share"] = len(failures) / len(outcomes)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "ops": tracer.op + 1,
                "layer_self_s": self_s,
                "spans": tracer.spans,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    record = _record(workload, outcomes, failures)
    record["layer"] = layer
    record["trace_file"] = str(trace_path.relative_to(ROOT))
    return record
