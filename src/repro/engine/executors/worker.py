"""The ``worker`` executor: every shard crosses a serialization boundary.

Functionally it is the shard executor with the fork pool replaced by a
subprocess transport: each :class:`ShardWorkUnit` is serialized to its
JSON envelope, piped to a fresh ``repro worker run-unit`` process, and
the WorkerResult envelope that comes back is deserialized into the same
:class:`~repro.engine.shard.ShardOutcome` fold the fork pool feeds.
Nothing is inherited, nothing is pickled — if it folds byte-identically
here, the protocol carries everything a remote host needs, which is the
point: this executor is the on-one-machine proof of the multi-node
protocol.

It deliberately does **not** collapse to serial at one worker: its
value is the boundary, not the parallelism, so a 1-CPU CI runner still
exercises the full serialize→subprocess→deserialize round trip (the
``work_units`` transport counter in
:class:`~repro.engine.stats.EngineStats` asserts it actually happened).
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional

from repro.engine.executors.base import Decider, ExecutionRequest, Executor
from repro.engine.executors.sharded import ShardProgress, merge_outcomes_into_fold
from repro.engine.shard import ShardOutcome, ShardPlan
from repro.linking.blocking import BlockingMethod
from repro.linking.comparators import RecordComparator


class WorkerTransportError(BrokenExecutor):
    """A worker subprocess failed to transport a unit (spawn failure,
    nonzero exit, unparseable reply). Subclassing
    :class:`~concurrent.futures.BrokenExecutor` routes it into the
    engine's serial-fallback path, like any other pool-bringup failure."""


# A unit still running after this many seconds is taken for a hung
# worker: the child is killed and the job falls back to the serial path.
WORKER_TIMEOUT_S = 600.0


def _worker_command() -> List[str]:
    return [sys.executable, "-m", "repro", "worker", "run-unit"]


def _worker_env() -> dict:
    """The subprocess environment, with this ``repro`` importable.

    ``python -m repro`` must resolve to the package actually running
    this code — not whatever happens to be installed — so the package's
    parent directory is prepended to ``PYTHONPATH``.
    """
    import repro

    env = os.environ.copy()
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return env


def run_unit_subprocess(unit_text: str) -> str:
    """Round-trip one serialized unit through a worker subprocess."""
    try:
        proc = subprocess.run(
            _worker_command(),
            input=unit_text,
            capture_output=True,
            text=True,
            env=_worker_env(),
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has already killed and reaped the child
        raise WorkerTransportError(
            f"worker subprocess timed out after {WORKER_TIMEOUT_S:g} s and was killed"
        ) from exc
    except OSError as exc:
        raise WorkerTransportError(f"could not spawn worker subprocess: {exc}") from exc
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise WorkerTransportError(
            f"worker subprocess exited {proc.returncode}"
            + (f": {detail[-1]}" if detail else "")
        )
    return proc.stdout


class WorkerExecutor(Executor):
    """Shard-plan execution over serialized work units in subprocesses."""

    name = "worker"
    uses_shard_plan = True
    collapses_single_worker = False
    fallback = "shard"

    def unsupported_reason(
        self,
        blocking: BlockingMethod,
        comparator: RecordComparator,
        decider: Decider,
    ) -> Optional[str]:
        from repro.engine.executors.protocol import work_unit_unsupported_reason

        if not isinstance(blocking, BlockingMethod):
            return f"{type(blocking).__name__} has no per-key block decomposition"
        return work_unit_unsupported_reason(blocking, comparator, decider)

    def execute(self, request: ExecutionRequest) -> None:
        from repro.engine.executors.protocol import (
            WorkUnitError,
            build_work_units,
            decode_worker_result,
            encode_work_unit,
        )

        config = request.config
        plan = ShardPlan.build(
            config.resolved_shards(),
            request.blocking.shard_block_sizes(request.external, request.local),
        )
        units = build_work_units(
            request.blocking,
            request.comparator,
            request.decider,
            request.external,
            request.local,
            plan,
            request.scoring,
            request.cache_size,
        )
        texts = [encode_work_unit(unit) for unit in units]
        progress = ShardProgress(request)
        fold = request.fold
        outcomes: List[ShardOutcome] = []
        with ThreadPoolExecutor(
            max_workers=min(request.workers, plan.shards)
        ) as pool:
            futures = [pool.submit(run_unit_subprocess, text) for text in texts]
            for shard, future in enumerate(futures):  # deterministic shard order
                reply = future.result()
                try:
                    outcome = decode_worker_result(reply)
                except WorkUnitError as exc:
                    raise WorkerTransportError(
                        f"shard {shard} returned an invalid result: {exc}"
                    ) from exc
                if outcome.shard != shard:
                    raise WorkerTransportError(
                        f"shard {shard} returned outcome for shard {outcome.shard}"
                    )
                fold.work_units += 1
                fold.work_unit_bytes += len(texts[shard]) + len(reply)
                outcomes.append(outcome)
                progress.note(outcome)
        merge_outcomes_into_fold(request, outcomes)
