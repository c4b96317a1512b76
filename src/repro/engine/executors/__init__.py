"""``repro.engine.executors`` — the four execution strategies.

The package splits what used to be a single ~850-line ``engine/job.py``
monolith into the pieces a distributed engine needs to name separately:

* :mod:`~repro.engine.executors.base` — the :class:`Executor` protocol
  and the shared fold machinery every strategy feeds;
* :mod:`~repro.engine.executors.chunked` — the serial and process-pool
  chunk strategies;
* :mod:`~repro.engine.executors.sharded` — the fork-pool shard strategy
  and :func:`run_shard_scan`, the one per-shard scan every transport
  shares;
* :mod:`~repro.engine.executors.protocol` — the versioned, checksummed
  :class:`ShardWorkUnit` / WorkerResult JSON envelopes;
* :mod:`~repro.engine.executors.worker` — the subprocess transport that
  proves the protocol end-to-end on one machine.

The strategy set is closed: :func:`get_executor` looks a name up in the
table below, and ``JobConfig`` and ``repro link --executor`` accept
exactly :data:`EXECUTORS`.
"""

from repro.engine.executors.base import (
    ChunkOutcome,
    Decider,
    DecisionWire,
    ExecutionRequest,
    Executor,
    FoldState,
    Pair,
    update_best_match,
)
from repro.engine.executors.chunked import ProcessExecutor, SerialExecutor
from repro.engine.executors.sharded import ShardExecutor, run_shard_scan
from repro.engine.executors.worker import WorkerExecutor, WorkerTransportError

_BY_NAME = {
    e.name: e for e in (SerialExecutor(), ProcessExecutor(), ShardExecutor(), WorkerExecutor())
}

#: ``auto`` is a resolution mode, not a strategy: it picks one of the
#: four from the machine shape (see ``JobConfig.resolved_executor``).
AUTO = "auto"

#: Every accepted ``executor`` value: the four strategies, then ``auto``.
EXECUTORS = tuple(_BY_NAME) + (AUTO,)


def get_executor(name: str) -> Executor:
    """The strategy named *name* (``auto`` must be resolved first)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown executor {name!r}; expected one of {EXECUTORS}") from None


__all__ = [
    "AUTO",
    "EXECUTORS",
    "ChunkOutcome",
    "Decider",
    "DecisionWire",
    "ExecutionRequest",
    "Executor",
    "FoldState",
    "Pair",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardExecutor",
    "WorkerExecutor",
    "WorkerTransportError",
    "get_executor",
    "run_shard_scan",
    "update_best_match",
]
