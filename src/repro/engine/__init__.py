"""The batch linking engine: the execution substrate for linking runs.

The paper's contribution makes the *candidate set* small; this package
makes *executing* a candidate set fast. A :class:`LinkingJob` takes the
same ingredients as :class:`~repro.linking.pipeline.LinkingPipeline`
(blocking method, record comparator, match decider) and executes them as
a streaming, chunked, optionally parallel batch job:

* candidate pairs are drained in configurable chunks;
* per-attribute similarity calls are memoized in an LRU cache keyed on
  normalized value pairs and shared across pairs
  (:class:`CachedRecordComparator`) — blocking makes value repetition
  common, so the cache pays for itself quickly;
* chunks fan out over one of four execution strategies (see
  :mod:`repro.engine.executors`) with a serial fallback, and every
  executor produces identical matches in identical order;
* the ``shard`` executor goes one level deeper: a :class:`ShardPlan`
  partitions the blocking method's key space and each process worker
  generates its own shards' candidates in-worker (fork-inherited
  stores, zero pair pickling), byte-identical to serial via the
  shard-ordered fold and ordinal merge;
* the ``worker`` executor replaces the fork pool with the serialized
  work-unit protocol (:mod:`repro.engine.executors.protocol`): every
  shard crosses a JSON serialize→subprocess→deserialize boundary — the
  on-one-machine proof that shards can run on separate hosts;
* each run reports :class:`EngineStats` (pairs/sec, cache hit rate,
  chunk/shard counts, transport counters) on ``LinkingResult.stats``.

``LinkingPipeline`` is now a thin facade over this engine.

:class:`StreamingLinkingJob` is the second execution mode: record
deltas ingested as they arrive (each delta one chunked batch job over
the shared, version-invalidated local key index), expert-link deltas
grown through an incremental learner — with final matches guaranteed
byte-identical to a from-scratch batch run.
"""

from repro.engine.batch import BatchScorer
from repro.engine.cache import (
    DEFAULT_CACHE_SIZE,
    CachedRecordComparator,
    LRUCache,
)
from repro.engine.executors import EXECUTORS, Executor, get_executor
from repro.engine.job import (
    SCORING,
    JobConfig,
    LinkingJob,
    available_cpu_count,
)
from repro.engine.shard import ShardOutcome, ShardPlan, stable_key_hash
from repro.engine.stats import EngineProgress, EngineStats
from repro.engine.streaming import StreamingDelta, StreamingLinkingJob

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "BatchScorer",
    "CachedRecordComparator",
    "LRUCache",
    "EXECUTORS",
    "Executor",
    "SCORING",
    "JobConfig",
    "LinkingJob",
    "EngineProgress",
    "EngineStats",
    "get_executor",
    "ShardOutcome",
    "ShardPlan",
    "StreamingDelta",
    "StreamingLinkingJob",
    "available_cpu_count",
    "stable_key_hash",
]
