"""The batch linking engine: configuration, dispatch and fallback.

:class:`LinkingJob` is the execution substrate under every linking run:
candidate pairs from a blocking method are compared and decided by one
of the four execution strategies (see :mod:`repro.engine.executors`),
and the outcomes are folded back — in a deterministic order — into one
:class:`~repro.linking.pipeline.LinkingResult`.

The contract every strategy honors is byte-identity: serial, process,
fork-pool shard and subprocess worker execution produce identical
matches, in identical order. This module owns what is
*strategy-independent*: :class:`JobConfig` (validated against
:data:`~repro.engine.executors.EXECUTORS`), the degradation chain (an
executor that cannot run a job names why and hands off to its fallback
— e.g. ``worker`` → ``shard`` → ``process`` — with the reasons recorded
in :class:`~repro.engine.stats.EngineStats`), and the serial-fallback
guard for pool-bringup and transport failures. Errors
raised by comparator or matcher code propagate unchanged.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.engine.batch import BatchScorer
from repro.engine.cache import DEFAULT_CACHE_SIZE, CachedRecordComparator
from repro.engine.executors import (
    AUTO,
    EXECUTORS,
    Decider,
    DecisionWire,
    ExecutionRequest,
    FoldState,
    Pair,
    get_executor,
    update_best_match,
)
from repro.engine.executors.base import ChunkOutcome
from repro.engine.stats import EngineProgress, EngineStats
from repro.linking.blocking import BlockingMethod
from repro.linking.comparators import RecordComparator
from repro.linking.pipeline import LinkingResult
from repro.linking.records import RecordStore

__all__ = [
    "SCORING",
    "Decider",
    "DecisionWire",
    "JobConfig",
    "LinkingJob",
    "Pair",
    "available_cpu_count",
    "update_best_match",
]

#: Scoring paths: per-pair comparator dispatch, or the columnar
#: batched scorer (see :mod:`repro.engine.batch`, the default) —
#: byte-identical output, memoized per record profile pair.
SCORING = ("pairwise", "batched")


def available_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the process: in
    cgroup- or affinity-limited environments (CI containers, ``taskset``
    launches) it overcounts, and a worker pool sized from it thrashes.
    Prefer the scheduler affinity mask where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = getaffinity(0)
        except OSError:  # pragma: no cover - platform quirk
            affinity = None
        if affinity:
            return len(affinity)
    return os.cpu_count() or 1

#: Pool-bringup and transport failures that trigger the serial fallback.
#: Deliberately narrow: errors raised by comparator/matcher/progress code
#: are bugs and must propagate, not silently rerun the job serially. An
#: OSError is ambiguous (fork failure vs. user I/O), so the fallback
#: additionally requires that no chunk completed yet — see ``run``.
#: ``WorkerTransportError`` subclasses BrokenExecutor, so a dead worker
#: subprocess lands here too.
FALLBACK_ERRORS = (OSError, BrokenExecutor, pickle.PicklingError)


@dataclass(frozen=True)
class JobConfig:
    """Execution knobs of a :class:`LinkingJob`.

    * ``chunk_size`` — candidate pairs per work unit (chunk executors);
    * ``executor`` — one of :data:`EXECUTORS`: ``serial``, ``process``,
      ``shard`` (block-parallel, workers generate their own shards'
      candidates in-worker), ``worker`` (every shard crosses a
      serialize→subprocess→deserialize boundary) or ``auto`` (process
      when more than one CPU is available);
    * ``workers`` — worker count (default: the CPUs *available* to the
      process, affinity/cgroup aware); 1 runs serially for the pool
      strategies (``worker`` keeps its boundary even at 1);
    * ``shards`` — key-space shard count for the shard-plan executors
      (default: the resolved worker count). More shards than workers
      queue on the pool — useful when per-shard load is skewed; the
      setting is inert under the chunk executors;
    * ``cache_size`` — LRU capacity of the similarity cache per worker
      (0 disables memoization); only pairwise scoring consults it —
      batched memos are unbounded for the scorer's lifetime (one job,
      or a whole stream under :class:`StreamingLinkingJob`);
    * ``scoring`` — ``batched`` (the default: the columnar scorer of
      :mod:`repro.engine.batch` — lazily interned profile columns,
      per-profile-pair memoization, byte-identical output, works under
      every executor) or ``pairwise`` (per-pair comparator dispatch
      through the similarity cache; the serve layer pins it because
      its bundles carry a warm similarity cache);
    * ``best_match_only`` — keep only the top-scoring match per external
      record (the Unique Name Assumption);
    * ``on_progress`` — called with an :class:`EngineProgress` after
      every folded chunk.
    """

    chunk_size: int = 1024
    executor: str = "serial"
    workers: Optional[int] = None
    shards: Optional[int] = None
    cache_size: int = DEFAULT_CACHE_SIZE
    scoring: str = "batched"
    best_match_only: bool = True
    on_progress: Optional[Callable[[EngineProgress], None]] = None

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {self.chunk_size}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {', '.join(EXECUTORS)}, "
                f"got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.cache_size < 0:
            raise ValueError(f"cache size must be >= 0, got {self.cache_size}")
        if self.scoring not in SCORING:
            raise ValueError(
                f"scoring must be one of {SCORING}, got {self.scoring!r}"
            )

    def resolved_workers(self) -> int:
        """The worker count to use (available CPUs when unset)."""
        if self.workers is not None:
            return self.workers
        return max(1, available_cpu_count())

    def resolved_shards(self) -> int:
        """The shard-plan executors' key-space shard count (workers when
        unset — one shard per worker)."""
        if self.shards is not None:
            return self.shards
        return self.resolved_workers()

    def resolved_executor(self) -> str:
        """The concrete strategy: ``auto`` resolved from the machine
        shape, and 1 worker collapsed to serial for the strategies whose
        only value is parallelism (``worker`` opts out — its value is
        the serialization boundary)."""
        executor = self.executor
        if executor == AUTO:
            executor = "process" if self.resolved_workers() > 1 else "serial"
        if (
            executor != "serial"
            and self.resolved_workers() < 2
            and get_executor(executor).collapses_single_worker
        ):
            executor = "serial"
        return executor


class LinkingJob:
    """A complete linking run dispatched to one of the four executors.

    >>> job = LinkingJob(blocking, comparator, matcher,
    ...                  JobConfig(executor="process", chunk_size=512))
    >>> result = job.run(external_store, local_store)
    >>> result.stats.pairs_per_second
    184223.7
    """

    def __init__(
        self,
        blocking: BlockingMethod,
        comparator: RecordComparator | CachedRecordComparator,
        decider: Decider,
        config: JobConfig | None = None,
        batch_scorer: Optional[BatchScorer] = None,
    ) -> None:
        self._config = config or JobConfig()
        self._cache_size = self._config.cache_size
        self._shared_cache: Optional[CachedRecordComparator] = None
        # a caller-provided warm scorer (the streaming engine owns one
        # per stream) survives across runs, like the shared cache; the
        # pool executors ignore it and build per-worker scorers
        self._batch_scorer = batch_scorer
        if isinstance(comparator, CachedRecordComparator):
            # honor the caller's cache configuration — and keep the
            # instance: the serial path reuses it directly, so memoized
            # similarities survive across runs (streaming deltas,
            # repeated jobs against one catalog). The pool executors
            # still ship the inner comparator and workers build their
            # own per-process caches at the same capacity.
            self._cache_size = comparator.cache_capacity
            self._shared_cache = comparator
            comparator = comparator.inner
        self._blocking = blocking
        self._comparator = comparator
        self._decider = decider

    @property
    def config(self) -> JobConfig:
        """The execution configuration."""
        return self._config

    def run(self, external: RecordStore, local: RecordStore) -> LinkingResult:
        """Execute the job and return the result with engine stats."""
        config = self._config
        started = time.perf_counter()
        executor = config.resolved_executor()
        impl = get_executor(executor)
        fallbacks: List[str] = []
        # the degradation chain: an executor that cannot run this job
        # names why and hands off to its declared fallback (e.g. worker
        # → shard when a spec cannot cross the wire, shard → process
        # when the blocking has no per-key decomposition)
        while True:
            reason = impl.unsupported_reason(
                self._blocking, self._comparator, self._decider
            )
            if reason is None:
                break
            target = impl.fallback or "serial"
            fallbacks.append(f"{impl.name}: {reason}; ran {target}")
            executor = target
            impl = get_executor(executor)
        workers = 1 if executor == "serial" else config.resolved_workers()
        scoring = config.scoring
        if scoring == "batched" and not BatchScorer.supports(self._comparator):
            # a comparator subclass with custom comparison hooks computes
            # something the columnar arithmetic cannot replicate: degrade
            # to the pairwise path rather than silently diverge
            fallbacks.append(
                f"batched: {type(self._comparator).__name__} customizes "
                "per-pair comparison; ran pairwise"
            )
            scoring = "pairwise"
        fold = FoldState(external, local, config.best_match_only)
        try:
            self._attempt(impl, workers, scoring, external, local, fold, started)
        except FALLBACK_ERRORS as exc:
            # An OSError after a chunk already completed is more likely a
            # bug in comparator/progress code than pool bringup: propagate
            # rather than silently redoing finished work.
            mid_run_os_error = (
                isinstance(exc, OSError) and fold.chunks_done > 0
            )
            if executor == "serial" or mid_run_os_error:
                raise
            fallbacks.append(f"{type(exc).__name__}: {exc}")
            executor, workers = "serial", 1
            impl = get_executor(executor)
            fold = FoldState(external, local, config.best_match_only)
            self._attempt(impl, workers, scoring, external, local, fold, started)
        fallback_reason = "; ".join(fallbacks) if fallbacks else None
        elapsed = time.perf_counter() - started
        # index-backed blocking methods report their shared index after
        # the candidate stream has been drained (getattr: duck-typed
        # blocking doubles in tests need not subclass BlockingMethod).
        # Shard-plan runs probe the index in the workers, so the
        # parent-side report would be stale (a previous run's) or
        # empty — skip it rather than misattribute.
        stats_fn = getattr(self._blocking, "index_stats", None)
        index_stats = (
            stats_fn() if callable(stats_fn) and not impl.uses_shard_plan else None
        )
        stats = EngineStats(
            executor=executor,
            workers=workers,
            chunk_size=config.chunk_size,
            chunk_count=fold.chunks_done,
            pairs_compared=fold.compared,
            elapsed_seconds=elapsed,
            cache_hits=fold.cache_hits,
            cache_misses=fold.cache_misses,
            shard_count=config.resolved_shards() if impl.uses_shard_plan else 0,
            fallback_reason=fallback_reason,
            index_build_seconds=index_stats.build_seconds if index_stats else 0.0,
            index_probe_seconds=index_stats.probe_seconds if index_stats else 0.0,
            index_features=index_stats.features if index_stats else 0,
            index_postings=index_stats.postings if index_stats else 0,
            scoring=scoring,
            batch_profiles=fold.batch_profiles,
            batch_pair_hits=fold.batch_hits,
            batch_pair_misses=fold.batch_misses,
            batch_bounded=fold.batch_bounded,
            work_units=fold.work_units,
            work_unit_bytes=fold.work_unit_bytes,
        )
        result = LinkingResult(
            matches=fold.final_matches(),
            possible=fold.possible,
            compared=fold.compared,
            naive_pairs=len(external) * len(local),
            stats=stats,
        )
        result._candidate_pairs = fold.candidate_pairs
        return result

    def _attempt(
        self,
        impl,
        workers: int,
        scoring: str,
        external: RecordStore,
        local: RecordStore,
        fold: FoldState,
        started: float,
    ) -> None:
        on_progress = self._config.on_progress

        def handle(outcome: ChunkOutcome) -> None:
            fold.fold(outcome)
            if on_progress is not None:
                on_progress(
                    EngineProgress(
                        chunks_done=fold.chunks_done,
                        pairs_compared=fold.compared,
                        matches=fold.match_count(),
                        elapsed_seconds=time.perf_counter() - started,
                    )
                )

        request = ExecutionRequest(
            blocking=self._blocking,
            comparator=self._comparator,
            decider=self._decider,
            external=external,
            local=local,
            fold=fold,
            config=self._config,
            scoring=scoring,
            workers=workers,
            cache_size=self._cache_size,
            handle=handle,
            started=started,
            shared_cache=self._shared_cache,
            batch_scorer=self._batch_scorer,
        )
        impl.execute(request)
