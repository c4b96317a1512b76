"""Chunk executors: the serial and process-pool strategies.

The parent drains the blocking method's candidate stream into fixed-size
chunks, workers compare-and-decide each chunk, and the parent folds the
outcomes back in submission order. The candidate stream is never
materialized: chunks are submitted with a bounded in-flight window, so
memory stays proportional to ``workers * chunk_size``.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor as PoolExecutor
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, List, Optional

from repro.engine.batch import BatchScorer
from repro.engine.cache import CachedRecordComparator
from repro.engine.executors.base import (
    ChunkOutcome,
    Decider,
    ExecutionRequest,
    Executor,
    Pair,
)
from repro.linking.comparators import RecordComparator
from repro.linking.matchers import MatchStatus
from repro.linking.records import RecordStore


class ChunkRunner:
    """Compares and decides the pairs of a chunk against two stores."""

    def __init__(
        self,
        external: RecordStore,
        local: RecordStore,
        comparator: RecordComparator,
        decider: Decider,
        cache_size: int,
        shared_cache: Optional[CachedRecordComparator] = None,
        scoring: str = "pairwise",
        scorer: Optional[BatchScorer] = None,
    ) -> None:
        self._external = external
        self._local = local
        # a caller-provided warm cache survives across runs and deltas;
        # without one the runner builds its own, cold. Batched runs
        # never consult it.
        self.comparator = shared_cache or CachedRecordComparator(comparator, cache_size)
        self.scorer = scorer
        if scoring == "batched" and self.scorer is None:
            self.scorer = BatchScorer(comparator, decider)
        self._decider = decider

    def run_chunk(self, pairs: List[Pair]) -> ChunkOutcome:
        if self.scorer is not None:
            return self._run_chunk_batched(pairs)
        compared: List[Pair] = []
        decisions: List = []
        cache = self.comparator
        hits_before, misses_before = cache.cache_hits, cache.cache_misses
        for ext_id, local_id in pairs:
            left = self._external.get(ext_id)
            right = self._local.get(local_id)
            if left is None or right is None:
                continue
            vector = cache.compare(left, right)
            decision = self._decider.decide(vector)
            compared.append((ext_id, local_id))
            if decision.status is not MatchStatus.NON_MATCH:
                decisions.append(
                    (
                        ext_id,
                        local_id,
                        dict(vector.similarities),
                        vector.aggregate,
                        decision.status.value,
                        decision.score,
                    )
                )
        return ChunkOutcome(
            pairs=compared,
            decisions=decisions,
            cache_hits=cache.cache_hits - hits_before,
            cache_misses=cache.cache_misses - misses_before,
        )

    def _run_chunk_batched(self, pairs: List[Pair]) -> ChunkOutcome:
        scorer = self.scorer
        hits_before, misses_before = scorer.pair_hits, scorer.pair_misses
        bounded_before = scorer.pair_bounded
        profiles_before = scorer.profile_count
        compared, decisions = scorer.score_chunk(pairs, self._external, self._local)
        # per-chunk deltas: exact, because a scorer serves one chunk at
        # a time (the serial loop, or one scorer per worker process)
        return ChunkOutcome(
            pairs=compared,
            decisions=decisions,
            cache_hits=0,
            cache_misses=0,
            batch_hits=scorer.pair_hits - hits_before,
            batch_misses=scorer.pair_misses - misses_before,
            batch_profiles=scorer.profile_count - profiles_before,
            batch_bounded=scorer.pair_bounded - bounded_before,
        )


# Per-process worker state, set once by the pool initializer. With the
# default fork start method on Linux the stores are inherited, not
# pickled, so initialization is cheap even for large catalogs.
_WORKER_RUNNER: Optional[ChunkRunner] = None


def _init_process_worker(
    external: RecordStore,
    local: RecordStore,
    comparator: RecordComparator,
    decider: Decider,
    cache_size: int,
    scoring: str = "pairwise",
) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ChunkRunner(
        external, local, comparator, decider, cache_size, scoring=scoring
    )


def _run_process_chunk(pairs: List[Pair]) -> ChunkOutcome:
    if _WORKER_RUNNER is None:
        raise RuntimeError("process worker used before initialization")
    return _WORKER_RUNNER.run_chunk(pairs)


def chunk_pairs(pairs: Iterator[Pair], size: int) -> Iterator[List[Pair]]:
    """Drain an iterator of pairs into lists of at most *size*."""
    chunk: List[Pair] = []
    for pair in pairs:
        chunk.append(pair)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def pump(
    pool: PoolExecutor,
    fn: Callable[[List[Pair]], ChunkOutcome],
    chunks: Iterator[List[Pair]],
    handle: Callable[[ChunkOutcome], None],
    workers: int,
) -> None:
    """Submit chunks with a bounded in-flight window; fold in order.

    The window keeps all workers busy without materializing the whole
    candidate stream as pending futures (``Executor.map`` would submit
    everything up front).
    """
    window = max(2, workers * 4)
    pending: "deque" = deque()
    for chunk in chunks:
        pending.append(pool.submit(fn, chunk))
        if len(pending) >= window:
            handle(pending.popleft().result())
    while pending:
        handle(pending.popleft().result())


class SerialExecutor(Executor):
    """Every chunk through one in-process :class:`ChunkRunner`, in order."""

    name = "serial"

    def execute(self, request: ExecutionRequest) -> None:
        chunks = chunk_pairs(
            request.blocking.candidate_pairs(request.external, request.local),
            request.config.chunk_size,
        )
        runner = ChunkRunner(
            request.external,
            request.local,
            request.comparator,
            request.decider,
            request.cache_size,
            shared_cache=request.shared_cache,
            scoring=request.scoring,
            scorer=request.batch_scorer if request.scoring == "batched" else None,
        )
        for chunk in chunks:
            request.handle(runner.run_chunk(chunk))


class ProcessExecutor(Executor):
    """Chunks fanned over a :class:`ProcessPoolExecutor` (fork-friendly)."""

    name = "process"

    def execute(self, request: ExecutionRequest) -> None:
        chunks = chunk_pairs(
            request.blocking.candidate_pairs(request.external, request.local),
            request.config.chunk_size,
        )
        with ProcessPoolExecutor(
            max_workers=request.workers,
            initializer=_init_process_worker,
            initargs=(
                request.external,
                request.local,
                request.comparator,
                request.decider,
                request.cache_size,
                request.scoring,
            ),
        ) as pool:
            pump(pool, _run_process_chunk, chunks, request.handle, request.workers)
