"""The shard executor: block-parallel execution over a key-space plan.

Instead of the parent generating every candidate pair and pickling
chunks to workers, a :class:`~repro.engine.shard.ShardPlan` partitions
the blocking method's *key space* and each process worker generates the
candidates of its own shards in-worker (stores inherited via fork —
zero pair pickling; only compact decision wires cross the process
boundary). The parent folds shard outcomes in deterministic shard order
and merges the sort-key-tagged groups back into serial emission order,
so the result is byte-identical to the serial path.

:func:`run_shard_scan` is the single per-shard scan both transports
share: the fork-pool worker here, and the serialized work-unit protocol
(:mod:`repro.engine.executors.protocol`) that carries the same scan
across a process or network boundary.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional, Tuple

from repro.engine.executors.base import (
    ChunkOutcome,
    Decider,
    ExecutionRequest,
    Executor,
    Pair,
)
from repro.engine.executors.chunked import ChunkRunner
from repro.engine.shard import ShardOutcome, ShardPlan, merge_shard_groups
from repro.engine.stats import EngineProgress
from repro.linking.blocking import BlockingMethod
from repro.linking.comparators import RecordComparator
from repro.linking.matchers import MatchStatus
from repro.linking.records import RecordStore

#: Group sentinel: distinct from every sort key a blocking method can
#: emit (keys are ints or int tuples), so the first pair always opens a
#: fresh group.
_NO_GROUP = object()


def run_shard_scan(
    blocking: BlockingMethod,
    external: RecordStore,
    local: RecordStore,
    runner: ChunkRunner,
    plan: ShardPlan,
    shard: int,
) -> ShardOutcome:
    """Generate, compare and decide one shard's candidates.

    Pairs are drawn lazily from the blocking method's per-key block
    iteration — the candidate stream never exists in the parent — and
    each run of consecutive equal sort keys is scored as one chunk by
    *runner* (the chunk executors' scorer, either scoring path) and
    becomes one group, so the caller can merge shard outcomes back into
    serial comparison order. A group none of whose pairs is in both
    stores contributes nothing.
    """
    scored: List[Tuple[object, ChunkOutcome]] = []
    current: object = _NO_GROUP
    pairs: List[Pair] = []
    for sort_key, ext_id, local_id in blocking.shard_candidate_pairs(
        external, local, plan, shard
    ):
        if sort_key != current:
            if pairs:
                scored.append((current, runner.run_chunk(pairs)))
            current, pairs = sort_key, []
        pairs.append((ext_id, local_id))
    if pairs:
        scored.append((current, runner.run_chunk(pairs)))
    outcomes = [outcome for _, outcome in scored]
    match = MatchStatus.MATCH.value
    return ShardOutcome(
        shard=shard,
        groups=[
            (sort_key, outcome.pairs, outcome.decisions)
            for sort_key, outcome in scored
            if outcome.pairs
        ],
        compared=sum(len(outcome.pairs) for outcome in outcomes),
        match_ext_ids=[
            wire[0] for outcome in outcomes for wire in outcome.decisions if wire[4] == match
        ],
        cache_hits=sum(outcome.cache_hits for outcome in outcomes),
        cache_misses=sum(outcome.cache_misses for outcome in outcomes),
        batch_hits=sum(outcome.batch_hits for outcome in outcomes),
        batch_misses=sum(outcome.batch_misses for outcome in outcomes),
        batch_profiles=sum(outcome.batch_profiles for outcome in outcomes),
        batch_bounded=sum(outcome.batch_bounded for outcome in outcomes),
    )


# Per-process shard-executor state, set once by the pool initializer:
# (blocking, external, local, chunk runner, plan). As with chunk
# workers, fork inheritance makes this free on Linux.
_SHARD_STATE: Optional[tuple] = None


def _init_shard_worker(
    blocking: BlockingMethod,
    external: RecordStore,
    local: RecordStore,
    comparator: RecordComparator,
    decider: Decider,
    cache_size: int,
    plan: ShardPlan,
    scoring: str,
) -> None:
    global _SHARD_STATE
    runner = ChunkRunner(external, local, comparator, decider, cache_size, scoring=scoring)
    _SHARD_STATE = (blocking, external, local, runner, plan)


def _run_shard_worker(shard: int) -> ShardOutcome:
    if _SHARD_STATE is None:
        raise RuntimeError("shard worker used before initialization")
    blocking, external, local, runner, plan = _SHARD_STATE
    return run_shard_scan(blocking, external, local, runner, plan, shard)


class ShardProgress:
    """Parent-side per-outcome counter fold shared by the shard-plan
    executors (fork-pool ``shard`` and subprocess ``worker``)."""

    def __init__(self, request: ExecutionRequest) -> None:
        self._request = request
        self._compared = 0
        self._matched_ext: set = set()
        self._match_wires = 0

    def note(self, outcome: ShardOutcome) -> None:
        """Fold one shard outcome's counters; emit progress if asked."""
        request = self._request
        fold = request.fold
        fold.chunks_done += 1  # one "chunk" per shard
        fold.cache_hits += outcome.cache_hits
        fold.cache_misses += outcome.cache_misses
        fold.batch_hits += outcome.batch_hits
        fold.batch_misses += outcome.batch_misses
        fold.batch_profiles += outcome.batch_profiles
        fold.batch_bounded += outcome.batch_bounded
        self._compared += outcome.compared
        on_progress = request.config.on_progress
        if on_progress is not None:
            if request.config.best_match_only:
                self._matched_ext.update(outcome.match_ext_ids)
                matches = len(self._matched_ext)
            else:
                self._match_wires += len(outcome.match_ext_ids)
                matches = self._match_wires
            on_progress(
                EngineProgress(
                    chunks_done=fold.chunks_done,
                    pairs_compared=self._compared,
                    matches=matches,
                    elapsed_seconds=time.perf_counter() - request.started,
                )
            )


def merge_outcomes_into_fold(
    request: ExecutionRequest, outcomes: Iterable[ShardOutcome]
) -> None:
    """Merge shard groups back into serial emission order and fold them."""
    fold = request.fold
    for _sort_key, pairs, wires in merge_shard_groups(outcomes):
        fold.compared += len(pairs)
        fold.candidate_pairs.extend(pairs)
        fold.fold_decisions(wires)


class ShardExecutor(Executor):
    """Block-parallel execution: one shard of the key space per worker.

    The plan is built in the parent (which also warms any shared block
    index — and canopy's center pass — *before* the fork, so workers
    inherit it); workers generate, compare and decide their own shards'
    candidates; the parent consumes outcomes in deterministic shard
    order and then folds the key-merged groups, reconstructing the
    serial comparison order exactly.
    """

    name = "shard"
    uses_shard_plan = True
    fallback = "process"

    def unsupported_reason(
        self,
        blocking: BlockingMethod,
        comparator: RecordComparator,
        decider: Decider,
    ) -> Optional[str]:
        if isinstance(blocking, BlockingMethod):
            return None
        # no per-key block decomposition: the chunked process executor
        # is the closest strategy that still parallelizes
        return f"{type(blocking).__name__} has no per-key block decomposition"

    def execute(self, request: ExecutionRequest) -> None:
        config = request.config
        plan = ShardPlan.build(
            config.resolved_shards(),
            request.blocking.shard_block_sizes(request.external, request.local),
        )
        progress = ShardProgress(request)
        outcomes: List[ShardOutcome] = []
        with ProcessPoolExecutor(
            max_workers=min(request.workers, plan.shards),
            initializer=_init_shard_worker,
            initargs=(
                request.blocking,
                request.external,
                request.local,
                request.comparator,
                request.decider,
                request.cache_size,
                plan,
                request.scoring,
            ),
        ) as pool:
            futures = [pool.submit(_run_shard_worker, s) for s in range(plan.shards)]
            for future in futures:  # deterministic shard order
                outcome = future.result()
                outcomes.append(outcome)
                progress.note(outcome)
        merge_outcomes_into_fold(request, outcomes)
