"""Executor protocol and the shared fold machinery.

An :class:`Executor` is one strategy for draining a blocking method's
candidate stream through compare-and-decide workers and folding the
outcomes back into a result. The strategy set is closed: the package
``__init__`` holds the table of the four built-ins.

The contract every executor must honor is the byte-identity invariant:
for the same inputs, its fold must produce the same matches, the same
possible decisions, the same candidate-pair log, in the same order as
the serial path. Chunk executors get this by folding chunk outcomes in
submission order; shard-plan executors by merging sort-key-tagged
groups back into serial emission order (see
:func:`repro.engine.shard.merge_shard_groups`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Tuple, TYPE_CHECKING

from repro.linking.blocking import BlockingMethod
from repro.linking.comparators import ComparisonVector, RecordComparator
from repro.linking.matchers import MatchDecision, MatchStatus
from repro.linking.records import RecordStore
from repro.rdf.terms import Term

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.engine.batch import BatchScorer
    from repro.engine.cache import CachedRecordComparator
    from repro.engine.job import JobConfig

Pair = Tuple[Term, Term]

#: Wire format of one non-NON_MATCH decision: (external id, local id,
#: per-field similarities, aggregate, status value, score). Plain tuples
#: keep process pickles and work-unit JSON small.
DecisionWire = Tuple[Term, Term, Dict[str, float], float, str, float]


class Decider(Protocol):
    """Anything with ``decide(vector) -> MatchDecision``."""

    def decide(self, vector: ComparisonVector) -> MatchDecision: ...


@dataclass
class ChunkOutcome:
    """What one worker produced for one chunk."""

    pairs: List[Pair]
    decisions: List[DecisionWire]
    cache_hits: int
    cache_misses: int
    batch_hits: int = 0
    batch_misses: int = 0
    batch_profiles: int = 0
    batch_bounded: int = 0


def update_best_match(best: Dict[Term, MatchDecision], decision: MatchDecision) -> None:
    """One step of the Unique Name Assumption fold: keep the top-scoring
    match per external record, score ties broken by the lexicographically
    smallest local id.

    The tie-break is deliberately a function of the decision *set*, not
    of arrival order — "first seen wins" was only executor-invariant
    because every fold happened to be chunk-ordered, and the shard
    executor's block-ordered generation would have broken it. With the
    explicit ``(score desc, local id asc)`` ordering, any fold order
    over the same decisions selects the same winner.

    Shared by the batch fold and the streaming replay
    (:meth:`~repro.engine.streaming.StreamingLinkingJob.result`) — the
    byte-identity guarantee between the two modes rests on both
    executing exactly this selection.
    """
    ext_id = decision.vector.left.id
    incumbent = best.get(ext_id)
    if incumbent is None or decision.score > incumbent.score:
        best[ext_id] = decision
    elif decision.score == incumbent.score and str(decision.vector.right.id) < str(
        incumbent.vector.right.id
    ):
        best[ext_id] = decision


class FoldState:
    """Folds chunk (or merged shard) outcomes — in order — into results.

    Replicates the serial pipeline's matching semantics exactly: under
    ``best_match_only`` score ties break on the smallest local id (see
    :func:`update_best_match`), and the final match order is
    first-occurrence order of the external ids.
    """

    def __init__(
        self, external: RecordStore, local: RecordStore, best_only: bool
    ) -> None:
        self._external = external
        self._local = local
        self._best_only = best_only
        self._best: Dict[Term, MatchDecision] = {}
        self.matches: List[MatchDecision] = []
        self.possible: List[MatchDecision] = []
        self.candidate_pairs: List[Pair] = []
        self.compared = 0
        self.chunks_done = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_hits = 0
        self.batch_misses = 0
        self.batch_profiles = 0
        self.batch_bounded = 0
        # transport counters: work units that crossed a serialization
        # boundary (the ``worker`` executor), and the bytes they cost
        self.work_units = 0
        self.work_unit_bytes = 0

    def fold(self, outcome: ChunkOutcome) -> None:
        self.compared += len(outcome.pairs)
        self.candidate_pairs.extend(outcome.pairs)
        self.cache_hits += outcome.cache_hits
        self.cache_misses += outcome.cache_misses
        self.batch_hits += outcome.batch_hits
        self.batch_misses += outcome.batch_misses
        self.batch_profiles += outcome.batch_profiles
        self.batch_bounded += outcome.batch_bounded
        self.fold_decisions(outcome.decisions)
        self.chunks_done += 1

    def fold_decisions(self, decisions: List[DecisionWire]) -> None:
        for ext_id, local_id, similarities, aggregate, status, score in decisions:
            vector = ComparisonVector(
                left=self._external.get(ext_id),
                right=self._local.get(local_id),
                similarities=similarities,
                aggregate=aggregate,
            )
            decision = MatchDecision(
                vector=vector, status=MatchStatus(status), score=score
            )
            if decision.status is MatchStatus.MATCH:
                if self._best_only:
                    update_best_match(self._best, decision)
                else:
                    self.matches.append(decision)
            else:
                self.possible.append(decision)

    def match_count(self) -> int:
        return len(self._best) if self._best_only else len(self.matches)

    def final_matches(self) -> List[MatchDecision]:
        return list(self._best.values()) if self._best_only else self.matches


@dataclass
class ExecutionRequest:
    """Everything an executor needs for one linking run.

    ``handle`` is the parent-side fold-and-progress callback chunk
    executors must call — in submission order — with every
    :class:`ChunkOutcome`; shard-plan executors fold through
    ``fold`` directly (see :mod:`repro.engine.executors.sharded`).
    """

    blocking: BlockingMethod
    comparator: RecordComparator
    decider: Decider
    external: RecordStore
    local: RecordStore
    fold: FoldState
    config: "JobConfig"
    scoring: str
    workers: int
    cache_size: int
    handle: Callable[[ChunkOutcome], None]
    started: float
    shared_cache: Optional["CachedRecordComparator"] = None
    batch_scorer: Optional["BatchScorer"] = None


class Executor(abc.ABC):
    """One execution strategy, looked up by ``name``.

    Subclasses override:

    * ``collapses_single_worker`` — whether a resolved worker count
      below 2 should collapse the strategy to ``serial`` (the pool
      executors: parallelism is their only value). The ``worker``
      executor keeps running at 1 worker — its value is the
      serialization boundary, not the parallelism;
    * ``uses_shard_plan`` — whether the strategy partitions the
      blocking key space (drives ``shard_count`` reporting and the
      skip of the parent-side index-stats probe, which would be stale
      for in-worker candidate generation);
    * ``fallback`` — the strategy to degrade to when
      :meth:`unsupported_reason` vetoes this one for a given job.
    """

    name: str = ""
    collapses_single_worker: bool = True
    uses_shard_plan: bool = False
    fallback: Optional[str] = None

    def unsupported_reason(
        self,
        blocking: BlockingMethod,
        comparator: RecordComparator,
        decider: Decider,
    ) -> Optional[str]:
        """Why this executor cannot run the job (``None`` = it can)."""
        return None

    @abc.abstractmethod
    def execute(self, request: ExecutionRequest) -> None:
        """Run the job, folding every outcome — and its similarity-cache
        hit/miss deltas — into ``request.fold``."""
