"""Streaming incremental linking: the engine's second execution mode.

:class:`~repro.engine.job.LinkingJob` executes one finished batch. Real
provider feeds do not arrive finished — files land one delta at a time
and experts keep validating links between deltas. :class:`StreamingLinkingJob`
runs that workload on top of the batch substrate:

* **record deltas** (:meth:`StreamingLinkingJob.ingest`) are linked
  against the local store as they arrive, each delta executed as one
  chunked batch job, so every executor strategy, the similarity cache
  and the engine stats work unchanged — and on the serial path the
  stream owns **one** :class:`CachedRecordComparator` shared by every
  delta, so a value pair memoized in delta 0 is never recomputed by
  delta N (the pool executors keep per-worker caches instead: a warm
  parent cache cannot be shared with forked workers cheaply);
* **training deltas** (:meth:`StreamingLinkingJob.ingest_links`) grow an
  :class:`~repro.core.incremental.IncrementalRuleLearner`; the next
  record delta is blocked with rules re-emitted from the learner's
  posting lists — no from-scratch relearn;
* the local catalog's :class:`~repro.index.RecordKeyIndex` is shared
  through :func:`~repro.index.shared_record_index`, so it is built once
  for the whole stream and **version-invalidated**: mutating the local
  store between deltas bumps its version and the next delta rebuilds
  the postings automatically.

The contract that makes streaming trustworthy: for a fixed rule state,
ingesting the external records in any delta split and then calling
:meth:`result` yields **byte-identical** matches — same decisions, same
order, same scores — as one from-scratch batch run over the union.
Per-delta jobs run with ``best_match_only`` off and :meth:`result`
replays the batch fold's best-match selection (top score wins, ties
broken by smallest local id, first-occurrence order) over the
concatenated decision stream, which is exactly what the batch fold
sees. The scenario harness (:mod:`repro.scenarios`) asserts this
identity for every registered scenario. Every executor — including
``shard``, which runs each delta as a block-parallel job — upholds the
same contract because per-delta jobs are plain
:class:`~repro.engine.job.LinkingJob` runs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.incremental import IncrementalRuleLearner
from repro.core.rules import RuleSet
from repro.core.training import SameAsLink
from repro.engine.batch import BatchScorer
from repro.engine.cache import CachedRecordComparator
from repro.engine.job import Decider, JobConfig, LinkingJob, Pair, update_best_match
from repro.engine.stats import EngineStats
from repro.linking.blocking import BlockingMethod, CanopyBlocking, SortedNeighbourhood
from repro.linking.comparators import RecordComparator
from repro.linking.matchers import MatchDecision, MatchStatus
from repro.linking.pipeline import LinkingResult
from repro.linking.records import Record, RecordStore
from repro.rdf.graph import Graph
from repro.rdf.terms import Term

#: Builds a blocking method from the current rule set (learner mode).
BlockingFactory = Callable[[RuleSet], BlockingMethod]

#: Blocking families whose candidate set is a function of the *whole*
#: external source (merged sort windows, canopy claiming), so per-delta
#: execution cannot reproduce a batch run. Rejected at construction.
_STREAM_UNSAFE = (SortedNeighbourhood, CanopyBlocking)


@dataclass(frozen=True, slots=True)
class StreamingDelta:
    """What one ingested record delta did."""

    index: int
    records: int
    compared: int
    matches: int
    possible: int
    rules: int
    elapsed_seconds: float

    def format(self) -> str:
        return (
            f"delta {self.index}: {self.records} records, "
            f"{self.compared} pairs, {self.matches} matches "
            f"({self.elapsed_seconds * 1000:.1f}ms"
            + (f", {self.rules} rules)" if self.rules else ")")
        )


class StreamingLinkingJob:
    """Link an unbounded stream of record deltas against a local store.

    Two configurations:

    * **fixed blocking** — pass ``blocking``; every delta reuses it (and
      through it the shared, version-invalidated local key index);

    ``shared_cache=False`` opts out of the stream-owned similarity
    cache, reverting to cold per-delta caches (the reference leg
    ``tests/engine/test_cache_reuse.py`` compares against). Under
    batched scoring (the default) the stream owns one serial
    :class:`BatchScorer` instead (``shared_cache=False`` opts out of it
    too), whose vocabularies and memos grow without bound for the
    stream's lifetime: ``cache_size`` caps only the pairwise similarity
    cache;
    * **learner-driven blocking** — pass ``learner`` and
      ``blocking_factory``; training deltas grow the learner and the
      factory re-materializes the blocking from the re-emitted rules
      before the next record delta.

    >>> job = StreamingLinkingJob(local, comparator, matcher,
    ...                           blocking=StandardBlocking.on_field_prefix("pn", 4))
    >>> for delta in provider_deltas:
    ...     job.ingest(delta)
    >>> result = job.result()     # byte-identical to one batch run
    """

    def __init__(
        self,
        local: RecordStore,
        comparator: RecordComparator,
        decider: Decider,
        config: JobConfig | None = None,
        blocking: BlockingMethod | None = None,
        blocking_factory: BlockingFactory | None = None,
        learner: IncrementalRuleLearner | None = None,
        shared_cache: bool = True,
    ) -> None:
        if blocking is None and (blocking_factory is None or learner is None):
            raise ValueError(
                "need either a fixed 'blocking' or both 'blocking_factory' "
                "and 'learner'"
            )
        if blocking is not None and (blocking_factory is not None or learner is not None):
            raise ValueError(
                "pass a fixed 'blocking' or the 'blocking_factory' + "
                "'learner' pair, not both"
            )
        if blocking is not None and isinstance(blocking, _STREAM_UNSAFE):
            raise ValueError(
                f"{type(blocking).__name__} cannot stream: its candidate "
                "set depends on the whole external source at once, so "
                "delta ingestion would diverge from a batch run"
            )
        self._local = local
        self._config = config or JobConfig()
        resolved = self._config.resolved_executor()
        batched = self._config.scoring == "batched"
        if (
            shared_cache
            and not batched
            and not isinstance(comparator, CachedRecordComparator)
            and resolved == "serial"
            and self._config.cache_size > 0
        ):
            # one warm similarity cache for the whole stream: per-delta
            # jobs reuse it (LinkingJob keeps caller-provided cached
            # comparators), so repeated value pairs across deltas are
            # memoized once. Memoization never changes a similarity, so
            # the batch byte-identity contract is unaffected. Batched
            # streams skip the wrapper — the columnar scorer below plays
            # the warm-cache role and the pairwise cache would only
            # report misleading zeros.
            comparator = CachedRecordComparator(comparator, self._config.cache_size)
        self._batch_scorer = None
        if (
            batched
            and shared_cache
            and resolved == "serial"
            and BatchScorer.supports(comparator)
        ):
            # the batched analogue of the stream-owned cache: one scorer
            # for the whole stream, so profiles interned and profile
            # pairs scored in delta 0 are reused by every later delta
            # (the local store's column survives across deltas, version
            # guarded). Pool-executor deltas build per-worker scorers.
            self._batch_scorer = BatchScorer(comparator, decider)
        self._comparator = comparator
        self._decider = decider
        self._blocking = blocking
        self._blocking_factory = blocking_factory
        self._learner = learner
        self._rules_dirty = learner is not None
        # accumulated stream state
        self._blocking_fresh = True
        self._index_build_seconds = 0.0
        self._last_build_seconds: Optional[float] = None
        self._emitted_rules: Optional[RuleSet] = None
        self._external_count = 0
        self._matches: List[MatchDecision] = []
        self._possible: List[MatchDecision] = []
        self._candidate_pairs: List[Pair] = []
        self._compared = 0
        self._delta_stats: List[EngineStats] = []
        self.deltas: List[StreamingDelta] = []

    # ------------------------------------------------------------------
    # stream state
    # ------------------------------------------------------------------
    @property
    def local(self) -> RecordStore:
        """The local store deltas are linked against (mutable between
        deltas; the shared key index re-builds on version change)."""
        return self._local

    @property
    def config(self) -> JobConfig:
        """The per-delta execution configuration."""
        return self._config

    @property
    def records_ingested(self) -> int:
        """External records linked so far."""
        return self._external_count

    def rules(self) -> RuleSet:
        """The learner's current rule set (learner mode only)."""
        if self._learner is None:
            raise RuntimeError("this streaming job has no incremental learner")
        return self._learner.rules()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_links(self, links: Iterable[SameAsLink], external: Graph) -> int:
        """Feed a batch of expert-validated links to the learner.

        Returns how many links were new. The rule set is re-emitted
        lazily — on the next record delta — so several training deltas
        in a row cost one re-emission.
        """
        if self._learner is None:
            raise RuntimeError(
                "ingest_links requires a StreamingLinkingJob built with an "
                "IncrementalRuleLearner"
            )
        added = self._learner.add_links(links, external)
        if added:
            self._rules_dirty = True
        return added

    def _current_blocking(self) -> BlockingMethod:
        if self._rules_dirty:
            assert self._blocking_factory is not None and self._learner is not None
            # one re-emission per rebuild; delta reports reuse the cached
            # set rather than re-deriving rules per ingest
            self._emitted_rules = self._learner.rules()
            blocking = self._blocking_factory(self._emitted_rules)
            if isinstance(blocking, _STREAM_UNSAFE):
                raise ValueError(
                    f"blocking_factory produced {type(blocking).__name__}, "
                    "which cannot stream: its candidate set depends on the "
                    "whole external source at once"
                )
            self._blocking = blocking
            self._rules_dirty = False
            self._blocking_fresh = True
        assert self._blocking is not None
        return self._blocking

    def ingest(self, records: Iterable[Record]) -> StreamingDelta:
        """Link one delta of external records against the local store.

        The delta is executed as a complete chunked batch job (same
        executor, cache and chunking semantics as :class:`LinkingJob`);
        its decisions are folded into the stream result.
        """
        started = time.perf_counter()
        delta_store = RecordStore(records)
        blocking = self._current_blocking()
        matches = possible = compared = 0
        if len(delta_store):
            # best-match selection must span the whole stream, so the
            # per-delta job keeps every MATCH and result() replays the
            # batch fold's selection over the concatenated stream
            job = LinkingJob(
                blocking,
                self._comparator,
                self._decider,
                dataclasses.replace(self._config, best_match_only=False),
                batch_scorer=self._batch_scorer,
            )
            outcome = job.run(delta_store, self._local)
            self._matches.extend(outcome.matches)
            self._possible.extend(outcome.possible)
            self._candidate_pairs.extend(outcome.candidate_pairs)
            self._compared += outcome.compared
            if outcome.stats is not None:
                self._delta_stats.append(outcome.stats)
                # shared indexes re-report their one-time build on every
                # delta: count a build on the first use of each blocking
                # instance and whenever the reported build time moves (a
                # local-store mutation rebuilt the shared postings)
                build = outcome.stats.index_build_seconds
                if self._blocking_fresh or build != self._last_build_seconds:
                    self._index_build_seconds += build
                self._last_build_seconds = build
            self._blocking_fresh = False
            matches = len(outcome.matches)
            possible = len(outcome.possible)
            compared = outcome.compared
        self._external_count += len(delta_store)
        delta = StreamingDelta(
            index=len(self.deltas),
            records=len(delta_store),
            compared=compared,
            matches=matches,
            possible=possible,
            rules=len(self._emitted_rules) if self._emitted_rules is not None else 0,
            elapsed_seconds=time.perf_counter() - started,
        )
        self.deltas.append(delta)
        return delta

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def _final_matches(self) -> List[MatchDecision]:
        """Replay the batch fold's best-match selection over the stream."""
        if not self._config.best_match_only:
            return list(self._matches)
        best: Dict[Term, MatchDecision] = {}
        for decision in self._matches:
            update_best_match(best, decision)
        return list(best.values())

    def _merged_stats(self) -> EngineStats:
        """One engine report for the whole stream (sums and maxima)."""
        per_delta = self._delta_stats
        if not per_delta:
            resolved = self._config.resolved_executor()
            return EngineStats(
                executor=resolved,
                workers=1 if resolved == "serial" else self._config.resolved_workers(),
                chunk_size=self._config.chunk_size,
                chunk_count=0,
                pairs_compared=0,
                elapsed_seconds=0.0,
                scoring=self._config.scoring,
            )
        first = per_delta[0]
        fallback = next(
            (s.fallback_reason for s in per_delta if s.fallback_reason), None
        )
        return EngineStats(
            executor=first.executor,
            workers=first.workers,
            chunk_size=first.chunk_size,
            chunk_count=sum(s.chunk_count for s in per_delta),
            pairs_compared=sum(s.pairs_compared for s in per_delta),
            elapsed_seconds=sum(s.elapsed_seconds for s in per_delta),
            cache_hits=sum(s.cache_hits for s in per_delta),
            cache_misses=sum(s.cache_misses for s in per_delta),
            shard_count=first.shard_count,
            fallback_reason=fallback,
            # accumulated at ingest time: one build per blocking
            # instance, not one per delta (deltas re-report the shared
            # index's one-time build)
            index_build_seconds=self._index_build_seconds,
            index_probe_seconds=sum(s.index_probe_seconds for s in per_delta),
            index_features=per_delta[-1].index_features,
            index_postings=per_delta[-1].index_postings,
            scoring=first.scoring,
            # with a stream-owned scorer the per-delta deltas sum to the
            # stream totals; per-worker scorers (process/shard) sum the
            # same way the cache counters do
            batch_profiles=sum(s.batch_profiles for s in per_delta),
            batch_pair_hits=sum(s.batch_pair_hits for s in per_delta),
            batch_pair_misses=sum(s.batch_pair_misses for s in per_delta),
            batch_bounded=sum(s.batch_bounded for s in per_delta),
            work_units=sum(s.work_units for s in per_delta),
            work_unit_bytes=sum(s.work_unit_bytes for s in per_delta),
        )

    def result(self) -> LinkingResult:
        """The stream's cumulative result, batch-fold equivalent.

        Callable at any point; matches are selected (best-match-only,
        when configured) over everything ingested so far.
        """
        result = LinkingResult(
            matches=self._final_matches(),
            possible=list(self._possible),
            compared=self._compared,
            naive_pairs=self._external_count * len(self._local),
            stats=self._merged_stats(),
        )
        result._candidate_pairs = list(self._candidate_pairs)
        return result
