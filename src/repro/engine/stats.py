"""Execution statistics and progress reporting for the linking engine.

:class:`EngineStats` is the per-run report surfaced on
:class:`~repro.linking.pipeline.LinkingResult`; :class:`EngineProgress`
is the snapshot handed to a job's ``on_progress`` callback after every
folded chunk.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EngineProgress:
    """A live snapshot during a running job.

    The total chunk count is unknown while the candidate stream is
    still being drained, so progress reports only what has completed.
    """

    chunks_done: int
    pairs_compared: int
    matches: int
    elapsed_seconds: float

    @property
    def pairs_per_second(self) -> float:
        """Throughput so far."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.pairs_compared / self.elapsed_seconds

    def format(self) -> str:
        return (
            f"chunk {self.chunks_done}: "
            f"{self.pairs_compared} pairs, {self.matches} matches, "
            f"{self.pairs_per_second:,.0f} pairs/s"
        )


@dataclass(frozen=True, slots=True)
class EngineStats:
    """How a finished :class:`~repro.engine.job.LinkingJob` ran.

    ``executor`` is the strategy that actually executed the job — after
    a parallel failure it reads ``serial`` and ``fallback_reason`` says
    why (a ``shard`` request on a blocking method without a per-key
    block decomposition reads ``process`` with the degradation noted
    there; a ``batched`` request on a comparator the columnar scorer
    cannot replicate reads ``pairwise`` the same way). Cache counters
    are summed across workers for the process and shard executors.
    ``shard_count`` is the number of key-space shards a ``shard`` run
    planned — the worker count unless
    :attr:`~repro.engine.job.JobConfig.shards` overrode it (0 outside
    shard runs); for shard runs ``chunk_count`` counts completed shards.

    ``scoring`` is the scoring path that actually ran. For batched runs
    the ``batch_*`` fields report the columnar scorer's work: distinct
    record profiles interned, profile pairs scored from scratch
    (``batch_pair_misses``) and pairs served whole from the profile-pair
    memo (``batch_pair_hits``) — summed across workers like the cache
    counters. The similarity-cache counters stay untouched by batched
    runs (the scorer never consults the pairwise cache), so a zero hit
    rate there is honest, not a regression.

    The ``index_*`` fields report the blocking method's key or rule
    index (see :mod:`repro.index`) when it has one: build/probe wall
    time and posting-list sizes. They stay zero for blocking methods
    without an index (full, sorted-neighbourhood, canopy).

    The transport counters prove serialization actually happened:
    ``work_units`` counts shard work units that crossed a
    serialize→deserialize boundary (the ``worker`` executor — zero for
    in-process strategies) and ``work_unit_bytes`` the JSON bytes they
    cost in both directions. A ``worker`` run with ``work_units == 0``
    silently stayed in-process — the differential tests gate on this.
    """

    executor: str
    workers: int
    chunk_size: int
    chunk_count: int
    pairs_compared: int
    elapsed_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    shard_count: int = 0
    fallback_reason: str | None = None
    index_build_seconds: float = 0.0
    index_probe_seconds: float = 0.0
    index_features: int = 0
    index_postings: int = 0
    scoring: str = "pairwise"
    batch_profiles: int = 0
    batch_pair_hits: int = 0
    batch_pair_misses: int = 0
    work_units: int = 0
    work_unit_bytes: int = 0

    @property
    def pairs_per_second(self) -> float:
        """Candidate pairs compared per wall-clock second."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.pairs_compared / self.elapsed_seconds

    @property
    def cache_hit_rate(self) -> float:
        """Similarity-cache hits over lookups (0.0 when cache disabled)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def batch_reuse_rate(self) -> float:
        """Pairs served whole from the profile-pair memo, over all pairs
        scored (0.0 outside batched runs)."""
        total = self.batch_pair_hits + self.batch_pair_misses
        return self.batch_pair_hits / total if total else 0.0

    def format(self) -> str:
        """One-paragraph human-readable report."""
        shards = f" shards={self.shard_count}" if self.shard_count else ""
        scoring = f" scoring={self.scoring}" if self.scoring != "pairwise" else ""
        lines = [
            f"executor={self.executor} workers={self.workers}{shards}{scoring} "
            f"chunks={self.chunk_count} (size {self.chunk_size})",
            f"compared {self.pairs_compared} pairs in "
            f"{self.elapsed_seconds:.2f}s -> "
            f"{self.pairs_per_second:,.0f} pairs/s",
            f"similarity cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"(hit rate {self.cache_hit_rate:.1%})",
        ]
        if self.scoring == "batched":
            lines.append(
                f"batched scoring: {self.batch_profiles} profiles, "
                f"{self.batch_pair_misses} pairs scored / "
                f"{self.batch_pair_hits} memoized "
                f"(reuse {self.batch_reuse_rate:.1%})"
            )
        if self.index_features or self.index_postings:
            mean_posting = (
                self.index_postings / self.index_features if self.index_features else 0.0
            )
            lines.append(
                f"blocking index: {self.index_features} features / "
                f"{self.index_postings} postings "
                f"(mean {mean_posting:.1f}), "
                f"build {self.index_build_seconds * 1000:.1f}ms, "
                f"probe {self.index_probe_seconds * 1000:.1f}ms"
            )
        if self.work_units:
            lines.append(
                f"transport: {self.work_units} work units serialized "
                f"({self.work_unit_bytes:,} bytes round-tripped)"
            )
        if self.fallback_reason:
            lines.append(f"fallback: {self.fallback_reason}")
        return "\n".join(lines)
