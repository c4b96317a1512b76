"""Cross-run and cross-delta similarity-cache persistence.

The contract: handing a :class:`CachedRecordComparator` to a
:class:`LinkingJob` (or letting a :class:`StreamingLinkingJob` create
its stream-owned one) keeps memoized similarities alive across ``run``
calls and deltas, changes **no** output anywhere, and keeps per-run
``EngineStats`` counters per-run (deltas, not lifetime totals).

The similarity cache belongs to pairwise scoring, which the serve path
still runs, so the cache tests pin ``scoring="pairwise"``; their
batched twins check the same persistence for the columnar scorer's
profile-pair memo.
"""

import dataclasses

import pytest

from repro.engine import BatchScorer, CachedRecordComparator, JobConfig, LinkingJob
from repro.engine.streaming import StreamingLinkingJob
from repro.linking import (
    FieldComparator,
    RecordComparator,
    RecordStore,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.linking.records import Record


def _record(rid, pn, maker="acme"):
    return Record(id=rid, fields={"pn": (pn,), "maker": (maker,)})


@pytest.fixture()
def stores():
    local = RecordStore(
        [
            _record("l1", "abcd-100"),
            _record("l2", "abcd-200"),
            _record("l3", "abcd-300"),
            _record("l4", "wxyz-900", maker="other"),
        ]
    )
    external = RecordStore(
        [
            _record("e1", "abcd-100"),
            _record("e2", "abcd-209"),
            _record("e3", "abcd-300"),
        ]
    )
    return external, local


def _job(comparator, executor="serial", **config):
    return LinkingJob(
        StandardBlocking.on_field_prefix("pn", length=4),
        comparator,
        ThresholdMatcher(match_threshold=0.9),
        JobConfig(executor=executor, chunk_size=2, **config),
    )


def _bare():
    return RecordComparator([FieldComparator("pn"), FieldComparator("maker")])


class TestLinkingJobReuse:
    def test_second_run_hits_the_warm_cache(self, stores):
        external, local = stores
        shared = CachedRecordComparator(_bare(), 1000)
        job = _job(shared, scoring="pairwise")
        first = job.run(external, local)
        assert first.stats.cache_misses > 0
        second = job.run(external, local)
        # every similarity was memoized by the first run
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == first.stats.cache_hits + first.stats.cache_misses
        assert second.match_pairs == first.match_pairs

    def test_second_run_hits_the_warm_scorer(self, stores):
        """Batched twin: a caller-provided scorer keeps its profile-pair
        memo across runs, and the pairwise cache is never consulted."""
        external, local = stores
        matcher = ThresholdMatcher(match_threshold=0.9)
        job = LinkingJob(
            StandardBlocking.on_field_prefix("pn", length=4),
            _bare(),
            matcher,
            JobConfig(executor="serial", chunk_size=2),
            batch_scorer=BatchScorer(_bare(), matcher),
        )
        first = job.run(external, local)
        assert first.stats.scoring == "batched"
        assert first.stats.batch_pair_misses > 0
        assert first.stats.batch_pair_hits + first.stats.batch_pair_misses == first.compared
        second = job.run(external, local)
        assert second.stats.batch_pair_misses == 0
        assert second.stats.batch_pair_hits == second.compared == first.compared
        assert second.stats.cache_hits + second.stats.cache_misses == 0
        assert second.match_pairs == first.match_pairs

    def test_stats_are_per_run_not_lifetime(self, stores):
        external, local = stores
        shared = CachedRecordComparator(_bare(), 1000)
        job = _job(shared)
        first = job.run(external, local)
        second = job.run(external, local)
        lookups = lambda stats: stats.cache_hits + stats.cache_misses  # noqa: E731
        assert lookups(first.stats) == lookups(second.stats)
        assert shared.cache_hits + shared.cache_misses == lookups(first.stats) + lookups(
            second.stats
        )

    def test_warm_cache_changes_no_output(self, stores):
        external, local = stores
        cold = _job(_bare()).run(external, local)
        shared = CachedRecordComparator(_bare(), 1000)
        job = _job(shared)
        job.run(external, local)  # warm it
        warm = job.run(external, local)
        assert warm.match_pairs == cold.match_pairs
        assert [d.score for d in warm.matches] == [d.score for d in cold.matches]

    @pytest.mark.parametrize("executor", ("process", "shard"))
    def test_pool_executors_leave_the_callers_cache_untouched(self, stores, executor):
        """Pool workers build their own per-process caches at the shared
        cache's capacity; the caller's instance is never consulted, and
        the output is the serial run's."""
        external, local = stores
        shared = CachedRecordComparator(_bare(), 1000)
        result = _job(shared, executor=executor, workers=2).run(external, local)
        serial = _job(_bare()).run(external, local)
        assert result.stats.executor == executor
        assert shared.cache_hits + shared.cache_misses == 0
        assert result.match_pairs == serial.match_pairs
        assert [d.score for d in result.matches] == [d.score for d in serial.matches]

    def test_zero_capacity_shared_cache_still_correct(self, stores):
        external, local = stores
        shared = CachedRecordComparator(_bare(), 0)
        result = _job(shared).run(external, local)
        cold = _job(_bare()).run(external, local)
        assert result.match_pairs == cold.match_pairs
        assert result.stats.cache_hits == 0


def _deltas():
    base = [
        _record("e1", "abcd-100"),
        _record("e2", "abcd-209"),
        _record("e3", "abcd-300"),
    ]
    resent = [_record(f"{r.id}/tx1", r.value("pn")) for r in base]
    return base, resent


class TestStreamingCrossDelta:
    def test_second_delta_reuses_first_deltas_cache(self, stores):
        _, local = stores
        first_delta, resent = _deltas()
        job = StreamingLinkingJob(
            local,
            _bare(),
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial", chunk_size=2, scoring="pairwise"),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        job.ingest(first_delta)
        first = job._delta_stats[-1]
        job.ingest(resent)
        second = job._delta_stats[-1]
        # the re-sent values were all memoized by delta 0
        assert second.cache_misses == 0
        assert second.cache_hits > 0
        assert first.cache_misses > 0

    def test_second_delta_reuses_first_deltas_scorer(self, stores):
        """Batched twin: the stream-owned scorer serves re-sent records
        (new ids, same fields) from delta 0's profile-pair memo."""
        _, local = stores
        first_delta, resent = _deltas()
        job = StreamingLinkingJob(
            local,
            _bare(),
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial", chunk_size=2),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        job.ingest(first_delta)
        first = job._delta_stats[-1]
        job.ingest(resent)
        second = job._delta_stats[-1]
        assert first.batch_pair_misses > 0
        assert second.batch_pair_misses == 0
        assert second.batch_pair_hits == second.pairs_compared > 0
        assert second.cache_hits + second.cache_misses == 0

    def test_stream_result_identical_to_batch_union(self, stores):
        _, local = stores
        first_delta, resent = _deltas()
        config = JobConfig(executor="serial", chunk_size=2)
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        job = StreamingLinkingJob(
            local,
            _bare(),
            ThresholdMatcher(match_threshold=0.9),
            config,
            blocking=blocking,
        )
        job.ingest(first_delta)
        job.ingest(resent)
        streamed = job.result()
        union = RecordStore(first_delta + resent)
        batch = LinkingJob(
            StandardBlocking.on_field_prefix("pn", length=4),
            _bare(),
            ThresholdMatcher(match_threshold=0.9),
            config,
        ).run(union, local)
        assert streamed.match_pairs == batch.match_pairs
        assert [d.score for d in streamed.matches] == [d.score for d in batch.matches]

    def test_caller_provided_cached_comparator_respected(self, stores):
        _, local = stores
        shared = CachedRecordComparator(_bare(), 777)
        job = StreamingLinkingJob(
            local,
            shared,
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial"),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        assert job._comparator is shared

    def test_process_executor_keeps_bare_comparator(self, stores):
        _, local = stores
        bare = _bare()
        job = StreamingLinkingJob(
            local,
            bare,
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="process", workers=2),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        # per-worker caches are built in the pool; the parent comparator
        # is shipped as-is
        assert job._comparator is bare

    def test_shared_cache_opt_out_keeps_bare_comparator(self, stores):
        """shared_cache=False is the supported cold-cache reference leg."""
        _, local = stores
        bare = _bare()
        job = StreamingLinkingJob(
            local,
            bare,
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial"),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
            shared_cache=False,
        )
        assert job._comparator is bare
        # per-delta jobs still memoize within themselves, so outputs
        # match the shared-cache stream exactly
        first_delta, resent = _deltas()
        job.ingest(first_delta)
        job.ingest(resent)
        shared_job = StreamingLinkingJob(
            local,
            _bare(),
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial"),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        shared_job.ingest(first_delta)
        shared_job.ingest(resent)
        assert job.result().match_pairs == shared_job.result().match_pairs

    def test_cache_disabled_keeps_bare_comparator(self, stores):
        _, local = stores
        bare = _bare()
        job = StreamingLinkingJob(
            local,
            bare,
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial", cache_size=0),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        assert job._comparator is bare


class TestConfigReplaceStillWorks:
    def test_streaming_best_match_replacement_keeps_shared_cache(self, stores):
        """ingest() replaces best_match_only per delta; the stream-owned
        cached comparator must survive that dataclasses.replace path."""
        _, local = stores
        job = StreamingLinkingJob(
            local,
            _bare(),
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial", scoring="pairwise"),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        assert isinstance(job._comparator, CachedRecordComparator)
        config = dataclasses.replace(job._config, best_match_only=False)
        assert config.cache_size == job._config.cache_size

    def test_streaming_best_match_replacement_keeps_shared_scorer(self, stores):
        """Batched twin: the stream owns one scorer and no cache wrapper,
        and the per-delta config replace keeps the batched path."""
        _, local = stores
        bare = _bare()
        job = StreamingLinkingJob(
            local,
            bare,
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial"),
            blocking=StandardBlocking.on_field_prefix("pn", length=4),
        )
        assert job._comparator is bare
        assert isinstance(job._batch_scorer, BatchScorer)
        config = dataclasses.replace(job._config, best_match_only=False)
        assert config.scoring == job._config.scoring == "batched"
