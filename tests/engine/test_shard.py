"""Tests for shard planning and the block-parallel shard executor."""

import os

import pytest

import repro.engine.job as job_module
from repro.engine import (
    JobConfig,
    LinkingJob,
    ShardPlan,
    StreamingLinkingJob,
    available_cpu_count,
    stable_key_hash,
)
from repro.engine.job import update_best_match
from repro.linking import (
    CanopyBlocking,
    FieldComparator,
    FullIndex,
    QGramBlocking,
    Record,
    RecordComparator,
    RecordStore,
    SortedNeighbourhood,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.rdf import EX
from repro.text import soundex


def record(name, pn, maker="acme"):
    return Record(id=EX[name], fields={"pn": (pn,), "maker": (maker,)})


@pytest.fixture
def comparator():
    return RecordComparator(
        [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=1.0)]
    )


@pytest.fixture
def stores():
    external = RecordStore(
        [record(f"e{i}", pn) for i, pn in enumerate(
            ("crcw0805-10k", "t83-220", "abc-999", "zzz-111", "crcw0805-22k", "abc-998")
        )]
    )
    local = RecordStore(
        [record(f"l{i}", pn) for i, pn in enumerate(
            ("crcw0805-10k", "t83-220", "abc-999", "other-1", "crcw0805-22k", "abc-997")
        )]
    )
    return external, local


def assert_identical(a, b):
    """The repo's byte-identity notion: same decisions, same order."""
    assert a.matches == b.matches
    assert a.possible == b.possible
    assert a.candidate_pairs == b.candidate_pairs
    assert a.compared == b.compared


class TestShardPlan:
    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError):
            ShardPlan.build(0)
        with pytest.raises(ValueError):
            ShardPlan(shards=0)
        with pytest.raises(ValueError):
            ShardPlan(shards=2, pinned={"k": 5})

    def test_hash_assignment_is_stable_and_in_range(self):
        plan = ShardPlan.build(4)
        for key in ("abc", "def", "", "crcw0805"):
            shard = plan.shard_of(key)
            assert 0 <= shard < 4
            assert plan.shard_of(key) == shard  # stable across calls
        # crc32, not randomized hash(): pin one literal value forever
        assert stable_key_hash("abc") == 891568578

    def test_build_is_deterministic(self):
        sizes = {"a": 10, "b": 9, "c": 3, "d": 3, "e": 1}
        plans = [ShardPlan.build(3, dict(reversed(list(sizes.items())))) for _ in range(3)]
        assert all(p.pinned == plans[0].pinned for p in plans)

    def test_greedy_balance_beats_worst_case(self):
        # one huge block plus many small ones: LPT keeps the huge block
        # alone-ish while hashing alone could stack everything together
        sizes = {"huge": 100, **{f"k{i}": 10 for i in range(10)}}
        plan = ShardPlan.build(2, sizes)
        loads = plan.loads(sizes)
        assert sorted(loads) == [100, 100]

    def test_unknown_keys_fall_back_to_hashing(self):
        plan = ShardPlan.build(2, {"a": 5})
        assert plan.shard_of("a") == plan.pinned["a"]
        assert plan.shard_of("nope") == stable_key_hash("nope") % 2


class TestShardExecutorIdentity:
    @pytest.mark.parametrize("make_blocking", (
        lambda: FullIndex(),
        lambda: StandardBlocking.on_field_prefix("pn", length=3),
        lambda: StandardBlocking.on_field_transform("pn", soundex),
        lambda: QGramBlocking("pn", q=2, threshold=0.8),
        lambda: SortedNeighbourhood.on_field("pn", window_size=3),
        lambda: CanopyBlocking("pn", loose=0.3, tight=0.9),
    ), ids=(
        "full-index", "standard-indexed", "standard-private-index",
        "qgram-indexed", "sorted-neighbourhood", "canopy",
    ))
    @pytest.mark.parametrize("workers", (2, 3))
    def test_shard_is_byte_identical_to_serial(
        self, comparator, stores, make_blocking, workers
    ):
        external, local = stores
        matcher = ThresholdMatcher(match_threshold=0.9)
        serial = LinkingJob(
            make_blocking(), comparator, matcher, JobConfig(executor="serial")
        ).run(external, local)
        shard = LinkingJob(
            make_blocking(), comparator, matcher,
            JobConfig(executor="shard", workers=workers),
        ).run(external, local)
        assert shard.stats.executor == "shard"
        assert shard.stats.fallback_reason is None
        assert shard.stats.shard_count == workers
        assert shard.stats.chunk_count == workers  # one "chunk" per shard
        assert_identical(shard, serial)

    def test_more_shards_than_blocks_leaves_empty_shards_harmless(
        self, comparator, stores
    ):
        external, local = stores
        matcher = ThresholdMatcher(0.9)
        blocking = StandardBlocking.on_field_prefix("pn", length=3)
        serial = LinkingJob(
            StandardBlocking.on_field_prefix("pn", length=3), comparator, matcher,
            JobConfig(executor="serial"),
        ).run(external, local)
        shard = LinkingJob(
            blocking, comparator, matcher, JobConfig(executor="shard", workers=6)
        ).run(external, local)
        assert_identical(shard, serial)

    def test_progress_reports_one_chunk_per_shard(self, comparator, stores):
        external, local = stores
        seen = []
        job = LinkingJob(
            FullIndex(), comparator, ThresholdMatcher(0.9),
            JobConfig(executor="shard", workers=2, on_progress=seen.append),
        )
        result = job.run(external, local)
        assert [p.chunks_done for p in seen] == [1, 2]
        assert seen[-1].pairs_compared == result.compared
        assert seen[-1].matches == len(result.matches)

    @pytest.mark.parametrize("make_blocking", (
        lambda: QGramBlocking("pn", q=2, threshold=0.8),
        lambda: SortedNeighbourhood.on_field("pn", window_size=3),
        lambda: CanopyBlocking("pn", loose=0.3, tight=0.9),
    ), ids=("qgram", "sorted-neighbourhood", "canopy"))
    def test_every_registered_blocking_class_shards_without_degrading(
        self, comparator, stores, make_blocking
    ):
        """qgram/window/canopy once degraded to the process executor;
        with their per-key decompositions, degradation is impossible —
        a shard request must actually shard, and byte-identically."""
        external, local = stores
        matcher = ThresholdMatcher(0.9)
        serial = LinkingJob(
            make_blocking(), comparator, matcher, JobConfig(executor="serial")
        ).run(external, local)
        shard = LinkingJob(
            make_blocking(), comparator, matcher,
            JobConfig(executor="shard", workers=2),
        ).run(external, local)
        assert shard.stats.executor == "shard"
        assert shard.stats.fallback_reason is None
        assert shard.stats.shard_count > 1
        assert "fallback" not in shard.stats.format()
        assert_identical(shard, serial)

    def test_unsupported_blocking_still_degrades_to_process(
        self, comparator, stores
    ):
        """The degradation path itself stays covered by a synthetic
        double without a per-key decomposition (every registered class
        now has one)."""

        class CartesianDouble:
            """Duck-typed blocking without the shard API."""

            def candidate_pairs(self, external, local):
                for ext in external.ids():
                    for loc in local.ids():
                        yield ext, loc

        external, local = stores
        matcher = ThresholdMatcher(0.9)
        serial = LinkingJob(
            CartesianDouble(), comparator, matcher, JobConfig(executor="serial")
        ).run(external, local)
        shard = LinkingJob(
            CartesianDouble(), comparator, matcher,
            JobConfig(executor="shard", workers=2),
        ).run(external, local)
        assert shard.stats.executor == "process"
        assert shard.stats.shard_count == 0
        # the reason names the offending blocking class and both the
        # requested and the actual strategy — nothing generic
        assert shard.stats.fallback_reason == (
            "shard: CartesianDouble has no per-key "
            "block decomposition; ran process"
        )
        # and it is surfaced, not just recorded: format() carries it
        assert f"fallback: {shard.stats.fallback_reason}" in shard.stats.format()
        assert_identical(shard, serial)

    @pytest.mark.parametrize("shards", (3, 5))
    def test_shards_override_decouples_plan_from_workers(
        self, comparator, stores, shards
    ):
        external, local = stores
        matcher = ThresholdMatcher(0.9)
        serial = LinkingJob(
            QGramBlocking("pn", q=2, threshold=0.8), comparator, matcher,
            JobConfig(executor="serial"),
        ).run(external, local)
        shard = LinkingJob(
            QGramBlocking("pn", q=2, threshold=0.8), comparator, matcher,
            JobConfig(executor="shard", workers=2, shards=shards),
        ).run(external, local)
        assert shard.stats.shard_count == shards
        assert shard.stats.chunk_count == shards  # one "chunk" per shard
        assert shard.stats.workers == 2
        assert_identical(shard, serial)

    def test_rejects_bad_shards_override(self):
        with pytest.raises(ValueError):
            JobConfig(shards=0)

    def test_shard_run_never_reports_stale_parent_index_stats(
        self, comparator, stores
    ):
        """Index probing happens in the workers: a shard run on a
        blocking instance whose parent-side stats were populated by an
        earlier run must not re-report them."""
        external, local = stores
        blocking = StandardBlocking.on_field_prefix("pn", length=3)
        matcher = ThresholdMatcher(0.9)
        serial = LinkingJob(
            blocking, comparator, matcher, JobConfig(executor="serial")
        ).run(external, local)
        assert serial.stats.index_features > 0  # parent-side report exists
        shard = LinkingJob(
            blocking, comparator, matcher, JobConfig(executor="shard", workers=2)
        ).run(external, local)
        assert shard.stats.index_features == 0
        assert shard.stats.index_build_seconds == 0.0

    def test_single_worker_shard_runs_serially(self, comparator, stores):
        external, local = stores
        stats = LinkingJob(
            FullIndex(), comparator, ThresholdMatcher(0.9),
            JobConfig(executor="shard", workers=1),
        ).run(external, local).stats
        assert stats.executor == "serial"
        assert stats.fallback_reason is None


class TestStreamingShard:
    def test_streamed_shard_deltas_match_one_batch_run(self, comparator, stores):
        external, local = stores
        matcher = ThresholdMatcher(0.9)
        config = JobConfig(executor="shard", workers=2)
        batch = LinkingJob(
            StandardBlocking.on_field_prefix("pn", length=3), comparator, matcher,
            config,
        ).run(external, local)
        stream = StreamingLinkingJob(
            local, comparator, matcher, config,
            blocking=StandardBlocking.on_field_prefix("pn", length=3),
        )
        records = list(external)
        for delta in (records[:2], records[2:5], records[5:]):
            stream.ingest(delta)
        result = stream.result()
        assert_identical(result, batch)
        assert result.stats.executor == "shard"
        assert result.stats.shard_count == 2

    def test_streamed_qgram_shard_deltas_match_one_batch_run(
        self, comparator, stores
    ):
        """Q-gram is the one multi-key method that may stream (window
        and canopy candidates depend on the whole external source):
        per-delta shard runs must reproduce the batch shard run."""
        external, local = stores
        matcher = ThresholdMatcher(0.9)
        config = JobConfig(executor="shard", workers=2)
        batch = LinkingJob(
            QGramBlocking("pn", q=2, threshold=0.8), comparator, matcher, config
        ).run(external, local)
        stream = StreamingLinkingJob(
            local, comparator, matcher, config,
            blocking=QGramBlocking("pn", q=2, threshold=0.8),
        )
        records = list(external)
        for delta in (records[:2], records[2:5], records[5:]):
            stream.ingest(delta)
        result = stream.result()
        assert_identical(result, batch)
        assert result.stats.executor == "shard"
        assert result.stats.shard_count == 2


class TestTieBreakInvariance:
    """Score ties must resolve identically under every executor.

    The workload is crafted so one external record matches two locals
    with *exactly* equal scores; the explicit ``(score desc, local id
    asc)`` rule must pick the lexicographically smallest local id no
    matter which fold order an executor produces."""

    @pytest.fixture
    def tie_stores(self):
        external = RecordStore([record("e0", "abc-123"), record("e1", "t83-220")])
        # insertion order deliberately puts the LARGER id first: the old
        # first-seen rule would have kept lz, the explicit rule keeps la
        local = RecordStore(
            [record("lz", "abc-123"), record("la", "abc-123"), record("lb", "t83-220")]
        )
        return external, local

    @pytest.mark.parametrize("executor", ("serial", "thread", "process", "shard"))
    def test_all_executors_pick_the_smallest_local_id(
        self, comparator, tie_stores, executor
    ):
        external, local = tie_stores
        result = LinkingJob(
            FullIndex(), comparator, ThresholdMatcher(0.95),
            JobConfig(executor=executor, workers=2, chunk_size=1),
        ).run(external, local)
        winners = {
            str(d.vector.left.id): str(d.vector.right.id) for d in result.matches
        }
        assert winners[str(EX.e0)] == str(EX.la)
        assert winners[str(EX.e1)] == str(EX.lb)

    def test_update_best_match_rule(self, comparator):
        left = record("e0", "abc")
        deciders = ThresholdMatcher(0.5)

        def decision(local_name):
            vector = comparator.compare(left, record(local_name, "abc"))
            return deciders.decide(vector)

        best = {}
        update_best_match(best, decision("lz"))
        update_best_match(best, decision("la"))  # equal score, smaller id: wins
        assert str(best[EX.e0].vector.right.id) == str(EX.la)
        update_best_match(best, decision("lz"))  # equal score, larger id: loses
        assert str(best[EX.e0].vector.right.id) == str(EX.la)

    def test_higher_score_still_beats_smaller_id(self, comparator):
        left = record("e0", "abc", maker="acme")
        matcher = ThresholdMatcher(0.1)
        best = {}
        weak = matcher.decide(comparator.compare(left, record("la", "abc", maker="zzz")))
        strong = matcher.decide(comparator.compare(left, record("lz", "abc", maker="acme")))
        assert strong.score > weak.score
        update_best_match(best, weak)
        update_best_match(best, strong)
        assert str(best[EX.e0].vector.right.id) == str(EX.lz)


class TestWorkerResolution:
    def test_prefers_scheduler_affinity_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(job_module.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            job_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        assert available_cpu_count() == 2
        assert JobConfig().resolved_workers() == 2

    def test_falls_back_to_cpu_count_without_affinity_support(self, monkeypatch):
        monkeypatch.setattr(job_module.os, "cpu_count", lambda: 3)
        monkeypatch.delattr(job_module.os, "sched_getaffinity", raising=False)
        assert available_cpu_count() == 3
        assert JobConfig().resolved_workers() == 3

    def test_explicit_workers_override_detection(self, monkeypatch):
        monkeypatch.setattr(
            job_module.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert JobConfig(workers=5).resolved_workers() == 5

    def test_affinity_error_falls_back_to_cpu_count(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity syscall here")

        monkeypatch.setattr(job_module.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(job_module.os, "sched_getaffinity", broken, raising=False)
        assert available_cpu_count() == 4


def test_sched_getaffinity_matches_os_when_available():
    """On platforms with the syscall the helper must agree with it."""
    if hasattr(os, "sched_getaffinity"):
        assert available_cpu_count() == len(os.sched_getaffinity(0))
