"""Tests for the chunked, parallel batch linking job."""

from types import SimpleNamespace

import pytest

from repro.engine import EngineStats, JobConfig, LinkingJob
import repro.engine.executors.chunked as chunked_module
from repro.engine.executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    WorkerExecutor,
    get_executor,
)
import repro.engine.job as job_module
from repro.linking import (
    FieldComparator,
    FullIndex,
    LinkingPipeline,
    MatchStatus,
    Record,
    RecordComparator,
    RecordStore,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.rdf import EX


def record(name, pn, maker="acme"):
    return Record(id=EX[name], fields={"pn": (pn,), "maker": (maker,)})


def naive_link(blocking, comparator, decider, external, local, best_match_only=True):
    """The pre-engine pipeline loop, kept as an independent reference.

    LinkingPipeline itself now delegates to LinkingJob, so equivalence
    tests need a matching implementation that does NOT share code with
    the engine. Best-match ties break on the smallest local id, the
    engine's explicit executor-invariant rule.
    """
    matches, possible, candidates = [], [], []
    best, compared = {}, 0
    for ext_id, local_id in blocking.candidate_pairs(external, local):
        left = external.get(ext_id)
        right = local.get(local_id)
        if left is None or right is None:
            continue
        compared += 1
        candidates.append((ext_id, local_id))
        decision = decider.decide(comparator.compare(left, right))
        if decision.status is MatchStatus.MATCH:
            if best_match_only:
                incumbent = best.get(ext_id)
                if (
                    incumbent is None
                    or decision.score > incumbent.score
                    or (
                        decision.score == incumbent.score
                        and str(local_id) < str(incumbent.vector.right.id)
                    )
                ):
                    best[ext_id] = decision
            else:
                matches.append(decision)
        elif decision.status is MatchStatus.POSSIBLE:
            possible.append(decision)
    if best_match_only:
        matches.extend(best.values())
    return SimpleNamespace(
        matches=matches,
        possible=possible,
        compared=compared,
        candidate_pairs=candidates,
        match_pairs=[(d.vector.left.id, d.vector.right.id) for d in matches],
    )


@pytest.fixture
def comparator():
    return RecordComparator(
        [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=1.0)]
    )


@pytest.fixture
def stores():
    external = RecordStore(
        [record(f"e{i}", pn) for i, pn in enumerate(
            ("crcw0805-10k", "t83-220", "abc-999", "zzz-111", "crcw0805-22k")
        )]
    )
    local = RecordStore(
        [record(f"l{i}", pn) for i, pn in enumerate(
            ("crcw0805-10k", "t83-220", "abc-999", "other-1", "crcw0805-22k")
        )]
    )
    return external, local


@pytest.fixture
def serial_result(comparator, stores):
    """Reference result from the engine-independent naive loop."""
    external, local = stores
    matcher = ThresholdMatcher(match_threshold=0.95)
    return naive_link(FullIndex(), comparator, matcher, external, local)


class TestSerialEquivalence:
    def test_pipeline_facade_matches_reference_and_carries_stats(
        self, comparator, stores, serial_result
    ):
        external, local = stores
        result = LinkingPipeline(
            FullIndex(), comparator, ThresholdMatcher(match_threshold=0.95)
        ).run(external, local)
        assert result.matches == serial_result.matches
        assert result.possible == serial_result.possible
        assert result.match_pairs == serial_result.match_pairs
        assert isinstance(result.stats, EngineStats)
        assert result.stats.executor == "serial"
        assert result.stats.pairs_compared == result.compared

    @pytest.mark.parametrize("chunk_size", (1, 3, 7, 1000))
    def test_chunking_never_changes_the_result(
        self, comparator, stores, serial_result, chunk_size
    ):
        external, local = stores
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(match_threshold=0.95),
            JobConfig(executor="serial", chunk_size=chunk_size),
        )
        result = job.run(external, local)
        assert result.matches == serial_result.matches
        assert result.possible == serial_result.possible
        assert result.match_pairs == serial_result.match_pairs
        assert result.compared == serial_result.compared
        assert result.candidate_pairs == serial_result.candidate_pairs

    @pytest.mark.parametrize("executor", ("process",))
    def test_parallel_executors_match_serial(
        self, comparator, stores, serial_result, executor
    ):
        external, local = stores
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(match_threshold=0.95),
            JobConfig(executor=executor, workers=2, chunk_size=2),
        )
        result = job.run(external, local)
        assert result.stats.executor == executor
        assert result.stats.fallback_reason is None
        assert result.matches == serial_result.matches
        assert result.match_pairs == serial_result.match_pairs
        assert result.compared == serial_result.compared

    def test_cache_disabled_matches_cached(self, comparator, stores, serial_result):
        external, local = stores
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(match_threshold=0.95),
            JobConfig(executor="serial", cache_size=0, scoring="pairwise"),
        )
        result = job.run(external, local)
        assert result.matches == serial_result.matches
        assert result.stats.cache_hits == 0
        # a disabled cache still counts its misses: every consulted
        # pair is honest traffic, not a silent 0/0 hit rate
        assert result.stats.cache_misses > 0
        assert result.stats.cache_hit_rate == 0.0

    def test_cache_size_is_inert_under_batched_scoring(
        self, comparator, stores, serial_result
    ):
        """Batched twin: the scorer never consults the similarity cache,
        so its capacity changes nothing and its counters stay 0/0."""
        external, local = stores
        result = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(match_threshold=0.95),
            JobConfig(executor="serial", cache_size=0),
        ).run(external, local)
        assert result.stats.scoring == "batched"
        assert result.matches == serial_result.matches
        assert result.stats.cache_hits == result.stats.cache_misses == 0
        stats = result.stats
        assert stats.batch_pair_hits + stats.batch_pair_misses == stats.pairs_compared

    def test_best_match_only_disabled(self, comparator):
        external = RecordStore([record("e1", "abc")])
        local = RecordStore([record("l1", "abc"), record("l2", "abc")])
        matcher = ThresholdMatcher(0.95)
        una = LinkingJob(
            FullIndex(), comparator, matcher,
            JobConfig(best_match_only=True),
        ).run(external, local)
        free = LinkingJob(
            FullIndex(), comparator, matcher,
            JobConfig(best_match_only=False),
        ).run(external, local)
        assert len(una.matches) == 1
        assert len(free.matches) == 2


class TestStats:
    def test_stats_shape(self, comparator, stores):
        external, local = stores
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="serial", chunk_size=4, scoring="pairwise"),
        )
        stats = job.run(external, local).stats
        assert stats.chunk_count == 7  # ceil(25 / 4)
        assert stats.chunk_size == 4
        assert stats.pairs_compared == 25
        assert stats.elapsed_seconds > 0
        assert stats.pairs_per_second > 0
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert stats.cache_hits + stats.cache_misses > 0

    def test_stats_shape_batched(self, comparator, stores):
        external, local = stores
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="serial", chunk_size=4),
        )
        stats = job.run(external, local).stats
        assert stats.scoring == "batched"
        assert stats.chunk_count == 7  # ceil(25 / 4)
        assert stats.pairs_compared == 25
        assert stats.batch_pair_hits + stats.batch_pair_misses == stats.pairs_compared
        assert 0.0 <= stats.batch_reuse_rate <= 1.0
        assert stats.cache_hits + stats.cache_misses == 0

    def test_cache_hits_on_repeated_values(self, comparator):
        # every external shares the same maker -> maker sims repeat
        external = RecordStore([record(f"e{i}", f"pn-{i}") for i in range(10)])
        local = RecordStore([record(f"l{i}", f"pn-{i}") for i in range(10)])
        job = LinkingJob(
            FullIndex(), comparator, ThresholdMatcher(0.95), JobConfig(scoring="pairwise")
        )
        stats = job.run(external, local).stats
        assert stats.cache_hits > 0
        assert stats.cache_hit_rate > 0.4
        assert stats.reuse_rate == stats.cache_hit_rate

    def test_batch_hits_on_repeated_profiles(self, comparator):
        # two distinct external profiles against ten local ones: 20
        # profile pairs scored, the other 80 pairs served from the memo
        external = RecordStore([record(f"e{i}", f"pn-{i % 2}") for i in range(10)])
        local = RecordStore([record(f"l{i}", f"pn-{i}") for i in range(10)])
        job = LinkingJob(FullIndex(), comparator, ThresholdMatcher(0.95), JobConfig())
        stats = job.run(external, local).stats
        assert stats.batch_pair_misses == 20
        assert stats.batch_pair_hits == 80
        assert stats.batch_reuse_rate == 0.8
        assert stats.reuse_rate == 0.8  # the memo of the path that ran

    def test_batch_bounded_counts_pairs_the_bound_skipped(
        self, comparator, stores, serial_result
    ):
        external, local = stores
        result = LinkingJob(
            FullIndex(), comparator, ThresholdMatcher(0.95), JobConfig(executor="serial")
        ).run(external, local)
        stats = result.stats
        assert result.matches == serial_result.matches
        # 25 distinct profile pairs: the 4 equal ones and the 2 pairs of
        # crcw0805 variants can reach 0.95, the other 19 cannot
        assert stats.batch_pair_misses == 25
        assert stats.batch_bounded == 19
        # bounded pairs are misses and compared pairs: reuse keeps its meaning
        assert stats.batch_pair_hits + stats.batch_pair_misses == stats.pairs_compared
        assert "bounded 19 of 25" in stats.format()

    @pytest.mark.parametrize("executor", ("process", "shard", "worker"))
    def test_batch_bounded_sums_across_workers(self, comparator, stores, executor):
        external, local = stores
        stats = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor=executor, workers=2, chunk_size=4),
        ).run(external, local).stats
        assert stats.executor == executor
        # every pair is a distinct profile pair, so per-worker memos
        # bound exactly the pairs the serial scorer does
        assert stats.batch_bounded == 19

    def test_batch_bounded_is_zero_where_the_bound_does_not_apply(
        self, comparator, stores
    ):
        from repro.linking import FellegiSunterMatcher

        external, local = stores
        same = [(record("m1", "abc-999"), record("m2", "abc-999"))]
        different = [(record("n1", "abc-999"), record("n2", "t83-220", maker="zz"))]
        fellegi_sunter = FellegiSunterMatcher(comparator).train(same, different)

        class Uncompiled:
            def decide(self, vector):
                return ThresholdMatcher(0.95).decide(vector)

        for decider, scoring in (
            (fellegi_sunter, "batched"),
            (Uncompiled(), "batched"),
            (ThresholdMatcher(0.95), "pairwise"),
        ):
            stats = LinkingJob(
                FullIndex(), comparator, decider, JobConfig(scoring=scoring)
            ).run(external, local).stats
            assert stats.scoring == scoring
            assert stats.batch_bounded == 0

    def test_empty_candidate_set(self, comparator):
        external = RecordStore([record("e1", "abc")])
        local = RecordStore([record("l1", "xyz")])
        job = LinkingJob(
            StandardBlocking.on_field_prefix("pn", length=3),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="serial"),
        )
        result = job.run(external, local)
        assert result.matches == []
        assert result.stats.chunk_count == 0
        assert result.stats.pairs_per_second == 0.0

    def test_missing_records_are_skipped(self, comparator):
        class GhostBlocking(FullIndex):
            def candidate_pairs(self, external, local):
                yield from super().candidate_pairs(external, local)
                yield EX.ghost, EX.l0  # unknown external id

        external = RecordStore([record("e0", "abc")])
        local = RecordStore([record("l0", "abc")])
        result = LinkingJob(
            GhostBlocking(), comparator, ThresholdMatcher(0.95), JobConfig()
        ).run(external, local)
        assert result.compared == 1
        assert result.candidate_pairs == [(EX.e0, EX.l0)]

    def test_format_mentions_throughput_and_cache(self, comparator, stores):
        external, local = stores
        result = LinkingJob(
            FullIndex(), comparator, ThresholdMatcher(0.95), JobConfig(scoring="pairwise")
        ).run(external, local)
        text = result.stats.format()
        assert "pairs/s" in text
        assert "hit rate" in text

    def test_format_mentions_throughput_and_memo_reuse(self, comparator, stores):
        external, local = stores
        result = LinkingJob(
            FullIndex(), comparator, ThresholdMatcher(0.95), JobConfig()
        ).run(external, local)
        text = result.stats.format()
        assert "pairs/s" in text
        assert "scoring=batched" in text
        assert "reuse" in text
        assert "hit rate" not in text


class TestProgress:
    def test_progress_callback_sees_every_chunk(self, comparator, stores):
        external, local = stores
        seen = []
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="serial", chunk_size=5, on_progress=seen.append),
        )
        result = job.run(external, local)
        assert len(seen) == result.stats.chunk_count == 5
        assert [p.chunks_done for p in seen] == [1, 2, 3, 4, 5]
        assert seen[-1].pairs_compared == result.compared
        assert seen[-1].matches == len(result.matches)
        assert "pairs/s" in seen[-1].format()


class TestFallback:
    def test_process_failure_falls_back_to_serial(
        self, comparator, stores, serial_result, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise OSError("no subprocesses in this sandbox")

        monkeypatch.setattr(chunked_module, "ProcessPoolExecutor", explode)
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="process", workers=2),
        )
        result = job.run(external=stores[0], local=stores[1])
        assert result.stats.executor == "serial"
        assert "no subprocesses" in result.stats.fallback_reason
        assert result.matches == serial_result.matches

    def test_single_worker_runs_serially(self, comparator, stores):
        external, local = stores
        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="process", workers=1),
        )
        stats = job.run(external, local).stats
        assert stats.executor == "serial"
        assert stats.fallback_reason is None

    def test_bringup_pickling_error_falls_back_with_reason(
        self, comparator, stores, serial_result, monkeypatch
    ):
        """A transport failure before any chunk completed is a pool
        problem, not a user bug: rerun serially, record why."""
        import pickle

        def explode(*args, **kwargs):
            raise pickle.PicklingError("decider cannot cross the boundary")

        monkeypatch.setattr(chunked_module, "ProcessPoolExecutor", explode)
        result = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="process", workers=2),
        ).run(external=stores[0], local=stores[1])
        assert result.stats.executor == "serial"
        assert "PicklingError" in result.stats.fallback_reason
        assert "cannot cross the boundary" in result.stats.fallback_reason
        assert result.matches == serial_result.matches

    def test_oserror_after_first_chunk_propagates(self, comparator, stores):
        """An OSError once chunks are completing is more likely a bug in
        comparator/progress code than pool bringup: it must propagate,
        not silently redo finished work serially."""
        calls = []

        def progress_with_io_bug(progress):
            calls.append(progress)
            raise OSError("disk full while logging progress")

        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(
                executor="process",
                workers=2,
                chunk_size=2,
                on_progress=progress_with_io_bug,
            ),
        )
        with pytest.raises(OSError, match="disk full"):
            job.run(external=stores[0], local=stores[1])
        # the job died on the first folded chunk instead of rerunning
        assert len(calls) == 1

    def test_oserror_after_first_chunk_propagates_on_shard_executor(
        self, comparator, stores
    ):
        calls = []

        def progress_with_io_bug(progress):
            calls.append(progress)
            raise OSError("disk full while logging progress")

        job = LinkingJob(
            FullIndex(),
            comparator,
            ThresholdMatcher(0.95),
            JobConfig(executor="shard", workers=2, on_progress=progress_with_io_bug),
        )
        with pytest.raises(OSError, match="disk full"):
            job.run(external=stores[0], local=stores[1])
        assert len(calls) == 1


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            JobConfig(chunk_size=0)
        with pytest.raises(ValueError):
            JobConfig(executor="gpu")
        with pytest.raises(
            ValueError, match=r"one of serial, process, shard, worker, auto,"
        ):
            JobConfig(executor="thread")
        with pytest.raises(ValueError):
            JobConfig(workers=0)
        with pytest.raises(ValueError):
            JobConfig(cache_size=-1)

    def test_auto_resolution(self):
        assert JobConfig(executor="auto", workers=1).resolved_executor() == "serial"
        assert JobConfig(executor="auto", workers=4).resolved_executor() == "process"
        assert JobConfig(executor="process", workers=1).resolved_executor() == "serial"
        assert JobConfig(executor="serial").resolved_workers() >= 1


class TestExecutorTable:
    """The strategy set is a closed table: four names plus ``auto``."""

    def test_accepted_names_are_the_four_strategies_then_auto(self):
        assert EXECUTORS == ("serial", "process", "shard", "worker", "auto")

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("serial", SerialExecutor),
            ("process", ProcessExecutor),
            ("shard", ShardExecutor),
            ("worker", WorkerExecutor),
        ],
    )
    def test_lookup_returns_the_named_strategy(self, name, cls):
        executor = get_executor(name)
        assert isinstance(executor, cls)
        assert executor.name == name
        assert JobConfig(executor=name).executor == name

    @pytest.mark.parametrize("name", ("thread", "auto"))
    def test_lookup_refuses_names_outside_the_table(self, name):
        # ``thread`` is gone; ``auto`` must be resolved before lookup
        with pytest.raises(KeyError, match="expected one of"):
            get_executor(name)
