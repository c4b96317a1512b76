"""Differential harness for batched columnar scoring.

The batched path (``JobConfig.scoring="batched"``) must be byte-identical
to the pairwise path — same matches, same possible band, same candidate
pairs in the same order — under every executor, for every decider, and
through the streaming engine. These tests pin that contract at three
levels: the :class:`BatchScorer` unit arithmetic, whole-job runs across
the executor matrix, and degradation behavior when a comparator opts out
of the columnar arithmetic.

Scenario-level identity (all ten registered scenarios plus their
streaming legs) lives in ``test_batched_scenarios.py``; randomized
differential fuzzing in ``test_batched_fuzz.py``.
"""

from functools import partial

import pytest

from repro.engine import (
    BatchScorer,
    JobConfig,
    LinkingJob,
    StreamingLinkingJob,
)
from repro.engine.executors.chunked import ChunkRunner
from repro.linking import (
    FellegiSunterMatcher,
    FieldComparator,
    QGramBlocking,
    Record,
    RecordComparator,
    RecordStore,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.linking.matchers import MatchStatus
from repro.rdf import EX
from repro.text.similarity import jaro_winkler_similarity, levenshtein_similarity


def record(name, pn, maker="acme"):
    pns = pn if isinstance(pn, tuple) else (pn,)
    fields = {"pn": pns}
    if maker is not None:
        fields["maker"] = (maker,)
    return Record(id=EX[name], fields=fields)


EXTERNAL_RECORDS = [
    record("e0", "crcw0805-10k"),
    record("e1", "t83-220", maker="tantalex"),
    record("e2", "abc-999"),
    # same content as e0 under a fresh id: shares e0's profile
    record("e3", "crcw0805-10k"),
    # multi-valued part number: the max cross-product branch
    record("e4", ("crcw0805-22k", "crcw0805-10k")),
    # missing maker: the missing_value branch
    record("e5", "abc-998", maker=None),
]

LOCAL_RECORDS = [
    record("l0", "crcw0805-10k"),
    record("l1", "t83-220", maker="tantalex"),
    record("l2", "abc-999"),
    record("l3", "crcw0805-22k"),
    record("l4", "abc-997", maker=None),
]


@pytest.fixture
def stores():
    return RecordStore(EXTERNAL_RECORDS), RecordStore(LOCAL_RECORDS)


@pytest.fixture
def comparator():
    return RecordComparator(
        [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=1.0)]
    )


def make_blocking():
    return StandardBlocking.on_field_prefix("pn", length=3)


def trained_fs(comparator):
    matches = [
        (record("m1", "crcw0805-10k"), record("m2", "crcw0805-10k")),
        (record("m3", "t83-220", maker="tantalex"), record("m4", "t83-220", maker="tantalex")),
    ]
    non_matches = [
        (record("n1", "crcw0805-10k"), record("n2", "zzz-111", maker="other")),
        (record("n3", "abc-999"), record("n4", "t83-220", maker="tantalex")),
    ]
    return FellegiSunterMatcher(comparator, agreement_threshold=0.9).train(
        matches, non_matches
    )


def pairwise_chunk(pairs, external, local, comparator, decider):
    """The pairwise chunk runner's ``(compared pairs, decision wires)``."""
    outcome = ChunkRunner(
        external, local, comparator, decider, 0, scoring="pairwise"
    ).run_chunk(pairs)
    return outcome.pairs, outcome.decisions


def assert_identical(a, b):
    """The repo's byte-identity notion: same decisions, same order."""
    assert a.matches == b.matches
    assert a.possible == b.possible
    assert a.candidate_pairs == b.candidate_pairs
    assert a.compared == b.compared


class CustomComparator(RecordComparator):
    """A subclass the columnar arithmetic must refuse to replicate."""

    def _field_similarity(self, index, comparator, left, right):
        return min(1.0, super()._field_similarity(index, comparator, left, right) + 0.05)


class RecordingDecider:
    """An uncompilable decider that inspects the actual records."""

    def __init__(self, threshold=0.9):
        self._inner = ThresholdMatcher(match_threshold=threshold)
        self.seen = []

    def decide(self, vector):
        # record identity proves the per-pair path hands real records over
        self.seen.append((vector.left.id, vector.right.id))
        return self._inner.decide(vector)


class TestBatchScorerUnit:
    def test_supports_base_comparator_and_cached_wrapper(self, comparator):
        from repro.engine import CachedRecordComparator

        assert BatchScorer.supports(comparator)
        assert BatchScorer.supports(CachedRecordComparator(comparator))
        assert not BatchScorer.supports(CustomComparator(comparator.comparators))
        assert not BatchScorer.supports(object())

    def test_rejects_unsupported_comparator(self, comparator):
        with pytest.raises(ValueError, match="customizes per-pair"):
            BatchScorer(CustomComparator(comparator.comparators), ThresholdMatcher())

    def test_decider_compilation(self, comparator, stores):
        """A compiled decider's decision is memoized with the vector; any
        other decider leaves status and score to a per-pair call."""
        external, local = stores
        pairs = [(EX["e0"], EX["l0"])]

        def memo_entry(scorer):
            (entry,) = scorer._pair_memo.values()
            return entry

        for decider in (ThresholdMatcher(), trained_fs(comparator)):
            scorer = BatchScorer(comparator, decider)
            scorer.score_chunk(pairs, external, local)
            assert memo_entry(scorer)[1] is MatchStatus.MATCH
        scorer = BatchScorer(comparator, RecordingDecider())
        scorer.score_chunk(pairs, external, local)
        assert memo_entry(scorer)[1] is None
        # an untrained matcher is decided per pair, so it raises exactly
        # as the pairwise path does
        scorer = BatchScorer(comparator, FellegiSunterMatcher(comparator))
        with pytest.raises(RuntimeError, match="train"):
            scorer.score_chunk(pairs, external, local)
        assert memo_entry(scorer)[1] is None

    @pytest.mark.parametrize(
        "make_decider",
        (
            lambda c: ThresholdMatcher(match_threshold=0.9, possible_threshold=0.6),
            lambda c: trained_fs(c),
        ),
        ids=("threshold", "fellegi-sunter"),
    )
    def test_decision_parity_over_full_cross_product(
        self, comparator, stores, make_decider
    ):
        """Every pair's wire — vector, aggregate, status, score — equals the
        pairwise path exactly, cold and from a warm memo."""
        external, local = stores
        decider = make_decider(comparator)
        pairs = [(left.id, right.id) for left in external for right in local]
        expected = pairwise_chunk(pairs, external, local, comparator, decider)
        assert expected[1]  # some pairs are emitted, so wires are compared
        scorer = BatchScorer(comparator, decider)
        assert scorer.score_chunk(pairs, external, local) == expected
        assert scorer.score_chunk(pairs, external, local) == expected  # warm

    def test_uncompiled_decider_runs_per_pair_on_real_records(
        self, comparator, stores
    ):
        external, local = stores
        decider = RecordingDecider()
        scorer = BatchScorer(comparator, decider)
        scorer.score_chunk([(EX["e0"], EX["l0"])] * 2, external, local)
        # the vector is memoized but the decider still saw both calls
        assert decider.seen == [(EX["e0"], EX["l0"]), (EX["e0"], EX["l0"])]
        assert scorer.pair_misses == 1
        assert scorer.pair_hits == 1

    def test_equal_records_share_a_profile(self, comparator, stores):
        external, _ = stores
        scorer = BatchScorer(comparator, ThresholdMatcher())
        profiles = scorer.columns_for(external)
        assert profiles[EX["e0"]] == profiles[EX["e3"]]  # same content
        assert profiles[EX["e0"]] != profiles[EX["e1"]]
        assert scorer.profile_count == len(set(profiles.values()))

    def test_pair_memo_counters(self, comparator, stores):
        external, local = stores
        scorer = BatchScorer(comparator, ThresholdMatcher())
        pairs = [(e.id, l.id) for e in external for l in local]
        scorer.score_chunk(pairs, external, local)
        assert scorer.pair_hits + scorer.pair_misses == len(pairs)
        # e0 and e3 share a profile, so their rows hit the same memo rows
        assert scorer.pair_hits >= len(local)
        assert scorer.unique_pairs == scorer.pair_misses
        hits_before = scorer.pair_hits
        scorer.score_chunk(pairs, external, local)  # fully warm second pass
        assert scorer.pair_misses == scorer.unique_pairs
        assert scorer.pair_hits == hits_before + len(pairs)

    def test_score_chunk_skips_pairs_missing_from_either_store(
        self, comparator, stores
    ):
        external, local = stores
        scorer = BatchScorer(comparator, ThresholdMatcher())
        pairs = [(EX["e0"], EX["l0"]), (EX["ghost"], EX["l0"]), (EX["e0"], EX["ghost"])]
        compared, _ = scorer.score_chunk(pairs, external, local)
        assert compared == [(EX["e0"], EX["l0"])]

    def test_columns_invalidated_by_store_version(self, comparator, stores):
        external, _ = stores
        scorer = BatchScorer(comparator, ThresholdMatcher())
        before = scorer.columns_for(external)
        assert scorer.columns_for(external) is before  # cached by version
        known = {record.id: before[record.id] for record in external}
        external.add(record("e6", "new-part"))
        after = scorer.columns_for(external)
        assert after is not before
        assert len(after) == 0  # a fresh column starts empty
        assert after[EX["e6"]] is not None
        # vocabularies are append-only: previously handed-out ids survive
        assert all(after[rid] == pid for rid, pid in known.items())

    def test_columns_intern_only_the_records_pairs_name(self, comparator, stores):
        external, local = stores
        scorer = BatchScorer(comparator, ThresholdMatcher())
        column = scorer.columns_for(external)
        assert len(column) == 0  # nothing interned before a pair names it
        scorer.score_chunk([(EX["e0"], EX["l0"])], external, local)
        assert set(column) == {EX["e0"]}
        assert set(scorer.columns_for(local)) == {EX["l0"]}
        assert column[EX["ghost"]] is None
        assert EX["ghost"] not in column  # a missing id is not cached


class TestMemoLayout:
    """One memo entry per distinct key, and compact entries."""

    def test_single_field_keeps_no_field_memo(self, comparator):
        assert BatchScorer(comparator, ThresholdMatcher())._field_memos is not None
        single = RecordComparator([FieldComparator("pn")])
        assert BatchScorer(single, ThresholdMatcher())._field_memos is None

    def test_value_memo_only_for_multi_valued_signatures(self, comparator, stores):
        external, local = stores
        scorer = BatchScorer(comparator, ThresholdMatcher())
        single = [(EX[e], EX[l]) for e in ("e0", "e1", "e2") for l in ("l0", "l1", "l2")]
        scorer.score_chunk(single, external, local)
        assert all(not memo for memo in scorer._value_memos)
        # e4 holds two part numbers: its cross-products go through the
        # value memo, one entry per (value, value) pair
        scorer.score_chunk([(EX["e4"], EX["l0"]), (EX["e4"], EX["l3"])], external, local)
        assert len(scorer._value_memos[0]) == 4

    def test_fields_sharing_a_similarity_share_its_value_memo(self, comparator):
        scorer = BatchScorer(comparator, ThresholdMatcher())
        assert scorer._value_memos[0] is scorer._value_memos[1]
        from repro.text.similarity import levenshtein_similarity

        mixed = RecordComparator(
            [FieldComparator("pn"), FieldComparator("maker", similarity=levenshtein_similarity)]
        )
        scorer = BatchScorer(mixed, ThresholdMatcher())
        assert scorer._value_memos[0] is not scorer._value_memos[1]

    def test_compiled_non_matches_keep_only_their_status(self, comparator, stores):
        external, local = stores
        matcher = ThresholdMatcher(match_threshold=0.9)
        scorer = BatchScorer(comparator, matcher)
        pairs = [(e.id, l.id) for e in external for l in local]
        _, wires = scorer.score_chunk(pairs, external, local)
        entries = list(scorer._pair_memo.values())
        kept = [entry for entry in entries if entry is not MatchStatus.NON_MATCH]
        assert len(kept) < len(entries)
        # (aggregate, status, score, one similarity per field)
        assert all(len(entry) == 3 + 2 for entry in kept)
        assert {entry[1] for entry in kept} == {MatchStatus.MATCH}
        assert len(wires) >= len(kept)
        # a warm pass answers the bare NON_MATCH entries from the memo
        # and still equals the pairwise path
        expected = pairwise_chunk(pairs, external, local, comparator, matcher)
        misses = scorer.pair_misses
        assert scorer.score_chunk(pairs, external, local) == expected
        assert scorer.pair_misses == misses

    def test_uncompiled_deciders_keep_every_vector(self, comparator, stores):
        external, local = stores
        scorer = BatchScorer(comparator, RecordingDecider())
        pairs = [(e.id, l.id) for e in external for l in local]
        scorer.score_chunk(pairs, external, local)
        assert all(
            isinstance(entry, tuple) and entry[1] is None and entry[2] is None
            for entry in scorer._pair_memo.values()
        )

    def test_a_finished_scorer_is_freed_without_the_cycle_collector(
        self, comparator, stores
    ):
        import gc
        import weakref

        external, local = stores
        decider = RecordingDecider()
        scorer = BatchScorer(comparator, decider)
        scorer.score_chunk([(EX["e0"], EX["l0"])], external, local)
        # the scorer holds the only other reference to its decider
        ref = weakref.ref(decider)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del decider, scorer
            assert ref() is None  # no column -> scorer reference cycle
        finally:
            if enabled:
                gc.enable()


class TestBatchedJobIdentity:
    @pytest.mark.parametrize("executor", ("serial", "process", "shard"))
    def test_batched_byte_identical_to_pairwise_under_every_executor(
        self, comparator, stores, executor
    ):
        external, local = stores
        matcher = ThresholdMatcher(match_threshold=0.9, possible_threshold=0.6)
        pairwise = LinkingJob(
            make_blocking(), comparator, matcher,
            JobConfig(executor="serial", scoring="pairwise"),
        ).run(external, local)
        batched = LinkingJob(
            make_blocking(),
            comparator,
            matcher,
            JobConfig(executor=executor, workers=2, chunk_size=4, scoring="batched"),
        ).run(external, local)
        assert_identical(batched, pairwise)
        stats = batched.stats
        assert stats.executor == executor
        assert stats.fallback_reason is None
        assert stats.scoring == "batched"
        assert stats.batch_profiles > 0
        assert stats.batch_pair_misses > 0
        # batched runs never consult the similarity cache: its counters
        # must stay silent instead of reporting a bogus hit rate
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0

    def test_batched_with_trained_fellegi_sunter(self, comparator, stores):
        external, local = stores
        matcher = trained_fs(comparator)
        pairwise = LinkingJob(
            make_blocking(), comparator, matcher,
            JobConfig(executor="serial", scoring="pairwise"),
        ).run(external, local)
        batched = LinkingJob(
            make_blocking(), comparator, matcher,
            JobConfig(executor="serial", scoring="batched"),
        ).run(external, local)
        assert_identical(batched, pairwise)
        assert batched.stats.scoring == "batched"

    def test_batched_with_uncompilable_decider_still_identical(
        self, comparator, stores
    ):
        external, local = stores
        pairwise = LinkingJob(
            make_blocking(), comparator, RecordingDecider(),
            JobConfig(executor="serial", scoring="pairwise"),
        ).run(external, local)
        batched = LinkingJob(
            make_blocking(), comparator, RecordingDecider(),
            JobConfig(executor="serial", scoring="batched"),
        ).run(external, local)
        assert_identical(batched, pairwise)
        assert batched.stats.scoring == "batched"

    def test_batched_with_best_match_only(self, comparator, stores):
        external, local = stores
        matcher = ThresholdMatcher(match_threshold=0.8)
        pairwise = LinkingJob(
            make_blocking(), comparator, matcher,
            JobConfig(executor="serial", best_match_only=True, scoring="pairwise"),
        ).run(external, local)
        batched = LinkingJob(
            make_blocking(), comparator, matcher,
            JobConfig(executor="serial", best_match_only=True, scoring="batched"),
        ).run(external, local)
        assert_identical(batched, pairwise)

    def test_batch_counters_survive_the_parallel_fold(self, comparator, stores):
        """Process/shard workers report per-chunk deltas; the fold must sum
        them to the same totals a serial run observes."""
        external, local = stores
        matcher = ThresholdMatcher(match_threshold=0.9)

        def run(executor):
            return LinkingJob(
                make_blocking(), comparator, matcher,
                JobConfig(executor=executor, workers=2, chunk_size=4, scoring="batched"),
            ).run(external, local)

        serial = run("serial")
        process = run("process")
        total = serial.stats.batch_pair_hits + serial.stats.batch_pair_misses
        assert total == serial.compared
        assert (
            process.stats.batch_pair_hits + process.stats.batch_pair_misses
            == process.compared
        )


class TestBatchedDegradation:
    def test_unsupported_comparator_degrades_to_pairwise(self, comparator, stores):
        external, local = stores
        custom = CustomComparator(
            [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=1.0)]
        )
        matcher = ThresholdMatcher(match_threshold=0.9)
        pairwise = LinkingJob(
            make_blocking(), custom, matcher,
            JobConfig(executor="serial", scoring="pairwise"),
        ).run(external, local)
        degraded = LinkingJob(
            make_blocking(), custom, matcher,
            JobConfig(executor="serial", scoring="batched"),
        ).run(external, local)
        # degradation preserves the custom arithmetic instead of
        # silently diverging from it
        assert_identical(degraded, pairwise)
        stats = degraded.stats
        assert stats.scoring == "pairwise"
        assert stats.fallback_reason == (
            "batched: CustomComparator customizes per-pair comparison; "
            "ran pairwise"
        )
        assert stats.batch_profiles == 0
        # the pairwise cache is live again in degraded mode
        assert stats.cache_hits + stats.cache_misses > 0

    def test_degradation_reason_lands_in_the_stats_format(self, comparator, stores):
        external, local = stores
        custom = CustomComparator([FieldComparator("pn")])
        result = LinkingJob(
            make_blocking(), custom, ThresholdMatcher(),
            JobConfig(executor="serial", scoring="batched"),
        ).run(external, local)
        formatted = result.stats.format()
        assert "fallback:" in formatted
        assert "batched: CustomComparator" in formatted

    def test_shard_and_batched_degradations_compose(self, stores):
        """A blocking double without the shard API AND a custom
        comparator that cannot batch: both reasons must surface,
        joined, in declaration order (every registered blocking class
        shards, so the blocking half needs a synthetic double)."""

        class CartesianDouble:
            def candidate_pairs(self, external, local):
                for ext in external.ids():
                    for loc in local.ids():
                        yield ext, loc

        external, local = stores
        custom = CustomComparator([FieldComparator("pn")])
        result = LinkingJob(
            CartesianDouble(),
            custom,
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="shard", workers=2, scoring="batched"),
        ).run(external, local)
        stats = result.stats
        assert stats.executor == "process"  # shard degraded
        assert stats.scoring == "pairwise"  # batched degraded
        reason = stats.fallback_reason
        assert reason is not None
        assert reason.startswith("shard: CartesianDouble")
        assert "; batched: CustomComparator" in reason
        assert reason.index("shard:") < reason.index("batched:")

    def test_qgram_shard_composes_with_batched_scoring(self, comparator, stores):
        """The once-degrading composition now runs both paths for real:
        multi-key blocking sharded AND scored columnar, byte-identical
        to the serial pairwise run."""
        external, local = stores
        matcher = ThresholdMatcher(match_threshold=0.9)
        serial = LinkingJob(
            QGramBlocking("pn", q=3, threshold=0.6), comparator, matcher,
            JobConfig(executor="serial", scoring="pairwise"),
        ).run(external, local)
        result = LinkingJob(
            QGramBlocking("pn", q=3, threshold=0.6), comparator, matcher,
            JobConfig(executor="shard", workers=2, scoring="batched"),
        ).run(external, local)
        stats = result.stats
        assert stats.executor == "shard"
        assert stats.scoring == "batched"
        assert stats.fallback_reason is None
        assert stats.shard_count == 2
        assert stats.batch_pair_hits + stats.batch_pair_misses == result.compared
        assert_identical(result, serial)


class TestStreamingBatched:
    def deltas(self):
        return [EXTERNAL_RECORDS[:3], EXTERNAL_RECORDS[3:]]

    def stream(self, comparator, config, **kwargs):
        local = RecordStore(LOCAL_RECORDS)
        job = StreamingLinkingJob(
            local,
            comparator,
            ThresholdMatcher(match_threshold=0.9, possible_threshold=0.6),
            config,
            blocking=make_blocking(),
            **kwargs,
        )
        for delta in self.deltas():
            job.ingest(delta)
        return job

    def batch_pairwise(self, comparator):
        return LinkingJob(
            make_blocking(),
            comparator,
            ThresholdMatcher(match_threshold=0.9, possible_threshold=0.6),
            JobConfig(executor="serial", scoring="pairwise"),
        ).run(RecordStore(EXTERNAL_RECORDS), RecordStore(LOCAL_RECORDS))

    @pytest.mark.parametrize("executor", ("serial", "process", "shard"))
    def test_streamed_batched_matches_pairwise_batch(self, comparator, executor):
        config = JobConfig(executor=executor, workers=2, chunk_size=4, scoring="batched")
        job = self.stream(comparator, config)
        result = job.result()
        batch = self.batch_pairwise(comparator)
        assert result.matches == batch.matches
        assert result.possible == batch.possible
        assert result.compared == batch.compared
        stats = result.stats
        assert stats.scoring == "batched"
        assert stats.batch_profiles > 0
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert stats.executor == executor
        # a serial stream owns one scorer for the whole delta sequence;
        # pool-executor deltas build per-worker scorers instead
        assert (job._batch_scorer is not None) == (executor == "serial")

    def test_stream_owned_scorer_carries_memos_across_deltas(self, comparator):
        config = JobConfig(executor="serial", chunk_size=4, scoring="batched")
        job = self.stream(comparator, config)
        # delta 2 re-sends e3 (= e0's content), so its profile and its
        # pairs against every local record were already scored in delta 1
        assert job.result().stats.batch_pair_hits > 0

    def test_unshared_cache_stream_still_batched_and_identical(self, comparator):
        config = JobConfig(executor="serial", chunk_size=4, scoring="batched")
        job = self.stream(comparator, config, shared_cache=False)
        assert job._batch_scorer is None  # per-job scorers instead
        result = job.result()
        batch = self.batch_pairwise(comparator)
        assert result.matches == batch.matches
        assert result.stats.scoring == "batched"


class TestCacheHonesty:
    """Batched runs must not report bogus similarity-cache hit rates.

    The columnar scorer never consults the pairwise cache, so a
    caller-provided :class:`CachedRecordComparator` has to sit idle —
    zero hits, zero misses — instead of accumulating counters that
    suggest the cache did the work the profile-pair memo actually did.
    """

    def run(self, comparator, stores, scoring):
        external, local = stores
        return LinkingJob(
            make_blocking(), comparator, ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial", scoring=scoring),
        ).run(external, local)

    def test_caller_provided_cache_sits_idle_under_batched(
        self, comparator, stores
    ):
        from repro.engine import CachedRecordComparator

        cached = CachedRecordComparator(comparator)
        stats = self.run(cached, stores, "batched").stats
        assert stats.scoring == "batched"
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0
        assert stats.cache_hit_rate == 0.0
        # the instance itself, not just the report, stayed untouched
        assert cached.cache_hits == 0
        assert cached.cache_misses == 0

    def test_same_cache_is_live_under_pairwise(self, comparator, stores):
        from repro.engine import CachedRecordComparator

        cached = CachedRecordComparator(comparator)
        stats = self.run(cached, stores, "pairwise").stats
        assert stats.cache_misses > 0

    def test_batched_stream_skips_the_cache_wrapper(self, comparator):
        from repro.engine import CachedRecordComparator

        def stream(scoring):
            return StreamingLinkingJob(
                RecordStore(LOCAL_RECORDS),
                comparator,
                ThresholdMatcher(match_threshold=0.9),
                JobConfig(executor="serial", scoring=scoring),
                blocking=make_blocking(),
            )

        # pairwise streams own a warm cache; batched streams own a
        # scorer instead — wrapping anyway would only report zeros
        assert isinstance(stream("pairwise")._comparator, CachedRecordComparator)
        batched = stream("batched")
        assert not isinstance(batched._comparator, CachedRecordComparator)
        assert batched._batch_scorer is not None


class TestBatchedStatsFormat:
    def run(self, scoring, comparator, stores):
        external, local = stores
        return LinkingJob(
            make_blocking(), comparator, ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial", scoring=scoring),
        ).run(external, local)

    def test_batched_run_reports_scoring_and_reuse(self, comparator, stores):
        formatted = self.run("batched", comparator, stores).stats.format()
        assert "scoring=batched" in formatted
        assert "batched scoring:" in formatted
        assert "reuse" in formatted
        # the scorer never consults the similarity cache: no 0/0 line
        assert "similarity cache" not in formatted

    def test_pairwise_run_reports_scoring_and_cache(self, comparator, stores):
        formatted = self.run("pairwise", comparator, stores).stats.format()
        assert "scoring=pairwise" in formatted
        assert "batched scoring:" not in formatted
        assert "similarity cache:" in formatted
        assert "hit rate" in formatted

    def test_job_config_rejects_unknown_scoring(self):
        with pytest.raises(ValueError, match="scoring"):
            JobConfig(scoring="columnar")


# ----------------------------------------------------------------------
# the exact early exit: where the bound applies, and that it is a bound
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_catalog_stores():
    from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
    from repro.datagen.config import CatalogConfig
    from repro.experiments.throughput import provider_batch

    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny(seed=7)).generate()
    graph, _ = provider_batch(catalog, 30, seed=7)
    fields = {"pn": PART_NUMBER}
    return (
        RecordStore.from_graph(graph, fields),
        RecordStore.from_graph(catalog.local_graph, fields),
    )


class TestExactEarlyExit:
    def run_both(self, stores, comparator, decider):
        external, local = stores
        runs = [
            LinkingJob(
                make_blocking(), comparator, decider,
                JobConfig(executor="serial", scoring=scoring),
            ).run(external, local)
            for scoring in ("batched", "pairwise")
        ]
        assert_identical(*runs)
        return runs[0]

    def test_single_field_jaro_winkler_under_a_threshold_is_bounded(
        self, tiny_catalog_stores
    ):
        stats = self.run_both(
            tiny_catalog_stores,
            RecordComparator([FieldComparator("pn")]),
            ThresholdMatcher(0.9),
        ).stats
        assert stats.scoring == "batched"
        assert 0 < stats.batch_bounded < stats.batch_pair_misses

    def test_a_partial_with_custom_prefix_parameters_is_bounded(
        self, tiny_catalog_stores
    ):
        similarity = partial(jaro_winkler_similarity, prefix_scale=0.125, max_prefix=8)
        stats = self.run_both(
            tiny_catalog_stores,
            RecordComparator([FieldComparator("pn", similarity=similarity)]),
            ThresholdMatcher(0.9, possible_threshold=0.8),
        ).stats
        assert stats.batch_bounded > 0

    def test_a_non_jaro_winkler_field_is_never_bounded(self, tiny_catalog_stores):
        stats = self.run_both(
            tiny_catalog_stores,
            RecordComparator([FieldComparator("pn", similarity=levenshtein_similarity)]),
            ThresholdMatcher(0.9),
        ).stats
        assert stats.batch_bounded == 0

    @pytest.mark.parametrize("weight", (-0.5, 0.0))
    def test_a_field_without_positive_weight_is_never_bounded(self, stores, weight):
        comparator = RecordComparator(
            [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=weight)]
        )
        stats = self.run_both(stores, comparator, ThresholdMatcher(0.9)).stats
        assert stats.batch_bounded == 0
        # the same stores with both weights positive are bounded
        positive = RecordComparator(
            [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=0.5)]
        )
        assert self.run_both(stores, positive, ThresholdMatcher(0.9)).stats.batch_bounded > 0

    def test_fellegi_sunter_is_never_bounded(self, tiny_catalog_stores):
        comparator = RecordComparator([FieldComparator("pn")])
        same = [(record("m1", "crcw0805-10k"), record("m2", "crcw0805-10k"))]
        different = [(record("n1", "crcw0805-10k"), record("n2", "zzz-111"))]
        decider = FellegiSunterMatcher(comparator).train(same, different)
        stats = self.run_both(tiny_catalog_stores, comparator, decider).stats
        assert stats.batch_bounded == 0

    @pytest.mark.parametrize(
        "similarity, left, right, maker",
        (
            pytest.param(jaro_winkler_similarity, "abcx", "abcy", None, id="winkler-boost"),
            pytest.param(
                partial(jaro_winkler_similarity, prefix_scale=0.125, max_prefix=8),
                "abcabcabx", "abcabcaby", None, id="partial-prefix-cap",
            ),
            pytest.param(jaro_winkler_similarity, "abc", "abc", None, id="exactly-1.0"),
            pytest.param(jaro_winkler_similarity, "abcx", "abcy", "acme", id="walk"),
            pytest.param(jaro_winkler_similarity, "abc", "abc", "acme", id="walk-1.0"),
        ),
    )
    def test_a_pair_exactly_on_the_floor_is_scored(self, similarity, left, right, maker):
        """The floor is the pair's own aggregate: a bound that misses the
        Winkler boost or a partial's cap, or cuts at equality, loses it."""
        fields = [FieldComparator("pn", similarity=similarity)]
        if maker is not None:
            fields.append(FieldComparator("maker", weight=0.5))
        comparator = RecordComparator(fields)
        stores = (
            RecordStore([record("e", left, maker=maker)]),
            RecordStore([record("l", right, maker=maker)]),
        )
        floor = comparator.compare(stores[0].get(EX.e), stores[1].get(EX.l)).aggregate
        result = self.run_both(stores, comparator, ThresholdMatcher(floor))
        assert [m.score for m in result.matches] == [floor]
        assert result.stats.batch_bounded == 0

    def test_the_bound_never_falls_below_the_kernel(self, tiny_catalog_stores):
        from repro.engine.batch import _character_bags, _winkler_bound
        from repro.text.normalize import normalize_value

        external, local = tiny_catalog_stores
        values = sorted(
            {normalize_value(v) for store in (external, local) for r in store
             for v in r.values("pn")}
        )[:60] + ["", "a", "aa", "ab", "ba"]
        bag_of = _character_bags()
        bags = {value: bag_of(value) for value in values}
        # a bag's popcount is its size: the value's length, 1 for ""
        assert all(bags[v].bit_count() == max(len(v), 1) for v in values)
        for prefix_scale, max_prefix in ((0.1, 4), (0.25, 4), (0.125, 8), (0.0, 0)):
            for a in values:
                for b in values:
                    exact = jaro_winkler_similarity(a, b, prefix_scale, max_prefix)
                    bound = _winkler_bound(
                        bags[a], bags[a].bit_count(), bags[b], bags[b].bit_count(),
                        prefix_scale, max_prefix,
                    )
                    assert exact <= bound <= 1.0
                    if a == b:
                        assert bound == 1.0  # a pair exactly at 1.0 stays exact

    def test_which_similarities_the_bound_reads(self):
        from repro.engine.batch import _winkler_parameters
        jw = jaro_winkler_similarity

        assert _winkler_parameters(jw) == (0.1, 4)
        assert _winkler_parameters(partial(jw, max_prefix=6, prefix_scale=0.15)) == (
            0.15, 6,
        )
        assert _winkler_parameters(partial(jw, max_prefix=2)) == (0.1, 2)
        # positional arguments, other keywords and values the kernel
        # refuses all leave the field unbounded
        assert _winkler_parameters(partial(jw, "x")) is None
        assert _winkler_parameters(partial(jw, a="x")) is None
        assert _winkler_parameters(partial(jw, max_prefix=4.5)) is None
        assert _winkler_parameters(partial(jw, prefix_scale=0.25, max_prefix=10)) is None
        assert _winkler_parameters(levenshtein_similarity) is None

    def test_floor_is_the_lowest_band(self):
        assert ThresholdMatcher(0.9).non_match_floor == 0.9
        assert ThresholdMatcher(0.9, possible_threshold=0.7).non_match_floor == 0.7
