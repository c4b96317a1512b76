"""Warm LinkSession semantics: identity, invariants, streams.

The serve contract: a session answer is byte-identical to a cold
one-shot run on the same inputs, the shared comparator is provably
thread-safe, and delta streams fold to the batch result.
"""

import threading

import pytest

from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
from repro.datagen.config import CatalogConfig
from repro.engine import JobConfig, LinkingJob
from repro.experiments.throughput import provider_batch
from repro.index.artifacts import load_bundle, record_store_from_payload, record_store_to_payload
from repro.linking import (
    FieldComparator,
    RecordComparator,
    RecordStore,
    ThresholdMatcher,
)
from repro.rdf import serialize_ntriples
from repro.serve import (
    BLOCKING_NAMES,
    STREAMABLE_BLOCKING,
    LinkSession,
    ServeError,
    build_bundle,
    link_response,
    make_blocking,
)

SEED = 7


@pytest.fixture(scope="module")
def materials(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-session")
    build_bundle(root / "bundle", preset="tiny", seed=SEED, blocking="prefix")
    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny(seed=SEED)).generate()
    test_graph, _ = provider_batch(catalog, 40, seed=SEED)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    return root / "bundle", catalog, external


@pytest.fixture()
def session(materials):
    bundle_path, _, _ = materials
    return LinkSession(load_bundle(bundle_path))


class TestMakeBlocking:
    def test_unknown_name_rejected(self):
        with pytest.raises(ServeError, match="unknown blocking"):
            make_blocking("soundex")

    def test_rules_needs_materials(self):
        with pytest.raises(ServeError, match="learned rules"):
            make_blocking("rules")

    def test_all_names_constructible(self, materials):
        _, catalog, _ = materials
        for name in BLOCKING_NAMES:
            if name.startswith("rules"):
                continue  # covered via a rules bundle below
            assert make_blocking(name) is not None


class TestWarmIdentity:
    def test_link_matches_cold_one_shot(self, session, materials):
        _, catalog, external = materials
        warm = session.link(
            record_store_from_payload(record_store_to_payload(external))
        )

        local = RecordStore.from_graph(catalog.local_graph, {"pn": PART_NUMBER})
        cold = LinkingJob(
            make_blocking("prefix"),
            RecordComparator([FieldComparator("pn")]),
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial"),
        ).run(external, local)

        assert warm.match_pairs == cold.match_pairs
        assert warm.compared == cold.compared
        assert serialize_ntriples(warm.sameas_graph()) == serialize_ntriples(
            cold.sameas_graph()
        )
        assert len(warm.matches) > 0

    def test_repeat_requests_identical_and_counted(self, session, materials):
        _, _, external = materials
        first = link_response(session.link(external))
        second = link_response(session.link(external))
        assert first == second
        assert session.stats()["requests"] == 2
        # the second pass answers similarities from the shared cache
        assert session.comparator.cache_hits > 0

    def test_rules_bundle_round_trips_through_graph_of(
        self, materials, tmp_path
    ):
        bundle_path, catalog, external = materials
        build_bundle(
            tmp_path / "rules-bundle", preset="tiny", seed=SEED, blocking="rules"
        )
        rules_session = LinkSession(load_bundle(tmp_path / "rules-bundle"))
        # no external graph supplied: the session must reconstruct one
        warm = rules_session.link(external)
        assert len(warm.matches) > 0
        assert rules_session.stats()["rules"] > 0


class TestThreadSafetyInvariant:
    def test_session_comparator_is_thread_safe(self, session):
        assert session.comparator.thread_safe
        assert session.stats()["cache"]["thread_safe"] is True


class TestDeltaStreams:
    def test_deltas_fold_to_batch_result(self, session, materials):
        _, _, external = materials
        records = list(external)
        middle = len(records) // 2
        job, first = session.delta("s1", records[:middle])
        _, second = session.delta("s1", records[middle:])
        assert first.index == 0
        assert second.index == 1
        assert first.records == middle

        streamed = session.stream_result("s1")
        batch = session.link(external)
        assert streamed.match_pairs == batch.match_pairs
        assert serialize_ntriples(streamed.sameas_graph()) == serialize_ntriples(
            batch.sameas_graph()
        )

    def test_one_stream_folds_one_delta_at_a_time(
        self, session, materials, monkeypatch
    ):
        """Two threads feeding one stream never ingest at once, and each
        answer is the cumulative result as of its own delta."""
        from repro.engine import StreamingLinkingJob

        ingest = StreamingLinkingJob.ingest
        guard = threading.Lock()
        inside = [0]
        most_inside = [0]
        overlapped = threading.Event()

        def counted_ingest(job, records):
            with guard:
                inside[0] += 1
                most_inside[0] = max(most_inside[0], inside[0])
                if inside[0] > 1:
                    overlapped.set()
            # hold the first delta open: without a stream lock the other
            # thread gets in meanwhile; with one, this wait just times out
            overlapped.wait(timeout=0.5)
            try:
                return ingest(job, records)
            finally:
                with guard:
                    inside[0] -= 1

        monkeypatch.setattr(StreamingLinkingJob, "ingest", counted_ingest)
        _, _, external = materials
        records = list(external)
        middle = len(records) // 2
        halves = (records[:middle], records[middle:])
        answers = {}

        def feed(half):
            answers[half] = session.delta("s1", halves[half])

        threads = [threading.Thread(target=feed, args=(half,)) for half in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert most_inside[0] == 1
        (first, first_delta), (second, second_delta) = sorted(
            answers.values(), key=lambda answer: answer[1].index
        )
        assert (first_delta.index, second_delta.index) == (0, 1)
        assert first_delta.compared > 0 and second_delta.compared > 0
        assert first.compared == first_delta.compared
        assert second.compared == first_delta.compared + second_delta.compared

    def test_unknown_stream_has_no_result(self, session):
        assert session.stream_result("nope") is None

    def test_non_streamable_blocking_rejected(self, materials, tmp_path):
        _, _, external = materials
        build_bundle(
            tmp_path / "canopy-bundle", preset="tiny", seed=SEED, blocking="canopy"
        )
        canopy_session = LinkSession(load_bundle(tmp_path / "canopy-bundle"))
        assert "canopy" not in STREAMABLE_BLOCKING
        with pytest.raises(ServeError, match="cannot stream deltas"):
            canopy_session.delta("s1", list(external))


class TestStats:
    def test_snapshot_shape(self, session, materials):
        _, _, external = materials
        session.link(external)
        stats = session.stats()
        assert stats["records"] == len(session.local_store)
        assert stats["blocking"] == "prefix"
        assert stats["match_threshold"] == 0.9
        assert "prefix:pn:4" in stats["indexes"]
        assert stats["requests"] == 1
        assert stats["cache"]["capacity"] > 0
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0


class TestOneAnswerPath:
    """Every request runs ``JobConfig(executor="serial")``: there is no
    size-routed second path, no per-request job config and no
    work-unit entry point."""

    def test_large_link_batches_run_serially(self, session, materials):
        _, _, external = materials
        assert len(external) == 40
        result = session.link(external)
        assert result.stats.executor == "serial"
        assert link_response(result)["executor"] == "serial"

    def test_delta_streams_run_serially(self, session, materials):
        _, _, external = materials
        session.delta("serial", list(external))
        assert session.stream_result("serial").stats.executor == "serial"

    @pytest.mark.parametrize("knob", ["multiplex_threshold", "multiplex_workers"])
    def test_multiplex_knobs_are_gone(self, materials, knob):
        bundle_path, _, _ = materials
        with pytest.raises(TypeError, match=knob):
            LinkSession(load_bundle(bundle_path), **{knob: 2})

    def test_link_takes_no_job_config(self, session, materials):
        _, _, external = materials
        with pytest.raises(TypeError, match="job_config"):
            session.link(external, job_config=JobConfig(executor="serial"))

    def test_delta_takes_no_job_config(self, session, materials):
        _, _, external = materials
        with pytest.raises(TypeError, match="job_config"):
            session.delta(
                "s1", list(external), job_config=JobConfig(executor="serial")
            )
        assert session.stats()["streams"] == []

    def test_stats_carry_no_multiplex_or_work_counters(self, session, materials):
        _, _, external = materials
        session.link(external)
        assert set(session.stats()) == {
            "records", "blocking", "match_threshold", "indexes", "rules",
            "requests", "streams", "cache",
        }
        for gone in ("run_work_unit", "multiplexed_count", "multiplex_threshold"):
            assert not hasattr(session, gone)


class TestServeStaysPairwise:
    """The daemon answers from the bundle's warm similarity cache, which
    only pairwise scoring fills and reads: the bundle builder, ``link``
    and ``delta`` pin ``scoring="pairwise"`` while the engine default is
    ``batched``."""

    def test_engine_default_is_batched(self):
        assert JobConfig().scoring == "batched"

    def test_warm_bundle_exports_similarities(self, tmp_path):
        path = tmp_path / "warm"
        build_bundle(path, preset="tiny", seed=SEED, blocking="prefix", warm_items=15)
        cache = load_bundle(path).comparator_cache
        assert cache is not None
        assert len(cache["similarities"]) > 0
        assert len(cache["normalized"]) > 0

    def test_link_and_delta_score_pairwise(self, session, materials):
        _, _, external = materials
        assert session.link(external).stats.scoring == "pairwise"
        result, _ = session.delta("pinned", list(external))
        assert result.stats.scoring == "pairwise"

    def test_repeated_link_raises_the_cache_hits(self, session, materials):
        _, _, external = materials
        session.link(external)
        hits = session.stats()["cache"]["hits"]
        session.link(external)
        assert session.stats()["cache"]["hits"] > hits


class TestServeRunsNoBound:
    """The batched scorer's exact early exit never runs under serve:
    a pairwise-pinned session has no scorer to bound with."""

    def test_link_reports_no_bounded_pairs(self, session, materials):
        _, _, external = materials
        stats = session.link(external).stats
        assert stats.scoring == "pairwise"
        assert stats.batch_bounded == 0


class TestWarmLearning:
    def test_rules_bundle_resumes_incremental_learning(self, tmp_path, materials):
        from repro.core.serialize import rules_to_json

        build_bundle(
            tmp_path / "rules-bundle", preset="tiny", seed=SEED, blocking="rules"
        )
        bundle = load_bundle(tmp_path / "rules-bundle")
        warm = LinkSession(bundle)
        learner = warm.incremental_learner()
        # resumed emission reproduces the bundled rule set exactly...
        assert rules_to_json(learner.rules()) == rules_to_json(bundle.rules)
        # ...and the dedupe set survived: replaying the original
        # training set ingests nothing new
        _, catalog, _ = materials
        assert learner.add_training_set(catalog.to_training_set()) == 0

    def test_prefix_bundle_has_no_training_state(self, session):
        with pytest.raises(ServeError, match="no training state"):
            session.incremental_learner()
