"""Artifact-bundle serialization: round-trip fidelity and rejection.

The warm-start contract is that a bundle save→load changes *nothing*:
a linking job over the reloaded store, indexes, rules and ontology must
produce byte-identical output — across every blocking class and both
scoring paths. The rejection half: stale schema versions, foreign
fingerprints and corrupted components must fail loudly before partial
state can leak into a session.
"""

import hashlib
import json

import pytest

from repro.core.classifier import RuleClassifier
from repro.core.learner import LearnerConfig, RuleLearner
from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
from repro.datagen.config import CatalogConfig
from repro.engine import JobConfig, LinkingJob
from repro.experiments.throughput import provider_batch
from repro.index import RecordKeyIndex, shared_index_cache_clear, shared_index_snapshot
from repro.index.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    INDEXES_NAME,
    MANIFEST_NAME,
    STORE_NAME,
    ArtifactError,
    environment_fingerprint,
    inspect_bundle,
    load_bundle,
    record_key_index_from_payload,
    record_key_index_to_payload,
    record_store_from_payload,
    record_store_to_payload,
    term_from_payload,
    term_to_payload,
    write_bundle,
)
from repro.linking import (
    CanopyBlocking,
    FieldComparator,
    FullIndex,
    QGramBlocking,
    Record,
    RecordComparator,
    RecordStore,
    RuleBasedBlocking,
    SortedNeighbourhood,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.rdf import EX, serialize_ntriples
from repro.rdf.terms import XSD_INTEGER, BNode, IRI, Literal
from tests.oracles import blocking as blocking_oracle


@pytest.fixture(scope="module")
def materials():
    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny(seed=11)).generate()
    test_graph, _ = provider_batch(catalog, 50, seed=11)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    local = RecordStore.from_graph(catalog.local_graph, {"pn": PART_NUMBER})
    rules = RuleLearner(
        LearnerConfig(properties=(PART_NUMBER,), support_threshold=0.002)
    ).learn(catalog.to_training_set())
    return catalog, test_graph, external, local, rules


def blocking_factory(name, rules, ontology, external_graph):
    if name == "full":
        return FullIndex()
    if name == "prefix":
        return StandardBlocking.on_field_prefix("pn", length=4)
    if name == "sorted":
        return SortedNeighbourhood.on_field("pn", window_size=7)
    if name == "qgram":
        return QGramBlocking("pn", q=2, threshold=0.8)
    if name == "canopy":
        return CanopyBlocking("pn", loose=0.5, tight=0.9)
    return RuleBasedBlocking(
        RuleClassifier(rules.with_min_confidence(0.4)),
        ontology,
        external_graph,
        fallback_full=True,
    )


def run_link(blocking, external, local, scoring):
    job = LinkingJob(
        blocking,
        RecordComparator([FieldComparator("pn")]),
        ThresholdMatcher(match_threshold=0.9),
        JobConfig(executor="serial", scoring=scoring),
    )
    result = job.run(external, local)
    return (
        len(result.matches),
        len(result.possible),
        result.compared,
        result.naive_pairs,
        serialize_ntriples(result.sameas_graph()),
    )


class TestTermPayloads:
    @pytest.mark.parametrize(
        "term",
        [
            IRI("http://example.org/p1"),
            BNode("b42"),
            Literal("crcw0805"),
            Literal("42", datatype=XSD_INTEGER),
            Literal("bonjour", language="fr"),
        ],
    )
    def test_round_trip(self, term):
        assert term_from_payload(term_to_payload(term)) == term

    def test_unknown_type_rejected(self):
        with pytest.raises(ArtifactError, match="unknown term type"):
            term_from_payload({"type": "alien"})

    def test_malformed_payload_rejected(self):
        with pytest.raises(ArtifactError, match="malformed term payload"):
            term_from_payload({"type": "literal"})


class TestStorePayloads:
    def test_round_trip_preserves_order_and_values(self, materials):
        _, _, _, local, _ = materials
        clone = record_store_from_payload(
            json.loads(json.dumps(record_store_to_payload(local)))
        )
        assert len(clone) == len(local)
        for original, reloaded in zip(local, clone):
            assert original.id == reloaded.id
            assert original.fields == reloaded.fields


@pytest.mark.parametrize(
    "blocking_name", ["full", "prefix", "sorted", "qgram", "canopy", "rules"]
)
@pytest.mark.parametrize("scoring", ["pairwise", "batched"])
def test_bundle_round_trip_is_byte_identical(
    tmp_path, materials, blocking_name, scoring
):
    catalog, test_graph, external, local, rules = materials
    shared_index_cache_clear()

    original = run_link(
        blocking_factory(blocking_name, rules, catalog.ontology, test_graph),
        external,
        local,
        scoring,
    )

    write_bundle(
        tmp_path / "bundle",
        store=local,
        indexes=shared_index_snapshot(local),
        rules=rules,
        ontology=catalog.ontology,
        config={"blocking": blocking_name},
    )
    bundle = load_bundle(tmp_path / "bundle")
    bundle.seed_shared_indexes()

    # the external side rides the same payload format over the wire
    reloaded_external = record_store_from_payload(record_store_to_payload(external))
    reloaded = run_link(
        blocking_factory(blocking_name, bundle.rules, bundle.ontology, test_graph),
        reloaded_external,
        bundle.store,
        scoring,
    )
    assert reloaded == original


def count_key_index_builds(monkeypatch):
    """Count every :meth:`RecordKeyIndex.build` from here on."""
    builds = []
    build = RecordKeyIndex.build.__func__

    def counted(cls, store, keys_for):
        builds.append(store)
        return build(cls, store, keys_for)

    monkeypatch.setattr(RecordKeyIndex, "build", classmethod(counted))
    return builds


@pytest.mark.parametrize(
    "blocking_name, signature",
    [("prefix", "prefix:pn:4"), ("qgram", "qgram-grams:pn:2:0.8:12")],
)
def test_seeded_indexes_are_not_rebuilt(
    tmp_path, materials, monkeypatch, blocking_name, signature
):
    _, _, external, local, rules = materials
    shared_index_cache_clear()
    # warm the shared cache, snapshot it into a bundle
    original = run_link(
        blocking_factory(blocking_name, None, None, None), external, local, "pairwise"
    )
    snapshot = shared_index_snapshot(local)
    assert signature in snapshot
    write_bundle(tmp_path / "bundle", store=local, indexes=snapshot)

    bundle = load_bundle(tmp_path / "bundle")
    shared_index_cache_clear()
    bundle.seed_shared_indexes()
    seeded = shared_index_snapshot(bundle.store)[signature]
    from repro.index import shared_record_index

    reused = shared_record_index(
        bundle.store, signature, lambda record: ()
    )  # the key function must never run: the seeded index answers
    assert reused is seeded
    assert reused.key_sizes() == snapshot[signature].key_sizes()
    # and a whole job over the seeded store builds no key index
    builds = count_key_index_builds(monkeypatch)
    reloaded = run_link(
        blocking_factory(blocking_name, None, None, None),
        external,
        bundle.store,
        "pairwise",
    )
    assert reloaded == original
    assert builds == []


def test_sub_list_qgram_bundle_builds_the_gram_index_once(
    tmp_path, materials, monkeypatch
):
    """A bundle written before q-gram blocking indexed single grams
    carries a ``qgram:`` sub-list index. It still loads and links
    byte-identically: the gram index has its own signature, so the
    sub-list postings are never read as gram postings, and it is built
    once, on the first job."""
    _, _, external, local, _ = materials
    shared_index_cache_clear()
    original = run_link(
        blocking_factory("qgram", None, None, None), external, local, "pairwise"
    )
    sub_lists = RecordKeyIndex.build(
        local, blocking_oracle.qgram_keys("pn", 2, 0.8, 12)
    )
    write_bundle(
        tmp_path / "bundle", store=local, indexes={"qgram:pn:2:0.8:12": sub_lists}
    )

    bundle = load_bundle(tmp_path / "bundle")
    shared_index_cache_clear()
    bundle.seed_shared_indexes()
    assert set(shared_index_snapshot(bundle.store)) == {"qgram:pn:2:0.8:12"}
    builds = count_key_index_builds(monkeypatch)
    for _ in range(2):
        reloaded = run_link(
            blocking_factory("qgram", None, None, None),
            external,
            bundle.store,
            "pairwise",
        )
        assert reloaded == original
    assert builds == [bundle.store]
    assert set(shared_index_snapshot(bundle.store)) == {
        "qgram:pn:2:0.8:12",
        "qgram-grams:pn:2:0.8:12",
    }


class TestKeyIndexPayload:
    """A bundle is input from disk: every posting of a key index must be
    the non-empty, strictly increasing, in-range int list the build
    path produces, or the load fails with :class:`ArtifactError`."""

    @pytest.fixture
    def payload(self):
        local = RecordStore(
            Record(id=EX[f"l{i}"], fields={"pn": (value,)})
            for i, value in enumerate(("ab", "cd", "ab"))
        )
        # each record yields its key twice: postings keep it once
        index = RecordKeyIndex.build(local, lambda r: [r.value("pn")] * 2)
        return json.loads(json.dumps(record_key_index_to_payload(index)))

    def test_round_trip(self, payload):
        assert payload["index"] == {"features": ["ab", "cd"], "postings": [[0, 2], [1]]}
        index = record_key_index_from_payload(payload)
        assert list(index.candidates("ab")) == [EX.l0, EX.l2]
        assert record_key_index_to_payload(index) == payload

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0", 2], "non-integer row"),
            ([0.0, 2], "non-integer row"),
            ([True], "non-integer row"),
            ([-1, 2], "row out of range"),
            ([0, 3], "row out of range"),
            ([2, 0], "not strictly increasing"),
            ([0, 0], "not strictly increasing"),
            ([], "empty posting"),
        ],
    )
    def test_bad_posting_rejected(self, payload, rows, message):
        payload["index"]["postings"][0] = rows
        with pytest.raises(ArtifactError, match=message):
            record_key_index_from_payload(payload)

    def test_mismatched_lengths_rejected(self, payload):
        payload["index"]["postings"].pop()
        with pytest.raises(ArtifactError, match="2 features vs 1 postings"):
            record_key_index_from_payload(payload)

    def test_repeated_key_rejected(self, payload):
        payload["index"]["features"][1] = "ab"
        with pytest.raises(ArtifactError, match="repeated key"):
            record_key_index_from_payload(payload)

    def test_out_of_range_ordinal_fails_the_load(self, tmp_path, materials):
        """Rejected when the bundle opens, not with an IndexError at
        the first probe."""
        _, _, external, local, _ = materials
        shared_index_cache_clear()
        run_link(blocking_factory("prefix", None, None, None), external, local, "pairwise")
        path = write_bundle(
            tmp_path / "b", store=local, indexes=shared_index_snapshot(local)
        )
        indexes = json.loads((path / INDEXES_NAME).read_text())
        postings = indexes["signatures"]["prefix:pn:4"]["index"]["postings"]
        postings[0].append(len(local))
        text = json.dumps(indexes)
        (path / INDEXES_NAME).write_text(text)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["components"][INDEXES_NAME]["sha256"] = hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="row out of range"):
            load_bundle(path)


class TestRejection:
    def write_minimal(self, path, materials):
        _, _, _, local, _ = materials
        return write_bundle(path, store=local)

    def rewrite_manifest(self, path, mutate):
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        mutate(manifest)
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_missing_manifest_names_rebuild_command(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ArtifactError, match="repro artifacts build"):
            load_bundle(tmp_path / "empty")

    def test_stale_schema_version_rejected(self, tmp_path, materials):
        path = self.write_minimal(tmp_path / "b", materials)
        self.rewrite_manifest(
            path, lambda m: m.update(schema_version=ARTIFACT_SCHEMA_VERSION + 1)
        )
        with pytest.raises(ArtifactError, match="stale bundle schema version"):
            load_bundle(path)

    def test_fingerprint_mismatch_names_drifting_keys(self, tmp_path, materials):
        path = self.write_minimal(tmp_path / "b", materials)
        foreign = dict(environment_fingerprint(), python="2.7")
        self.rewrite_manifest(path, lambda m: m.update(fingerprint=foreign))
        with pytest.raises(ArtifactError, match="fingerprint mismatch.*python"):
            load_bundle(path)

    def test_wrong_format_tag_rejected(self, tmp_path, materials):
        path = self.write_minimal(tmp_path / "b", materials)
        self.rewrite_manifest(path, lambda m: m.update(format="something-else"))
        with pytest.raises(ArtifactError, match="not a repro-artifact-bundle"):
            load_bundle(path)

    def test_corrupt_component_rejected(self, tmp_path, materials):
        path = self.write_minimal(tmp_path / "b", materials)
        store_file = path / STORE_NAME
        store_file.write_text(store_file.read_text() + " ")
        with pytest.raises(ArtifactError, match="corrupt bundle"):
            load_bundle(path)

    def test_missing_component_rejected(self, tmp_path, materials):
        path = self.write_minimal(tmp_path / "b", materials)
        (path / STORE_NAME).unlink()
        with pytest.raises(ArtifactError, match="incomplete bundle"):
            load_bundle(path)

    def test_interrupted_build_leaves_no_manifest(self, tmp_path, materials, monkeypatch):
        # components land first, the manifest last: killing the build
        # before the commit point must leave a directory load rejects
        import repro.index.artifacts as artifacts

        real_writer = artifacts.atomic_write_text

        def dying_writer(path, text, **kwargs):
            if path.name == MANIFEST_NAME:
                raise OSError("killed before the commit point")
            return real_writer(path, text, **kwargs)

        monkeypatch.setattr(artifacts, "atomic_write_text", dying_writer)
        with pytest.raises(OSError, match="killed before the commit point"):
            self.write_minimal(tmp_path / "b", materials)
        monkeypatch.undo()
        with pytest.raises(ArtifactError, match="not an artifact bundle"):
            load_bundle(tmp_path / "b")


def test_inspect_reports_shapes(tmp_path, materials):
    catalog, _, external, local, rules = materials
    shared_index_cache_clear()
    run_link(blocking_factory("prefix", None, None, None), external, local, "pairwise")
    write_bundle(
        tmp_path / "b",
        store=local,
        indexes=shared_index_snapshot(local),
        rules=rules,
        ontology=catalog.ontology,
        config={"preset": "tiny"},
    )
    summary = inspect_bundle(tmp_path / "b")
    assert summary["records"] == len(local)
    assert summary["indexes"]["prefix:pn:4"]["records"] == len(local)
    assert summary["rules"] == len(rules)
    assert summary["ontology_classes"] > 0
    assert summary["config"] == {"preset": "tiny"}
    assert summary["schema_version"] == ARTIFACT_SCHEMA_VERSION
