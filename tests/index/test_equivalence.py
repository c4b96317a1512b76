"""Index-backed paths must be byte-identical to the scan-based paths.

The contract of the ``repro.index`` refactor: learned rule sets,
predictions and candidate pairs are *exactly* what the original
Counter/scan implementations produced — same values, same order. Those
implementations live on as the oracles in ``tests/oracles/``. These
tests pin the contract across all four consuming layers, on the
hand-checkable tiny catalog, the generated electronics catalog and the
toponym domain.
"""

import pytest

from repro.core import LearnerConfig, RuleClassifier, RuleLearner
from repro.core.incremental import IncrementalRuleLearner
from repro.datagen import CatalogConfig, ElectronicCatalogGenerator
from repro.datagen.catalog import PART_NUMBER
from repro.datagen.toponyms import ToponymConfig, generate_gazetteer
from repro.experiments.throughput import provider_batch
from repro.index import shared_index_cache_clear
from repro.linking import (
    QGramBlocking,
    RecordStore,
    RuleBasedBlocking,
    StandardBlocking,
)
from repro.rdf import EX
from repro.rdf.namespace import RDFS
from tests.oracles import blocking as blocking_oracle
from tests.oracles import learner as learner_oracle


@pytest.fixture(scope="module")
def catalog():
    return ElectronicCatalogGenerator(CatalogConfig.tiny()).generate()


@pytest.fixture(scope="module")
def training_set(catalog):
    return catalog.to_training_set()


@pytest.fixture(scope="module")
def config():
    return LearnerConfig(properties=(PART_NUMBER,), support_threshold=0.004)


@pytest.fixture(scope="module")
def rules(config, training_set):
    return RuleLearner(config).learn(training_set)


@pytest.fixture(scope="module")
def provider(catalog):
    graph, truth = provider_batch(catalog, 80, seed=11)
    return graph, truth


def assert_matches_scan(learner, rules, config, training_set):
    expected, statistics = learner_oracle.learn_scan(config, training_set)
    assert rules.rules == expected.rules
    assert learner.statistics == statistics


class TestLearnerEquivalence:
    def test_rules_identical_on_tiny_fixture(self, tiny_training_set):
        config = LearnerConfig(support_threshold=0.1)
        learner = RuleLearner(config)
        rules = learner.learn(tiny_training_set)
        assert_matches_scan(learner, rules, config, tiny_training_set)

    def test_rules_identical_on_generated_catalog(self, config, training_set):
        learner = RuleLearner(config)
        rules = learner.learn(training_set)
        assert_matches_scan(learner, rules, config, training_set)

    @pytest.mark.parametrize("threshold", (0.001, 0.01, 0.05))
    def test_identical_across_thresholds_with_shared_index(
        self, training_set, threshold
    ):
        config = LearnerConfig(properties=(PART_NUMBER,), support_threshold=threshold)
        learner = RuleLearner(config)
        index = learner.build_index(training_set)
        rules = learner.learn(training_set, index=index)
        assert_matches_scan(learner, rules, config, training_set)

    def test_default_property_selection_matches(self, training_set):
        config = LearnerConfig(support_threshold=0.004)  # properties=None
        learner = RuleLearner(config)
        rules = learner.learn(training_set)
        assert_matches_scan(learner, rules, config, training_set)


class TestIncrementalEquivalence:
    def test_batched_ingestion_equals_batch_learner(
        self, catalog, config, training_set
    ):
        batch = RuleLearner(config)
        expected = batch.learn(training_set)
        incremental = IncrementalRuleLearner(config, catalog.ontology)
        first, second = training_set.split(0.4, seed=3)
        incremental.add_training_set(first)
        incremental.add_training_set(second)
        assert incremental.rules().rules == expected.rules
        assert incremental.statistics() == batch.statistics
        assert incremental.total_links == len(training_set)

    def test_duplicate_links_ignored(self, catalog, config, training_set):
        incremental = IncrementalRuleLearner(config, catalog.ontology)
        incremental.add_training_set(training_set)
        assert incremental.add_training_set(training_set) == 0
        assert incremental.rules().rules == RuleLearner(config).learn(training_set).rules


class TestClassifierEquivalence:
    def test_predict_many_equals_per_item_predict(self, rules, provider):
        graph, truth = provider
        items = [external for external, _ in truth]
        classifier = RuleClassifier(rules)
        batch = classifier.predict_many(items, graph)
        assert list(batch.keys()) == items
        for item in items:
            assert batch[item] == classifier.predict(item, graph)

    def test_predict_all_is_index_backed_and_identical(self, rules, provider):
        graph, truth = provider
        items = [external for external, _ in truth]
        classifier = RuleClassifier(rules)
        assert classifier.predict_all(items, graph) == {
            item: classifier.predict(item, graph) for item in items
        }

    def test_probe_stats_expose_rule_index(self, rules, provider):
        graph, truth = provider
        classifier = RuleClassifier(rules)
        classifier.predict_many([truth[0][0]], graph)
        stats = classifier.probe_index_stats()
        assert stats.features > 0
        assert stats.postings == len(rules)


def stores(graph, local_graph, field="pn", prop=PART_NUMBER):
    return (
        RecordStore.from_graph(graph, {field: prop}),
        RecordStore.from_graph(local_graph, {field: prop}),
    )


class TestBlockingEquivalence:
    def test_qgram_blocking_identical(self, catalog, provider):
        external, local = stores(provider[0], catalog.local_graph)
        shared_index_cache_clear()
        pairs = list(QGramBlocking("pn").candidate_pairs(external, local))
        keys_of = blocking_oracle.qgram_keys("pn", 2, 0.8, 12)
        assert pairs == blocking_oracle.key_blocking_pairs(keys_of, external, local)
        assert pairs  # non-vacuous

    def test_standard_blocking_identical(self, catalog, provider):
        external, local = stores(provider[0], catalog.local_graph)
        shared_index_cache_clear()
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        pairs = list(blocking.candidate_pairs(external, local))
        keys_of = blocking_oracle.prefix_keys("pn", 4)
        assert pairs == blocking_oracle.key_blocking_pairs(keys_of, external, local)
        assert pairs

    def test_rule_based_blocking_identical(self, catalog, rules, provider):
        graph, _ = provider
        external, local = stores(graph, catalog.local_graph)
        classifier = RuleClassifier(rules.with_min_confidence(0.4))
        blocking = RuleBasedBlocking(classifier, catalog.ontology, graph)
        pairs = list(blocking.candidate_pairs(external, local))
        assert pairs == blocking_oracle.rule_blocking_pairs(
            classifier, catalog.ontology, graph, True, external, local
        )
        assert pairs

    def test_qgram_identical_on_toponyms(self):
        gazetteer = generate_gazetteer(ToponymConfig(n_links=120, catalog_size=300))
        external, local = stores(
            gazetteer.external_graph, gazetteer.local_graph, "label", RDFS.label
        )
        shared_index_cache_clear()
        keys_of = blocking_oracle.qgram_keys("label", 2, 0.8, 12)
        assert list(
            QGramBlocking("label").candidate_pairs(external, local)
        ) == blocking_oracle.key_blocking_pairs(keys_of, external, local)

    def test_shared_index_invalidated_on_store_mutation(self, catalog, provider):
        from repro.linking import Record

        external, local = stores(provider[0], catalog.local_graph)
        shared_index_cache_clear()
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        before = list(blocking.candidate_pairs(external, local))
        # clone an external record into the local store: new candidates
        ext_record = next(iter(external))
        local.add(Record(id=EX.fresh_local, fields=ext_record.fields))
        after = list(blocking.candidate_pairs(external, local))
        keys_of = blocking_oracle.prefix_keys("pn", 4)
        assert after == blocking_oracle.key_blocking_pairs(keys_of, external, local)
        assert len(after) > len(before)
