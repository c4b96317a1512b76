"""When a ``Graph`` builds its POS and OSP indexes, and that the build
is safe to race.

The catalog pipeline reads its graphs subject-first or by full scan, so
generating, learning from, classifying and loading a catalog must never
build the secondary indexes. The first predicate-led query builds them
once; threads issuing it together must each get the whole answer.
"""

import sys
import threading

from repro.core.classifier import RuleClassifier
from repro.core.learner import LearnerConfig, RuleLearner
from repro.datagen.catalog import MANUFACTURER, PART_NUMBER, ElectronicCatalogGenerator
from repro.datagen.config import CatalogConfig
from repro.linking.records import RecordStore
from repro.rdf.graph import Graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple


def test_the_catalog_pipeline_keeps_its_graphs_spo_only():
    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny()).generate()
    training_set = catalog.to_training_set()
    config = LearnerConfig(properties=(PART_NUMBER,), support_threshold=0.004)
    rules = RuleLearner(config).learn(training_set)
    assert len(rules) > 0
    classifier = RuleClassifier(rules)
    external_items = [link.external for link in catalog.links]
    predictions = classifier.predict_many(external_items, catalog.external_graph)
    assert any(predictions.values())
    fields = {"part_number": PART_NUMBER, "manufacturer": MANUFACTURER}
    local = RecordStore.from_graph(catalog.local_graph, fields)
    external = RecordStore.from_graph(catalog.external_graph, fields)
    assert len(local) == len(catalog.items)
    assert len(external) == len(catalog.links)

    for graph in (catalog.local_graph, catalog.external_graph):
        assert graph._secondary is None, graph


def test_racing_first_predicate_led_queries_all_get_the_whole_answer():
    # more threads than cores, and a short switch interval so that a
    # reader gets scheduled in the middle of another thread's build
    predicates = [EX[f"p{i}"] for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graph = Graph()
            for i in range(6000):
                graph.add(
                    Triple(EX[f"s{i}"], predicates[i % 4], Literal(f"v{i % 97}"))
                )
            expected = {
                p: {t for t in graph.triples() if t.predicate == p}
                for p in predicates
            }
            assert graph._secondary is None
            barrier = threading.Barrier(len(predicates))
            answers = {}

            def first_query(p):
                barrier.wait(timeout=30.0)
                answers[p] = set(graph.triples(None, p, None))

            threads = [
                threading.Thread(target=first_query, args=(p,)) for p in predicates
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert answers == expected
    finally:
        sys.setswitchinterval(interval)
