"""``learn-classify``: the paper's own pipeline at paper scale.

The catalog is fixed (566 classes, 25 000 items, 11 500 expert links);
the seed draws which 10 265 of the links the expert has validated, so
|TS| is the paper's and the classified pair volume moves by about a
percent between seeds, not by the 6 % a reseeded catalog gives.
"""

from __future__ import annotations

import random
from typing import Dict, List

from harness.core import Outcome, Tracer, Workload, digest, lower_quartile, now

MIN_CONFIDENCE = 0.4  # the CLI's rule-blocking default
SIZES = {
    False: {"links": 11_500, "ts": 10_265, "support": 0.002},
    True: {"links": 240, "ts": 200, "support": 0.01},
}
GROW_BATCHES = 10
EXTRA_LEARNS = 2


class LearnClassify(Workload):
    name = "learn-classify"

    def setup(self) -> None:
        from repro.core.learner import LearnerConfig
        from repro.core.training import TrainingSet
        from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
        from repro.datagen.config import CatalogConfig

        size = SIZES[self.quick]
        base = CatalogConfig.tiny() if self.quick else CatalogConfig.thales_like()
        self.catalog = self.timed(
            "datagen.generate_s",
            lambda: ElectronicCatalogGenerator(base.with_links(size["links"])).generate(),
        )
        self.layer["rdf.graph_triples"] = len(self.catalog.local_graph)
        links = random.Random(self.seed).sample(self.catalog.links, size["ts"])
        self.ts = TrainingSet(
            links, external=self.catalog.external_graph, ontology=self.catalog.ontology
        )
        self.items = [link.external for link in links]
        step = -(-len(links) // GROW_BATCHES)
        self.batches = [links[i:i + step] for i in range(0, len(links), step)]
        self.config = LearnerConfig(
            properties=(PART_NUMBER,), support_threshold=size["support"]
        )
        ontology = self.catalog.ontology
        self.true_classes = {
            link.external: set(ontology.most_specific_classes_of(link.local))
            for link in links
        }

    def teardown(self) -> None:
        self.catalog = self.ts = self.items = self.batches = self.true_classes = None

    # ------------------------------------------------------------------
    def _grow(self):
        """The incremental learner fed in ten batches, rules re-emitted
        after each: the write-beside-read use of the training index."""
        from repro.core.incremental import IncrementalRuleLearner

        learner = IncrementalRuleLearner(self.config, self.catalog.ontology)
        rules = None
        for batch in self.batches:
            learner.add_links(batch, self.catalog.external_graph)
            rules = learner.rules()
        return rules

    def _outcome(self, rules, predictions, reduction, grown, wall, **parts) -> Outcome:
        from repro.core.serialize import rules_to_json

        rules_json = rules_to_json(rules)
        decided = [item for item in self.items if predictions[item]]
        correct = sum(
            1
            for item in decided
            if self.true_classes[item]
            & {prediction.predicted_class for prediction in predictions[item]}
        )
        failure = None
        if rules_to_json(grown) != rules_json:
            failure = "incremental learner diverged from the batch learner"
        return Outcome(
            wall=wall,
            parts=parts,
            digest=digest(
                {
                    "rules": rules_json,
                    "reduction": [
                        reduction.naive_pairs,
                        reduction.reduced_pairs,
                        reduction.decided_items,
                        reduction.undecided_items,
                    ],
                }
            ),
            quality=correct / len(decided) if decided else 0.0,
            failure=failure,
        )

    def op(self) -> Outcome:
        from repro.core.classifier import RuleClassifier
        from repro.core.learner import RuleLearner
        from repro.core.subspace import LinkingSubspace

        catalog = self.catalog
        t0 = now()
        rules = RuleLearner(self.config).learn(self.ts)
        t1 = now()
        classifier = RuleClassifier(rules.with_min_confidence(MIN_CONFIDENCE))
        predictions = classifier.predict_many(self.items, catalog.external_graph)
        subspace = LinkingSubspace.from_predictions(predictions, catalog.ontology)
        reduction = subspace.reduction(len(catalog.items))
        t2 = now()
        grown = self._grow()
        t3 = now()
        # learning is a fifteenth of the op: two more samples of it per
        # op, outside the op's wall, steady ``learn_s``
        again = []
        for _ in range(EXTRA_LEARNS):
            started = now()
            RuleLearner(self.config).learn(self.ts)
            again.append(now() - started)
        outcome = self._outcome(
            rules, predictions, reduction, grown, t3 - t0, classify=t2 - t1
        )
        outcome.parts["learns"] = [t1 - t0, *again]
        return outcome

    def native(self, outcomes: List[Outcome]) -> Dict[str, float]:
        good = [o for o in outcomes if "classify" in o.parts]
        classify = lower_quartile([o.parts["classify"] for o in good])
        return {
            "op_wall_s": lower_quartile([o.wall for o in outcomes]),
            "learn_s": lower_quartile([wall for o in good for wall in o.parts["learns"]]),
            "classify_items_per_s": len(self.items) / classify if classify else 0.0,
        }

    # ------------------------------------------------------------------
    def probes(self) -> None:
        from repro.datagen.catalog import PART_NUMBER
        from repro.index.postings import PostingList
        from repro.text.segmentation import SeparatorSegmenter

        graph = self.catalog.external_graph
        values = [v for item in self.items for v in graph.literal_values(item, PART_NUMBER)]
        segmenter = SeparatorSegmenter()
        started = now()
        for value in values:
            segmenter(value)
        self.layer["text.segment_us_per_value"] = (now() - started) / len(values) * 1e6
        # two fixed lists: a short rule posting against a long class
        # posting, the galloping case conjunction counting lives on
        short, long = PostingList(range(0, 60_000, 97)), PostingList(range(0, 60_000, 3))
        rounds = 200
        started = now()
        for _ in range(rounds):
            short.intersection_count(long)
        self.layer["index.posting_intersect_ns"] = (now() - started) / rounds * 1e9

    def replay(self, tracer: Tracer) -> Outcome:
        from repro.core.classifier import RuleClassifier
        from repro.core.learner import RuleLearner
        from repro.core.subspace import LinkingSubspace

        catalog = self.catalog
        started = now()
        with tracer.span("perf.op"):
            learner = RuleLearner(self.config)
            with tracer.span("core.learn"):
                with tracer.span("index.training_build_s"):
                    index = learner.build_index(self.ts)
                with tracer.span("index.training_probe_s"):
                    rules = learner.learn(self.ts, index=index)
            classifier = RuleClassifier(rules.with_min_confidence(MIN_CONFIDENCE))
            with tracer.span("core.predict_many_s"):
                predictions = classifier.predict_many(self.items, catalog.external_graph)
            with tracer.span("core.subspace_s") as counts:
                subspace = LinkingSubspace.from_predictions(predictions, catalog.ontology)
                reduction = subspace.reduction(len(catalog.items))
                counts["decided_items"] = reduction.decided_items
                counts["rules"] = len(rules)
                counts["reduction_factor"] = reduction.reduction_factor
            with tracer.span("core.incremental_s"):
                grown = self._grow()
        return self._outcome(rules, predictions, reduction, grown, now() - started)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = {
            name: tracer.duration(name)
            for name in (
                "index.training_build_s",
                "index.training_probe_s",
                "core.predict_many_s",
                "core.subspace_s",
                "core.incremental_s",
            )
        }
        for key in ("decided_items", "rules", "reduction_factor"):
            out[f"core.{key}"] = tracer.count("core.subspace_s", key)
        return out
