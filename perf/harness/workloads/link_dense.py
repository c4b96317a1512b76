"""``link-dense``: rule-blocked linking, scoring-dominated.

The catalog and the learned rules are fixed; the seed draws the
provider records. Rule blocking gives an undecided record the whole
catalog and a decided one only its class, so a batch of N records
varies by 14 % in candidate pairs between seeds, and the cost of a pair
grows with the length of the provider's value. The batch is therefore
sized by work: records are taken from the seeded pool, in order, until
the planned scoring work (``stages.planned_cost``) reaches the target,
which comes to about 80 000 pairs over about 65 records.
"""

from __future__ import annotations

from typing import Dict, List

from harness import stages
from harness.core import Outcome, Tracer, Workload, link_outcome, lower_quartile, now

MIN_CONFIDENCE = 0.4
THRESHOLD = 0.9
SIZES = {
    False: {"pool": 160, "work": 2_150_000, "support": 0.002},
    True: {"pool": 40, "work": 80_000, "support": 0.01},
}


class LinkDense(Workload):
    name = "link-dense"

    def setup(self) -> None:
        from repro.core.learner import LearnerConfig, RuleLearner
        from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
        from repro.datagen.config import CatalogConfig
        from repro.experiments.throughput import provider_batch
        from repro.linking import FieldComparator, RecordComparator, RecordStore, ThresholdMatcher
        from repro.rdf.graph import Graph
        from repro.rdf.terms import Literal
        from repro.rdf.triples import Triple

        size = SIZES[self.quick]
        config = CatalogConfig.tiny() if self.quick else CatalogConfig.small()
        self.catalog = self.timed(
            "datagen.generate_s", lambda: ElectronicCatalogGenerator(config).generate()
        )
        self.layer["rdf.graph_triples"] = len(self.catalog.local_graph)
        self.rules = RuleLearner(
            LearnerConfig(properties=(PART_NUMBER,), support_threshold=size["support"])
        ).learn(self.catalog.to_training_set())
        fields = stages.field_map("pn")
        self.local = self.timed(
            "linking.store_build_s",
            lambda: RecordStore.from_graph(self.catalog.local_graph, fields),
        )
        pool_graph, pool_truth = self.timed(
            "datagen.provider_batch_s",
            lambda: provider_batch(self.catalog, size["pool"], seed=self.seed),
        )
        pool = RecordStore.from_graph(pool_graph, fields)
        planned = stages.planned_cost(self._blocking(pool_graph), pool, self.local)
        chosen, total = [], 0
        for record in pool:
            if total + planned[record.id] <= size["work"]:
                chosen.append(record)
                total += planned[record.id]
        self.external = RecordStore(chosen)
        self.graph = Graph(identifier="external-test")
        for record in chosen:
            for value in record.values("pn"):
                self.graph.add(Triple(record.id, PART_NUMBER, Literal(value)))
        self.truth = [pair for pair in pool_truth if pair[0] in self.external]
        self.comparator = RecordComparator([FieldComparator("pn")])
        self.matcher = ThresholdMatcher(THRESHOLD)

    def _blocking(self, graph):
        from repro.core.classifier import RuleClassifier
        from repro.linking import RuleBasedBlocking

        return RuleBasedBlocking(
            RuleClassifier(self.rules.with_min_confidence(MIN_CONFIDENCE)),
            self.catalog.ontology,
            graph,
            fallback_full=True,
        )

    def _job(self):
        """A new job per op, on the defaults a user gets."""
        from repro.engine import JobConfig, LinkingJob

        return LinkingJob(
            self._blocking(self.graph), self.comparator, self.matcher, JobConfig()
        )

    def op(self) -> Outcome:
        started = now()
        result = self._job().run(self.external, self.local)
        return link_outcome(result, self.truth, THRESHOLD, now() - started)

    def native(self, outcomes: List[Outcome]) -> Dict[str, float]:
        wall = lower_quartile([o.wall for o in outcomes])
        return {"op_wall_s": wall, "link_wall_s": wall}

    # ------------------------------------------------------------------
    def probes(self) -> None:
        pairs = list(self._blocking(self.graph).candidate_pairs(self.external, self.local))
        stages.text_probes(self.layer, self.external, self.local, pairs)

    def replay(self, tracer: Tracer) -> Outcome:
        external, local = self.external, self.local
        started = now()
        with tracer.span("perf.op"):
            pairs = stages.candidates(
                tracer, "rules", self._blocking(self.graph), external, local
            )
            stages.score(tracer, pairs, external, local, self.comparator, self.matcher)
            stages.batch_score(tracer, pairs, external, local, self.comparator, self.matcher)
            with tracer.span("engine.run_s") as counts:
                result = self._job().run(external, local)
                stages.engine_counts(counts, [result.stats])
        return link_outcome(result, self.truth, THRESHOLD, now() - started)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = stages.engine_metrics(tracer, ["linking.candidates_s.rules"])
        for kind in ("fresh", "memoized"):
            out[f"engine.batch_score_ns_per_pair.{kind}"] = stages.per_pair_ns(
                tracer, f"engine.batch_score.{kind}"
            )
        return out
