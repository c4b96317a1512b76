"""``link-sparse``: four blocking families, a cold key index per op.

The 12 000-item catalog is fixed; the seed draws the provider records
(about 300). Candidate sets are small (about 17 000 pairs in total), so
the op is index build and candidate generation, as every ``repro link``
invocation pays them; the scoring kernel is about a seventh of it.
"""

from __future__ import annotations

from typing import Dict, List

from harness import stages
from harness.core import Outcome, Tracer, Workload, digest, link_outcome, lower_quartile, now

THRESHOLD = 0.9
KINDS = ("prefix", "sorted", "qgram", "canopy")
SIZES = {
    False: {"links": 10_265, "catalog": 12_000, "pool": 400, "work": 400_000, "canopy": 10},
    True: {"links": 200, "catalog": 400, "pool": 40, "work": 8_000, "canopy": 5},
}


def blocking(kind: str):
    """The CLI's parameters for each family."""
    from repro.linking import CanopyBlocking, QGramBlocking, SortedNeighbourhood, StandardBlocking

    if kind == "prefix":
        return StandardBlocking.on_field_prefix("pn", length=4)
    if kind == "sorted":
        return SortedNeighbourhood.on_field("pn", window_size=7)
    if kind == "qgram":
        return QGramBlocking("pn", q=2, threshold=0.8)
    return CanopyBlocking("pn", loose=0.5, tight=0.9)


def sparse_catalog(quick: bool):
    from repro.datagen.catalog import ElectronicCatalogGenerator
    from repro.datagen.config import CatalogConfig

    size = SIZES[quick]
    base = CatalogConfig.tiny() if quick else CatalogConfig.thales_like()
    config = base.with_links(size["links"], catalog_size=size["catalog"])
    return ElectronicCatalogGenerator(config).generate()


class LinkSparse(Workload):
    name = "link-sparse"

    def setup(self) -> None:
        from repro.experiments.throughput import provider_batch
        from repro.linking import FieldComparator, RecordComparator, RecordStore, ThresholdMatcher

        size = SIZES[self.quick]
        catalog = self.timed("datagen.generate_s", lambda: sparse_catalog(self.quick))
        self.layer["rdf.graph_triples"] = len(catalog.local_graph)
        fields = stages.field_map("pn")
        self.local = self.timed(
            "linking.store_build_s", lambda: RecordStore.from_graph(catalog.local_graph, fields)
        )
        graph, truth = self.timed(
            "datagen.provider_batch_s",
            lambda: provider_batch(catalog, size["pool"], seed=self.seed),
        )
        # the batch is the head of the seeded pool, cut where the planned
        # scoring work of prefix blocking reaches the target (about 300
        # records): a fixed count moves that job's pairs by 25 %
        drawn = RecordStore.from_graph(graph, fields)
        planned = stages.planned_cost(blocking("prefix"), drawn, self.local)
        self.external, work = RecordStore(), 0
        for record in drawn:
            if work >= size["work"]:
                break
            self.external.add(record)
            work += planned[record.id]
        self.truth = [pair for pair in truth if pair[0] in self.external]
        # canopy clustering scores every local record per external one
        # (80 to 100 ms each here), so it gets ten records only
        head = RecordStore(list(self.external)[: size["canopy"]])
        self.inputs = {kind: head if kind == "canopy" else self.external for kind in KINDS}
        self.comparator = RecordComparator([FieldComparator("pn")])
        self.matcher = ThresholdMatcher(THRESHOLD)

    def _run_all(self):
        """The op: four serial jobs, the shared key-index cache dropped
        first so each op builds its indexes as a cold CLI run does."""
        from repro.engine import JobConfig, LinkingJob
        from repro.index import shared_index_cache_clear

        shared_index_cache_clear()
        return {
            kind: LinkingJob(
                blocking(kind), self.comparator, self.matcher, JobConfig()
            ).run(self.inputs[kind], self.local)
            for kind in KINDS
        }

    def _outcome(self, results, wall: float) -> Outcome:
        parts = {
            kind: link_outcome(result, self.truth, THRESHOLD, 0.0)
            for kind, result in results.items()
        }
        failure = next((o.failure for o in parts.values() if o.failure), None)
        return Outcome(
            wall=wall,
            digest=digest({kind: o.digest for kind, o in parts.items()}),
            # the canopy job sees ten records and sorted/q-gram blocking
            # trade recall for pairs; prefix blocking is the quality probe
            quality=parts["prefix"].quality,
            failure=failure,
        )

    def op(self) -> Outcome:
        started = now()
        results = self._run_all()
        return self._outcome(results, now() - started)

    def native(self, outcomes: List[Outcome]) -> Dict[str, float]:
        wall = lower_quartile([o.wall for o in outcomes])
        return {"op_wall_s": wall, "link_wall_s": wall}

    # ------------------------------------------------------------------
    def probes(self) -> None:
        from repro.text.similarity import qgram_profile

        values = [record.value("pn") for record in self.local]
        started = now()
        for value in values:
            qgram_profile(value)
        self.layer["text.qgram_profile_us_per_value"] = (now() - started) / len(values) * 1e6

    def replay(self, tracer: Tracer) -> Outcome:
        from repro.index import shared_index_cache_clear

        local = self.local
        started = now()
        with tracer.span("perf.op"):
            shared_index_cache_clear()
            pairs = []
            for kind in KINDS:
                method = blocking(kind)
                if kind in ("prefix", "qgram"):
                    stages.key_index_build(tracer, kind, method, local)
                pairs += stages.candidates(tracer, kind, method, self.inputs[kind], local)
            stages.score(tracer, pairs, self.external, local, self.comparator, self.matcher)
            with tracer.span("engine.run_s") as counts:
                results = self._run_all()
                stages.engine_counts(counts, [r.stats for r in results.values()])
        return self._outcome(results, now() - started)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        builds = [f"index.key_build_s.{kind}" for kind in ("prefix", "qgram")]
        out = stages.engine_metrics(
            tracer, builds + [f"linking.candidates_s.{kind}" for kind in KINDS]
        )
        for name in builds:
            kind = name.rsplit(".", 1)[1]
            out[f"index.key_features.{kind}"] = tracer.count(name, "features")
            out[f"index.key_postings.{kind}"] = tracer.count(name, "postings")
        return out
