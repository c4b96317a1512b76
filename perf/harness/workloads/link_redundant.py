"""``link-redundant``: overlapping deltas through the streaming engine.

The same 12 000-item catalog as ``link-sparse``, two compared fields;
the seed draws a provider pool of about 600 records (cut where its
planned scoring work reaches the target) and eight deltas of half the
pool each, with fresh ids per transmission. Values repeat across deltas, so
about 87 % of similarity lookups hit the stream-shared cache: the
scoring layer used the other way round from ``link-dense``.
"""

from __future__ import annotations

import random
from typing import Dict, List

from harness import stages
from harness.core import Outcome, Tracer, Workload, link_outcome, lower_quartile, now
from harness.workloads.link_sparse import blocking, sparse_catalog

THRESHOLD = 0.9
SIZES = {
    False: {"pool": 800, "work": 850_000, "deltas": 8},
    True: {"pool": 50, "work": 40_000, "deltas": 3},
}


class LinkRedundant(Workload):
    name = "link-redundant"

    def setup(self) -> None:
        from repro.experiments.throughput import provider_batch
        from repro.linking import FieldComparator, RecordComparator, RecordStore, ThresholdMatcher
        from repro.linking.records import Record

        size = SIZES[self.quick]
        catalog = self.timed("datagen.generate_s", lambda: sparse_catalog(self.quick))
        self.layer["rdf.graph_triples"] = len(catalog.local_graph)
        fields = stages.field_map("pn", "maker")
        self.local = self.timed(
            "linking.store_build_s", lambda: RecordStore.from_graph(catalog.local_graph, fields)
        )
        graph, truth = self.timed(
            "datagen.provider_batch_s",
            lambda: provider_batch(catalog, size["pool"], seed=self.seed),
        )
        drawn = RecordStore.from_graph(graph, fields)
        planned = stages.planned_cost(blocking("prefix"), drawn, self.local)
        pool, work = [], 0
        for record in drawn:
            if work >= size["work"]:
                break
            pool.append(record)
            work += planned[record.id]
        true_local = dict(truth)
        rng = random.Random(self.seed)
        self.deltas = []
        self.truth = []
        for index in range(size["deltas"]):
            delta = []
            for record in rng.sample(pool, len(pool) // 2):
                sent = Record(id=f"{record.id}/tx{index}", fields=record.fields)
                delta.append(sent)
                self.truth.append((sent.id, true_local[record.id]))
            self.deltas.append(delta)
        self.external = RecordStore(record for delta in self.deltas for record in delta)
        self.comparator = RecordComparator(
            [FieldComparator("pn", weight=2.0), FieldComparator("maker")]
        )
        self.matcher = ThresholdMatcher(THRESHOLD)

    def _stream(self):
        from repro.engine import JobConfig
        from repro.engine.streaming import StreamingLinkingJob

        return StreamingLinkingJob(
            self.local, self.comparator, self.matcher, JobConfig(), blocking=blocking("prefix")
        )

    def op(self) -> Outcome:
        started = now()
        job = self._stream()
        for delta in self.deltas:
            job.ingest(delta)
        result = job.result()
        return link_outcome(result, self.truth, THRESHOLD, now() - started)

    def native(self, outcomes: List[Outcome]) -> Dict[str, float]:
        wall = lower_quartile([o.wall for o in outcomes])
        return {"op_wall_s": wall, "link_wall_s": wall}

    # ------------------------------------------------------------------
    def replay(self, tracer: Tracer) -> Outcome:
        external, local = self.external, self.local
        started = now()
        with tracer.span("perf.op"):
            pairs = stages.candidates(tracer, "prefix", blocking("prefix"), external, local)
            stages.score(tracer, pairs, external, local, self.comparator, self.matcher)
            stages.cached_compare(tracer, pairs, external, local, self.comparator)
            stages.batch_score(tracer, pairs, external, local, self.comparator, self.matcher)
            with tracer.span("engine.run_s") as counts:
                job = self._stream()
                for delta in self.deltas:
                    with tracer.span("engine.stream_ingest_s"):
                        job.ingest(delta)
                result = job.result()
                stages.engine_counts(counts, [result.stats])
        return link_outcome(result, self.truth, THRESHOLD, now() - started)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = stages.engine_metrics(tracer, ["linking.candidates_s.prefix"])
        out["engine.stream_ingest_s"] = tracer.duration("engine.stream_ingest_s")
        out["engine.cached_compare_ns_per_pair"] = stages.per_pair_ns(
            tracer, "engine.cached_compare"
        )
        for kind in ("fresh", "memoized"):
            out[f"engine.batch_score_ns_per_pair.{kind}"] = stages.per_pair_ns(
                tracer, f"engine.batch_score.{kind}"
            )
        return out
