"""Experiment A5: batch linking throughput through the engine.

The paper makes the candidate set small; :class:`repro.engine.LinkingJob`
makes executing it fast. This experiment measures that execution layer:
provider batches of growing size are linked against the catalog through
the engine and each run reports compared pairs, match quality, wall
time, pairs/sec, similarity-cache hit rate and chunk count.

The module also hosts the shared provider-batch generator (corrupted
out-of-sample twins of catalog items).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.datagen.catalog import (
    MANUFACTURER,
    PART_NUMBER,
    ElectronicCatalogGenerator,
    GeneratedCatalog,
)
from repro.datagen.config import CatalogConfig
from repro.datagen.corruption import Corruptor
from repro.engine import JobConfig, LinkingJob
from repro.linking.blocking import BlockingMethod, StandardBlocking
from repro.linking.comparators import FieldComparator, RecordComparator
from repro.linking.matchers import ThresholdMatcher
from repro.linking.records import RecordStore
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal, Term
from repro.rdf.triples import Triple

Pair = Tuple[Term, Term]


def provider_batch(
    catalog: GeneratedCatalog,
    n_items: int,
    seed: int = 4242,
    namespace: str = "http://example.org/catalog/provider-test/",
    corruptor: Corruptor | None = None,
) -> Tuple[Graph, List[Pair]]:
    """Corrupted twins of catalog items NOT used in TS (out-of-sample).

    ``corruptor`` overrides the default corruption model — scenario
    profiles (clean, harsh...) pass their own.
    """
    rng = random.Random(seed)
    linked_locals = {link.local for link in catalog.links}
    unseen = [item for item in catalog.items if item.iri not in linked_locals]
    if len(unseen) < n_items:
        n_items = len(unseen)
    chosen = rng.sample(unseen, n_items)
    ns = Namespace(namespace)
    graph = Graph(identifier="external-test")
    truth: List[Pair] = []
    corruptor = corruptor or Corruptor()
    for i, item in enumerate(chosen):
        ext = ns.term(f"t{i}")
        corrupted = corruptor.corrupt(item.part_number, rng)
        graph.add(Triple(ext, PART_NUMBER, Literal(corrupted)))
        graph.add(Triple(ext, MANUFACTURER, Literal(item.manufacturer)))
        truth.append((ext, item.iri))
    return graph, truth


@dataclass(frozen=True, slots=True)
class ThroughputRow:
    """One engine run at one provider-batch size."""

    n_external: int
    executor: str
    compared: int
    matches: int
    f1: float
    seconds: float
    pairs_per_second: float
    cache_hit_rate: float
    chunk_count: int
    index_build_seconds: float = 0.0
    index_probe_seconds: float = 0.0

    def format(self) -> str:
        return (
            f"{self.n_external:<8}{self.executor:<9}{self.compared:<10}"
            f"{self.matches:<9}{self.f1:>6.3f} {self.seconds:>8.2f}s "
            f"{self.pairs_per_second:>11,.0f} {self.cache_hit_rate:>7.1%} "
            f"{self.chunk_count:>7}"
        )


def run_linking_throughput(
    catalog: GeneratedCatalog | None = None,
    sizes: Sequence[int] = (200, 400, 800),
    job_config: JobConfig | None = None,
    blocking: BlockingMethod | None = None,
    match_threshold: float = 0.9,
    seed: int = 4242,
) -> List[ThroughputRow]:
    """Link provider batches of growing size through the engine.

    With the default prefix blocking, the local catalog's block index
    is built once by the first run and shared by every subsequent batch
    size — the cross-run payoff of ``repro.index``.
    """
    if catalog is None:
        catalog = ElectronicCatalogGenerator(CatalogConfig.small()).generate()
    config = job_config or JobConfig(executor="serial", chunk_size=512)
    blocking = blocking or StandardBlocking.on_field_prefix("pn", length=4)
    # the maker field repeats heavily across the catalog — exactly the
    # redundancy the engine's similarity cache exists to exploit
    comparator = RecordComparator(
        [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=1.0)]
    )
    matcher = ThresholdMatcher(match_threshold=match_threshold)
    field_map = {"pn": PART_NUMBER, "maker": MANUFACTURER}
    local = RecordStore.from_graph(catalog.local_graph, field_map)

    rows: List[ThroughputRow] = []
    for size in sizes:
        graph, truth = provider_batch(catalog, size, seed=seed)
        external = RecordStore.from_graph(graph, field_map)
        job = LinkingJob(blocking, comparator, matcher, config)
        result = job.run(external, local)
        stats = result.stats
        quality = result.matching_quality(truth)
        rows.append(
            ThroughputRow(
                n_external=len(external),
                executor=stats.executor,
                compared=result.compared,
                matches=len(result.matches),
                f1=quality.f1,
                seconds=stats.elapsed_seconds,
                pairs_per_second=stats.pairs_per_second,
                cache_hit_rate=stats.cache_hit_rate,
                chunk_count=stats.chunk_count,
                index_build_seconds=stats.index_build_seconds,
                index_probe_seconds=stats.index_probe_seconds,
            )
        )
    return rows


THROUGHPUT_HEADER = (
    "A5 linking throughput (provider batch vs catalog, through the engine)\n"
    f"{'|S_E|':<8}{'executor':<9}{'pairs':<10}{'matches':<9}"
    f"{'F1':>6} {'time':>9} {'pairs/s':>11} {'cache':>7} {'chunks':>7}"
)


def main() -> None:
    """Run the throughput experiment and print the table."""
    print(THROUGHPUT_HEADER)
    for row in run_linking_throughput():
        print(row.format())


if __name__ == "__main__":
    main()
