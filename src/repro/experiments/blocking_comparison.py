"""Experiment A3: rule-based reduction vs classic blocking baselines.

The paper's related-work section positions classification rules against
blocking (standard, sorted neighbourhood, bi-gram). This experiment runs
all of them on the same provider-vs-catalog task and reports reduction
ratio, pairs completeness and pairs quality — the standard blocking
quality triple.

The rule-based method is trained on TS and evaluated on a *fresh* batch
of provider records (never seen during learning), giving an honest
out-of-sample comparison.

Every method runs through :class:`repro.engine.LinkingJob`, so each row
also reports engine throughput (``time`` covers blocking *and* the
chunked, cached pair comparison) alongside the quality triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.classifier import RuleClassifier
from repro.core.learner import LearnerConfig, RuleLearner
from repro.datagen.catalog import (
    PART_NUMBER,
    ElectronicCatalogGenerator,
    GeneratedCatalog,
)
from repro.datagen.config import CatalogConfig
from repro.engine import JobConfig, LinkingJob
from repro.experiments.throughput import provider_batch
from repro.linking.blocking import (
    BlockingMethod,
    CanopyBlocking,
    QGramBlocking,
    RuleBasedBlocking,
    SortedNeighbourhood,
    StandardBlocking,
)
from repro.linking.comparators import FieldComparator, RecordComparator
from repro.linking.evaluation import evaluate_blocking
from repro.linking.matchers import ThresholdMatcher
from repro.linking.records import RecordStore


@dataclass(frozen=True, slots=True)
class BlockingComparisonRow:
    """One blocking method's quality on the shared task."""

    method: str
    candidate_pairs: int
    reduction_ratio: float
    pairs_completeness: float
    pairs_quality: float
    seconds: float
    pairs_per_second: float = 0.0
    reuse_rate: float = 0.0

    def format(self) -> str:
        return (
            f"{self.method:<22}{self.candidate_pairs:<12}"
            f"{self.reduction_ratio:>8.4f} {self.pairs_completeness:>8.4f} "
            f"{self.pairs_quality:>8.4f} {self.seconds:>8.2f}s "
            f"{self.pairs_per_second:>11,.0f} {self.reuse_rate:>7.1%}"
        )


#: Column header matching :meth:`BlockingComparisonRow.format` — shared
#: by the CLI, the benchmark report and :func:`main`.
BLOCKING_COMPARISON_HEADER = (
    f"{'method':<22}{'pairs':<12}{'RR':>8} {'PC':>9} {'PQ':>9} {'time':>9} "
    f"{'pairs/s':>11} {'reuse':>7}"
)


def run_blocking_comparison(
    catalog: GeneratedCatalog | None = None,
    n_test_items: int = 1000,
    support_threshold: float = 0.002,
    seed: int = 4242,
    job_config: JobConfig | None = None,
) -> List[BlockingComparisonRow]:
    """Compare all blocking methods on an out-of-sample provider batch."""
    if catalog is None:
        catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    engine_config = job_config or JobConfig(executor="serial", chunk_size=2048)

    training_set = catalog.to_training_set()
    rules = RuleLearner(
        LearnerConfig(properties=(PART_NUMBER,), support_threshold=support_threshold)
    ).learn(training_set)
    classifier = RuleClassifier(rules.with_min_confidence(0.4))

    test_graph, truth = provider_batch(catalog, n_test_items, seed)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    local = RecordStore.from_graph(catalog.local_graph, {"pn": PART_NUMBER})
    naive = len(external) * len(local)
    comparator = RecordComparator([FieldComparator("pn")])
    matcher = ThresholdMatcher(match_threshold=0.9)

    methods: Dict[str, BlockingMethod] = {
        "rule-based (paper)": RuleBasedBlocking(
            classifier, catalog.ontology, test_graph, fallback_full=True
        ),
        "rule-based (strict)": RuleBasedBlocking(
            classifier, catalog.ontology, test_graph, fallback_full=False
        ),
        "standard prefix-4": StandardBlocking.on_field_prefix("pn", length=4),
        "sorted neighbourhood": SortedNeighbourhood.on_field("pn", window_size=7),
        "bigram (q=2, t=0.9)": QGramBlocking("pn", q=2, threshold=0.9),
        "canopy (0.7/0.95)": CanopyBlocking("pn", loose=0.7, tight=0.95),
    }

    rows: List[BlockingComparisonRow] = []
    for name, method in methods.items():
        job = LinkingJob(method, comparator, matcher, engine_config)
        result = job.run(external, local)
        stats = result.stats
        quality = evaluate_blocking(result.candidate_pairs, truth, naive_pairs=naive)
        rows.append(
            BlockingComparisonRow(
                method=name,
                candidate_pairs=quality.candidate_pairs,
                reduction_ratio=quality.reduction_ratio,
                pairs_completeness=quality.pairs_completeness,
                pairs_quality=quality.pairs_quality,
                seconds=stats.elapsed_seconds,
                pairs_per_second=stats.pairs_per_second,
                reuse_rate=stats.reuse_rate,
            )
        )
    return rows


def main() -> None:
    """Run the comparison and print the table.

    Uses the small preset: the canopy baseline is O(|test| x |catalog|)
    similarity computations and would dominate the run at paper scale
    (the whole point of blocking is avoiding exactly that cost).
    """
    catalog = ElectronicCatalogGenerator(CatalogConfig.small()).generate()
    print("A3 blocking comparison (out-of-sample provider batch)")
    print(BLOCKING_COMPARISON_HEADER)
    for row in run_blocking_comparison(catalog, n_test_items=400):
        print(row.format())


if __name__ == "__main__":
    main()
