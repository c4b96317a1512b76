"""Experiments A1/A2/A4: ablations around the paper's design choices.

* **A1 — support threshold.** The paper fixes ``th = 0.002`` without
  ablation; the sweep shows the rule-count / precision / recall
  trade-off that choice sits on.
* **A2 — segmentation strategy.** §4.1 allows separator characters *or*
  n-grams; the experiment ran separators. The ablation compares both.
* **A4 — scalability.** Learning and classification cost versus |TS|
  (the paper's motivation is that naive linking is quadratic; rule
  learning must stay cheap).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.core.learner import LearnerConfig, RuleLearner
from repro.datagen.catalog import (
    PART_NUMBER,
    ElectronicCatalogGenerator,
    GeneratedCatalog,
)
from repro.datagen.config import CatalogConfig
from repro.experiments.table1 import eligible_count, evaluate_band
from repro.text.segmentation import (
    NGramSegmenter,
    SegmentFunction,
    SeparatorSegmenter,
    TokenSegmenter,
)


# ---------------------------------------------------------------------------
# A1: support-threshold sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SupportSweepRow:
    """One support-threshold setting."""

    support_threshold: float
    n_rules: int
    n_frequent_classes: int
    n_decisions: int
    precision: float
    recall: float

    def format(self) -> str:
        return (
            f"{self.support_threshold:<10g}{self.n_rules:<8}"
            f"{self.n_frequent_classes:<10}{self.n_decisions:<8}"
            f"{self.precision * 100:>6.1f}% {self.recall * 100:>6.1f}%"
        )


def run_support_sweep(
    catalog: GeneratedCatalog | None = None,
    thresholds: Sequence[float] = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02),
) -> List[SupportSweepRow]:
    """Sweep ``th`` and evaluate all >=0.4-confidence rules per setting."""
    if catalog is None:
        catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    training_set = catalog.to_training_set()
    # pass 0 is threshold-independent: segment and index TS once
    index = RuleLearner(LearnerConfig(properties=(PART_NUMBER,))).build_index(training_set)
    rows: List[SupportSweepRow] = []
    for threshold in thresholds:
        learner = RuleLearner(
            LearnerConfig(properties=(PART_NUMBER,), support_threshold=threshold)
        )
        rules = learner.learn(training_set, index=index)
        confident = rules.with_min_confidence(0.4)
        eligible = eligible_count(training_set, learner.config.min_count(len(training_set)))
        decisions, precision, recall = evaluate_band(
            confident, training_set, eligible, properties=(PART_NUMBER,)
        )
        rows.append(
            SupportSweepRow(
                support_threshold=threshold,
                n_rules=len(rules),
                n_frequent_classes=learner.statistics.frequent_classes,
                n_decisions=decisions,
                precision=precision,
                recall=recall,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# A2: segmentation-strategy ablation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SegmentationRow:
    """One segmentation strategy."""

    strategy: str
    distinct_segments: int
    segment_occurrences: int
    n_rules: int
    n_decisions: int
    precision: float
    recall: float

    def format(self) -> str:
        return (
            f"{self.strategy:<14}{self.distinct_segments:<10}"
            f"{self.segment_occurrences:<10}{self.n_rules:<8}"
            f"{self.n_decisions:<8}{self.precision * 100:>6.1f}% "
            f"{self.recall * 100:>6.1f}%"
        )


def default_segmentation_strategies() -> Dict[str, SegmentFunction]:
    """The strategies §4.1 names: separators and n-grams (plus tokens)."""
    return {
        "separator": SeparatorSegmenter(),
        "bigram": NGramSegmenter(n=2),
        "trigram": NGramSegmenter(n=3),
        "4-gram": NGramSegmenter(n=4),
        "token": TokenSegmenter(),
    }


def run_segmentation_ablation(
    catalog: GeneratedCatalog | None = None,
    support_threshold: float = 0.002,
    strategies: Dict[str, SegmentFunction] | None = None,
) -> List[SegmentationRow]:
    """Compare segmentation strategies on the same catalog."""
    if catalog is None:
        catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    training_set = catalog.to_training_set()
    strategies = strategies or default_segmentation_strategies()

    min_count = LearnerConfig(support_threshold=support_threshold).min_count(len(training_set))
    eligible = eligible_count(training_set, min_count)

    rows: List[SegmentationRow] = []
    for name, segmenter in strategies.items():
        learner = RuleLearner(
            LearnerConfig(
                properties=(PART_NUMBER,),
                support_threshold=support_threshold,
                segmenter=segmenter,
            )
        )
        rules = learner.learn(training_set)
        confident = rules.with_min_confidence(0.4)
        decisions, precision, recall = evaluate_band(
            confident,
            training_set,
            eligible,
            segmenter=segmenter,
            properties=(PART_NUMBER,),
        )
        stats = learner.statistics
        rows.append(
            SegmentationRow(
                strategy=name,
                distinct_segments=stats.distinct_segments,
                segment_occurrences=stats.segment_occurrences,
                n_rules=stats.rule_count,
                n_decisions=decisions,
                precision=precision,
                recall=recall,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# A4: scalability in |TS|
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ScalabilityRow:
    """One |TS| size point."""

    n_links: int
    learn_seconds: float
    classify_seconds: float
    n_rules: int

    def format(self) -> str:
        return (
            f"{self.n_links:<8}{self.learn_seconds:<10.3f}"
            f"{self.classify_seconds:<12.3f}{self.n_rules:<8}"
        )


def run_scalability(
    sizes: Sequence[int] = (1000, 2500, 5000, 10265, 20000),
    support_threshold: float = 0.002,
    base_config: CatalogConfig | None = None,
) -> List[ScalabilityRow]:
    """Measure learning/classification wall time as |TS| grows."""
    from repro.core.classifier import RuleClassifier

    base = base_config or CatalogConfig.thales_like()
    rows: List[ScalabilityRow] = []
    for size in sizes:
        config = base.with_links(size, catalog_size=max(size, base.catalog_size))
        catalog = ElectronicCatalogGenerator(config).generate()
        training_set = catalog.to_training_set()
        learner = RuleLearner(
            LearnerConfig(properties=(PART_NUMBER,), support_threshold=support_threshold)
        )
        started = time.perf_counter()
        rules = learner.learn(training_set)
        learn_seconds = time.perf_counter() - started

        classifier = RuleClassifier(rules)
        graph = training_set.external_graph
        started = time.perf_counter()
        for link in training_set:
            classifier.predict(link.external, graph)
        classify_seconds = time.perf_counter() - started

        rows.append(
            ScalabilityRow(
                n_links=size,
                learn_seconds=learn_seconds,
                classify_seconds=classify_seconds,
                n_rules=len(rules),
            )
        )
    return rows


def main() -> None:
    """Run and print all three ablations on the default catalog."""
    catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    print("A1 support-threshold sweep")
    print(f"{'th':<10}{'#rules':<8}{'#freq.cls':<10}{'#dec.':<8}{'prec.':>7} {'recall':>7}")
    for row in run_support_sweep(catalog):
        print(row.format())
    print()
    print("A2 segmentation ablation")
    print(
        f"{'strategy':<14}{'distinct':<10}{'occur.':<10}{'#rules':<8}"
        f"{'#dec.':<8}{'prec.':>7} {'recall':>7}"
    )
    for row in run_segmentation_ablation(catalog):
        print(row.format())
    print()
    print("A4 scalability")
    print(f"{'|TS|':<8}{'learn(s)':<10}{'classify(s)':<12}{'#rules':<8}")
    for row in run_scalability():
        print(row.format())


if __name__ == "__main__":
    main()
