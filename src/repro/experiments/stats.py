"""Experiments S1/S2: the in-text statistics of the paper's §5.

The paper reports, outside Table 1:

* 7842 distinct segments, 26 077 occurrences over the TS part numbers;
* at ``th = 0.002``: 7058 selected segment occurrences, 68 classes with
  more than 20 instances, 144 classification rules;
* 2107 products correctly classified by the 44 confidence-1 rules;
* average lift > 20 at every threshold, so "even for a big class that
  represents 20% of the catalog, the linkage space can be divided by 5
  for one instance";
* indicative segments found for 16 leaf classes among 67 frequent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.learner import LearnerConfig, RuleLearner
from repro.core.rules import RuleSet
from repro.datagen.catalog import (
    PART_NUMBER,
    ElectronicCatalogGenerator,
    GeneratedCatalog,
)
from repro.datagen.config import CatalogConfig
from repro.experiments.table1 import eligible_count
from repro.text.segmentation import SegmentFunction, SeparatorSegmenter

#: The paper's in-text numbers for side-by-side reporting.
PAPER_STATS = dict(
    distinct_segments=7842,
    segment_occurrences=26077,
    selected_occurrences=7058,
    frequent_classes=68,
    rules=144,
    confidence_one_rules=44,
    classes_with_rules=16,
    frequent_classes_in_ts=67,
)


@dataclass(frozen=True, slots=True)
class InTextStats:
    """Everything §5 reports in prose, measured on our catalog."""

    total_links: int
    distinct_segments: int
    segment_occurrences: int
    selected_occurrences: int
    frequent_classes: int
    rule_count: int
    confidence_one_rules: int
    classes_with_confident_rules: int
    eligible_items: int
    min_lift_across_bands: float

    def format(self) -> str:
        """Side-by-side ours/paper report."""
        paper = PAPER_STATS
        rows = [
            ("|TS|", self.total_links, 10265),
            ("distinct segments", self.distinct_segments, paper["distinct_segments"]),
            ("segment occurrences", self.segment_occurrences, paper["segment_occurrences"]),
            ("selected occurrences", self.selected_occurrences, paper["selected_occurrences"]),
            ("frequent classes (>20 inst.)", self.frequent_classes, paper["frequent_classes"]),
            ("classification rules", self.rule_count, paper["rules"]),
            ("confidence-1 rules", self.confidence_one_rules, paper["confidence_one_rules"]),
            ("classes with confident rules", self.classes_with_confident_rules, paper["classes_with_rules"]),
        ]
        lines = ["In-text statistics (ours vs paper)", ""]
        lines.append(f"{'statistic':<32}{'ours':>10}{'paper':>10}")
        for name, ours, paper_value in rows:
            lines.append(f"{name:<32}{ours:>10}{paper_value:>10}")
        lines.append(
            f"{'min average band lift':<32}{self.min_lift_across_bands:>10.1f}"
            f"{'>20':>10}"
        )
        return "\n".join(lines)


def run_stats(
    catalog: GeneratedCatalog | None = None,
    support_threshold: float = 0.002,
    segmenter: SegmentFunction | None = None,
) -> InTextStats:
    """Measure every §5 in-text statistic on the (default) catalog."""
    if catalog is None:
        catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    segmenter = segmenter or SeparatorSegmenter()
    training_set = catalog.to_training_set()

    learner = RuleLearner(
        LearnerConfig(
            properties=(PART_NUMBER,),
            support_threshold=support_threshold,
            segmenter=segmenter,
        )
    )
    rules = learner.learn(training_set)
    stats = learner.statistics

    confidence_one = rules.with_min_confidence(1.0)
    confident = rules.with_min_confidence(0.4)

    bands = rules.confidence_bands([1.0, 0.8, 0.6, 0.4])
    lifts = [band.average_lift() for band in bands.values() if len(band)]
    min_lift = min(lifts) if lifts else 0.0

    return InTextStats(
        total_links=stats.total_links,
        distinct_segments=stats.distinct_segments,
        segment_occurrences=stats.segment_occurrences,
        selected_occurrences=stats.selected_segment_occurrences,
        frequent_classes=stats.frequent_classes,
        rule_count=stats.rule_count,
        confidence_one_rules=len(confidence_one),
        classes_with_confident_rules=len(confident.concluded_classes()),
        eligible_items=eligible_count(
            training_set, learner.config.min_count(len(training_set))
        ),
        min_lift_across_bands=min_lift,
    )


def main() -> None:
    """Measure and print the in-text statistics."""
    print(run_stats().format())


if __name__ == "__main__":
    main()
