"""Reference implementation of Algorithm 1's frequency passes.

The original Counter-based scan that :meth:`RuleLearner.learn` replaced
with posting-list probes over a ``TrainingFeatureIndex``. It lives only
here, as the oracle ``tests/index/test_equivalence.py`` compares the
shipped learner against with exact ``==`` on rules and statistics.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, FrozenSet, List, Tuple

from repro.core.learner import LearnerConfig, LearningStatistics
from repro.core.measures import ContingencyCounts, RuleQualityMeasures
from repro.core.rules import ClassificationRule, RuleSet
from repro.core.training import TrainingSet
from repro.rdf.terms import IRI


def _min_count(config: LearnerConfig, total: int) -> int:
    """The fractional ``th`` as a link-count threshold (strict: > th)."""
    threshold = config.support_threshold * total
    if config.strict_threshold:
        return int(math.floor(threshold)) + 1
    return max(1, int(math.ceil(threshold)))


def learn_scan(
    config: LearnerConfig, training_set: TrainingSet
) -> Tuple[RuleSet, LearningStatistics]:
    """Run Algorithm 1 as three Counter scans over the training links."""
    examples = training_set.examples(
        list(config.properties) if config.properties is not None else None
    )
    total = len(examples)
    min_count = _min_count(config, total)

    # Pass 0: segment every value once; remember per-example segment
    # sets (set semantics per link) and corpus occurrence counts.
    segmented: List[Dict[IRI, FrozenSet[str]]] = []
    occurrence_counter: Counter[str] = Counter()
    for example in examples:
        per_property: Dict[IRI, set[str]] = {}
        for prop, values in example.property_values.items():
            segments: set[str] = set()
            for value in values:
                pieces = config.segmenter(value)
                occurrence_counter.update(pieces)
                segments.update(pieces)
            if segments:
                per_property[prop] = segments
        segmented.append({prop: frozenset(segs) for prop, segs in per_property.items()})

    # Pass 1: frequent (property, segment) pairs.
    pair_counts: Counter[Tuple[IRI, str]] = Counter()
    for per_property in segmented:
        for prop, segments in per_property.items():
            for segment in segments:
                pair_counts[(prop, segment)] += 1
    frequent_pairs = {pair for pair, count in pair_counts.items() if count >= min_count}

    # Pass 2: frequent most-specific classes.
    class_counts: Counter[IRI] = Counter()
    for example in examples:
        for cls in example.classes:
            class_counts[cls] += 1
    frequent_classes = {cls for cls, count in class_counts.items() if count >= min_count}

    # Pass 3: frequent conjunctions -> rules with measures.
    conjunction_counts: Counter[Tuple[IRI, str, IRI]] = Counter()
    for example, per_property in zip(examples, segmented):
        if not example.classes:
            continue
        for prop, segments in per_property.items():
            for segment in segments:
                if (prop, segment) not in frequent_pairs:
                    continue
                for cls in example.classes:
                    if cls in frequent_classes:
                        conjunction_counts[(prop, segment, cls)] += 1

    rules: List[ClassificationRule] = []
    for (prop, segment, cls), both in conjunction_counts.items():
        if both < min_count:
            continue
        counts = ContingencyCounts(
            both=both,
            premise=pair_counts[(prop, segment)],
            conclusion=class_counts[cls],
            total=total,
        )
        rules.append(
            ClassificationRule(
                property=prop,
                segment=segment,
                conclusion=cls,
                measures=RuleQualityMeasures.from_counts(counts),
                counts=counts,
            )
        )

    selected_segments = {segment for _, segment in frequent_pairs}
    statistics = LearningStatistics(
        total_links=total,
        distinct_segments=len(occurrence_counter),
        segment_occurrences=sum(occurrence_counter.values()),
        selected_segment_occurrences=sum(
            occurrence_counter[segment] for segment in selected_segments
        ),
        frequent_pairs=len(frequent_pairs),
        frequent_classes=len(frequent_classes),
        rule_count=len(rules),
    )
    return RuleSet(rules), statistics
