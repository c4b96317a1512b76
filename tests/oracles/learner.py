"""Reference implementations of Algorithm 1 and the learners built on it.

Every shipped learner reads one ``TrainingFeatureIndex`` (its counts are
turned into rules by ``repro.core.learner.rules_from_index``). The
Counter-based scans they replaced live only here, as the oracles the
tests compare them against with exact ``==``:

* :func:`learn_scan` — Algorithm 1's three passes, for
  ``RuleLearner`` and ``IncrementalRuleLearner``
  (``tests/index/test_equivalence.py``, ``test_learner_properties.py``);
* :func:`learn_conjunctive_scan` — ``ConjunctiveRuleLearner.learn`` as it
  counted before it read the index;
* :func:`generalize_scan` — ``RuleGeneralizer.generalize`` with each
  lifted rule recounted by a fresh scan of the training set.

The thresholds here are the definition itself (``count/|TS| > th``, or
``>=`` when not strict), not a copy of ``LearnerConfig.min_count``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

from repro.core.conjunctive import ConjunctiveRule
from repro.core.generalize import GeneralizedRule, RuleGeneralizer
from repro.core.learner import LearnerConfig, LearningStatistics
from repro.core.measures import ContingencyCounts, RuleQualityMeasures
from repro.core.rules import ClassificationRule, RuleSet, rule_order_key
from repro.core.training import TrainingSet
from repro.rdf.terms import IRI


def _frequent(config: LearnerConfig, count: int, total: int) -> bool:
    """Algorithm 1's support test: frequency > th (>= th when not strict)."""
    if config.strict_threshold:
        return count / total > config.support_threshold
    return count / total >= config.support_threshold


def learn_scan(
    config: LearnerConfig, training_set: TrainingSet
) -> Tuple[RuleSet, LearningStatistics]:
    """Run Algorithm 1 as three Counter scans over the training links."""
    examples = training_set.examples(
        list(config.properties) if config.properties is not None else None
    )
    total = len(examples)

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
    frequent_pairs = {
        pair for pair, count in pair_counts.items() if _frequent(config, count, total)
    }

    # Pass 2: frequent most-specific classes.
    class_counts: Counter[IRI] = Counter()
    for example in examples:
        for cls in example.classes:
            class_counts[cls] += 1
    frequent_classes = {
        cls for cls, count in class_counts.items() if _frequent(config, count, total)
    }

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
        if not _frequent(config, both, total):
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


def learn_conjunctive_scan(
    config: LearnerConfig, min_confidence_gain: float, training_set: TrainingSet
) -> List[ConjunctiveRule]:
    """``ConjunctiveRuleLearner.learn`` with its own Counter passes."""
    examples = training_set.examples(
        list(config.properties) if config.properties is not None else None
    )
    total = len(examples)
    min_count = config.min_count(total)

    # per-link segment sets per property (set semantics, as in Alg. 1),
    # kept per *value* so conjunctions require co-occurrence in one value
    per_link: List[Dict[IRI, List[FrozenSet[str]]]] = []
    pair_counts: Counter[Tuple[IRI, str]] = Counter()
    class_counts: Counter[IRI] = Counter()
    for example in examples:
        row: Dict[IRI, List[FrozenSet[str]]] = {}
        for prop, values in example.property_values.items():
            value_sets = [frozenset(config.segmenter(v)) for v in values]
            value_sets = [s for s in value_sets if s]
            if value_sets:
                row[prop] = value_sets
                for segment in frozenset().union(*value_sets):
                    pair_counts[(prop, segment)] += 1
        per_link.append(row)
        for cls in example.classes:
            class_counts[cls] += 1

    frequent_single = {
        pair for pair, count in pair_counts.items() if count >= min_count
    }
    frequent_classes = {
        cls for cls, count in class_counts.items() if count >= min_count
    }

    # single-rule confidences, for the improvement check
    single_both: Counter[Tuple[IRI, str, IRI]] = Counter()
    duo_premise: Counter[Tuple[IRI, str, str]] = Counter()
    duo_both: Counter[Tuple[IRI, str, str, IRI]] = Counter()
    for example, row in zip(examples, per_link):
        classes = example.classes & frequent_classes
        for prop, value_sets in row.items():
            all_segments = frozenset().union(*value_sets)
            kept = [
                s for s in all_segments if (prop, s) in frequent_single
            ]
            for segment in kept:
                for cls in classes:
                    single_both[(prop, segment, cls)] += 1
            # pairs must co-occur within one value
            seen_duos: set[Tuple[str, str]] = set()
            for value_set in value_sets:
                in_value = sorted(
                    s for s in value_set if (prop, s) in frequent_single
                )
                for a, b in combinations(in_value, 2):
                    seen_duos.add((a, b))
            for a, b in seen_duos:
                duo_premise[(prop, a, b)] += 1
                for cls in classes:
                    duo_both[(prop, a, b, cls)] += 1

    rules: List[ConjunctiveRule] = []
    for (prop, a, b, cls), both in duo_both.items():
        if both < min_count:
            continue
        premise = duo_premise[(prop, a, b)]
        single_conf = max(
            single_both[(prop, a, cls)] / pair_counts[(prop, a)],
            single_both[(prop, b, cls)] / pair_counts[(prop, b)],
        )
        confidence = both / premise
        if confidence < single_conf + min_confidence_gain:
            continue
        counts = ContingencyCounts(
            both=both,
            premise=premise,
            conclusion=class_counts[cls],
            total=total,
        )
        rules.append(
            ConjunctiveRule(
                property=prop,
                segments=frozenset((a, b)),
                conclusion=cls,
                measures=RuleQualityMeasures.from_counts(counts),
                counts=counts,
            )
        )
    rules.sort(
        key=lambda r: (
            -r.confidence,
            -r.lift,
            r.property.value,
            tuple(sorted(r.segments)),
            r.conclusion.value,
        )
    )
    return rules


def generalize_scan(
    generalizer: RuleGeneralizer, rules: RuleSet, training_set: TrainingSet
) -> List[GeneralizedRule]:
    """``RuleGeneralizer.generalize``, recounting each lifted rule by a scan.

    Grouping, target choice and the depth budget are the shipped
    generalizer's own helpers; only the contingency recount differs.
    """
    groups: Dict[Tuple[IRI, str], List[ClassificationRule]] = defaultdict(list)
    for rule in rules:
        groups[(rule.property, rule.segment)].append(rule)

    lifted: List[GeneralizedRule] = []
    for (prop, segment), members in groups.items():
        if len(members) < 2:
            continue
        target = generalizer._common_superclass([rule.conclusion for rule in members])
        if target is None:
            continue
        if generalizer._exceeds_depth_budget(target, members):
            continue
        generalized = _rebuild_rule(generalizer, prop, segment, target, training_set)
        if generalized is None:
            continue
        best_source_confidence = max(r.confidence for r in members)
        if generalized.confidence < best_source_confidence + generalizer._min_gain:
            continue
        lifted.append(GeneralizedRule(rule=generalized, sources=tuple(members)))
    lifted.sort(key=lambda g: rule_order_key(g.rule))
    return lifted


def _rebuild_rule(
    generalizer: RuleGeneralizer,
    prop: IRI,
    segment: str,
    target: IRI,
    training_set: TrainingSet,
) -> ClassificationRule | None:
    """Recount the contingency table with ``c(X)`` = descendant-or-self.

    Membership in the lifted class is evaluated against the
    subsumption closure: a link whose most-specific class is a leaf
    below *target* satisfies the generalized conclusion.
    """
    hierarchy = generalizer._ontology.hierarchy
    below = hierarchy.descendants(target) | {target}
    examples = training_set.examples([prop])
    total = len(examples)
    premise = 0
    conclusion = 0
    both = 0
    for example in examples:
        values = example.property_values.get(prop, ())
        has_premise = any(
            segment in generalizer._segmenter(value) for value in values
        )
        in_class = bool(example.classes & below)
        if has_premise:
            premise += 1
        if in_class:
            conclusion += 1
        if has_premise and in_class:
            both += 1
    if premise == 0 or both == 0:
        return None
    counts = ContingencyCounts(
        both=both, premise=premise, conclusion=conclusion, total=total
    )
    return ClassificationRule(
        property=prop,
        segment=segment,
        conclusion=target,
        measures=RuleQualityMeasures.from_counts(counts),
        counts=counts,
    )
