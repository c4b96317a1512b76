"""Conjunctive rules: premises with several subsegments.

Algorithm 1 mines single-segment premises. Its natural Apriori-style
extension joins frequent segments into two-segment premises::

    p(X,Y) ∧ subsegment(Y,a1) ∧ subsegment(Y,a2) ⇒ c(X)

A part-number segment like "100" is worthless alone but, together with
"ohm", pins the class down. The learner below:

1. reads Algorithm 1's frequent (property, segment) pairs, frequent
   classes and single-segment conjunction counts from the same
   :class:`~repro.index.TrainingFeatureIndex` every learner reads;
2. Apriori-joins segment pairs that co-occur in enough linked values
   (its own pass: the index keeps per-link, not per-value, segments);
3. emits a conjunctive rule only when it *improves* on its best
   component rule (a CBA-style pruning: a conjunction that is no more
   confident than its parts only narrows coverage for nothing).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Tuple

from repro.core.learner import LearnerConfig
from repro.core.measures import ContingencyCounts, RuleQualityMeasures
from repro.core.training import TrainingSet
from repro.index import TrainingFeatureIndex
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term
from repro.text.segmentation import SegmentFunction


@dataclass(frozen=True, slots=True)
class ConjunctiveRule:
    """A rule whose premise requires every segment in ``segments``."""

    property: IRI
    segments: FrozenSet[str]
    conclusion: IRI
    measures: RuleQualityMeasures
    counts: ContingencyCounts

    @property
    def confidence(self) -> float:
        """Confidence over TS."""
        return self.measures.confidence

    @property
    def lift(self) -> float:
        """Lift over TS."""
        return self.measures.lift

    @property
    def support(self) -> float:
        """Support over TS."""
        return self.measures.support

    def applies_to(
        self, item: Term, graph: Graph, segmenter: SegmentFunction
    ) -> bool:
        """All premise segments must occur in one value of the property."""
        for value in graph.literal_values(item, self.property):
            if self.segments <= set(segmenter(value)):
                return True
        return False

    def __str__(self) -> str:
        premise = " ∧ ".join(
            f"subsegment(Y,'{segment}')" for segment in sorted(self.segments)
        )
        return (
            f"{self.property.local_name}(X,Y) ∧ {premise} "
            f"⇒ {self.conclusion.local_name}(X)  [{self.measures}]"
        )


class ConjunctiveRuleLearner:
    """Mines two-segment conjunctive rules on top of Algorithm 1's passes.

    ``min_confidence_gain``: a conjunction must beat the best confidence
    of its single-segment component rules by at least this much.
    """

    def __init__(
        self,
        config: LearnerConfig | None = None,
        min_confidence_gain: float = 0.05,
    ) -> None:
        self.config = config or LearnerConfig()
        self.min_confidence_gain = min_confidence_gain

    def learn(self, training_set: TrainingSet) -> List[ConjunctiveRule]:
        """Return the improving two-segment rules, best first."""
        config = self.config
        examples = training_set.examples(config.properties)
        index = TrainingFeatureIndex.from_examples(examples, config.segmenter)
        total = index.rows
        min_count = config.min_count(total)
        pair_counts = index.frequent_pairs(min_count)
        class_counts = index.frequent_classes(min_count)
        # single-rule counts, for the improvement check
        single_both = index.conjunction_counts(pair_counts.keys(), set(class_counts))

        # pairs must co-occur within one value (set semantics per link)
        duo_premise: Counter[Tuple[IRI, str, str]] = Counter()
        duo_both: Counter[Tuple[IRI, str, str, IRI]] = Counter()
        for example in examples:
            classes = [cls for cls in example.classes if cls in class_counts]
            for prop, values in example.property_values.items():
                seen_duos: set[Tuple[str, str]] = set()
                for value in values:
                    in_value = sorted(
                        s for s in set(config.segmenter(value))
                        if (prop, s) in pair_counts
                    )
                    seen_duos.update(combinations(in_value, 2))
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
                single_both.get((prop, a, cls), 0) / pair_counts[(prop, a)],
                single_both.get((prop, b, cls), 0) / pair_counts[(prop, b)],
            )
            confidence = both / premise
            if confidence < single_conf + self.min_confidence_gain:
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
