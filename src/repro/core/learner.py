"""Algorithm 1: learning value-based classification rules from ``TS``.

The algorithm (paper §4.3) "is based on the idea of finding frequent
subsegments in frequent property instances of the data source S_E
appearing in TS". Three frequency passes, all thresholded by the support
threshold ``th`` (a fraction of ``|TS|``):

1. for every selected property ``p`` and every segment ``a`` of its
   values, keep ``p(X,Y) ∧ subsegment(Y,a)`` with frequency > th;
2. keep every most-specific class ``c`` with frequency > th;
3. keep every conjunction ``p(X,Y) ∧ subsegment(Y,a) ∧ c(X)`` with
   frequency > th, and emit it as the rule ``p ∧ a ⇒ c`` with its
   support, confidence and lift.

Frequencies count *training links* (not value occurrences): a segment
appearing twice in one part-number still counts once for that link,
matching the set semantics of ``{X | p(X,Y) ∧ subsegment(Y,a)}``.

The passes run against a shared
:class:`~repro.index.TrainingFeatureIndex`: pass 1 and 2 read posting
lengths, pass 3 is the posting intersection
``freq(p ∧ a ∧ c) = |post(p, a) ∩ post(c)|``. :meth:`RuleLearner.learn`
builds the index when none is supplied; callers relearning under
several thresholds (sweeps, benchmarks) build it once via
:meth:`RuleLearner.build_index` and amortize pass 0 away. The original
Counter-based passes live on only as the test oracle
``tests/oracles/learner.py``; the equivalence tests assert both emit
identical rule sets and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.measures import ContingencyCounts, RuleQualityMeasures
from repro.core.rules import ClassificationRule, RuleSet
from repro.core.training import TrainingSet
from repro.index import TrainingFeatureIndex
from repro.rdf.terms import IRI
from repro.text.segmentation import SegmentFunction, SeparatorSegmenter


class LearnerError(ValueError):
    """Raised on invalid learner configuration."""


@dataclass(frozen=True)
class LearnerConfig:
    """Configuration of :class:`RuleLearner`.

    * ``properties`` — the expert-selected ``P`` (``None`` = all
      data-type properties of linked external items, "all if no
      selection");
    * ``support_threshold`` — the paper's ``th`` as a fraction of
      ``|TS|`` (0.002 in the Thales experiment);
    * ``segmenter`` — how values split into segments (expert-specified;
      default = the paper's non-alphanumeric separator splitting);
    * ``strict_threshold`` — the paper requires frequency strictly
      greater than ``th``; set False for >= semantics in ablations.
    """

    properties: Tuple[IRI, ...] | None = None
    support_threshold: float = 0.002
    segmenter: SegmentFunction = field(default_factory=SeparatorSegmenter)
    strict_threshold: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.support_threshold < 1.0:
            raise LearnerError(
                f"support threshold must be in [0, 1), got {self.support_threshold}"
            )


@dataclass(frozen=True, slots=True)
class LearningStatistics:
    """What the learner saw and kept — the paper's in-text §5 numbers.

    * ``total_links`` — ``|TS|``;
    * ``distinct_segments`` / ``segment_occurrences`` — corpus counts
      before thresholding (Thales: 7842 / 26077);
    * ``selected_segment_occurrences`` — occurrences belonging to
      (property, segment) pairs that passed the threshold (Thales: 7058);
    * ``frequent_pairs`` — surviving (property, segment) pairs;
    * ``frequent_classes`` — surviving classes (Thales: 68);
    * ``rule_count`` — emitted rules (Thales: 144).
    """

    total_links: int
    distinct_segments: int
    segment_occurrences: int
    selected_segment_occurrences: int
    frequent_pairs: int
    frequent_classes: int
    rule_count: int


class RuleLearner:
    """Learns a :class:`RuleSet` from a :class:`TrainingSet`.

    >>> learner = RuleLearner(LearnerConfig(support_threshold=0.002))
    >>> rules = learner.learn(training_set)
    >>> learner.statistics.rule_count
    144
    """

    def __init__(self, config: LearnerConfig | None = None) -> None:
        self.config = config or LearnerConfig()
        self._statistics: LearningStatistics | None = None

    @property
    def statistics(self) -> LearningStatistics:
        """Statistics of the last :meth:`learn` call."""
        if self._statistics is None:
            raise LearnerError("learn() has not been called yet")
        return self._statistics

    # ------------------------------------------------------------------
    # Algorithm 1 — index-backed passes
    # ------------------------------------------------------------------
    def build_index(self, training_set: TrainingSet) -> TrainingFeatureIndex:
        """Pass 0 as a reusable artifact: segment, intern, index.

        The returned index can be handed to :meth:`learn` any number of
        times (e.g. across a support-threshold sweep); only the cheap
        posting probes rerun.
        """
        config = self.config
        examples = training_set.examples(
            list(config.properties) if config.properties is not None else None
        )
        return TrainingFeatureIndex.from_examples(examples, config.segmenter)

    def learn(
        self,
        training_set: TrainingSet,
        index: TrainingFeatureIndex | None = None,
    ) -> RuleSet:
        """Run Algorithm 1 over *training_set* and return the rules.

        With *index* given (from :meth:`build_index`), pass 0 is skipped
        and the three frequency passes run as posting-list probes.
        """
        if index is None:
            index = self.build_index(training_set)
        total = index.rows
        min_count = self._min_count(total)

        # Pass 1: frequent (property, segment) pairs = long-enough postings.
        pair_counts = index.frequent_pairs(min_count)

        # Pass 2: frequent most-specific classes.
        class_counts = index.frequent_classes(min_count)

        # Pass 3: conjunction frequencies |post(p,a) ∩ post(c)| -> rules.
        conjunction_counts = index.conjunction_counts(
            pair_counts.keys(), set(class_counts.keys())
        )
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

        selected_segments = {segment for _, segment in pair_counts}
        self._statistics = LearningStatistics(
            total_links=total,
            distinct_segments=index.distinct_segments(),
            segment_occurrences=index.segment_occurrences(),
            selected_segment_occurrences=index.selected_occurrences(selected_segments),
            frequent_pairs=len(pair_counts),
            frequent_classes=len(class_counts),
            rule_count=len(rules),
        )
        return RuleSet(rules)

    def _min_count(self, total: int) -> int:
        """Translate the fractional ``th`` into a link-count threshold.

        Strict semantics: frequency > th, i.e. count/total > th, i.e.
        count >= floor(th * total) + 1. With the paper's numbers
        (th=0.002, |TS|=10265) this gives count >= 21 — matching "68
        selected classes have more than 20 instances".
        """
        import math

        threshold = self.config.support_threshold * total
        if self.config.strict_threshold:
            return int(math.floor(threshold)) + 1
        return max(1, int(math.ceil(threshold)))
