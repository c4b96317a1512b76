"""Rule generalization through class subsumption (paper §6, future work).

"As future work, we plan to study how the learnt classification rules can
be used to infer more general rules by exploiting the semantics of the
subsumption between classes of the ontology."

The natural construction: when several rules share the same premise
``(p, a)`` but conclude *different* classes, no single-class rule can be
confident — yet the conclusions often share a close common superclass
(e.g. the segment "uF" appears in both Tantalum and Ceramic capacitors;
the generalized rule concludes Capacitor). We lift such rule groups to
the least common subsumer and recompute the measures there: confidence
can only grow (the premise set is unchanged, the conclusion set is a
superset) while lift shrinks with class breadth — the paper's own
precision/reduction trade-off, climbing the hierarchy.

The lifted counts come from the same
:class:`~repro.index.TrainingFeatureIndex` every learner reads, built
once per :meth:`RuleGeneralizer.generalize` call: the premise is
``|post(p, a)|``, the conclusion the union of the class postings below
the target, ``both`` their intersection.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Sequence, Tuple

from repro.core.measures import ContingencyCounts, RuleQualityMeasures
from repro.core.rules import ClassificationRule, RuleSet, rule_order_key
from repro.core.training import TrainingSet
from repro.index import PostingList, TrainingFeatureIndex
from repro.ontology.model import Ontology
from repro.rdf.terms import IRI
from repro.text.segmentation import SegmentFunction, SeparatorSegmenter


@dataclass(frozen=True, slots=True)
class GeneralizedRule:
    """A rule lifted to a superclass, with its provenance.

    ``sources`` are the leaf-level rules whose conclusions were subsumed.
    """

    rule: ClassificationRule
    sources: Tuple[ClassificationRule, ...]

    @property
    def conclusion(self) -> IRI:
        """The generalized (super)class."""
        return self.rule.conclusion

    def __str__(self) -> str:
        leaves = ", ".join(src.conclusion.local_name for src in self.sources)
        return f"{self.rule} [generalized from: {leaves}]"


class RuleGeneralizer:
    """Lifts same-premise rule groups to their least common subsumer.

    >>> generalizer = RuleGeneralizer(ontology, min_confidence_gain=0.05)
    >>> lifted = generalizer.generalize(rules, training_set)
    """

    def __init__(
        self,
        ontology: Ontology,
        min_confidence_gain: float = 0.0,
        max_depth_lift: int | None = None,
        segmenter: SegmentFunction | None = None,
    ) -> None:
        """Create a generalizer.

        ``min_confidence_gain`` keeps a lifted rule only when its
        confidence exceeds the best source confidence by at least this
        much (0 keeps every strictly better lift). ``max_depth_lift``
        bounds how many levels above the deepest source conclusion the
        lifted class may sit (``None`` = unbounded).
        """
        self._ontology = ontology
        self._min_gain = min_confidence_gain
        self._max_depth_lift = max_depth_lift
        self._segmenter = segmenter or SeparatorSegmenter()

    def generalize(
        self,
        rules: RuleSet,
        training_set: TrainingSet,
    ) -> List[GeneralizedRule]:
        """Produce lifted rules for premise groups with split conclusions."""
        groups: Dict[Tuple[IRI, str], List[ClassificationRule]] = defaultdict(list)
        for rule in rules:
            groups[(rule.property, rule.segment)].append(rule)
        properties = sorted({prop for prop, _ in groups}, key=lambda p: p.value)
        index = TrainingFeatureIndex.from_examples(
            training_set.examples(properties), self._segmenter
        )

        lifted: List[GeneralizedRule] = []
        for (prop, segment), members in groups.items():
            if len(members) < 2:
                continue
            target = self._common_superclass(
                [rule.conclusion for rule in members]
            )
            if target is None:
                continue
            if self._exceeds_depth_budget(target, members):
                continue
            generalized = self._lifted_rule(index, prop, segment, target)
            if generalized is None:
                continue
            best_source_confidence = max(r.confidence for r in members)
            if generalized.confidence < best_source_confidence + self._min_gain:
                continue
            lifted.append(
                GeneralizedRule(rule=generalized, sources=tuple(members))
            )
        lifted.sort(key=lambda g: rule_order_key(g.rule))
        return lifted

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _common_superclass(self, conclusions: Sequence[IRI]) -> IRI | None:
        """Fold the conclusions through pairwise least common subsumers."""
        hierarchy = self._ontology.hierarchy
        current = conclusions[0]
        for other in conclusions[1:]:
            lcs = hierarchy.least_common_subsumers(current, other)
            if not lcs:
                return None
            # deterministic choice: deepest first, then lexicographic
            current = sorted(
                lcs, key=lambda c: (-hierarchy.depth(c), c.value)
            )[0]
        if current in set(conclusions):
            # lifting to one of the sources is not a generalization
            return None
        return current

    def _exceeds_depth_budget(
        self, target: IRI, members: Sequence[ClassificationRule]
    ) -> bool:
        if self._max_depth_lift is None:
            return False
        hierarchy = self._ontology.hierarchy
        deepest_source = max(hierarchy.depth(r.conclusion) for r in members)
        return deepest_source - hierarchy.depth(target) > self._max_depth_lift

    def _lifted_rule(
        self, index: TrainingFeatureIndex, prop: IRI, segment: str, target: IRI
    ) -> ClassificationRule | None:
        """Recount the contingency table with ``c(X)`` = descendant-or-self.

        Membership in the lifted class is evaluated against the
        subsumption closure: a link whose most-specific class is a leaf
        below *target* satisfies the generalized conclusion.
        """
        below = self._ontology.hierarchy.descendants(target) | {target}
        premise = index.pairs.posting((prop, segment))
        conclusion = reduce(
            PostingList.union, (index.classes.posting(c) for c in below), PostingList()
        )
        both = premise.intersection_count(conclusion)
        if both == 0:
            return None
        counts = ContingencyCounts(
            both=both, premise=len(premise), conclusion=len(conclusion), total=index.rows
        )
        return ClassificationRule(
            property=prop,
            segment=segment,
            conclusion=target,
            measures=RuleQualityMeasures.from_counts(counts),
            counts=counts,
        )
