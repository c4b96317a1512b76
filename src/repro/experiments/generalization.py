"""Experiment X1: the paper's future-work subsumption generalization.

§6: "we plan to study how the learnt classification rules can be used to
infer more general rules by exploiting the semantics of the subsumption
between classes of the ontology."

The experiment measures what the extension buys: same-premise rule
groups with split conclusions are lifted to their least common subsumer
(:class:`repro.core.generalize.RuleGeneralizer`), and we compare recall
of the confident rule set before and after adding the lifted rules. The
expected shape: recall rises (items whose segment was split across
sibling classes become decidable), precision stays high (the lifted
conclusion subsumes the true class), and lift falls (broader classes cut
the space less).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.classifier import RuleClassifier
from repro.core.generalize import GeneralizedRule, RuleGeneralizer
from repro.core.learner import LearnerConfig, RuleLearner
from repro.core.rules import RuleSet
from repro.datagen.catalog import (
    PART_NUMBER,
    ElectronicCatalogGenerator,
    GeneratedCatalog,
)
from repro.datagen.config import CatalogConfig
from repro.experiments.table1 import eligible_count


@dataclass(frozen=True, slots=True)
class GeneralizationReport:
    """Before/after comparison of adding generalized rules."""

    n_base_rules: int
    n_generalized_rules: int
    base_decisions: int
    base_correct: int
    base_recall: float
    extended_decisions: int
    extended_correct: int
    extended_recall: float
    average_generalized_lift: float

    def format(self) -> str:
        lines = [
            "X1 rule generalization via subsumption",
            f"base rules (conf >= 0.4): {self.n_base_rules}",
            f"generalized rules added:  {self.n_generalized_rules} "
            f"(avg lift {self.average_generalized_lift:.1f})",
            "",
            f"{'':<12}{'#dec.':<8}{'#correct':<10}{'recall':>8}",
            f"{'base':<12}{self.base_decisions:<8}{self.base_correct:<10}"
            f"{self.base_recall * 100:>7.1f}%",
            f"{'extended':<12}{self.extended_decisions:<8}{self.extended_correct:<10}"
            f"{self.extended_recall * 100:>7.1f}%",
        ]
        return "\n".join(lines)


def _evaluate_with_subsumption(
    rules: RuleSet,
    training_set,
    eligible: int,
) -> tuple[int, int, float]:
    """(decisions, correct, recall); a decision is correct when the
    predicted class equals or *subsumes* the item's true class (the
    right notion once conclusions may be inner classes)."""
    classifier = RuleClassifier(rules)
    graph = training_set.external_graph
    ontology = training_set.ontology
    decisions = 0
    correct = 0
    items_correct = 0
    for example in training_set.examples([PART_NUMBER]):
        predictions = classifier.predict(example.link.external, graph)
        if not predictions:
            continue
        decisions += len(predictions)
        hit = False
        for prediction in predictions:
            if any(
                ontology.is_subclass_of(true_cls, prediction.predicted_class)
                for true_cls in example.classes
            ):
                correct += 1
                hit = True
        if hit:
            items_correct += 1
    recall = items_correct / eligible if eligible else 0.0
    return decisions, correct, recall


def run_generalization(
    catalog: GeneratedCatalog | None = None,
    support_threshold: float = 0.002,
    min_confidence: float = 0.4,
    max_depth_lift: int | None = 4,
) -> GeneralizationReport:
    """Learn, generalize, and compare decision coverage on TS.

    ``max_depth_lift`` bounds how far conclusions may climb: unbounded
    lifting converges on near-root classes whose predictions are vacuous
    (lift -> 1, no space reduction), which is precisely the trade-off
    the paper's future-work section hints at.
    """
    if catalog is None:
        catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    training_set = catalog.to_training_set()

    config = LearnerConfig(properties=(PART_NUMBER,), support_threshold=support_threshold)
    rules = RuleLearner(config).learn(training_set)
    base = rules.with_min_confidence(min_confidence)

    generalizer = RuleGeneralizer(
        catalog.ontology,
        min_confidence_gain=0.05,
        max_depth_lift=max_depth_lift,
    )
    lifted: List[GeneralizedRule] = generalizer.generalize(rules, training_set)
    lifted_confident = [
        g.rule for g in lifted if g.rule.confidence >= min_confidence
    ]
    extended = base.merge(RuleSet(lifted_confident))

    eligible = eligible_count(training_set, config.min_count(len(training_set)))

    base_dec, base_ok, base_recall = _evaluate_with_subsumption(
        base, training_set, eligible
    )
    ext_dec, ext_ok, ext_recall = _evaluate_with_subsumption(
        extended, training_set, eligible
    )

    avg_lift = (
        sum(g.rule.lift for g in lifted) / len(lifted) if lifted else 0.0
    )
    return GeneralizationReport(
        n_base_rules=len(base),
        n_generalized_rules=len(lifted_confident),
        base_decisions=base_dec,
        base_correct=base_ok,
        base_recall=base_recall,
        extended_decisions=ext_dec,
        extended_correct=ext_ok,
        extended_recall=ext_recall,
        average_generalized_lift=avg_lift,
    )


def main() -> None:
    """Sweep the depth budget: deeper lifting buys recall, costs lift."""
    catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    for budget in (2, 4, 6, None):
        report = run_generalization(catalog, max_depth_lift=budget)
        label = "unbounded" if budget is None else str(budget)
        print(f"--- max_depth_lift = {label} ---")
        print(report.format())
        print()


if __name__ == "__main__":
    main()
