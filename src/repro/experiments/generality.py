"""Experiment X2: generality — the same pipeline on a second domain.

Paper §6: "To show the generality of our approach we plan to test it on
data from other domains." We run the identical learner on the toponym
gazetteer (the paper's own §4 motivation), with token segmentation over
``rdfs:label`` instead of separator segmentation over part numbers, and
report the same Table-1-style bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.learner import LearnerConfig, RuleLearner
from repro.datagen.toponyms import GeneratedGazetteer, ToponymConfig, generate_gazetteer
from repro.experiments.table1 import Table1Row, eligible_count, evaluate_ruleset
from repro.rdf.namespace import RDFS
from repro.text.segmentation import TokenSegmenter

#: Stopwords for label tokenization (the expert's choice for this domain).
LABEL_STOPWORDS = frozenset({"the", "of", "le", "la", "de"})


@dataclass
class GeneralityReport:
    """Table-1-style results on the toponym domain."""

    rows: List[Table1Row]
    total_rules: int
    total_links: int
    eligible_items: int

    def format(self) -> str:
        lines = [
            "X2 generality: same pipeline, toponym domain (rdfs:label, tokens)",
            f"|TS| = {self.total_links}, eligible = {self.eligible_items}, "
            f"rules = {self.total_rules}",
            "",
            "conf  #rules  #dec.   prec.   recall  lift",
        ]
        lines += [row.format() for row in self.rows]
        return "\n".join(lines)


def run_generality(
    gazetteer: GeneratedGazetteer | None = None,
    support_threshold: float = 0.005,
    bands: Sequence[float] = (1.0, 0.8, 0.6, 0.4),
) -> GeneralityReport:
    """Run the full pipeline on the toponym gazetteer."""
    if gazetteer is None:
        gazetteer = generate_gazetteer(ToponymConfig())
    training_set = gazetteer.to_training_set()
    segmenter = TokenSegmenter(stopwords=LABEL_STOPWORDS)
    properties = (RDFS.label,)

    learner = RuleLearner(
        LearnerConfig(
            properties=properties,
            support_threshold=support_threshold,
            segmenter=segmenter,
        )
    )
    rules = learner.learn(training_set)

    eligible = eligible_count(training_set, learner.config.min_count(len(training_set)))

    band_groups = rules.confidence_bands(list(bands))
    rows: List[Table1Row] = []
    previously_decided: set = set()
    for threshold, band in band_groups.items():
        cumulative = rules.with_min_confidence(threshold)
        decided, correct = evaluate_ruleset(
            cumulative, training_set, segmenter=segmenter, properties=properties
        )
        rows.append(
            Table1Row(
                confidence_threshold=threshold,
                n_rules=len(band),
                n_decisions=len(decided - previously_decided),
                precision=len(correct) / len(decided) if decided else 1.0,
                recall=len(correct) / eligible if eligible else 0.0,
                average_lift=band.average_lift(),
            )
        )
        previously_decided = decided

    return GeneralityReport(
        rows=rows,
        total_rules=len(rules),
        total_links=len(training_set),
        eligible_items=eligible,
    )


def main() -> None:
    """Run the toponym-domain experiment and print the table."""
    print(run_generality().format())


if __name__ == "__main__":
    main()
