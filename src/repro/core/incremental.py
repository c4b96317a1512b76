"""Incremental rule learning: grow the rule set as experts validate links.

The Thales workflow is continuous — providers keep sending files and
experts keep validating reconciliations. Re-running Algorithm 1 from
scratch on every batch is wasteful: all its state is one shared
:class:`~repro.index.TrainingFeatureIndex`. :class:`IncrementalRuleLearner`
grows that index under :meth:`add_links` (each new link appends its row
to the relevant posting lists — O(1) per feature) and re-emits the rule
set on demand through the batch learner's own
:func:`~repro.core.learner.rules_from_index`; feeding it the same links
in any batch split yields exactly the batch learner's output.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.learner import LearnerConfig, LearningStatistics, rules_from_index
from repro.core.rules import RuleSet
from repro.core.training import SameAsLink, TrainingSet, join_link
from repro.index import TrainingFeatureIndex
from repro.ontology.model import Ontology
from repro.rdf.graph import Graph


class IncrementalRuleLearner:
    """Posting-list-backed online version of Algorithm 1.

    >>> learner = IncrementalRuleLearner(LearnerConfig(...), ontology)
    >>> learner.add_links(first_batch, external_graph)
    >>> learner.add_links(second_batch, external_graph)
    >>> rules = learner.rules()
    """

    def __init__(self, config: LearnerConfig, ontology: Ontology) -> None:
        self.config = config
        self._ontology = ontology
        self._index = TrainingFeatureIndex(config.segmenter)
        self._seen: set[SameAsLink] = set()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def total_links(self) -> int:
        """Links ingested so far (|TS|)."""
        return self._index.rows

    @property
    def index(self) -> TrainingFeatureIndex:
        """The shared feature index this learner maintains."""
        return self._index

    def add_links(self, links: Iterable[SameAsLink], external: Graph) -> int:
        """Ingest a batch of validated links; returns how many were new.

        Duplicate links (already ingested) are skipped, mirroring the
        set semantics of ``TS``. Each new link becomes one index row:
        its segments land on the (property, segment) postings, its
        most-specific classes on the class postings.
        """
        if self.config.properties is None:
            raise ValueError(
                "IncrementalRuleLearner requires an explicit property "
                "selection (the 'all properties' default would drift as "
                "new predicates appear across batches)"
            )
        added = 0
        for link in links:
            if link in self._seen:
                continue
            self._seen.add(link)
            added += 1
            example = join_link(link, self.config.properties, external, self._ontology)
            self._index.ingest(example.property_values, example.classes)
        return added

    def add_training_set(self, training_set: TrainingSet) -> int:
        """Ingest a whole :class:`TrainingSet`."""
        return self.add_links(training_set.links, training_set.external_graph)

    # ------------------------------------------------------------------
    # warm-start persistence (artifact bundles)
    # ------------------------------------------------------------------
    def to_state(self):
        """This learner as a bundleable
        :class:`~repro.index.artifacts.TrainingState`.

        Seen links are exported in deterministic ``(external, local)``
        string order, so two learners that ingested the same links in
        different batch splits serialize byte-identically — the
        incremental-equals-batch invariant extended to the bundle file.
        """
        from repro.index.artifacts import TrainingState

        return TrainingState(
            index=self._index,
            properties=self.config.properties or (),
            support_threshold=self.config.support_threshold,
            strict_threshold=self.config.strict_threshold,
            seen=sorted(
                ((link.external, link.local) for link in self._seen),
                key=lambda pair: (str(pair[0]), str(pair[1])),
            ),
        )

    @classmethod
    def from_state(cls, state, ontology: Ontology) -> "IncrementalRuleLearner":
        """Resume a learner from a bundled state and a live ontology.

        The restored learner continues exactly where the serialized one
        stopped: same index rows, same dedupe set, same thresholds —
        ``add_links`` on new expert validations appends to the restored
        postings and :meth:`rules` re-emits from them.
        """
        config = LearnerConfig(
            properties=tuple(state.properties),
            support_threshold=state.support_threshold,
            segmenter=state.index.segmenter,
            strict_threshold=state.strict_threshold,
        )
        learner = cls(config, ontology)
        learner._index = state.index
        learner._seen = {
            SameAsLink(external=external, local=local)
            for external, local in state.seen
        }
        return learner

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def rules(self) -> RuleSet:
        """The current rule set under the configured threshold."""
        return rules_from_index(self._index, self.config)[0]

    def statistics(self) -> LearningStatistics:
        """Index snapshot in the batch learner's statistics shape."""
        return rules_from_index(self._index, self.config)[1]
