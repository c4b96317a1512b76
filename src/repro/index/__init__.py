"""``repro.index`` — the shared inverted feature-index subsystem.

One indexed representation backs all four consuming layers:

* :class:`~repro.core.learner.RuleLearner` — Algorithm 1's three
  frequency passes become posting-list lengths and intersections over a
  :class:`TrainingFeatureIndex`;
* :class:`~repro.core.incremental.IncrementalRuleLearner` — the same
  index grown row-by-row under ``add_links``;
* :class:`~repro.core.classifier.RuleClassifier` — batch prediction
  probes a (property, segment) → rules table instead of scanning every
  rule per record;
* blocking (:mod:`repro.linking.blocking`) — q-gram and key blocking
  read per-store :class:`RecordKeyIndex` key → record-ordinal lists,
  built once and shared via :func:`shared_record_index`.

The learning side's primitives are an interned
:class:`FeatureVocabulary` (features → dense int ids) and sorted-int
:class:`PostingList`\\ s supporting intersection, union, count and
incremental append. The record side only reads whole postings, so it
keeps a plain dict of int lists.
"""

from repro.index.inverted import IndexStats, InvertedIndex
from repro.index.keys import (
    RecordKeyIndex,
    seed_shared_index,
    shared_index_cache_clear,
    shared_index_snapshot,
    shared_record_index,
)
from repro.index.postings import EMPTY_POSTING, PostingList
from repro.index.training import TrainingFeatureIndex
from repro.index.vocabulary import FeatureVocabulary

__all__ = [
    "EMPTY_POSTING",
    "FeatureVocabulary",
    "IndexStats",
    "InvertedIndex",
    "PostingList",
    "RecordKeyIndex",
    "TrainingFeatureIndex",
    "seed_shared_index",
    "shared_index_cache_clear",
    "shared_index_snapshot",
    "shared_record_index",
]
