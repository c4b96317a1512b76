"""The shared training-link index behind Algorithm 1.

One :class:`TrainingFeatureIndex` is built per training set (or grown
incrementally as experts validate new links). It is the one source of
counts every learner reads — ``RuleLearner`` and
``IncrementalRuleLearner`` through
:func:`~repro.core.learner.rules_from_index`, ``ConjunctiveRuleLearner``
and ``RuleGeneralizer`` through the same probes:

* ``freq(p ∧ a)``   = ``len(post(p, a))``,
* ``freq(c)``       = ``len(post(c))``,
* ``freq(p ∧ a ∧ c)`` = ``|post(p, a) ∩ post(c)|``.

Rows are training links in ingestion order, so posting appends are
always increasing and O(1). The index also keeps the segment occurrence
counter the paper's §5 statistics need, making it a drop-in data source
for :class:`~repro.core.learner.LearningStatistics`.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.index.inverted import IndexStats, InvertedIndex
from repro.rdf.terms import IRI
from repro.text.segmentation import SegmentFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports index)
    from repro.core.training import TrainingExample


class TrainingFeatureIndex:
    """Posting lists over training links for pair and class features.

    >>> index = TrainingFeatureIndex(segmenter)
    >>> index.ingest({PART_NUMBER: ("CRCW0805-10K",)}, classes={resistor})
    0
    >>> index.pair_count(PART_NUMBER, "crcw0805")
    1
    >>> index.conjunction_count(PART_NUMBER, "crcw0805", resistor)
    1
    """

    __slots__ = (
        "_segmenter",
        "pairs",
        "classes",
        "_row_classes",
        "occurrences",
        "rows",
        "build_seconds",
    )

    def __init__(self, segmenter: SegmentFunction) -> None:
        self._segmenter = segmenter
        #: (property, segment) features → posting list of link rows.
        self.pairs = InvertedIndex()
        #: class features → posting list of link rows.
        self.classes = InvertedIndex()
        #: per-row class feature ids (the conjunction enumeration join).
        self._row_classes: List[Tuple[int, ...]] = []
        #: segment occurrence counts before thresholding (paper §5).
        self.occurrences: Counter[str] = Counter()
        #: rows ingested so far — ``|TS|``.
        self.rows = 0
        #: cumulative wall time spent inside :meth:`ingest`.
        self.build_seconds = 0.0

    @property
    def segmenter(self) -> SegmentFunction:
        """The segmentation function this index was built with."""
        return self._segmenter

    # ------------------------------------------------------------------
    # build / incremental ingestion
    # ------------------------------------------------------------------
    @classmethod
    def from_examples(
        cls,
        examples: Iterable["TrainingExample"],
        segmenter: SegmentFunction,
    ) -> "TrainingFeatureIndex":
        """Index a batch of training examples (Algorithm 1's pass 0)."""
        index = cls(segmenter)
        for example in examples:
            index.ingest(example.property_values, example.classes)
        return index

    def ingest(
        self,
        property_values: Mapping[IRI, Sequence[str]],
        classes: Iterable[IRI],
    ) -> int:
        """Index one training link; returns its row id.

        Segments every value through the configured segmenter, updates
        the corpus occurrence counter, and appends the link's row to the
        posting of every distinct (property, segment) pair and class —
        set semantics per link, exactly as the frequency passes count.
        """
        started = time.perf_counter()
        row = self.rows
        self.rows += 1
        for prop, values in property_values.items():
            segments: set[str] = set()
            for value in values:
                pieces = self._segmenter(value)
                self.occurrences.update(pieces)
                segments.update(pieces)
            for segment in segments:
                self.pairs.add((prop, segment), row)
        class_fids: List[int] = []
        for cls in classes:
            class_fids.append(self.classes.add(cls, row))
        self._row_classes.append(tuple(class_fids))
        self.build_seconds += time.perf_counter() - started
        return row

    # ------------------------------------------------------------------
    # frequency probes (the three passes)
    # ------------------------------------------------------------------
    def pair_count(self, prop: IRI, segment: str) -> int:
        """``freq(p ∧ a)`` — posting length of the pair feature."""
        return self.pairs.count((prop, segment))

    def class_count(self, cls: IRI) -> int:
        """``freq(c)`` — posting length of the class feature."""
        return self.classes.count(cls)

    def conjunction_count(self, prop: IRI, segment: str, cls: IRI) -> int:
        """``freq(p ∧ a ∧ c) = |post(p, a) ∩ post(c)|``."""
        return self.pairs.posting((prop, segment)).intersection_count(
            self.classes.posting(cls)
        )

    def frequent_pairs(self, min_count: int) -> Dict[Tuple[IRI, str], int]:
        """Pass 1: (property, segment) pairs with ``freq >= min_count``."""
        return {
            feature: len(posting)
            for feature, _, posting in self.pairs.features()
            if len(posting) >= min_count
        }

    def frequent_classes(self, min_count: int) -> Dict[IRI, int]:
        """Pass 2: classes with ``freq >= min_count``."""
        return {
            feature: len(posting)
            for feature, _, posting in self.classes.features()
            if len(posting) >= min_count
        }

    def conjunction_counts(
        self,
        frequent_pairs: Iterable[Tuple[IRI, str]],
        frequent_classes: FrozenSet[IRI] | set,
    ) -> Dict[Tuple[IRI, str, IRI], int]:
        """Pass 3: all frequent-pair × frequent-class conjunction counts.

        For each frequent pair this walks its posting once and joins it
        against the per-row class ids — a simultaneous multi-way
        ``|post(p, a) ∩ post(c)|`` for every class *c* that actually
        co-occurs, skipping the empty intersections a pairwise sweep
        would waste time on. Counts are identical to
        :meth:`conjunction_count` (asserted by the index tests).
        """
        frequent_class_fids = {
            fid
            for cls in frequent_classes
            if (fid := self.classes.vocabulary.id_of(cls)) is not None
        }
        row_classes = self._row_classes
        out: Dict[Tuple[IRI, str, IRI], int] = {}
        feature_of = self.classes.vocabulary.feature_of
        for prop, segment in frequent_pairs:
            per_class: Counter[int] = Counter()
            for row in self.pairs.posting((prop, segment)):
                for fid in row_classes[row]:
                    if fid in frequent_class_fids:
                        per_class[fid] += 1
            for fid, count in per_class.items():
                out[(prop, segment, feature_of(fid))] = count
        return out

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def distinct_segments(self) -> int:
        """Distinct segments seen across all values (paper: 7842)."""
        return len(self.occurrences)

    def segment_occurrences(self) -> int:
        """Total segment occurrences across all values (paper: 26077)."""
        return sum(self.occurrences.values())

    def selected_occurrences(self, segments: Iterable[str]) -> int:
        """Occurrences belonging to the given (surviving) segments."""
        return sum(self.occurrences[segment] for segment in set(segments))

    def stats(self, probe_seconds: float = 0.0) -> IndexStats:
        """Posting-list size/timing report across both feature spaces."""
        return self.pairs.stats(build_seconds=self.build_seconds).merged(
            self.classes.stats(probe_seconds=probe_seconds)
        )

    def __repr__(self) -> str:
        return (
            f"<TrainingFeatureIndex rows={self.rows} "
            f"pairs={len(self.pairs)} classes={len(self.classes)}>"
        )
