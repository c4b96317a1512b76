"""A generic inverted index: feature → posting list of row ids.

Combines a :class:`~repro.index.vocabulary.FeatureVocabulary` with one
:class:`~repro.index.postings.PostingList` per feature. Rows must be
observed in non-decreasing order (the natural order of a build pass or
of incremental ingestion), which keeps every posting append O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, List, Tuple

from repro.index.postings import EMPTY_POSTING, PostingList
from repro.index.vocabulary import FeatureVocabulary


@dataclass(frozen=True, slots=True)
class IndexStats:
    """Size and timing report of an index, surfaced in ``EngineStats``.

    * ``features`` — distinct features (posting lists);
    * ``postings`` — total posting entries across all features;
    * ``build_seconds`` / ``probe_seconds`` — wall time spent building
      the index and probing it during the last run (0.0 when unused).
    """

    features: int = 0
    postings: int = 0
    build_seconds: float = 0.0
    probe_seconds: float = 0.0

    @property
    def mean_posting_length(self) -> float:
        """Average posting length (0.0 for an empty index)."""
        return self.postings / self.features if self.features else 0.0

    def merged(self, other: "IndexStats") -> "IndexStats":
        """Combine two reports (sizes and timings add up)."""
        return IndexStats(
            features=self.features + other.features,
            postings=self.postings + other.postings,
            build_seconds=self.build_seconds + other.build_seconds,
            probe_seconds=self.probe_seconds + other.probe_seconds,
        )


class InvertedIndex:
    """Feature-addressed posting lists over a dense row space.

    >>> index = InvertedIndex()
    >>> index.add(("pn", "crcw0805"), row=0)
    0
    >>> index.count(("pn", "crcw0805"))
    1
    """

    __slots__ = ("vocabulary", "_postings")

    def __init__(self) -> None:
        self.vocabulary = FeatureVocabulary()
        self._postings: List[PostingList] = []

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def add(self, feature: Hashable, row: int) -> int:
        """Record *feature* occurring on *row*; returns the feature id.

        A repeated (feature, row) observation is ignored — postings have
        set semantics, exactly like Algorithm 1's per-link counting.
        """
        fid = self.vocabulary.intern(feature)
        if fid == len(self._postings):
            self._postings.append(PostingList())
        posting = self._postings[fid]
        if len(posting) == 0 or row > posting[-1]:
            posting.append(row)
        elif row != posting[-1]:
            posting.add(row)
        return fid

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def posting(self, feature: Hashable) -> PostingList:
        """The feature's posting list (shared empty list when unseen)."""
        fid = self.vocabulary.id_of(feature)
        return EMPTY_POSTING if fid is None else self._postings[fid]

    def count(self, feature: Hashable) -> int:
        """``freq(feature)`` — the posting length."""
        return len(self.posting(feature))

    def intersection_count(self, a: Hashable, b: Hashable) -> int:
        """``|post(a) ∩ post(b)|`` — the conjunction frequency."""
        return self.posting(a).intersection_count(self.posting(b))

    def features(self) -> Iterator[Tuple[Hashable, int, PostingList]]:
        """(feature, id, posting) triples in id order."""
        for feature, fid in self.vocabulary.items():
            yield feature, fid, self._postings[fid]

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, feature: Hashable) -> bool:
        return feature in self.vocabulary

    def total_postings(self) -> int:
        """Sum of posting lengths across every feature."""
        return sum(len(posting) for posting in self._postings)

    def stats(self, build_seconds: float = 0.0, probe_seconds: float = 0.0) -> IndexStats:
        """A size report, optionally stamped with timings."""
        return IndexStats(
            features=len(self._postings),
            postings=self.total_postings(),
            build_seconds=build_seconds,
            probe_seconds=probe_seconds,
        )

    def __repr__(self) -> str:
        return (
            f"<InvertedIndex features={len(self._postings)} "
            f"postings={self.total_postings()}>"
        )
