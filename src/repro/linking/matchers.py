"""Match decision models over comparison vectors.

Two classic models:

* :class:`ThresholdMatcher` — match when the weighted aggregate
  similarity reaches a threshold; the workhorse of practical linkers.
* :class:`FellegiSunterMatcher` — the probabilistic record-linkage model:
  per-field agreement likelihood ratios ``log2(m/u)`` summed into a
  match weight, thresholded into match / possible / non-match (the
  three-way decision of Fellegi & Sunter 1969, surveyed by Winkler 2006,
  which the paper cites as the record-linkage foundation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.linking.comparators import ComparisonVector, RecordComparator
from repro.linking.records import Record


class MatchStatus(Enum):
    """Three-way linkage decision."""

    MATCH = "match"
    POSSIBLE = "possible"
    NON_MATCH = "non_match"


@dataclass(frozen=True, slots=True)
class MatchDecision:
    """The outcome for one candidate pair."""

    vector: ComparisonVector
    status: MatchStatus
    score: float

    @property
    def is_match(self) -> bool:
        """True for confirmed matches only."""
        return self.status is MatchStatus.MATCH


class ThresholdMatcher:
    """Weighted-average similarity with match/possible bands.

    ``score >= match_threshold`` -> MATCH;
    ``possible_threshold <= score < match_threshold`` -> POSSIBLE;
    below -> NON_MATCH.
    """

    def __init__(
        self,
        match_threshold: float = 0.85,
        possible_threshold: float | None = None,
    ) -> None:
        if not 0.0 <= match_threshold <= 1.0:
            raise ValueError(f"match threshold must be in [0,1], got {match_threshold}")
        if possible_threshold is not None and possible_threshold > match_threshold:
            raise ValueError("possible threshold cannot exceed match threshold")
        self._match = match_threshold
        self._possible = possible_threshold

    @property
    def match_threshold(self) -> float:
        """The MATCH band's lower bound."""
        return self._match

    @property
    def possible_threshold(self) -> float | None:
        """The POSSIBLE band's lower bound (``None`` disables the band)."""
        return self._possible

    def decide(self, vector: ComparisonVector) -> MatchDecision:
        """Classify one comparison vector."""
        score = vector.aggregate
        if score >= self._match:
            status = MatchStatus.MATCH
        elif self._possible is not None and score >= self._possible:
            status = MatchStatus.POSSIBLE
        else:
            status = MatchStatus.NON_MATCH
        return MatchDecision(vector=vector, status=status, score=score)

    def compile_batched(self):
        """Compile the decision into a closure over scored vectors.

        The batched scoring path (:class:`repro.engine.batch.BatchScorer`)
        memoizes decisions per record profile pair; that is only sound
        for deciders whose output depends on the scored vector alone.
        The threshold decision reads nothing but the aggregate, so the
        closure replicates :meth:`decide` comparison for comparison.
        """
        match, possible = self._match, self._possible

        def decide_scored(similarities, aggregate):
            if aggregate >= match:
                return MatchStatus.MATCH, aggregate
            if possible is not None and aggregate >= possible:
                return MatchStatus.POSSIBLE, aggregate
            return MatchStatus.NON_MATCH, aggregate

        return decide_scored

    @property
    def non_match_floor(self) -> float:
        """The lowest aggregate not ruled NON_MATCH: the match threshold,
        or the possible threshold when that band is set.

        Read by the batched scoring path next to :meth:`compile_batched`:
        a pair whose aggregate is bounded below the floor is skipped
        unscored, because its decision is NON_MATCH whatever it scores.
        """
        if self._possible is None:
            return self._match
        return min(self._match, self._possible)


class FellegiSunterMatcher:
    """Fellegi-Sunter probabilistic matcher with supervised m/u training.

    Per field, agreement is ``similarity >= agreement_threshold``.
    Training on labeled pairs estimates ``m`` (P(agree | match)) and
    ``u`` (P(agree | non-match)) with Laplace smoothing. The decision
    weight of a pair sums ``log2(m/u)`` over agreeing fields and
    ``log2((1-m)/(1-u))`` over disagreeing ones.
    """

    def __init__(
        self,
        comparator: RecordComparator,
        agreement_threshold: float = 0.85,
        upper_weight: float = 3.0,
        lower_weight: float = 0.0,
    ) -> None:
        if lower_weight > upper_weight:
            raise ValueError("lower weight cannot exceed upper weight")
        self._comparator = comparator
        self._agreement = agreement_threshold
        self._upper = upper_weight
        self._lower = lower_weight
        self._m: Dict[str, float] = {}
        self._u: Dict[str, float] = {}
        self._trained = False

    @property
    def trained(self) -> bool:
        """Whether m/u probabilities have been estimated."""
        return self._trained

    @property
    def m_probabilities(self) -> Mapping[str, float]:
        """P(field agrees | pair is a match), per field."""
        self._require_trained()
        return dict(self._m)

    @property
    def u_probabilities(self) -> Mapping[str, float]:
        """P(field agrees | pair is a non-match), per field."""
        self._require_trained()
        return dict(self._u)

    def _require_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("FellegiSunterMatcher.train must be called first")

    def train(
        self,
        matches: Iterable[Tuple[Record, Record]],
        non_matches: Iterable[Tuple[Record, Record]],
    ) -> "FellegiSunterMatcher":
        """Estimate m/u from labeled pairs (Laplace-smoothed)."""
        agree_m: Dict[str, int] = {f: 0 for f in self._comparator.field_names}
        agree_u: Dict[str, int] = {f: 0 for f in self._comparator.field_names}
        n_match = 0
        n_non = 0
        for left, right in matches:
            n_match += 1
            vector = self._comparator.compare(left, right)
            for field_name, sim in vector.similarities.items():
                if sim >= self._agreement:
                    agree_m[field_name] += 1
        for left, right in non_matches:
            n_non += 1
            vector = self._comparator.compare(left, right)
            for field_name, sim in vector.similarities.items():
                if sim >= self._agreement:
                    agree_u[field_name] += 1
        if n_match == 0 or n_non == 0:
            raise ValueError("need at least one match and one non-match to train")
        self._m = {
            f: (agree_m[f] + 1) / (n_match + 2) for f in agree_m
        }
        self._u = {
            f: (agree_u[f] + 1) / (n_non + 2) for f in agree_u
        }
        self._trained = True
        return self

    def weight(self, vector: ComparisonVector) -> float:
        """Summed log2 likelihood ratio of one comparison vector."""
        self._require_trained()
        total = 0.0
        for field_name, sim in vector.similarities.items():
            m = self._m[field_name]
            u = self._u[field_name]
            if sim >= self._agreement:
                total += math.log2(m / u)
            else:
                total += math.log2((1 - m) / (1 - u))
        return total

    def decide(self, vector: ComparisonVector) -> MatchDecision:
        """Three-way Fellegi-Sunter decision for one vector."""
        score = self.weight(vector)
        if score >= self._upper:
            status = MatchStatus.MATCH
        elif score >= self._lower:
            status = MatchStatus.POSSIBLE
        else:
            status = MatchStatus.NON_MATCH
        return MatchDecision(vector=vector, status=status, score=score)

    def compile_batched(self):
        """Compile the trained decision into a closure over scored vectors.

        The per-field ``log2`` likelihood ratios are constants once m/u
        are trained, so they are computed here, once, and the closure
        reduces to one table lookup and one add per field — summed in
        the same field order as :meth:`weight`, so the float total is
        bit-identical. Untrained matchers return ``None``: the batched
        path then calls :meth:`decide` per pair, which raises exactly
        like the pairwise path would.
        """
        if not self._trained:
            return None
        agreement = self._agreement
        upper, lower = self._upper, self._lower
        agree_weight = {
            f: math.log2(self._m[f] / self._u[f]) for f in self._m
        }
        disagree_weight = {
            f: math.log2((1 - self._m[f]) / (1 - self._u[f])) for f in self._m
        }

        def decide_scored(similarities, aggregate):
            total = 0.0
            for field_name, sim in similarities.items():
                if sim >= agreement:
                    total += agree_weight[field_name]
                else:
                    total += disagree_weight[field_name]
            if total >= upper:
                status = MatchStatus.MATCH
            elif total >= lower:
                status = MatchStatus.POSSIBLE
            else:
                status = MatchStatus.NON_MATCH
            return status, total

        return decide_scored
