"""Linking subspaces: the reduced comparison space after classification.

Paper §4.4: "For a given new data item i, and a rule Rk, the application
of Rk leads to a data linking subspace d_ik composed of the set of pairs
(i, j) such that i ∈ S_E, j ∈ S_L and c(j). The whole data linking space
for the data item i is then composed of the union of all the data linking
subspaces obtained thanks to the application of all the classification
rules involving i."

The paper's headline motivation is the reduction against the naive
``|S_E| × |S_L|`` space; :class:`SubspaceReduction` quantifies it.

Items are keyed by their predicted class-set, so memory scales with the
number of distinct class-sets, not with items × pool size:
``candidates_for`` returns a shared immutable set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.core.classifier import ClassPrediction
from repro.ontology.model import Ontology
from repro.rdf.terms import IRI, Term


@dataclass(frozen=True, slots=True)
class SubspaceReduction:
    """Reduction statistics of a classified batch of external items.

    * ``naive_pairs`` — ``|S_E| × |S_L|`` for the batch;
    * ``reduced_pairs`` — pairs remaining inside predicted classes, with
      *undecided* items kept at full width ``|S_L|`` (they still must be
      compared to everything);
    * ``decided_items`` / ``undecided_items`` — batch composition.
    """

    naive_pairs: int
    reduced_pairs: int
    decided_items: int
    undecided_items: int

    @property
    def reduction_ratio(self) -> float:
        """``1 - reduced/naive`` (1.0 = everything pruned)."""
        if self.naive_pairs == 0:
            return 0.0
        return 1.0 - self.reduced_pairs / self.naive_pairs

    @property
    def reduction_factor(self) -> float:
        """``naive / reduced`` — "the linkage space can be divided by"."""
        if self.reduced_pairs == 0:
            return float("inf") if self.naive_pairs else 1.0
        return self.naive_pairs / self.reduced_pairs

    def __str__(self) -> str:
        return (
            f"naive={self.naive_pairs} reduced={self.reduced_pairs} "
            f"(x{self.reduction_factor:.1f} smaller, "
            f"{self.decided_items} decided / {self.undecided_items} undecided)"
        )


class LinkingSubspace:
    """The set of candidate pairs induced by class predictions.

    >>> subspace = LinkingSubspace.from_predictions(preds, ontology)
    >>> subspace.candidates_for(item)      # local items to compare with
    >>> subspace.reduction(total_local=catalog_size)
    """

    def __init__(self, candidates: Dict[Term, FrozenSet[Term]]) -> None:
        self._candidates = dict(candidates)

    @classmethod
    def from_predictions(
        cls,
        predictions: Dict[Term, List[ClassPrediction]],
        ontology: Ontology,
        include_subclasses: bool = True,
    ) -> "LinkingSubspace":
        """Union the per-rule subspaces of every item's predictions.

        ``include_subclasses`` widens ``c(j)`` to instances of subclasses
        of ``c`` — harmless for leaf conclusions and required for the
        generalization extension whose conclusions are inner classes.
        The union is built once per distinct predicted class-set, and
        every item with that class-set shares the one frozenset.
        """
        pools: Dict[FrozenSet[IRI], FrozenSet[Term]] = {}
        candidates: Dict[Term, FrozenSet[Term]] = {}
        for item, preds in predictions.items():
            key = frozenset(pred.predicted_class for pred in preds)
            pool = pools.get(key)
            if pool is None:
                pool = pools[key] = frozenset().union(
                    *(ontology.instances_of(c, include_subclasses) for c in key)
                )
            candidates[item] = pool
        return cls(candidates)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Term]:
        """External items covered by this subspace (decided or not)."""
        yield from self._candidates

    def candidates_for(self, item: Term) -> FrozenSet[Term]:
        """Local items the external *item* must be compared with."""
        return self._candidates.get(item, frozenset())

    def pairs(self) -> Iterator[Tuple[Term, Term]]:
        """All (external, local) candidate pairs."""
        for item, pool in self._candidates.items():
            for local in pool:
                yield item, local

    def pair_count(self) -> int:
        """Number of candidate pairs for decided items."""
        return sum(len(pool) for pool in self._candidates.values())

    def __len__(self) -> int:
        return len(self._candidates)

    def __contains__(self, item: Term) -> bool:
        return item in self._candidates

    # ------------------------------------------------------------------
    # reduction statistics
    # ------------------------------------------------------------------
    def reduction(self, total_local: int) -> SubspaceReduction:
        """Reduction stats against a catalog of *total_local* items.

        Items with an empty candidate set count as *undecided*: no rule
        fired, so a fair comparison keeps them at the naive width.
        """
        decided = sum(1 for pool in self._candidates.values() if pool)
        undecided = len(self._candidates) - decided
        reduced = self.pair_count() + undecided * total_local
        return SubspaceReduction(
            naive_pairs=len(self._candidates) * total_local,
            reduced_pairs=reduced,
            decided_items=decided,
            undecided_items=undecided,
        )

    def __repr__(self) -> str:
        return f"<LinkingSubspace items={len(self)} pairs={self.pair_count()}>"
