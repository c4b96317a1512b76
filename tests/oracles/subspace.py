"""Reference implementation of ``LinkingSubspace.from_predictions``.

The straightforward per-item union the interned version replaced: every
item gets its own freshly built candidate set. It lives only here, as
the oracle ``tests/core/test_subspace_properties.py`` compares the
shipped subspace against with exact ``==``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.core.classifier import ClassPrediction
from repro.core.subspace import LinkingSubspace
from repro.ontology.model import Ontology
from repro.rdf.terms import Term


def from_predictions(
    predictions: Dict[Term, List[ClassPrediction]],
    ontology: Ontology,
    include_subclasses: bool = True,
) -> LinkingSubspace:
    """Union the per-rule subspaces of every item, one item at a time."""
    candidates: Dict[Term, FrozenSet[Term]] = {}
    for item, preds in predictions.items():
        pool: set[Term] = set()
        for pred in preds:
            pool.update(
                ontology.instances_of(
                    pred.predicted_class, include_subclasses=include_subclasses
                )
            )
        candidates[item] = frozenset(pool)
    return LinkingSubspace(candidates)
