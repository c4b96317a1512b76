"""Differential tests: the interned linking subspace against its reference.

``LinkingSubspace.from_predictions`` builds one candidate set per
distinct predicted class-set and shares it between every item with that
class-set. ``tests/oracles/subspace.py`` keeps the per-item union it
replaced. Every comparison here is exact ``==``: the candidate sets, the
pair count, every :class:`SubspaceReduction` field and the pair set.

Inputs are random small class DAGs with multiple inheritance, random
instance typing (untyped, singly and multiply typed instances), and
predictions that include empty lists, repeated classes and the same
class-set in different orders.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.classifier import ClassPrediction
from repro.core.measures import ContingencyCounts, RuleQualityMeasures
from repro.core.rules import ClassificationRule
from repro.core.subspace import LinkingSubspace
from repro.ontology import Ontology, OntologyError
from repro.rdf import EX
from tests.oracles import subspace as oracle

_COUNTS = ContingencyCounts(both=1, premise=1, conclusion=1, total=1)
_MEASURES = RuleQualityMeasures.from_counts(_COUNTS)


def _prediction(item, cls):
    rule = ClassificationRule(EX.partNumber, "seg", cls, _MEASURES, _COUNTS)
    return ClassPrediction(item=item, predicted_class=cls, rule=rule)


@st.composite
def worlds(draw):
    """An ontology plus class predictions for a batch of external items."""
    n_classes = draw(st.integers(min_value=1, max_value=7))
    classes = [EX[f"C{i}"] for i in range(n_classes)]
    ontology = Ontology()
    for cls in classes:
        ontology.add_class(cls)
    # parents are drawn among lower-numbered classes only, so the graph
    # is acyclic by construction; up to three parents each
    for i in range(1, n_classes):
        for parent in draw(st.sets(st.integers(0, i - 1), max_size=3)):
            ontology.add_subclass(classes[i], classes[parent])
    class_ids = st.integers(0, n_classes - 1)
    for j in range(draw(st.integers(min_value=0, max_value=12))):
        for cls in draw(st.sets(class_ids, max_size=3)):
            ontology.add_instance(EX[f"l{j}"], classes[cls])

    class_lists = draw(st.lists(st.lists(class_ids, max_size=5), max_size=10))
    # re-predict some class lists in another order (and so another
    # rule-firing sequence) for further items
    reordered = [
        draw(st.permutations(listed))
        for listed in class_lists
        if draw(st.booleans())
    ]
    predictions = {
        EX[f"e{i}"]: [_prediction(EX[f"e{i}"], classes[c]) for c in listed]
        for i, listed in enumerate(class_lists + reordered)
    }
    return ontology, predictions


@pytest.mark.parametrize("include_subclasses", [True, False])
@given(world=worlds(), total_local=st.integers(min_value=0, max_value=20))
def test_interned_subspace_equals_per_item_union(world, total_local, include_subclasses):
    ontology, predictions = world
    shipped = LinkingSubspace.from_predictions(predictions, ontology, include_subclasses)
    expected = oracle.from_predictions(predictions, ontology, include_subclasses)

    assert list(shipped.items()) == list(expected.items())
    for item in predictions:
        assert shipped.candidates_for(item) == expected.candidates_for(item)
        assert item in shipped
    assert shipped.pair_count() == expected.pair_count()
    assert dataclasses.astuple(shipped.reduction(total_local)) == dataclasses.astuple(
        expected.reduction(total_local)
    )
    pairs = list(shipped.pairs())
    assert len(pairs) == shipped.pair_count()
    assert set(pairs) == set(expected.pairs())


@pytest.mark.parametrize("include_subclasses", [True, False])
@given(world=worlds())
def test_one_shared_pool_per_distinct_class_set(world, include_subclasses):
    ontology, predictions = world
    shipped = LinkingSubspace.from_predictions(predictions, ontology, include_subclasses)
    pools = {}
    for item, preds in predictions.items():
        class_set = frozenset(pred.predicted_class for pred in preds)
        pool = pools.setdefault(class_set, shipped.candidates_for(item))
        assert shipped.candidates_for(item) is pool
    assert len({id(shipped.candidates_for(item)) for item in predictions}) == len(pools)


class TestInterning:
    @pytest.fixture
    def ontology(self):
        ontology = Ontology()
        ontology.add_subclass(EX.FixedFilm, EX.Resistor)
        ontology.add_class(EX.Capacitor)
        ontology.add_instance(EX.l1, EX.FixedFilm)
        ontology.add_instance(EX.l2, EX.Resistor)
        ontology.add_instance(EX.l3, EX.Capacitor)
        return ontology

    def test_equal_class_sets_share_one_object(self, ontology):
        predictions = {
            EX.a: [_prediction(EX.a, EX.Resistor), _prediction(EX.a, EX.Capacitor)],
            EX.b: [_prediction(EX.b, EX.Capacitor), _prediction(EX.b, EX.Resistor)],
            EX.c: [_prediction(EX.c, EX.Capacitor)],
        }
        subspace = LinkingSubspace.from_predictions(predictions, ontology)
        shared = subspace.candidates_for(EX.a)
        assert shared == frozenset({EX.l1, EX.l2, EX.l3})
        assert subspace.candidates_for(EX.b) is shared
        assert subspace.candidates_for(EX.c) is not shared
        assert subspace.pair_count() == 7

    def test_unknown_predicted_class_raises(self, ontology):
        predictions = {EX.a: [_prediction(EX.a, EX.Unknown)]}
        with pytest.raises(OntologyError, match="unknown class"):
            LinkingSubspace.from_predictions(predictions, ontology)
