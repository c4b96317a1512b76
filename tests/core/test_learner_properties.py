"""Differential tests: every learner against its scan oracle.

``RuleLearner``, ``IncrementalRuleLearner``, ``ConjunctiveRuleLearner``
and ``RuleGeneralizer`` all count through one ``TrainingFeatureIndex``.
``tests/oracles/learner.py`` keeps the Counter scans they replaced.
Every comparison here is exact ``==``: rule lists (counts and measures
included) and statistics.

Inputs are random small class DAGs with multiple inheritance, locals
that are untyped, singly or multiply typed (and shared by several
externals), and external values that include empty strings and
separator-only strings the segmenter maps to no segment. Thresholds are
drawn to land exactly on count boundaries (``k / |TS|``) as well as on
2–4-decimal fractions, under both ``strict_threshold`` settings.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import LearnerConfig, RuleLearner, SameAsLink, TrainingSet
from repro.core.conjunctive import ConjunctiveRuleLearner
from repro.core.generalize import RuleGeneralizer
from repro.core.incremental import IncrementalRuleLearner
from repro.index.artifacts import training_state_from_payload, training_state_to_payload
from repro.ontology import Ontology
from repro.rdf import EX, Graph, Literal, Triple
from tests.oracles import learner as oracle

PROPERTIES = (EX.p0, EX.p1)
# segments a, b, c joined by separators, plus values with no segment
VALUES = ("a", "b", "a-b", "b-c", "a-b-c", "c-a", "b-a-b", "a c", "", "--", " ")


@st.composite
def worlds(draw, n_classes=st.integers(1, 6), rooted=st.booleans()):
    """An ontology and a training set over it."""
    n_classes = draw(n_classes)
    classes = [EX[f"C{i}"] for i in range(n_classes)]
    ontology = Ontology()
    for cls in classes:
        ontology.add_class(cls)
    # parents among lower-numbered classes only, so the graph is acyclic;
    # a rooted draw gives every class a parent, so lifts can find a subsumer
    min_parents = 1 if draw(rooted) else 0
    for i in range(1, n_classes):
        for parent in draw(st.sets(st.integers(0, i - 1), min_size=min_parents, max_size=3)):
            ontology.add_subclass(classes[i], classes[parent])
    n_locals = draw(st.integers(min_value=2, max_value=8))
    for j in range(n_locals):
        # l0 is always typed; the others may be untyped or multiply typed
        for cls in draw(st.sets(st.integers(0, n_classes - 1), min_size=int(j == 0), max_size=3)):
            ontology.add_instance(EX[f"l{j}"], classes[cls])

    graph = Graph()
    links = []
    for i in range(draw(st.integers(min_value=2, max_value=16))):
        external = EX[f"e{i}"]
        for prop in PROPERTIES:
            for value in draw(st.lists(st.sampled_from(VALUES), max_size=3)):
                graph.add(Triple(external, prop, Literal(value)))
        links.append(SameAsLink(external, EX[f"l{draw(st.integers(0, n_locals - 1))}"]))
    return ontology, TrainingSet(links, external=graph, ontology=ontology)


@st.composite
def configs(draw, total, properties=st.sampled_from([PROPERTIES[:1], PROPERTIES, None])):
    """A learner config whose threshold sits on or next to a count boundary.

    ``k / |TS|`` exactly, or rounded to 2–4 decimals (just above or
    below it); small ``k`` are favoured so that rules survive.
    """
    k = draw(st.integers(0, min(3, total - 1)) | st.integers(0, total - 1))
    threshold = k / total
    places = draw(st.none() | st.integers(2, 4))
    if places is not None:
        threshold = min(round(threshold, places), 1 - 10**-places)
    return LearnerConfig(
        properties=draw(properties),
        support_threshold=threshold,
        strict_threshold=draw(st.booleans()),
    )


@given(world=worlds(), data=st.data())
def test_batch_learner_equals_scan(world, data):
    _, training_set = world
    config = data.draw(configs(len(training_set)))
    learner = RuleLearner(config)
    rules = learner.learn(training_set)
    expected, statistics = oracle.learn_scan(config, training_set)
    assert rules.rules == expected.rules
    assert learner.statistics == statistics


@given(world=worlds(), data=st.data())
def test_incremental_batches_equal_scan(world, data):
    ontology, training_set = world
    config = data.draw(configs(len(training_set), st.sampled_from([PROPERTIES[:1], PROPERTIES])))
    links = list(training_set.links)
    # every link at least once, in any order, some of them again
    stream = data.draw(st.permutations(links)) + data.draw(
        st.lists(st.sampled_from(links), max_size=len(links))
    )
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=4)))
    resume_at = data.draw(st.integers(0, len(cuts)))
    learner = IncrementalRuleLearner(config, ontology)
    for n, (start, stop) in enumerate(zip([0, *cuts], [*cuts, len(stream)])):
        if n == resume_at:
            # warm start from a serialized bundle state mid-stream
            payload = json.loads(json.dumps(training_state_to_payload(learner.to_state())))
            learner = IncrementalRuleLearner.from_state(
                training_state_from_payload(payload), ontology
            )
        learner.add_links(stream[start:stop], training_set.external_graph)
    expected, statistics = oracle.learn_scan(config, training_set)
    assert learner.total_links == len(training_set)
    assert learner.rules().rules == expected.rules
    assert learner.statistics() == statistics


@given(world=worlds(), data=st.data())
def test_conjunctive_learner_equals_scan(world, data):
    _, training_set = world
    config = data.draw(configs(len(training_set)))
    min_confidence_gain = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    shipped = ConjunctiveRuleLearner(config, min_confidence_gain).learn(training_set)
    assert shipped == oracle.learn_conjunctive_scan(config, min_confidence_gain, training_set)


# lifts need split conclusions with a common superclass: bias towards them
@given(world=worlds(st.integers(3, 6), rooted=st.just(True)) | worlds(), data=st.data())
def test_generalizer_equals_scan(world, data):
    ontology, training_set = world
    config = data.draw(configs(len(training_set)))
    rules = RuleLearner(config).learn(training_set)
    generalizer = RuleGeneralizer(
        ontology,
        min_confidence_gain=data.draw(st.sampled_from([0.0, 0.05])),
        max_depth_lift=data.draw(st.sampled_from([None, 1])),
    )
    shipped = generalizer.generalize(rules, training_set)
    assert shipped == oracle.generalize_scan(generalizer, rules, training_set)


def _meets(count, total, th, strict):
    return count / total > th if strict else count / total >= th


@given(
    th=st.integers(2, 4).flatmap(lambda d: st.integers(0, 10**d - 1).map(lambda n: n / 10**d)),
    total=st.integers(1, 20_000),
    strict=st.booleans(),
)
def test_min_count_is_the_smallest_count_over_the_threshold(th, total, strict):
    count = LearnerConfig(support_threshold=th, strict_threshold=strict).min_count(total)
    assert count >= 1
    assert _meets(count, total, th, strict)
    assert count == 1 or not _meets(count - 1, total, th, strict)


@pytest.mark.parametrize(
    "th, strict, expected",
    [
        # 0.29 * 100 == 28.999999999999996, but 29 / 100 > 0.29 is False
        (0.29, True, 30),
        (0.57, True, 58),
        # 0.07 * 100 == 7.000000000000001, but 7 / 100 >= 0.07 is True
        (0.07, False, 7),
    ],
)
def test_min_count_at_float_boundaries(th, strict, expected):
    assert LearnerConfig(support_threshold=th, strict_threshold=strict).min_count(100) == expected
