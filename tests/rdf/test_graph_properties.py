"""Differential fuzz: the lazily indexed ``Graph`` against the eager one.

The shipped :class:`~repro.rdf.graph.Graph` keeps only its SPO index
until a query with the subject a wildcard and the predicate or object
bound first needs POS and OSP. The oracle in ``tests/oracles/graph.py``
keeps all three on every write. Random interleavings of ``add``,
``remove``, ``remove_matching`` and every query shape run against both,
with mutations before and after the first predicate- or object-led
query; each answer is compared with the oracle's as a set (index order
is not part of the contract), and the distinct-term iterators must yield
each term once.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Literal
from repro.rdf.triples import Triple
from tests.oracles.graph import EagerGraph

# a small universe, so that adds collide, removes hit and every index
# level empties and refills
_IRIS = [IRI(f"http://t.example/n{i}") for i in range(4)]
_PREDICATES = [IRI(f"http://t.example/p{i}") for i in range(3)]
_SUBJECTS = _IRIS + [BNode("b0"), BNode("b1")]
_OBJECTS = _SUBJECTS + [Literal("x"), Literal("y"), Literal("x", language="en")]

subjects = st.sampled_from(_SUBJECTS)
predicates = st.sampled_from(_PREDICATES)
objects = st.sampled_from(_OBJECTS)
triples = st.builds(Triple, subjects, predicates, objects)


def _maybe(strategy):
    return st.none() | strategy


_patterns = st.tuples(_maybe(subjects), _maybe(predicates), _maybe(objects))

_subject_led_patterns = st.one_of(
    st.tuples(subjects, _maybe(predicates), _maybe(objects)),
    st.just((None, None, None)),
)

# mutations the shipped graph carries out on SPO alone ...
spo_mutations = st.one_of(
    st.tuples(st.just("add"), triples),
    st.tuples(st.just("remove"), triples),
    st.tuples(st.just("remove_matching"), _subject_led_patterns),
)
mutations = st.one_of(
    spo_mutations, st.tuples(st.just("remove_matching"), _patterns)
)
# ... and the reads it answers from SPO alone
subject_led = st.one_of(
    st.tuples(st.just("triples"), _subject_led_patterns),
    st.tuples(st.just("subjects"), st.just((None, None))),
    st.tuples(st.just("predicates"), st.tuples(_maybe(subjects), st.none())),
    st.tuples(st.just("objects"), st.tuples(subjects, _maybe(predicates))),
    st.tuples(st.just("objects"), st.just((None, None))),
    st.tuples(st.just("value"), st.tuples(subjects, _maybe(predicates), st.none())),
    st.tuples(st.just("literal_values"), st.tuples(subjects, predicates)),
    st.tuples(st.just("len"), st.just(())),
    st.tuples(st.just("contains"), triples),
    st.tuples(st.just("copy"), st.just(())),
)
any_query = st.one_of(
    subject_led,
    st.tuples(st.just("triples"), _patterns),
    st.tuples(st.just("subjects"), st.tuples(_maybe(predicates), _maybe(objects))),
    st.tuples(st.just("predicates"), st.tuples(_maybe(subjects), _maybe(objects))),
    st.tuples(st.just("objects"), st.tuples(_maybe(subjects), _maybe(predicates))),
    st.tuples(st.just("value"), _patterns),
)
# the first predicate- or object-led call, which builds POS/OSP in the
# shipped graph
first_led = st.one_of(
    st.tuples(st.just("triples"), st.tuples(st.none(), predicates, _maybe(objects))),
    st.tuples(st.just("triples"), st.tuples(st.none(), st.none(), objects)),
    st.tuples(st.just("subjects"), st.tuples(predicates, _maybe(objects))),
    st.tuples(st.just("predicates"), st.tuples(st.none(), objects)),
    st.tuples(st.just("objects"), st.tuples(st.none(), predicates)),
    st.tuples(st.just("value"), st.tuples(st.none(), _maybe(predicates), objects)),
    st.tuples(st.just("remove_matching"), st.tuples(st.none(), predicates, _maybe(objects))),
)


def _distinct(terms):
    terms = list(terms)
    assert len(terms) == len(set(terms)), terms
    return set(terms)


def _value_candidates(oracle, s, p, o):
    if s is None and o is not None:
        return {t.subject for t in oracle.triples(None, p, o)}
    return {t.object for t in oracle.triples(s, p, None)}


def _apply(graph, oracle, op):
    name, args = op
    if name in ("add", "remove"):
        assert getattr(graph, name)(args) == getattr(oracle, name)(args)
    elif name == "remove_matching":
        assert graph.remove_matching(*args) == oracle.remove_matching(*args)
    elif name == "triples":
        assert _distinct(graph.triples(*args)) == set(oracle.triples(*args))
    elif name in ("subjects", "predicates", "objects"):
        got = _distinct(getattr(graph, name)(*args))
        assert got == set(getattr(oracle, name)(*args))
    elif name == "value":
        got = graph.value(*args)
        candidates = _value_candidates(oracle, *args)
        assert (got is None) == (not candidates)
        assert got is None or got in candidates
    elif name == "literal_values":
        assert Counter(graph.literal_values(*args)) == Counter(
            oracle.literal_values(*args)
        )
    elif name == "len":
        assert len(graph) == len(oracle)
        assert bool(graph) == (len(oracle) > 0)
    elif name == "contains":
        assert (args in graph) == (args in oracle)
    elif name == "copy":
        duplicate = graph.copy()
        assert set(duplicate) == set(oracle.triples())
        assert len(duplicate) == len(oracle)
    else:  # pragma: no cover - strategy and dispatcher out of step
        raise AssertionError(name)


def _check_full_state(graph, oracle):
    assert len(graph) == len(oracle)
    everything = set(oracle.triples())
    assert _distinct(graph.triples()) == everything
    for triple in everything:
        assert triple in graph


@settings(max_examples=300, deadline=None)
@given(
    before=st.lists(st.one_of(spo_mutations, subject_led), max_size=30),
    first=first_led,
    after=st.lists(st.one_of(mutations, any_query), max_size=40),
)
def test_lazy_graph_answers_like_the_eager_oracle(before, first, after):
    graph, oracle = Graph(), EagerGraph()
    for op in before:
        _apply(graph, oracle, op)
    # subject-led reads and full scans never build the secondary indexes
    assert graph._secondary is None
    _check_full_state(graph, oracle)
    _apply(graph, oracle, first)
    assert graph._secondary is not None
    for op in after:
        _apply(graph, oracle, op)
    _check_full_state(graph, oracle)
    # the maintained indexes answer every predicate- and object-led
    # pattern exactly as a fresh build from SPO would
    for p in _PREDICATES:
        assert set(graph.triples(None, p, None)) == set(oracle.triples(None, p, None))
    for o in _OBJECTS:
        assert set(graph.triples(None, None, o)) == set(oracle.triples(None, None, o))


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.one_of(mutations, any_query), max_size=60))
def test_free_interleavings_match_the_oracle(ops):
    graph, oracle = Graph(), EagerGraph()
    for op in ops:
        _apply(graph, oracle, op)
    _check_full_state(graph, oracle)
