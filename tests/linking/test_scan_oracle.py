"""Differential tests: every index-backed blocking class against its scan oracle.

``tests/oracles/blocking.py`` keeps the scan implementations the
shipped classes replaced: a fresh key -> ids dict per run instead of a
:class:`~repro.index.RecordKeyIndex`, and one ``predict`` per record
instead of the batched rule index. Every comparison here is exact
``==`` on the emitted sequence, so order counts, not just the pair set:

* ``candidate_pairs`` of each class equals the oracle's sequence;
* the ``shard_candidate_pairs`` streams of every shard, merged on their
  group keys, equal the same sequence.

Classes: prefix blocking (shared index), standard blocking on unsigned
keys (private per-run index), q-gram blocking over several ``q`` /
threshold / ``max_grams`` settings, and rule-based blocking with
``fallback_full`` both ways. Stores are random over a small vocabulary
so keys collide, records share several q-gram keys (the dedup path) and
empty values occur.
"""

import functools
import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LearnerConfig, RuleClassifier, RuleLearner, SameAsLink, TrainingSet
from repro.engine.shard import ShardPlan
from repro.linking import (
    QGramBlocking,
    Record,
    RecordStore,
    RuleBasedBlocking,
    StandardBlocking,
)
from repro.ontology import Ontology
from repro.rdf import EX, Graph, Literal, Triple
from repro.text import soundex
from tests.oracles import blocking as oracle

VALUES = st.one_of(
    st.sampled_from(
        ("crcw-10k", "crcw-22k", "crcw-10r", "t83-220", "t83-470",
         "abc-999", "abc-998", "ab", "a", "", "ohm-100", "uf-20", "uf-ohm")
    ),
    st.text(alphabet="ab-é1 ", max_size=8),
)


@st.composite
def record_stores(draw, prefix, max_size=10):
    values = draw(st.lists(VALUES, max_size=max_size))
    return RecordStore(
        Record(id=EX[f"{prefix}{index}"], fields={"pn": (value,)} if value else {})
        for index, value in enumerate(values)
    )


def assert_matches_oracle(blocking, external, local, expected):
    """Serial sequence and every shard-count merge equal *expected*."""
    assert list(blocking.candidate_pairs(external, local)) == expected
    for shards in (1, 2, 3):
        plan = ShardPlan.build(shards, blocking.shard_block_sizes(external, local))
        streams = [
            list(blocking.shard_candidate_pairs(external, local, plan, shard))
            for shard in range(plan.shards)
        ]
        merged = heapq.merge(*streams, key=lambda entry: entry[0])
        assert [(ext, loc) for _, ext, loc in merged] == expected


@settings(max_examples=60, deadline=None)
@given(
    external=record_stores("e"),
    local=record_stores("l"),
    length=st.integers(min_value=1, max_value=5),
)
def test_prefix_blocking_equals_scan(external, local, length):
    assert_matches_oracle(
        StandardBlocking.on_field_prefix("pn", length=length),
        external,
        local,
        oracle.key_blocking_pairs(oracle.prefix_keys("pn", length), external, local),
    )


def _last_char(record):
    return record.value("pn")[-1:]


UNSIGNED_KEYS = {
    "last-char": StandardBlocking(_last_char),
    "soundex": StandardBlocking.on_field_transform("pn", soundex),
}


@settings(max_examples=60, deadline=None)
@given(
    external=record_stores("e"),
    local=record_stores("l"),
    name=st.sampled_from(sorted(UNSIGNED_KEYS)),
)
def test_unsigned_key_blocking_equals_scan(external, local, name):
    blocking = UNSIGNED_KEYS[name]
    assert_matches_oracle(
        blocking,
        external,
        local,
        oracle.key_blocking_pairs(oracle.single_key(blocking._key), external, local),
    )


@settings(max_examples=100, deadline=None)
@given(
    external=record_stores("e"),
    local=record_stores("l"),
    q=st.sampled_from((1, 2, 3)),
    threshold=st.sampled_from((0.3, 0.5, 0.8, 1.0)),
    max_grams=st.sampled_from((3, 4, 8, 12)),
)
def test_qgram_blocking_equals_scan(external, local, q, threshold, max_grams):
    assert_matches_oracle(
        QGramBlocking("pn", q=q, threshold=threshold, max_grams=max_grams),
        external,
        local,
        oracle.key_blocking_pairs(
            oracle.qgram_keys("pn", q, threshold, max_grams), external, local
        ),
    )


#: (external id, part number, local id, local class) — the training
#: links the rule world below learns from.
TRAINING = (
    ("e1", "ohm-100", "l1", "Resistor"),
    ("e2", "ohm-200", "l2", "Resistor"),
    ("e3", "ohm-300", "l3", "Resistor"),
    ("e4", "uf-10", "l4", "Capacitor"),
    ("e5", "uf-20", "l5", "Capacitor"),
    ("e6", "uf-ohm", "l6", "Capacitor"),
    ("e7", "t83-1", "l7", "Capacitor"),
    ("e8", "t83-2", "l8", "Capacitor"),
    ("e9", "xyz", "l9", "Resistor"),
)


@functools.lru_cache(maxsize=1)
def rule_world():
    """An ontology and a classifier whose rules fire on ohm/uf/t83."""
    ontology = Ontology()
    for cls in ("Resistor", "Capacitor"):
        ontology.add_subclass(EX[cls], EX.Component)
    for _, _, local_id, cls in TRAINING:
        ontology.add_instance(EX[local_id], EX[cls])
    graph = Graph()
    for ext_id, pn, _, _ in TRAINING:
        graph.add(Triple(EX[ext_id], EX.partNumber, Literal(pn)))
    links = [SameAsLink(external=EX[e], local=EX[l]) for e, _, l, _ in TRAINING]
    rules = RuleLearner(LearnerConfig(support_threshold=0.1)).learn(
        TrainingSet(links, external=graph, ontology=ontology)
    )
    assert len(rules) > 0
    return ontology, RuleClassifier(rules)


@settings(max_examples=60, deadline=None)
@given(
    part_numbers=st.lists(VALUES, max_size=8),
    # locals l0..l11: l1..l9 are typed instances, the rest are not
    local_ids=st.lists(st.integers(min_value=0, max_value=11), unique=True, max_size=12),
    fallback_full=st.booleans(),
)
def test_rule_blocking_equals_scan(part_numbers, local_ids, fallback_full):
    ontology, classifier = rule_world()
    graph = Graph()
    records = []
    for index, pn in enumerate(part_numbers):
        ext_id = EX[f"n{index}"]
        if pn:
            graph.add(Triple(ext_id, EX.partNumber, Literal(pn)))
        records.append(Record(id=ext_id, fields={"pn": (pn,)} if pn else {}))
    external = RecordStore(records)
    local = RecordStore(Record(id=EX[f"l{i}"], fields={}) for i in local_ids)
    assert_matches_oracle(
        RuleBasedBlocking(classifier, ontology, graph, fallback_full=fallback_full),
        external,
        local,
        oracle.rule_blocking_pairs(
            classifier, ontology, graph, fallback_full, external, local
        ),
    )
