"""Hypothesis differential: work-unit round trip ≡ in-process shard scan.

The protocol's core claim is that serialization is *transparent*: for
any supported blocking method, any stores and any shard plan, encoding
a :class:`ShardWorkUnit` to its JSON envelope, decoding it back and
executing it yields the exact :class:`ShardOutcome` the in-process scan
produces — group sort keys, decision wires, float scores and counters
all byte-equal after the JSON round trip. The worker-result envelope
must be transparent the same way.

Five blocking classes are driven generatively (full, prefix, q-gram,
sorted-neighbourhood, canopy) over a vocabulary engineered for key
collisions and ties; rule-based blocking — whose spec additionally
round-trips learned rules, the ontology and the external graph — rides
a deterministic catalog workload below.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executors.chunked import ChunkRunner
from repro.engine.executors.protocol import (
    build_work_units,
    decode_work_unit,
    decode_worker_result,
    encode_work_unit,
    encode_worker_result,
    execute_work_unit,
    work_unit_unsupported_reason,
)
from repro.engine.executors.sharded import run_shard_scan
from repro.engine.shard import ShardPlan
from repro.linking import (
    CanopyBlocking,
    FieldComparator,
    FullIndex,
    QGramBlocking,
    Record,
    RecordComparator,
    RecordStore,
    SortedNeighbourhood,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.rdf import EX

#: Shared prefixes, shared grams, duplicates and an empty value — the
#: same collision-heavy vocabulary the shard fuzz layer uses, so dedup,
#: tie-break and empty-profile edges fire inside serialized units too.
VOCAB = (
    "crcw-10k", "crcw-22k", "crcw-10r", "t83-220", "t83-470",
    "abc-999", "abc-998", "ab", "a", "",
)


@st.composite
def record_stores(draw, prefix, min_size=2, max_size=8):
    records = []
    for index in range(draw(st.integers(min_value=min_size, max_value=max_size))):
        records.append(
            Record(id=EX[f"{prefix}{index}"], fields={"pn": (draw(st.sampled_from(VOCAB)),)})
        )
    return RecordStore(records)


@st.composite
def blockings(draw):
    kind = draw(st.sampled_from(("full", "prefix", "qgram", "sorted", "canopy")))
    if kind == "full":
        return FullIndex()
    if kind == "prefix":
        return StandardBlocking.on_field_prefix(
            "pn", length=draw(st.sampled_from((2, 3, 4)))
        )
    if kind == "qgram":
        return QGramBlocking(
            "pn",
            q=draw(st.sampled_from((1, 2, 3))),
            threshold=draw(st.sampled_from((0.3, 0.5, 0.8))),
            max_grams=draw(st.sampled_from((4, 8))),
        )
    if kind == "sorted":
        return SortedNeighbourhood.on_field(
            "pn", window_size=draw(st.sampled_from((2, 3, 5)))
        )
    loose, tight = draw(st.sampled_from(((0.3, 0.8), (0.5, 0.5), (0.2, 0.9))))
    return CanopyBlocking("pn", loose=loose, tight=tight)


def _assert_roundtrip_transparent(blocking, external, local, shards, scoring):
    comparator = RecordComparator([FieldComparator("pn")])
    decider = ThresholdMatcher(match_threshold=0.85)
    assert work_unit_unsupported_reason(blocking, comparator, decider) is None
    plan = ShardPlan.build(shards)
    units = build_work_units(
        blocking, comparator, decider, external, local, plan, scoring, 512
    )
    assert len(units) == shards
    for unit in units:
        decoded = decode_work_unit(encode_work_unit(unit))
        wired = execute_work_unit(decoded)
        direct = run_shard_scan(
            blocking,
            external,
            local,
            ChunkRunner(external, local, comparator, decider, 512, scoring=scoring),
            plan,
            unit.shard,
        )
        assert wired == direct
        # the result envelope is transparent too
        assert decode_worker_result(encode_worker_result(wired)) == direct


@settings(max_examples=30, deadline=None)
@given(
    external=record_stores("e"),
    local=record_stores("l"),
    blocking=blockings(),
    shards=st.sampled_from((1, 2, 3)),
    scoring=st.sampled_from(("pairwise", "batched")),
)
def test_unit_roundtrip_is_transparent(external, local, blocking, shards, scoring):
    _assert_roundtrip_transparent(blocking, external, local, shards, scoring)


@functools.lru_cache(maxsize=1)
def _rules_workload():
    """A deterministic rule-blocked workload (catalog, learned rules)."""
    from repro.core.classifier import RuleClassifier
    from repro.core.learner import LearnerConfig, RuleLearner
    from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
    from repro.datagen.config import CatalogConfig
    from repro.experiments.throughput import provider_batch
    from repro.linking import RuleBasedBlocking

    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny(seed=29)).generate()
    rules = RuleLearner(
        LearnerConfig(properties=(PART_NUMBER,), support_threshold=0.002)
    ).learn(catalog.to_training_set())
    graph, _ = provider_batch(catalog, 25, seed=29)
    external = RecordStore.from_graph(graph, {"pn": PART_NUMBER})
    local = RecordStore.from_graph(catalog.local_graph, {"pn": PART_NUMBER})

    def make_blocking(fallback_full):
        return RuleBasedBlocking(
            RuleClassifier(rules.with_min_confidence(0.4)),
            catalog.ontology,
            graph,
            fallback_full=fallback_full,
        )

    return make_blocking, external, local


@settings(max_examples=8, deadline=None)
@given(
    fallback_full=st.booleans(),
    shards=st.sampled_from((2, 3)),
    scoring=st.sampled_from(("pairwise", "batched")),
)
def test_rules_blocking_roundtrip_is_transparent(fallback_full, shards, scoring):
    """The sixth blocking class: the spec carries learned rules, the
    ontology and the external graph across the wire, and the restored
    classifier blocks identically."""
    make_blocking, external, local = _rules_workload()
    _assert_roundtrip_transparent(
        make_blocking(fallback_full), external, local, shards, scoring
    )
