"""Differential fuzz: shard-native candidate generation vs serial.

Three layers, from plan to full engine:

* **plan properties** — Hypothesis drives :class:`ShardPlan` directly:
  every block key lands on exactly one shard and LPT keeps the heaviest
  shard within one block of the mean load;
* **partition properties** — for every shardable blocking class on
  random stores, the per-shard candidate streams partition the serial
  stream exactly (each pair owned by exactly one shard, each group sort
  key owned by exactly one shard) and the sort-key merge restores the
  serial emission order byte-for-byte;
* **engine differential** — the full job (fork pool, shard-ordered
  fold, optional batched scoring) at random shard counts stays
  byte-identical to the serial run.

The vocabulary deliberately mixes shared q-grams, shared prefixes, ties
and empty values so dedup, halo and claim edge cases actually fire.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import JobConfig, LinkingJob
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

#: Shared prefixes (prefix blocking collides), shared grams (q-gram and
#: canopy candidates overlap), duplicates (SNM ties break on id) and an
#: empty value (padded-profile edge: ``qgram_profile("")`` is not empty).
VOCAB = (
    "crcw-10k", "crcw-22k", "crcw-10r", "t83-220", "t83-470",
    "abc-999", "abc-998", "ab", "a", "",
)


@st.composite
def record_stores(draw, prefix, min_size=2, max_size=10):
    records = []
    for index in range(draw(st.integers(min_value=min_size, max_value=max_size))):
        fields = {"pn": (draw(st.sampled_from(VOCAB)),)}
        maker = draw(st.sampled_from((None, "acme", "tantalex")))
        if maker is not None:
            fields["maker"] = (maker,)
        records.append(Record(id=EX[f"{prefix}{index}"], fields=fields))
    return RecordStore(records)


@st.composite
def blockings(draw):
    kind = draw(
        st.sampled_from(("full", "standard", "qgram", "sorted", "canopy"))
    )
    if kind == "full":
        return FullIndex()
    if kind == "standard":
        return StandardBlocking.on_field_prefix(
            "pn", length=draw(st.sampled_from((2, 3, 4)))
        )
    if kind == "qgram":
        return QGramBlocking(
            "pn",
            q=draw(st.sampled_from((1, 2, 3))),
            threshold=draw(st.sampled_from((0.3, 0.5, 0.8, 1.0))),
            max_grams=draw(st.sampled_from((4, 8))),
        )
    if kind == "sorted":
        return SortedNeighbourhood.on_field(
            "pn", window_size=draw(st.sampled_from((2, 3, 5, 9)))
        )
    loose, tight = draw(
        st.sampled_from(((0.3, 0.8), (0.5, 0.5), (0.0, 0.0), (0.2, 0.9)))
    )
    return CanopyBlocking(
        "pn", loose=loose, tight=tight, q=draw(st.sampled_from((1, 2)))
    )


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.integers(min_value=1, max_value=50),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_lpt_plan_partitions_and_balances(sizes, shards):
    """Every key owns exactly one shard; LPT's classic guarantee holds:
    max load <= mean load + the largest single block (so the max/mean
    ratio is bounded by 1 + shards * max_block / total)."""
    plan = ShardPlan.build(shards, sizes)
    owners = {key: plan.shard_of(key) for key in sizes}
    assert all(0 <= shard < shards for shard in owners.values())
    # shard_of is deterministic: asking twice gives the same shard
    assert owners == {key: plan.shard_of(key) for key in sizes}
    loads = plan.loads(sizes)
    assert len(loads) == shards
    assert sum(loads) == sum(sizes.values())
    if sizes:
        mean = sum(sizes.values()) / shards
        assert max(loads) <= mean + max(sizes.values())


@given(
    record_stores("e"),
    record_stores("l"),
    blockings(),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_shard_streams_partition_the_serial_stream(
    external, local, blocking, shards
):
    """The per-shard streams are a partition of the serial stream:
    merged on their sort keys they reproduce it byte-for-byte, and no
    pair (and no group sort key) is generated by two shards."""
    serial = list(blocking.candidate_pairs(external, local))
    plan = ShardPlan.build(shards, blocking.shard_block_sizes(external, local))
    streams = [
        list(blocking.shard_candidate_pairs(external, local, plan, shard))
        for shard in range(plan.shards)
    ]
    # each stream is already ascending in its group sort keys
    for stream in streams:
        keys = [entry[0] for entry in stream]
        assert keys == sorted(keys)
    # exactly-once: sort keys are disjoint across shards
    key_owner = {}
    for shard, stream in enumerate(streams):
        for key, _, _ in stream:
            assert key_owner.setdefault(key, shard) == shard
    # the merge restores the serial emission order, nothing added or lost
    merged = heapq.merge(*streams, key=lambda entry: entry[0])
    assert [(ext, loc) for _, ext, loc in merged] == serial
    assert sum(len(stream) for stream in streams) == len(serial)


@given(
    record_stores("e"),
    record_stores("l"),
    blockings(),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_shard_job_identical_to_serial(external, local, blocking, shards, batched):
    """Full-engine leg: fork pool + shard-ordered fold + sort-key merge
    (optionally composed with batched scoring) equals the serial run."""
    comparator = RecordComparator([FieldComparator("pn")])
    matcher = ThresholdMatcher(match_threshold=0.9, possible_threshold=0.5)
    serial = LinkingJob(
        blocking, comparator, matcher, JobConfig(executor="serial", chunk_size=4)
    ).run(external, local)
    sharded = LinkingJob(
        blocking,
        comparator,
        matcher,
        JobConfig(
            executor="shard",
            workers=2,
            shards=shards,
            chunk_size=4,
            scoring="batched" if batched else "pairwise",
        ),
    ).run(external, local)
    assert sharded.stats.executor == "shard"
    assert sharded.stats.fallback_reason is None
    assert sharded.stats.shard_count == shards
    assert sharded.matches == serial.matches
    assert sharded.possible == serial.possible
    assert sharded.candidate_pairs == serial.candidate_pairs
    assert sharded.compared == serial.compared
