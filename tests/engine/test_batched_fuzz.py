"""Differential fuzz: batched columnar scoring vs the pairwise path.

The batched scorer promises *exactly* the pairwise path's output — same
matches, same possible band, same candidate order, same scores — for any
record store, any comparator configuration and any decider. Hypothesis
generates all three sides: random multi-valued, partially-populated
record stores over a small shared vocabulary (so duplicate field
signatures and whole-profile collisions actually occur), random
comparator stacks (per-field similarity function, weight and
missing-value policy), and both threshold and trained Fellegi-Sunter
deciders. A thinner executor-matrix leg re-checks the invariant through
the process and shard pools.

The chunk-level leg drives one :class:`BatchScorer` directly against the
pairwise chunk runner: candidate ids missing from either store, stores
mutated (version bumped, records replaced in place) between two runs of
the same scorer, and each chunk scored twice, cold and then from the
warm memo. Single- and multi-field comparators over single- and
multi-valued fields reach every memo level the scorer keeps or skips.

The early-exit leg aims at the scorer's exact bound: Jaro-Winkler
comparators (plain, or a ``partial`` with its own prefix parameters)
over values from a three-letter alphabet with shared stems, so
character counts collide and common prefixes run long, under threshold
deciders whose floor sits exactly on a drawn pair's similarity or on
its bound.
"""

import math
import os
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BatchScorer, JobConfig, LinkingJob
from repro.engine.batch import _character_bags, _winkler_bound
from repro.engine.executors.chunked import ChunkRunner
from repro.linking import (
    FellegiSunterMatcher,
    FieldComparator,
    Record,
    RecordComparator,
    RecordStore,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.rdf import EX
from repro.text.normalize import normalize_value
from repro.text.similarity import (
    jaro_winkler_similarity,
    lcs_similarity,
    levenshtein_similarity,
    qgram_cosine_similarity,
)

SIMILARITIES = (
    jaro_winkler_similarity,
    levenshtein_similarity,
    qgram_cosine_similarity,
    lcs_similarity,
)

FIELDS = ("pn", "maker", "grade")

#: Small vocabulary with shared prefixes: blocking groups collide, field
#: signatures repeat, and whole-record profiles occasionally coincide.
VOCAB = (
    "crcw-10k", "crcw-22k", "crcw-10r", "t83-220", "t83-470",
    "abc-999", "abc-998", "Acme Corp", "acme corp", "tantalex",
)


@st.composite
def field_maps(draw):
    fields = {}
    for field in FIELDS:
        values = draw(st.lists(st.sampled_from(VOCAB), min_size=0, max_size=2))
        if values:
            fields[field] = tuple(values)
    if "pn" not in fields:  # keep every record blockable
        fields["pn"] = (draw(st.sampled_from(VOCAB)),)
    return fields


@st.composite
def record_stores(draw, prefix, min_size=2, max_size=10):
    records = [
        Record(id=EX[f"{prefix}{index}"], fields=draw(field_maps()))
        for index in range(draw(st.integers(min_value=min_size, max_value=max_size)))
    ]
    return RecordStore(records)


@st.composite
def comparators(draw):
    names = draw(
        st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3, unique=True)
    )
    return RecordComparator(
        [
            FieldComparator(
                name,
                similarity=draw(st.sampled_from(SIMILARITIES)),
                weight=draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))),
                missing_value=draw(st.sampled_from((0.0, 0.25, 0.5))),
            )
            for name in names
        ]
    )


@st.composite
def deciders(draw, comparator):
    if draw(st.booleans()):
        match = draw(st.sampled_from((0.7, 0.8, 0.9, 0.95)))
        possible = draw(st.sampled_from((None, 0.5, 0.6)))
        return ThresholdMatcher(match_threshold=match, possible_threshold=possible)
    pairs = [
        (
            Record(id=EX[f"tl{i}"], fields={"pn": (value,), "maker": (value,)}),
            Record(id=EX[f"tr{i}"], fields={"pn": (value,), "maker": (value,)}),
        )
        for i, value in enumerate(VOCAB[:4])
    ]
    non = [
        (
            Record(id=EX[f"nl{i}"], fields={"pn": (a,), "maker": (a,)}),
            Record(id=EX[f"nr{i}"], fields={"pn": (b,), "maker": (b,)}),
        )
        for i, (a, b) in enumerate(zip(VOCAB[:3], VOCAB[5:8]))
    ]
    return FellegiSunterMatcher(
        comparator,
        agreement_threshold=draw(st.sampled_from((0.8, 0.9))),
    ).train(pairs, non)


class PlainDecider:
    """A decider without ``compile_batched``: decided per pair."""

    def __init__(self, inner):
        self._inner = inner

    def decide(self, vector):
        return self._inner.decide(vector)


@st.composite
def linking_problems(draw):
    comparator = draw(comparators())
    return (
        draw(record_stores("e")),
        draw(record_stores("l")),
        comparator,
        draw(deciders(comparator)),
    )


def run(external, local, comparator, decider, **config):
    return LinkingJob(
        StandardBlocking.on_field_prefix("pn", length=3),
        comparator,
        decider,
        JobConfig(chunk_size=4, **config),
    ).run(external, local)


def assert_identical(a, b):
    assert a.matches == b.matches
    assert a.possible == b.possible
    assert a.candidate_pairs == b.candidate_pairs
    assert a.compared == b.compared


@given(linking_problems())
@settings(max_examples=120, deadline=None)
def test_batched_equals_pairwise(problem):
    external, local, comparator, decider = problem
    pairwise = run(
        external, local, comparator, decider, executor="serial", scoring="pairwise"
    )
    batched = run(
        external, local, comparator, decider,
        executor="serial", scoring="batched",
    )
    assert_identical(batched, pairwise)
    assert batched.stats.scoring == "batched"
    # exact score equality, not approx: same floats or the digest splits
    for a, b in zip(batched.matches, pairwise.matches):
        assert a.score == b.score
        assert a.vector.similarities == b.vector.similarities
        assert a.vector.aggregate == b.vector.aggregate


@given(linking_problems())
@settings(max_examples=60, deadline=None)
def test_batched_memo_counters_account_for_every_pair(problem):
    external, local, comparator, decider = problem
    result = run(
        external, local, comparator, decider,
        executor="serial", scoring="batched",
    )
    stats = result.stats
    assert stats.batch_pair_hits + stats.batch_pair_misses == result.compared
    assert stats.batch_pair_misses <= result.compared
    assert stats.cache_hits == 0 and stats.cache_misses == 0


@given(linking_problems(), st.sampled_from(("process", "shard")))
@settings(max_examples=12, deadline=None)
def test_batched_equals_pairwise_under_pool_executors(problem, executor):
    """Thin pooled leg: workers chunk, score and fold concurrently, yet
    both scoring modes still agree byte-for-byte."""
    external, local, comparator, decider = problem
    pairwise = run(
        external, local, comparator, decider, executor="serial", scoring="pairwise"
    )
    batched = run(
        external, local, comparator, decider,
        executor=executor, workers=2, scoring="batched",
    )
    assert_identical(batched, pairwise)
    assert batched.stats.executor == executor
    assert batched.stats.fallback_reason is None


# ----------------------------------------------------------------------
# chunk level: one scorer, ghost ids, mutated stores, warm re-runs
# ----------------------------------------------------------------------
@st.composite
def any_deciders(draw, comparator):
    decider = draw(deciders(comparator))
    return PlainDecider(decider) if draw(st.booleans()) else decider


def candidate_lists(store_ext, store_loc):
    """Pairs over the stores' ids plus ids neither store holds."""
    ext_ids = [r.id for r in store_ext] + [EX["ghost-e"]]
    loc_ids = [r.id for r in store_loc] + [EX["ghost-l"]]
    return st.lists(
        st.tuples(st.sampled_from(ext_ids), st.sampled_from(loc_ids)),
        min_size=1,
        max_size=40,
    )


def mutate(data, store, prefix):
    """Replace some records in place and add new ones (bumps version)."""
    ids = [r.id for r in store]
    edits = data.draw(
        st.lists(st.one_of(st.sampled_from(ids), st.none()), min_size=1, max_size=4)
    )
    for index, record_id in enumerate(edits):
        if record_id is None:
            record_id = EX[f"{prefix}new{index}"]
        store.add(Record(id=record_id, fields=data.draw(field_maps())))


def pairwise_chunk(pairs, external, local, comparator, decider):
    outcome = ChunkRunner(
        external, local, comparator, decider, 0, scoring="pairwise"
    ).run_chunk(pairs)
    return outcome.pairs, outcome.decisions


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_one_scorer_equals_pairwise_across_ghosts_and_mutations(data):
    comparator = data.draw(comparators())
    decider = data.draw(any_deciders(comparator))
    external = data.draw(record_stores("e"))
    local = data.draw(record_stores("l"))
    scorer = BatchScorer(comparator, decider)
    assert (scorer._field_memos is None) == (len(comparator.comparators) == 1)
    for _ in range(2):
        pairs = data.draw(candidate_lists(external, local))
        expected = pairwise_chunk(pairs, external, local, comparator, decider)
        assert scorer.score_chunk(pairs, external, local) == expected
        # the same pairs again, answered from the memo just filled
        assert scorer.score_chunk(pairs, external, local) == expected
        mutate(data, external, "e")
        mutate(data, local, "l")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_caller_scorer_equals_pairwise_across_store_mutation(data):
    """Job level: a caller-provided scorer (the streaming engine's warm
    scorer) over two runs with both stores mutated in between."""
    comparator = data.draw(comparators())
    decider = data.draw(any_deciders(comparator))
    external = data.draw(record_stores("e"))
    local = data.draw(record_stores("l"))
    scorer = BatchScorer(comparator, decider)
    for _ in range(2):
        batched = LinkingJob(
            StandardBlocking.on_field_prefix("pn", length=3),
            comparator,
            decider,
            JobConfig(chunk_size=4, executor="serial"),
            batch_scorer=scorer,
        ).run(external, local)
        pairwise = run(
            external, local, comparator, decider,
            executor="serial", scoring="pairwise",
        )
        assert_identical(batched, pairwise)
        for a, b in zip(batched.matches, pairwise.matches):
            assert a.vector.similarities == b.vector.similarities
        mutate(data, external, "e")
        mutate(data, local, "l")


# ----------------------------------------------------------------------
# the exact early exit: floors on a pair's similarity or on its bound
# ----------------------------------------------------------------------
#: Kept near 3 s under the default profile; the pinned CI profile runs
#: the long leg.
EARLY_EXIT_EXAMPLES = 1000 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 150

#: ``(prefix_scale, max_prefix)`` pairs the kernel accepts, default first.
WINKLER_PARAMETERS = ((0.1, 4), (0.125, 8), (0.2, 5), (0.25, 4), (0.05, 20), (0.0, 0))


@st.composite
def winkler_comparators(draw):
    names = draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3, unique=True))
    fields = []
    for name in names:
        prefix_scale, max_prefix = draw(st.sampled_from(WINKLER_PARAMETERS))
        similarity = (
            jaro_winkler_similarity
            if (prefix_scale, max_prefix) == WINKLER_PARAMETERS[0] and draw(st.booleans())
            else partial(
                jaro_winkler_similarity, prefix_scale=prefix_scale, max_prefix=max_prefix
            )
        )
        fields.append(
            FieldComparator(
                name,
                similarity=similarity,
                weight=draw(st.sampled_from((0.3, 1.0, 2.0, 3.0))),
                missing_value=draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
            )
        )
    return RecordComparator(fields)


@st.composite
def small_alphabet_stores(draw, prefix):
    # one stem longer than the default prefix cap, so a partial's own
    # cap is what the bound must read
    stems = [draw(st.text("abc", min_size=5, max_size=8))]
    stems += draw(st.lists(st.text("abc", max_size=4), max_size=1))
    value = st.builds(
        lambda stem, tail: stem + tail, st.sampled_from(stems), st.text("xy-", max_size=2)
    )
    records = []
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        fields = {}
        for field in FIELDS:
            values = draw(st.lists(value, max_size=2))
            if values:
                fields[field] = tuple(values)
        records.append(Record(id=EX[f"{prefix}{index}"], fields=fields))
    return RecordStore(records)


def aggregate_bound(comparator, left, right):
    """The bound of the pair's aggregate, as the scorer sums it."""
    bag_of = _character_bags()
    weighted = 0.0
    for field in comparator.comparators:
        prefix = getattr(field.similarity, "keywords", {})
        left_values = [normalize_value(v) for v in left.values(field.field_name)]
        right_values = [normalize_value(v) for v in right.values(field.field_name)]
        if not left_values or not right_values:
            bound = field.missing_value
        else:
            bound = max(
                _winkler_bound(
                    bag_of(a), max(len(a), 1), bag_of(b), max(len(b), 1),
                    prefix.get("prefix_scale", 0.1), prefix.get("max_prefix", 4),
                )
                for a in left_values
                for b in right_values
            )
        weighted += field.weight * bound
    return weighted / sum(c.weight for c in comparator.comparators)


@st.composite
def exact_floors(draw, comparator, external, local):
    """A floor on a drawn pair's aggregate or one ulp below it, or on
    the pair's bound — always inside the threshold matcher's ``[0, 1]``."""
    left = draw(st.sampled_from(list(external)))
    right = draw(st.sampled_from(list(local)))
    aggregate = comparator.compare(left, right).aggregate
    floor = draw(
        st.sampled_from(
            (
                aggregate,
                math.nextafter(aggregate, 0.0),
                aggregate_bound(comparator, left, right),
            )
        )
    )
    return min(max(floor, 0.0), 1.0)


@given(st.data())
@settings(max_examples=EARLY_EXIT_EXAMPLES, deadline=None)
def test_bounded_scorer_equals_pairwise_at_exact_floors(data):
    comparator = data.draw(winkler_comparators())
    external = data.draw(small_alphabet_stores("e"))
    local = data.draw(small_alphabet_stores("l"))
    match = data.draw(exact_floors(comparator, external, local))
    possible = data.draw(st.one_of(st.none(), exact_floors(comparator, external, local)))
    if possible is not None:
        possible = min(possible, match)  # a band below match, or none wide
    decider = ThresholdMatcher(match_threshold=match, possible_threshold=possible)
    scorer = BatchScorer(comparator, decider)
    everything = [(a.id, b.id) for a in external for b in local]
    some = data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=12))
    # a cold run over some pairs warms the memo the full run then reuses
    for pairs in (some, everything):
        expected = pairwise_chunk(pairs, external, local, comparator, decider)
        assert scorer.score_chunk(pairs, external, local) == expected
    assert scorer.pair_bounded <= scorer.pair_misses
