"""What the linking workloads share: work planning and stage calls.

``planned_cost`` sizes a seeded batch by work. The rest are the stage
calls of the traced replays: each is one call into a layer with a span
around it and the counts taken at the same boundary; the workloads
string them together in the order the engine runs them.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from harness.core import PAIR_SAMPLE, Tracer, now

Pair = Tuple[Any, Any]


def field_map(*names: str) -> Dict[str, Any]:
    from repro.datagen.catalog import MANUFACTURER, PART_NUMBER

    known = {"pn": PART_NUMBER, "maker": MANUFACTURER}
    return {name: known[name] for name in names}


#: Scoring one pair costs about as much as 15 characters of the external
#: value plus the value itself (measured: 10.5 us + 0.72 us per
#: character), so work is planned in "pair-characters".
PAIR_BASE_CHARS = 15


def planned_cost(blocking, external, local) -> Dict[Any, int]:
    """Per external record, the planned scoring work of its candidate
    pairs, in pair-characters. Sizing a batch by this, not by record or
    pair count, keeps the work of an op equal between seeds."""
    from repro.text.normalize import normalize_value

    pairs = Counter(e for e, _ in blocking.candidate_pairs(external, local))
    return {
        record.id: pairs[record.id]
        * (PAIR_BASE_CHARS + len(normalize_value(record.value("pn"))))
        for record in external
    }


def sample_pairs(pairs: Sequence[Pair]) -> List[Pair]:
    """At most ``PAIR_SAMPLE`` pairs, evenly strided so every external
    record's candidates are represented."""
    stride = -(-len(pairs) // PAIR_SAMPLE) or 1
    return list(pairs[::stride])


def candidates(tracer: Tracer, kind: str, blocking, external, local) -> List[Pair]:
    """Drain one blocking method's candidate stream (key index warm)."""
    with tracer.span(f"linking.candidates_s.{kind}") as counts:
        pairs = list(blocking.candidate_pairs(external, local))
        counts["pairs"] = len(pairs)
    return pairs


def key_index_build(tracer: Tracer, kind: str, blocking, local) -> None:
    """Build one blocking method's key index from cold.

    ``shard_block_sizes`` only reads the local side, so probing it with
    an empty external store is exactly the index build (the bundle
    builder warms indexes the same way).
    """
    from repro.index import shared_index_snapshot
    from repro.linking import RecordStore

    before = set(shared_index_snapshot(local))
    with tracer.span(f"index.key_build_s.{kind}") as counts:
        blocking.shard_block_sizes(RecordStore(), local)
        built = [
            index
            for signature, index in shared_index_snapshot(local).items()
            if signature not in before
        ]
        stats = built[0].stats() if built else None
        counts["features"] = stats.features if stats else 0
        counts["postings"] = stats.postings if stats else 0


def score(tracer: Tracer, pairs: Sequence[Pair], external, local, comparator, matcher) -> None:
    """Uncached compare, then decide, over a sample of the candidates."""
    sample = sample_pairs(pairs)
    with tracer.span("linking.compare") as counts:
        vectors = [comparator.compare(external[e], local[l]) for e, l in sample]
        counts["pairs"] = len(sample)
    with tracer.span("linking.decide") as counts:
        for vector in vectors:
            matcher.decide(vector)
        counts["pairs"] = len(sample)


def batch_score(tracer: Tracer, pairs: Sequence[Pair], external, local, comparator, matcher) -> None:
    """The columnar scorer over the same sample, fresh then memoized."""
    from repro.engine.batch import BatchScorer

    sample = sample_pairs(pairs)
    scorer = BatchScorer(comparator, matcher)
    for name in ("engine.batch_score.fresh", "engine.batch_score.memoized"):
        with tracer.span(name) as counts:
            scorer.score_chunk(sample, external, local)
            counts["pairs"] = len(sample)


def cached_compare(tracer: Tracer, pairs: Sequence[Pair], external, local, comparator) -> None:
    """The memoizing comparator over the sample, filled then warm."""
    from repro.engine import DEFAULT_CACHE_SIZE, CachedRecordComparator

    sample = sample_pairs(pairs)
    cached = CachedRecordComparator(comparator, DEFAULT_CACHE_SIZE)
    for name in ("engine.cache_fill", "engine.cached_compare"):
        with tracer.span(name) as counts:
            for e, l in sample:
                cached.compare(external[e], local[l])
            counts["pairs"] = len(sample)


def engine_counts(counts: Dict[str, Any], stats_list) -> None:
    """What the engine reported for the run(s) inside one span."""
    counts["pairs_compared"] = sum(s.pairs_compared for s in stats_list)
    counts["chunks"] = sum(s.chunk_count for s in stats_list)
    counts["cache_hits"] = sum(s.cache_hits for s in stats_list)
    counts["cache_lookups"] = sum(s.cache_hits + s.cache_misses for s in stats_list)
    counts["fallbacks"] = sum(1 for s in stats_list if s.fallback_reason)


def per_pair_ns(tracer: Tracer, name: str) -> float:
    pairs = tracer.count(name, "pairs")
    return tracer.duration(name) / pairs * 1e9 if pairs else 0.0


def engine_metrics(tracer: Tracer, stage_names: Sequence[str]) -> Dict[str, float]:
    """The ``engine.*`` and per-pair ``linking.*`` metrics of a link
    workload, from its finished spans.

    ``engine.net_overhead_s`` is the engine run minus the stages it is
    made of (*stage_names* plus compare and decide at their per-pair
    cost): chunking, fold and cache bookkeeping — negative when
    memoization wins.
    """
    run_s = tracer.duration("engine.run_s")
    compared = tracer.count("engine.run_s", "pairs_compared")
    lookups = tracer.count("engine.run_s", "cache_lookups")
    compare_ns = per_pair_ns(tracer, "linking.compare")
    decide_ns = per_pair_ns(tracer, "linking.decide")
    stages = sum(tracer.duration(name) for name in stage_names)
    out = {
        "engine.run_s": run_s,
        "engine.pairs_compared": compared,
        "engine.pairs_per_s": compared / run_s if run_s else 0.0,
        "engine.chunks": tracer.count("engine.run_s", "chunks"),
        "engine.cache_hit_rate": (
            tracer.count("engine.run_s", "cache_hits") / lookups if lookups else 0.0
        ),
        "engine.fallbacks": tracer.count("engine.run_s", "fallbacks"),
        "engine.net_overhead_s": run_s - stages - compared * (compare_ns + decide_ns) / 1e9,
        "linking.compare_ns_per_pair": compare_ns,
        "linking.decide_ns_per_pair": decide_ns,
    }
    for name in stage_names:
        out[name] = tracer.duration(name)
        if name.startswith("linking.candidates_s."):
            kind = name.rsplit(".", 1)[1]
            out[f"linking.candidate_pairs.{kind}"] = tracer.count(name, "pairs")
    return out


def text_probes(layer: Dict[str, float], external, local, pairs: Sequence[Pair]) -> None:
    """``text.normalize_ns_per_value`` and
    ``text.jaro_winkler_ns_per_pair`` on a fixed sample of 20 000
    candidate value pairs."""
    from repro.text.normalize import normalize_value
    from repro.text.similarity import jaro_winkler_similarity

    stride = -(-len(pairs) // 20_000) or 1
    raw = [(external[e].value("pn"), local[l].value("pn")) for e, l in pairs[::stride]]
    started = now()
    values = [(normalize_value(a), normalize_value(b)) for a, b in raw]
    layer["text.normalize_ns_per_value"] = (now() - started) / (2 * len(raw)) * 1e9
    started = now()
    for a, b in values:
        jaro_winkler_similarity(a, b)
    layer["text.jaro_winkler_ns_per_pair"] = (now() - started) / len(values) * 1e9
