"""Reference implementations of every blocking family.

These are the scan paths the shipped classes in
``repro.linking.blocking`` replaced: key blocking builds a fresh dict
of local ids per key (no shared :class:`~repro.index.RecordKeyIndex`),
rule blocking classifies one record at a time with
:meth:`~repro.core.classifier.RuleClassifier.predict` instead of the
batched rule index, and the full index, sorted neighbourhood and canopy
run the straight serial sweeps the shipped per-shard generators
decompose. They carry their own key derivations, so a change to the
shipped key order cannot hide in both sides at once. They live only
here, as the oracles ``tests/linking/test_scan_oracle.py`` compares the
shipped classes against with exact ``==``.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Callable, Dict, List, Set, Tuple

from repro.core.classifier import RuleClassifier
from repro.linking.records import Record, RecordStore
from repro.ontology.model import Ontology
from repro.rdf.graph import Graph
from repro.rdf.terms import Term
from repro.text.normalize import normalize_value
from repro.text.similarity import qgram_cosine_similarity
from tests.oracles import subspace

#: Derives the blocking keys of one record, in probe order.
KeysOf = Callable[[Record], List[str]]

Pair = Tuple[Term, Term]


def single_key(key: Callable[[Record], str]) -> KeysOf:
    """Standard blocking's keys: the one derived key, if non-empty."""

    def keys_of(record: Record) -> List[str]:
        value = key(record)
        return [value] if value else []

    return keys_of


def prefix_keys(field_name: str, length: int) -> KeysOf:
    """The first *length* characters of the normalized field value."""
    return single_key(lambda record: normalize_value(record.value(field_name))[:length])


def qgram_keys(field_name: str, q: int, threshold: float, max_grams: int) -> KeysOf:
    """Baxter et al.'s sub-list keys, sorted."""

    def keys_of(record: Record) -> List[str]:
        value = normalize_value(record.value(field_name))
        if not value:
            return []
        grams = sorted(
            {value[i:i + q] for i in range(max(1, len(value) - q + 1))}
        )[:max_grams]
        keep = max(1, math.ceil(len(grams) * threshold))
        if keep >= len(grams):
            return ["".join(grams)]
        return sorted({"".join(combo) for combo in itertools.combinations(grams, keep)})

    return keys_of


def key_blocking_pairs(
    keys_of: KeysOf, external: RecordStore, local: RecordStore
) -> List[Pair]:
    """Scan the local store into key -> ids, probe each external record's
    keys in order, and emit each (external, local) pair once."""
    blocks: Dict[str, List[Term]] = defaultdict(list)
    for record in local:
        for key in keys_of(record):
            blocks[key].append(record.id)
    pairs: List[Pair] = []
    seen = set()
    for record in external:
        for key in keys_of(record):
            for local_id in blocks.get(key, ()):
                pair = (record.id, local_id)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
    return pairs


def rule_blocking_pairs(
    classifier: RuleClassifier,
    ontology: Ontology,
    external_graph: Graph,
    fallback_full: bool,
    external: RecordStore,
    local: RecordStore,
) -> List[Pair]:
    """Classify each external record on its own, then emit the local
    instances of its predicted classes sorted by id, or the whole local
    store in order when nothing was predicted and *fallback_full*."""
    predictions = {
        item: classifier.predict(item, external_graph) for item in external.ids()
    }
    space = subspace.from_predictions(predictions, ontology)
    local_order = list(local.ids())
    pairs: List[Pair] = []
    for ext_id in external.ids():
        candidates = space.candidates_for(ext_id)
        if not candidates and fallback_full:
            pairs.extend((ext_id, local_id) for local_id in local_order)
            continue
        matching = sorted((c for c in candidates if c in local_order), key=str)
        pairs.extend((ext_id, local_id) for local_id in matching)
    return pairs


def full_index_pairs(external: RecordStore, local: RecordStore) -> List[Pair]:
    """The cartesian product, external-major."""
    pairs: List[Pair] = []
    for ext in external.ids():
        for loc in local.ids():
            pairs.append((ext, loc))
    return pairs


def sorted_neighbourhood_pairs(
    field_name: str, window_size: int, external: RecordStore, local: RecordStore
) -> List[Pair]:
    """Merge both sources sorted by (normalized field value, str(id)),
    slide a window of *window_size* over them and emit each cross-source
    pair the first time a window holds it."""
    tagged = [
        (normalize_value(record.value(field_name)), True, record.id)
        for record in external
    ] + [
        (normalize_value(record.value(field_name)), False, record.id)
        for record in local
    ]
    tagged.sort(key=lambda entry: (entry[0], str(entry[2])))
    pairs: List[Pair] = []
    seen: Set[Pair] = set()
    for start in range(len(tagged)):
        window = tagged[start:start + window_size]
        for (_, is_ext_a, id_a), (_, is_ext_b, id_b) in itertools.combinations(window, 2):
            if is_ext_a == is_ext_b:
                continue
            pair = (id_a, id_b) if is_ext_a else (id_b, id_a)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    return pairs


def canopy_pairs(
    field_name: str,
    loose: float,
    tight: float,
    q: int,
    external: RecordStore,
    local: RecordStore,
) -> List[Pair]:
    """Center-major canopy sweep: each non-empty external value pairs
    with every local still in circulation within *loose* q-gram cosine
    similarity, then retires the locals within *tight*."""
    remaining: Dict[Term, str] = {
        record.id: normalize_value(record.value(field_name)) for record in local
    }
    pairs: List[Pair] = []
    for record in external:
        value = normalize_value(record.value(field_name))
        if not value:
            continue
        claimed: List[Term] = []
        for local_id, local_value in remaining.items():
            sim = qgram_cosine_similarity(value, local_value, q=q)
            if sim >= loose:
                pairs.append((record.id, local_id))
                if sim >= tight:
                    claimed.append(local_id)
        for local_id in claimed:
            del remaining[local_id]
    return pairs
