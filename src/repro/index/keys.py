"""Record-side inverted key indexes shared across blocking methods.

Blocking methods derive key material from records (q-grams, key
prefixes, phonetic codes...) and need, per key, the local records
carrying it. :class:`RecordKeyIndex` builds that once per store: a plain
dict from key to the list of record *ordinals* (positions in store
order) carrying it, so candidates come out in store order.

The record side never intersects or unions its postings (it reads them
whole, or bisects them for one ordinal), so it skips the interned
vocabulary and the :class:`~repro.index.postings.PostingList` wrapper
the training side needs: a dict of int lists is the cheapest structure
to build.

:func:`shared_record_index` memoizes indexes per
:class:`~repro.linking.records.RecordStore` (weakly, so stores stay
collectable) under a signature string describing the key derivation;
a store mutation bumps its version and invalidates the cached entries.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.index.inverted import IndexStats
from repro.rdf.terms import Term

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.linking.records import Record, RecordStore

#: Derives the blocking keys of one record (possibly none).
KeyFunction = Callable[["Record"], Iterable[str]]


class RecordKeyIndex:
    """Inverted index: blocking key → records (in store order).

    ``postings`` maps each key to the strictly increasing ordinals of
    the records carrying it; ``ids`` maps an ordinal back to its id.

    >>> index = RecordKeyIndex.build(local_store, keys_for=prefix_keys)
    >>> list(index.candidates("crcw"))
    [EX.p1, EX.p7]
    """

    __slots__ = ("_ids", "_postings", "build_seconds", "probe_seconds")

    def __init__(
        self,
        ids: Sequence[Term],
        postings: Dict[str, List[int]],
        build_seconds: float,
    ) -> None:
        self._ids: Tuple[Term, ...] = tuple(ids)
        self._postings = postings
        self.build_seconds = build_seconds
        #: cumulative probe time, accumulated by callers via :meth:`probed`.
        self.probe_seconds = 0.0

    @classmethod
    def build(cls, store: "RecordStore", keys_for: KeyFunction) -> "RecordKeyIndex":
        """Index every record of *store* under its derived keys.

        Empty keys are skipped, and a key a record yields twice is
        posted once.
        """
        started = time.perf_counter()
        ids: List[Term] = []
        postings: Dict[str, List[int]] = {}
        for ordinal, record in enumerate(store):
            ids.append(record.id)
            for key in keys_for(record):
                if not key:
                    continue
                posting = postings.get(key)
                if posting is None:
                    postings[key] = [ordinal]
                elif posting[-1] != ordinal:
                    posting.append(ordinal)
        return cls(ids, postings, time.perf_counter() - started)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def candidates(self, key: str) -> Iterable[Term]:
        """Record ids indexed under *key*, in store order."""
        return map(self._ids.__getitem__, self._postings.get(key, ()))

    def ordinals(self, key: str) -> Sequence[int]:
        """The strictly increasing record ordinals indexed under *key*
        (empty when absent) — the posting itself, so read-only."""
        return self._postings.get(key, ())

    def id_of(self, ordinal: int) -> Term:
        """The record id at *ordinal* (store order at build time)."""
        return self._ids[ordinal]

    @property
    def record_count(self) -> int:
        """Number of records indexed (the store size at build time)."""
        return len(self._ids)

    def key_sizes(self) -> Dict[str, int]:
        """Posting length per key — the block-size stats the engine's
        :class:`~repro.engine.shard.ShardPlan` balances shards with."""
        return {key: len(posting) for key, posting in self._postings.items()}

    def __contains__(self, key: str) -> bool:
        return key in self._postings

    def __len__(self) -> int:
        """Number of distinct keys."""
        return len(self._postings)

    def probed(self, seconds: float) -> None:
        """Account *seconds* of probe time (for EngineStats wiring)."""
        self.probe_seconds += seconds

    def stats(self) -> IndexStats:
        """Key and posting counts plus build/probe timings."""
        return IndexStats(
            features=len(self._postings),
            postings=sum(map(len, self._postings.values())),
            build_seconds=self.build_seconds,
            probe_seconds=self.probe_seconds,
        )

    def __repr__(self) -> str:
        return f"<RecordKeyIndex keys={len(self._postings)} records={len(self._ids)}>"


# ----------------------------------------------------------------------
# shared per-store cache
# ----------------------------------------------------------------------

#: store → {signature: (store version at build, index)}
_SHARED: "weakref.WeakKeyDictionary[RecordStore, Dict[str, Tuple[int, RecordKeyIndex]]]" = (
    weakref.WeakKeyDictionary()
)


def shared_record_index(
    store: "RecordStore",
    signature: str,
    keys_for: KeyFunction,
) -> RecordKeyIndex:
    """The store's key index for *signature*, built at most once.

    *signature* must uniquely describe the key derivation (field, q,
    threshold...) — two callers presenting the same signature for the
    same store share one index. The cache entry is dropped when the
    store has been mutated since the build (its version moved on).
    """
    per_store = _SHARED.get(store)
    if per_store is None:
        per_store = {}
        _SHARED[store] = per_store
    version = getattr(store, "version", None)
    cached = per_store.get(signature)
    if cached is not None and cached[0] == version:
        return cached[1]
    index = RecordKeyIndex.build(store, keys_for)
    per_store[signature] = (version, index)
    return index


def seed_shared_index(
    store: "RecordStore", signature: str, index: RecordKeyIndex
) -> None:
    """Register a prebuilt *index* for *store* under *signature*.

    The warm-start path of the artifact store: an index deserialized
    from a bundle is seeded at the store's *current* version, so the
    first job blocking the store with the same signature reuses it with
    zero rebuild — and a later store mutation invalidates it exactly
    like a locally-built entry.
    """
    per_store = _SHARED.get(store)
    if per_store is None:
        per_store = {}
        _SHARED[store] = per_store
    per_store[signature] = (getattr(store, "version", None), index)


def shared_index_snapshot(store: "RecordStore") -> Dict[str, RecordKeyIndex]:
    """The store's currently-valid cached indexes, by signature.

    Entries built against an older store version are skipped — a bundle
    must only capture indexes that describe the store as it is now.
    """
    per_store = _SHARED.get(store)
    if not per_store:
        return {}
    version = getattr(store, "version", None)
    return {
        signature: index
        for signature, (built_version, index) in per_store.items()
        if built_version == version
    }


def shared_index_cache_clear() -> None:
    """Drop every cached index (mainly for tests and benchmarks)."""
    _SHARED.clear()
