"""Similarity memoization for the batch linking engine.

Blocking deliberately groups records with shared key material, so the
same (normalized) value pair is compared over and over — across
candidate pairs, not just within one. :class:`CachedRecordComparator`
wraps a :class:`~repro.linking.comparators.RecordComparator` and
memoizes every per-field similarity call in an LRU cache keyed on the
normalized value pair, sharing the work across all pairs of a job.

The cached comparator is a drop-in replacement: for any record pair it
produces a :class:`~repro.linking.comparators.ComparisonVector` equal to
what the uncached comparator would produce (same similarities, same
aggregate — memoization only skips recomputation, never changes it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.linking.comparators import FieldComparator, RecordComparator
from repro.linking.records import Record
from repro.text.normalize import normalize_value

#: Default LRU capacity: generous for catalog-scale value vocabularies.
DEFAULT_CACHE_SIZE = 100_000

_MISS = object()


class LRUCache:
    """A counting LRU cache over hashable keys.

    ``max_size <= 0`` disables storage entirely (every lookup misses and
    nothing is retained) so callers can switch memoization off without
    branching. An optional lock makes ``get``/``put`` safe when the serve
    daemon's request workers share one cache; the engine's executors
    pass ``lock=None`` and pay nothing.
    """

    def __init__(self, max_size: int, lock: Optional[threading.Lock] = None) -> None:
        self._max_size = max_size
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = lock
        self.hits = 0
        self.misses = 0

    @property
    def max_size(self) -> int:
        """Capacity; ``<= 0`` means caching is disabled."""
        return self._max_size

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Hashable) -> object:
        """The cached value, or the module-private miss sentinel."""
        if self._lock is not None:
            with self._lock:
                return self._get(key)
        return self._get(key)

    def _get(self, key: Hashable) -> object:
        if self._max_size <= 0:
            # disabled: no storage, but the lookup still happened — the
            # stats must show every consultation as a miss, not report
            # zero traffic for a cache consulted on every pair
            self.misses += 1
            return _MISS
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return _MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert, evicting the least recently used entry when full."""
        if self._max_size <= 0:
            return
        if self._lock is not None:
            with self._lock:
                self._put(key, value)
        else:
            self._put(key, value)

    def _put(self, key: Hashable, value: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self._max_size:
            self._entries.popitem(last=False)

    def export_entries(self) -> List[Tuple[Hashable, object]]:
        """The cached entries, least recently used first.

        The order is the reload order: :meth:`load_entries` replays it
        through :meth:`put`, so an exported-then-reloaded cache evicts
        in the same sequence the original would have.
        """
        if self._lock is not None:
            with self._lock:
                return list(self._entries.items())
        return list(self._entries.items())

    def load_entries(self, entries: Iterable[Tuple[Hashable, object]]) -> None:
        """Insert *entries* in order (oldest first), respecting capacity."""
        for key, value in entries:
            self.put(key, value)

    @staticmethod
    def is_miss(value: object) -> bool:
        """Whether a :meth:`get` result was a miss."""
        return value is _MISS


class CachedRecordComparator(RecordComparator):
    """A ``RecordComparator`` with per-field similarity memoization.

    Similarities are keyed on ``(field index, normalized left value,
    normalized right value)`` — the field index keeps two fields with
    different similarity functions from polluting each other, while the
    normalized values make the cache insensitive to surface noise the
    comparator would strip anyway. Value normalization itself is
    memoized in a second LRU since raw values repeat just as often.

    Only the per-value-pair similarity lookup is intercepted; the
    missing-value, cross-product and aggregation semantics all come
    from the base classes, so cached and uncached comparison cannot
    drift apart.
    """

    def __init__(
        self,
        inner: RecordComparator,
        cache_size: int = DEFAULT_CACHE_SIZE,
        thread_safe: bool = False,
    ) -> None:
        super().__init__(inner.comparators)
        lock = threading.Lock() if thread_safe else None
        self._inner = inner
        self._thread_safe = thread_safe
        self._similarities = LRUCache(cache_size, lock=lock)
        self._normalized = LRUCache(cache_size, lock=lock)

    @property
    def inner(self) -> RecordComparator:
        """The wrapped, uncached comparator."""
        return self._inner

    @property
    def thread_safe(self) -> bool:
        """Whether the caches synchronize ``get``/``put`` with a lock.

        A serve session (:class:`~repro.serve.session.LinkSession`)
        shares one comparator across the daemon's request-queue
        workers, so it requires this; the engine itself runs a cache
        from one thread at a time and needs no lock.
        """
        return self._thread_safe

    @property
    def cache_capacity(self) -> int:
        """Configured LRU capacity (0 = memoization disabled)."""
        return self._similarities.max_size

    @property
    def cache_hits(self) -> int:
        """Similarity-cache hits so far."""
        return self._similarities.hits

    @property
    def cache_misses(self) -> int:
        """Similarity-cache misses so far."""
        return self._similarities.misses

    @property
    def cache_hit_rate(self) -> float:
        """Similarity-cache hit rate so far."""
        return self._similarities.hit_rate

    def cache_export(self) -> Dict[str, Any]:
        """Cache contents as a JSON-ready payload (for artifact bundles).

        Entries are exported least recently used first so
        :meth:`cache_load` reconstructs the same LRU order; hit/miss
        counters are *not* exported — a reloaded cache starts its stats
        fresh, only the memoized work is carried over.
        """
        return {
            "capacity": self.cache_capacity,
            "similarities": [
                [index, a, b, similarity]
                for (index, a, b), similarity in self._similarities.export_entries()
            ],
            "normalized": [
                [raw, normalized]
                for raw, normalized in self._normalized.export_entries()
            ],
        }

    def cache_load(self, payload: Dict[str, Any]) -> None:
        """Warm the caches from a :meth:`cache_export` payload.

        Keys are rebuilt exactly as the live path builds them, so a
        warm-started comparator answers the same lookups without
        recomputing — memoization only skips work, never changes it.
        """
        for entry in payload.get("similarities", ()):
            index, a, b, similarity = entry
            self._similarities.put((index, a, b), similarity)
        for raw, normalized in payload.get("normalized", ()):
            self._normalized.put(raw, normalized)

    def _normalize(self, value: str) -> str:
        cached = self._normalized.get(value)
        if not LRUCache.is_miss(cached):
            return cached  # type: ignore[return-value]
        normalized = normalize_value(value)
        self._normalized.put(value, normalized)
        return normalized

    def _pair_similarity(
        self, index: int, comparator: FieldComparator, a: str, b: str
    ) -> float:
        key = (index, self._normalize(a), self._normalize(b))
        cached = self._similarities.get(key)
        if not LRUCache.is_miss(cached):
            return cached  # type: ignore[return-value]
        similarity = comparator.similarity(key[1], key[2])
        self._similarities.put(key, similarity)
        return similarity

    def _field_similarity(
        self, index: int, comparator: FieldComparator, left: Record, right: Record
    ) -> float:
        return comparator.compare_values(
            left.values(comparator.field_name),
            right.values(comparator.field_name),
            pair_similarity=lambda a, b: self._pair_similarity(index, comparator, a, b),
        )
