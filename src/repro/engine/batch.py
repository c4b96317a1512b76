"""Batched columnar pair scoring: the engine's default scoring path.

The pairwise path (``JobConfig.scoring="pairwise"``) walks every
candidate pair through :meth:`RecordComparator.compare` — per-field
cross-products, normalization, similarity calls — in interpreted Python,
one pair at a time. Blocking makes that wasteful twice over: records
inside a block share key material, so the *same field values* (and very
often the same whole records, field-for-field) are compared over and
over.

:class:`BatchScorer` turns the comparator + decider into columns over
interned ids (the same :class:`~repro.index.FeatureVocabulary`
machinery the learner and classifier batch paths ride):

* every raw field value is interned once and normalized once
  (``value -> dense value id``);
* every per-field value tuple is interned into a **field signature**
  (``tuple of value ids -> signature id``);
* every record collapses to a **profile** — its tuple of field
  signatures (``tuple of signature ids -> profile id``). Records that
  are equal on every compared field share one profile, whatever block
  they sit in.

A store's profile column is **lazy**: it starts empty and a record is
interned the first time a candidate pair names it, so a job pays for
the records its candidates touch, not for the whole catalog.

Scoring memoizes at up to three levels, and keeps one entry per
distinct key: per profile pair (one full vector + decision per distinct
record shape); per field-signature pair (one cross-product max per
distinct field column pair) — skipped when the comparator has a single
field, because a profile then *is* its one signature; and per value
pair (one similarity call per distinct ``(similarity fn, value,
value)``) — skipped when both signatures hold one value, because the
level above already keys that value pair. Memo keys are ints
(``left << 32 | right``) and a profile-pair entry is one flat tuple
``(aggregate, status, score, *similarities in declaration order)`` —
or, when a compiled decider ruled the pair ``NON_MATCH``, just that
status: such a pair emits nothing, so its vector is never read again
and is not kept (the bulk of a dense run's entries). The similarities
dict is built only for emitted decisions and for deciders called per
pair. Within a block every pair shares its block's sub-results by
construction; across blocks the sharing is wider still, because the
memo is keyed on content, not on block membership.

**Byte-identity.** The batched path replicates the pairwise arithmetic
exactly, not approximately:

* normalization is :func:`~repro.text.normalize.normalize_value`, the
  same pure function, applied once per interned value;
* a field's similarity is the same ``max`` over the same value
  cross-product in the same iteration order
  (:meth:`FieldComparator.compare_values` semantics, including the
  ``missing_value`` branch);
* the aggregate accumulates ``weight * sim`` in comparator declaration
  order and divides by the same ``sum(weights)``, so float rounding is
  reproduced bit-for-bit;
* deciders that offer ``compile_batched()`` (threshold and
  Fellegi-Sunter matchers) are compiled into closures whose arithmetic
  mirrors their ``decide``/``weight`` loops term for term; any other
  decider is simply called per pair on the memoized vector, so even
  stateful deciders observe the exact pairwise call sequence.

The differential harness in ``tests/engine`` and the hypothesis fuzz
suite pin this identity across every executor, every scenario and
streaming delta splits.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.cache import CachedRecordComparator
from repro.index import FeatureVocabulary
from repro.linking.comparators import ComparisonVector, RecordComparator
from repro.linking.matchers import MatchStatus
from repro.linking.records import Record, RecordStore
from repro.text.normalize import normalize_value

#: A scored profile pair: ``(aggregate, status, score, *similarities in
#: declaration order)``. Status and score are ``None`` when the decider
#: has no batch compilation — the decision then runs per pair on the
#: memoized vector. The pair memo stores a compiled NON_MATCH entry as
#: the bare :attr:`MatchStatus.NON_MATCH` instead.
ScoredProfilePair = tuple

#: What a compiled decider returns for one scored vector.
CompiledDecider = Callable[[Dict[str, float], float], Tuple[MatchStatus, float]]


def _profile_interner(
    fields, normalized: List[str], field_sigs: FeatureVocabulary, profiles: FeatureVocabulary
) -> Callable[[Record], int]:
    """``record -> profile id``, interning every layer on the way.

    A closure over the scorer's vocabularies rather than a method, so
    the columns that call it hold no reference to the scorer.
    """
    values = FeatureVocabulary()  # raw value -> dense id

    def value_id(value: str) -> int:
        vid = values.intern(value)
        if vid == len(normalized):  # newly interned: normalize once
            normalized.append(normalize_value(value))
        return vid

    def profile_of(record: Record) -> int:
        signatures = tuple(
            field_sigs.intern(
                tuple(value_id(value) for value in record.values(comparator.field_name))
            )
            for comparator in fields
        )
        return profiles.intern(signatures)

    return profile_of


class ProfileColumn(dict):
    """One store's record id -> profile id column, filled on first lookup.

    ``column[record_id]`` interns the record the first time it is asked
    for and answers ``None`` for an id the store does not hold (nothing
    is cached for it). The column holds its store weakly: the scorer
    caches columns in a weak-keyed map, which a strong reference back
    to the key would pin forever.
    """

    __slots__ = ("_store", "_profile_of", "version")

    def __init__(self, store: RecordStore, profile_of: Callable[[Record], int]) -> None:
        # profile_of must not reference the scorer, whose column map
        # holds this column: that cycle would outlive the job
        super().__init__()
        self._store = weakref.ref(store)
        self._profile_of = profile_of
        self.version = getattr(store, "version", None)

    def __missing__(self, record_id) -> Optional[int]:
        store = self._store()
        record = store.get(record_id) if store is not None else None
        if record is None:
            return None
        profile = self[record_id] = self._profile_of(record)
        return profile


class BatchScorer:
    """Columnar, memoizing scorer for one (comparator, decider) pair.

    One scorer may outlive one job: the streaming engine owns a single
    scorer for a whole delta stream (mirroring the stream-owned
    similarity cache of the pairwise path), so profiles interned and
    pairs scored in delta 0 are never recomputed by delta N. Store
    columns are cached weakly per store and invalidated by the store's
    mutation ``version``, exactly like
    :func:`~repro.index.shared_record_index`.

    A scorer is not synchronized: the serial path runs its chunks in
    sequence, and the pool executors build one scorer per worker
    process.
    """

    __slots__ = (
        "_fields",
        "_names",
        "_total_weight",
        "_decider",
        "_decide_scored",
        "_normalized",
        "_profile_of",
        "_field_sigs",
        "_profiles",
        "_value_memos",
        "_field_memos",
        "_pair_memo",
        "_columns",
        "pair_hits",
        "pair_misses",
    )

    def __init__(self, comparator: RecordComparator, decider) -> None:
        if isinstance(comparator, CachedRecordComparator):
            comparator = comparator.inner
        if not self.supports(comparator):
            raise ValueError(
                f"{type(comparator).__name__} customizes per-pair "
                "comparison; the batched scorer can only replicate the "
                "base RecordComparator arithmetic"
            )
        self._fields = comparator.comparators
        self._names = tuple(c.field_name for c in self._fields)
        # same expression over the same tuple as RecordComparator's
        # constructor: the division below reproduces its float exactly
        self._total_weight = sum(c.weight for c in self._fields)
        self._decider = decider
        compile_hook = getattr(decider, "compile_batched", None)
        self._decide_scored: Optional[CompiledDecider] = (
            compile_hook() if callable(compile_hook) else None
        )
        self._field_sigs = FeatureVocabulary()  # value-id tuple -> signature id
        self._profiles = FeatureVocabulary()  # signature tuple -> profile id
        self._normalized: List[str] = []  # value id -> normalized form
        self._profile_of = _profile_interner(
            self._fields, self._normalized, self._field_sigs, self._profiles
        )
        # per field: value pair -> similarity, one dict per similarity
        # function (fields sharing a function share its memo)
        by_function: Dict[Callable, Dict[int, float]] = {}
        self._value_memos = [
            by_function.setdefault(c.similarity, {}) for c in self._fields
        ]
        # per field: signature pair -> similarity; none for a single
        # field, whose signature pair is the profile pair
        self._field_memos: Optional[List[Dict[int, float]]] = (
            [{} for _ in self._fields] if len(self._fields) > 1 else None
        )
        # profile pair -> scored entry
        self._pair_memo: Dict[int, ScoredProfilePair] = {}
        self._columns: "weakref.WeakKeyDictionary[RecordStore, ProfileColumn]" = (
            weakref.WeakKeyDictionary()
        )
        self.pair_hits = 0
        self.pair_misses = 0

    # ------------------------------------------------------------------
    # capabilities
    # ------------------------------------------------------------------
    @staticmethod
    def supports(comparator) -> bool:
        """Whether batched scoring can replicate *comparator* exactly.

        A subclass that overrides the comparison hooks computes
        something the columnar arithmetic cannot see, so the job
        degrades to pairwise scoring (with the reason recorded in
        :class:`~repro.engine.stats.EngineStats`) rather than silently
        diverge. The engine's own :class:`CachedRecordComparator`
        wrapper is transparent — its inner comparator is what counts.
        """
        if isinstance(comparator, CachedRecordComparator):
            comparator = comparator.inner
        cls = type(comparator)
        return (
            isinstance(comparator, RecordComparator)
            and cls.compare is RecordComparator.compare
            and cls._field_similarity is RecordComparator._field_similarity
        )

    @property
    def profile_count(self) -> int:
        """Distinct record profiles interned so far."""
        return len(self._profiles)

    @property
    def unique_pairs(self) -> int:
        """Distinct profile pairs actually scored (memo entries)."""
        return len(self._pair_memo)

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------
    def columns_for(self, store: RecordStore) -> ProfileColumn:
        """The store's lazy profile column (record id -> profile id).

        One column per (store, version); a store mutation between runs
        or deltas starts a fresh, empty column. Re-interning is
        idempotent — previously handed-out profile ids stay valid
        because every vocabulary is append-only.
        """
        column = self._columns.get(store)
        if column is None or column.version != getattr(store, "version", None):
            column = self._columns[store] = ProfileColumn(store, self._profile_of)
        return column

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _memoize(self, key: int, left_profile: int, right_profile: int):
        """Score a profile pair into the memo and return its entry: the
        scored tuple, or the bare status of a compiled NON_MATCH."""
        entry = self._score_profiles(left_profile, right_profile)
        if entry[1] is MatchStatus.NON_MATCH:
            entry = MatchStatus.NON_MATCH
        self._pair_memo[key] = entry
        return entry

    def _score_profiles(self, left_profile: int, right_profile: int) -> ScoredProfilePair:
        left_sigs = self._profiles.feature_of(left_profile)
        right_sigs = self._profiles.feature_of(right_profile)
        field_memos = self._field_memos
        similarities: List[float] = []
        weighted = 0.0
        for index, comparator in enumerate(self._fields):
            left_sig, right_sig = left_sigs[index], right_sigs[index]
            if field_memos is None:
                sim = self._field_similarity(index, left_sig, right_sig)
            else:
                memo = field_memos[index]
                key = left_sig << 32 | right_sig
                sim = memo.get(key)
                if sim is None:
                    sim = memo[key] = self._field_similarity(index, left_sig, right_sig)
            similarities.append(sim)
            weighted += comparator.weight * sim
        aggregate = weighted / self._total_weight
        if self._decide_scored is None:
            return (aggregate, None, None, *similarities)
        status, score = self._decide_scored(
            dict(zip(self._names, similarities)), aggregate
        )
        return (aggregate, status, score, *similarities)

    def _field_similarity(self, index: int, left_sig: int, right_sig: int) -> float:
        comparator = self._fields[index]
        left_ids = self._field_sigs.feature_of(left_sig)
        right_ids = self._field_sigs.feature_of(right_sig)
        if not left_ids or not right_ids:
            return comparator.missing_value
        similarity = comparator.similarity
        normalized = self._normalized
        if len(left_ids) == 1 and len(right_ids) == 1:
            # the memo level above already keys this one value pair
            return similarity(normalized[left_ids[0]], normalized[right_ids[0]])
        memo = self._value_memos[index]
        # replicate max(sim(a, b) for a in left for b in right): same
        # iteration order, first-of-equals semantics (NaN included)
        best: Optional[float] = None
        for a in left_ids:
            norm_a = normalized[a]
            row = a << 32
            for b in right_ids:
                key = row | b
                sim = memo.get(key)
                if sim is None:
                    sim = memo[key] = similarity(norm_a, normalized[b])
                if best is None or sim > best:
                    best = sim
        return best

    # ------------------------------------------------------------------
    # chunk-level entry point
    # ------------------------------------------------------------------
    def score_chunk(
        self,
        pairs,
        external: RecordStore,
        local: RecordStore,
    ) -> Tuple[list, list]:
        """Score one chunk of candidate pairs against two stores.

        Returns ``(compared pairs, decision wires)`` with exactly the
        pairwise chunk semantics: pairs whose records are missing from
        either store are skipped, NON_MATCH decisions are dropped, and
        each wire carries a fresh similarities dict.
        """
        left_column = self.columns_for(external)
        right_column = self.columns_for(local)
        compared: list = []
        decisions: list = []
        # the memo hit is the hot path — a few dict probes and an append
        # per pair — so everything it touches is bound to locals and the
        # counters are folded in once per chunk
        memo_get = self._pair_memo.get
        memoize = self._memoize
        compared_append = compared.append
        decisions_append = decisions.append
        names = self._names
        non_match = MatchStatus.NON_MATCH
        decide = None if self._decide_scored is not None else self._decider.decide
        misses = 0
        for ext_id, local_id in pairs:
            left_profile = left_column[ext_id]
            if left_profile is None:
                continue
            right_profile = right_column[local_id]
            if right_profile is None:
                continue
            key = left_profile << 32 | right_profile
            entry = memo_get(key)
            if entry is None:
                misses += 1
                entry = memoize(key, left_profile, right_profile)
            compared_append((ext_id, local_id))
            if entry is non_match:
                continue
            if decide is None:
                status = entry[1]
                score = entry[2]
                similarities = dict(zip(names, entry[3:]))
            else:
                vector = ComparisonVector(
                    left=external.get(ext_id),
                    right=local.get(local_id),
                    similarities=dict(zip(names, entry[3:])),
                    aggregate=entry[0],
                )
                decision = decide(vector)
                status = decision.status
                if status is non_match:
                    continue
                score = decision.score
                similarities = dict(vector.similarities)
            decisions_append(
                (ext_id, local_id, similarities, entry[0], status.value, score)
            )
        self.pair_misses += misses
        self.pair_hits += len(compared) - misses
        return compared, decisions

    def __repr__(self) -> str:
        return (
            f"<BatchScorer fields={len(self._fields)} "
            f"profiles={len(self._profiles)} pairs={len(self._pair_memo)}>"
        )
