"""Batched columnar pair scoring: the engine's second scoring path.

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

Scoring then memoizes at three levels: per value pair (one similarity
call per distinct ``(similarity fn, value, value)``), per field-signature
pair (one cross-product max per distinct field column pair) and per
profile pair (one full vector + decision per distinct record shape).
Within a block every pair shares its block's sub-results by
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
from repro.rdf.terms import Term
from repro.text.normalize import normalize_value

#: A memoized profile-pair entry: (similarities in declaration order,
#: aggregate, decided status, decided score). Status/score are ``None``
#: when the decider has no batch compilation — the decision then runs
#: per pair on the memoized vector.
ScoredProfilePair = Tuple[Dict[str, float], float, Optional[MatchStatus], Optional[float]]

#: What a compiled decider returns for one scored vector.
CompiledDecider = Callable[[Dict[str, float], float], Tuple[MatchStatus, float]]


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
        "_total_weight",
        "_decider",
        "_decide_scored",
        "_values",
        "_normalized",
        "_field_sigs",
        "_profiles",
        "_value_memo",
        "_field_memo",
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
        # same expression over the same tuple as RecordComparator's
        # constructor: the division below reproduces its float exactly
        self._total_weight = sum(c.weight for c in self._fields)
        self._decider = decider
        compile_hook = getattr(decider, "compile_batched", None)
        self._decide_scored: Optional[CompiledDecider] = (
            compile_hook() if callable(compile_hook) else None
        )
        self._values = FeatureVocabulary()  # raw value -> dense id
        self._normalized: List[str] = []  # value id -> normalized form
        self._field_sigs = FeatureVocabulary()  # value-id tuple -> signature id
        self._profiles = FeatureVocabulary()  # signature tuple -> profile id
        # (similarity fn, value id, value id) -> similarity
        self._value_memo: Dict[tuple, float] = {}
        # (field index, left signature, right signature) -> similarity
        self._field_memo: Dict[tuple, float] = {}
        # (left profile, right profile) -> scored entry
        self._pair_memo: Dict[Tuple[int, int], ScoredProfilePair] = {}
        # store -> (store version at build, record id -> profile id)
        self._columns: "weakref.WeakKeyDictionary[RecordStore, tuple]" = (
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
    def compiled(self) -> bool:
        """Whether the decider was compiled (decisions memoize too)."""
        return self._decide_scored is not None

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
    def columns_for(self, store: RecordStore) -> Dict[Term, int]:
        """The store's profile column (record id -> profile id).

        Built once per (store, version); a store mutation between runs
        or deltas invalidates the cached column, and re-interning after
        a rebuild is idempotent — previously handed-out profile ids
        stay valid because every vocabulary is append-only.
        """
        version = getattr(store, "version", None)
        cached = self._columns.get(store)
        if cached is not None and cached[0] == version:
            return cached[1]
        profiles = {record.id: self._profile_of(record) for record in store}
        self._columns[store] = (version, profiles)
        return profiles

    def _profile_of(self, record: Record) -> int:
        signatures = []
        for comparator in self._fields:
            ids = tuple(
                self._value_id(value)
                for value in record.values(comparator.field_name)
            )
            signatures.append(self._field_sigs.intern(ids))
        return self._profiles.intern(tuple(signatures))

    def _value_id(self, value: str) -> int:
        vid = self._values.intern(value)
        if vid == len(self._normalized):  # newly interned: normalize once
            self._normalized.append(normalize_value(value))
        return vid

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def decision_for(
        self,
        left_profile: int,
        right_profile: int,
        left: Optional[Record] = None,
        right: Optional[Record] = None,
    ) -> Tuple[MatchStatus, float, Dict[str, float], float]:
        """Score and decide one pair by its profiles.

        With a compiled decider the whole entry — vector and decision —
        comes from the profile-pair memo. Without one, the vector is
        memoized but the decider runs per pair on the actual records
        (callers must pass them), preserving exact pairwise behavior
        for stateful or record-inspecting deciders.
        """
        key = (left_profile, right_profile)
        entry = self._pair_memo.get(key)
        if entry is None:
            self.pair_misses += 1
            entry = self._score_profiles(left_profile, right_profile)
            self._pair_memo[key] = entry
        else:
            self.pair_hits += 1
        similarities, aggregate, status, score = entry
        if status is None:
            vector = ComparisonVector(
                left=left, right=right, similarities=similarities, aggregate=aggregate
            )
            decision = self._decider.decide(vector)
            return decision.status, decision.score, similarities, aggregate
        return status, score, similarities, aggregate

    def _score_profiles(self, left_profile: int, right_profile: int) -> ScoredProfilePair:
        left_sigs = self._profiles.feature_of(left_profile)
        right_sigs = self._profiles.feature_of(right_profile)
        similarities: Dict[str, float] = {}
        weighted = 0.0
        field_memo = self._field_memo
        for index, comparator in enumerate(self._fields):
            key = (index, left_sigs[index], right_sigs[index])
            sim = field_memo.get(key)
            if sim is None:
                sim = self._field_similarity(comparator, key[1], key[2])
                field_memo[key] = sim
            similarities[comparator.field_name] = sim
            weighted += comparator.weight * sim
        aggregate = weighted / self._total_weight
        if self._decide_scored is None:
            return similarities, aggregate, None, None
        status, score = self._decide_scored(similarities, aggregate)
        return similarities, aggregate, status, score

    def _field_similarity(self, comparator, left_sig: int, right_sig: int) -> float:
        left_ids = self._field_sigs.feature_of(left_sig)
        right_ids = self._field_sigs.feature_of(right_sig)
        if not left_ids or not right_ids:
            return comparator.missing_value
        similarity = comparator.similarity
        normalized = self._normalized
        memo = self._value_memo
        # replicate max(sim(a, b) for a in left for b in right): same
        # iteration order, first-of-equals semantics (NaN included)
        best: Optional[float] = None
        for a in left_ids:
            norm_a = normalized[a]
            for b in right_ids:
                key = (similarity, a, b)
                sim = memo.get(key)
                if sim is None:
                    sim = similarity(norm_a, normalized[b])
                    memo[key] = sim
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
        left_profiles = self.columns_for(external)
        right_profiles = self.columns_for(local)
        compared: list = []
        decisions: list = []
        # the memo hit is the hot path — a few dict probes and an append
        # per pair — so everything it touches is bound to locals and the
        # counters are folded in once per chunk
        left_get = left_profiles.get
        right_get = right_profiles.get
        memo_get = self._pair_memo.get
        pair_memo = self._pair_memo
        score_profiles = self._score_profiles
        compared_append = compared.append
        decisions_append = decisions.append
        non_match = MatchStatus.NON_MATCH
        compiled = self._decide_scored is not None
        decide = None if compiled else self._decider.decide
        scored = 0
        misses = 0
        for ext_id, local_id in pairs:
            left_profile = left_get(ext_id)
            right_profile = right_get(local_id)
            if left_profile is None or right_profile is None:
                continue
            key = (left_profile, right_profile)
            entry = memo_get(key)
            if entry is None:
                misses += 1
                entry = score_profiles(left_profile, right_profile)
                pair_memo[key] = entry
            scored += 1
            similarities, aggregate, status, score = entry
            if not compiled:
                vector = ComparisonVector(
                    left=external.get(ext_id),
                    right=local.get(local_id),
                    similarities=similarities,
                    aggregate=aggregate,
                )
                decision = decide(vector)
                status, score = decision.status, decision.score
            compared_append((ext_id, local_id))
            if status is not non_match:
                decisions_append(
                    (
                        ext_id,
                        local_id,
                        dict(similarities),
                        aggregate,
                        status.value,
                        score,
                    )
                )
        self.pair_misses += misses
        self.pair_hits += scored - misses
        return compared, decisions

    def __repr__(self) -> str:
        return (
            f"<BatchScorer fields={len(self._fields)} "
            f"profiles={len(self._profiles)} pairs={len(self._pair_memo)}>"
        )
