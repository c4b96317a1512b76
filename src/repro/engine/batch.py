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

**Exact early exit.** Under a threshold decider whose comparator
scores every field with Jaro-Winkler at a positive weight, a profile
pair whose aggregate cannot reach the decider's floor is never scored:
it is memoized as a bare NON_MATCH, which is what scoring would have
stored. The per-value-pair bound is :func:`_winkler_bound` over the
values' character bags (see :func:`_character_bags`): Jaro's matches
are at most the bags' intersection, and the common prefix too. Every
float operation in the bound is monotone in its inputs except the
Winkler step, whose rounding :data:`_ROUNDING` absorbs, so the bound
is never below the kernel's float. A single-valued single-field pair
is checked inline in :meth:`BatchScorer.score_chunk`; every other shape
re-checks before each field in :meth:`BatchScorer._score_profiles`,
with the exact similarities summed so far.

The differential harness in ``tests/engine`` and the hypothesis fuzz
suite pin this identity across every executor, every scenario and
streaming delta splits.
"""

from __future__ import annotations

import inspect
import weakref
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.cache import CachedRecordComparator
from repro.index import FeatureVocabulary
from repro.linking.comparators import ComparisonVector, RecordComparator
from repro.linking.matchers import MatchStatus
from repro.linking.records import Record, RecordStore
from repro.text.normalize import normalize_value
from repro.text.similarity import jaro_winkler_similarity

#: A scored profile pair: ``(aggregate, status, score, *similarities in
#: declaration order)``. Status and score are ``None`` when the decider
#: has no batch compilation — the decision then runs per pair on the
#: memoized vector. The pair memo stores a compiled NON_MATCH entry as
#: the bare :attr:`MatchStatus.NON_MATCH` instead.
ScoredProfilePair = tuple

#: What a compiled decider returns for one scored vector.
CompiledDecider = Callable[[Dict[str, float], float], Tuple[MatchStatus, float]]

#: A value's character bag: a bitmask whose popcount is the bag's size,
#: see :func:`_character_bags`. A bare int rather than a ``(mask, size)``
#: tuple: ints are invisible to the garbage collector, whose young
#: generations a tuple per catalog value would fill on every job.
Bag = int

#: Added to every Jaro-Winkler bound. The bound's arithmetic is monotone
#: in its inputs except ``jaro + c * (1 - jaro)``, whose rounding can
#: order two nearby inputs the wrong way by a few ulps (~1e-15); this
#: covers that many times over. Pairs this close to the floor are
#: scored, never cut, so the margin costs nothing but a rare kernel call.
_ROUNDING = 1e-12

_WINKLER_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(jaro_winkler_similarity).parameters.items()
    if name in ("prefix_scale", "max_prefix")
}


def _winkler_parameters(similarity) -> Optional[Tuple[float, int]]:
    """``(prefix_scale, max_prefix)`` when *similarity* is Jaro-Winkler —
    the function itself, or a ``partial`` of it that sets only those two
    by keyword to values the kernel accepts — else ``None``."""
    if similarity is jaro_winkler_similarity:
        keywords = {}
    elif (
        isinstance(similarity, partial)
        and similarity.func is jaro_winkler_similarity
        and not similarity.args
        and set(similarity.keywords) <= set(_WINKLER_DEFAULTS)
    ):
        keywords = similarity.keywords
    else:
        return None
    parameters = {**_WINKLER_DEFAULTS, **keywords}
    try:  # the kernel's own parameter check; a bad partial must still raise
        similarity("", "")
    except (TypeError, ValueError):
        return None
    return parameters["prefix_scale"], parameters["max_prefix"]


def _character_bags() -> Callable[[str], Bag]:
    """``text -> mask``: *text*'s multiset of characters as a bitmask,
    one bit per ``(character, k-th occurrence)`` from a table that grows
    with the values seen, so ``mask.bit_count()`` is the bag's size
    (``len(text)``) and ``(mask_a & mask_b).bit_count()`` the size of
    two bags' intersection.

    The empty string gets a bit of its own, so size 1: against itself
    its bound then reads 1.0 and against any other value 0.0, which is
    what the kernel returns.
    """
    bits: Dict[Tuple[str, int], int] = {}

    def bag_of(text: str) -> Bag:
        if not text:
            return bits.setdefault(("", 0), 1 << len(bits))
        mask = 0
        seen: Dict[str, int] = {}
        for ch in text:
            k = seen.get(ch, 0)
            seen[ch] = k + 1
            bit = bits.get((ch, k))
            if bit is None:
                bit = bits[ch, k] = 1 << len(bits)
            mask |= bit
        return mask

    return bag_of


def _winkler_bound(
    left: Bag, left_size: int, right: Bag, right_size: int, prefix_scale: float, max_prefix: int
) -> float:
    """An upper bound on ``jaro_winkler_similarity`` of two values, as
    the kernel computes it, from their character bags and the bags'
    sizes alone.

    Jaro's matches ``m`` pair equal characters, so ``m`` is at most the
    bags' intersection; so is the common prefix. Jaro is at most
    ``(m/|a| + m/|b| + 1) / 3`` (no transpositions), and Winkler's
    ``jaro + p * scale * (1 - jaro)`` grows in both ``jaro`` and ``p``
    while ``scale * max_prefix <= 1``, which the kernel enforces. With
    no common character the kernel returns exactly 0.0; and it never
    exceeds 1.0, so the bound is clamped there.
    """
    m = (left & right).bit_count()
    if not m:
        return 0.0
    jaro = (m / left_size + m / right_size + 1.0) / 3.0
    prefix = m if m < max_prefix else max_prefix
    bound = jaro + prefix * prefix_scale * (1.0 - jaro) + _ROUNDING
    return bound if bound < 1.0 else 1.0


def _single_field_signatures(profile: int) -> Tuple[int]:
    """A single-field profile's signatures: the profile id is its one
    field signature id."""
    return (profile,)


def _profile_interner(
    fields,
    normalized: List[str],
    field_sigs: FeatureVocabulary,
    profiles: FeatureVocabulary,
    bags: Optional[List[Bag]] = None,
    profile_bags: Optional[List[Optional[Bag]]] = None,
    profile_sizes: Optional[List[int]] = None,
) -> Callable[[Record], int]:
    """``record -> profile id``, interning every layer on the way.

    A single-field scorer's profile is its field signature itself (see
    :attr:`BatchScorer._signatures_of`): *profiles* stays empty, and no
    1-tuple per record is built to key it. With *bags*, every new
    value's character bag is kept next to its normalized form; with
    *profile_bags* and *profile_sizes* (single-field scorers), every new
    profile's single value's bag and its size, or ``None`` and 0 when
    its field holds no value or several.

    A closure over the scorer's vocabularies rather than a method, so
    the columns that call it hold no reference to the scorer.
    """
    values = FeatureVocabulary()  # raw value -> dense id
    bag_of = _character_bags() if bags is not None else None

    def value_id(value: str) -> int:
        vid = values.intern(value)
        if vid == len(normalized):  # newly interned: normalize once
            normalized.append(normalize_value(value))
            if bag_of is not None:
                bags.append(bag_of(normalized[vid]))
        return vid

    def signature_of(record: Record, field_name: str) -> int:
        return field_sigs.intern(tuple(value_id(value) for value in record.values(field_name)))

    if len(fields) != 1:
        names = [comparator.field_name for comparator in fields]

        def profile_of(record: Record) -> int:
            return profiles.intern(tuple(signature_of(record, name) for name in names))

        return profile_of

    name = fields[0].field_name

    def single_field_profile_of(record: Record) -> int:
        profile = signature_of(record, name)
        if profile_bags is not None and profile == len(profile_bags):
            ids = field_sigs.feature_of(profile)
            bag = bags[ids[0]] if len(ids) == 1 else None
            profile_bags.append(bag)
            profile_sizes.append(0 if bag is None else bag.bit_count())
        return profile

    return single_field_profile_of


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
        "_signatures_of",
        "_value_memos",
        "_field_memos",
        "_pair_memo",
        "_columns",
        "_floor",
        "_winkler",
        "_bags",
        "_profile_bags",
        "_profile_sizes",
        "pair_hits",
        "pair_misses",
        "pair_bounded",
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
        # the early exit: the decider's floor, and per field the
        # Jaro-Winkler parameters its bound reads; both None unless
        # every field can be bounded
        self._floor: Optional[float] = None
        self._winkler: Optional[Tuple[Tuple[float, int], ...]] = None
        floor = (
            getattr(decider, "non_match_floor", None)
            if self._decide_scored is not None
            else None
        )
        if floor is not None:
            winkler = tuple(
                _winkler_parameters(c.similarity) if c.weight > 0 else None
                for c in self._fields
            )
            if None not in winkler:
                self._floor, self._winkler = floor, winkler
        self._field_sigs = FeatureVocabulary()  # value-id tuple -> signature id
        self._profiles = FeatureVocabulary()  # signature tuple -> profile id, 2+ fields
        # profile id -> its field signatures (one field: the id itself)
        self._signatures_of: Callable[[int], tuple] = (
            _single_field_signatures if len(self._fields) == 1 else self._profiles.feature_of
        )
        self._normalized: List[str] = []  # value id -> normalized form
        # value id -> character bag; profile id -> its single value's
        # bag and the bag's size, for the inline check of a single-field
        # scorer
        self._bags: Optional[List[Bag]] = [] if self._winkler is not None else None
        inline = self._winkler is not None and len(self._fields) == 1
        self._profile_bags: Optional[List[Optional[Bag]]] = [] if inline else None
        self._profile_sizes: Optional[List[int]] = [] if inline else None
        self._profile_of = _profile_interner(
            self._fields,
            self._normalized,
            self._field_sigs,
            self._profiles,
            self._bags,
            self._profile_bags,
            self._profile_sizes,
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
        self.pair_bounded = 0  # misses the early exit never scored

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
        return len(self._field_sigs if len(self._fields) == 1 else self._profiles)

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
        if entry is MatchStatus.NON_MATCH or entry[1] is MatchStatus.NON_MATCH:
            entry = MatchStatus.NON_MATCH
        self._pair_memo[key] = entry
        return entry

    def _field_bounds(self, left_sigs: tuple, right_sigs: tuple) -> List[float]:
        """Per field, an upper bound on its similarity: the max of the
        value pairs' bounds, or the exact ``missing_value``."""
        signature = self._field_sigs.feature_of
        bags = self._bags
        bounds: List[float] = []
        for index, (prefix_scale, max_prefix) in enumerate(self._winkler):
            left_ids = signature(left_sigs[index])
            right_ids = signature(right_sigs[index])
            if not left_ids or not right_ids:
                bounds.append(self._fields[index].missing_value)
            else:
                bounds.append(
                    max(
                        _winkler_bound(
                            bags[a],
                            bags[a].bit_count(),
                            bags[b],
                            bags[b].bit_count(),
                            prefix_scale,
                            max_prefix,
                        )
                        for a in left_ids
                        for b in right_ids
                    )
                )
        return bounds

    def _score_profiles(self, left_profile: int, right_profile: int):
        """The pair's scored tuple, or the bare NON_MATCH status when
        its bound fell below the floor before every field was scored."""
        left_sigs = self._signatures_of(left_profile)
        right_sigs = self._signatures_of(right_profile)
        field_memos = self._field_memos
        bounds = None if self._floor is None else self._field_bounds(left_sigs, right_sigs)
        similarities: List[float] = []
        weighted = 0.0
        for index, comparator in enumerate(self._fields):
            if bounds is not None:
                # the exact sum so far plus the bounds of the fields
                # left, added in the same order as the scored sum: each
                # step is monotone, so this is never below the aggregate
                reach = weighted
                for later, bound in enumerate(bounds[index:], index):
                    reach += self._fields[later].weight * bound
                if reach / self._total_weight < self._floor:
                    self.pair_bounded += 1
                    return MatchStatus.NON_MATCH
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
        memo = self._pair_memo
        memo_get = memo.get
        memoize = self._memoize
        # the inline early exit of a single-field scorer; the bound of
        # its aggregate is computed as the aggregate itself would be
        profile_bags = self._profile_bags
        if profile_bags is not None:
            profile_sizes = self._profile_sizes
            ((prefix_scale, max_prefix),) = self._winkler
            weight = self._fields[0].weight
            total_weight = self._total_weight
            floor = self._floor
        bounded = 0
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
                if profile_bags is not None:
                    left_bag = profile_bags[left_profile]
                    right_bag = profile_bags[right_profile]
                    if (
                        left_bag is not None
                        and right_bag is not None
                        and weight
                        * _winkler_bound(
                            left_bag,
                            profile_sizes[left_profile],
                            right_bag,
                            profile_sizes[right_profile],
                            prefix_scale,
                            max_prefix,
                        )
                        / total_weight
                        < floor
                    ):
                        bounded += 1
                        memo[key] = non_match
                        compared_append((ext_id, local_id))
                        continue
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
        self.pair_bounded += bounded
        self.pair_hits += len(compared) - misses
        return compared, decisions

    def __repr__(self) -> str:
        return (
            f"<BatchScorer fields={len(self._fields)} "
            f"profiles={self.profile_count} pairs={len(self._pair_memo)}>"
        )
