"""Blocking methods: the related-work baselines plus the paper's method.

Paper §2 surveys exactly these families:

* **standard blocking** — "persons that share the same first five
  characters of their last name belong to the same block" (Jaro);
* **sorted neighbourhood** — sort by a key, slide a fixed window (Yan et
  al.);
* **bi-gram indexing** — "attribute values are converted into sub-strings
  of two characters and sub-lists of all possible permutations are built
  using a threshold", inverted-indexed (Baxter et al.);
* **canopy clustering** — cheap-similarity canopies (classic blocking
  baseline, included for the comparison bench).

:class:`RuleBasedBlocking` adapts the paper's classification rules to the
same ``candidate_pairs`` interface so experiment A3 can compare all of
them on reduction ratio and pairs completeness. :class:`FullIndex` is the
naive ``|S_E| x |S_L|`` cartesian product, the paper's strawman.

Key-driven methods (standard and q-gram blocking) have one candidate
path: they read a :class:`~repro.index.RecordKeyIndex` over the local
store — the shared one, built once per (store, key derivation) and
reused across runs, when the key has a cache signature, else a private
build per run. :class:`RuleBasedBlocking` batch-probes the classifier's
rule index. The scan implementations these replaced live on as test
oracles (``tests/oracles/blocking.py``), and the tests assert every
method emits exactly their candidate pair sequences.

Every registered method supports the engine's ``shard`` executor
through the per-key block iteration API
(:meth:`BlockingMethod.supports_sharding`,
:meth:`~BlockingMethod.shard_block_sizes`,
:meth:`~BlockingMethod.shard_candidate_pairs`): a process worker draws
only the candidate pairs whose block key its
:class:`~repro.engine.shard.ShardPlan` shard owns, lazily, in-worker.
Each class has its own partitioning argument:

* **standard blocking** shards on its blocking key (block sizes read
  off the shared key index inform the plan's balance); the **full
  index** and **rule-based blocking** shard on the external record id
  (each external record is its own block);
* **q-gram blocking** shards on the expanded sub-list key. One pair can
  co-occur under several keys, so ownership follows the serial dedup
  rule: the pair belongs to the external record's *first* sorted key
  whose posting contains the local record — every other key skips it;
* **sorted-neighbourhood** cuts the sorted order into one contiguous
  position segment per shard; a segment owns the window pairs whose
  *later* position falls inside it and reaches back ``window-1``
  positions (the overlap halo) for pairs straddling its left boundary;
* **canopy blocking** shards on the *local* record: whether a local is
  still in circulation at a center depends only on that local's own
  similarities (it leaves right after the first ``tight`` center's
  sweep), so a worker owning a local replays its whole serial life —
  scan centers in order, emit ``loose`` pairs, stop at the first
  ``tight`` one — with no serial pre-pass at all.

Each rule assigns every pair exactly one owner, so shard outputs merge
back into the exact serial emission order (the engine's byte-identity
guarantee — see :mod:`repro.engine.shard`).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Set,
    Tuple,
    Union,
)

from repro.core.classifier import RuleClassifier
from repro.core.subspace import LinkingSubspace
from repro.index import IndexStats, RecordKeyIndex, shared_record_index
from repro.linking.records import Record, RecordStore
from repro.ontology.model import Ontology
from repro.rdf.graph import Graph
from repro.rdf.terms import Term
from repro.text.normalize import normalize_value
from repro.text.similarity import qgram_cosine_similarity

if TYPE_CHECKING:  # pragma: no cover - typing only (engine imports us)
    from repro.engine.shard import ShardPlan

#: A candidate pair: (external record id, local record id).
CandidatePair = Tuple[Term, Term]

#: A merge group's sort key: the method's encoding of where its pairs
#: sit in the serial emission order — an external-store ordinal for
#: record-keyed methods, tuples for methods whose serial order
#: interleaves records (q-gram's ``(ordinal, key index)``,
#: sorted-neighbourhood's ``(first window start, earlier position,
#: later position)``). Keys of one run must be mutually comparable and
#: each key must be emitted by exactly one shard.
GroupKey = Union[int, Tuple[int, ...]]

#: A sharded candidate pair: (group sort key, external record id, local
#: record id). The sort key lets the engine merge shard outcomes back
#: into the serial comparison order.
ShardedPair = Tuple[GroupKey, Term, Term]


class BlockingMethod(ABC):
    """Produces candidate pairs between an external and a local store."""

    @abstractmethod
    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        """Yield (external id, local id) pairs worth comparing."""

    def pair_count(self, external: RecordStore, local: RecordStore) -> int:
        """Number of candidate pairs (materializes the iterator)."""
        return sum(1 for _ in self.candidate_pairs(external, local))

    def index_stats(self) -> IndexStats | None:
        """Index build/probe report of the last run (None when unused).

        Index-backed methods overwrite this after draining
        :meth:`candidate_pairs`; the engine folds it into
        :class:`~repro.engine.stats.EngineStats`.
        """
        return None

    # ------------------------------------------------------------------
    # per-key block iteration (the shard executor's contract)
    # ------------------------------------------------------------------
    def supports_sharding(self) -> bool:
        """Whether this method can decompose candidates by block key.

        True only when the method has an ownership rule that assigns
        every candidate pair to exactly one shard and a sort key that
        restores the serial emission order under the engine's k-way
        merge — the invariants that let :meth:`shard_candidate_pairs`
        split work without duplicating or reordering pairs. Every
        registered method honors them; duck-typed doubles that do not
        keep the default False and the engine degrades ``shard`` to
        ``process``.
        """
        return False

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Per-block-key size stats for :class:`ShardPlan` balance.

        May be empty (the plan then balances by stable hash alone);
        must be cheap — standard blocking reads posting lengths off the
        shared record key index rather than re-deriving keys.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded candidate generation"
        )

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan",
        shard: int,
    ) -> Iterator[ShardedPair]:
        """Candidate pairs whose block key *plan* assigns to *shard*.

        Pairs are yielded in ascending group-sort-key order, each
        tagged with its key, and within one key in exactly the order
        :meth:`candidate_pairs` would have emitted them — the engine's
        k-way merge then reconstructs the serial comparison order
        exactly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded candidate generation"
        )


class FullIndex(BlockingMethod):
    """No blocking at all: the naive cartesian product ``|S_E| x |S_L|``."""

    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        for ext in external.ids():
            for loc in local.ids():
                yield ext, loc

    def pair_count(self, external: RecordStore, local: RecordStore) -> int:
        """``|S_E| x |S_L|`` directly — no iterator to materialize."""
        return len(external) * len(local)

    def supports_sharding(self) -> bool:
        return True

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Empty: every external record's block is uniformly ``|S_L|``,
        so stable hashing alone already balances the plan."""
        return {}

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan",
        shard: int,
    ) -> Iterator[ShardedPair]:
        # each external record is its own block, keyed by its id
        local_ids = list(local.ids())
        for ordinal, ext in enumerate(external.ids()):
            if plan.shard_of(str(ext)) != shard:
                continue
            for loc in local_ids:
                yield ordinal, ext, loc


def _prefix_key(field_name: str, length: int, record: Record) -> str:
    """Module-level so ``on_field_prefix`` keys pickle (see there)."""
    return normalize_value(record.value(field_name))[:length]


def _transform_key(
    field_name: str, transform: Callable[[str], str], record: Record
) -> str:
    """Module-level so ``on_field_transform`` keys pickle with their
    transform (see there)."""
    return transform(record.value(field_name))


def _normalized_field_key(field_name: str, record: Record) -> str:
    """Module-level so ``SortedNeighbourhood.on_field`` keys pickle and
    introspect (the work-unit protocol reads the partial's args back)."""
    return normalize_value(record.value(field_name))


class StandardBlocking(BlockingMethod):
    """Exact-key blocking on a derived blocking key.

    ``key`` maps a record to its blocking key (e.g. first five characters
    of a field, or a Soundex code); records with equal non-empty keys land
    in the same block and all cross-source pairs inside a block become
    candidates.

    The local store's blocks come from a
    :class:`~repro.index.RecordKeyIndex`. With a cache *signature* (set
    by :meth:`on_field_prefix`) it is the shared one — built once,
    reused by every job that blocks the same store the same way;
    without one it is built privately per run.
    """

    def __init__(
        self,
        key: Callable[[Record], str],
        signature: str | None = None,
    ) -> None:
        self._key = key
        self._signature = signature
        self._last_index_stats: IndexStats | None = None

    @classmethod
    def on_field_prefix(cls, field_name: str, length: int = 5) -> "StandardBlocking":
        """The paper's example: same first *length* characters of a field.

        The key is a partial over a module-level function — picklable,
        so the blocking instance survives spawn/forkserver worker
        bringup (the shard executor ships it through pool initargs; a
        closure would break sharding everywhere fork isn't the start
        method).
        """
        key = functools.partial(_prefix_key, field_name, length)
        return cls(key, signature=f"prefix:{field_name}:{length}")

    @classmethod
    def on_field_transform(
        cls, field_name: str, transform: Callable[[str], str]
    ) -> "StandardBlocking":
        """Key = ``transform(field value)`` (e.g. a phonetic encoder).

        Arbitrary transforms carry no stable cache signature, so the
        index is rebuilt per run (sharing would risk signature
        collisions between distinct callables). Picklability — and with
        it shard support on spawn platforms — follows the transform's.
        """
        key = functools.partial(_transform_key, field_name, transform)
        return cls(key, signature=None)

    def _keys_for(self, record: Record) -> Iterator[str]:
        key = self._key(record)
        if key:
            yield key

    def index_stats(self) -> IndexStats | None:
        return self._last_index_stats

    def supports_sharding(self) -> bool:
        """Key blocking partitions pairs: one key per external record,
        every pair inside exactly one block."""
        return True

    def _local_index(self, local: RecordStore) -> RecordKeyIndex:
        """The local store's block index: shared under a cache
        signature, else built for this call alone."""
        if self._signature is None:
            return RecordKeyIndex.build(local, self._keys_for)
        return shared_record_index(local, self._signature, self._keys_for)

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Local-side block sizes, read off the key index.

        Building (or reusing) the shared index here also warms the
        per-store cache *before* the engine forks its shard workers, so
        every worker inherits the postings instead of rebuilding them.
        """
        return self._local_index(local).key_sizes()

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan",
        shard: int,
    ) -> Iterator[ShardedPair]:
        index = self._local_index(local)
        for ordinal, record in enumerate(external):
            key = self._key(record)
            if not key or plan.shard_of(key) != shard:
                continue
            for local_id in index.candidates(key):
                yield ordinal, record.id, local_id

    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        index = self._local_index(local)
        probe_seconds = 0.0
        for record in external:
            started = time.perf_counter()
            key = self._key(record)
            matches = list(index.candidates(key)) if key else []
            probe_seconds += time.perf_counter() - started
            for local_id in matches:
                yield record.id, local_id
        index.probed(probe_seconds)
        # per-run report: one-time build cost, this run's probe time
        self._last_index_stats = dataclasses.replace(
            index.stats(), probe_seconds=probe_seconds
        )


class SortedNeighbourhood(BlockingMethod):
    """Sorted-neighbourhood method (merge the sources, slide a window).

    Records of both sources are sorted together by the sorting key; a
    window of ``window_size`` consecutive records moves over the sorted
    list and every external/local pair inside the window becomes a
    candidate — the adaptive variant of Yan et al. is approximated by
    skipping same-source pairs.
    """

    def __init__(self, key: Callable[[Record], str], window_size: int = 5) -> None:
        if window_size < 2:
            raise ValueError(f"window size must be >= 2, got {window_size}")
        self._key = key
        self._window = window_size

    @classmethod
    def on_field(cls, field_name: str, window_size: int = 5) -> "SortedNeighbourhood":
        """Sort by the normalized value of *field_name*.

        The key is a partial over a module-level function — picklable on
        spawn platforms, and introspectable, so the work-unit protocol
        can serialize the blocking configuration for remote workers.
        """
        key = functools.partial(_normalized_field_key, field_name)
        return cls(key, window_size)

    def _tagged(
        self, external: RecordStore, local: RecordStore
    ) -> List[Tuple[str, bool, Term]]:
        """Both sources merged and sorted by (key, id) — the order the
        window slides over. The str(id) tie-break (plus the stable sort
        over external-then-local insertion) keeps the order identical
        across processes, which shard ownership depends on."""
        tagged: List[Tuple[str, bool, Term]] = []
        for record in external:
            tagged.append((self._key(record), True, record.id))
        for record in local:
            tagged.append((self._key(record), False, record.id))
        tagged.sort(key=lambda entry: (entry[0], str(entry[2])))
        return tagged

    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        tagged = self._tagged(external, local)
        seen: Set[CandidatePair] = set()
        for start in range(len(tagged)):
            window = tagged[start:start + self._window]
            for (_, is_ext_a, id_a), (_, is_ext_b, id_b) in itertools.combinations(window, 2):
                if is_ext_a == is_ext_b:
                    continue
                pair = (id_a, id_b) if is_ext_a else (id_b, id_a)
                if pair not in seen:
                    seen.add(pair)
                    yield pair

    def supports_sharding(self) -> bool:
        """The sorted order is cut into one contiguous position segment
        per shard. A window pair is identified by its two sorted
        positions; the segment containing the *later* position owns it
        and reaches back ``window-1`` positions (the overlap halo) for
        pairs that straddle its left boundary — every pair has exactly
        one later position, so exactly one owner, and the halo pairs
        are generated once, never twice."""
        return True

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Empty: segments are equal position ranges of the sorted
        order assigned directly (segment *i* is shard *i*), so there
        are no block keys for the plan to balance — window load is
        uniform per position by construction."""
        return {}

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan",
        shard: int,
    ) -> Iterator[ShardedPair]:
        # Serial emission order: a position pair (a, b) first appears in
        # the window starting at s = max(0, b - window + 1), and within
        # one start the combinations() sweep runs (a, b)-ascending — so
        # (s, a, b) sorts pairs exactly as the serial sweep yields them.
        tagged = self._tagged(external, local)
        count = len(tagged)
        lo = count * shard // plan.shards
        hi = count * (shard + 1) // plan.shards
        owned: List[ShardedPair] = []
        for later in range(lo, hi):
            _, is_ext_b, id_b = tagged[later]
            first_start = max(0, later - self._window + 1)
            for earlier in range(first_start, later):
                _, is_ext_a, id_a = tagged[earlier]
                if is_ext_a == is_ext_b:
                    continue
                ext_id, local_id = (
                    (id_a, id_b) if is_ext_a else (id_b, id_a)
                )
                owned.append(((first_start, earlier, later), ext_id, local_id))
        # the halo scan runs later-position-major; re-sort into serial
        # emission order (only the first window's pairs actually move)
        owned.sort(key=lambda entry: entry[0])
        yield from owned


class QGramBlocking(BlockingMethod):
    """Bi-gram (q-gram) indexing as sketched by Baxter et al.

    Each value is turned into its sorted list of q-grams; sub-lists of
    length ``ceil(len * threshold)`` (all combinations) are generated and
    inserted into an inverted index. Records sharing at least one
    sub-list key become candidates. ``threshold=1.0`` degenerates into
    exact q-gram-set blocking.

    ``max_grams`` caps the combinatorial explosion on long values (the
    classic implementations do the same).

    The local store's sub-list inverted index is a shared
    :class:`~repro.index.RecordKeyIndex` keyed on the full q-gram
    configuration, so repeated jobs against the same catalog skip the
    rebuild.
    """

    def __init__(
        self,
        field_name: str,
        q: int = 2,
        threshold: float = 0.8,
        max_grams: int = 12,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self._field = field_name
        self._q = q
        self._threshold = threshold
        self._max_grams = max_grams
        self._last_index_stats: IndexStats | None = None

    def _keys(self, record: Record) -> List[str]:
        """Sub-list keys of a record, in sorted (deterministic) order.

        Key order drives candidate emission order, which best-match
        tie-breaking downstream depends on — sorted keys keep runs
        byte-identical across processes (hash randomization would
        otherwise reorder a set).
        """
        value = normalize_value(record.value(self._field))
        if not value:
            return []
        grams = sorted(
            {value[i:i + self._q] for i in range(max(1, len(value) - self._q + 1))}
        )[: self._max_grams]
        keep = max(1, math.ceil(len(grams) * self._threshold))
        if keep >= len(grams):
            return ["".join(grams)]
        return sorted(
            {"".join(combo) for combo in itertools.combinations(grams, keep)}
        )

    def index_stats(self) -> IndexStats | None:
        return self._last_index_stats

    def _signature(self) -> str:
        """Shared-index cache key: the full q-gram configuration."""
        return f"qgram:{self._field}:{self._q}:{self._threshold}:{self._max_grams}"

    def _local_index(self, local: RecordStore) -> RecordKeyIndex:
        """The local store's shared sub-list index."""
        return shared_record_index(local, self._signature(), self._keys)

    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        index = self._local_index(local)
        seen: Set[CandidatePair] = set()
        probe_seconds = 0.0
        for record in external:
            started = time.perf_counter()
            fresh: List[CandidatePair] = []
            for key in self._keys(record):
                for local_id in index.candidates(key):
                    pair = (record.id, local_id)
                    if pair not in seen:
                        seen.add(pair)
                        fresh.append(pair)
            probe_seconds += time.perf_counter() - started
            yield from fresh
        index.probed(probe_seconds)
        # per-run report: one-time build cost, this run's probe time
        self._last_index_stats = dataclasses.replace(
            index.stats(), probe_seconds=probe_seconds
        )

    def supports_sharding(self) -> bool:
        """Sub-list keys are partitioned by the plan. A pair that
        co-occurs under several of a record's keys is owned by the
        *first* sorted key whose posting contains the local record —
        exactly the occurrence the serial path's dedup set keeps — so
        every pair is generated by exactly one shard."""
        return True

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Per-sub-list-key posting sizes for the plan's LPT balance.

        This also warms the shared per-store index *before* the engine
        forks its shard workers, so every worker inherits the postings
        instead of rebuilding them.
        """
        return self._local_index(local).key_sizes()

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan",
        shard: int,
    ) -> Iterator[ShardedPair]:
        index = self._local_index(local)
        for ordinal, record in enumerate(external):
            keys = self._keys(record)
            owned = [
                position for position, key in enumerate(keys)
                if plan.shard_of(key) == shard
            ]
            if not owned:
                continue
            owned_set = set(owned)
            # replay the record's keys up to its last owned one so the
            # dedup set sees every earlier occurrence of a local id,
            # but emit only the fresh pairs of owned keys — the serial
            # seen-set dedup, restated as an ownership rule
            seen: Set[Term] = set()
            for key_index in range(owned[-1] + 1):
                fresh_here = key_index in owned_set
                for local_id in index.candidates(keys[key_index]):
                    if local_id in seen:
                        continue
                    seen.add(local_id)
                    if fresh_here:
                        yield (ordinal, key_index), record.id, local_id


class CanopyBlocking(BlockingMethod):
    """Canopy clustering with a cheap q-gram cosine similarity.

    Local records are indexed; each external record seeds a canopy of
    local records within ``loose`` similarity. The classic tight/loose
    two-threshold scheme removes locals within ``tight`` similarity from
    future canopies, bounding redundancy.
    """

    def __init__(
        self,
        field_name: str,
        loose: float = 0.4,
        tight: float = 0.9,
        q: int = 2,
    ) -> None:
        if not 0.0 <= loose <= tight <= 1.0:
            raise ValueError(
                f"need 0 <= loose <= tight <= 1, got loose={loose}, tight={tight}"
            )
        self._field = field_name
        self._loose = loose
        self._tight = tight
        self._q = q

    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        remaining: Dict[Term, str] = {
            record.id: normalize_value(record.value(self._field)) for record in local
        }
        for record in external:
            value = normalize_value(record.value(self._field))
            if not value:
                continue
            claimed: List[Term] = []
            for local_id, local_value in remaining.items():
                sim = qgram_cosine_similarity(value, local_value, q=self._q)
                if sim >= self._loose:
                    yield record.id, local_id
                    if sim >= self._tight:
                        claimed.append(local_id)
            for local_id in claimed:
                del remaining[local_id]

    def supports_sharding(self) -> bool:
        """Shards own *local* records. In the serial sweep a local
        leaves circulation right after the *first* center within
        ``tight`` similarity has scanned it — an event that depends
        only on that local's own similarities, never on another local's
        removal — so a worker owning a local can replay its whole
        serial life: scan the centers in ordinal order, emit every
        ``loose`` pair, stop at the first ``tight`` one. The work of
        the serial sweep is partitioned exactly (no extra similarity
        is ever computed) and every pair is emitted by exactly the one
        worker owning its local record."""
        return True

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Empty — per-local work is unknown until the sims are
        computed (an early-claimed local is cheap), so locals balance
        by stable hash of their id."""
        return {}

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan",
        shard: int,
    ) -> Iterator[ShardedPair]:
        # Serial emission order is center-major: center ordinal, then
        # local store order within the center's canopy (dict iteration
        # order survives deletions), so (ordinal, local position) sorts
        # pairs exactly as the serial sweep yields them — and the key
        # is unique per pair, trivially owned by its local's shard.
        centers = [
            (ordinal, record.id, normalize_value(record.value(self._field)))
            for ordinal, record in enumerate(external)
        ]
        owned: List[ShardedPair] = []
        for position, record in enumerate(local):
            if plan.shard_of(str(record.id)) != shard:
                continue
            local_value = normalize_value(record.value(self._field))
            for ordinal, ext_id, value in centers:
                if not value:
                    continue  # empty centers neither pair nor claim
                sim = qgram_cosine_similarity(value, local_value, q=self._q)
                if sim >= self._loose:
                    owned.append(((ordinal, position), ext_id, record.id))
                if sim >= self._tight:
                    break  # claimed: later centers never see this local
        # the scan runs local-major; re-sort into center-major serial order
        owned.sort(key=lambda entry: entry[0])
        yield from owned


class RuleBasedBlocking(BlockingMethod):
    """The paper's method behind the common blocking interface.

    Classifies each external record with the learned rules and emits
    pairs against the instances of the predicted classes. Undecided
    records fall back to the full local store (``fallback_full=True``,
    the fair default for completeness comparisons) or to no pairs.

    The batch is classified through the classifier's inverted rule
    index (:meth:`~repro.core.classifier.RuleClassifier.predict_many`).
    """

    def __init__(
        self,
        classifier: RuleClassifier,
        ontology: Ontology,
        external_graph: Graph,
        fallback_full: bool = True,
    ) -> None:
        self._classifier = classifier
        self._ontology = ontology
        self._graph = external_graph
        self._fallback_full = fallback_full
        self._last_index_stats: IndexStats | None = None

    def index_stats(self) -> IndexStats | None:
        return self._last_index_stats

    def supports_sharding(self) -> bool:
        """Each external record is its own block (its predicted-class
        candidate set), so blocks partition the pair space; predictions
        are per-item, so a worker classifying only its own externals
        predicts exactly what a whole-batch run would."""
        return True

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Empty: block sizes would cost a classification pass in the
        parent, which is exactly the work sharding moves in-worker —
        stable hashing of the external ids balances well enough."""
        return {}

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan",
        shard: int,
    ) -> Iterator[ShardedPair]:
        mine = [
            (ordinal, ext_id)
            for ordinal, ext_id in enumerate(external.ids())
            if plan.shard_of(str(ext_id)) == shard
        ]
        self._classifier.build_probe_table()
        predictions = self._classifier.predict_many(
            [ext_id for _, ext_id in mine], self._graph
        )
        subspace = LinkingSubspace.from_predictions(predictions, self._ontology)
        local_order = list(local.ids())
        local_ids = set(local_order)
        for ordinal, ext_id in mine:
            for local_id in self._candidates_of(
                ext_id, subspace, local_order, local_ids
            ):
                yield ordinal, ext_id, local_id

    def _candidates_of(
        self,
        ext_id: Term,
        subspace: LinkingSubspace,
        local_order: List[Term],
        local_ids: Set[Term],
    ) -> Iterator[Term]:
        """One external record's candidates, in the deterministic
        emission order shared by the serial and sharded paths."""
        candidates = subspace.candidates_for(ext_id)
        if not candidates and self._fallback_full:
            yield from local_order
            return
        matching = [c for c in candidates if c in local_ids]
        matching.sort(key=str)
        yield from matching

    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        self._classifier.build_probe_table()
        started = time.perf_counter()
        predictions = self._classifier.predict_many(list(external.ids()), self._graph)
        probe_seconds = time.perf_counter() - started
        self._last_index_stats = self._classifier.probe_index_stats(probe_seconds)
        subspace = LinkingSubspace.from_predictions(predictions, self._ontology)
        # deterministic emission: subspace candidate sets iterate in hash
        # order, which PYTHONHASHSEED reshuffles between processes, and
        # best-match tie-breaking downstream would inherit the shuffle —
        # store order (fallback) / sorted ids keep runs byte-identical
        local_order = list(local.ids())
        local_ids = set(local_order)
        for ext_id in external.ids():
            for candidate in self._candidates_of(
                ext_id, subspace, local_order, local_ids
            ):
                yield ext_id, candidate
