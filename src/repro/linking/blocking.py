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
build per run. Q-gram blocking indexes single grams, not Baxter's
sub-lists, and counts common grams per candidate, which decides the
same pairs. Canopy blocking indexes the (few) centers' q-gram profiles
per run. :class:`RuleBasedBlocking` batch-probes the classifier's rule
index. The scan implementations these replaced live on as test
oracles (``tests/oracles/blocking.py``), and the tests assert every
method emits exactly their candidate pair sequences.

Each family has one candidate generator,
:meth:`~BlockingMethod.shard_candidate_pairs`: a process worker of the
engine's ``shard`` executor draws only the candidate pairs whose block
key its :class:`~repro.engine.shard.ShardPlan` shard owns, lazily,
in-worker, and :meth:`~BlockingMethod.candidate_pairs` is the same
generator with no plan (one shard owning every key), its keys stripped.
Each class has its own partitioning argument:

* **standard blocking** shards on its blocking key (block sizes read
  off the shared key index inform the plan's balance); the **full
  index** and **rule-based blocking** shard on the external record id
  (each external record is its own block);
* **q-gram blocking** shards on the sub-list key, though it never
  builds one. One pair can co-occur under several keys, so ownership
  follows the serial dedup rule: the pair belongs to the external
  record's *first* sorted key the local record shares — the join of
  their ``keep`` smallest common grams — and the plan hash-balances on
  that key;
* **sorted-neighbourhood** cuts the sorted order into one contiguous
  position segment per shard; a segment owns the window pairs whose
  *later* position falls inside it and reaches back ``window-1``
  positions (the overlap halo) for pairs straddling its left boundary;
* **canopy blocking** shards on the *local* record: whether a local is
  still in circulation at a center depends only on that local's own
  similarities (it leaves right after the first ``tight`` center's
  sweep), so a worker owning a local replays its whole serial life —
  visit the centers sharing a gram with it in order (every center when
  ``loose == 0``), emit ``loose`` pairs, stop at the first ``tight``
  one — with no serial pre-pass at all.

Each rule assigns every pair exactly one owner, so shard outputs merge
back into the exact serial emission order (the engine's byte-identity
guarantee — see :mod:`repro.engine.shard`).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import time
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
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
from repro.text.similarity import qgram_profile_normed

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
    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """Candidate pairs whose block key *plan* assigns to *shard*
        (``plan=None``: the whole key space), in ascending group-sort-key
        order, each tagged with its key. Every pair has exactly one
        owning shard, so the engine's k-way merge of all shards' streams
        reconstructs the ``plan=None`` (serial) stream exactly."""

    def candidate_pairs(
        self, external: RecordStore, local: RecordStore
    ) -> Iterator[CandidatePair]:
        """Yield (external id, local id) pairs worth comparing."""
        for _, ext_id, local_id in self.shard_candidate_pairs(external, local):
            yield ext_id, local_id

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

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """Per-block-key size stats for :class:`ShardPlan` balance.

        May be empty (the default; the plan then balances by stable hash
        alone); must be cheap — standard blocking reads posting lengths
        off the shared record key index rather than re-deriving keys.
        """
        return {}


class FullIndex(BlockingMethod):
    """No blocking at all: the naive cartesian product ``|S_E| x |S_L|``."""

    def pair_count(self, external: RecordStore, local: RecordStore) -> int:
        """``|S_E| x |S_L|`` directly — no iterator to materialize."""
        return len(external) * len(local)

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """Each external record is its own block, keyed by its id; the
        plan balances by stable hash alone, since every block is
        uniformly ``|S_L|``."""
        local_ids = list(local.ids())
        for ordinal, ext in enumerate(external.ids()):
            if plan is None or plan.shard_of(str(ext)) == shard:
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
        if length < 1:
            raise ValueError(f"prefix length must be >= 1, got {length}")
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
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """Key blocking partitions pairs: one key per external record,
        every pair inside exactly one block."""
        index = self._local_index(local)
        probe_seconds = 0.0
        for ordinal, record in enumerate(external):
            started = time.perf_counter()
            key = self._key(record)
            owned = key and (plan is None or plan.shard_of(key) == shard)
            matches = list(index.candidates(key)) if owned else []
            probe_seconds += time.perf_counter() - started
            for local_id in matches:
                yield ordinal, record.id, local_id
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

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """The sorted order is cut into one contiguous position segment
        per shard (``plan=None`` is a single segment). A window pair is
        identified by its two sorted positions; the segment containing
        the *later* position owns it and reaches back ``window-1``
        positions (the overlap halo) for pairs that straddle its left
        boundary — every pair has exactly one later position, so
        exactly one owner, and the halo pairs are generated once, never
        twice. Segments are equal position ranges assigned directly
        (segment *i* is shard *i*), so there are no block keys for the
        plan to balance — window load is uniform per position by
        construction."""
        # Serial emission order: a position pair (a, b) first appears in
        # the window starting at s = max(0, b - window + 1), and within
        # one start the combinations() sweep runs (a, b)-ascending — so
        # (s, a, b) sorts pairs exactly as the serial sweep yields them.
        tagged = self._tagged(external, local)
        count = len(tagged)
        shards = 1 if plan is None else plan.shards
        lo = count * shard // shards
        hi = count * (shard + 1) // shards
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
    length ``keep = ceil(len * threshold)`` (all combinations) are the
    blocking keys, and records sharing at least one sub-list key become
    candidates. ``threshold=1.0`` degenerates into exact q-gram-set
    blocking.

    ``max_grams`` caps the gram list of long values (the classic
    implementations do the same).

    The sub-lists are never built. Grams of one record have one length
    (a value shorter than ``q`` is its own single gram), so joins of
    sorted grams are injective: two records share a sub-list key iff
    they have the same ``keep`` and at least ``keep`` common grams. The
    local store's shared :class:`~repro.index.RecordKeyIndex` therefore
    posts each record under ``f"{keep}:{gram}"`` for its grams, and a
    probe counts common grams per local record.
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
        if max_grams < 1:
            raise ValueError(f"max_grams must be >= 1, got {max_grams}")
        self._field = field_name
        self._q = q
        self._threshold = threshold
        self._max_grams = max_grams
        self._last_index_stats: IndexStats | None = None

    def _grams(self, record: Record) -> Tuple[List[str], int]:
        """A record's sorted, truncated q-grams and its sub-list length."""
        value = normalize_value(record.value(self._field))
        if not value:
            return [], 0
        grams = sorted(
            {value[i:i + self._q] for i in range(max(1, len(value) - self._q + 1))}
        )[: self._max_grams]
        keep = min(len(grams), max(1, math.ceil(len(grams) * self._threshold)))
        return grams, keep

    def _keys(self, record: Record) -> List[str]:
        """Gram keys of a record: its sub-list length, then one gram.

        The length prefix keeps records of different ``keep`` apart,
        as their sub-list keys never coincide.
        """
        grams, keep = self._grams(record)
        return [f"{keep}:{gram}" for gram in grams]

    def index_stats(self) -> IndexStats | None:
        return self._last_index_stats

    def _signature(self) -> str:
        """Shared-index cache key: the full q-gram configuration. Gram
        postings are not the sub-list postings a ``qgram:`` index of an
        older bundle holds, so they carry a signature of their own."""
        return f"qgram-grams:{self._field}:{self._q}:{self._threshold}:{self._max_grams}"

    def _local_index(self, local: RecordStore) -> RecordKeyIndex:
        """The local store's shared gram index."""
        return shared_record_index(local, self._signature(), self._keys)

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        """No block sizes: the plan hash-balances on sub-list keys,
        which are never materialized.

        This still warms the shared per-store index *before* the engine
        forks its shard workers, so every worker inherits the postings
        instead of rebuilding them.
        """
        self._local_index(local)
        return {}

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """Sub-list keys are partitioned by the plan. A pair that
        co-occurs under several of a record's keys is owned by the
        *first* sorted key whose posting contains the local record —
        exactly the occurrence the unsharded dedup set keeps — so
        every pair is generated by exactly one shard.

        That first key is the join of the ``keep`` smallest common
        grams, and its index among the record's sorted sub-list keys
        is the lexicographic rank of their positions. Serial order is
        key-major, then local store order, so ``(ordinal, key index)``
        groups sorted by local ordinal replay the serial dedup sweep."""
        index = self._local_index(local)
        probe_seconds = 0.0
        for ordinal, record in enumerate(external):
            started = time.perf_counter()
            grams, keep = self._grams(record)
            slack = len(grams) - keep
            postings = [index.ordinals(f"{keep}:{gram}") for gram in grams]
            # pigeonhole: a local holding keep of the n grams holds one
            # of any n - keep + 1 of them — walk the rarest, bisect the rest
            by_size = sorted(range(len(grams)), key=[len(p) for p in postings].__getitem__)
            rare, frequent = by_size[: slack + 1], by_size[slack + 1:]
            common: Dict[int, List[int]] = {}
            for at in rare:
                for local_ordinal in postings[at]:
                    common.setdefault(local_ordinal, []).append(at)
            fresh: List[Tuple[int, int]] = []
            for local_ordinal, shared in common.items():
                misses = slack + 1 - len(shared)
                for at in frequent:
                    if misses > slack:
                        break
                    posting = postings[at]
                    found = bisect.bisect_left(posting, local_ordinal)
                    if found < len(posting) and posting[found] == local_ordinal:
                        shared.append(at)
                    else:
                        misses += 1
                if misses > slack:
                    continue  # fewer than keep common grams
                first = sorted(shared)[:keep]
                if plan is not None and plan.shard_of(
                    "".join(grams[at] for at in first)
                ) != shard:
                    continue
                fresh.append((_combination_rank(first, len(grams)), local_ordinal))
            fresh.sort()
            probe_seconds += time.perf_counter() - started
            for key_index, local_ordinal in fresh:
                yield (ordinal, key_index), record.id, index.id_of(local_ordinal)
        index.probed(probe_seconds)
        # per-run report: one-time build cost, this run's probe time
        self._last_index_stats = dataclasses.replace(
            index.stats(), probe_seconds=probe_seconds
        )


def _combination_rank(positions: List[int], n: int) -> int:
    """Lexicographic rank of the ascending *positions* among all
    ``len(positions)``-combinations of ``range(n)``: the index of their
    join among a record's sorted sub-list keys."""
    rank, start = 0, 0
    rest = len(positions)
    for position in positions:
        rest -= 1
        for skipped in range(start, position):
            rank += math.comb(n - 1 - skipped, rest)
        start = position + 1
    return rank


class CanopyBlocking(BlockingMethod):
    """Canopy clustering with a cheap q-gram cosine similarity.

    Each external record seeds a canopy of local records within
    ``loose`` similarity. The classic tight/loose two-threshold scheme
    removes locals within ``tight`` similarity from future canopies,
    bounding redundancy. The external side is the small one, so the
    centers' padded q-gram count profiles are indexed and each local
    record accumulates its dot products from the postings of its own
    grams.
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
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self._field = field_name
        self._loose = loose
        self._tight = tight
        self._q = q

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """Shards own *local* records. In the center-major canopy sweep
        a local leaves circulation right after the *first* center within
        ``tight`` similarity has scanned it — an event that depends
        only on that local's own similarities, never on another local's
        removal — so a worker owning a local can replay its whole
        life: scan the centers in ordinal order, emit every ``loose``
        pair, stop at the first ``tight`` one. Every pair is emitted by
        exactly the one worker owning its local record. Per-local work
        is unknown until the sims are computed (an early-claimed local
        is cheap), so locals balance by stable hash of their id.

        The similarities are ``qgram_cosine_similarity``'s own: the
        integer dot products over the same memoized profiles, divided
        by the same norms. A center sharing no gram with a local has
        similarity 0.0, so it is only visited when ``loose == 0``."""
        # The sweep's emission order is center-major: center ordinal,
        # then local store order within the center's canopy, so
        # (ordinal, local position) sorts pairs exactly as the sweep
        # yields them — and the key is unique per pair, trivially owned
        # by its local's shard.
        centers: List[Tuple[int, Term, float]] = []
        postings: Dict[str, List[Tuple[int, int]]] = {}
        for ordinal, record in enumerate(external):
            value = normalize_value(record.value(self._field))
            if not value:
                continue  # empty centers neither pair nor claim
            profile, norm = qgram_profile_normed(value, self._q)
            for gram, count in profile.items():
                postings.setdefault(gram, []).append((len(centers), count))
            centers.append((ordinal, record.id, norm))
        every_center = range(len(centers))
        owned: List[ShardedPair] = []
        for position, record in enumerate(local):
            if plan is not None and plan.shard_of(str(record.id)) != shard:
                continue
            profile, norm = qgram_profile_normed(
                normalize_value(record.value(self._field)), self._q
            )
            dots: Dict[int, int] = {}
            for gram in profile.keys() & postings.keys():
                count = profile[gram]
                for center, center_count in postings[gram]:
                    dots[center] = dots.get(center, 0) + count * center_count
            for center in every_center if self._loose == 0 else sorted(dots):
                ordinal, ext_id, center_norm = centers[center]
                # an empty local profile (q == 1) has norm 0: sim 0.0
                sim = dots.get(center, 0) / (center_norm * norm) if norm else 0.0
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

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """Each external record is its own block (its predicted-class
        candidate set), so blocks partition the pair space; predictions
        are per-item, so a worker classifying only its own externals
        predicts exactly what a whole-batch run would. Block sizes
        would cost a classification pass in the parent, which is
        exactly the work sharding moves in-worker — stable hashing of
        the external ids balances well enough."""
        mine = [
            (ordinal, ext_id)
            for ordinal, ext_id in enumerate(external.ids())
            if plan is None or plan.shard_of(str(ext_id)) == shard
        ]
        self._classifier.build_probe_table()
        started = time.perf_counter()
        predictions = self._classifier.predict_many(
            [ext_id for _, ext_id in mine], self._graph
        )
        probe_seconds = time.perf_counter() - started
        self._last_index_stats = self._classifier.probe_index_stats(probe_seconds)
        subspace = LinkingSubspace.from_predictions(predictions, self._ontology)
        # deterministic emission: subspace candidate sets iterate in hash
        # order, which PYTHONHASHSEED reshuffles between processes, and
        # best-match tie-breaking downstream would inherit the shuffle —
        # store order (fallback) / sorted ids keep runs byte-identical
        local_order = list(local.ids())
        local_ids = set(local_order)
        for ordinal, ext_id in mine:
            candidates = subspace.candidates_for(ext_id)
            if not candidates and self._fallback_full:
                matching = local_order
            else:
                matching = [c for c in candidates if c in local_ids]
                matching.sort(key=str)
            for local_id in matching:
                yield ordinal, ext_id, local_id
