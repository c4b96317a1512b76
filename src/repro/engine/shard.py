"""Shard planning for block-parallel candidate generation.

The paper's rule-based linking decomposes naturally by blocking key:
every candidate pair lives inside one block, so *blocks* — not pair
chunks — are the unit of parallel work (the map-by-key decomposition
Isele & Bizer exploit for scalable linkage-rule execution). A
:class:`ShardPlan` partitions a blocking method's key space into a
fixed number of balanced shards; the engine's ``shard`` executor then
hands each process worker its own shards, the worker draws that
shard's candidate pairs lazily from the blocking method *in-worker*
(the stores arrive by fork inheritance, so no pair is ever pickled)
and only compact decision wires cross the process boundary.

Balance comes from two sources, composed:

* **block-size stats** — when the blocking method can report per-key
  block sizes (standard blocking reads them straight off its shared
  :class:`~repro.index.RecordKeyIndex` posting lists), the plan pins
  keys to shards greedily, heaviest block first, always onto the
  currently lightest shard (LPT scheduling — deterministic because
  ties in both size and load break on the sorted key);
* **stable hashing** — keys without stats fall back to
  ``crc32(key) % shards``. CRC32 is deliberate: Python's ``hash`` is
  randomized per process, which would scatter a key to different
  shards in different workers.

Determinism does **not** rest on the plan, though. Shard outcomes carry
group sort keys derived from the serial emission order (an external
ordinal for record-keyed methods, richer tuples for methods like q-gram
or sorted-neighbourhood whose serial order interleaves records), the
parent folds outcomes in shard order and merges the groups back into
that serial order (:func:`merge_shard_groups`), so the final
:class:`~repro.linking.pipeline.LinkingResult` is byte-identical to the
serial path whatever the plan assigned where.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

#: A merge group's sort key: the blocking method's encoding of where
#: the group sits in the *serial* emission order. An int (external
#: ordinal) for methods whose serial order is external-store order;
#: tuples of ints for methods that interleave records (q-gram's
#: ``(ordinal, key index)``, sorted-neighbourhood's window positions).
#: All keys of one run must be mutually comparable, ascending in serial
#: emission order, and owned by exactly one shard.
GroupKey = Union[int, Tuple[int, ...]]

#: One worker's results for one merge group: the group's sort key, the
#: candidate pairs actually compared — ``(external id, local id)``, in
#: serial emission order — and the non-NON_MATCH decision wires (see
#: :data:`repro.engine.job.DecisionWire`). Sort keys let the parent
#: restore the serial candidate order with a k-way merge.
ShardGroup = Tuple[GroupKey, List, List]


def stable_key_hash(key: str) -> int:
    """A process-stable hash of a block key.

    ``zlib.crc32`` over UTF-8 bytes: identical in every worker process
    (unlike ``hash``, which PYTHONHASHSEED randomizes) and cheap enough
    to call once per external record.
    """
    return zlib.crc32(key.encode("utf-8"))


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a block-key space into shards.

    ``pinned`` maps the keys with known block sizes to their
    greedily-balanced shard; every other key hashes. Plans are built in
    the parent and shipped to workers (with the default fork start
    method they are inherited, not pickled).
    """

    shards: int
    pinned: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shard count must be >= 1, got {self.shards}")
        for key, shard in self.pinned.items():
            if not 0 <= shard < self.shards:
                raise ValueError(
                    f"pinned shard {shard} for key {key!r} outside "
                    f"[0, {self.shards})"
                )

    @classmethod
    def build(
        cls, shards: int, block_sizes: Optional[Mapping[str, int]] = None
    ) -> "ShardPlan":
        """Plan *shards* shards, balancing known block sizes greedily.

        Keys are pinned heaviest-first onto the lightest shard so far
        (longest-processing-time scheduling); both the size ordering
        and the lightest-shard choice break ties deterministically, so
        the same inputs always produce the same plan. With no (or
        empty) *block_sizes* the plan is pure stable hashing.
        """
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if not block_sizes:
            return cls(shards=shards, pinned={})
        loads = [0] * shards
        pinned: Dict[str, int] = {}
        for key in sorted(block_sizes, key=lambda k: (-block_sizes[k], k)):
            target = min(range(shards), key=loads.__getitem__)
            pinned[key] = target
            loads[target] += max(1, block_sizes[key])
        return cls(shards=shards, pinned=pinned)

    def shard_of(self, key: str) -> int:
        """The shard owning *key* (pinned, else stable hash)."""
        pinned = self.pinned.get(key)
        if pinned is not None:
            return pinned
        return stable_key_hash(key) % self.shards

    def loads(self, block_sizes: Mapping[str, int]) -> List[int]:
        """Per-shard total block size under this plan (for tests/stats)."""
        loads = [0] * self.shards
        for key, size in block_sizes.items():
            loads[self.shard_of(key)] += size
        return loads


@dataclass
class ShardOutcome:
    """Everything one worker produced for one shard.

    ``groups`` holds one :data:`ShardGroup` per run of consecutive
    equal sort keys that contributed at least one compared pair, in
    ascending sort-key order (the order the worker drew them). Cache
    counters are the worker's
    per-shard deltas, summed by the parent like the process executor's
    per-chunk deltas; the ``batch_*`` counters are the batched scorer's
    deltas when the run scores in batched mode (zero otherwise).
    """

    shard: int
    groups: List[ShardGroup]
    compared: int
    match_ext_ids: List
    cache_hits: int
    cache_misses: int
    batch_hits: int = 0
    batch_misses: int = 0
    batch_profiles: int = 0
    batch_bounded: int = 0


def merge_shard_groups(outcomes: List[ShardOutcome]) -> Iterator[ShardGroup]:
    """K-way merge of shard outcomes back into serial emission order.

    Every group sort key is owned by exactly one shard (the blocking
    method's ownership rule — a record's single block key, q-gram's
    first-owning sub-list key, a window segment's later position, a
    canopy pair's local record) and each shard's groups are already
    key-sorted, so
    a heap merge on the sort key restores exactly the order the serial
    path would have compared in — the byte-identity guarantee of the
    shard executor reduces to this merge plus the shard-ordered fold of
    the caller.
    """
    import heapq

    return heapq.merge(*(outcome.groups for outcome in outcomes), key=lambda g: g[0])
