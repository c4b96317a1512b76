"""The serializable shard work-unit protocol.

A :class:`ShardWorkUnit` is one shard of a linking run as a value: the
shard plan slice, the record stores (external inline; local inline or
pinned by fingerprint for workers that already hold the store), and the
blocking/comparator/decider configuration as declarative *specs* — not
pickles — so a unit is transport-agnostic: a subprocess, an HTTP body
and a message queue all carry the same JSON envelope.

A :class:`~repro.engine.shard.ShardOutcome` travels back as a
``WorkerResult`` envelope carrying the ordinal-merge sort keys
unchanged, which is what keeps the PR-5/7 byte-identity argument alive
across the boundary: the parent k-way-merges remote outcomes exactly as
it merges fork-pool outcomes, so fold order — and therefore the result
bytes — cannot depend on where a shard ran.

Envelopes follow the artifact-bundle integrity idiom
(:mod:`repro.index.artifacts`): a ``format`` tag, a schema version, an
environment fingerprint and a sha256 checksum over the canonical body.
Stale, foreign or corrupted envelopes fail loudly with
:class:`WorkUnitError` before any partial state can leak into a fold.

JSON is deliberate: ``json.dumps``/``loads`` round-trip floats exactly
(repr-based shortest representation), so similarity scores survive the
wire bit-for-bit — a pickle-free guarantee the differential tests pin.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.engine.batch import BatchScorer
from repro.engine.cache import CachedRecordComparator
from repro.engine.executors.base import Decider, DecisionWire
from repro.engine.executors.sharded import run_shard_scan
from repro.engine.shard import GroupKey, ShardOutcome, ShardPlan
from repro.index.artifacts import (
    environment_fingerprint,
    record_store_from_payload,
    record_store_to_payload,
    term_from_payload,
    term_to_payload,
)
from repro.linking.blocking import (
    BlockingMethod,
    CanopyBlocking,
    FullIndex,
    QGramBlocking,
    RuleBasedBlocking,
    SortedNeighbourhood,
    StandardBlocking,
    _normalized_field_key,
    _prefix_key,
)
from repro.linking.comparators import FieldComparator, RecordComparator
from repro.linking.matchers import ThresholdMatcher
from repro.linking.records import RecordStore
from repro.text.similarity import jaro_winkler_similarity

#: Envelope ``format`` tags — reject non-protocol payloads early.
WORK_UNIT_FORMAT = "repro-shard-work-unit"
WORKER_RESULT_FORMAT = "repro-worker-result"

#: Bumped on any incompatible change to the envelope bodies (2: the
#: blocking specs dropped their index-or-scan toggle).
PROTOCOL_SCHEMA_VERSION = 2


class WorkUnitError(ValueError):
    """Raised on stale, foreign, corrupt or unserializable work units."""


def _canonical(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — digest-stable."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_fingerprint(store: RecordStore) -> str:
    """A content fingerprint of a record store (canonical-payload sha256).

    Remote workers pin their resident local store with this: a unit
    built against one catalog can never silently fold against another.
    """
    return _digest(_canonical(record_store_to_payload(store)))


# ---------------------------------------------------------------------------
# configuration specs: declarative, JSON-only descriptions of the
# blocking / comparator / decider triple. Only canonically-constructed
# instances serialize; anything carrying user callables or trained
# state the spec language cannot express is rejected with a reason the
# worker executor surfaces in ``fallback_reason``.
# ---------------------------------------------------------------------------


def blocking_unsupported_reason(blocking: BlockingMethod) -> Optional[str]:
    """Why *blocking* cannot cross the wire (``None`` = it can)."""
    if type(blocking) is FullIndex:
        return None
    if type(blocking) is StandardBlocking:
        key = blocking._key
        if isinstance(key, functools.partial) and key.func is _prefix_key:
            return None
        return "StandardBlocking with a non-prefix key has no declarative spec"
    if type(blocking) is SortedNeighbourhood:
        key = blocking._key
        if isinstance(key, functools.partial) and key.func is _normalized_field_key:
            return None
        return "SortedNeighbourhood with a custom sort key has no declarative spec"
    if type(blocking) is QGramBlocking or type(blocking) is CanopyBlocking:
        return None
    if type(blocking) is RuleBasedBlocking:
        from repro.core.classifier import RuleClassifier
        from repro.core.rules import rule_order_key
        from repro.text.segmentation import SeparatorSegmenter

        classifier = blocking._classifier
        if type(classifier) is not RuleClassifier:
            return f"{type(classifier).__name__} has no declarative spec"
        if classifier._ordering is not rule_order_key:
            return "RuleClassifier with a custom rule ordering has no declarative spec"
        if classifier._segmenter != SeparatorSegmenter():
            return "RuleClassifier with a custom segmenter has no declarative spec"
        return None
    return f"{type(blocking).__name__} has no declarative spec"


def blocking_to_spec(blocking: BlockingMethod) -> Dict[str, Any]:
    """The declarative spec of a canonically-constructed blocking method."""
    reason = blocking_unsupported_reason(blocking)
    if reason is not None:
        raise WorkUnitError(f"blocking cannot cross the wire: {reason}")
    if type(blocking) is FullIndex:
        return {"kind": "full"}
    if type(blocking) is StandardBlocking:
        field_name, length = blocking._key.args
        return {"kind": "prefix", "field": field_name, "length": length}
    if type(blocking) is SortedNeighbourhood:
        (field_name,) = blocking._key.args
        return {"kind": "sorted", "field": field_name, "window": blocking._window}
    if type(blocking) is QGramBlocking:
        return {
            "kind": "qgram",
            "field": blocking._field,
            "q": blocking._q,
            "threshold": blocking._threshold,
            "max_grams": blocking._max_grams,
        }
    if type(blocking) is CanopyBlocking:
        return {
            "kind": "canopy",
            "field": blocking._field,
            "loose": blocking._loose,
            "tight": blocking._tight,
            "q": blocking._q,
        }
    # RuleBasedBlocking — rules, ontology and the external description
    # graph all have existing lossless text serializations
    from repro.core.serialize import rules_to_json
    from repro.ontology.loader import ontology_to_graph
    from repro.rdf.ntriples import serialize_ntriples

    return {
        "kind": "rules",
        "rules": json.loads(rules_to_json(blocking._classifier.rules)),
        "ontology": serialize_ntriples(ontology_to_graph(blocking._ontology)),
        "graph": serialize_ntriples(blocking._graph),
        "fallback_full": blocking._fallback_full,
    }


def blocking_from_spec(spec: Mapping[str, Any]) -> BlockingMethod:
    """Rebuild a blocking method from its declarative spec."""
    kind = spec.get("kind")
    if kind == "full":
        return FullIndex()
    if kind == "prefix":
        return StandardBlocking.on_field_prefix(spec["field"], length=spec["length"])
    if kind == "sorted":
        return SortedNeighbourhood.on_field(spec["field"], window_size=spec["window"])
    if kind == "qgram":
        return QGramBlocking(
            spec["field"],
            q=spec["q"],
            threshold=spec["threshold"],
            max_grams=spec["max_grams"],
        )
    if kind == "canopy":
        return CanopyBlocking(
            spec["field"], loose=spec["loose"], tight=spec["tight"], q=spec["q"]
        )
    if kind == "rules":
        from repro.core.classifier import RuleClassifier
        from repro.core.serialize import rules_from_json
        from repro.ontology.loader import ontology_from_graph
        from repro.rdf.ntriples import parse_ntriples

        return RuleBasedBlocking(
            RuleClassifier(rules_from_json(json.dumps(spec["rules"]))),
            ontology_from_graph(parse_ntriples(spec["ontology"])),
            parse_ntriples(spec["graph"]),
            fallback_full=spec["fallback_full"],
        )
    raise WorkUnitError(f"unknown blocking spec kind {kind!r}")


def comparator_unsupported_reason(comparator: RecordComparator) -> Optional[str]:
    """Why *comparator* cannot cross the wire (``None`` = it can)."""
    if type(comparator) is not RecordComparator:
        return f"{type(comparator).__name__} has no declarative spec"
    for fc in comparator.comparators:
        if type(fc) is not FieldComparator:
            return f"{type(fc).__name__} has no declarative spec"
        if fc.similarity is not jaro_winkler_similarity:
            return (
                f"field {fc.field_name!r} uses a custom similarity "
                "the spec language cannot name"
            )
    return None


def comparator_to_spec(comparator: RecordComparator) -> List[Dict[str, Any]]:
    reason = comparator_unsupported_reason(comparator)
    if reason is not None:
        raise WorkUnitError(f"comparator cannot cross the wire: {reason}")
    return [
        {
            "field": fc.field_name,
            "weight": fc.weight,
            "missing_value": fc.missing_value,
        }
        for fc in comparator.comparators
    ]


def comparator_from_spec(spec: List[Mapping[str, Any]]) -> RecordComparator:
    return RecordComparator(
        [
            FieldComparator(
                entry["field"],
                weight=entry["weight"],
                missing_value=entry["missing_value"],
            )
            for entry in spec
        ]
    )


def decider_unsupported_reason(decider: Decider) -> Optional[str]:
    """Why *decider* cannot cross the wire (``None`` = it can)."""
    if type(decider) is ThresholdMatcher:
        return None
    return f"{type(decider).__name__} has no declarative spec"


def decider_to_spec(decider: Decider) -> Dict[str, Any]:
    reason = decider_unsupported_reason(decider)
    if reason is not None:
        raise WorkUnitError(f"decider cannot cross the wire: {reason}")
    return {
        "kind": "threshold",
        "match_threshold": decider.match_threshold,
        "possible_threshold": decider.possible_threshold,
    }


def decider_from_spec(spec: Mapping[str, Any]) -> Decider:
    if spec.get("kind") != "threshold":
        raise WorkUnitError(f"unknown decider spec kind {spec.get('kind')!r}")
    return ThresholdMatcher(
        match_threshold=spec["match_threshold"],
        possible_threshold=spec["possible_threshold"],
    )


def work_unit_unsupported_reason(
    blocking: BlockingMethod, comparator: RecordComparator, decider: Decider
) -> Optional[str]:
    """Why this job configuration cannot become work units (``None`` = it can)."""
    return (
        blocking_unsupported_reason(blocking)
        or comparator_unsupported_reason(comparator)
        or decider_unsupported_reason(decider)
    )


# ---------------------------------------------------------------------------
# the envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardWorkUnit:
    """One shard of a linking run, as a transport-agnostic value.

    ``local_payload`` is optional: a unit shipped to a worker that
    already holds the local store (a warm-started daemon) carries only
    ``local_fingerprint``, and the worker must refuse to fold against a
    store with a different fingerprint. ``fields`` pins the comparator's
    field vocabulary so a unit and its executing store agree on the
    similarity columns by construction.
    """

    shard: int
    plan: ShardPlan
    blocking: Dict[str, Any]
    comparator: List[Dict[str, Any]]
    decider: Dict[str, Any]
    scoring: str
    cache_size: int
    external_payload: Dict[str, Any]
    local_fingerprint: str
    local_payload: Optional[Dict[str, Any]] = None
    fields: Tuple[str, ...] = ()


def _envelope(fmt: str, body: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "format": fmt,
        "schema_version": PROTOCOL_SCHEMA_VERSION,
        "fingerprint": environment_fingerprint(),
        "checksum": _digest(_canonical(body)),
        "body": body,
    }


def _open_envelope(payload: Mapping[str, Any], fmt: str) -> Dict[str, Any]:
    """Verify an envelope's format/version/fingerprint/checksum; return
    its body. Every rejection names the drift so operators can act."""
    if not isinstance(payload, Mapping):
        raise WorkUnitError(f"envelope must be a JSON object, got {type(payload).__name__}")
    got_fmt = payload.get("format")
    if got_fmt != fmt:
        raise WorkUnitError(f"not a {fmt} envelope (format={got_fmt!r})")
    version = payload.get("schema_version")
    if version != PROTOCOL_SCHEMA_VERSION:
        raise WorkUnitError(
            f"stale envelope: schema version {version!r}, "
            f"this build speaks {PROTOCOL_SCHEMA_VERSION}"
        )
    expected = environment_fingerprint()
    found = payload.get("fingerprint") or {}
    drift = sorted(
        key
        for key in set(expected) | set(found)
        if expected.get(key) != found.get(key)
    )
    if drift:
        detail = ", ".join(
            f"{key}: envelope={found.get(key)!r} here={expected.get(key)!r}"
            for key in drift
        )
        raise WorkUnitError(f"environment fingerprint mismatch ({detail})")
    body = payload.get("body")
    if not isinstance(body, Mapping):
        raise WorkUnitError("envelope has no body")
    if _digest(_canonical(body)) != payload.get("checksum"):
        raise WorkUnitError("envelope checksum mismatch: body corrupted in transit")
    return dict(body)


def work_unit_to_payload(unit: ShardWorkUnit) -> Dict[str, Any]:
    body = {
        "shard": unit.shard,
        "plan": {"shards": unit.plan.shards, "pinned": dict(unit.plan.pinned)},
        "blocking": unit.blocking,
        "comparator": unit.comparator,
        "decider": unit.decider,
        "scoring": unit.scoring,
        "cache_size": unit.cache_size,
        "external": unit.external_payload,
        "local_fingerprint": unit.local_fingerprint,
        "local": unit.local_payload,
        "fields": list(unit.fields),
    }
    return _envelope(WORK_UNIT_FORMAT, body)


def work_unit_from_payload(payload: Mapping[str, Any]) -> ShardWorkUnit:
    body = _open_envelope(payload, WORK_UNIT_FORMAT)
    try:
        plan = ShardPlan(
            shards=body["plan"]["shards"], pinned=dict(body["plan"]["pinned"])
        )
        unit = ShardWorkUnit(
            shard=body["shard"],
            plan=plan,
            blocking=dict(body["blocking"]),
            comparator=[dict(entry) for entry in body["comparator"]],
            decider=dict(body["decider"]),
            scoring=body["scoring"],
            cache_size=body["cache_size"],
            external_payload=body["external"],
            local_fingerprint=body["local_fingerprint"],
            local_payload=body["local"],
            fields=tuple(body["fields"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkUnitError(f"malformed work-unit body: {exc}") from exc
    expected_fields = tuple(sorted(entry["field"] for entry in unit.comparator))
    if unit.fields != expected_fields:
        raise WorkUnitError(
            f"vocabulary pin mismatch: unit pins {unit.fields}, "
            f"comparator spec names {expected_fields}"
        )
    return unit


def encode_work_unit(unit: ShardWorkUnit) -> str:
    return json.dumps(work_unit_to_payload(unit))


def decode_work_unit(text: str) -> ShardWorkUnit:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkUnitError(f"work unit is not valid JSON: {exc}") from exc
    return work_unit_from_payload(payload)


def _group_key_to_wire(key: GroupKey) -> Any:
    return list(key) if isinstance(key, tuple) else key


def _group_key_from_wire(wire: Any) -> GroupKey:
    return tuple(wire) if isinstance(wire, list) else wire


def _wire_to_payload(wire: DecisionWire) -> List[Any]:
    ext_id, local_id, similarities, aggregate, status, score = wire
    return [
        term_to_payload(ext_id),
        term_to_payload(local_id),
        dict(similarities),
        aggregate,
        status,
        score,
    ]


def _wire_from_payload(payload: List[Any]) -> DecisionWire:
    ext_id, local_id, similarities, aggregate, status, score = payload
    return (
        term_from_payload(ext_id),
        term_from_payload(local_id),
        dict(similarities),
        aggregate,
        status,
        score,
    )


def worker_result_to_payload(outcome: ShardOutcome) -> Dict[str, Any]:
    """A :class:`ShardOutcome` as a WorkerResult envelope payload.

    Group sort keys cross unchanged (ints stay ints, tuples become
    JSON arrays and are restored) — they are the merge coordinates the
    parent's k-way merge folds by, and the whole byte-identity argument
    rests on them surviving the wire exactly.
    """
    body = {
        "shard": outcome.shard,
        "groups": [
            [
                _group_key_to_wire(key),
                [[term_to_payload(a), term_to_payload(b)] for a, b in pairs],
                [_wire_to_payload(wire) for wire in wires],
            ]
            for key, pairs, wires in outcome.groups
        ],
        "compared": outcome.compared,
        "match_ext_ids": [term_to_payload(term) for term in outcome.match_ext_ids],
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "batch_hits": outcome.batch_hits,
        "batch_misses": outcome.batch_misses,
        "batch_profiles": outcome.batch_profiles,
    }
    return _envelope(WORKER_RESULT_FORMAT, body)


def worker_result_from_payload(payload: Mapping[str, Any]) -> ShardOutcome:
    body = _open_envelope(payload, WORKER_RESULT_FORMAT)
    try:
        groups = [
            (
                _group_key_from_wire(key),
                [(term_from_payload(a), term_from_payload(b)) for a, b in pairs],
                [_wire_from_payload(wire) for wire in wires],
            )
            for key, pairs, wires in body["groups"]
        ]
        return ShardOutcome(
            shard=body["shard"],
            groups=groups,
            compared=body["compared"],
            match_ext_ids=[term_from_payload(t) for t in body["match_ext_ids"]],
            cache_hits=body["cache_hits"],
            cache_misses=body["cache_misses"],
            batch_hits=body["batch_hits"],
            batch_misses=body["batch_misses"],
            batch_profiles=body["batch_profiles"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkUnitError(f"malformed worker-result body: {exc}") from exc


def encode_worker_result(outcome: ShardOutcome) -> str:
    return json.dumps(worker_result_to_payload(outcome))


def decode_worker_result(text: str) -> ShardOutcome:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkUnitError(f"worker result is not valid JSON: {exc}") from exc
    return worker_result_from_payload(payload)


# ---------------------------------------------------------------------------
# building and executing units
# ---------------------------------------------------------------------------


def build_work_units(
    blocking: BlockingMethod,
    comparator: RecordComparator,
    decider: Decider,
    external: RecordStore,
    local: RecordStore,
    plan: ShardPlan,
    scoring: str,
    cache_size: int,
    inline_local: bool = True,
) -> List[ShardWorkUnit]:
    """One unit per plan shard; shared payloads are built exactly once."""
    blocking_spec = blocking_to_spec(blocking)
    comparator_spec = comparator_to_spec(comparator)
    decider_spec = decider_to_spec(decider)
    external_payload = record_store_to_payload(external)
    local_payload = record_store_to_payload(local)
    fingerprint = _digest(_canonical(local_payload))
    fields = tuple(sorted(entry["field"] for entry in comparator_spec))
    return [
        ShardWorkUnit(
            shard=shard,
            plan=plan,
            blocking=blocking_spec,
            comparator=comparator_spec,
            decider=decider_spec,
            scoring=scoring,
            cache_size=cache_size,
            external_payload=external_payload,
            local_fingerprint=fingerprint,
            local_payload=local_payload if inline_local else None,
            fields=fields,
        )
        for shard in range(plan.shards)
    ]


def execute_work_unit(
    unit: ShardWorkUnit, local: Optional[RecordStore] = None
) -> ShardOutcome:
    """Run one deserialized unit and return its shard outcome.

    With *local* the worker folds against its resident store — after
    verifying the unit's fingerprint pins exactly that store. Without
    one the unit must carry the store inline.
    """
    if local is not None:
        found = store_fingerprint(local)
        if found != unit.local_fingerprint:
            raise WorkUnitError(
                "local store fingerprint mismatch: unit was built against "
                f"{unit.local_fingerprint[:12]}…, this worker holds {found[:12]}…"
            )
    elif unit.local_payload is not None:
        local = record_store_from_payload(unit.local_payload)
    else:
        raise WorkUnitError(
            "work unit carries no inline local store and no resident store "
            "was provided"
        )
    external = record_store_from_payload(unit.external_payload)
    blocking = blocking_from_spec(unit.blocking)
    comparator = comparator_from_spec(unit.comparator)
    decider = decider_from_spec(unit.decider)
    cache = CachedRecordComparator(comparator, unit.cache_size)
    scorer = (
        BatchScorer(comparator, decider) if unit.scoring == "batched" else None
    )
    return run_shard_scan(
        blocking, external, local, cache, decider, unit.plan, unit.shard, scorer
    )
