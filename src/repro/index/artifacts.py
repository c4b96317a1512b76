"""The index artifact store: serialized warm-start state for the engine.

Every one-shot run rebuilds the same state from scratch — the local
record store, the per-signature :class:`~repro.index.keys.RecordKeyIndex`
posting lists, the learned rules, the comparator's similarity cache. A
long-running linking service cannot afford that, and the paper's own
framing points the other way: learned rules are concise artifacts an
expert reviews and *reuses*. This module persists the whole warm-start
surface as an **artifact bundle** — a directory of schema-checked JSON
components plus one manifest — so an engine session opens in O(1):

* ``store.json`` — the local :class:`~repro.linking.records.RecordStore`;
* ``indexes.json`` — shared key indexes by cache signature (keys and
  their record-ordinal lists);
* ``rules.json`` — the learned rule set, via :mod:`repro.core.serialize`;
* ``ontology.nt`` — the ontology (rule-based blocking needs it), via
  the existing RDF round-trip;
* ``cache.json`` — :class:`~repro.engine.cache.CachedRecordComparator`
  cache contents, LRU order preserved;
* ``training.json`` — the :class:`~repro.index.TrainingFeatureIndex`
  vocabulary and postings plus the learner pin (properties, threshold,
  segmenter, seen links), so a warm session resumes *incremental
  re-learning* where the bundle build stopped instead of replaying the
  whole training set.

Atomicity and integrity: every component is written through
:func:`~repro.ioutils.atomic_write_text`, and ``manifest.json`` —
carrying the schema version, an environment fingerprint and a sha256
digest per component — is written **last**. A bundle without a complete,
digest-consistent manifest is rejected, so a writer killed mid-bundle
can never produce a loadable half-bundle. Loading re-derives nothing:
a reloaded bundle reproduces byte-identical link output (the round-trip
tests pin this across every blocking class and both scoring modes).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.index.keys import RecordKeyIndex
from repro.index.postings import PostingList
from repro.ioutils import atomic_write_text
from repro.rdf.terms import IRI, BNode, Literal, Term

#: Manifest ``format`` tag — rejects non-bundle directories early.
ARTIFACT_FORMAT = "repro-artifact-bundle"

#: Bumped on any incompatible change to the component payloads.
ARTIFACT_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
STORE_NAME = "store.json"
INDEXES_NAME = "indexes.json"
RULES_NAME = "rules.json"
ONTOLOGY_NAME = "ontology.nt"
CACHE_NAME = "cache.json"
TRAINING_NAME = "training.json"


class ArtifactError(ValueError):
    """Raised on missing, stale, corrupt or mismatched bundle data."""


def environment_fingerprint() -> Dict[str, str]:
    """The environment a bundle is bound to.

    Python's major.minor and the package version: posting layouts,
    normalization and rule measures are stable within those, and a
    bundle silently crossing either boundary is exactly the stale-state
    bug the fingerprint check exists to reject.
    """
    import repro

    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "repro": repro.__version__,
    }


# ---------------------------------------------------------------------------
# term / record payloads
# ---------------------------------------------------------------------------

def term_to_payload(term: Term) -> Dict[str, Any]:
    """One RDF term as a tagged JSON object."""
    if isinstance(term, IRI):
        return {"type": "iri", "value": term.value}
    if isinstance(term, BNode):
        return {"type": "bnode", "id": term.id}
    if isinstance(term, Literal):
        payload: Dict[str, Any] = {
            "type": "literal",
            "lexical": term.lexical,
            "datatype": term.datatype,
        }
        if term.language is not None:
            payload["language"] = term.language
        return payload
    raise ArtifactError(f"unserializable term: {term!r}")


def term_from_payload(payload: Mapping[str, Any]) -> Term:
    """Rebuild a term from :func:`term_to_payload` output."""
    kind = payload.get("type")
    try:
        if kind == "iri":
            return IRI(payload["value"])
        if kind == "bnode":
            return BNode(payload["id"])
        if kind == "literal":
            return Literal(
                payload["lexical"],
                datatype=payload["datatype"],
                language=payload.get("language"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed term payload: {payload!r}") from exc
    raise ArtifactError(f"unknown term type in payload: {payload!r}")


def record_store_to_payload(store) -> Dict[str, Any]:
    """A record store as JSON: records in insertion order, values kept."""
    return {
        "records": [
            {
                "id": term_to_payload(record.id),
                "fields": {
                    name: list(values) for name, values in record.fields.items()
                },
            }
            for record in store
        ]
    }


def record_store_from_payload(payload: Mapping[str, Any]):
    """Rebuild a :class:`RecordStore`; insertion order is the payload order."""
    from repro.linking.records import Record, RecordStore

    store = RecordStore()
    try:
        for entry in payload["records"]:
            store.add(
                Record(
                    id=term_from_payload(entry["id"]),
                    fields={
                        name: tuple(values)
                        for name, values in entry["fields"].items()
                    },
                )
            )
    except (KeyError, TypeError) as exc:
        raise ArtifactError(f"malformed record store payload: {exc}") from exc
    return store


# ---------------------------------------------------------------------------
# index payloads
# ---------------------------------------------------------------------------

def posting_to_payload(posting: PostingList) -> List[int]:
    """A posting list as its row-id list (already sorted ascending)."""
    return posting.to_list()


def record_key_index_to_payload(index: RecordKeyIndex) -> Dict[str, Any]:
    """A record key index: ids (as terms) + keys and their ordinal lists,
    positionally aligned in first-seen key order."""
    return {
        "ids": [
            term_to_payload(index.id_of(ordinal))
            for ordinal in range(index.record_count)
        ],
        "index": {
            "features": list(index._postings),
            "postings": list(index._postings.values()),
        },
        "build_seconds": index.build_seconds,
    }


def record_key_index_from_payload(payload: Mapping[str, Any]) -> RecordKeyIndex:
    """Rebuild a record key index, validating every posting.

    A bundle is input from disk, so each posting must be a non-empty,
    strictly increasing list of ints inside ``range(len(ids))`` — the
    only shape :meth:`RecordKeyIndex.build` produces. Anything else is
    rejected here rather than failing at the first probe.
    """
    try:
        ids = [term_from_payload(entry) for entry in payload["ids"]]
        features = payload["index"]["features"]
        postings = payload["index"]["postings"]
        build_seconds = float(payload.get("build_seconds", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed key-index payload: {exc}") from exc
    if not isinstance(features, list) or not isinstance(postings, list):
        raise ArtifactError("malformed index payload: features/postings missing")
    if len(features) != len(postings):
        raise ArtifactError(
            f"malformed index payload: {len(features)} features vs "
            f"{len(postings)} postings"
        )
    index: Dict[str, List[int]] = {}
    for key, rows in zip(features, postings):
        if not isinstance(key, str) or key in index:
            raise ArtifactError(f"malformed index payload: bad or repeated key {key!r}")
        if not isinstance(rows, list) or not rows:
            # the build path only ever creates a key together with its
            # first row, so an empty posting cannot round-trip
            raise ArtifactError(f"malformed index payload: empty posting for {key!r}")
        if not all(type(row) is int for row in rows):
            raise ArtifactError(f"malformed index payload: non-integer row for {key!r}")
        if any(a >= b for a, b in zip(rows, rows[1:])):
            raise ArtifactError(
                f"malformed index payload: rows for {key!r} not strictly increasing"
            )
        if rows[0] < 0 or rows[-1] >= len(ids):
            raise ArtifactError(
                f"malformed index payload: row out of range for {key!r} "
                f"({len(ids)} records)"
            )
        index[key] = rows
    return RecordKeyIndex(ids, index, build_seconds)


# ---------------------------------------------------------------------------
# training payloads (warm-start incremental re-learning)
# ---------------------------------------------------------------------------

def segmenter_to_payload(segmenter) -> Dict[str, Any]:
    """A segmenter as a declarative spec (the bundleable subset).

    Only the stock segmentation strategies under their default
    normalization round-trip — the same declarative-spec discipline the
    work-unit protocol applies to blocking methods: state that cannot
    be rebuilt from a spec is rejected at *write* time, never silently
    mis-restored at load time.
    """
    from repro.text.normalize import NormalizationConfig
    from repro.text.segmentation import (
        NGramSegmenter,
        SeparatorSegmenter,
        TokenSegmenter,
    )

    if getattr(segmenter, "normalization", None) != NormalizationConfig():
        raise ArtifactError(
            f"unbundleable segmenter {segmenter!r}: only stock segmenters "
            f"under default normalization can be serialized"
        )
    if isinstance(segmenter, SeparatorSegmenter):
        return {
            "kind": "separator",
            "separators": segmenter.separators,
            "min_length": segmenter.min_length,
        }
    if isinstance(segmenter, NGramSegmenter):
        return {"kind": "ngram", "n": segmenter.n, "pad": segmenter.pad}
    if isinstance(segmenter, TokenSegmenter):
        return {
            "kind": "token",
            "stopwords": sorted(segmenter.stopwords),
            "min_length": segmenter.min_length,
        }
    raise ArtifactError(
        f"unbundleable segmenter {type(segmenter).__name__}: only "
        f"SeparatorSegmenter, NGramSegmenter and TokenSegmenter serialize"
    )


def segmenter_from_payload(payload: Mapping[str, Any]):
    """Rebuild a segmenter from :func:`segmenter_to_payload` output."""
    from repro.text.segmentation import (
        NGramSegmenter,
        SeparatorSegmenter,
        TokenSegmenter,
    )

    kind = payload.get("kind")
    try:
        if kind == "separator":
            return SeparatorSegmenter(
                separators=payload["separators"],
                min_length=int(payload["min_length"]),
            )
        if kind == "ngram":
            return NGramSegmenter(n=int(payload["n"]), pad=bool(payload["pad"]))
        if kind == "token":
            return TokenSegmenter(
                stopwords=frozenset(payload["stopwords"]),
                min_length=int(payload["min_length"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed segmenter payload: {payload!r}") from exc
    raise ArtifactError(f"unknown segmenter kind in payload: {kind!r}")


@dataclass
class TrainingState:
    """Serialized incremental-learner state, decoupled from the ontology.

    ``index`` is the live :class:`~repro.index.TrainingFeatureIndex`;
    the rest is the learner pin a resumed
    :class:`~repro.core.incremental.IncrementalRuleLearner` needs to
    keep emitting the exact batch-learner rule set: the expert's
    property selection, the support threshold semantics, and the links
    already ingested (``seen``, as raw term pairs — duplicates arriving
    after a resume must still be skipped).
    """

    index: Any
    properties: tuple
    support_threshold: float
    strict_threshold: bool
    seen: List[Any]


def training_state_to_payload(state: TrainingState) -> Dict[str, Any]:
    """The training component body: index postings + learner pin."""
    index = state.index
    pair_features: List[Any] = []
    pair_postings: List[List[int]] = []
    for (prop, segment), _, posting in index.pairs.features():
        pair_features.append([term_to_payload(prop), segment])
        pair_postings.append(posting_to_payload(posting))
    class_features: List[Any] = []
    class_postings: List[List[int]] = []
    for cls, _, posting in index.classes.features():
        class_features.append(term_to_payload(cls))
        class_postings.append(posting_to_payload(posting))
    return {
        "segmenter": segmenter_to_payload(index.segmenter),
        "properties": [term_to_payload(prop) for prop in state.properties],
        "support_threshold": state.support_threshold,
        "strict_threshold": state.strict_threshold,
        "rows": index.rows,
        "build_seconds": index.build_seconds,
        "pairs": {"features": pair_features, "postings": pair_postings},
        "classes": {"features": class_features, "postings": class_postings},
        "row_classes": [list(fids) for fids in index._row_classes],
        "occurrences": dict(index.occurrences),
        "seen": [
            [term_to_payload(external), term_to_payload(local)]
            for external, local in state.seen
        ],
    }


def training_state_from_payload(payload: Mapping[str, Any]) -> TrainingState:
    """Rebuild the training state; posting order reassigns the same ids."""
    from repro.index.training import TrainingFeatureIndex

    try:
        index = TrainingFeatureIndex(segmenter_from_payload(payload["segmenter"]))
        pairs = payload["pairs"]
        for feature, rows in zip(pairs["features"], pairs["postings"]):
            prop = term_from_payload(feature[0])
            for row in rows:
                index.pairs.add((prop, feature[1]), row)
        classes = payload["classes"]
        for feature, rows in zip(classes["features"], classes["postings"]):
            cls = term_from_payload(feature)
            for row in rows:
                index.classes.add(cls, row)
        row_classes = [
            tuple(int(fid) for fid in fids) for fids in payload["row_classes"]
        ]
        rows = int(payload["rows"])
        index.occurrences.update(
            {segment: int(count) for segment, count in payload["occurrences"].items()}
        )
        index.build_seconds = float(payload.get("build_seconds", 0.0))
        seen = [
            (term_from_payload(external), term_from_payload(local))
            for external, local in payload["seen"]
        ]
        properties = tuple(
            term_from_payload(prop) for prop in payload["properties"]
        )
        state = TrainingState(
            index=index,
            properties=properties,
            support_threshold=float(payload["support_threshold"]),
            strict_threshold=bool(payload["strict_threshold"]),
            seen=seen,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ArtifactError(f"malformed training payload: {exc}") from exc
    if len(row_classes) != rows:
        raise ArtifactError(
            f"malformed training payload: {rows} rows but "
            f"{len(row_classes)} row-class entries"
        )
    if len(seen) != rows:
        raise ArtifactError(
            f"malformed training payload: {rows} rows but {len(seen)} seen links"
        )
    class_count = len(index.classes)
    for fids in row_classes:
        for fid in fids:
            if not 0 <= fid < class_count:
                raise ArtifactError(
                    f"malformed training payload: row-class id {fid} out of "
                    f"range (have {class_count} class features)"
                )
    index._row_classes = row_classes
    index.rows = rows
    return state


# ---------------------------------------------------------------------------
# the bundle
# ---------------------------------------------------------------------------

@dataclass
class ArtifactBundle:
    """Everything a warm engine session needs, loaded and verified."""

    store: Any
    indexes: Dict[str, RecordKeyIndex] = field(default_factory=dict)
    rules: Any = None
    ontology: Any = None
    comparator_cache: Optional[Dict[str, Any]] = None
    training: Optional[TrainingState] = None
    config: Dict[str, Any] = field(default_factory=dict)
    manifest: Dict[str, Any] = field(default_factory=dict)

    def seed_shared_indexes(self) -> None:
        """Register every bundled index in the shared per-store cache,
        so blocking methods presenting the same signature reuse them
        with zero rebuild."""
        from repro.index.keys import seed_shared_index

        for signature, index in self.indexes.items():
            seed_shared_index(self.store, signature, index)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_bundle(
    path: Path | str,
    *,
    store,
    indexes: Optional[Mapping[str, RecordKeyIndex]] = None,
    rules=None,
    ontology=None,
    comparator_cache=None,
    training=None,
    config: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write an artifact bundle directory; returns its path.

    Components land first (each atomically), the digest-carrying
    manifest last — the commit point. *comparator_cache* may be a
    :class:`~repro.engine.cache.CachedRecordComparator` (its contents
    are exported) or an already-exported payload dict; *training* may
    be a :class:`TrainingState` or an already-exported payload dict.
    """
    from repro.core.serialize import rules_to_json
    from repro.ontology.loader import ontology_to_graph
    from repro.rdf.ntriples import serialize_ntriples

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    components: Dict[str, str] = {
        STORE_NAME: json.dumps(
            record_store_to_payload(store), indent=2, sort_keys=True
        )
        + "\n",
        INDEXES_NAME: json.dumps(
            {
                "signatures": {
                    signature: record_key_index_to_payload(index)
                    for signature, index in (indexes or {}).items()
                }
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    }
    if rules is not None:
        components[RULES_NAME] = rules_to_json(rules) + "\n"
    if ontology is not None:
        components[ONTOLOGY_NAME] = serialize_ntriples(
            ontology_to_graph(ontology).triples()
        )
    if comparator_cache is not None:
        payload = (
            comparator_cache.cache_export()
            if hasattr(comparator_cache, "cache_export")
            else comparator_cache
        )
        components[CACHE_NAME] = json.dumps(payload, sort_keys=True) + "\n"
    if training is not None:
        payload = (
            training_state_to_payload(training)
            if isinstance(training, TrainingState)
            else training
        )
        components[TRAINING_NAME] = json.dumps(payload, sort_keys=True) + "\n"

    for name, text in components.items():
        atomic_write_text(path / name, text)

    manifest = {
        "format": ARTIFACT_FORMAT,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "fingerprint": environment_fingerprint(),
        "config": dict(config or {}),
        "components": {
            name: {"sha256": _digest(text), "bytes": len(text.encode("utf-8"))}
            for name, text in components.items()
        },
    }
    atomic_write_text(
        path / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return path


def read_manifest(path: Path | str) -> Dict[str, Any]:
    """The verified manifest of the bundle at *path*.

    Checks existence, format tag, schema version and the environment
    fingerprint — everything short of reading the components.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(
            f"{path}: not an artifact bundle ({MANIFEST_NAME} missing — "
            f"an interrupted build never publishes a manifest; rebuild "
            f"with `repro artifacts build`)"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"{path}: not a {ARTIFACT_FORMAT} bundle "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: stale bundle schema version {version!r} (this build "
            f"reads version {ARTIFACT_SCHEMA_VERSION}) — rebuild the bundle "
            f"with `repro artifacts build`"
        )
    fingerprint = manifest.get("fingerprint") or {}
    expected = environment_fingerprint()
    if fingerprint != expected:
        drift = ", ".join(
            f"{key}: bundle={fingerprint.get(key)!r} env={expected[key]!r}"
            for key in sorted(set(fingerprint) | set(expected))
            if fingerprint.get(key) != expected.get(key)
        )
        raise ArtifactError(
            f"{path}: environment fingerprint mismatch ({drift}) — the "
            f"bundle was built under a different environment; rebuild it "
            f"with `repro artifacts build`"
        )
    return manifest


def _read_component(path: Path, name: str, entry: Mapping[str, Any]) -> str:
    component = path / name
    if not component.is_file():
        raise ArtifactError(
            f"{path}: incomplete bundle — component {name} listed in the "
            f"manifest is missing"
        )
    text = component.read_text()
    digest = _digest(text)
    if digest != entry.get("sha256"):
        raise ArtifactError(
            f"{path}: corrupt bundle — {name} digest {digest[:12]}… does "
            f"not match the manifest ({str(entry.get('sha256'))[:12]}…)"
        )
    return text


def load_bundle(path: Path | str) -> ArtifactBundle:
    """Load and verify the bundle at *path*.

    Every manifest-listed component must exist and match its digest;
    anything else raises :class:`ArtifactError` before partial state
    can leak into a session.
    """
    from repro.core.serialize import rules_from_json
    from repro.ontology.loader import ontology_from_graph
    from repro.rdf.ntriples import parse_ntriples

    path = Path(path)
    manifest = read_manifest(path)
    listed: Dict[str, Mapping[str, Any]] = manifest.get("components", {})
    if STORE_NAME not in listed:
        raise ArtifactError(f"{path}: bundle manifest lists no {STORE_NAME}")

    texts = {
        name: _read_component(path, name, entry) for name, entry in listed.items()
    }

    def parsed(name: str) -> Any:
        try:
            return json.loads(texts[name])
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path / name}: invalid JSON ({exc})") from exc

    store = record_store_from_payload(parsed(STORE_NAME))
    indexes: Dict[str, RecordKeyIndex] = {}
    if INDEXES_NAME in texts:
        for signature, payload in parsed(INDEXES_NAME).get("signatures", {}).items():
            indexes[signature] = record_key_index_from_payload(payload)
    rules = rules_from_json(texts[RULES_NAME]) if RULES_NAME in texts else None
    ontology = (
        ontology_from_graph(parse_ntriples(texts[ONTOLOGY_NAME]))
        if ONTOLOGY_NAME in texts
        else None
    )
    comparator_cache = parsed(CACHE_NAME) if CACHE_NAME in texts else None
    training = (
        training_state_from_payload(parsed(TRAINING_NAME))
        if TRAINING_NAME in texts
        else None
    )
    return ArtifactBundle(
        store=store,
        indexes=indexes,
        rules=rules,
        ontology=ontology,
        comparator_cache=comparator_cache,
        training=training,
        config=dict(manifest.get("config", {})),
        manifest=manifest,
    )


def inspect_bundle(path: Path | str) -> Dict[str, Any]:
    """A verified summary of the bundle — the `artifacts inspect` view.

    Runs the full integrity audit (manifest, fingerprint, digests,
    component parses) and reports sizes instead of contents.
    """
    bundle = load_bundle(path)
    cache = bundle.comparator_cache or {}
    return {
        "path": str(Path(path)),
        "schema_version": bundle.manifest.get("schema_version"),
        "fingerprint": bundle.manifest.get("fingerprint"),
        "config": bundle.config,
        "records": len(bundle.store),
        "indexes": {
            signature: {"keys": len(index), "records": index.record_count}
            for signature, index in sorted(bundle.indexes.items())
        },
        "rules": len(bundle.rules) if bundle.rules is not None else 0,
        "ontology_classes": len(bundle.ontology) if bundle.ontology else 0,
        "training_links": bundle.training.index.rows if bundle.training else 0,
        "cached_similarities": len(cache.get("similarities", ())),
        "cached_normalizations": len(cache.get("normalized", ())),
        "components": sorted(bundle.manifest.get("components", {})),
    }
