"""Warm engine sessions over loaded artifact bundles.

:class:`LinkSession` is the in-process heart of the serve layer: it
loads a bundle once, seeds the shared key-index cache, and then answers
any number of link requests with zero rebuild cost — only the request's
own candidate generation and comparison work remains. Every request
constructs its blocking method exactly as the one-shot ``repro link``
path does (same classes, same parameters, same order), so a session
answer is byte-identical to what a cold CLI run would print.

Every request runs under ``JobConfig(executor="serial",
scoring="pairwise")``: the bundle's warm similarity cache is what makes
a session warm, and only pairwise scoring reads it.

Concurrency: the session is shared across daemon worker threads. The
similarity cache is one :class:`CachedRecordComparator` built
``thread_safe=True``, because the engine's serial path reuses a
caller-provided comparator as-is and concurrent serial jobs over an
unsynchronized OrderedDict would race. Each delta stream has its own
lock, held across the delta's ingestion and the cumulative snapshot
returned with it, so deltas of one stream fold one at a time and every
answer covers exactly the deltas folded up to and including its own.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Optional

from repro.index.artifacts import ArtifactBundle
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI


class ServeError(RuntimeError):
    """Raised on invalid serve-layer configuration or requests."""


#: Blocking methods a session can construct; mirrors the CLI choices
#: plus the explicit cartesian strawman.
BLOCKING_NAMES = (
    "rules",
    "rules-strict",
    "prefix",
    "sorted",
    "qgram",
    "canopy",
    "full",
)

#: Blocking methods whose candidate set is independent of the external
#: graph and stable under delta ingestion (see engine.streaming).
STREAMABLE_BLOCKING = ("prefix", "qgram", "full")


def make_blocking(
    name: str,
    *,
    rules=None,
    ontology=None,
    external_graph: Optional[Graph] = None,
):
    """The blocking method *name* with the one-shot CLI's parameters.

    This mirrors ``repro link --blocking <name>`` construction exactly —
    prefix length 4, window 7, q-gram (2, 0.8), canopy (0.5, 0.9), rules
    at min-confidence 0.4 — which is what makes warm session output
    byte-identical to the cold path.
    """
    from repro.core.classifier import RuleClassifier
    from repro.linking import (
        CanopyBlocking,
        FullIndex,
        QGramBlocking,
        RuleBasedBlocking,
        SortedNeighbourhood,
        StandardBlocking,
    )

    if name in ("rules", "rules-strict"):
        if rules is None or ontology is None or external_graph is None:
            raise ServeError(
                f"blocking {name!r} needs learned rules, an ontology and "
                f"the request's external graph — build the bundle with "
                f"--blocking {name}"
            )
        return RuleBasedBlocking(
            RuleClassifier(rules.with_min_confidence(0.4)),
            ontology,
            external_graph,
            fallback_full=name == "rules",
        )
    if name == "sorted":
        return SortedNeighbourhood.on_field("pn", window_size=7)
    if name == "qgram":
        return QGramBlocking("pn", q=2, threshold=0.8)
    if name == "canopy":
        return CanopyBlocking("pn", loose=0.5, tight=0.9)
    if name == "full":
        return FullIndex()
    if name == "prefix":
        return StandardBlocking.on_field_prefix("pn", length=4)
    raise ServeError(
        f"unknown blocking {name!r}; expected one of {', '.join(BLOCKING_NAMES)}"
    )


class LinkSession:
    """A warm, thread-shareable engine session over one bundle."""

    def __init__(
        self, bundle: ArtifactBundle, cache_size: Optional[int] = None
    ) -> None:
        from repro.engine import DEFAULT_CACHE_SIZE, CachedRecordComparator
        from repro.linking import FieldComparator, RecordComparator

        self._bundle = bundle
        self._config = dict(bundle.config)
        self._local = bundle.store
        # O(1) open: deserialized posting lists go straight into the
        # shared per-store cache; the first prefix/q-gram request finds
        # them under its signature instead of rebuilding
        bundle.seed_shared_indexes()

        fields = sorted(self.field_map)
        inner = RecordComparator([FieldComparator(field) for field in fields])
        if cache_size is None:
            cache_size = DEFAULT_CACHE_SIZE
        comparator = CachedRecordComparator(inner, cache_size, thread_safe=True)
        if bundle.comparator_cache:
            comparator.cache_load(bundle.comparator_cache)
        self._comparator = comparator
        self._lock = threading.Lock()
        self._requests = 0
        # stream name -> (its lock, its StreamingLinkingJob)
        self._streams: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # configuration views
    # ------------------------------------------------------------------
    @property
    def bundle(self) -> ArtifactBundle:
        """The loaded bundle this session serves from."""
        return self._bundle

    @property
    def comparator(self):
        """The shared thread-safe cached comparator."""
        return self._comparator

    @property
    def local_store(self):
        """The bundled local record store."""
        return self._local

    @property
    def field_map(self) -> Dict[str, IRI]:
        """Field name → property IRI, for building external stores."""
        from repro.datagen.catalog import PART_NUMBER

        raw = self._config.get("field_properties")
        if not raw:
            return {"pn": PART_NUMBER}
        return {name: IRI(value) for name, value in raw.items()}

    @property
    def blocking_name(self) -> str:
        """The bundle's configured blocking method."""
        return self._config.get("blocking", "prefix")

    @property
    def match_threshold(self) -> float:
        """The bundle's configured match threshold."""
        return float(self._config.get("match_threshold", 0.9))

    # ------------------------------------------------------------------
    # request construction
    # ------------------------------------------------------------------
    def make_blocking(self, external_graph: Optional[Graph] = None):
        """This session's blocking method for one request."""
        return make_blocking(
            self.blocking_name,
            rules=self._bundle.rules,
            ontology=self._bundle.ontology,
            external_graph=external_graph,
        )

    def external_store(self, graph: Graph):
        """An external record store over *graph* with the bundle's fields."""
        from repro.linking import RecordStore

        return RecordStore.from_graph(graph, self.field_map)

    def graph_of(self, store) -> Graph:
        """The external graph equivalent of a record store.

        Rule-based blocking classifies against graph triples; a store
        round-trips into exactly the mapped triples the classifier
        reads (rules only premise over mapped properties).
        """
        from repro.rdf.terms import Literal
        from repro.rdf.triples import Triple

        graph = Graph(identifier="external-request")
        field_map = self.field_map
        for record in store:
            for name, values in record.fields.items():
                prop = field_map.get(name)
                if prop is None:
                    continue
                for value in values:
                    graph.add(Triple(record.id, prop, Literal(value)))
        return graph

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def link(self, external, external_graph: Optional[Graph] = None):
        """Link one external store against the warm local store.

        Returns the engine's :class:`~repro.linking.pipeline.LinkingResult`,
        byte-identical to the one-shot path on the same inputs.
        """
        from repro.engine import JobConfig, LinkingJob
        from repro.linking import ThresholdMatcher

        if external_graph is None and self.blocking_name in ("rules", "rules-strict"):
            external_graph = self.graph_of(external)
        job = LinkingJob(
            self.make_blocking(external_graph),
            self._comparator,
            ThresholdMatcher(match_threshold=self.match_threshold),
            JobConfig(executor="serial", scoring="pairwise"),
        )
        result = job.run(external, self._local)
        with self._lock:
            self._requests += 1
        return result

    def incremental_learner(self):
        """A warm-started incremental rule learner over the bundled state.

        Resumes from the bundle's serialized
        :class:`~repro.index.TrainingFeatureIndex` — ``rules()`` on the
        returned learner reproduces the bundled rule set exactly, and
        ``add_links`` on new expert validations grows it from there
        without replaying the original training set.
        """
        from repro.core.incremental import IncrementalRuleLearner

        if self._bundle.training is None:
            raise ServeError(
                "bundle carries no training state; rebuild it with a "
                "rules blocking (`repro serve build --blocking rules`)"
            )
        if self._bundle.ontology is None:
            raise ServeError(
                "bundle carries training state but no ontology; rebuild it"
            )
        return IncrementalRuleLearner.from_state(
            self._bundle.training, self._bundle.ontology
        )

    def delta(self, stream: str, records: Iterable):
        """Ingest a delta of external records into a named stream.

        Streams keep cumulative best-match state; blocking must be
        graph-independent and stream-safe (prefix, qgram, full).
        Returns ``(result, delta)``: the stream's cumulative result
        right after this delta folded in, and the delta's own report.
        """
        from repro.engine import JobConfig, StreamingLinkingJob
        from repro.linking import ThresholdMatcher

        if self.blocking_name not in STREAMABLE_BLOCKING:
            raise ServeError(
                f"blocking {self.blocking_name!r} cannot stream deltas; "
                f"streamable methods: {', '.join(STREAMABLE_BLOCKING)}"
            )
        with self._lock:
            entry = self._streams.get(stream)
            if entry is None:
                job = StreamingLinkingJob(
                    self._local,
                    self._comparator,
                    ThresholdMatcher(match_threshold=self.match_threshold),
                    JobConfig(executor="serial", scoring="pairwise"),
                    blocking=self.make_blocking(None),
                )
                entry = self._streams[stream] = (threading.Lock(), job)
            self._requests += 1
        stream_lock, job = entry
        with stream_lock:
            delta = job.ingest(records)
            return job.result(), delta

    def stream_result(self, stream: str):
        """The cumulative result of a named stream (or ``None``)."""
        with self._lock:
            entry = self._streams.get(stream)
        if entry is None:
            return None
        stream_lock, job = entry
        with stream_lock:
            return job.result()

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the warm session."""
        with self._lock:
            streams = sorted(self._streams)
            requests = self._requests
        return {
            "records": len(self._local),
            "blocking": self.blocking_name,
            "match_threshold": self.match_threshold,
            "indexes": sorted(self._bundle.indexes),
            "rules": len(self._bundle.rules) if self._bundle.rules is not None else 0,
            "requests": requests,
            "streams": streams,
            "cache": {
                "capacity": self._comparator.cache_capacity,
                "hits": self._comparator.cache_hits,
                "misses": self._comparator.cache_misses,
                "hit_rate": self._comparator.cache_hit_rate,
                "thread_safe": self._comparator.thread_safe,
            },
        }
