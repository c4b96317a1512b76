"""Cold-reference and self-test harness for the serve layer.

The serve layer's contract is byte-identity with the one-shot CLI
path. :func:`cold_reference` IS that path, rebuilt from scratch — the
deterministic catalog, fresh record stores, freshly learned rules, a
cold comparator — so comparing its response against warm daemon
responses proves the bundle round-trip end to end.
:func:`run_self_test` drives a live daemon with concurrent clients and
reports identity plus cold/warm timings; ``repro serve --self-test``
and the CI serve-smoke step are thin wrappers over it.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.serve.build import _catalog_for
from repro.serve.daemon import LinkDaemon, link_response, request_json, serve_bundle
from repro.serve.session import ServeError, make_blocking


def response_identity(response: Mapping[str, Any]) -> Dict[str, Any]:
    """The byte-identity comparand of a link response.

    Everything except ``executor``: which executor answered (serial,
    shard, or a degraded fallback) is diagnostic and machine-dependent,
    while the counters and the canonical N-Triples string are the
    contract — the shard fold restores serial emission order precisely
    so that this projection is executor-invariant.
    """
    return {key: value for key, value in response.items() if key != "executor"}


def cold_reference(
    config: Mapping[str, Any], items: int
) -> Tuple[Any, Dict[str, Any], float]:
    """The one-shot path for *items* provider records, from scratch.

    Returns ``(external_store, response, elapsed_seconds)`` where
    *response* has :func:`link_response` shape. Every step recomputes —
    catalog generation, store construction, rule learning, blocking,
    cold comparator — exactly as ``repro link`` would, making this the
    independent comparand for warm answers.
    """
    from repro.datagen.catalog import PART_NUMBER
    from repro.engine import JobConfig, LinkingJob
    from repro.experiments.throughput import provider_batch
    from repro.linking import (
        FieldComparator,
        RecordComparator,
        RecordStore,
        ThresholdMatcher,
    )

    started = time.perf_counter()
    preset = config.get("preset", "small")
    seed = config.get("seed")
    blocking_name = config.get("blocking", "prefix")

    catalog = _catalog_for(preset, seed)
    batch_seed = 4242 if seed is None else seed
    test_graph, _ = provider_batch(catalog, items, seed=batch_seed)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    local = RecordStore.from_graph(catalog.local_graph, {"pn": PART_NUMBER})

    rules = None
    ontology = None
    if blocking_name in ("rules", "rules-strict"):
        from repro.core.learner import LearnerConfig, RuleLearner

        rules = RuleLearner(
            LearnerConfig(
                properties=(PART_NUMBER,),
                support_threshold=float(config.get("support_threshold", 0.002)),
            )
        ).learn(catalog.to_training_set())
        ontology = catalog.ontology

    job = LinkingJob(
        make_blocking(
            blocking_name,
            rules=rules,
            ontology=ontology,
            external_graph=test_graph,
        ),
        RecordComparator([FieldComparator("pn")]),
        ThresholdMatcher(match_threshold=float(config.get("match_threshold", 0.9))),
        JobConfig(executor="serial"),
    )
    result = job.run(external, local)
    return external, link_response(result), time.perf_counter() - started


def run_self_test(
    bundle_path: Path | str,
    *,
    items: int = 120,
    requests: int = 8,
    workers: int = 4,
    multiplex_threshold: Optional[int] = None,
    daemon: Optional[LinkDaemon] = None,
) -> Dict[str, Any]:
    """Fire concurrent warm requests and diff them against the cold path.

    Builds (or reuses) a daemon over *bundle_path*, computes the
    one-shot reference in-process, then sends *requests* concurrent
    ``/link`` calls from *workers* client threads. Returns a report
    dict; ``report["identical"]`` is the gate.

    With *multiplex_threshold* the daemon shards any batch of at least
    that many records, so the gate also proves the multiplexed path:
    responses are compared through :func:`response_identity` (the
    executor tag legitimately differs; everything else must not), and
    the report records how many requests actually multiplexed and which
    executors answered.
    """
    from repro.index.artifacts import record_store_to_payload

    own_daemon = daemon is None
    if daemon is None:
        daemon = serve_bundle(
            bundle_path, multiplex_threshold=multiplex_threshold
        )
    try:
        host, port = daemon.start()
        config = daemon.session.bundle.config
        external, cold, cold_seconds = cold_reference(config, items)
        payload = record_store_to_payload(external)
        cold_identity = response_identity(cold)

        warm_seconds = []

        def fire(_: int) -> Dict[str, Any]:
            started = time.perf_counter()
            response = request_json(host, port, "POST", "/link", payload)
            warm_seconds.append(time.perf_counter() - started)
            return response

        with ThreadPoolExecutor(max_workers=workers) as pool:
            responses = list(pool.map(fire, range(requests)))

        mismatched = [
            index
            for index, response in enumerate(responses)
            if response_identity(response) != cold_identity
        ]
        return {
            "identical": not mismatched,
            "mismatched_requests": mismatched,
            "requests": requests,
            "workers": workers,
            "items": items,
            "matches": cold["matches"],
            "compared": cold["compared"],
            "cold_seconds": cold_seconds,
            "warm_p50_seconds": statistics.median(warm_seconds),
            "warm_max_seconds": max(warm_seconds),
            "warm_speedup_p50": cold_seconds / max(
                statistics.median(warm_seconds), 1e-9
            ),
            "cache_hit_rate": daemon.session.comparator.cache_hit_rate,
            "multiplex_threshold": daemon.session.multiplex_threshold,
            "multiplexed_requests": daemon.session.multiplexed_count,
            "executors": sorted(
                {str(response.get("executor")) for response in responses}
            ),
            "queue": daemon.queue.stats(),
        }
    finally:
        if own_daemon:
            daemon.shutdown()
