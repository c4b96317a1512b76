"""Artifact-bundle construction for the warm-start serve layer.

:func:`build_bundle` does the expensive one-time work a cold ``repro
link`` run repeats on every invocation — catalog generation, record
store construction, rule learning, key-index builds — and persists the
results as an on-disk bundle (:mod:`repro.index.artifacts`). A later
``repro serve`` (or :class:`~repro.serve.session.LinkSession`) opens
the bundle O(1) instead of recomputing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from repro.serve.session import BLOCKING_NAMES, ServeError, make_blocking

#: Blockings whose ``shard_block_sizes`` warms the shared key index.
_INDEX_WARMING = ("prefix", "qgram")


def _catalog_for(preset: str, seed: Optional[int]):
    from repro.datagen.catalog import ElectronicCatalogGenerator
    from repro.datagen.config import CatalogConfig

    factories = {
        "thales": CatalogConfig.thales_like,
        "small": CatalogConfig.small,
        "tiny": CatalogConfig.tiny,
    }
    factory = factories.get(preset)
    if factory is None:
        raise ServeError(
            f"unknown preset {preset!r}; expected one of {', '.join(sorted(factories))}"
        )
    config = factory(seed=seed) if seed is not None else factory()
    return ElectronicCatalogGenerator(config).generate()


def build_bundle(
    out_dir: Path,
    *,
    preset: str = "small",
    seed: Optional[int] = None,
    blocking: str = "prefix",
    support_threshold: float = 0.002,
    match_threshold: float = 0.9,
    warm_items: int = 0,
    cache_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Build and write a warm-start bundle; returns its manifest.

    The bundled state reproduces the one-shot CLI inputs exactly: the
    same deterministic catalog, the same local store, rules learned
    with the same learner configuration. ``warm_items > 0``
    additionally pre-warms the similarity cache by linking one provider
    batch of that size through a thread-safe comparator and bundling
    its entries.
    """
    from repro.datagen.catalog import PART_NUMBER
    from repro.index import shared_index_snapshot
    from repro.index.artifacts import read_manifest, write_bundle
    from repro.linking import RecordStore

    if blocking not in BLOCKING_NAMES:
        raise ServeError(
            f"unknown blocking {blocking!r}; expected one of {', '.join(BLOCKING_NAMES)}"
        )

    catalog = _catalog_for(preset, seed)
    local = RecordStore.from_graph(catalog.local_graph, {"pn": PART_NUMBER})

    rules = None
    ontology = None
    training = None
    if blocking in ("rules", "rules-strict"):
        from repro.core.incremental import IncrementalRuleLearner
        from repro.core.learner import LearnerConfig

        # learn through the incremental learner (provably identical to
        # the batch learner) so the grown feature index can be bundled:
        # a warm session resumes expert-validation ingestion from here
        # instead of replaying the whole training set
        learner = IncrementalRuleLearner(
            LearnerConfig(
                properties=(PART_NUMBER,), support_threshold=support_threshold
            ),
            catalog.ontology,
        )
        learner.add_training_set(catalog.to_training_set())
        rules = learner.rules()
        ontology = catalog.ontology
        training = learner.to_state()

    if blocking in _INDEX_WARMING:
        # shard_block_sizes only reads the local side; probing it with
        # an empty external store builds the key index into the shared
        # per-store cache, from which the snapshot below captures it
        make_blocking(blocking).shard_block_sizes(RecordStore(), local)
    indexes = shared_index_snapshot(local)

    comparator_cache = None
    if warm_items > 0:
        comparator_cache = _warm_comparator(
            catalog,
            local,
            blocking=blocking,
            rules=rules,
            ontology=ontology,
            match_threshold=match_threshold,
            warm_items=warm_items,
            seed=seed,
            cache_size=cache_size,
        )

    config: Dict[str, Any] = {
        "preset": preset,
        "seed": seed,
        "blocking": blocking,
        "support_threshold": support_threshold,
        "match_threshold": match_threshold,
        "warm_items": warm_items,
        "field_properties": {"pn": PART_NUMBER.value},
    }
    path = write_bundle(
        Path(out_dir),
        store=local,
        indexes=indexes,
        rules=rules,
        ontology=ontology,
        comparator_cache=comparator_cache,
        training=training,
        config=config,
    )
    return read_manifest(path)


def _warm_comparator(
    catalog,
    local,
    *,
    blocking: str,
    rules,
    ontology,
    match_threshold: float,
    warm_items: int,
    seed: Optional[int],
    cache_size: Optional[int],
):
    """Similarity-cache payload from one warm-up provider batch."""
    from repro.datagen.catalog import PART_NUMBER
    from repro.engine import (
        DEFAULT_CACHE_SIZE,
        CachedRecordComparator,
        JobConfig,
        LinkingJob,
    )
    from repro.experiments.throughput import provider_batch
    from repro.linking import (
        FieldComparator,
        RecordComparator,
        RecordStore,
        ThresholdMatcher,
    )

    batch_seed = 4242 if seed is None else seed
    warm_graph, _ = provider_batch(catalog, warm_items, seed=batch_seed)
    external = RecordStore.from_graph(warm_graph, {"pn": PART_NUMBER})
    comparator = CachedRecordComparator(
        RecordComparator([FieldComparator("pn")]),
        DEFAULT_CACHE_SIZE if cache_size is None else cache_size,
        thread_safe=True,
    )
    job = LinkingJob(
        make_blocking(
            blocking,
            rules=rules,
            ontology=ontology,
            external_graph=warm_graph,
        ),
        comparator,
        ThresholdMatcher(match_threshold=match_threshold),
        JobConfig(executor="serial", scoring="pairwise"),
    )
    job.run(external, local)
    return comparator.cache_export()
