"""The shared provider-batch generator: corrupted out-of-sample twins
of catalog items, the external side of every linking run.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.datagen.catalog import MANUFACTURER, PART_NUMBER, GeneratedCatalog
from repro.datagen.corruption import Corruptor
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal, Term
from repro.rdf.triples import Triple

Pair = Tuple[Term, Term]


def provider_batch(
    catalog: GeneratedCatalog,
    n_items: int,
    seed: int = 4242,
    namespace: str = "http://example.org/catalog/provider-test/",
    corruptor: Corruptor | None = None,
) -> Tuple[Graph, List[Pair]]:
    """Corrupted twins of catalog items NOT used in TS (out-of-sample).

    ``corruptor`` overrides the default corruption model — scenario
    profiles (clean, harsh...) pass their own.
    """
    rng = random.Random(seed)
    linked_locals = {link.local for link in catalog.links}
    unseen = [item for item in catalog.items if item.iri not in linked_locals]
    if len(unseen) < n_items:
        n_items = len(unseen)
    chosen = rng.sample(unseen, n_items)
    ns = Namespace(namespace)
    graph = Graph(identifier="external-test")
    truth: List[Pair] = []
    corruptor = corruptor or Corruptor()
    for i, item in enumerate(chosen):
        ext = ns.term(f"t{i}")
        corrupted = corruptor.corrupt(item.part_number, rng)
        graph.add(Triple(ext, PART_NUMBER, Literal(corrupted)))
        graph.add(Triple(ext, MANUFACTURER, Literal(item.manufacturer)))
        truth.append((ext, item.iri))
    return graph, truth
