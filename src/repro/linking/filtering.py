"""Ontology-based pair filtering (the related-work baseline of [10]).

Paper §2: "When the data are in conformity with an ontology, filtering
method can be defined using ontology semantic. In [Saïs, Pernelle &
Rousset 2009], class disjunctions are used to reduce the reconciliation
space — but such approaches cannot be used when the data that will be
integrated are not described using the ontology vocabulary."

:class:`DisjointnessFiltering` implements that baseline: it *requires*
the external items to be typed with ontology classes (exactly the
assumption the paper's method removes) and prunes every candidate pair
whose classes are declared disjoint. It composes with any other
blocking method as a post-filter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator

from repro.linking.blocking import BlockingMethod, FullIndex, ShardedPair
from repro.linking.records import RecordStore
from repro.ontology.model import Ontology
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.terms import IRI, Term

if TYPE_CHECKING:  # pragma: no cover - typing only (engine imports us)
    from repro.engine.shard import ShardPlan


class DisjointnessFiltering(BlockingMethod):
    """Prune pairs whose stated classes are disjoint in the ontology.

    ``typing_graph`` must contain ``rdf:type`` triples for the external
    items (the method is inapplicable otherwise — which is the paper's
    point); local items are typed through the ontology's instance map.

    >>> filtering = DisjointnessFiltering(ontology, external_types_graph)
    >>> pairs = filtering.candidate_pairs(external, local)
    """

    def __init__(
        self,
        ontology: Ontology,
        typing_graph: Graph,
        inner: BlockingMethod | None = None,
    ) -> None:
        """Wrap *inner* (default: the full cartesian index) with the
        disjointness filter."""
        self._ontology = ontology
        self._typing = typing_graph
        self._inner = inner or FullIndex()

    def _external_classes(self, item: Term) -> frozenset[IRI]:
        classes = frozenset(
            obj
            for obj in self._typing.objects(item, RDF.type)
            if isinstance(obj, IRI) and obj in self._ontology
        )
        return classes

    def shard_block_sizes(
        self, external: RecordStore, local: RecordStore
    ) -> Dict[str, int]:
        return self._inner.shard_block_sizes(external, local)

    def shard_candidate_pairs(
        self,
        external: RecordStore,
        local: RecordStore,
        plan: "ShardPlan | None" = None,
        shard: int = 0,
    ) -> Iterator[ShardedPair]:
        """The inner method's tagged stream, filtered: pruning drops
        pairs and never moves one, so the inner ownership rule and group
        keys carry over unchanged."""
        classes_cache: Dict[Term, frozenset[IRI]] = {}
        local_classes_cache: Dict[Term, frozenset[IRI]] = {}
        for key, ext_id, local_id in self._inner.shard_candidate_pairs(
            external, local, plan, shard
        ):
            ext_classes = classes_cache.get(ext_id)
            if ext_classes is None:
                ext_classes = self._external_classes(ext_id)
                classes_cache[ext_id] = ext_classes
            if not ext_classes:
                # untyped external item: the filter cannot apply; the
                # pair survives (no information = no pruning)
                yield key, ext_id, local_id
                continue
            local_classes = local_classes_cache.get(local_id)
            if local_classes is None:
                local_classes = self._ontology.classes_of(local_id)
                local_classes_cache[local_id] = local_classes
            if self._pair_is_consistent(ext_classes, local_classes):
                yield key, ext_id, local_id

    def _pair_is_consistent(
        self, ext_classes: frozenset[IRI], local_classes: frozenset[IRI]
    ) -> bool:
        """A pair survives unless *every* class combination is disjoint.

        (Items can be multi-typed; one compatible combination suffices
        for the pair to remain a reconciliation candidate.)
        """
        if not local_classes:
            return True
        for ext_cls in ext_classes:
            for local_cls in local_classes:
                if not self._ontology.are_disjoint(ext_cls, local_cls):
                    return True
        return False
