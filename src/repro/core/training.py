"""The training set ``TS``: expert-validated sameAs links with provenance.

Paper §3: "Let TS be the set of same-as links between external and local
data items that are validated by a domain expert. We consider that the
linked pairs of data items are stored with their provenance information
(external or local)."

:class:`TrainingSet` stores the links and resolves, for each link, the
learning view the algorithm needs: the external item's property values
(from ``S_E``) and the local item's most-specific classes (from ``O_L``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence

from repro.ontology.model import Ontology
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespace import OWL
from repro.rdf.terms import IRI, Literal, Term


class TrainingSetError(ValueError):
    """Raised on malformed training data (empty set, unknown items...)."""


@dataclass(frozen=True, slots=True)
class SameAsLink:
    """One expert-validated reconciliation: external item <-> local item."""

    external: Term
    local: Term

    def __str__(self) -> str:
        return f"{self.external} owl:sameAs {self.local}"


@dataclass(frozen=True, slots=True)
class TrainingExample:
    """A link joined with what the learner needs to count.

    ``property_values`` maps each selected data-type property of the
    external item to its literal values; ``classes`` holds the local
    item's most-specific classes.
    """

    link: SameAsLink
    property_values: Dict[IRI, tuple[str, ...]]
    classes: FrozenSet[IRI]


def join_link(
    link: SameAsLink,
    properties: Sequence[IRI],
    external: Graph,
    ontology: Ontology,
) -> TrainingExample:
    """One link's learning view: its external values and local classes."""
    values: Dict[IRI, tuple[str, ...]] = {}
    for prop in properties:
        literals = external.literal_values(link.external, prop)
        if literals:
            values[prop] = tuple(literals)
    return TrainingExample(
        link=link,
        property_values=values,
        classes=ontology.most_specific_classes_of(link.local),
    )


class TrainingSet:
    """The set ``TS`` plus the graphs/ontology required to interpret it.

    >>> ts = TrainingSet(links, external=se_graph, ontology=onto)
    >>> len(ts)                      # |TS|
    10265
    >>> examples = ts.examples([EX.partNumber])
    """

    def __init__(
        self,
        links: Iterable[SameAsLink],
        external: Graph,
        ontology: Ontology,
    ) -> None:
        self._links: List[SameAsLink] = list(links)
        if not self._links:
            raise TrainingSetError("training set must contain at least one link")
        seen = set()
        deduped = []
        for link in self._links:
            if link not in seen:
                seen.add(link)
                deduped.append(link)
        self._links = deduped
        self._external = external
        self._ontology = ontology

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        ontology: Ontology,
        links_graph: str = "links",
    ) -> "TrainingSet":
        """Build from a provenance dataset holding ``owl:sameAs`` triples.

        The links graph must contain triples ``e owl:sameAs l`` with the
        external item as subject and the local item as object (checked
        against the dataset's provenance when available).
        """
        links = []
        for triple in dataset.graph(links_graph).triples(None, OWL.sameAs, None):
            external_item, local_item = triple.subject, triple.object
            prov_subject = dataset.provenance_of(external_item)
            prov_object = dataset.provenance_of(local_item)
            if "local" in prov_subject and "external" in prov_object:
                # stored the other way round; normalize
                external_item, local_item = local_item, external_item
            links.append(SameAsLink(external=external_item, local=local_item))
        if not links:
            raise TrainingSetError(
                f"no owl:sameAs links found in graph {links_graph!r}"
            )
        return cls(links, external=dataset.external, ontology=ontology)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[SameAsLink]:
        return iter(self._links)

    @property
    def links(self) -> Sequence[SameAsLink]:
        """The deduplicated links, in insertion order."""
        return tuple(self._links)

    @property
    def external_graph(self) -> Graph:
        """The external source graph ``S_E`` (provider descriptions)."""
        return self._external

    @property
    def ontology(self) -> Ontology:
        """The local ontology ``O_L`` typing the local items."""
        return self._ontology

    # ------------------------------------------------------------------
    # learning views
    # ------------------------------------------------------------------
    def external_properties(self) -> FrozenSet[IRI]:
        """Data-type properties used by linked external items.

        This is the default for Algorithm 1's ``P`` when the expert
        selects nothing ("all if no selection").
        """
        properties = set()
        for link in self._links:
            for triple in self._external.triples(link.external, None, None):
                if isinstance(triple.object, Literal):
                    properties.add(triple.predicate)
        return frozenset(properties)

    def examples(self, properties: Sequence[IRI] | None = None) -> List[TrainingExample]:
        """Join every link with its property values and local classes.

        Links whose local item carries no class are kept with an empty
        class set (they contribute to ``|TS|`` but never to a rule's
        conclusion counts, mirroring the paper's counting over TS).
        """
        selected = (
            tuple(properties)
            if properties is not None
            else tuple(sorted(self.external_properties(), key=lambda p: p.value))
        )
        return [
            join_link(link, selected, self._external, self._ontology)
            for link in self._links
        ]

    def class_histogram(self) -> Dict[IRI, int]:
        """Count links per most-specific local class.

        A link typed with several most-specific classes counts once per
        class (rare; generated catalogs type items with one leaf).
        """
        histogram: Dict[IRI, int] = {}
        for link in self._links:
            for cls in self._ontology.most_specific_classes_of(link.local):
                histogram[cls] = histogram.get(cls, 0) + 1
        return histogram

    def split(self, fraction: float, *, seed: int = 0) -> tuple["TrainingSet", "TrainingSet"]:
        """Deterministic train/test split of the links.

        Used by the experiment harness to check generalization beyond the
        (paper-style) evaluation on TS itself.
        """
        if not 0.0 < fraction < 1.0:
            raise TrainingSetError(f"fraction must be in (0, 1), got {fraction}")
        import random

        rng = random.Random(seed)
        shuffled = list(self._links)
        rng.shuffle(shuffled)
        cut = max(1, min(len(shuffled) - 1, int(len(shuffled) * fraction)))
        head, tail = shuffled[:cut], shuffled[cut:]
        return (
            TrainingSet(head, external=self._external, ontology=self._ontology),
            TrainingSet(tail, external=self._external, ontology=self._ontology),
        )

    def __repr__(self) -> str:
        return f"<TrainingSet links={len(self._links)}>"
