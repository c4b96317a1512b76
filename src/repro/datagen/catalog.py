"""The complete synthetic catalog: S_L, S_E, TS and ground truth.

:class:`ElectronicCatalogGenerator` assembles everything the experiments
need, fully seeded:

* the product ontology (exact class/leaf counts) with every catalog item
  typed by its leaf class;
* the local graph ``S_L`` — catalog items with ``partNumber``,
  ``manufacturer`` and ``rdfs:label``;
* the external graph ``S_E`` — provider records: corrupted part numbers
  (plus manufacturer), schema-less from the learner's point of view;
* the expert training set ``TS`` — one ``sameAs`` link per provider
  record to its catalog original (the generator knows the truth, playing
  the paper's domain expert).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.training import SameAsLink, TrainingSet
from repro.datagen import names
from repro.datagen.config import CatalogConfig
from repro.datagen.corruption import CorruptionConfig, Corruptor
from repro.datagen.grammar import LeafProfile, PartNumberGrammar
from repro.datagen.ontology_gen import CATALOG, generate_product_ontology
from repro.ontology.model import Ontology
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespace import OWL, RDF, RDFS
from repro.rdf.terms import IRI, Literal, Term
from repro.rdf.triples import Triple

#: Data-type property carrying the part number (the expert's choice).
PART_NUMBER = CATALOG.term("partNumber")
#: Manufacturer property (deliberately uninformative about the class).
MANUFACTURER = CATALOG.term("manufacturer")
#: ``rdf:type`` and ``rdfs:label``, minted once instead of once per item.
RDF_TYPE = RDF.type
RDFS_LABEL = RDFS.label


@dataclass(frozen=True, slots=True)
class CatalogItem:
    """One generated catalog product."""

    iri: IRI
    leaf: IRI
    part_number: str
    manufacturer: str
    label: str


@dataclass
class GeneratedCatalog:
    """Everything one generator run produced."""

    config: CatalogConfig
    ontology: Ontology
    grammar: PartNumberGrammar
    items: List[CatalogItem]
    local_graph: Graph
    external_graph: Graph
    links: List[SameAsLink]
    #: external IRI -> true local IRI (== the links, as a dict)
    truth: Dict[Term, Term] = field(default_factory=dict)

    @property
    def truth_pairs(self) -> List[Tuple[Term, Term]]:
        """Ground truth as (external, local) pairs."""
        return [(link.external, link.local) for link in self.links]

    def to_training_set(self) -> TrainingSet:
        """The expert-validated ``TS`` over this catalog."""
        return TrainingSet(
            self.links, external=self.external_graph, ontology=self.ontology
        )

    def to_dataset(self) -> Dataset:
        """Provenance dataset: local / external / links named graphs."""
        dataset = Dataset()
        dataset.local.add_all(self.local_graph.triples())
        dataset.external.add_all(self.external_graph.triples())
        links = dataset.graph("links")
        for link in self.links:
            links.add(Triple(link.external, OWL.sameAs, link.local))
        return dataset

    def __repr__(self) -> str:
        return (
            f"<GeneratedCatalog items={len(self.items)} "
            f"links={len(self.links)} classes={len(self.ontology)}>"
        )


class ElectronicCatalogGenerator:
    """Seeded generator of the full synthetic benchmark.

    >>> catalog = ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()
    >>> ts = catalog.to_training_set()
    >>> len(ts)
    10265
    """

    def __init__(
        self,
        config: CatalogConfig | None = None,
        corruption: CorruptionConfig | None = None,
    ) -> None:
        self.config = config or CatalogConfig()
        self.corruptor = Corruptor(corruption)

    def generate(self) -> GeneratedCatalog:
        """Run the full generation pipeline (deterministic per seed)."""
        config = self.config
        rng = random.Random(config.seed)

        ontology, leaf_iris = generate_product_ontology(config)
        grammar = PartNumberGrammar(config, leaf_iris, ontology)

        # 1. catalog items, Zipf-distributed over leaves
        sizes = grammar.class_sizes(config.catalog_size, rng)
        items: List[CatalogItem] = []
        local_graph = Graph(identifier="local")
        item_counter = 0
        for leaf in leaf_iris:
            profile = grammar.profile_of(leaf)
            label_base = ontology.label(leaf)
            for _ in range(sizes[leaf]):
                iri = CATALOG.term(f"product/p{item_counter}")
                item_counter += 1
                part_number = grammar.sample_part_number(profile, rng)
                manufacturer = rng.choice(names.MANUFACTURERS)
                label = f"{label_base} {part_number}"
                items.append(
                    CatalogItem(
                        iri=iri,
                        leaf=leaf,
                        part_number=part_number,
                        manufacturer=manufacturer,
                        label=label,
                    )
                )
                ontology.add_instance(iri, leaf)
                local_graph.add(Triple(iri, RDF_TYPE, leaf))
                local_graph.add(Triple(iri, PART_NUMBER, Literal(part_number)))
                local_graph.add(Triple(iri, MANUFACTURER, Literal(manufacturer)))
                local_graph.add(Triple(iri, RDFS_LABEL, Literal(label)))

        # 2. expert links: sample |TS| catalog items (uniformly, which
        # preserves the Zipf class skew) and emit corrupted provider twins
        linked_items = rng.sample(items, config.n_links)
        external_graph = Graph(identifier="external")
        links: List[SameAsLink] = []
        truth: Dict[Term, Term] = {}
        for i, item in enumerate(linked_items):
            ext_iri = CATALOG.term(f"provider/e{i}")
            provider_pn = self.corruptor.corrupt(item.part_number, rng)
            external_graph.add(Triple(ext_iri, PART_NUMBER, Literal(provider_pn)))
            external_graph.add(
                Triple(ext_iri, MANUFACTURER, Literal(item.manufacturer))
            )
            links.append(SameAsLink(external=ext_iri, local=item.iri))
            truth[ext_iri] = item.iri

        return GeneratedCatalog(
            config=config,
            ontology=ontology,
            grammar=grammar,
            items=items,
            local_graph=local_graph,
            external_graph=external_graph,
            links=links,
            truth=truth,
        )
