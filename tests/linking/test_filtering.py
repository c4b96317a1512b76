"""Unit tests for the disjointness-filtering baseline ([10])."""

import pytest

from repro.engine import JobConfig, LinkingJob
from repro.linking import (
    DisjointnessFiltering,
    FieldComparator,
    Record,
    RecordComparator,
    RecordStore,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.linking.blocking import FullIndex
from repro.ontology import Ontology
from repro.rdf import EX, Graph, RDF, Triple


@pytest.fixture
def ontology():
    onto = Ontology()
    onto.add_subclass(EX.Passive, EX.Component)
    onto.add_subclass(EX.Active, EX.Component)
    onto.add_subclass(EX.Resistor, EX.Passive)
    onto.add_subclass(EX.Diode, EX.Active)
    onto.add_disjoint(EX.Passive, EX.Active)
    onto.add_instance(EX.l1, EX.Resistor)
    onto.add_instance(EX.l2, EX.Diode)
    return onto


def stores():
    external = RecordStore([Record(id=EX.e1, fields={"pn": ("x",)})])
    local = RecordStore(
        [
            Record(id=EX.l1, fields={"pn": ("x",)}),
            Record(id=EX.l2, fields={"pn": ("x",)}),
        ]
    )
    return external, local


class TestDisjointnessFiltering:
    def test_prunes_disjoint_pairs(self, ontology):
        typing = Graph([Triple(EX.e1, RDF.type, EX.Resistor)])
        filtering = DisjointnessFiltering(ontology, typing)
        external, local = stores()
        pairs = set(filtering.candidate_pairs(external, local))
        # e1 is a Resistor (Passive); l2 is a Diode (Active, disjoint)
        assert pairs == {(EX.e1, EX.l1)}

    def test_untyped_external_items_not_pruned(self, ontology):
        filtering = DisjointnessFiltering(ontology, Graph())
        external, local = stores()
        pairs = set(filtering.candidate_pairs(external, local))
        assert pairs == {(EX.e1, EX.l1), (EX.e1, EX.l2)}

    def test_untyped_local_items_not_pruned(self, ontology):
        typing = Graph([Triple(EX.e1, RDF.type, EX.Resistor)])
        filtering = DisjointnessFiltering(ontology, typing)
        external = RecordStore([Record(id=EX.e1, fields={"pn": ("x",)})])
        local = RecordStore([Record(id=EX.l9, fields={"pn": ("x",)})])
        pairs = set(filtering.candidate_pairs(external, local))
        assert pairs == {(EX.e1, EX.l9)}

    def test_unknown_classes_in_typing_ignored(self, ontology):
        typing = Graph([Triple(EX.e1, RDF.type, EX.NotAClass)])
        filtering = DisjointnessFiltering(ontology, typing)
        external, local = stores()
        # unknown class = no usable typing = no pruning
        assert len(set(filtering.candidate_pairs(external, local))) == 2

    def test_multi_typed_item_survives_with_one_compatible_class(self, ontology):
        typing = Graph(
            [
                Triple(EX.e1, RDF.type, EX.Resistor),
                Triple(EX.e1, RDF.type, EX.Component),
            ]
        )
        filtering = DisjointnessFiltering(ontology, typing)
        external, local = stores()
        pairs = set(filtering.candidate_pairs(external, local))
        # Component is not disjoint with Diode's ancestry -> l2 survives
        assert (EX.e1, EX.l2) in pairs

    def test_composes_with_inner_blocking(self, ontology):
        typing = Graph([Triple(EX.e1, RDF.type, EX.Resistor)])
        inner = StandardBlocking.on_field_prefix("pn", length=1)
        filtering = DisjointnessFiltering(ontology, typing, inner=inner)
        external, local = stores()
        pairs = set(filtering.candidate_pairs(external, local))
        assert pairs == {(EX.e1, EX.l1)}

    def test_inherited_disjointness_applies(self, ontology):
        # Resistor ⊑ Passive and Diode ⊑ Active, with Passive ⊥ Active:
        # typing with the subclasses still prunes
        typing = Graph([Triple(EX.e1, RDF.type, EX.Diode)])
        filtering = DisjointnessFiltering(ontology, typing)
        external, local = stores()
        pairs = set(filtering.candidate_pairs(external, local))
        assert pairs == {(EX.e1, EX.l2)}

    def test_default_inner_is_full_index(self, ontology):
        filtering = DisjointnessFiltering(ontology, Graph())
        assert isinstance(filtering._inner, FullIndex)

    def test_shards_like_its_inner_method(self, ontology):
        """The filter keeps the inner method's group keys, so a shard
        run is byte-identical to the serial one and never degrades."""
        typing = Graph(
            [
                Triple(EX.e0, RDF.type, EX.Resistor),
                Triple(EX.e1, RDF.type, EX.Diode),
                Triple(EX.e3, RDF.type, EX.Resistor),
            ]
        )
        external = RecordStore(
            Record(id=EX[f"e{i}"], fields={"pn": (pn,)})
            for i, pn in enumerate(("crcw-10k", "crcw-22k", "t83-220", "crcw-10r"))
        )
        local = RecordStore(
            Record(id=EX[name], fields={"pn": (pn,)})
            for name, pn in (
                ("l1", "crcw-10k"), ("l2", "crcw-22k"), ("l3", "t83-220"),
                ("l4", "crcw-10r"),
            )
        )
        filtering = DisjointnessFiltering(
            ontology, typing, inner=StandardBlocking.on_field_prefix("pn", 3)
        )
        comparator = RecordComparator([FieldComparator("pn")])
        matcher = ThresholdMatcher(0.9)
        serial = LinkingJob(
            filtering, comparator, matcher, JobConfig(executor="serial")
        ).run(external, local)
        shard = LinkingJob(
            filtering, comparator, matcher, JobConfig(executor="shard", workers=2)
        ).run(external, local)
        assert shard.stats.executor == "shard"
        assert shard.stats.fallback_reason is None
        # e0 (Resistor) loses l2 (Diode), e1 (Diode) loses l1 (Resistor)
        assert (EX.e0, EX.l2) not in serial.candidate_pairs
        assert (EX.e1, EX.l1) not in serial.candidate_pairs
        assert shard.candidate_pairs == serial.candidate_pairs
        assert shard.matches == serial.matches
        assert serial.matches
