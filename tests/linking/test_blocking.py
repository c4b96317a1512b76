"""Unit tests for the blocking methods."""

import pytest

from repro.core import LearnerConfig, RuleClassifier, RuleLearner
from repro.linking import (
    CanopyBlocking,
    FullIndex,
    QGramBlocking,
    Record,
    RecordStore,
    RuleBasedBlocking,
    SortedNeighbourhood,
    StandardBlocking,
)
from repro.rdf import EX, Graph, Literal, Triple
from repro.text import soundex


def store(*rows):
    """rows: (id_local_name, part_number)"""
    return RecordStore(
        Record(id=EX[name], fields={"pn": (value,)}) for name, value in rows
    )


@pytest.fixture
def external():
    return store(("e1", "CRCW-0805"), ("e2", "T83-220"), ("e3", "ZZZ-1"))


@pytest.fixture
def local():
    return store(("l1", "CRCW-0806"), ("l2", "T83-221"), ("l3", "AAA-9"))


class TestFullIndex:
    def test_cartesian_product(self, external, local):
        pairs = set(FullIndex().candidate_pairs(external, local))
        assert len(pairs) == 9
        assert (EX.e1, EX.l1) in pairs

    def test_pair_count(self, external, local):
        assert FullIndex().pair_count(external, local) == 9


class TestStandardBlocking:
    def test_prefix_blocking(self, external, local):
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        pairs = set(blocking.candidate_pairs(external, local))
        assert pairs == {(EX.e1, EX.l1), (EX.e2, EX.l2)}

    def test_empty_keys_skipped(self):
        ext = store(("e1", ""))
        loc = store(("l1", ""))
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        assert set(blocking.candidate_pairs(ext, loc)) == set()

    def test_phonetic_transform(self):
        ext = store(("e1", "Robert"))
        loc = store(("l1", "Rupert"), ("l2", "Smith"))
        blocking = StandardBlocking.on_field_transform("pn", soundex)
        pairs = set(blocking.candidate_pairs(ext, loc))
        assert pairs == {(EX.e1, EX.l1)}

    def test_custom_key_function(self, external, local):
        """An unsigned key (a lambda) blocks through a private index."""
        blocking = StandardBlocking(lambda r: r.value("pn")[-1])
        pairs = set(blocking.candidate_pairs(external, local))
        # keys: e1->'5', e2->'0', e3->'1'; l1->'6', l2->'1', l3->'9'
        assert pairs == {(EX.e3, EX.l2)}


class TestSortedNeighbourhood:
    def test_window_pairs_nearby_keys(self, external, local):
        blocking = SortedNeighbourhood.on_field("pn", window_size=2)
        pairs = set(blocking.candidate_pairs(external, local))
        # sorted keys: aaa-9(l3) crcw-0805(e1) crcw-0806(l1) t83-220(e2)
        #              t83-221(l2) zzz-1(e3)
        assert (EX.e1, EX.l1) in pairs
        assert (EX.e2, EX.l2) in pairs

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            SortedNeighbourhood.on_field("pn", window_size=1)

    def test_larger_window_superset(self, external, local):
        small = set(
            SortedNeighbourhood.on_field("pn", window_size=2).candidate_pairs(
                external, local
            )
        )
        large = set(
            SortedNeighbourhood.on_field("pn", window_size=4).candidate_pairs(
                external, local
            )
        )
        assert small <= large

    def test_same_source_pairs_excluded(self):
        ext = store(("e1", "aaa"), ("e2", "aab"))
        loc = store(("l1", "zzz"))
        blocking = SortedNeighbourhood.on_field("pn", window_size=3)
        pairs = set(blocking.candidate_pairs(ext, loc))
        assert all(pair[0] in (EX.e1, EX.e2) and pair[1] == EX.l1 for pair in pairs)

    def test_no_duplicate_pairs(self, external, local):
        blocking = SortedNeighbourhood.on_field("pn", window_size=6)
        pairs = list(blocking.candidate_pairs(external, local))
        assert len(pairs) == len(set(pairs))


class TestQGramBlocking:
    def test_similar_values_paired(self, external, local):
        blocking = QGramBlocking("pn", q=2, threshold=0.8)
        pairs = set(blocking.candidate_pairs(external, local))
        assert (EX.e1, EX.l1) in pairs
        assert (EX.e2, EX.l2) in pairs

    def test_dissimilar_not_paired(self, external, local):
        blocking = QGramBlocking("pn", q=2, threshold=0.9)
        pairs = set(blocking.candidate_pairs(external, local))
        assert (EX.e3, EX.l3) not in pairs

    def test_threshold_one_exact_gram_set(self):
        ext = store(("e1", "abc"))
        loc = store(("l1", "abc"), ("l2", "abd"))
        blocking = QGramBlocking("pn", q=2, threshold=1.0)
        pairs = set(blocking.candidate_pairs(ext, loc))
        assert pairs == {(EX.e1, EX.l1)}

    def test_lower_threshold_more_pairs(self, external, local):
        strict = QGramBlocking("pn", q=2, threshold=1.0)
        loose = QGramBlocking("pn", q=2, threshold=0.6)
        assert set(strict.candidate_pairs(external, local)) <= set(
            loose.candidate_pairs(external, local)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            QGramBlocking("pn", threshold=0.0)
        with pytest.raises(ValueError):
            QGramBlocking("pn", q=0)

    def test_empty_values_no_pairs(self):
        ext = store(("e1", ""))
        loc = store(("l1", "abc"))
        blocking = QGramBlocking("pn")
        assert set(blocking.candidate_pairs(ext, loc)) == set()


class TestCanopyBlocking:
    def test_similar_in_canopy(self, external, local):
        blocking = CanopyBlocking("pn", loose=0.5, tight=0.95)
        pairs = set(blocking.candidate_pairs(external, local))
        assert (EX.e1, EX.l1) in pairs
        assert (EX.e2, EX.l2) in pairs
        assert (EX.e3, EX.l3) not in pairs

    def test_tight_removal_bounds_redundancy(self):
        # identical locals are claimed by the first canopy
        ext = store(("e1", "abc"), ("e2", "abc"))
        loc = store(("l1", "abc"))
        blocking = CanopyBlocking("pn", loose=0.3, tight=0.9)
        pairs = list(blocking.candidate_pairs(ext, loc))
        assert pairs == [(EX.e1, EX.l1)]

    def test_loose_zero_tight_validation(self):
        with pytest.raises(ValueError):
            CanopyBlocking("pn", loose=0.9, tight=0.5)


class TestRuleBasedBlocking:
    def test_subspace_pairs(self, tiny_training_set, tiny_ontology, external_graph):
        rules = RuleLearner(LearnerConfig(support_threshold=0.1)).learn(
            tiny_training_set
        )
        classifier = RuleClassifier(rules)
        new_graph = Graph()
        new_graph.add(Triple(EX.n1, EX.partNumber, Literal("t83-42")))
        external = RecordStore.from_graph(new_graph, {"pn": EX.partNumber})
        local = RecordStore(
            Record(id=EX[f"l{i}"], fields={"pn": (f"v{i}",)}) for i in range(1, 11)
        )
        blocking = RuleBasedBlocking(
            classifier, tiny_ontology, new_graph, fallback_full=False
        )
        pairs = set(blocking.candidate_pairs(external, local))
        # t83 -> Capacitor -> instances l4..l8
        assert pairs == {(EX.n1, EX[f"l{i}"]) for i in range(4, 9)}

    def test_fallback_full_for_undecided(self, tiny_training_set, tiny_ontology):
        rules = RuleLearner(LearnerConfig(support_threshold=0.1)).learn(
            tiny_training_set
        )
        classifier = RuleClassifier(rules)
        new_graph = Graph()
        new_graph.add(Triple(EX.n1, EX.partNumber, Literal("unseen-junk")))
        external = RecordStore.from_graph(new_graph, {"pn": EX.partNumber})
        local = RecordStore(
            Record(id=EX[f"l{i}"], fields={"pn": ("x",)}) for i in range(3)
        )
        full = RuleBasedBlocking(classifier, tiny_ontology, new_graph, fallback_full=True)
        none = RuleBasedBlocking(classifier, tiny_ontology, new_graph, fallback_full=False)
        assert len(set(full.candidate_pairs(external, local))) == 3
        assert set(none.candidate_pairs(external, local)) == set()

    def test_shard_streams_partition_serial(
        self, tiny_training_set, tiny_ontology
    ):
        """Each external record's canopy of rule-predicted candidates is
        owned by exactly one shard; merged on the external ordinal, the
        shard streams reproduce the serial candidate order exactly."""
        import heapq

        from repro.engine.shard import ShardPlan

        rules = RuleLearner(LearnerConfig(support_threshold=0.1)).learn(
            tiny_training_set
        )
        classifier = RuleClassifier(rules)
        new_graph = Graph()
        for name, pn in (
            ("n1", "t83-42"), ("n2", "ohm-42"), ("n3", "uf-42"),
            ("n4", "unseen-junk"), ("n5", "t83-77"),
        ):
            new_graph.add(Triple(EX[name], EX.partNumber, Literal(pn)))
        external = RecordStore.from_graph(new_graph, {"pn": EX.partNumber})
        local = RecordStore(
            Record(id=EX[f"l{i}"], fields={"pn": (f"v{i}",)}) for i in range(1, 11)
        )
        blocking = RuleBasedBlocking(
            classifier, tiny_ontology, new_graph, fallback_full=True
        )
        serial = list(blocking.candidate_pairs(external, local))
        assert serial  # the fixture must actually exercise the merge
        for shards in (2, 3):
            plan = ShardPlan.build(
                shards, blocking.shard_block_sizes(external, local)
            )
            streams = [
                list(blocking.shard_candidate_pairs(external, local, plan, s))
                for s in range(plan.shards)
            ]
            key_owner = {}
            for shard, stream in enumerate(streams):
                for key, _, _ in stream:
                    assert key_owner.setdefault(key, shard) == shard
            merged = heapq.merge(*streams, key=lambda entry: entry[0])
            assert [(ext, loc) for _, ext, loc in merged] == serial
            assert sum(len(stream) for stream in streams) == len(serial)
