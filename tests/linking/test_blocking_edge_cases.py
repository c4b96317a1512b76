"""Blocking edge cases: degenerate keys, unicode, tiny blocks, and
property-based equivalence with the scan oracles in
``tests/oracles/blocking.py``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import shared_index_cache_clear
from repro.linking import (
    FullIndex,
    QGramBlocking,
    Record,
    RecordStore,
    SortedNeighbourhood,
    StandardBlocking,
)
from repro.rdf import EX
from tests.oracles import blocking as oracle


def store(prefix, values, field="pn"):
    return RecordStore(
        Record(id=EX[f"{prefix}{i}"], fields={field: (value,) if value else ()})
        for i, value in enumerate(values)
    )


class TestDegenerateKeys:
    def test_empty_values_produce_no_pairs(self):
        external = store("e", ["", "", ""])
        local = store("l", ["", ""])
        for blocking in (
            StandardBlocking.on_field_prefix("pn", length=4),
            QGramBlocking("pn"),
        ):
            assert list(blocking.candidate_pairs(external, local)) == []

    def test_missing_field_is_empty_key(self):
        external = RecordStore([Record(id=EX.e0, fields={"other": ("x",)})])
        local = store("l", ["abc"])
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        assert list(blocking.candidate_pairs(external, local)) == []

    def test_mixed_empty_and_real_keys(self):
        external = store("e", ["abcd-1", ""])
        local = store("l", ["", "abcd-2"])
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        assert list(blocking.candidate_pairs(external, local)) == [(EX.e0, EX.l1)]

    def test_empty_stores(self):
        empty = RecordStore()
        populated = store("l", ["abc"])
        for blocking in (
            StandardBlocking.on_field_prefix("pn"),
            QGramBlocking("pn"),
            SortedNeighbourhood.on_field("pn"),
        ):
            assert list(blocking.candidate_pairs(empty, populated)) == []
            assert list(blocking.candidate_pairs(populated, empty)) == []

    def test_full_index_pair_count_is_closed_form(self):
        external = store("e", ["a", "b", "c"])
        local = store("l", ["x"] * 7)
        assert FullIndex().pair_count(external, local) == 21
        assert FullIndex().pair_count(RecordStore(), local) == 0
        # and it agrees with materializing the iterator
        assert FullIndex().pair_count(external, local) == sum(
            1 for _ in FullIndex().candidate_pairs(external, local)
        )


class TestUnicodeKeys:
    def test_unicode_values_block_consistently(self):
        names = ["Ĉéská-Lípa", "Ĉéská-Třebová", "München-1"]
        external = store("e", names, field="label")
        local = store("l", names, field="label")
        blocking = StandardBlocking.on_field_prefix("label", length=5)
        pairs = set(blocking.candidate_pairs(external, local))
        # the two Ĉéská records share a 5-char prefix after normalization
        assert (EX.e0, EX.l0) in pairs
        assert (EX.e0, EX.l1) in pairs
        assert (EX.e2, EX.l2) in pairs

    def test_unicode_index_and_scan_agree(self):
        values = ["Åre", "Ørsta", "Şile", "康定", "Åre-2"]
        external = store("e", values, field="label")
        local = store("l", list(reversed(values)), field="label")
        shared_index_cache_clear()
        indexed = list(QGramBlocking("label").candidate_pairs(external, local))
        keys_of = oracle.qgram_keys("label", 2, 0.8, 12)
        assert indexed == oracle.key_blocking_pairs(keys_of, external, local)


class TestSingleRecordBlocks:
    def test_singleton_stores(self):
        external = store("e", ["abcd-9"])
        local = store("l", ["abcd-5"])
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        assert list(blocking.candidate_pairs(external, local)) == [(EX.e0, EX.l0)]

    def test_blocks_of_one_local_record(self):
        # every local record sits alone in its block; each external
        # record matches at most its own block
        external = store("e", ["aaaa", "bbbb", "cccc"])
        local = store("l", ["aaaa", "bbbb", "zzzz"])
        blocking = StandardBlocking.on_field_prefix("pn", length=4)
        assert set(blocking.candidate_pairs(external, local)) == {
            (EX.e0, EX.l0),
            (EX.e1, EX.l1),
        }


# the alphabet is small so random stores actually collide into blocks
value_strategy = st.text(
    alphabet="ab-é1 ", min_size=0, max_size=8
)
store_strategy = st.lists(value_strategy, min_size=0, max_size=12)


class TestPropertyBasedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(external=store_strategy, local=store_strategy)
    def test_standard_blocking_index_equals_scan(self, external, local):
        ext_store, loc_store = store("e", external), store("l", local)
        shared_index_cache_clear()
        indexed = list(
            StandardBlocking.on_field_prefix("pn", length=3).candidate_pairs(
                ext_store, loc_store
            )
        )
        keys_of = oracle.prefix_keys("pn", 3)
        assert indexed == oracle.key_blocking_pairs(keys_of, ext_store, loc_store)

    @settings(max_examples=40, deadline=None)
    @given(external=store_strategy, local=store_strategy)
    def test_qgram_blocking_index_equals_scan(self, external, local):
        ext_store, loc_store = store("e", external), store("l", local)
        shared_index_cache_clear()
        indexed = list(
            QGramBlocking("pn", threshold=0.7).candidate_pairs(ext_store, loc_store)
        )
        keys_of = oracle.qgram_keys("pn", 2, 0.7, 12)
        assert indexed == oracle.key_blocking_pairs(keys_of, ext_store, loc_store)
