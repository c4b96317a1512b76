"""Unit and property tests for string similarity measures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    TfIdfVectorizer,
    damerau_levenshtein_distance,
    dice_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    qgram_cosine_similarity,
    qgram_profile,
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("abc", "abc", 0),
            ("CRCW0805", "CRCW0806", 1),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    def test_similarity_bounds(self):
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0

    def test_similarity_partial(self):
        assert levenshtein_similarity("abcd", "abce") == 0.75


class TestDamerau:
    def test_transposition_cheaper(self):
        assert levenshtein_distance("ca", "ac") == 2
        assert damerau_levenshtein_distance("ca", "ac") == 1

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "", 3),
            ("abcdef", "abcdfe", 1),
            ("a cat", "a tac", 2),
        ],
    )
    def test_known(self, a, b, expected):
        assert damerau_levenshtein_distance(a, b) == expected


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_classic_martha_marhta(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_classic_dixon_dicksonx(self):
        assert jaro_similarity("dixon", "dicksonx") == pytest.approx(0.7667, abs=1e-3)

    def test_no_match(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "x") == 0.0
        assert jaro_similarity("", "") == 1.0

    def test_winkler_boost(self):
        base = jaro_similarity("martha", "marhta")
        boosted = jaro_winkler_similarity("martha", "marhta")
        assert boosted == pytest.approx(base + 3 * 0.1 * (1 - base), abs=1e-9)
        assert boosted > base

    def test_winkler_prefix_cap(self):
        # identical 10-char prefix but only 4 count
        a, b = "abcdefghij", "abcdefghijXX"
        jaro = jaro_similarity(a, b)
        assert jaro_winkler_similarity(a, b) == pytest.approx(
            jaro + 4 * 0.1 * (1 - jaro)
        )

    def test_winkler_invalid_scale(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_scale=0.5)

    def test_winkler_rejects_boost_past_one(self):
        # 0.25 * 10 > 1: the boost would lift the score to 1.23
        with pytest.raises(ValueError):
            jaro_winkler_similarity(
                "abcdefghijXYZ", "abcdefghijQRS", prefix_scale=0.25, max_prefix=10
            )
        # Winkler's condition at its edge is accepted and stays in [0, 1]
        assert 0.0 <= jaro_winkler_similarity(
            "abcdefghijXYZ", "abcdefghijQRS", prefix_scale=0.1, max_prefix=10
        ) <= 1.0

    def test_winkler_rejects_a_max_prefix_that_uncaps_the_prefix(self):
        # -1 never equals the running count, so it would uncap the prefix
        with pytest.raises(ValueError):
            jaro_winkler_similarity("abcdefgh", "abcdefgz", max_prefix=-1)
        # nor does 4.5: 0.2 * 4.5 <= 1, yet the boost would reach 1.15
        with pytest.raises(ValueError):
            jaro_winkler_similarity(
                "abcdefghijXYZ", "abcdefghijQRS", prefix_scale=0.2, max_prefix=4.5
            )
        assert jaro_winkler_similarity("abcdefgh", "abcdefgz") == pytest.approx(0.95)


class TestTokenSetMeasures:
    def test_jaccard(self):
        assert jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard_similarity([], []) == 1.0
        assert jaccard_similarity(["a"], []) == 0.0

    def test_dice(self):
        assert dice_similarity(["a", "b"], ["b", "c"]) == pytest.approx(0.5)
        assert dice_similarity([], []) == 1.0
        assert dice_similarity(["a"], []) == 0.0

    def test_dice_geq_jaccard(self):
        a, b = ["a", "b", "c"], ["b", "c", "d"]
        assert dice_similarity(a, b) >= jaccard_similarity(a, b)


class TestQGram:
    def test_profile_padded(self):
        profile = qgram_profile("ab", q=2)
        assert profile == {"#a": 1, "ab": 1, "b#": 1}

    def test_profile_unpadded(self):
        assert qgram_profile("abc", q=2, pad=False) == {"ab": 1, "bc": 1}

    def test_profile_invalid_q(self):
        with pytest.raises(ValueError):
            qgram_profile("abc", q=0)

    def test_cosine_identical(self):
        assert qgram_cosine_similarity("crcw0805", "crcw0805") == pytest.approx(1.0)

    def test_cosine_disjoint(self):
        assert qgram_cosine_similarity("aaa", "zzz") == 0.0

    def test_cosine_empty(self):
        assert qgram_cosine_similarity("", "") == 1.0


class TestMongeElkan:
    def test_exact(self):
        assert monge_elkan_similarity(["fixed", "film"], ["fixed", "film"]) == 1.0

    def test_asymmetric(self):
        a = monge_elkan_similarity(["fixed"], ["fixed", "zzz"])
        b = monge_elkan_similarity(["fixed", "zzz"], ["fixed"])
        assert a == 1.0
        assert b < 1.0

    def test_empty_sides(self):
        assert monge_elkan_similarity([], []) == 1.0
        assert monge_elkan_similarity([], ["x"]) == 0.0
        assert monge_elkan_similarity(["x"], []) == 0.0

    def test_custom_inner(self):
        sim = monge_elkan_similarity(
            ["abc"], ["abd"], inner=levenshtein_similarity
        )
        assert sim == pytest.approx(2 / 3)


class TestTfIdf:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            TfIdfVectorizer().vector("a b")

    def test_identical_docs(self):
        v = TfIdfVectorizer().fit(["fixed film resistor", "tantalum capacitor"])
        assert v.similarity("fixed film resistor", "fixed film resistor") == (
            pytest.approx(1.0)
        )

    def test_rare_token_dominates(self):
        corpus = ["resistor common"] * 9 + ["rare resistor"]
        v = TfIdfVectorizer().fit(corpus)
        # 'rare' should have higher idf than 'resistor'
        vec = v.vector("rare resistor")
        assert vec["rare"] > vec["resistor"]

    def test_disjoint_docs(self):
        v = TfIdfVectorizer().fit(["a b", "c d"])
        assert v.similarity("a b", "c d") == 0.0

    def test_empty_doc(self):
        v = TfIdfVectorizer().fit(["a b"])
        assert v.similarity("", "") == 1.0
        assert v.similarity("a", "") == 0.0

    def test_fitted_flag(self):
        v = TfIdfVectorizer()
        assert not v.fitted
        v.fit(["x"])
        assert v.fitted


# ---------------------------------------------------------------------------
# property-based tests: metric-ish axioms
# ---------------------------------------------------------------------------

short_text = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122), max_size=12
)


@settings(max_examples=150, deadline=None)
@given(short_text, short_text)
def test_property_levenshtein_symmetry(a, b):
    assert levenshtein_distance(a, b) == levenshtein_distance(b, a)


@settings(max_examples=150, deadline=None)
@given(short_text, short_text)
def test_property_levenshtein_identity(a, b):
    assert (levenshtein_distance(a, b) == 0) == (a == b)


@settings(max_examples=80, deadline=None)
@given(short_text, short_text, short_text)
def test_property_levenshtein_triangle(a, b, c):
    assert levenshtein_distance(a, c) <= (
        levenshtein_distance(a, b) + levenshtein_distance(b, c)
    )


@settings(max_examples=150, deadline=None)
@given(short_text, short_text)
def test_property_damerau_leq_levenshtein(a, b):
    assert damerau_levenshtein_distance(a, b) <= levenshtein_distance(a, b)


@settings(max_examples=150, deadline=None)
@given(short_text, short_text)
def test_property_jaro_bounds_and_symmetry(a, b):
    sim = jaro_similarity(a, b)
    assert 0.0 <= sim <= 1.0
    assert sim == pytest.approx(jaro_similarity(b, a))


@settings(max_examples=150, deadline=None)
@given(short_text, short_text)
def test_property_jaro_winkler_geq_jaro(a, b):
    assert jaro_winkler_similarity(a, b) >= jaro_similarity(a, b) - 1e-12


@settings(max_examples=150, deadline=None)
@given(short_text, short_text)
def test_property_qgram_cosine_bounds(a, b):
    sim = qgram_cosine_similarity(a, b)
    assert -1e-9 <= sim <= 1.0 + 1e-9
    assert sim == pytest.approx(qgram_cosine_similarity(b, a))
