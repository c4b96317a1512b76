"""Differential tests: the shipped text kernels against their references.

``repro.text`` matches Jaro characters with ``str.find`` and skips NFKD
for ASCII values. Both are meant to return *exactly* what the plain
versions in ``tests/oracles/text.py`` return, so every comparison here
is ``==`` on the float or string, never ``approx``: the linker's output
digests depend on ``repr(score)``.
"""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import NormalizationConfig, jaro_similarity, jaro_winkler_similarity
from repro.text import normalize_value
from tests.oracles import text as oracle

# small alphabets make several equal characters compete for one window;
# two carry non-ASCII and non-BMP code points, and the last one gives
# sparse matches far into long strings, where the matched positions of
# b are only ordered because the kernel sorts them
ALPHABETS = [
    "a",
    "ab",
    "abc",
    "aab-",
    "0123456789",
    "xy\u00e9-\u00df",
    "a\U0001f600b\U0001d518",
    "abcdefghijklmnopqrstuvwxyz0123456789",
]

pairs_over_small_alphabets = st.sampled_from(ALPHABETS).flatmap(
    lambda alphabet: st.tuples(
        st.text(alphabet, max_size=40), st.text(alphabet, max_size=40)
    )
)

# lengths 1-4 put the window at 0 or 1, where its edges decide matches
pairs_at_window_edges = st.sampled_from(ALPHABETS).flatmap(
    lambda alphabet: st.tuples(
        st.text(alphabet, min_size=1, max_size=4),
        st.text(alphabet, min_size=1, max_size=4),
    )
)

any_text = st.text(max_size=24)


def assert_same_scores(a: str, b: str) -> None:
    assert jaro_similarity(a, b) == oracle.jaro_similarity(a, b)
    assert jaro_winkler_similarity(a, b) == oracle.jaro_winkler_similarity(a, b)


@settings(max_examples=400, deadline=None)
@given(pairs_over_small_alphabets)
def test_jaro_matches_oracle_over_small_alphabets(pair):
    assert_same_scores(*pair)


@settings(max_examples=300, deadline=None)
@given(pairs_at_window_edges)
def test_jaro_matches_oracle_at_window_edges(pair):
    assert_same_scores(*pair)


@settings(max_examples=300, deadline=None)
@given(any_text, any_text)
def test_jaro_matches_oracle_over_any_text(a, b):
    assert_same_scores(a, b)


@pytest.mark.parametrize(
    "a,b",
    [
        ("", ""),
        ("", "x"),
        ("x", ""),
        ("x", "x"),
        ("x", "y"),
        ("ab", "ba"),
        ("aaab", "abaa"),
        ("martha", "marhta"),
        ("dixon", "dicksonx"),
        ("crcw0805-10k", "crcw0805 10k"),
        ("\U0001f600a", "a\U0001f600"),
        ("e\u0301", "\u00e9"),  # decomposed against precomposed
        # matches at positions 3, 10 and 17, which a set yields as 17, 10, 3
        ("pppaqqqqqqbrrrrrrcss", "xxxayyyyyybzzzzzzcww"),
    ],
)
def test_jaro_matches_oracle_on_fixed_pairs(a, b):
    assert_same_scores(a, b)
    assert_same_scores(b, a)


def test_ascii_is_fixed_by_nfkd_and_never_combining():
    """The fact that makes the ASCII shortcut in ``normalize_value`` exact."""
    for code in range(128):
        ch = chr(code)
        assert unicodedata.normalize("NFKD", ch) == ch
        assert not unicodedata.combining(ch)


@pytest.mark.parametrize(
    "text",
    [
        "  CRCW0805\t10K ",
        "Sa\u00efs Pernelle \u00e0 c\u00f4t\u00e9",  # precomposed accents
        "\ufb01lm resistor",  # the "fi" ligature
        "\uff10\uff18\uff10\uff15",  # full-width 0805
        "e\u0301t\u0301e\u0301",  # combining acute accents
        "10\u00a0k\u03a9",  # no-break space, capital omega
        "\u01c4",  # DZ with caron, a compatibility digraph
        "",
    ],
)
def test_normalize_matches_oracle_on_fixed_values(text):
    assert normalize_value(text) == oracle.normalize_value(text)


configs = st.builds(
    NormalizationConfig,
    casefold=st.booleans(),
    remove_accents=st.booleans(),
    collapse_whitespace=st.booleans(),
    strip=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=24), configs)
def test_normalize_matches_oracle_on_ascii(text, config):
    assert normalize_value(text, config) == oracle.normalize_value(text, config)


@settings(max_examples=300, deadline=None)
@given(any_text, configs)
def test_normalize_matches_oracle_on_any_text(text, config):
    assert normalize_value(text, config) == oracle.normalize_value(text, config)
