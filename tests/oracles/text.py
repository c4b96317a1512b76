"""Reference implementations of the text kernels in ``repro.text``.

These are the straightforward versions the optimized kernels replaced.
They live only here, as the oracles that
``tests/text/test_similarity_kernels.py`` compares the shipped kernels
against with exact ``==``.
"""

from __future__ import annotations

import re
import unicodedata

from repro.text.normalize import DEFAULT_NORMALIZATION, NormalizationConfig

_WHITESPACE_RE = re.compile(r"\s+")


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity with the textbook quadratic window scan."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len_b, i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ch:
                matched_a[i] = True
                matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len_a):
        if matched_a[i]:
            while not matched_b[k]:
                k += 1
            if a[i] != b[k]:
                transpositions += 1
            k += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4
) -> float:
    """Winkler's prefix boost over the reference :func:`jaro_similarity`."""
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a, b):
        if ch_a != ch_b or prefix == max_prefix:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def strip_accents(text: str) -> str:
    """NFKD, then drop combining marks — applied to every input."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_value(text: str, config: NormalizationConfig = DEFAULT_NORMALIZATION) -> str:
    """``normalize_value`` without the ASCII shortcut."""
    result = text
    if config.remove_accents:
        result = strip_accents(result)
    if config.casefold:
        result = result.casefold()
    if config.collapse_whitespace:
        result = _WHITESPACE_RE.sub(" ", result)
    if config.strip:
        result = result.strip()
    return result
