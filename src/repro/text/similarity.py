"""String similarity measures used by the linker and blocking baselines.

All similarities return values in ``[0, 1]`` with 1 meaning identical;
distances return non-negative integers. Implementations are classical —
Levenshtein/Damerau dynamic programs, Jaro/Jaro-Winkler as specified by
Winkler (1990), token/qgram set measures, Monge-Elkan composition and a
small TF-IDF cosine vectorizer for label fields.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


def levenshtein_distance(a: str, b: str) -> int:
    """Minimum number of insertions, deletions and substitutions."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(
                    previous[j] + 1,        # deletion
                    current[j - 1] + 1,     # insertion
                    previous[j - 1] + cost, # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """``1 - distance / max(len)``; 1.0 for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def damerau_levenshtein_distance(a: str, b: str) -> int:
    """Levenshtein plus transposition of adjacent characters."""
    if a == b:
        return 0
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        return len_b
    if len_b == 0:
        return len_a
    # full matrix (restricted Damerau-Levenshtein / optimal string alignment)
    d = [[0] * (len_b + 1) for _ in range(len_a + 1)]
    for i in range(len_a + 1):
        d[i][0] = i
    for j in range(len_b + 1):
        d[0][j] = j
    for i in range(1, len_a + 1):
        for j in range(1, len_b + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[len_a][len_b]


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity (the measure behind the 1985 Tampa census study

    cited by the paper as the origin of blocking).

    Each character of *a* takes the first unused equal character of *b*
    inside the match window; ``str.find`` does that scan in C. The
    window start is clamped at 0 by hand because ``find`` reads a
    negative start as an offset from the end.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(max(len_a, len_b) // 2 - 1, 0)
    find = b.find
    matched_a = []
    used = set()
    for i, ch in enumerate(a):
        hi = i + window + 1
        j = find(ch, i - window if i > window else 0, hi)
        while j in used:
            j = find(ch, j + 1, hi)
        if j >= 0:
            matched_a.append(ch)
            used.add(j)
    matches = len(used)
    if matches == 0:
        return 0.0
    transpositions = 0
    for ch, j in zip(matched_a, sorted(used)):
        if ch != b[j]:
            transpositions += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro similarity boosted for common prefixes (Winkler's variant).

    Winkler's condition ``prefix_scale * max_prefix <= 1`` keeps the
    result in ``[0, 1]``. A negative or fractional ``max_prefix`` is
    never equal to the running prefix count, so it would uncap the
    count; both are rejected.
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be in [0, 0.25]")
    if max_prefix < 0 or max_prefix % 1 or prefix_scale * max_prefix > 1.0:
        raise ValueError(
            "max_prefix must be a whole number >= 0 with prefix_scale * max_prefix <= 1"
        )
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a, b):
        if ch_a != ch_b or prefix == max_prefix:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def jaccard_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """|A ∩ B| / |A ∪ B| over token sets; 1.0 when both are empty."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    return len(set_a & set_b) / len(union)


def dice_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """2|A ∩ B| / (|A| + |B|) over token sets; 1.0 when both are empty."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return 2 * len(set_a & set_b) / (len(set_a) + len(set_b))


def qgram_profile(text: str, q: int = 2, pad: bool = True) -> Counter:
    """Multiset of character q-grams of *text* (padded with ``#``)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if pad:
        frame = "#" * (q - 1)
        text = f"{frame}{text}{frame}"
    if not text:
        return Counter()
    if len(text) < q:
        return Counter([text])
    return Counter(text[i:i + q] for i in range(len(text) - q + 1))


@lru_cache(maxsize=8192)
def qgram_profile_normed(text: str, q: int) -> Tuple[Dict[str, int], float]:
    """Memoized (padded profile, L2 norm) behind ``qgram_cosine_similarity``.

    Blocking and canopy clustering compare one value against a whole
    block, so one side repeats across thousands of calls; rebuilding the
    Counter each time dominated the cosine. Canopy blocking also indexes
    these profiles directly, so its integer dot products and norms are
    exactly the cosine's. The cached dict is shared — callers must treat
    it as read-only.
    """
    profile = qgram_profile(text, q)
    norm = math.sqrt(sum(count * count for count in profile.values()))
    return dict(profile), norm


def qgram_cosine_similarity(a: str, b: str, q: int = 2) -> float:
    """Cosine between q-gram count vectors; 1.0 when both empty."""
    profile_a, norm_a = qgram_profile_normed(a, q)
    profile_b, norm_b = qgram_profile_normed(b, q)
    if not profile_a and not profile_b:
        return 1.0
    if not profile_a or not profile_b:
        return 0.0
    dot = sum(count * profile_b.get(gram, 0) for gram, count in profile_a.items())
    return dot / (norm_a * norm_b)


def monge_elkan_similarity(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    inner: Callable[[str, str], float] = jaro_winkler_similarity,
) -> float:
    """Average best-match similarity of each token of *a* against *b*.

    Note the measure is asymmetric by definition; callers wanting symmetry
    should average both directions.
    """
    if not tokens_a:
        return 1.0 if not tokens_b else 0.0
    if not tokens_b:
        return 0.0
    total = 0.0
    for tok_a in tokens_a:
        total += max(inner(tok_a, tok_b) for tok_b in tokens_b)
    return total / len(tokens_a)


class TfIdfVectorizer:
    """A small TF-IDF + cosine model over tokenized documents.

    Fit on the catalog's label corpus once, then compare individual label
    pairs. IDF uses the standard smoothed form ``log((1+N)/(1+df)) + 1``.
    """

    def __init__(self, tokenizer: Callable[[str], List[str]] | None = None) -> None:
        self._tokenizer = tokenizer or (lambda text: text.casefold().split())
        self._idf: Dict[str, float] = {}
        self._fitted = False

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    def fit(self, documents: Iterable[str]) -> "TfIdfVectorizer":
        """Learn IDF weights from *documents*; returns self for chaining."""
        doc_freq: Counter[str] = Counter()
        n_docs = 0
        for doc in documents:
            n_docs += 1
            doc_freq.update(set(self._tokenizer(doc)))
        self._idf = {
            token: math.log((1 + n_docs) / (1 + df)) + 1.0
            for token, df in doc_freq.items()
        }
        self._default_idf = math.log(1 + n_docs) + 1.0  # unseen tokens: df=0
        self._fitted = True
        return self

    def vector(self, document: str) -> Dict[str, float]:
        """The TF-IDF vector of *document* as a sparse dict."""
        if not self._fitted:
            raise RuntimeError("TfIdfVectorizer.fit must be called first")
        counts = Counter(self._tokenizer(document))
        return {
            token: tf * self._idf.get(token, self._default_idf)
            for token, tf in counts.items()
        }

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between the TF-IDF vectors of *a* and *b*."""
        vec_a = self.vector(a)
        vec_b = self.vector(b)
        if not vec_a and not vec_b:
            return 1.0
        if not vec_a or not vec_b:
            return 0.0
        dot = sum(w * vec_b.get(t, 0.0) for t, w in vec_a.items())
        norm_a = math.sqrt(sum(w * w for w in vec_a.values()))
        norm_b = math.sqrt(sum(w * w for w in vec_b.values()))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)


def longest_common_subsequence(a: str, b: str) -> int:
    """Length of the longest (not necessarily contiguous) common subsequence."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for ch_a in a:
        current = [0]
        for j, ch_b in enumerate(b, start=1):
            if ch_a == ch_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def lcs_similarity(a: str, b: str) -> float:
    """``LCS(a, b) / max(len)``; 1.0 for two empty strings."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return longest_common_subsequence(a, b) / longest


def overlap_coefficient(a: Iterable[str], b: Iterable[str]) -> float:
    """|A ∩ B| / min(|A|, |B|) over token sets; 1.0 when both are empty.

    The natural measure when one record's field is a *subset* of the
    other's (e.g. provider part numbers that drop decorative segments).
    """
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def smith_waterman_similarity(
    a: str,
    b: str,
    match_score: float = 2.0,
    mismatch_penalty: float = -1.0,
    gap_penalty: float = -1.0,
) -> float:
    """Normalized Smith-Waterman local-alignment similarity in [0, 1].

    Finds the best-scoring *local* alignment (classic dynamic program)
    and divides by the best possible score ``match_score * min(len)``.
    Well suited to part numbers sharing an embedded series code.
    """
    if match_score <= 0:
        raise ValueError("match_score must be positive")
    if not a or not b:
        return 1.0 if not a and not b else 0.0
    rows = len(a) + 1
    cols = len(b) + 1
    best = 0.0
    previous = [0.0] * cols
    for i in range(1, rows):
        current = [0.0] * cols
        for j in range(1, cols):
            score = match_score if a[i - 1] == b[j - 1] else mismatch_penalty
            current[j] = max(
                0.0,
                previous[j - 1] + score,
                previous[j] + gap_penalty,
                current[j - 1] + gap_penalty,
            )
            best = max(best, current[j])
        previous = current
    return best / (match_score * min(len(a), len(b)))
