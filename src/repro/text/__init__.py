"""Text substrate: normalization, segmentation, similarity, phonetics.

The paper's rules fire on *subsegments* of property values: "the way a
value is split into segments is specified by a domain expert. One can use
separation characters (e.g. ':', '-', ';', ' ') or n-grams." The Thales
experiment splits part-numbers at non-alphabetical and non-numerical
characters. :class:`SeparatorSegmenter` and :class:`NGramSegmenter`
implement exactly those two strategies; :class:`TokenSegmenter` adds the
word-token variant used by the toponym example in the paper's §4.

The similarity and phonetic modules serve the downstream linking step and
the classic blocking baselines from the related-work section.
"""

from repro.text.normalize import normalize_value, strip_accents, NormalizationConfig
from repro.text.segmentation import (
    Segmenter,
    SeparatorSegmenter,
    NGramSegmenter,
    TokenSegmenter,
    CompositeSegmenter,
    segment_statistics,
    SegmentStatistics,
)
from repro.text.similarity import (
    levenshtein_distance,
    levenshtein_similarity,
    damerau_levenshtein_distance,
    jaro_similarity,
    jaro_winkler_similarity,
    jaccard_similarity,
    dice_similarity,
    qgram_profile,
    qgram_profile_normed,
    qgram_cosine_similarity,
    monge_elkan_similarity,
    TfIdfVectorizer,
    longest_common_subsequence,
    lcs_similarity,
    overlap_coefficient,
    smith_waterman_similarity,
)
from repro.text.phonetic import soundex, nysiis

__all__ = [
    "normalize_value",
    "strip_accents",
    "NormalizationConfig",
    "Segmenter",
    "SeparatorSegmenter",
    "NGramSegmenter",
    "TokenSegmenter",
    "CompositeSegmenter",
    "segment_statistics",
    "SegmentStatistics",
    "levenshtein_distance",
    "levenshtein_similarity",
    "damerau_levenshtein_distance",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "dice_similarity",
    "qgram_profile",
    "qgram_profile_normed",
    "qgram_cosine_similarity",
    "monge_elkan_similarity",
    "TfIdfVectorizer",
    "longest_common_subsequence",
    "lcs_similarity",
    "overlap_coefficient",
    "smith_waterman_similarity",
    "soundex",
    "nysiis",
]
