"""Value normalization applied before segmentation and comparison.

Part-numbers arrive from providers with inconsistent case, stray accents
(manufacturer names) and decorative whitespace. Normalization is kept
configurable because the paper's expert controls the pre-processing: the
default folds case and collapses whitespace but preserves the separator
characters the segmenter needs.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass


def strip_accents(text: str) -> str:
    """Remove combining marks: ``"Saïs"`` -> ``"Sais"``."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


_WHITESPACE_RE = re.compile(r"\s+")


@dataclass(frozen=True, slots=True)
class NormalizationConfig:
    """Switches for :func:`normalize_value`.

    The defaults match the reproduction's Thales-like pipeline: case-fold,
    de-accent, collapse runs of whitespace, trim. Punctuation is *kept* —
    it carries the segment boundaries.
    """

    casefold: bool = True
    remove_accents: bool = True
    collapse_whitespace: bool = True
    strip: bool = True


DEFAULT_NORMALIZATION = NormalizationConfig()


def normalize_value(text: str, config: NormalizationConfig = DEFAULT_NORMALIZATION) -> str:
    """Normalize a property value according to *config*.

    >>> normalize_value("  CRCW0805\\t10K ")
    'crcw0805 10k'
    """
    result = text
    # NFKD leaves ASCII unchanged and no ASCII character is combining
    if config.remove_accents and not result.isascii():
        result = strip_accents(result)
    if config.casefold:
        result = result.casefold()
    if config.collapse_whitespace:
        result = _WHITESPACE_RE.sub(" ", result)
    if config.strip:
        result = result.strip()
    return result
