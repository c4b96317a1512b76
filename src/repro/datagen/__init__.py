"""Synthetic Thales-like electronic-product catalog generation.

The paper's evaluation data is proprietary (Thales Corporate Service's
catalog: millions of instances, a domain ontology of 566 classes with 226
leaves, and 10 265 expert reconciliations). This package simulates it:

* :func:`generate_hierarchy` / :func:`generate_product_ontology` — a
  product ontology with *exactly* the paper's class counts;
* :class:`PartNumberGrammar` — per-class part-number grammars mixing
  class-indicative series codes ("CRCW0805", "T83"), family unit segments
  ("ohm", "uf", "63v"), shared value segments and per-item serials, at
  calibrated proportions (see :class:`CatalogConfig`);
* :class:`Corruptor` — provider-side noise (case, separators, typos,
  dropped/added segments);
* :class:`ElectronicCatalogGenerator` — the whole package: catalog
  (``S_L``), provider records (``S_E``), expert links (``TS``) and ground
  truth, fully seeded and reproducible.

What the substitution preserves: the learner only sees (value, class)
co-occurrence statistics. The generator's knobs control exactly the
distributions that drive Table 1 — how many classes have dedicated
segments (→ confidence-1 rules), how unit segments are shared inside
product families (→ mid-confidence rules), how heavy the serial/value
noise is (→ support filtering).
"""

from repro.datagen.config import CatalogConfig
from repro.datagen.ontology_gen import generate_hierarchy, generate_product_ontology
from repro.datagen.grammar import PartNumberGrammar, LeafProfile
from repro.datagen.corruption import Corruptor, CorruptionConfig
from repro.datagen.catalog import ElectronicCatalogGenerator, GeneratedCatalog

__all__ = [
    "CatalogConfig",
    "generate_hierarchy",
    "generate_product_ontology",
    "PartNumberGrammar",
    "LeafProfile",
    "Corruptor",
    "CorruptionConfig",
    "ElectronicCatalogGenerator",
    "GeneratedCatalog",
]
