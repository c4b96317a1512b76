"""Configuration of the synthetic catalog generator.

The defaults are calibrated (analytically, then empirically) so that
the Thales-scale preset lands in the paper's ballpark: ~7.8k distinct
segments / ~26k occurrences over TS, ~68 frequent classes, ~144 rules
at ``th = 0.002``, with the Table 1 shape. ``repro stats`` and
``repro table1`` print the result next to the paper's numbers, and
``tests/experiments/test_paper_scale.py`` pins it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class ConfigError(ValueError):
    """Raised for inconsistent generator configurations."""


@dataclass(frozen=True, slots=True)
class CatalogConfig:
    """Knobs of the synthetic catalog.

    Structure:

    * ``n_classes`` / ``n_leaves`` — ontology size (paper: 566 / 226);
    * ``n_links`` — |TS|, expert reconciliations (paper: 10 265);
    * ``catalog_size`` — |S_L|; the paper's catalog has millions of
      instances, the default keeps laptop benches snappy while leaving
      the TS a strict subset;
    * ``class_zipf_s`` — skew of the class-size distribution; 1.1 yields
      ~68 classes with more than 20 TS instances;

    Segment mix (per part number):

    * ``n_indicative_leaves`` — leaves owning dedicated series codes
      (paper found interesting segments for 16 classes);
    * ``codes_per_class`` — (min, max) dedicated codes per such leaf
      (bigger classes get the max, smaller ones the min);
    * ``p_series`` — probability an item of an indicative leaf carries
      one of its series codes;
    * ``p_leaky_code`` / ``p_stray_code`` — a leaky code occasionally
      strays into other classes' part numbers, moving its rule from the
      confidence-1 band into [0.8, 1) — the generator's source of
      high-but-imperfect rules;
    * ``n_unit_families`` — unit-vocabulary families; leaves join family
      ``rank mod n``, so each family is dominated by its biggest member
      (mid-confidence rules);
    * ``n_unitless_top`` — the biggest classes carry no unit segments,
      keeping the mid-band rules pointed at smaller classes (the paper's
      average lift exceeds 20 in *every* confidence band);
    * ``p_unit`` — probability of a family unit segment;
    * ``p_value`` / ``p_value_family_bias`` — probability of a shared
      value segment, and how often it is drawn from the leaf family's
      slice of the pool rather than globally (low-confidence rules);
    * ``value_pool`` / ``values_per_family`` / ``value_zipf_s`` —
      shared-value vocabulary shape;
    * ``serial_pool`` — serial vocabulary size (drives the distinct-
      segment count); a second serial appears with ``p_second_serial``.
    """

    # structure
    n_classes: int = 566
    n_leaves: int = 226
    n_links: int = 10265
    catalog_size: int = 25000
    class_zipf_s: float = 1.1
    # segment mix (defaults calibrated against the paper's §5 statistics,
    # which tests/experiments/test_paper_scale.py pins)
    n_indicative_leaves: int = 18
    codes_per_class: tuple[int, int] = (2, 7)
    p_series: float = 0.60
    p_leaky_code: float = 0.22
    p_stray_code: float = 0.025
    n_unit_families: int = 16
    n_unitless_top: int = 4
    p_unit: float = 0.42
    p_value: float = 0.50
    p_value_family_bias: float = 0.35
    value_pool: int = 800
    values_per_family: int = 6
    value_zipf_s: float = 1.6
    serial_pool: int = 8000
    p_second_serial: float = 0.35
    # misc
    seed: int = 20120326  # the workshop date

    def __post_init__(self) -> None:
        if self.n_leaves >= self.n_classes:
            raise ConfigError("n_leaves must be smaller than n_classes")
        if self.n_leaves < 1 or self.n_classes < 2:
            raise ConfigError("need at least 2 classes and 1 leaf")
        if self.catalog_size < self.n_links:
            raise ConfigError("catalog must be at least as large as |TS|")
        if self.n_indicative_leaves > self.n_leaves:
            raise ConfigError("cannot have more indicative leaves than leaves")
        low, high = self.codes_per_class
        if not 1 <= low <= high:
            raise ConfigError("codes_per_class must satisfy 1 <= min <= max")
        for name in (
            "p_series",
            "p_leaky_code",
            "p_stray_code",
            "p_unit",
            "p_value",
            "p_value_family_bias",
            "p_second_serial",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")
        if self.n_unit_families < 1 or self.values_per_family < 0:
            raise ConfigError("family parameters must be positive")
        if self.class_zipf_s < 0 or self.value_zipf_s < 0:
            raise ConfigError("zipf exponents must be non-negative")
        if self.value_pool < 1 or self.serial_pool < 1:
            raise ConfigError("pools must be positive")

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def thales_like(cls, seed: int = 20120326) -> "CatalogConfig":
        """The paper-scale preset (566 classes, |TS| = 10 265)."""
        return cls(seed=seed)

    @classmethod
    def small(cls, seed: int = 7) -> "CatalogConfig":
        """A fast preset for tests and examples (~1k links)."""
        return cls(
            n_classes=60,
            n_leaves=24,
            n_links=1000,
            catalog_size=2500,
            n_indicative_leaves=6,
            value_pool=120,
            serial_pool=900,
            seed=seed,
        )

    @classmethod
    def tiny(cls, seed: int = 7) -> "CatalogConfig":
        """A minimal preset for unit tests (~200 links)."""
        return cls(
            n_classes=16,
            n_leaves=8,
            n_links=200,
            catalog_size=400,
            n_indicative_leaves=3,
            value_pool=40,
            serial_pool=150,
            seed=seed,
        )

    def with_links(self, n_links: int, catalog_size: int | None = None) -> "CatalogConfig":
        """Copy with a different |TS| (scaling sweeps)."""
        return replace(
            self,
            n_links=n_links,
            catalog_size=max(catalog_size or self.catalog_size, n_links),
        )

    def with_seed(self, seed: int) -> "CatalogConfig":
        """Copy with a different random seed."""
        return replace(self, seed=seed)
