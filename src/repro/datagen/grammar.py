"""Per-class part-number grammars.

Every leaf class gets a :class:`LeafProfile` describing how its part
numbers are assembled:

* the paper's *indicative* leaves own dedicated **series codes**
  ("CRCW0805", "T83") — clean codes appear in no other class and become
  the confidence-1 rules; *leaky* codes occasionally stray into other
  classes' part numbers and land in the [0.8, 1) band;
* every leaf belongs to a **unit family** (``rank mod n_unit_families``)
  whose unit segments ("ohm", "uf", "63v") are shared across the
  family's leaves — the family's biggest class dominates, producing
  mid-confidence rules, while smaller family members yield the
  low-confidence tail;
* **value segments** (sizes, tolerances, ratings) are drawn either from
  the leaf family's slice of the pool (family-biased) or globally with a
  Zipf skew — frequent but unspecific;
* **serial segments** are near-unique per item — the noise that support
  thresholding exists to kill.

Class sizes follow a Zipf distribution over leaf *ranks* (rank 1 = the
biggest class); ranks are assigned to leaves by a seeded shuffle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.datagen import names
from repro.datagen.config import CatalogConfig
from repro.rdf.terms import IRI

#: Separators used when joining part-number segments (all are split
#: points for the paper's non-alphanumeric segmentation).
SEPARATORS = ("-", ".", "/", " ", "_")


@dataclass(frozen=True, slots=True)
class LeafProfile:
    """The generative profile of one leaf class."""

    iri: IRI
    rank: int
    series_codes: Tuple[str, ...]
    family: int
    units: Tuple[str, ...]

    @property
    def indicative(self) -> bool:
        """Whether this leaf owns dedicated series codes."""
        return bool(self.series_codes)


def zipf_counts(total: int, n_ranks: int, s: float, rng: random.Random) -> List[int]:
    """Split *total* items over *n_ranks* ranks by a Zipf(s) law.

    Largest-remainder rounding keeps the sum exact; every rank keeps at
    least 0 (small totals leave tail ranks empty).
    """
    weights = [1.0 / (k ** s) for k in range(1, n_ranks + 1)]
    norm = sum(weights)
    raw = [total * w / norm for w in weights]
    counts = [int(x) for x in raw]
    remainder = total - sum(counts)
    fractional = sorted(
        range(n_ranks), key=lambda k: raw[k] - counts[k], reverse=True
    )
    for k in fractional[:remainder]:
        counts[k] += 1
    return counts


def _family_units(family: int, rng: random.Random) -> Tuple[str, ...]:
    """Unit vocabulary of a family: curated for the first 12, synthesized
    (electronics-flavored suffix codes) beyond."""
    if family < len(names.FAMILY_UNITS):
        return names.FAMILY_UNITS[family]
    consonants = "bcdfgjklmnpqrstvwz"
    stem = consonants[family % len(consonants)]
    count = rng.randint(2, 4)
    return tuple(f"{stem}{family}{suffix}" for suffix in ("x", "r", "k", "t")[:count])


class PartNumberGrammar:
    """Builds leaf profiles and samples part numbers from them.

    When an ontology is supplied, unit families follow the hierarchy:
    leaves sharing a depth-``FAMILY_DEPTH`` ancestor share a unit pool,
    so mid-confidence rules' conclusions are hierarchy siblings and the
    generalization extension has meaningful least common subsumers.
    Without an ontology, families fall back to ``rank mod n``.

    >>> grammar = PartNumberGrammar(config, leaf_iris, ontology)
    >>> profile = grammar.profile_for_rank(1)
    >>> grammar.sample_part_number(profile, rng)
    'crcw0805-10k-4722'
    """

    #: Hierarchy depth whose subtrees define the unit families.
    FAMILY_DEPTH = 4

    def __init__(
        self,
        config: CatalogConfig,
        leaf_iris: Sequence[IRI],
        ontology=None,
    ) -> None:
        self._config = config
        rng = random.Random(config.seed + 202)

        # rank assignment: shuffle leaves, rank = position + 1
        shuffled = list(leaf_iris)
        rng.shuffle(shuffled)
        self._rank_of: Dict[IRI, int] = {
            iri: rank for rank, iri in enumerate(shuffled, start=1)
        }

        n_families = config.n_unit_families
        self._unit_pools: List[Tuple[str, ...]] = [
            _family_units(f, rng) for f in range(n_families)
        ]
        self._family_of: Dict[IRI, int] = self._assign_families(
            leaf_iris, ontology, n_families
        )

        # value pool: a family-specific slice plus a global remainder
        self._family_values: List[Tuple[str, ...]] = []
        pool = self._build_value_pool(config.value_pool)
        cursor = 0
        for _ in range(n_families):
            slice_ = tuple(pool[cursor:cursor + config.values_per_family])
            self._family_values.append(slice_)
            cursor += config.values_per_family
        self._global_values = pool[cursor:] or pool
        self._global_weights = [
            1.0 / (k ** config.value_zipf_s)
            for k in range(1, len(self._global_values) + 1)
        ]

        # serial pool
        self._serials = [str(1000 + i) for i in range(config.serial_pool)]

        # per-leaf profiles with rank-dependent code counts
        self._profiles: Dict[IRI, LeafProfile] = {}
        self._leaky_codes: List[str] = []
        used_codes: set[str] = set()
        low, high = config.codes_per_class
        for iri, rank in self._rank_of.items():
            family = self._family_of[iri]
            # the biggest classes carry no units: keeps family/unit rules
            # pointed at smaller classes, hence high mid-band lift
            if rank <= config.n_unitless_top:
                units: Tuple[str, ...] = ()
            else:
                units = self._unit_pools[family]
            codes: Tuple[str, ...] = ()
            if rank <= config.n_indicative_leaves:
                # bigger classes can sustain more codes above the support
                # threshold; interpolate max..min across the ranks
                span = max(1, config.n_indicative_leaves - 1)
                n_codes = round(high - (high - low) * (rank - 1) / span)
                pool_: List[str] = []
                while len(pool_) < n_codes:
                    prefix = rng.choice(names.SERIES_PREFIXES)
                    code = f"{prefix}{rng.randint(10, 9999)}".casefold()
                    if code not in used_codes:
                        used_codes.add(code)
                        pool_.append(code)
                        if rng.random() < config.p_leaky_code:
                            self._leaky_codes.append(code)
                codes = tuple(pool_)
            self._profiles[iri] = LeafProfile(
                iri=iri, rank=rank, series_codes=codes, family=family, units=units
            )

        self._by_rank: Dict[int, LeafProfile] = {
            p.rank: p for p in self._profiles.values()
        }

    def _assign_families(
        self, leaf_iris: Sequence[IRI], ontology, n_families: int
    ) -> Dict[IRI, int]:
        """Family per leaf: hierarchy subtree when possible, rank otherwise."""
        if ontology is None:
            return {
                iri: (self._rank_of[iri] - 1) % n_families for iri in leaf_iris
            }
        hierarchy = ontology.hierarchy
        anchor_index: Dict[IRI, int] = {}
        families: Dict[IRI, int] = {}
        for iri in leaf_iris:
            # the leaf's ancestor at FAMILY_DEPTH (or its deepest strict
            # ancestor when the taxonomy is shallower)
            ancestors = sorted(
                hierarchy.ancestors(iri),
                key=lambda a: (hierarchy.depth(a), a.value),
            )
            anchor = iri
            for candidate in ancestors:
                if hierarchy.depth(candidate) <= self.FAMILY_DEPTH:
                    anchor = candidate
            if anchor not in anchor_index:
                anchor_index[anchor] = len(anchor_index)
            families[iri] = anchor_index[anchor] % n_families
        return families

    @staticmethod
    def _build_value_pool(size: int) -> List[str]:
        """Realistic shared value segments: sizes, ratings, tolerances."""
        seeds = [
            "0805", "0603", "1206", "2512", "10k", "100", "220", "470",
            "1k", "4k7", "100n", "10u", "25v", "63v", "x7r", "npo",
            "50v", "2a", "3a3", "500mw",
        ]
        pool = list(seeds)
        i = 0
        while len(pool) < size:
            pool.append(f"v{i:03d}")
            i += 1
        return pool[:size]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def profiles(self) -> Dict[IRI, LeafProfile]:
        """Profile per leaf IRI."""
        return dict(self._profiles)

    def profile_of(self, leaf: IRI) -> LeafProfile:
        """Profile of a leaf class."""
        return self._profiles[leaf]

    def profile_for_rank(self, rank: int) -> LeafProfile:
        """Profile of the leaf holding Zipf rank *rank* (1-based)."""
        return self._by_rank[rank]

    def rank_of(self, leaf: IRI) -> int:
        """Zipf rank of a leaf class."""
        return self._rank_of[leaf]

    def class_sizes(self, total: int, rng: random.Random) -> Dict[IRI, int]:
        """Zipf split of *total* items over the leaves, by rank."""
        counts = zipf_counts(
            total, len(self._rank_of), self._config.class_zipf_s, rng
        )
        return {
            iri: counts[rank - 1] for iri, rank in self._rank_of.items()
        }

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_value_segment(self, profile: LeafProfile, rng: random.Random) -> str:
        """One shared value segment (family slice or global Zipf)."""
        config = self._config
        family_slice = self._family_values[profile.family % len(self._family_values)]
        if family_slice and rng.random() < config.p_value_family_bias:
            return rng.choice(family_slice)
        return rng.choices(self._global_values, weights=self._global_weights, k=1)[0]

    def sample_part_number(self, profile: LeafProfile, rng: random.Random) -> str:
        """One catalog part number for an item of *profile*'s class."""
        config = self._config
        segments: List[str] = []
        if profile.indicative and rng.random() < config.p_series:
            segments.append(rng.choice(profile.series_codes))
        elif self._leaky_codes and rng.random() < config.p_stray_code:
            # a stray series code from somebody else's (leaky) series
            segments.append(rng.choice(self._leaky_codes))
        if profile.units and rng.random() < config.p_unit:
            segments.append(rng.choice(profile.units))
        if rng.random() < config.p_value:
            segments.append(self.sample_value_segment(profile, rng))
        segments.append(rng.choice(self._serials))
        if rng.random() < config.p_second_serial:
            segments.append(rng.choice(self._serials))
        rng.shuffle(segments)
        separator = rng.choice(SEPARATORS)
        return separator.join(segments)
