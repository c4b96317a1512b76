"""Scenario specifications: what a named workload is made of.

A *scenario* is a fully seeded, end-to-end linking workload: generated
source/target stores, ground truth, a linking configuration (blocking,
comparison, matching) and an **expected-metrics envelope** the run must
land inside. Scenarios are the unit of regression testing (golden
snapshots) and CLI exploration (``repro scenarios run``).

The spec layer is deliberately thin: a :class:`ScenarioSpec` names and
describes the workload and knows how to :meth:`~ScenarioSpec.build` it;
the built artifacts live in :class:`BuiltScenario`; the envelope is a
:class:`MetricsEnvelope` of lower bounds. The library of concrete
scenarios lives in :mod:`repro.scenarios.library`, the execution logic
in :mod:`repro.scenarios.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.learner import LearnerConfig
from repro.core.rules import RuleSet
from repro.core.training import TrainingSet
from repro.linking.blocking import BlockingMethod
from repro.linking.comparators import RecordComparator
from repro.linking.records import RecordStore
from repro.ontology.model import Ontology
from repro.rdf.graph import Graph
from repro.rdf.terms import Term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.job import Decider

Pair = Tuple[Term, Term]


@dataclass(frozen=True, slots=True)
class MetricsEnvelope:
    """Lower bounds a scenario run must satisfy.

    Bounds are inclusive and default to 0 (no constraint). They are set
    a safety margin *below* the measured values of the pinned seeds, so
    they catch regressions — a rule change that tanks recall, a blocking
    change that stops covering true matches — without flaking on the
    honest noise of a reseeded generator.
    """

    min_precision: float = 0.0
    min_recall: float = 0.0
    min_pairs_completeness: float = 0.0
    min_reduction_ratio: float = 0.0
    min_rules: int = 0

    def violations(
        self,
        precision: float,
        recall: float,
        pairs_completeness: float,
        reduction_ratio: float,
        rules: int,
    ) -> List[str]:
        """Human-readable list of violated bounds (empty = inside)."""
        out: List[str] = []
        checks = (
            ("precision", precision, self.min_precision),
            ("recall", recall, self.min_recall),
            ("pairs_completeness", pairs_completeness, self.min_pairs_completeness),
            ("reduction_ratio", reduction_ratio, self.min_reduction_ratio),
            ("rules", float(rules), float(self.min_rules)),
        )
        for name, actual, bound in checks:
            if actual < bound:
                out.append(f"{name} {actual:.4f} < required {bound:.4f}")
        return out


@dataclass
class BuiltScenario:
    """Everything a scenario run needs, fully materialized.

    ``make_blocking`` returns a **fresh** blocking method per call —
    blocking objects carry per-run stats, and the batch and streaming
    legs of a run must not share one.

    Rule-driven scenarios additionally carry the training material for
    the streaming leg: ``learner_config`` + ``training_set`` feed an
    :class:`~repro.core.incremental.IncrementalRuleLearner` and
    ``blocking_factory`` re-materializes blocking from re-emitted rules.
    """

    external: RecordStore
    local: RecordStore
    external_graph: Graph
    truth: List[Pair]
    comparator: RecordComparator
    matcher: "Decider"
    make_blocking: Callable[[], BlockingMethod]
    rules: Optional[RuleSet] = None
    learner_config: Optional[LearnerConfig] = None
    training_set: Optional[TrainingSet] = None
    ontology: Optional[Ontology] = None
    blocking_factory: Optional[Callable[[RuleSet], BlockingMethod]] = None

    @property
    def incremental(self) -> bool:
        """Whether the streaming leg drives an incremental learner."""
        return (
            self.learner_config is not None
            and self.training_set is not None
            and self.blocking_factory is not None
            and self.ontology is not None
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, seeded, reproducible linking workload.

    * ``name`` — registry key (kebab-case);
    * ``domain`` — ``electronics`` or ``toponyms``;
    * ``tags`` — the matrix axes the scenario exercises
      (``size:tiny``, ``corruption:harsh``, ``hierarchy:deep``, ...);
    * ``build`` — materializes the workload (seeded, deterministic);
    * ``envelope`` — expected-metrics lower bounds;
    * ``deltas`` — how many record deltas the streaming leg splits the
      external store into;
    * ``link_batches`` — how many training deltas feed the incremental
      learner (rule-driven scenarios).
    """

    name: str
    description: str
    domain: str
    tags: Tuple[str, ...]
    build: Callable[[], BuiltScenario]
    envelope: MetricsEnvelope = field(default_factory=MetricsEnvelope)
    deltas: int = 4
    link_batches: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.deltas < 1:
            raise ValueError(f"deltas must be >= 1, got {self.deltas}")
        if self.link_batches < 1:
            raise ValueError(
                f"link_batches must be >= 1, got {self.link_batches}"
            )
