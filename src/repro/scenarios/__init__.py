"""``repro.scenarios`` — the scenario workload matrix.

A registry of named, seeded, end-to-end linking scenarios generated
from :mod:`repro.datagen`: size tiers × corruption profiles × schema
heterogeneity × class-hierarchy depth × multi-valued properties, plus
the toponym second domain. Each scenario yields source/target record
stores, ground-truth links and an expected-metrics envelope; the runner
executes it through both engine modes — one batch
:class:`~repro.engine.LinkingJob` and a delta-fed
:class:`~repro.engine.StreamingLinkingJob` — and asserts the outcomes
are byte-identical.

Consumers:

* ``tests/scenarios/`` — golden-snapshot regression layer
  (``--snapshot-update`` regenerates);
* ``tests/engine/`` — the batched-scoring differential layer;
* ``repro scenarios list|run`` — the CLI surface.

Importing this package populates the registry (the library module
registers its matrix at import time).
"""

from repro.scenarios.registry import (
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.spec import BuiltScenario, MetricsEnvelope, ScenarioSpec
from repro.scenarios.runner import (
    DEFAULT_SCENARIO_CONFIG,
    ScenarioReport,
    run_all,
    run_scenario,
)
from repro.scenarios import library as _library  # noqa: F401  (registers the matrix)

__all__ = [
    "BuiltScenario",
    "DEFAULT_SCENARIO_CONFIG",
    "MetricsEnvelope",
    "ScenarioReport",
    "ScenarioSpec",
    "UnknownScenarioError",
    "all_scenarios",
    "get_scenario",
    "register",
    "run_all",
    "run_scenario",
    "scenario_names",
]
