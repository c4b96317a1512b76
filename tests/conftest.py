"""Shared fixture: a tiny electronics catalog with hand-checkable counts.

10 training links; with ``th=0.1`` (strict) the count threshold is 2.

Segments (premise counts): ohm=4, uf=3, t83=2, everything else 1.
Classes (conclusion counts): Resistor=4, Capacitor=5, Diode=1.
Expected rules:

* ``uf  ⇒ Capacitor``  both=3 premise=3  -> conf=1.0,  lift=2.0
* ``t83 ⇒ Capacitor``  both=2 premise=2  -> conf=1.0,  lift=2.0
* ``ohm ⇒ Resistor``   both=3 premise=4  -> conf=0.75, lift=1.875
"""

import os

import pytest
from hypothesis import settings as hypothesis_settings

from repro.core import SameAsLink, TrainingSet

# CI runs the property suites under a pinned, reproducible profile
# (HYPOTHESIS_PROFILE=ci): derandomized so a red build is re-runnable,
# no deadline so shared-runner jitter cannot flake an example.
# Hypothesis does not read the variable itself, so it is loaded here.
hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
from repro.ontology import Ontology
from repro.rdf import EX, Graph, Literal, Triple


@pytest.fixture(scope="session")
def scenario_report():
    """Memoized ``name -> ScenarioReport`` runner (default legs: batched
    scoring).

    Scenario runs are the expensive part (generation + two engine legs),
    so reports are computed once per session and shared between the
    golden-snapshot layer (``tests/scenarios``) and the scoring
    differential layer (``tests/engine``).
    """
    from repro.scenarios import run_scenario

    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run_scenario(name)
        return cache[name]

    return get


LINK_DATA = [
    # (external id, part number, local id, local class)
    ("e1", "ohm-100", "l1", "Resistor"),
    ("e2", "ohm-200", "l2", "Resistor"),
    ("e3", "ohm-300", "l3", "Resistor"),
    ("e4", "uf-10", "l4", "Capacitor"),
    ("e5", "uf-20", "l5", "Capacitor"),
    ("e6", "uf-ohm", "l6", "Capacitor"),
    ("e7", "t83-1", "l7", "Capacitor"),
    ("e8", "t83-2", "l8", "Capacitor"),
    ("e9", "xyz", "l9", "Resistor"),
    ("e10", "zzz", "l10", "Diode"),
]


@pytest.fixture
def tiny_ontology():
    onto = Ontology(name="tiny-electronics")
    onto.add_subclass(EX.Resistor, EX.Component)
    onto.add_subclass(EX.Capacitor, EX.Component)
    onto.add_subclass(EX.Diode, EX.Component)
    for _, _, local_id, class_name in LINK_DATA:
        onto.add_instance(EX[local_id], EX[class_name])
    return onto


@pytest.fixture
def external_graph():
    graph = Graph(identifier="external")
    for external_id, part_number, _, _ in LINK_DATA:
        graph.add(Triple(EX[external_id], EX.partNumber, Literal(part_number)))
    return graph


@pytest.fixture
def tiny_training_set(tiny_ontology, external_graph):
    links = [
        SameAsLink(external=EX[e], local=EX[l]) for e, _, l, _ in LINK_DATA
    ]
    return TrainingSet(links, external=external_graph, ontology=tiny_ontology)
