"""Scenario-level differential: pairwise scoring across all ten scenarios.

Scenarios run on the engine default, batched scoring, so the memoized
``scenario_report`` fixture holds batched reports (which the golden
snapshots under ``tests/scenarios`` pin). Each registered scenario is
also run end-to-end with ``scoring="pairwise"`` (batch leg plus
streaming leg) and its full snapshot — counts, quality metrics, the
SHA-256 match digest — is compared field-for-field against the batched
report. This is the flagship byte-identity proof: if the columnar
arithmetic diverged anywhere, on any scenario's record mix (multi-valued
fields, mixed schemas, harsh noisy feeds, learned Fellegi-Sunter
deciders), the digests would split.
"""

from dataclasses import replace

import pytest

from repro.scenarios import DEFAULT_SCENARIO_CONFIG, run_scenario, scenario_names

PAIRWISE_CONFIG = replace(DEFAULT_SCENARIO_CONFIG, scoring="pairwise")


@pytest.mark.parametrize("name", scenario_names())
def test_batched_scenario_snapshot_identical_to_pairwise(name, scenario_report):
    assert DEFAULT_SCENARIO_CONFIG.scoring == "batched"
    batched = scenario_report(name)
    pairwise = run_scenario(name, job_config=PAIRWISE_CONFIG, streaming=True)
    # streaming_identical is computed inside each leg itself: the
    # streamed result matched the batch result on both scoring paths
    assert batched.streaming_identical
    assert pairwise.streaming_identical
    assert batched.match_digest == pairwise.match_digest
    assert batched.snapshot() == pairwise.snapshot()
