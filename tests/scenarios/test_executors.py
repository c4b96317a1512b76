"""Executor invariance over the scenario matrix.

The engine's contract: the serial, process and shard executors produce
byte-identical ``LinkingResult``s (the ``worker`` leg lives in
``test_worker_executor.py``). The engine unit tests pin
this on synthetic workloads; here it is pinned on real registered
scenarios — a key-blocked one, a rule-driven one (whose blocking shards
on the external id) and a q-gram one (whose blocking shards on each
pair's first shared sub-list key) — by comparing full deterministic snapshots
(which embed the match digest) against the serial leg. A stats-level
layer additionally pins that no registered blocking method degrades
out of the shard executor on scenario workloads.
"""

import pytest

from repro.engine import JobConfig, LinkingJob
from repro.linking import CanopyBlocking, SortedNeighbourhood
from repro.scenarios import get_scenario, run_scenario

#: One key-blocked, one rule-blocked and one q-gram scenario keep the
#: matrix representative without paying three executors times ten
#: workloads.
SCENARIOS = (
    "electronics-tiny-prefix",
    "electronics-deep-rules",
    "electronics-harsh-feed",
)

EXECUTORS = ("process", "shard")


def _config(executor, scoring="pairwise"):
    return JobConfig(executor=executor, workers=2, chunk_size=128, scoring=scoring)


@pytest.fixture(scope="module")
def serial_reports():
    return {
        name: run_scenario(name, job_config=_config("serial"), streaming=False)
        for name in SCENARIOS
    }


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_executors_are_byte_identical_on_scenarios(name, executor, serial_reports):
    report = run_scenario(name, job_config=_config(executor), streaming=False)
    serial = serial_reports[name]
    assert report.match_digest == serial.match_digest
    assert report.snapshot() == serial.snapshot()


@pytest.mark.parametrize("name", SCENARIOS)
def test_shard_streaming_leg_matches_batch(name):
    """The streaming identity check holds under the shard executor too
    (the runner asserts batch == streamed inside the report)."""
    report = run_scenario(name, job_config=_config("shard"))
    assert report.streaming_identical


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("executor", ("serial",) + EXECUTORS)
def test_batched_scoring_is_byte_identical_on_scenarios(
    name, executor, serial_reports
):
    """The scoring dimension composes with the executor dimension: every
    executor's batched leg reproduces the serial pairwise snapshot."""
    report = run_scenario(
        name, job_config=_config(executor, scoring="batched"), streaming=False
    )
    serial = serial_reports[name]
    assert report.match_digest == serial.match_digest
    assert report.snapshot() == serial.snapshot()


def _run_built(built, blocking, executor):
    return LinkingJob(
        blocking, built.comparator, built.matcher, _config(executor)
    ).run(built.external, built.local)


def _assert_shards_cleanly(built, make_blocking):
    serial = _run_built(built, make_blocking(), "serial")
    sharded = _run_built(built, make_blocking(), "shard")
    assert sharded.stats.executor == "shard"
    assert sharded.stats.fallback_reason is None
    assert sharded.stats.shard_count == 2
    assert sharded.matches == serial.matches
    assert sharded.possible == serial.possible
    assert sharded.candidate_pairs == serial.candidate_pairs
    assert sharded.compared == serial.compared


@pytest.mark.parametrize(
    "name", ("electronics-harsh-feed", "toponyms-ambiguous")
)
def test_qgram_scenarios_shard_without_degrading(name):
    """Both registered q-gram scenarios run the shard executor for real
    — no degradation — and match the serial leg byte-for-byte."""
    spec = get_scenario(name)
    built = spec.build()
    _assert_shards_cleanly(built, built.make_blocking)


@pytest.mark.parametrize(
    "make_blocking",
    (
        lambda field: SortedNeighbourhood.on_field(field, window_size=5),
        lambda field: CanopyBlocking(field, loose=0.4, tight=0.9),
    ),
    ids=("sorted-neighbourhood", "canopy"),
)
def test_window_and_canopy_shard_on_scenario_workloads(make_blocking):
    """Sorted-neighbourhood and canopy blocking — not used by any
    registered scenario's default blocking — shard cleanly on a real
    scenario workload too, not just on synthetic stores."""
    built = get_scenario("electronics-harsh-feed").build()
    _assert_shards_cleanly(built, lambda: make_blocking("pn"))
