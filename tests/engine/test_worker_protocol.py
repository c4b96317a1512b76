"""The shard work-unit protocol: envelopes, rejection, CLI, fallback.

Four layers:

* **envelope integrity** — a tampered body, a stale schema version, a
  foreign environment fingerprint or a wrong format tag is rejected
  with an actionable :class:`WorkUnitError` before any scan work;
* **store pinning** — a unit built against one local store refuses to
  fold against another (the remote-worker safety property), and the
  comparator's vocabulary pin must agree with its field spec;
* **the CLI worker** — ``repro worker run-unit`` reads one envelope on
  stdin and answers one on stdout (exit 2 + stderr on a bad unit);
* **transport degradation** — a subprocess that cannot be spawned, one
  killed for outliving ``WORKER_TIMEOUT_S``, and real children that exit
  non-zero, SIGKILL themselves or answer garbage each drop the job to
  the serial path via the engine's existing ``FALLBACK_ERRORS`` chain,
  byte-identically, with the reason in ``stats.fallback_reason``.
"""

import dataclasses
import hashlib
import io
import json
import sys

import pytest

from repro.cli import main
from repro.engine import JobConfig, LinkingJob
from repro.engine.executors import WorkerTransportError
from repro.engine.executors.protocol import (
    PROTOCOL_SCHEMA_VERSION,
    ShardWorkUnit,
    WorkUnitError,
    build_work_units,
    decode_work_unit,
    decode_worker_result,
    encode_work_unit,
    encode_worker_result,
    execute_work_unit,
    store_fingerprint,
    work_unit_from_payload,
    work_unit_to_payload,
    work_unit_unsupported_reason,
)
from repro.engine.shard import ShardPlan
from repro.linking import (
    FieldComparator,
    QGramBlocking,
    Record,
    RecordComparator,
    RecordStore,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.rdf import EX


def _store(prefix, values):
    return RecordStore(
        Record(id=EX[f"{prefix}{i}"], fields={"pn": (value,)})
        for i, value in enumerate(values)
    )


@pytest.fixture()
def workload():
    external = _store("e", ("crcw-10k", "crcw-22k", "t83-220", "abc-999"))
    local = _store("l", ("crcw-10k", "crcw-10r", "t83-220", "abc-998"))
    return external, local


def _units(external, local, shards=2, inline_local=True, blocking=None):
    return build_work_units(
        blocking or QGramBlocking("pn", q=2, threshold=0.6),
        RecordComparator([FieldComparator("pn")]),
        ThresholdMatcher(match_threshold=0.85),
        external,
        local,
        ShardPlan.build(shards),
        "pairwise",
        1024,
        inline_local=inline_local,
    )


class TestEnvelopeRejection:
    def test_corrupted_body_is_rejected(self, workload):
        payload = work_unit_to_payload(_units(*workload)[0])
        payload["body"]["shard"] = 1 - payload["body"]["shard"]
        with pytest.raises(WorkUnitError, match="checksum mismatch"):
            work_unit_from_payload(payload)

    def test_stale_schema_version_is_rejected(self, workload):
        payload = work_unit_to_payload(_units(*workload)[0])
        payload["schema_version"] = PROTOCOL_SCHEMA_VERSION + 1
        with pytest.raises(WorkUnitError, match="stale envelope"):
            work_unit_from_payload(payload)

    def test_foreign_fingerprint_is_rejected(self, workload):
        payload = work_unit_to_payload(_units(*workload)[0])
        payload["fingerprint"] = {"python": "2.7", "repro": "0.0.0"}
        with pytest.raises(WorkUnitError, match="fingerprint mismatch"):
            work_unit_from_payload(payload)

    def test_wrong_format_tag_is_rejected(self, workload):
        payload = work_unit_to_payload(_units(*workload)[0])
        payload["format"] = "repro-artifact-bundle"
        with pytest.raises(WorkUnitError, match="not a repro-shard-work-unit"):
            work_unit_from_payload(payload)

    def test_non_json_text_is_rejected(self):
        with pytest.raises(WorkUnitError, match="not valid JSON"):
            decode_work_unit("{truncated")

    def test_vocabulary_pin_mismatch_is_rejected(self, workload):
        unit = _units(*workload)[0]
        tampered = dataclasses.replace(unit, fields=("pn", "maker"))
        with pytest.raises(WorkUnitError, match="vocabulary pin mismatch"):
            work_unit_from_payload(work_unit_to_payload(tampered))


class TestStorePinning:
    def test_resident_store_fingerprint_must_match(self, workload):
        external, local = workload
        unit = _units(external, local, inline_local=False)[0]
        foreign = _store("l", ("entirely", "different", "catalog"))
        with pytest.raises(WorkUnitError, match="fingerprint mismatch"):
            execute_work_unit(unit, local=foreign)

    def test_unit_without_store_needs_a_resident_one(self, workload):
        unit = _units(*workload, inline_local=False)[0]
        with pytest.raises(WorkUnitError, match="no inline local store"):
            execute_work_unit(unit)

    def test_matching_resident_store_executes(self, workload):
        external, local = workload
        lean, fat = (
            _units(external, local, inline_local=False)[0],
            _units(external, local, inline_local=True)[0],
        )
        assert store_fingerprint(local) == lean.local_fingerprint
        resident = execute_work_unit(lean, local=local)
        inline = execute_work_unit(fat)
        assert resident == inline

    def test_unsupported_blocking_names_itself(self, workload):
        blocking = StandardBlocking(lambda record: record.value("pn"))
        reason = work_unit_unsupported_reason(
            blocking,
            RecordComparator([FieldComparator("pn")]),
            ThresholdMatcher(match_threshold=0.85),
        )
        assert reason is not None and "StandardBlocking" in reason


class TestWorkerCLI:
    def _run_cli(self, monkeypatch, capsys, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(["worker", "run-unit"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_run_unit_round_trips(self, monkeypatch, capsys, workload):
        external, local = workload
        unit = _units(external, local)[0]
        code, out, err = self._run_cli(monkeypatch, capsys, encode_work_unit(unit))
        assert code == 0 and not err
        outcome = decode_worker_result(out)
        assert outcome == execute_work_unit(unit)

    def test_run_unit_rejects_corrupt_input(self, monkeypatch, capsys, workload):
        text = encode_work_unit(_units(*workload)[0])
        payload = json.loads(text)
        payload["checksum"] = "0" * 64
        code, out, err = self._run_cli(monkeypatch, capsys, json.dumps(payload))
        assert code == 2 and not out
        assert "checksum mismatch" in err

    def test_run_unit_rejects_a_v1_unit_as_stale(self, monkeypatch, capsys, workload):
        """Version 1 blocking specs carried an index/scan toggle. A
        well-formed v1 unit is refused on its version, before any spec
        is read, so the worker never fails with a ``KeyError``."""
        assert PROTOCOL_SCHEMA_VERSION == 2
        payload = json.loads(encode_work_unit(_units(*workload)[0]))
        body = payload["body"]
        body["blocking"]["use_index"] = True
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        payload["schema_version"] = 1
        payload["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        code, out, err = self._run_cli(monkeypatch, capsys, json.dumps(payload))
        assert code == 2 and not out
        assert "stale envelope: schema version 1" in err
        assert "KeyError" not in err

    def test_result_envelope_shares_the_integrity_checks(self, workload):
        external, local = workload
        outcome = execute_work_unit(_units(external, local)[0])
        payload = json.loads(encode_worker_result(outcome))
        payload["body"]["compared"] = 10_000
        with pytest.raises(WorkUnitError, match="checksum mismatch"):
            decode_worker_result(json.dumps(payload))


@pytest.fixture()
def hung_worker(monkeypatch):
    """Worker subprocesses that sleep far past a half-second timeout."""
    import repro.engine.executors.worker as worker_module

    monkeypatch.setattr(
        worker_module,
        "_worker_command",
        lambda: [sys.executable, "-c", "import time; time.sleep(60)"],
    )
    monkeypatch.setattr(worker_module, "WORKER_TIMEOUT_S", 0.5)
    return worker_module


# Real child processes that read their unit from stdin, then fail:
# (script, the reason the job must record when it falls back to serial)
FAILING_WORKERS = {
    "nonzero-exit": (
        "import sys; sys.stdin.read(); "
        "sys.stderr.write('starting\\nunit rejected\\n'); sys.exit(3)",
        "worker subprocess exited 3: unit rejected",
    ),
    "sigkill": (
        "import os, signal, sys; sys.stdin.read(); os.kill(os.getpid(), signal.SIGKILL)",
        "worker subprocess exited -9",
    ),
    "garbage-stdout": (
        "import sys; sys.stdin.read(); sys.stdout.write('not an envelope')",
        "shard 0 returned an invalid result",
    ),
}


@pytest.fixture(params=sorted(FAILING_WORKERS))
def failing_worker(request, monkeypatch):
    """Worker subprocesses that fail one way each; returns the expected reason."""
    import repro.engine.executors.worker as worker_module

    script, reason = FAILING_WORKERS[request.param]
    monkeypatch.setattr(
        worker_module, "_worker_command", lambda: [sys.executable, "-c", script]
    )
    return reason


class TestTransportDegradation:
    def _serial_and_worker(self, external, local):
        comparator = RecordComparator([FieldComparator("pn")])
        matcher = ThresholdMatcher(match_threshold=0.85)
        return [
            LinkingJob(
                QGramBlocking("pn", q=2, threshold=0.6), comparator, matcher, config
            ).run(external, local)
            for config in (
                JobConfig(executor="serial"),
                JobConfig(executor="worker", workers=2, shards=2),
            )
        ]

    def test_broken_subprocess_falls_back_to_serial(
        self, monkeypatch, workload
    ):
        import repro.engine.executors.worker as worker_module

        def explode(text):
            raise WorkerTransportError("worker subprocess exited with code 127")

        monkeypatch.setattr(worker_module, "run_unit_subprocess", explode)
        serial, degraded = self._serial_and_worker(*workload)
        assert degraded.matches == serial.matches
        assert degraded.compared == serial.compared
        assert degraded.stats.executor == "serial"
        assert "WorkerTransportError" in degraded.stats.fallback_reason
        assert degraded.stats.work_units == 0

    def test_hung_subprocess_raises_a_named_timeout(self, hung_worker, workload):
        text = encode_work_unit(_units(*workload)[0])
        with pytest.raises(WorkerTransportError, match="timed out after 0.5 s"):
            hung_worker.run_unit_subprocess(text)

    def test_hung_subprocess_falls_back_to_serial(self, hung_worker, workload):
        serial, degraded = self._serial_and_worker(*workload)
        assert degraded.matches == serial.matches
        assert degraded.stats.executor == "serial"
        assert "timed out after 0.5 s" in degraded.stats.fallback_reason
        assert degraded.stats.work_units == 0

    def test_failing_subprocess_falls_back_to_serial(self, failing_worker, workload):
        serial, degraded = self._serial_and_worker(*workload)
        assert degraded.matches == serial.matches
        assert degraded.compared == serial.compared
        assert degraded.stats.executor == "serial"
        assert degraded.stats.fallback_reason.startswith(
            f"WorkerTransportError: {failing_worker}"
        )
        assert degraded.stats.work_units == 0
