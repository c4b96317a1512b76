"""``serve-mixed``: a child daemon under mixed /link and /delta traffic.

The bundle (small preset, prefix blocking, 80 warm items) is fixed; the
seed draws a 1 400-record provider pool and 64 batches of 40 from it.
Traffic is 3 ``/link`` : 1 ``/delta``, each client feeding private
streams of eight deltas. Phase 1 is a closed loop of two clients
(capacity); phase 2 an open loop at a fixed 40 req/s from two sender
threads, every request timed from the moment it was *due*, so a stall
is charged to the requests it delays. Requests go through the repo's own client helper,
one connection per request, as a user of ``request_json`` would send
them.

Every ``/link`` answer is compared with the in-process serial answer
computed in set-up; every stream's last cumulative answer with one
batch job over the records the stream was sent.
"""

from __future__ import annotations

import json
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from harness.core import (
    Outcome,
    Tracer,
    Workload,
    child_env,
    digest,
    median,
    now,
    percentile,
    pin,
    scratch_dir,
)
from harness.spec import DEFAULT_SEED

CLIENTS = 2
OPEN_RATE = 40.0  # req/s, phase 2
CLOSED_SHARE = 0.375  # of the run's seconds; the rest is the open loop
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 10.0
STOP_TIMEOUT_S = 5.0
REPLAY_BATCHES = 16
STREAM_DELTAS = 8  # deltas a client sends into one stream before the next
PROBE_LOAD_S = {False: 6.0, True: 0.4}  # the traced run's short load phase
WINDOWS = 3  # per phase; see ``ServeMixed.native``
SIZES = {
    False: {"preset": "small", "warm": 80, "pool": 1_400, "batches": 64, "batch": 40},
    True: {"preset": "tiny", "warm": 10, "pool": 100, "batches": 8, "batch": 10},
}
_IDENTITY = ("matches", "compared", "sameas_ntriples")


class ServeMixed(Workload):
    name = "serve-mixed"
    rss_from_children = True
    cpu = 0  # the generator; the daemon gets the last CPU to itself
    daemon: Optional[subprocess.Popen] = None
    directory = None

    # ------------------------------------------------------------------
    # set-up: bundle, batches, in-process reference, daemon
    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.datagen.catalog import ElectronicCatalogGenerator
        from repro.datagen.config import CatalogConfig
        from repro.experiments.throughput import provider_batch
        from repro.index.artifacts import load_bundle, record_store_to_payload
        from repro.linking import RecordStore
        from repro.linking.evaluation import evaluate_matching
        from repro.serve import LinkSession, build_bundle
        from repro.serve.daemon import link_response
        from repro.serve.selftest import response_identity

        size = SIZES[self.quick]
        self.directory = scratch_dir("bundle")
        manifest = self.timed(
            "serve.bundle_build_s",
            lambda: build_bundle(
                self.directory / "bundle",
                preset=size["preset"],
                blocking="prefix",
                warm_items=size["warm"],
            ),
        )
        self.layer["index.bundle_bytes"] = sum(
            entry["bytes"] for entry in manifest["components"].values()
        )
        self.bundle = self.timed(
            "index.bundle_load_s", lambda: load_bundle(self.directory / "bundle")
        )
        self.session = LinkSession(self.bundle)

        # the bundle's catalog, regenerated: the provider pool needs its
        # items, and the builder does not hand them out
        config = CatalogConfig.tiny() if self.quick else CatalogConfig.small()
        catalog = self.timed(
            "datagen.generate_s", lambda: ElectronicCatalogGenerator(config).generate()
        )
        self.layer["rdf.graph_triples"] = len(catalog.local_graph)
        graph, truth = self.timed(
            "datagen.provider_batch_s",
            lambda: provider_batch(catalog, size["pool"], seed=self.seed),
        )
        pool = list(self.session.external_store(graph))
        rng = random.Random(self.seed)
        self.payloads, self.bodies, self.reference, declared = [], [], [], []
        for _ in range(size["batches"]):
            store = RecordStore(rng.sample(pool, size["batch"]))
            payload = record_store_to_payload(store)
            self.payloads.append(payload)
            self.bodies.append(json.dumps(payload).encode("utf-8"))
            result = self.session.link(store)
            self.reference.append(response_identity(link_response(result)))
            declared += result.match_pairs
        self.reference_digest = digest(self.reference)
        self.quality = evaluate_matching(declared, truth).f1
        self._start_daemon()

    def _start_daemon(self) -> None:
        """The daemon as a user starts it: default flags, port 0, the
        bound port read from the announce line."""
        started = now()
        self.daemon = subprocess.Popen(
            [
                *(sys.executable, "-m", "repro", "serve"),
                *("--bundle", str(self.directory / "bundle"), "--port", "0"),
            ],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        pin(self.daemon.pid, -1)
        ready, _, _ = select.select([self.daemon.stdout], [], [], READY_TIMEOUT_S)
        line = self.daemon.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("daemon did not announce its port")
        announce = json.loads(line)
        self.host, self.port = announce["host"], int(announce["port"])
        self.layer["serve.daemon_ready_s"] = now() - started
        self.sequence = 0
        self.streams: List[Dict[str, Any]] = []

    def teardown(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            daemon.terminate()
            try:
                daemon.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None
        self.session = self.bundle = None

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _post(self, path: str, body: bytes) -> Dict[str, Any]:
        """One request through the repo's client helper; raises on
        anything but a 200 with a JSON object."""
        from repro.serve.daemon import request_raw

        status, _, decoded = request_raw(
            self.host, self.port, "POST", path, body=body, timeout=REQUEST_TIMEOUT_S
        )
        if status != 200 or not isinstance(decoded, dict):
            raise RuntimeError(f"{path} answered {status}: {str(decoded)[:120]}")
        return decoded

    def _link(self, batch: int) -> Optional[str]:
        from repro.serve.selftest import response_identity

        response = self._post("/link", self.bodies[batch])
        if response_identity(response) != self.reference[batch]:
            return f"/link answer for batch {batch} differs from the in-process reference"
        return None

    def _delta(self, feed: Dict[str, Any], batch: int) -> None:
        """Send *batch* into the feed's current stream under fresh
        record ids (a provider re-sending a file re-keys it),
        remembering what was sent. A stream ends after
        ``STREAM_DELTAS`` deltas: its answers are cumulative, so an
        endless one would make every delta slower than the last."""
        streams = feed["streams"]
        if not streams or len(streams[-1]["sent"]) == STREAM_DELTAS:
            name = f"s{self.seed}-{feed['id']}-{len(streams)}"
            streams.append({"name": name, "sent": [], "last": None})
        stream = streams[-1]
        records = []
        for entry in self.payloads[batch]["records"]:
            ident = dict(entry["id"], value=f"{entry['id']['value']}/d{len(stream['sent'])}")
            records.append({"id": ident, "fields": entry["fields"]})
        body = json.dumps({"stream": stream["name"], "records": records}).encode("utf-8")
        stream["last"] = self._post("/delta", body)
        stream["sent"].append(records)

    def _request(
        self, kind: str, batch: int, feed, due: Optional[float], phase: int, clock=None
    ) -> Outcome:
        """One timed request; ``due`` is when the open loop owed it and
        ``clock`` the phase's ``(start, window length)``."""
        sent = now()
        failure = None
        try:
            if kind == "link":
                failure = self._link(batch)
            else:
                self._delta(feed, batch)
        except Exception as exc:  # a dead or hung daemon fails the op
            failure = f"{type(exc).__name__}: {exc}"
            time.sleep(0.05)
        done = now()
        # a closed-loop request belongs to the window it completed in,
        # an open-loop one to the window it was due in
        start, length = clock or (sent, 1.0)
        return Outcome(
            wall=done - (sent if due is None else due),
            parts={
                "phase": phase,
                "delta": kind == "delta",
                "late": 0.0 if due is None else sent - due,
                "window": int(((done if due is None else due) - start) / length),
            },
            failure=failure,
        )

    def _new_feed(self) -> Dict[str, Any]:
        """One client's private succession of delta streams."""
        self.sequence += 1
        return {"id": self.sequence, "streams": []}

    def _closed_client(self, client: int, start: float, length: float, feed, out) -> None:
        batches = len(self.bodies)
        clock = (start, length / WINDOWS)
        step = 0
        while now() < start + length:
            kind = "delta" if step % 4 == 3 else "link"
            batch = (client * batches // CLIENTS + step) % batches
            out.append(self._request(kind, batch, feed, None, 1, clock))
            step += 1

    def _open_sender(self, sender: int, start: float, count: int, feed, out) -> None:
        batches = len(self.bodies)
        clock = (start, count / OPEN_RATE / WINDOWS)
        for index in range(sender, count, CLIENTS):
            due = start + index / OPEN_RATE
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            kind = "delta" if index % 4 == 3 else "link"
            out.append(self._request(kind, index % batches, feed, due, 2, clock))

    def _phase(self, target, *args) -> List[Outcome]:
        """Run one load phase on ``CLIENTS`` threads, one feed each."""
        results: List[List[Outcome]] = [[] for _ in range(CLIENTS)]
        feeds = [self._new_feed() for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=target, args=(i, *args, feeds[i], results[i]))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.streams += [stream for feed in feeds for stream in feed["streams"]]
        return [outcome for part in results for outcome in part]

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def op(self) -> Outcome:
        """The warm-up: one /link and one /delta, which is also the
        daemon's first request."""
        first = self._request("link", 0, None, None, 0)
        self.layer["serve.first_request_ms"] = first.wall * 1000.0
        other = self._request("delta", 0, self._new_feed(), None, 0)
        return Outcome(wall=first.wall + other.wall, failure=first.failure or other.failure)

    def measure(self, seconds: float) -> List[Outcome]:
        self.streams = []
        before = self._stats()
        self.closed_window_s = seconds * CLOSED_SHARE / WINDOWS
        closed = self._phase(self._closed_client, now(), seconds * CLOSED_SHARE)
        count = max(CLIENTS, int(seconds * (1.0 - CLOSED_SHARE) * OPEN_RATE))
        opened = self._phase(self._open_sender, now() + 0.05, count)
        after = self._stats()
        for key in ("accepted", "rejected", "failed"):
            self.layer[f"serve.queue_{key}"] = after["queue"][key] - before["queue"][key]
        cache = next(iter(after["sessions"].values()), {}).get("cache", {})
        self.layer["serve.cache_hit_rate"] = cache.get("hit_rate", 0.0)
        self.layer["serve.open_loop_lateness_ms"] = (
            percentile([o.parts["late"] for o in opened], 0.95) * 1000.0
        )
        return closed + opened

    def _stats(self) -> Dict[str, Any]:
        from repro.serve.daemon import request_raw

        empty = {"queue": {"accepted": 0, "rejected": 0, "failed": 0}, "sessions": {}}
        try:
            status, _, decoded = request_raw(
                self.host, self.port, "GET", "/stats", timeout=REQUEST_TIMEOUT_S
            )
        except OSError:
            return empty
        return decoded if status == 200 and isinstance(decoded, dict) else empty

    def _stream_failures(self) -> List[str]:
        """Each stream's last cumulative answer against one batch job
        over everything the stream was sent."""
        from repro.engine import JobConfig, LinkingJob
        from repro.index.artifacts import record_store_from_payload
        from repro.linking import FieldComparator, RecordComparator, ThresholdMatcher
        from repro.serve.daemon import link_response
        from repro.serve.session import make_blocking

        failures = []
        for stream in self.streams:
            if stream["last"] is None:
                continue
            records = [record for delta in stream["sent"] for record in delta]
            result = LinkingJob(
                make_blocking("prefix"),
                RecordComparator([FieldComparator("pn")]),
                ThresholdMatcher(self.session.match_threshold),
                JobConfig(),
            ).run(record_store_from_payload({"records": records}), self.session.local_store)
            expected = link_response(result)
            if any(stream["last"].get(key) != expected[key] for key in _IDENTITY):
                failures.append(
                    f"stream {stream['name']}: cumulative result differs from one batch job"
                )
        return failures

    def check(self, outcomes: List[Outcome]) -> List[str]:
        failures = [
            f"request {index}: {outcome.failure}"
            for index, outcome in enumerate(outcomes)
            if outcome.failure
        ]
        failures += self._stream_failures()
        wrong = None
        envelope = self.expected.get("quality")
        if self.seed == DEFAULT_SEED and self.expected.get("digest") not in (
            None,
            self.reference_digest,
        ):
            wrong = "in-process reference differs from perf/expected"
        elif envelope and not envelope[0] <= self.quality <= envelope[1]:
            wrong = f"quality {self.quality:.4f} outside the recorded envelope {envelope}"
        if wrong:
            # the reference every /link answer was held against is itself
            # wrong, so no op of the run counts as checked
            failures = [f"request {index}: {wrong}" for index in range(len(outcomes))]
        return failures[: len(outcomes)]

    def recorded(self, outcome: Outcome) -> Dict[str, Any]:
        return {"digest": self.reference_digest, "quality": self.quality}

    @staticmethod
    def _windows(outcomes: List[Outcome], phase: int, delta: Optional[bool]) -> List[List[float]]:
        """The good requests' walls of one phase (one kind, or both),
        by window; empty windows dropped."""
        walls: List[List[float]] = [[] for _ in range(WINDOWS)]
        for o in outcomes:
            kind_ok = delta is None or o.parts["delta"] == delta
            if o.failure is None and o.parts["phase"] == phase and kind_ok:
                if o.parts["window"] < WINDOWS:
                    walls[o.parts["window"]].append(o.wall)
        return [window for window in walls if window]

    def _best_p50(self, outcomes: List[Outcome], phase: int, delta: Optional[bool]) -> float:
        windows = self._windows(outcomes, phase, delta)
        return min((median(window) for window in windows), default=0.0)

    def native(self, outcomes: List[Outcome]) -> Dict[str, float]:
        """Each phase is cut into ``WINDOWS`` equal windows, every
        metric is taken per window, and the best window is reported:
        interference on a shared host comes in spells and only ever
        slows a window down, so the best one is the daemon's own pace."""
        busiest = max((len(window) for window in self._windows(outcomes, 1, None)), default=0)
        return {
            "op_wall_s": self._best_p50(outcomes, 1, None),
            "serve_req_per_s": busiest / self.closed_window_s,
            "serve_link_p50_ms": self._best_p50(outcomes, 2, False) * 1000.0,
        }

    # ------------------------------------------------------------------
    # trace
    # ------------------------------------------------------------------
    def probes(self) -> None:
        from repro.index.artifacts import write_bundle

        bundle = self.bundle
        self.timed(
            "index.bundle_write_s",
            lambda: write_bundle(
                self.directory / "rewrite",
                store=bundle.store,
                indexes=bundle.indexes,
                comparator_cache=bundle.comparator_cache,
                config=bundle.config,
            ),
        )
        # a short load run for the queue counters, the cache hit rate,
        # the generator's own lateness and the client-observed p50
        outcomes = self.measure(PROBE_LOAD_S[self.quick])
        self.probe_failures = self.check(outcomes)
        self.client_p50_ms = self.native(outcomes)["serve_link_p50_ms"]
        # /delta has a third of /link's samples and spread by up to 21 %
        # over ten seeds, the tail by more: reported here, not gated
        self.layer["serve.delta_p50_ms"] = self._best_p50(outcomes, 2, True) * 1000.0
        links = [
            o.wall
            for o in outcomes
            if o.failure is None and o.parts["phase"] == 2 and not o.parts["delta"]
        ]
        self.layer["serve.link_p95_ms"] = percentile(links, 0.95) * 1000.0

    def replay(self, tracer: Tracer) -> Outcome:
        """Sequential requests, each followed by the in-process stages
        the daemon runs for it."""
        from repro.index.artifacts import record_store_from_payload
        from repro.serve.daemon import link_response

        started = now()
        failure = None
        with tracer.span("perf.op"):
            for batch in range(min(REPLAY_BATCHES, len(self.bodies))):
                with tracer.span("serve.http_link"):
                    failure = self._link(batch) or failure
                payload = json.loads(self.bodies[batch])
                with tracer.span("serve.payload_decode_ms"):
                    store = record_store_from_payload(payload)
                with tracer.span("serve.session_link_ms"):
                    result = self.session.link(store)
                with tracer.span("serve.response_encode_ms"):
                    json.dumps(link_response(result), sort_keys=True)
        if self.probe_failures:
            failure = failure or self.probe_failures[0]
        return Outcome(wall=now() - started, failure=failure)

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        out = {
            name: tracer.duration(name) * 1000.0
            for name in (
                "serve.payload_decode_ms",
                "serve.session_link_ms",
                "serve.response_encode_ms",
            )
        }
        # what HTTP, JSON, the queue and a second client add to the
        # service time, at the open loop's rate
        out["serve.http_overhead_ms"] = self.client_p50_ms - out["serve.session_link_ms"]
        return out
