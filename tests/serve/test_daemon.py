"""The serve daemon over HTTP: concurrency, protocol errors, self-test."""

import json
import typing
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
from repro.datagen.config import CatalogConfig
from repro.experiments.throughput import provider_batch
from repro.index.artifacts import load_bundle, record_store_to_payload, write_bundle
from repro.linking import RecordStore
from repro.serve import (
    LinkDaemon,
    LinkSession,
    ServeError,
    build_bundle,
    link_response,
    request_json,
    response_identity,
    run_self_test,
    serve_bundle,
)

SEED = 13


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-daemon")
    build_bundle(
        root / "bundle", preset="tiny", seed=SEED, blocking="prefix", warm_items=30
    )
    return root / "bundle"


@pytest.fixture(scope="module")
def daemon(bundle_path):
    with serve_bundle(bundle_path) as running:
        yield running


@pytest.fixture(scope="module")
def link_payload():
    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny(seed=SEED)).generate()
    test_graph, _ = provider_batch(catalog, 30, seed=SEED)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    return external, record_store_to_payload(external)


class TestProtocol:
    def test_stats_roundtrip(self, daemon):
        host, port = daemon.address
        stats = request_json(host, port, "GET", "/stats")
        assert stats["default_bundle"] == "default"
        session_stats = stats["sessions"]["default"]
        assert session_stats["blocking"] == "prefix"
        assert session_stats["records"] == len(daemon.session.local_store)
        # the bundled warm cache arrived with the session
        assert session_stats["cache"]["capacity"] > 0
        # admission counters ride along for load monitoring
        queue = stats["queue"]
        assert queue["workers"] >= 1
        assert queue["depth"] >= 1
        assert queue["rejected"] == 0
        assert set(stats) == {"default_bundle", "queue", "sessions"}
        assert set(stats["sessions"]) == {"default"}

    def test_unknown_path_is_404(self, daemon):
        host, port = daemon.address
        with pytest.raises(ServeError, match="404"):
            request_json(host, port, "GET", "/nonsense")
        with pytest.raises(ServeError, match="404"):
            request_json(host, port, "POST", "/nonsense", payload={"records": []})

    def test_invalid_json_body_is_400(self, daemon):
        host, port = daemon.address
        connection = HTTPConnection(host, port, timeout=30.0)
        try:
            connection.request("POST", "/link", body=b"{not json")
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert "not valid JSON" in body["error"]

    def test_empty_body_is_400(self, daemon):
        host, port = daemon.address
        connection = HTTPConnection(host, port, timeout=30.0)
        try:
            connection.request("POST", "/link")
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert "empty request body" in body["error"]

    def test_delta_without_stream_name_is_400(self, daemon, link_payload):
        host, port = daemon.address
        _, payload = link_payload
        with pytest.raises(ServeError, match="stream"):
            request_json(host, port, "POST", "/delta", payload=payload)


class TestConcurrentIdentity:
    def test_concurrent_links_answer_identically(self, daemon, link_payload):
        host, port = daemon.address
        external, payload = link_payload
        expected = link_response(daemon.session.link(external))
        expected.pop("executor")

        def one_request(_):
            return request_json(host, port, "POST", "/link", payload=payload)

        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(one_request, range(8)))
        for response in responses:
            response.pop("executor")
            assert response == expected
        assert expected["matches"] > 0
        assert expected["sameas_ntriples"]

    def test_concurrent_links_lose_no_cache_lookup(self, daemon, link_payload):
        """Every request makes the same number of similarity lookups on
        the session's shared, locked comparator, so 8 concurrent requests
        add exactly 8x what one adds; a lost counter update shows."""
        host, port = daemon.address
        _, payload = link_payload

        def lookups():
            stats = request_json(host, port, "GET", "/stats")
            cache = stats["sessions"]["default"]["cache"]
            return cache["hits"] + cache["misses"]

        def one_request(_):
            return request_json(host, port, "POST", "/link", payload=payload)

        before = lookups()
        one_request(0)
        per_request = lookups() - before
        assert per_request > 0
        before = lookups()
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(one_request, range(8)))
        assert lookups() - before == 8 * per_request

    def test_delta_stream_accumulates(self, daemon, link_payload):
        host, port = daemon.address
        _, payload = link_payload
        records = payload["records"]
        middle = len(records) // 2
        first = request_json(
            host,
            port,
            "POST",
            "/delta",
            payload={"stream": "d1", "records": records[:middle]},
        )
        second = request_json(
            host,
            port,
            "POST",
            "/delta",
            payload={"stream": "d1", "records": records[middle:]},
        )
        assert first["delta"]["index"] == 0
        assert second["delta"]["index"] == 1
        assert second["delta"]["records"] == len(records) - middle
        # the cumulative response covers the whole stream so far
        full = request_json(host, port, "POST", "/link", payload=payload)
        assert second["matches"] == full["matches"]
        assert second["sameas_ntriples"] == full["sameas_ntriples"]


class TestResponseIdentity:
    def test_projection_drops_only_the_executor(self):
        response = {"matches": 3, "sameas_ntriples": "x", "executor": "shard"}
        assert response_identity(response) == {"matches": 3, "sameas_ntriples": "x"}


class TestOneAnswerPath:
    """A daemon is built over one session, and every request it answers
    runs the session's single serial path."""

    def test_first_parameter_is_a_session(self):
        hints = typing.get_type_hints(LinkDaemon.__init__)
        assert hints["session"] is LinkSession

    @pytest.mark.parametrize("shape", ["path", "bundle", "mapping"])
    def test_anything_but_a_session_is_refused(self, bundle_path, shape):
        other = {
            "path": bundle_path,
            "bundle": load_bundle(bundle_path),
            "mapping": {"default": bundle_path},
        }[shape]
        with pytest.raises(TypeError, match="serve_bundle"):
            LinkDaemon(other)

    @pytest.mark.parametrize("knob", ["multiplex_threshold", "multiplex_workers"])
    def test_serve_bundle_takes_no_multiplex_knob(self, bundle_path, knob):
        with pytest.raises(TypeError, match=knob):
            serve_bundle(bundle_path, **{knob: 2})

    def test_link_over_http_answers_like_the_session(self, daemon, link_payload):
        host, port = daemon.address
        external, payload = link_payload
        expected = link_response(daemon.session.link(external))
        answer = request_json(host, port, "POST", "/link", payload)
        assert answer["executor"] == expected["executor"] == "serial"
        assert response_identity(answer) == response_identity(expected)
        assert answer["matches"] > 0
        session_stats = request_json(host, port, "GET", "/stats")["sessions"]["default"]
        assert "multiplex" not in session_stats
        assert "work_units" not in session_stats


class TestOlderBundleFormat:
    def test_use_index_false_bundle_answers_like_a_fresh_one(
        self, tmp_path, bundle_path, daemon, link_payload
    ):
        """A bundle written while blocking still had an index/scan
        toggle may say ``"use_index": false`` and carry no key index.
        It still opens, the key is ignored, and the bundle is not
        rewritten."""
        fresh = load_bundle(bundle_path)
        older = write_bundle(
            tmp_path / "older",
            store=fresh.store,
            indexes={},
            comparator_cache=fresh.comparator_cache,
            config={**fresh.config, "use_index": False},
        )
        on_disk = {path.name: path.read_bytes() for path in older.iterdir()}
        _, payload = link_payload
        host, port = daemon.address
        expected = request_json(host, port, "POST", "/link", payload=payload)
        with serve_bundle(older) as running:
            older_host, older_port = running.address
            answer = request_json(older_host, older_port, "POST", "/link", payload=payload)
        expected.pop("executor")
        answer.pop("executor")
        assert answer == expected
        assert {path.name: path.read_bytes() for path in older.iterdir()} == on_disk


class TestSelfTest:
    def test_self_test_verdict_identical(self, bundle_path, daemon):
        report = run_self_test(
            bundle_path, items=30, requests=3, workers=2, daemon=daemon
        )
        assert report["identical"] is True
        assert report["mismatched_requests"] == []
        assert report["requests"] == 3
        assert report["matches"] > 0
        assert report["warm_p50_seconds"] > 0
        assert report["cold_seconds"] > 0

    def test_self_test_reports_one_serial_path(self, bundle_path, daemon):
        report = run_self_test(
            bundle_path, items=20, requests=2, workers=2, daemon=daemon
        )
        assert report["identical"] is True
        assert report["executors"] == ["serial"]
        assert "multiplex_threshold" not in report
        assert "multiplexed_requests" not in report

    def test_self_test_takes_no_multiplex_threshold(self, bundle_path):
        with pytest.raises(TypeError, match="multiplex_threshold"):
            run_self_test(bundle_path, multiplex_threshold=40)
