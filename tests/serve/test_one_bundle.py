"""One daemon, one bundle: routing by the ``"bundle"`` field, eager
load, stream lifetime and the multi-bundle surface that is gone."""

import importlib.util

import pytest

import repro.serve
from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
from repro.datagen.config import CatalogConfig
from repro.experiments.throughput import provider_batch
from repro.index.artifacts import ArtifactError, record_store_to_payload
from repro.linking import RecordStore
from repro.serve import (
    LinkSession,
    build_bundle,
    request_json,
    request_raw,
    serve_bundle,
)

SEED = 31


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-one-bundle")
    build_bundle(
        root / "bundle", preset="tiny", seed=SEED, blocking="prefix", warm_items=15
    )
    return root / "bundle"


@pytest.fixture(scope="module")
def daemon(bundle_path):
    with serve_bundle(bundle_path) as running:
        yield running


@pytest.fixture(scope="module")
def payload():
    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny(seed=SEED)).generate()
    test_graph, _ = provider_batch(catalog, 20, seed=SEED)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    return record_store_to_payload(external)


def _post(daemon, path, body):
    host, port = daemon.address
    return request_raw(host, port, "POST", path, payload=body)


class TestRouting:
    def test_absent_bundle_field_answers_like_the_named_one(self, daemon, payload):
        host, port = daemon.address
        unnamed = request_json(host, port, "POST", "/link", payload)
        named = request_json(
            host, port, "POST", "/link", {**payload, "bundle": "default"}
        )
        assert unnamed["matches"] > 0
        assert named == unnamed

    @pytest.mark.parametrize("path", ["/link", "/delta"])
    @pytest.mark.parametrize("bundle", ["", "Default", ["default"]])
    def test_any_other_bundle_value_is_404(self, daemon, payload, path, bundle):
        body = {**payload, "bundle": bundle, "stream": "refused"}
        status, _, answer = _post(daemon, path, body)
        assert status == 404
        assert "bundle" in answer["error"]

    def test_refused_delta_opens_no_stream(self, daemon, payload):
        body = {**payload, "bundle": "other", "stream": "never-opened"}
        status, _, _ = _post(daemon, "/delta", body)
        assert status == 404
        assert daemon.session.stream_result("never-opened") is None


class TestOneSession:
    def test_session_is_loaded_before_the_first_request(self, bundle_path):
        # serve_bundle loads eagerly: before any request the daemon
        # already holds a warm session over the bundle's records
        with serve_bundle(bundle_path) as fresh:
            assert isinstance(fresh.session, LinkSession)
            host, port = fresh.address
            stats = request_json(host, port, "GET", "/stats")
            assert stats["sessions"]["default"]["records"] > 0
            assert stats["sessions"]["default"]["requests"] == 0

    def test_missing_bundle_fails_at_startup(self, tmp_path):
        with pytest.raises(ArtifactError):
            serve_bundle(tmp_path / "no-such-bundle")

    def test_stats_count_requests_of_the_hosted_session(self, daemon, payload):
        host, port = daemon.address
        before = request_json(host, port, "GET", "/stats")
        request_json(host, port, "POST", "/link", payload)
        request_json(
            host, port, "POST", "/delta", {**payload, "stream": "counted"}
        )
        after = request_json(host, port, "GET", "/stats")
        assert set(after["sessions"]) == {"default"}
        requests = after["sessions"]["default"]["requests"]
        assert requests == before["sessions"]["default"]["requests"] + 2

    def test_streams_outlive_other_requests(self, daemon, payload):
        host, port = daemon.address
        records = payload["records"]
        middle = len(records) // 2
        first = request_json(
            host, port, "POST", "/delta",
            {"stream": "kept", "records": records[:middle]},
        )
        for _ in range(3):
            request_json(host, port, "POST", "/link", payload)
        second = request_json(
            host, port, "POST", "/delta",
            {"stream": "kept", "records": records[middle:]},
        )
        # the stream's fold is never dropped between its deltas
        assert (first["delta"]["index"], second["delta"]["index"]) == (0, 1)
        full = request_json(host, port, "POST", "/link", payload)
        assert second["sameas_ntriples"] == full["sameas_ntriples"]


class TestMultiBundleSurfaceIsGone:
    @pytest.mark.parametrize(
        "name", ["BundleRegistry", "UnknownBundleError", "serve_bundles"]
    )
    def test_package_does_not_export(self, name):
        assert name not in repro.serve.__all__
        assert not hasattr(repro.serve, name)

    def test_registry_module_is_gone(self):
        assert importlib.util.find_spec("repro.serve.registry") is None

    def test_session_has_no_stream_count(self):
        assert not hasattr(LinkSession, "stream_count")

    @pytest.mark.parametrize("knob", ["max_open", "default"])
    def test_serve_bundle_takes_no_registry_knob(self, bundle_path, knob):
        with pytest.raises(TypeError, match=knob):
            serve_bundle(bundle_path, **{knob: 2})
