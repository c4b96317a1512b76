"""BundleRegistry: lazy open, routing, idle-LRU eviction, listings."""

import pytest

from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
from repro.datagen.config import CatalogConfig
from repro.experiments.throughput import provider_batch
from repro.index.artifacts import record_store_to_payload
from repro.linking import RecordStore
from repro.serve import (
    BundleRegistry,
    ServeError,
    UnknownBundleError,
    build_bundle,
    request_json,
    serve_bundles,
)

SEED = 31


@pytest.fixture(scope="module")
def bundle_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-registry")
    for name in ("a", "b", "c"):
        build_bundle(
            root / name, preset="tiny", seed=SEED, blocking="prefix", warm_items=15
        )
    return {name: root / name for name in ("a", "b", "c")}


@pytest.fixture(scope="module")
def records():
    catalog = ElectronicCatalogGenerator(CatalogConfig.tiny(seed=SEED)).generate()
    test_graph, _ = provider_batch(catalog, 20, seed=SEED)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    return external, record_store_to_payload(external)


class TestConstruction:
    def test_needs_at_least_one_bundle(self):
        with pytest.raises(ServeError, match="at least one"):
            BundleRegistry({})

    def test_default_must_be_registered(self, bundle_paths):
        with pytest.raises(ServeError, match="not registered"):
            BundleRegistry(bundle_paths, default="zz")

    def test_first_bundle_is_the_default(self, bundle_paths):
        registry = BundleRegistry(bundle_paths)
        assert registry.default_bundle == "a"
        assert registry.names() == ("a", "b", "c")


    @pytest.mark.parametrize("knob", ["multiplex_threshold", "multiplex_workers"])
    def test_multiplex_knobs_are_gone(self, bundle_paths, knob):
        with pytest.raises(TypeError, match=knob):
            BundleRegistry(bundle_paths, **{knob: 2})

    def test_there_is_no_bare_session_wrapper(self):
        # a daemon is always built over a registry (serve_bundle names
        # a single bundle "default")
        assert not hasattr(BundleRegistry, "wrapping")


class TestLazyOpenAndRouting:
    def test_sessions_open_on_first_use_only(self, bundle_paths):
        registry = BundleRegistry(bundle_paths)
        assert not registry.is_open("a")
        session = registry.session("a")
        assert registry.is_open("a")
        assert not registry.is_open("b")
        # the same warm session answers again — no reopen
        assert registry.session("a") is session
        assert registry.stats()["opens"] == 1

    def test_none_routes_to_the_default(self, bundle_paths):
        registry = BundleRegistry(bundle_paths, default="b")
        assert registry.session() is registry.session("b")

    def test_unknown_name_rejected(self, bundle_paths):
        registry = BundleRegistry(bundle_paths)
        with pytest.raises(UnknownBundleError, match="unknown bundle 'zz'"):
            registry.session("zz")


class TestEviction:
    def test_lru_evicts_the_oldest_idle_session(self, bundle_paths):
        registry = BundleRegistry(bundle_paths, max_open=2)
        registry.session("a")
        registry.session("b")
        registry.session("a")  # touch: b is now the LRU entry
        registry.session("c")
        assert registry.is_open("a")
        assert not registry.is_open("b")
        assert registry.is_open("c")
        assert registry.stats()["evictions"] == 1

    def test_leased_sessions_are_never_evicted(self, bundle_paths):
        registry = BundleRegistry(bundle_paths, max_open=1)
        with registry.lease("a"):
            registry.session("b")
            # over the cap, but "a" is mid-request: both stay open
            assert registry.is_open("a")
            assert registry.is_open("b")
        registry.session("c")
        # idle again: the oldest idle session goes
        assert not registry.is_open("a")

    def test_sessions_with_live_streams_are_never_evicted(
        self, bundle_paths, records
    ):
        external, _ = records
        registry = BundleRegistry(bundle_paths, max_open=1)
        registry.session("a").delta("s1", list(external))
        registry.session("b")
        # "a" holds cumulative stream state; dropping it would silently
        # reset a client's fold, so the cap goes soft instead
        assert registry.is_open("a")
        assert registry.is_open("b")

    def test_evicted_bundles_reopen_on_demand(self, bundle_paths, records):
        external, _ = records
        registry = BundleRegistry(bundle_paths, max_open=1)
        first = registry.session("a").link(external)
        registry.session("b")
        assert not registry.is_open("a")
        again = registry.session("a").link(external)
        assert registry.stats()["opens"] == 3
        assert first.match_pairs == again.match_pairs


class TestIntrospection:
    def test_stats_counts_requests_per_bundle(self, bundle_paths, records):
        external, _ = records
        registry = BundleRegistry(bundle_paths)
        with registry.lease("b") as session:
            session.link(external)
        stats = registry.stats()
        assert stats["bundles"]["b"]["requests"] == 1
        assert stats["bundles"]["a"]["requests"] == 0
        assert stats["bundles"]["b"]["open"] is True
        assert stats["bundles"]["b"]["in_flight"] == 0

    def test_summary_reads_closed_bundles_from_the_manifest(self, bundle_paths):
        registry = BundleRegistry(bundle_paths)
        registry.session("a")
        summary = registry.summary()
        open_entry = summary["bundles"]["a"]
        assert open_entry["open"] is True
        assert open_entry["records"] > 0
        closed_entry = summary["bundles"]["b"]
        assert closed_entry["open"] is False
        assert closed_entry["bytes"] > 0
        assert "store.json" in closed_entry["components"]


class TestOverHTTP:
    def test_link_routes_by_bundle_field(self, bundle_paths, records):
        _, payload = records
        with serve_bundles(bundle_paths) as daemon:
            host, port = daemon.address
            default = request_json(host, port, "POST", "/link", payload)
            routed = request_json(
                host, port, "POST", "/link", {**payload, "bundle": "b"}
            )
            # identical tiny bundles: routing proves itself via /stats
            assert routed.pop("executor") is not None
            default.pop("executor")
            assert routed == default
            stats = request_json(host, port, "GET", "/stats")
            assert stats["registry"]["bundles"]["a"]["requests"] == 1
            assert stats["registry"]["bundles"]["b"]["requests"] == 1
            listing = request_json(host, port, "GET", "/bundles")
            assert set(listing["bundles"]) == {"a", "b", "c"}
