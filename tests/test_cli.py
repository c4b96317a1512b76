"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_bench_command_is_retired(self, capsys):
        # performance is measured by perf/run.py, not by the CLI
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["table1", "stats", "sweeps", "blocking", "generalization",
         "generality", "link", "throughput", "export-rules"],
    )
    def test_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command

    def test_scenarios_flags(self):
        args = build_parser().parse_args(
            ["scenarios", "run", "--scenario", "a", "--scenario", "b",
             "--no-streaming", "--json"]
        )
        assert args.action == "run"
        assert args.scenarios == ["a", "b"]
        assert args.no_streaming and args.json

    def test_scenarios_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "audit"])

    def test_link_engine_flags(self):
        args = build_parser().parse_args(
            ["link", "--executor", "process", "--workers", "2",
             "--chunk-size", "256", "--cache-size", "0",
             "--blocking", "rules", "--match-threshold", "0.8"]
        )
        assert args.executor == "process"
        assert args.workers == 2
        assert args.chunk_size == 256
        assert args.cache_size == 0
        assert args.blocking == "rules"
        assert args.match_threshold == 0.8

    def test_link_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", "--executor", "gpu"])

    @pytest.mark.parametrize(
        "flags",
        [["--chunk-size", "0"], ["--workers", "0"], ["--cache-size", "-1"],
         ["--shards", "0"], ["--shards", "-2"]],
    )
    def test_link_rejects_bad_engine_values(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", *flags])

    def test_link_shards_flag_parses(self):
        args = build_parser().parse_args(["link", "--shards", "5"])
        assert args.shards == 5
        assert build_parser().parse_args(["link"]).shards is None

    def test_common_flags(self):
        args = build_parser().parse_args(
            ["table1", "--preset", "tiny", "--seed", "3", "--support-threshold", "0.01"]
        )
        assert args.preset == "tiny"
        assert args.seed == 3
        assert args.support_threshold == 0.01


class TestExecution:
    def test_table1_tiny(self, capsys):
        code = main(["table1", "--preset", "tiny", "--support-threshold", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "conf" in out

    def test_stats_tiny(self, capsys):
        code = main(["stats", "--preset", "tiny", "--support-threshold", "0.01"])
        assert code == 0
        assert "distinct segments" in capsys.readouterr().out

    def test_export_rules_json_stdout(self, capsys):
        code = main(
            ["export-rules", "--preset", "tiny", "--support-threshold", "0.02"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-classification-rules"
        assert payload["rule_count"] > 0

    def test_export_rules_turtle_file(self, tmp_path, capsys):
        target = tmp_path / "rules.ttl"
        code = main(
            [
                "export-rules", "--preset", "tiny",
                "--support-threshold", "0.02",
                "--format", "turtle",
                "--min-confidence", "0.8",
                "--output", str(target),
            ]
        )
        assert code == 0
        text = target.read_text()
        assert "rule:ClassificationRule" in text or "a rule:" in text or "rule:" in text

    def test_export_rules_roundtrip_through_file(self, tmp_path):
        from repro.core.serialize import rules_from_json

        target = tmp_path / "rules.json"
        main(
            [
                "export-rules", "--preset", "tiny",
                "--support-threshold", "0.02",
                "--output", str(target),
            ]
        )
        rules = rules_from_json(target.read_text())
        assert len(rules) > 0

    def test_generality(self, capsys):
        code = main(["generality", "--preset", "tiny"])
        assert code == 0
        assert "toponym" in capsys.readouterr().out

    def test_blocking_tiny(self, capsys):
        code = main(
            ["blocking", "--preset", "tiny", "--test-items", "60",
             "--support-threshold", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rule-based (strict)" in out
        assert "rule-based (paper)" in out

    def test_generalization_tiny(self, capsys):
        code = main(
            ["generalization", "--preset", "tiny", "--support-threshold", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "X1 rule generalization" in out
        assert "extended" in out

    def test_link_tiny_serial(self, capsys):
        code = main(
            ["link", "--preset", "tiny", "--test-items", "40",
             "--executor", "serial", "--chunk-size", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "linked" in out
        assert "pairs/s" in out
        assert "hit rate" in out

    @pytest.mark.parametrize("blocking", ["qgram", "sorted", "canopy"])
    def test_link_shards_every_blocking_method(self, capsys, blocking):
        """q-gram, window and canopy blocking all shard natively now: a
        shard request must run sharded with no degradation warning."""
        code = main(
            ["link", "--preset", "tiny", "--test-items", "30",
             "--executor", "shard", "--workers", "2",
             "--blocking", blocking]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "executor=shard" in captured.out
        assert "shards=2" in captured.out
        assert "fallback:" not in captured.out
        assert "warning: degraded execution" not in captured.err

    def test_link_shards_override(self, capsys):
        """--shards decouples the shard plan from the worker count."""
        code = main(
            ["link", "--preset", "tiny", "--test-items", "30",
             "--executor", "shard", "--workers", "2", "--shards", "3",
             "--blocking", "qgram"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "executor=shard" in captured.out
        assert "shards=3" in captured.out
        assert "warning: degraded execution" not in captured.err

    def test_link_degradation_warning_names_actual_executor(self, capsys, monkeypatch):
        """A genuine degradation (duck-typed blocking without the shard
        API) warns on stderr naming the executor that actually ran."""
        import repro.linking

        class UnshardableDouble:
            def __init__(self, field, **kwargs):
                self._field = field

            def candidate_pairs(self, external, local):
                for ext in external.ids():
                    for loc in local.ids():
                        yield ext, loc

        monkeypatch.setattr(repro.linking, "QGramBlocking", UnshardableDouble)
        code = main(
            ["link", "--preset", "tiny", "--test-items", "20",
             "--executor", "shard", "--workers", "2",
             "--blocking", "qgram"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "executor=process" in captured.out
        reason = (
            "shard: UnshardableDouble has no per-key block decomposition; "
            "ran process"
        )
        assert f"fallback: {reason}" in captured.out
        assert (
            f"warning: degraded execution, ran process ({reason})"
            in captured.err
        )

    def test_link_batched_scoring(self, capsys):
        code = main(
            ["link", "--preset", "tiny", "--test-items", "40",
             "--executor", "serial", "--scoring", "batched"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "scoring=batched" in captured.out
        assert "batched scoring:" in captured.out
        assert "warning: degraded execution" not in captured.err

    def test_link_scoring_flag_parses(self):
        args = build_parser().parse_args(["link", "--scoring", "batched"])
        assert args.scoring == "batched"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", "--scoring", "columnar"])

    def test_link_canopy_blocking_parses(self):
        args = build_parser().parse_args(["link", "--blocking", "canopy"])
        assert args.blocking == "canopy"

    def test_link_with_progress(self, capsys):
        code = main(
            ["link", "--preset", "tiny", "--test-items", "40",
             "--executor", "serial", "--chunk-size", "16", "--progress"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "chunk" in captured.err

    def test_scenarios_list(self, capsys):
        code = main(["scenarios", "list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "electronics-tiny-prefix" in out
        assert "toponyms-standard" in out
        assert "tags:" in out

    def test_scenarios_list_json(self, capsys):
        import json

        code = main(["scenarios", "list", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {entry["scenario"] for entry in payload}
        assert "electronics-tiny-prefix" in names
        assert all("tags" in entry for entry in payload)

    def test_scenarios_run_single(self, capsys):
        code = main(["scenarios", "run", "--scenario", "electronics-tiny-prefix"])
        assert code == 0
        out = capsys.readouterr().out
        assert "electronics-tiny-prefix" in out
        assert "stream==" in out
        assert "1 scenario(s) ok" in out

    def test_scenarios_run_json(self, capsys):
        import json

        code = main(
            ["scenarios", "run", "--scenario", "electronics-tiny-prefix",
             "--no-streaming", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "electronics-tiny-prefix"
        assert payload[0]["matches"] > 0

    def test_scenarios_run_unknown_name_errors_cleanly(self, capsys):
        code = main(["scenarios", "run", "--scenario", "no-such-scenario"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "registered:" in err

    def test_throughput_tiny(self, capsys):
        code = main(
            ["throughput", "--preset", "tiny", "--sizes", "30", "60",
             "--executor", "serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "A5 linking throughput" in out
        assert "pairs/s" in out


class TestArtifactsCommand:
    def test_artifacts_flags_parse(self):
        args = build_parser().parse_args(
            ["artifacts", "build", "--bundle", "b", "--preset", "tiny",
             "--blocking", "qgram", "--warm-items", "50", "--no-index"]
        )
        assert args.action == "build"
        assert args.bundle == "b"
        assert args.blocking == "qgram"
        assert args.warm_items == 50
        assert args.index is False

    def test_artifacts_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["artifacts", "frobnicate", "--bundle", "b"])

    def test_artifacts_rejects_negative_warm_items(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["artifacts", "build", "--bundle", "b", "--warm-items", "-1"]
            )

    def test_build_then_inspect(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        code = main(
            ["artifacts", "build", "--bundle", str(bundle), "--preset", "tiny",
             "--seed", "5", "--blocking", "prefix", "--warm-items", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bundle written to" in out
        assert "store.json" in out

        code = main(["artifacts", "inspect", "--bundle", str(bundle), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] > 0
        assert "prefix:pn:4" in summary["indexes"]
        assert summary["config"]["blocking"] == "prefix"
        assert summary["cached_similarities"] > 0

    def test_inspect_human_readable(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(["artifacts", "build", "--bundle", str(bundle), "--preset", "tiny"])
        capsys.readouterr()
        code = main(["artifacts", "inspect", "--bundle", str(bundle)])
        assert code == 0
        out = capsys.readouterr().out
        assert "records:" in out
        assert "config:" in out

    def test_inspect_missing_bundle_errors_cleanly(self, tmp_path, capsys):
        code = main(["artifacts", "inspect", "--bundle", str(tmp_path / "nope")])
        assert code == 2
        assert "repro artifacts build" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--bundle", "b", "--port", "0", "--self-test", "40",
             "--self-test-requests", "3", "--self-test-workers", "2", "--json"]
        )
        assert args.bundle == ["b"]
        assert args.port == 0
        assert args.self_test == 40
        assert args.self_test_requests == 3
        assert args.json

    def test_serve_concurrency_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--bundle", "a=x", "--bundle", "b=y",
             "--queue-workers", "2", "--queue-depth", "8",
             "--multiplex-threshold", "500", "--multiplex-workers", "3"]
        )
        assert args.bundle == ["a=x", "b=y"]
        assert args.queue_workers == 2
        assert args.queue_depth == 8
        assert args.multiplex_threshold == 500
        assert args.multiplex_workers == 3

    def test_serve_bundle_specs_parse(self):
        from repro.cli import _parse_bundle_specs

        bundles, default = _parse_bundle_specs(["alpha=/x/a", "/y/beta"])
        assert default == "alpha"
        assert sorted(bundles) == ["alpha", "beta"]

        single, default = _parse_bundle_specs(["/y/beta"])
        assert default == "default"
        assert list(single) == ["default"]

    def test_serve_duplicate_bundle_names_rejected(self):
        from repro.cli import _parse_bundle_specs
        from repro.serve import ServeError

        with pytest.raises(ServeError, match="duplicate"):
            _parse_bundle_specs(["a=x", "a=y"])

    def test_serve_missing_bundle_errors_cleanly(self, tmp_path, capsys):
        code = main(["serve", "--bundle", str(tmp_path / "nope")])
        assert code == 2
        assert "repro artifacts build" in capsys.readouterr().err

    def test_serve_self_test_identical(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(
            ["artifacts", "build", "--bundle", str(bundle), "--preset", "tiny",
             "--seed", "9", "--warm-items", "30"]
        )
        capsys.readouterr()
        code = main(
            ["serve", "--bundle", str(bundle), "--port", "0",
             "--self-test", "30", "--self-test-requests", "3",
             "--self-test-workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "MISMATCH" not in out

    def test_serve_self_test_json_report(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        main(
            ["artifacts", "build", "--bundle", str(bundle), "--preset", "tiny",
             "--seed", "9"]
        )
        capsys.readouterr()
        code = main(
            ["serve", "--bundle", str(bundle), "--port", "0",
             "--self-test", "30", "--self-test-requests", "2",
             "--self-test-workers", "2", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["identical"] is True
        assert report["mismatched_requests"] == []
        assert report["warm_speedup_p50"] > 0
