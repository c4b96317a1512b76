"""Command-line interface: ``python -m repro <command>``.

Commands map onto the experiment harness, the linking engine and
service, and a rule export utility:

* ``table1`` — regenerate the paper's Table 1;
* ``stats`` — the §5 in-text statistics;
* ``sweeps`` — ablations A1/A2/A4;
* ``blocking`` — the blocking-baseline comparison (A3);
* ``generalization`` — the future-work subsumption experiment (X1);
* ``generality`` — the second-domain (toponym) experiment (X2);
* ``link`` — run an end-to-end batch linking job through the engine
  (chunked, cached, optionally parallel — including the block-parallel
  ``shard`` executor) and report throughput;
* ``throughput`` — the engine throughput experiment (A5);
* ``scenarios`` — list or run the scenario workload matrix (batch +
  streaming legs with the byte-identity check and metric envelopes);
* ``artifacts`` — build or inspect a warm-start bundle;
* ``serve`` — host bundles behind the HTTP linking daemon;
* ``worker`` — execute one serialized shard work unit;
* ``export-rules`` — learn on a preset catalog and write the rules as
  JSON or Turtle.

Performance is measured outside the package, by the repo benchmark
``perf/run.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.learner import LearnerConfig, RuleLearner
from repro.core.serialize import rules_to_json, rules_to_turtle
from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
from repro.datagen.config import CatalogConfig


def _preset(name: str, seed: int | None) -> CatalogConfig:
    factories = {
        "thales": CatalogConfig.thales_like,
        "small": CatalogConfig.small,
        "tiny": CatalogConfig.tiny,
    }
    factory = factories[name]
    return factory(seed=seed) if seed is not None else factory()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=("thales", "small", "tiny"),
        default="thales",
        help="catalog preset (default: thales = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=None, help="generator seed")
    parser.add_argument(
        "--support-threshold",
        type=float,
        default=0.002,
        help="the paper's th (default 0.002)",
    )


def _generate(args: argparse.Namespace):
    config = _preset(args.preset, args.seed)
    return ElectronicCatalogGenerator(config).generate()


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import run_table1

    report = run_table1(_generate(args), support_threshold=args.support_threshold)
    print(report.format())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.experiments.stats import run_stats

    print(run_stats(_generate(args), support_threshold=args.support_threshold).format())
    return 0


def _cmd_sweeps(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import (
        run_scalability,
        run_segmentation_ablation,
        run_support_sweep,
    )

    catalog = _generate(args)
    print("A1 support-threshold sweep")
    print(f"{'th':<10}{'#rules':<8}{'#freq.cls':<10}{'#dec.':<8}{'prec.':>7} {'recall':>7}")
    for row in run_support_sweep(catalog):
        print(row.format())
    print("\nA2 segmentation ablation")
    print(
        f"{'strategy':<14}{'distinct':<10}{'occur.':<10}{'#rules':<8}"
        f"{'#dec.':<8}{'prec.':>7} {'recall':>7}"
    )
    for row in run_segmentation_ablation(catalog, support_threshold=args.support_threshold):
        print(row.format())
    print("\nA4 scalability")
    print(f"{'|TS|':<8}{'learn(s)':<10}{'classify(s)':<12}{'#rules':<8}")
    for row in run_scalability():
        print(row.format())
    return 0


def _cmd_blocking(args: argparse.Namespace) -> int:
    from repro.experiments.blocking_comparison import (
        BLOCKING_COMPARISON_HEADER,
        run_blocking_comparison,
    )

    rows = run_blocking_comparison(
        _generate(args),
        n_test_items=args.test_items,
        support_threshold=args.support_threshold,
    )
    print(BLOCKING_COMPARISON_HEADER)
    for row in rows:
        print(row.format())
    return 0


def _cmd_generalization(args: argparse.Namespace) -> int:
    from repro.experiments.generalization import run_generalization

    report = run_generalization(
        _generate(args),
        support_threshold=args.support_threshold,
        max_depth_lift=args.max_depth_lift,
    )
    print(report.format())
    return 0


def _cmd_generality(args: argparse.Namespace) -> int:
    from repro.experiments.generality import run_generality

    print(run_generality().format())
    return 0


def _job_config(args: argparse.Namespace):
    """Engine configuration from the shared engine flags."""
    from repro.engine import JobConfig

    on_progress = None
    if args.progress:
        def on_progress(progress):
            print(progress.format(), file=sys.stderr)

    return JobConfig(
        chunk_size=args.chunk_size,
        executor=args.executor,
        workers=args.workers,
        shards=args.shards,
        cache_size=args.cache_size,
        scoring=args.scoring,
        on_progress=on_progress,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    from repro.engine import DEFAULT_CACHE_SIZE, SCORING, executor_names

    parser.add_argument(
        "--executor",
        choices=executor_names(),
        default="auto",
        help="execution strategy (default: auto = process when CPUs allow; "
        "shard = workers generate their own key-space shards' candidates "
        "in-worker; worker = every shard crosses a serialized work-unit "
        "boundary; every built-in blocking method shards)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None, help="worker count"
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="key-space shard count for the shard executor "
        "(default: the worker count)",
    )
    parser.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=1024,
        help="candidate pairs per chunk",
    )
    parser.add_argument(
        "--cache-size",
        type=_non_negative_int,
        default=DEFAULT_CACHE_SIZE,
        help="similarity-cache capacity per worker (0 disables)",
    )
    parser.add_argument(
        "--scoring",
        choices=SCORING,
        default="pairwise",
        help="pair scoring path (batched = columnar scorer with "
        "per-profile-pair memoization; byte-identical output)",
    )
    parser.add_argument(
        "--progress", action="store_true", help="print per-chunk progress to stderr"
    )


def _cmd_link(args: argparse.Namespace) -> int:
    from repro.core.classifier import RuleClassifier
    from repro.engine import LinkingJob
    from repro.experiments.throughput import provider_batch
    from repro.linking import (
        CanopyBlocking,
        FieldComparator,
        QGramBlocking,
        RecordComparator,
        RecordStore,
        RuleBasedBlocking,
        SortedNeighbourhood,
        StandardBlocking,
        ThresholdMatcher,
    )

    catalog = _generate(args)
    batch_seed = 4242 if args.seed is None else args.seed
    test_graph, truth = provider_batch(catalog, args.test_items, seed=batch_seed)
    external = RecordStore.from_graph(test_graph, {"pn": PART_NUMBER})
    local = RecordStore.from_graph(catalog.local_graph, {"pn": PART_NUMBER})

    if args.blocking in ("rules", "rules-strict"):
        rules = RuleLearner(
            LearnerConfig(
                properties=(PART_NUMBER,), support_threshold=args.support_threshold
            )
        ).learn(catalog.to_training_set())
        blocking = RuleBasedBlocking(
            RuleClassifier(rules.with_min_confidence(0.4)),
            catalog.ontology,
            test_graph,
            fallback_full=args.blocking == "rules",
        )
    elif args.blocking == "sorted":
        blocking = SortedNeighbourhood.on_field("pn", window_size=7)
    elif args.blocking == "qgram":
        blocking = QGramBlocking("pn", q=2, threshold=0.8)
    elif args.blocking == "canopy":
        blocking = CanopyBlocking("pn", loose=0.5, tight=0.9)
    else:
        blocking = StandardBlocking.on_field_prefix("pn", length=4)

    job = LinkingJob(
        blocking,
        RecordComparator([FieldComparator("pn")]),
        ThresholdMatcher(match_threshold=args.match_threshold),
        _job_config(args),
    )
    result = job.run(external, local)
    quality = result.matching_quality(truth)
    print(
        f"linked {len(result.matches)} of {len(external)} provider records "
        f"against {len(local)} catalog records "
        f"({result.compared} of {result.naive_pairs} pairs compared)"
    )
    print(str(quality))
    print(result.stats.format())
    if result.stats.fallback_reason:
        # degradations (shard -> process, batched -> pairwise, pool
        # failure -> serial) must be loud, not buried in the stats block
        print(
            f"warning: degraded execution, ran {result.stats.executor} "
            f"({result.stats.fallback_reason})",
            file=sys.stderr,
        )
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    from repro.experiments.throughput import (
        THROUGHPUT_HEADER,
        run_linking_throughput,
    )

    rows = run_linking_throughput(
        _generate(args),
        sizes=tuple(args.sizes),
        job_config=_job_config(args),
        seed=4242 if args.seed is None else args.seed,
    )
    print(THROUGHPUT_HEADER)
    for row in rows:
        print(row.format())
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import (
        UnknownScenarioError,
        get_scenario,
        run_scenario,
        scenario_names,
    )

    if args.action == "list":
        specs = [get_scenario(name) for name in scenario_names()]
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "scenario": spec.name,
                            "domain": spec.domain,
                            "description": spec.description,
                            "tags": list(spec.tags),
                            "deltas": spec.deltas,
                        }
                        for spec in specs
                    ],
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"{'scenario':<28} {'domain':<12} description")
        for spec in specs:
            print(f"{spec.name:<28} {spec.domain:<12} {spec.description}")
            print(f"{'':<28} {'':<12} tags: {', '.join(spec.tags)}")
        return 0

    names = args.scenarios or scenario_names()
    reports = []
    failed = False
    for name in names:
        try:
            report = run_scenario(name, streaming=not args.no_streaming)
        except UnknownScenarioError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        reports.append(report)
        if not args.json:
            print(report.format())
        if not report.ok:
            failed = True
    if args.json:
        payload = [
            {
                **report.snapshot(),
                "batch_seconds": report.batch_seconds,
                "streaming_seconds": report.streaming_seconds,
                "envelope_violations": list(report.envelope_violations),
            }
            for report in reports
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not failed:
        print(f"{len(reports)} scenario(s) ok")
    return 1 if failed else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker run-unit`` — execute one serialized shard work unit.

    Reads a :class:`ShardWorkUnit` envelope from stdin and writes the
    WorkerResult envelope to stdout. The ``worker`` executor's
    subprocess transport drives this; a remote scheduler can drive a
    pool of these the same way. Rejected envelopes (stale version,
    foreign fingerprint, corrupt checksum, unknown spec) exit 2 with
    the reason on stderr — nothing partial ever reaches stdout.
    """
    from repro.engine.executors.protocol import (
        WorkUnitError,
        decode_work_unit,
        encode_worker_result,
        execute_work_unit,
    )

    text = sys.stdin.read()
    try:
        outcome = execute_work_unit(decode_work_unit(text))
    except WorkUnitError as exc:
        print(f"work unit rejected: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(encode_worker_result(outcome))
    return 0


def _cmd_artifacts(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.index.artifacts import ArtifactError, inspect_bundle
    from repro.serve import ServeError, build_bundle

    if args.action == "build":
        try:
            manifest = build_bundle(
                Path(args.bundle),
                preset=args.preset,
                seed=args.seed,
                blocking=args.blocking,
                support_threshold=args.support_threshold,
                match_threshold=args.match_threshold,
                warm_items=args.warm_items,
            )
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        components = manifest["components"]
        total = sum(entry["bytes"] for entry in components.values())
        print(
            f"bundle written to {args.bundle} "
            f"({len(components)} components, {total:,} bytes)"
        )
        for name in sorted(components):
            print(f"  {name:<14} {components[name]['bytes']:>10,} bytes")
        return 0

    # inspect
    try:
        summary = inspect_bundle(Path(args.bundle))
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"bundle: {args.bundle}")
    print(f"records: {summary['records']}")
    for signature, info in sorted(summary["indexes"].items()):
        print(f"index {signature}: {info['keys']} keys over {info['records']} records")
    print(f"rules: {summary['rules']}")
    print(f"ontology classes: {summary['ontology_classes']}")
    print(
        f"cached similarities: {summary['cached_similarities']} "
        f"(+{summary['cached_normalizations']} normalizations)"
    )
    config = summary.get("config", {})
    if config:
        print(
            "config: "
            + " ".join(f"{key}={config[key]}" for key in sorted(config))
        )
    return 0


def _parse_bundle_specs(specs):
    """``[NAME=]DIR`` serve specs → ``(name -> path, default name)``.

    A bare DIR names itself ``default`` when it is the only bundle and
    by its directory basename otherwise; the first spec is the default
    route. Duplicate names are an error, not a silent override.
    """
    from pathlib import Path

    from repro.serve import ServeError

    bundles = {}
    for spec in specs:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            name = "default" if len(specs) == 1 else Path(spec).name
            path = spec
        if not name or not path:
            raise ServeError(
                f"bundle spec {spec!r} must be DIR or NAME=DIR"
            )
        if name in bundles:
            raise ServeError(f"duplicate bundle name {name!r}")
        bundles[name] = Path(path)
    return bundles, next(iter(bundles))


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.index.artifacts import ArtifactError
    from repro.serve import ServeError, run_self_test, serve_bundles

    try:
        bundles, default = _parse_bundle_specs(args.bundle)
        daemon = serve_bundles(
            bundles,
            default=default,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            queue_workers=args.queue_workers,
            queue_depth=args.queue_depth,
            multiplex_threshold=args.multiplex_threshold,
            multiplex_workers=args.multiplex_workers,
        )
    except (ArtifactError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.self_test:
        try:
            report = run_self_test(
                bundles[default],
                items=args.self_test,
                requests=args.self_test_requests,
                workers=args.self_test_workers,
                daemon=daemon,
            )
        finally:
            daemon.shutdown()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            verdict = "identical" if report["identical"] else "MISMATCH"
            print(
                f"self-test: {report['requests']} concurrent requests, "
                f"{report['matches']} matches each — {verdict}"
            )
            print(
                f"cold one-shot {report['cold_seconds']:.2f}s, "
                f"warm p50 {report['warm_p50_seconds'] * 1000:.1f}ms "
                f"({report['warm_speedup_p50']:.1f}x), "
                f"cache hit rate {report['cache_hit_rate']:.1%}"
            )
        return 0 if report["identical"] else 1

    host, port = daemon.start()
    stats = daemon.session.stats()
    # the machine-readable announce goes to STDOUT (and is flushed):
    # scripts start `serve --port 0`, read one line, and connect to
    # the actually-bound port without racing or parsing the banner
    print(
        json.dumps(
            {
                "event": "serving",
                "host": host,
                "port": port,
                "bundles": sorted(bundles),
                "default_bundle": default,
            },
            sort_keys=True,
        ),
        flush=True,
    )
    print(
        f"serving {stats['records']} records ({stats['blocking']} blocking) "
        f"on http://{host}:{port} — GET /stats, GET /bundles, "
        f"POST /link, POST /delta",
        file=sys.stderr,
    )
    try:
        daemon.wait()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        daemon.shutdown()
    return 0


def _cmd_export_rules(args: argparse.Namespace) -> int:
    catalog = _generate(args)
    learner = RuleLearner(
        LearnerConfig(
            properties=(PART_NUMBER,), support_threshold=args.support_threshold
        )
    )
    rules = learner.learn(catalog.to_training_set())
    if args.min_confidence > 0:
        rules = rules.with_min_confidence(args.min_confidence)
    text = rules_to_turtle(rules) if args.format == "turtle" else rules_to_json(rules)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as sink:
            sink.write(text)
        print(f"wrote {len(rules)} rules to {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Classification Rule Learning for Data Linking' "
        "(Pernelle & Sais, EDBT/LWDM 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("table1", _cmd_table1, "regenerate the paper's Table 1"),
        ("stats", _cmd_stats, "the in-text §5 statistics"),
        ("sweeps", _cmd_sweeps, "ablations A1/A2/A4"),
        ("generalization", _cmd_generalization, "future-work experiment X1"),
        ("generality", _cmd_generality, "second-domain experiment X2"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_common(command)
        command.set_defaults(handler=handler)

    blocking = sub.add_parser("blocking", help="blocking comparison A3")
    _add_common(blocking)
    blocking.add_argument("--test-items", type=int, default=300)
    blocking.set_defaults(handler=_cmd_blocking)

    link = sub.add_parser("link", help="batch-link a provider file via the engine")
    _add_common(link)
    _add_engine_flags(link)
    link.add_argument("--test-items", type=_positive_int, default=300)
    link.add_argument(
        "--blocking",
        choices=("rules", "rules-strict", "prefix", "sorted", "qgram", "canopy"),
        default="prefix",
        help="candidate generation method (default: prefix)",
    )
    link.add_argument("--match-threshold", type=float, default=0.9)
    link.set_defaults(handler=_cmd_link)

    throughput = sub.add_parser("throughput", help="engine throughput A5")
    _add_common(throughput)
    _add_engine_flags(throughput)
    throughput.add_argument(
        "--sizes", type=_positive_int, nargs="+", default=[200, 400, 800],
        help="provider batch sizes to sweep",
    )
    throughput.set_defaults(handler=_cmd_throughput)

    generalization = next(
        action for action in sub.choices.values() if action.prog.endswith("generalization")
    )
    generalization.add_argument("--max-depth-lift", type=int, default=4)

    scenarios = sub.add_parser(
        "scenarios", help="the scenario workload matrix (list / run)"
    )
    scenarios.add_argument(
        "action", choices=("list", "run"), help="list the registry or run scenarios"
    )
    scenarios.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="scenario to run (repeatable; default: all registered)",
    )
    scenarios.add_argument(
        "--no-streaming",
        action="store_true",
        help="skip the streaming leg and its byte-identity check",
    )
    scenarios.add_argument(
        "--json", action="store_true", help="emit reports as JSON"
    )
    scenarios.set_defaults(handler=_cmd_scenarios)

    artifacts = sub.add_parser(
        "artifacts", help="warm-start bundle store (build / inspect)"
    )
    artifacts.add_argument(
        "action",
        choices=("build", "inspect"),
        help="build a bundle from a deterministic catalog, or summarize one",
    )
    artifacts.add_argument(
        "--bundle", required=True, metavar="DIR", help="bundle directory"
    )
    _add_common(artifacts)
    artifacts.add_argument(
        "--blocking",
        choices=("rules", "rules-strict", "prefix", "sorted", "qgram", "canopy", "full"),
        default="prefix",
        help="blocking method the bundle is warmed for (default: prefix)",
    )
    artifacts.add_argument("--match-threshold", type=float, default=0.9)
    artifacts.add_argument(
        "--warm-items",
        type=_non_negative_int,
        default=0,
        help="pre-warm the similarity cache by linking one provider "
        "batch of this size (0 = no cache in the bundle)",
    )
    artifacts.add_argument(
        "--json", action="store_true", help="inspect: emit the summary as JSON"
    )
    artifacts.set_defaults(handler=_cmd_artifacts)

    worker = sub.add_parser(
        "worker",
        help="shard work-unit worker (stdin envelope -> stdout result)",
    )
    worker.add_argument(
        "action",
        choices=("run-unit",),
        help="run-unit: execute one ShardWorkUnit envelope read from stdin",
    )
    worker.set_defaults(handler=_cmd_worker)

    serve = sub.add_parser(
        "serve", help="long-running warm linking daemon over artifact bundles"
    )
    serve.add_argument(
        "--bundle",
        required=True,
        action="append",
        metavar="[NAME=]DIR",
        help="bundle to host (repeatable; requests route by name via "
        'the "bundle" payload field, the first one is the default)',
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=_non_negative_int,
        default=8355,
        help="listen port (0 = ephemeral; the bound port is announced "
        "as a JSON line on stdout)",
    )
    serve.add_argument(
        "--cache-size",
        type=_non_negative_int,
        default=None,
        help="similarity-cache capacity (default: engine default)",
    )
    serve.add_argument(
        "--queue-workers",
        type=_positive_int,
        default=4,
        help="concurrent linking requests executed at once (default 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=32,
        help="requests allowed to wait behind the workers before the "
        "daemon answers 503 + Retry-After (default 32)",
    )
    serve.add_argument(
        "--multiplex-threshold",
        type=_positive_int,
        default=None,
        metavar="RECORDS",
        help="shard-multiplex /link batches of at least RECORDS records "
        "over the shard executor (byte-identical to serial; default: "
        "never multiplex)",
    )
    serve.add_argument(
        "--multiplex-workers",
        type=_positive_int,
        default=None,
        help="worker processes for multiplexed batches "
        "(default: one per available CPU)",
    )
    serve.add_argument(
        "--self-test",
        type=_positive_int,
        default=None,
        metavar="ITEMS",
        help="don't serve: fire concurrent warm requests for a provider "
        "batch of ITEMS records, verify byte-identity against the "
        "one-shot path, and exit 0/1",
    )
    serve.add_argument(
        "--self-test-requests", type=_positive_int, default=8,
        help="concurrent requests in the self-test (default 8)",
    )
    serve.add_argument(
        "--self-test-workers", type=_positive_int, default=4,
        help="client threads in the self-test (default 4)",
    )
    serve.add_argument(
        "--json", action="store_true", help="self-test: emit the report as JSON"
    )
    serve.set_defaults(handler=_cmd_serve)

    export = sub.add_parser("export-rules", help="learn and export rules")
    _add_common(export)
    export.add_argument("--format", choices=("json", "turtle"), default="json")
    export.add_argument("--min-confidence", type=float, default=0.0)
    export.add_argument("--output", default="-", help="file path or '-' for stdout")
    export.set_defaults(handler=_cmd_export_rules)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
