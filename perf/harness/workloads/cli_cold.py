"""``cli-cold``: what a ``repro link`` user waits for.

Three cold child processes per op, on the small preset: the default
flags (``auto`` routing), ``--blocking rules-strict`` (a job large
enough for a pool to pay) and ``--executor worker`` (every shard
crosses the serialized work-unit boundary).

The CLI seeds its catalog and its provider batch from one ``--seed``,
and the candidate-pair count of a fixed ``--test-items`` moves by 17 to
20 % between seeds. So set-up generates the same catalog in-process and
picks, per seed, the ``--test-items`` whose planned scoring work
(``stages.planned_cost``) is closest to the variant's target: about
4 000 pairs for the small job, 50 000 for the large one. The CLI's own
``compared`` figure must then equal the planned pair count.
"""

from __future__ import annotations

import re
import subprocess
import sys
from typing import Dict, List, Tuple

from harness import stages
from harness.core import Outcome, Tracer, Workload, child_env, digest, lower_quartile, now

CLI_TIMEOUT_S = 60.0
MIN_CONFIDENCE = 0.4
SUPPORT = 0.002  # the CLI's default
VARIANTS = {
    "small": [],
    "large": ["--blocking", "rules-strict"],
    "worker": ["--executor", "worker"],
}
SIZES = {
    False: {"preset": "small", "small": 108_000, "large": 1_350_000},
    True: {"preset": "tiny", "small": 4_000, "large": 27_000},
}
_LINKED = re.compile(r"\((\d+) of \d+ pairs compared\)")
_F1 = re.compile(r"F1=([0-9.]+)")
_ENGINE = re.compile(r"compared \d+ pairs in ([0-9.]+)s")


class CliCold(Workload):
    name = "cli-cold"
    rss_from_children = True
    cpu = None  # the CLI sizes its pool from the affinity mask it inherits

    def setup(self) -> None:
        from repro.core.learner import LearnerConfig, RuleLearner
        from repro.datagen.catalog import PART_NUMBER, ElectronicCatalogGenerator
        from repro.datagen.config import CatalogConfig
        from repro.linking import FieldComparator, RecordComparator, RecordStore, ThresholdMatcher

        size = SIZES[self.quick]
        preset = CatalogConfig.tiny if self.quick else CatalogConfig.small
        self.catalog = self.timed(
            "datagen.generate_s",
            lambda: ElectronicCatalogGenerator(preset(seed=self.seed)).generate(),
        )
        self.layer["rdf.graph_triples"] = len(self.catalog.local_graph)
        self.local = self.timed(
            "linking.store_build_s",
            lambda: RecordStore.from_graph(self.catalog.local_graph, stages.field_map("pn")),
        )
        self.rules = RuleLearner(
            LearnerConfig(properties=(PART_NUMBER,), support_threshold=SUPPORT)
        ).learn(self.catalog.to_training_set())
        self.unseen = len(self.catalog.items) - len(self.catalog.links)
        small_items, small_pairs = self._calibrate("prefix", size["small"])
        large_items, large_pairs = self._calibrate("rules-strict", size["large"])
        self.items = {"small": small_items, "large": large_items, "worker": small_items}
        self.planned = {"small": small_pairs, "large": large_pairs, "worker": small_pairs}
        self.comparator = RecordComparator([FieldComparator("pn")])
        self.matcher = ThresholdMatcher(0.9)

    def teardown(self) -> None:
        self.catalog = self.local = self.rules = None

    # -- sizing ---------------------------------------------------------
    def _inputs(self, kind: str, items: int):
        """The external store and blocking method ``repro link`` builds
        for ``--test-items`` *items* under this seed."""
        from repro.core.classifier import RuleClassifier
        from repro.experiments.throughput import provider_batch
        from repro.linking import RecordStore, RuleBasedBlocking, StandardBlocking

        graph, _ = provider_batch(self.catalog, items, seed=self.seed)
        external = RecordStore.from_graph(graph, stages.field_map("pn"))
        if kind == "prefix":
            return external, StandardBlocking.on_field_prefix("pn", length=4)
        return external, RuleBasedBlocking(
            RuleClassifier(self.rules.with_min_confidence(MIN_CONFIDENCE)),
            self.catalog.ontology,
            graph,
            fallback_full=False,
        )

    def _planned_work(self, kind: str, items: int) -> int:
        external, method = self._inputs(kind, items)
        return sum(stages.planned_cost(method, external, self.local).values())

    def _calibrate(self, kind: str, target: int) -> Tuple[int, int]:
        """``(--test-items, planned pairs)`` whose planned work is
        closest to *target*."""
        probe = min(300, self.unseen)
        guess = round(probe * target / max(1, self._planned_work(kind, probe)))
        step = max(1, guess // 40)
        options = {min(self.unseen, max(2, guess + k * step)) for k in range(-6, 7)}
        work = {items: self._planned_work(kind, items) for items in sorted(options)}
        best = min(work, key=lambda items: (abs(work[items] - target), items))
        external, method = self._inputs(kind, best)
        return best, sum(1 for _ in method.candidate_pairs(external, self.local))

    # -- the op ---------------------------------------------------------
    def _command(self, variant: str) -> List[str]:
        return [
            *(sys.executable, "-m", "repro", "link"),
            *("--preset", SIZES[self.quick]["preset"]),
            *("--seed", str(self.seed)),
            *("--test-items", str(self.items[variant])),
            *VARIANTS[variant],
        ]

    def _invoke(self, variant: str):
        """One cold invocation: ``(wall, stdout lines, failure)``."""
        started = now()
        try:
            proc = subprocess.run(
                self._command(variant),
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return now() - started, [], f"{variant}: no exit within {CLI_TIMEOUT_S:.0f}s"
        wall = now() - started
        lines = proc.stdout.splitlines()
        failure = None
        compared = _LINKED.search(lines[0]) if lines else None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            failure = f"{variant}: exit {proc.returncode} {tail[0]}"
        elif any(line.startswith("fallback:") for line in lines):
            failure = f"{variant}: degraded execution"
        elif compared is None or int(compared.group(1)) != self.planned[variant]:
            failure = f"{variant}: compared pairs differ from the planned {self.planned[variant]}"
        return wall, lines, failure

    def _round(self, tracer: Tracer) -> Outcome:
        walls, heads, failure, quality = {}, {}, None, None
        for variant in VARIANTS:
            with tracer.span(f"cli.invoke.{variant}") as counts:
                wall, lines, failed = self._invoke(variant)
                engine = _ENGINE.search("\n".join(lines))
                counts["engine_s"] = float(engine.group(1)) if engine else 0.0
            walls[variant] = wall
            heads[variant] = lines[:2]
            failure = failure or failed
            f1 = _F1.search(lines[1]) if len(lines) > 1 else None
            if variant == "small" and f1:
                quality = float(f1.group(1))
        return Outcome(
            wall=sum(walls.values()),
            parts=walls,
            digest=digest(heads),
            quality=quality,
            failure=failure,
        )

    def op(self) -> Outcome:
        return self._round(Tracer(enabled=False))

    def native(self, outcomes: List[Outcome]) -> Dict[str, float]:
        def wall(variant: str) -> float:
            return lower_quartile([o.parts[variant] for o in outcomes if variant in o.parts])

        return {
            "op_wall_s": lower_quartile([o.wall for o in outcomes]),
            "cli_small_s": wall("small"),
            "cli_large_s": wall("large"),
            "cli_worker_s": wall("worker"),
        }

    # ------------------------------------------------------------------
    def _python(self, tracer: Tracer, name: str, *argv: str) -> None:
        with tracer.span(name):
            subprocess.run(
                [sys.executable, *argv],
                env=child_env(),
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
                check=True,
            )

    def _job(self, blocking, executor: str):
        from repro.engine import JobConfig, LinkingJob

        return LinkingJob(
            blocking, self.comparator, self.matcher, JobConfig(executor=executor, workers=2)
        )

    def replay(self, tracer: Tracer) -> Outcome:
        """The round, then the in-process stages its walls are made of:
        import, the worker variant's wire legs, pool bring-up, and the
        large job under the serial and shard executors."""
        from repro.engine import DEFAULT_CACHE_SIZE
        from repro.engine.executors import protocol
        from repro.engine.executors.worker import run_unit_subprocess
        from repro.engine.shard import ShardPlan
        from repro.linking import RecordStore

        started = now()
        with tracer.span("perf.op"):
            outcome = self._round(tracer)
            self._python(tracer, "cli.import_s", "-c", "import repro.cli")
            self._python(tracer, "cli.help_s", "-m", "repro", "--help")

            external, prefix = self._inputs("prefix", self.items["worker"])
            with tracer.span("engine.wire_encode_s") as counts:
                plan = ShardPlan.build(2, prefix.shard_block_sizes(external, self.local))
                units = protocol.build_work_units(
                    prefix,
                    self.comparator,
                    self.matcher,
                    external,
                    self.local,
                    plan,
                    "pairwise",
                    DEFAULT_CACHE_SIZE,
                )
                texts = [protocol.encode_work_unit(unit) for unit in units]
                counts["bytes"] = sum(len(text) for text in texts)
            replies = []
            for text in texts:
                with tracer.span("engine.wire_unit_roundtrip_s"):
                    replies.append(run_unit_subprocess(text))
            with tracer.span("engine.wire_execute_s"):
                protocol.execute_work_unit(protocol.decode_work_unit(texts[0]))
            with tracer.span("engine.wire_decode_s") as counts:
                for reply in replies:
                    protocol.decode_worker_result(reply)
                counts["bytes"] = sum(len(reply) for reply in replies)

            one = RecordStore(list(external)[:1])
            for executor in ("serial", "process", "shard"):
                with tracer.span(f"engine.one_record.{executor}"):
                    self._job(prefix, executor).run(one, self.local)
            external, strict = self._inputs("rules-strict", self.items["large"])
            for executor in ("serial", "shard"):
                with tracer.span(f"engine.large.{executor}"):
                    self._job(strict, executor).run(external, self.local)
        outcome.wall = now() - started
        return outcome

    def layer_metrics(self, tracer: Tracer) -> Dict[str, float]:
        duration = tracer.duration
        wire_bytes = tracer.count("engine.wire_encode_s", "bytes") + tracer.count(
            "engine.wire_decode_s", "bytes"
        )
        serial = duration("engine.one_record.serial")
        shard = duration("engine.large.shard")
        out = {
            name: duration(name)
            for name in (
                "cli.import_s",
                "cli.help_s",
                "engine.wire_encode_s",
                "engine.wire_unit_roundtrip_s",
                "engine.wire_execute_s",
                "engine.wire_decode_s",
            )
        }
        out["engine.wire_bytes_per_pair"] = wire_bytes / self.planned["worker"]
        out["engine.pool_bringup_s.process"] = duration("engine.one_record.process") - serial
        out["engine.pool_bringup_s.shard"] = duration("engine.one_record.shard") - serial
        out["engine.shard_speedup"] = duration("engine.large.serial") / shard if shard else 0.0
        for variant in VARIANTS:
            out[f"cli.engine_s.{variant}"] = tracer.count(f"cli.invoke.{variant}", "engine_s")
        return out
