"""Integration tests for the experiment harness (small catalog).

These check the *shape* invariants the reproduction claims, on a fast
small-scale catalog. The paper-scale Table 1, §5 statistics and X2
numbers are asserted in ``test_paper_scale.py``; ``docs/benchmarks.md``
maps each paper result to the CLI command that regenerates it.
"""

import pytest

from repro.datagen import CatalogConfig, ElectronicCatalogGenerator
from repro.datagen.catalog import MANUFACTURER, PART_NUMBER
from repro.engine import JobConfig, LinkingJob
from repro.experiments import (
    run_blocking_comparison,
    run_generalization,
    run_scalability,
    run_segmentation_ablation,
    run_stats,
    run_support_sweep,
    run_table1,
)
from repro.experiments.table1 import PAPER_TABLE1
from repro.experiments.throughput import provider_batch
from repro.linking import (
    FieldComparator,
    RecordComparator,
    RecordStore,
    StandardBlocking,
    ThresholdMatcher,
)
from repro.rdf import serialize_ntriples


@pytest.fixture(scope="module")
def catalog():
    return ElectronicCatalogGenerator(CatalogConfig.small()).generate()


class TestTable1:
    @pytest.fixture(scope="class")
    def report(self):
        cat = ElectronicCatalogGenerator(CatalogConfig.small()).generate()
        return run_table1(cat, support_threshold=0.004)

    def test_four_bands(self, report):
        assert [row.confidence_threshold for row in report.rows] == [1.0, 0.8, 0.6, 0.4]

    def test_top_band_precision_is_one(self, report):
        assert report.row(1.0).precision == pytest.approx(1.0)

    def test_precision_decreases_cumulatively(self, report):
        precisions = [row.precision for row in report.rows]
        assert all(a >= b - 1e-9 for a, b in zip(precisions, precisions[1:]))

    def test_recall_increases_cumulatively(self, report):
        recalls = [row.recall for row in report.rows]
        assert all(a <= b + 1e-9 for a, b in zip(recalls, recalls[1:]))

    def test_band_rules_sum_to_confident_rules(self, report):
        assert sum(row.n_rules for row in report.rows) <= report.total_rules

    def test_decisions_nonnegative_and_bounded(self, report):
        total_decided = sum(row.n_decisions for row in report.rows)
        assert 0 < total_decided <= report.total_links

    def test_eligible_bounded_by_ts(self, report):
        assert 0 < report.eligible_items <= report.total_links

    def test_format_contains_paper_columns(self, report):
        text = report.format()
        assert "paper" in text
        assert "conf" in text

    def test_row_lookup_unknown(self, report):
        with pytest.raises(KeyError):
            report.row(0.5)

    def test_paper_reference_shape(self):
        # PAPER_TABLE1 itself encodes the shape we claim to match
        precisions = [PAPER_TABLE1[t]["precision"] for t in (1.0, 0.8, 0.6, 0.4)]
        recalls = [PAPER_TABLE1[t]["recall"] for t in (1.0, 0.8, 0.6, 0.4)]
        assert precisions == sorted(precisions, reverse=True)
        assert recalls == sorted(recalls)
        assert all(PAPER_TABLE1[t]["lift"] > 20 for t in PAPER_TABLE1)


class TestStats:
    def test_fields_consistent(self, catalog):
        stats = run_stats(catalog, support_threshold=0.004)
        assert stats.total_links == catalog.config.n_links
        assert 0 < stats.distinct_segments <= stats.segment_occurrences
        assert stats.selected_occurrences <= stats.segment_occurrences
        assert stats.confidence_one_rules <= stats.rule_count
        assert stats.classes_with_confident_rules <= stats.frequent_classes

    def test_format_mentions_paper(self, catalog):
        text = run_stats(catalog, support_threshold=0.004).format()
        assert "paper" in text
        assert "7842" in text


class TestSupportSweep:
    def test_rule_count_decreases_with_threshold(self, catalog):
        rows = run_support_sweep(catalog, thresholds=(0.002, 0.01, 0.05))
        counts = [row.n_rules for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_precision_tends_up_with_threshold(self, catalog):
        rows = run_support_sweep(catalog, thresholds=(0.002, 0.05))
        assert rows[-1].precision >= rows[0].precision - 0.05

    def test_row_format(self, catalog):
        (row,) = run_support_sweep(catalog, thresholds=(0.01,))
        assert "%" in row.format()

    def test_a1_trade_off_over_the_paper_sweep(self, catalog):
        rows = run_support_sweep(
            catalog, thresholds=(0.0005, 0.001, 0.002, 0.005, 0.01)
        )
        counts = [row.n_rules for row in rows]
        assert counts == sorted(counts, reverse=True)
        low, high = rows[0], rows[-1]
        assert high.precision >= low.precision
        assert low.recall >= high.recall


class TestSegmentationAblation:
    def test_all_strategies_reported(self, catalog):
        rows = run_segmentation_ablation(catalog, support_threshold=0.004)
        names = {row.strategy for row in rows}
        assert {"separator", "bigram", "trigram"} <= names

    def test_bigram_has_fewer_distinct_segments(self, catalog):
        rows = {
            row.strategy: row
            for row in run_segmentation_ablation(catalog, support_threshold=0.004)
        }
        # only 36^2 bigrams exist over [a-z0-9]
        assert rows["bigram"].distinct_segments < rows["separator"].distinct_segments

    def test_separator_most_precise(self, catalog):
        rows = {
            row.strategy: row
            for row in run_segmentation_ablation(catalog, support_threshold=0.004)
        }
        assert rows["separator"].precision >= rows["bigram"].precision - 0.05

    def test_a2_separator_beats_ngrams_and_tokens(self, catalog):
        rows = {
            row.strategy: row
            for row in run_segmentation_ablation(catalog, support_threshold=0.004)
        }
        assert rows["bigram"].segment_occurrences > (
            rows["separator"].segment_occurrences * 2
        )
        assert rows["separator"].precision > rows["bigram"].precision
        assert rows["token"].recall < rows["separator"].recall


class TestScalability:
    def test_rows_and_timings(self):
        rows = run_scalability(
            sizes=(200, 400),
            base_config=CatalogConfig.tiny(),
        )
        assert [row.n_links for row in rows] == [200, 400]
        assert all(row.learn_seconds >= 0 for row in rows)
        assert all(row.classify_seconds >= 0 for row in rows)


class TestBlockingComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        cat = ElectronicCatalogGenerator(CatalogConfig.small()).generate()
        return run_blocking_comparison(
            cat, n_test_items=100, support_threshold=0.004
        )

    def test_all_methods_present(self, rows):
        names = {row.method for row in rows}
        assert any("rule-based" in n for n in names)
        assert any("standard" in n for n in names)
        assert any("sorted" in n for n in names)
        assert any("bigram" in n for n in names)
        assert any("canopy" in n for n in names)

    def test_metrics_in_range(self, rows):
        for row in rows:
            assert 0.0 <= row.reduction_ratio <= 1.0
            assert 0.0 <= row.pairs_completeness <= 1.0
            assert 0.0 <= row.pairs_quality <= 1.0

    def test_a3_rule_based_floors(self, rows):
        by_name = {row.method: row for row in rows}
        assert by_name["rule-based (strict)"].reduction_ratio > 0.7
        assert by_name["rule-based (paper)"].pairs_completeness > 0.9

    def test_rule_based_with_fallback_is_complete_when_strict_is_subset(self, rows):
        by_name = {row.method: row for row in rows}
        fallback = by_name["rule-based (paper)"]
        strict = by_name["rule-based (strict)"]
        assert fallback.pairs_completeness >= strict.pairs_completeness
        assert strict.reduction_ratio >= fallback.reduction_ratio

    def test_rows_carry_engine_throughput(self, rows):
        for row in rows:
            assert row.seconds >= 0.0
            assert row.pairs_per_second >= 0.0
            assert 0.0 <= row.reuse_rate <= 1.0


class TestProviderBatch:
    """``provider_batch``: the external side of every linking run."""

    def test_one_twin_per_requested_item(self, catalog):
        graph, truth = provider_batch(catalog, 50, seed=5)
        assert len(truth) == 50
        assert len({external for external, _ in truth}) == 50
        # a corrupted part number and the item's manufacturer per twin
        assert len(graph) == 100

    def test_twins_are_out_of_sample(self, catalog):
        _, truth = provider_batch(catalog, 50, seed=5)
        trained = {link.local for link in catalog.links}
        assert not trained & {local for _, local in truth}

    def test_seed_fixes_the_batch(self, catalog):
        first, first_truth = provider_batch(catalog, 30, seed=5)
        again, again_truth = provider_batch(catalog, 30, seed=5)
        other, other_truth = provider_batch(catalog, 30, seed=6)
        assert serialize_ntriples(first) == serialize_ntriples(again)
        assert first_truth == again_truth
        assert other_truth != first_truth

    def test_size_caps_at_the_unseen_items(self, catalog):
        trained = {link.local for link in catalog.links}
        unseen = sum(1 for item in catalog.items if item.iri not in trained)
        _, truth = provider_batch(catalog, unseen + 10, seed=5)
        assert len(truth) == unseen

    def test_prefix_blocking_links_a_batch_well(self, catalog):
        field_map = {"pn": PART_NUMBER, "maker": MANUFACTURER}
        graph, truth = provider_batch(catalog, 200)
        result = LinkingJob(
            StandardBlocking.on_field_prefix("pn", length=4),
            RecordComparator(
                [FieldComparator("pn", weight=2.0), FieldComparator("maker", weight=1.0)]
            ),
            ThresholdMatcher(match_threshold=0.9),
            JobConfig(executor="serial", chunk_size=512),
        ).run(
            RecordStore.from_graph(graph, field_map),
            RecordStore.from_graph(catalog.local_graph, field_map),
        )
        assert result.stats.executor == "serial"
        assert result.compared > 0
        assert 0.0 <= result.stats.cache_hit_rate <= 1.0
        # prefix blocking on lightly corrupted part numbers links well
        assert result.matching_quality(truth).f1 > 0.8


class TestGeneralization:
    def test_report_consistency(self, catalog):
        report = run_generalization(
            catalog, support_threshold=0.004, max_depth_lift=None
        )
        assert report.extended_decisions >= report.base_decisions
        assert report.extended_recall >= report.base_recall - 1e-9
        assert report.n_generalized_rules >= 0
        assert "generalization" in report.format()


class TestOrderingAblation:
    def test_rows_for_all_strategies(self, catalog):
        from repro.experiments import run_ordering_ablation

        rows = run_ordering_ablation(
            catalog, support_threshold=0.004, sample=400
        )
        assert {row.strategy for row in rows} == {"paper", "cba", "subspace"}

    def test_coverage_identical_across_strategies(self, catalog):
        from repro.experiments import run_ordering_ablation

        rows = run_ordering_ablation(
            catalog, support_threshold=0.004, sample=400
        )
        assert len({row.decided_items for row in rows}) == 1

    def test_paper_ordering_is_as_good_as_subspace_ordering(self, catalog):
        from repro.experiments import run_ordering_ablation

        by_name = {
            row.strategy: row
            for row in run_ordering_ablation(
                catalog, support_threshold=0.004, sample=400
            )
        }
        assert by_name["subspace"].reduced_pairs <= by_name["paper"].reduced_pairs
        assert by_name["paper"].top_decision_accuracy >= (
            by_name["subspace"].top_decision_accuracy - 0.02
        )

    def test_metrics_in_range(self, catalog):
        from repro.experiments import run_ordering_ablation

        for row in run_ordering_ablation(
            catalog, support_threshold=0.004, sample=400
        ):
            assert 0.0 <= row.top_decision_accuracy <= 1.0
            assert row.reduced_pairs >= 0
            assert "x" in row.format()


class TestGenerality:
    def test_second_domain_report(self):
        from repro.datagen.toponyms import ToponymConfig, generate_gazetteer
        from repro.experiments import run_generality

        gazetteer = generate_gazetteer(
            ToponymConfig(n_links=400, catalog_size=1000)
        )
        report = run_generality(gazetteer)
        assert report.total_rules > 5
        assert report.rows[0].precision == 1.0
        recalls = [row.recall for row in report.rows]
        assert all(a <= b + 1e-9 for a, b in zip(recalls, recalls[1:]))
        assert "toponym" in report.format()
