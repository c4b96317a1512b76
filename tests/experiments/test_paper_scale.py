"""The paper's headline numbers, asserted at paper scale.

Table 1 and the §5 in-text statistics are measured on one
``CatalogConfig.thales_like()`` catalog (566 classes, |TS| = 10 265)
at the paper's ``th = 0.002``; the X2 generality run uses the default
``ToponymConfig()``. ``repro table1``, ``repro stats`` and
``repro generality`` print the same reports. The envelopes are wide
enough to tolerate the synthetic catalog's calibration and tight enough
that a learner change which breaks the paper's shape fails here.
``selected_occurrences`` is the one §5 count left unpinned: the synthetic
catalog's frequency filter keeps about 11.5k occurrences to the paper's
7 058, so only its proper-subset relation is asserted.
"""

import pytest

from repro.datagen import CatalogConfig, ElectronicCatalogGenerator
from repro.datagen.toponyms import ToponymConfig, generate_gazetteer
from repro.experiments import run_generality, run_stats, run_table1
from repro.experiments.stats import PAPER_STATS
from repro.experiments.table1 import PAPER_TABLE1

SUPPORT = 0.002
BANDS = tuple(PAPER_TABLE1)

# (PAPER_STATS key, InTextStats field, relative tolerance)
STAT_ENVELOPES = (
    ("distinct_segments", "distinct_segments", 0.30),
    ("segment_occurrences", "segment_occurrences", 0.30),
    ("frequent_classes", "frequent_classes", 0.15),
    ("rules", "rule_count", 0.40),
    ("confidence_one_rules", "confidence_one_rules", 0.25),
    ("classes_with_rules", "classes_with_confident_rules", 0.25),
)


@pytest.fixture(scope="module")
def thales_catalog():
    return ElectronicCatalogGenerator(CatalogConfig.thales_like()).generate()


class TestTable1AtPaperScale:
    @pytest.fixture(scope="class")
    def report(self, thales_catalog):
        return run_table1(thales_catalog, support_threshold=SUPPORT)

    def test_top_band_is_perfect(self, report):
        assert report.row(1.0).precision > 0.999

    def test_cumulative_precision_falls_and_recall_rises(self, report):
        precisions = [row.precision for row in report.rows]
        recalls = [row.recall for row in report.rows]
        assert all(a >= b - 1e-9 for a, b in zip(precisions, precisions[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(recalls, recalls[1:]))

    def test_band_envelopes(self, report):
        # paper: 83.8 % precision at confidence 0.4, 29.0 % recall at 1
        assert 0.70 <= report.row(0.4).precision <= 0.97
        assert 0.18 <= report.row(1.0).recall <= 0.40

    @pytest.mark.parametrize("band", BANDS)
    def test_band_precision_within_five_points_of_paper(self, report, band):
        paper = PAPER_TABLE1[band]["precision"]
        assert abs(report.row(band).precision - paper) <= 0.05

    @pytest.mark.parametrize("band", BANDS)
    def test_band_recall_within_fifteen_points_of_paper(self, report, band):
        paper = PAPER_TABLE1[band]["recall"]
        assert abs(report.row(band).recall - paper) <= 0.15

    @pytest.mark.parametrize("band", BANDS)
    def test_band_rules_are_strongly_lifted(self, report, band):
        # paper: average lift 21-27 in every band
        assert report.row(band).average_lift > 15


class TestInTextStatsAtPaperScale:
    @pytest.fixture(scope="class")
    def stats(self, thales_catalog):
        return run_stats(thales_catalog, support_threshold=SUPPORT)

    @pytest.mark.parametrize(
        ("key", "field", "tolerance"),
        STAT_ENVELOPES,
        ids=[key for key, _, _ in STAT_ENVELOPES],
    )
    def test_statistic_within_envelope_of_paper(self, stats, key, field, tolerance):
        paper = PAPER_STATS[key]
        assert paper * (1 - tolerance) <= getattr(stats, field) <= paper * (1 + tolerance)

    def test_frequency_filter_selects_a_proper_subset(self, stats):
        assert 0 < stats.selected_occurrences < stats.segment_occurrences


def test_generality_on_default_toponym_domain():
    report = run_generality(generate_gazetteer(ToponymConfig()))
    assert report.total_rules > 10
    assert report.rows[0].precision > 0.999
    assert report.rows[0].recall > 0.5
