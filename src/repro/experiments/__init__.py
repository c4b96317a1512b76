"""Experiment harness: every table, figure and in-text statistic.

One module per experiment family (``docs/benchmarks.md`` maps each id
to its ``repro`` command and the test that pins it):

* :mod:`repro.experiments.table1` — **T1**: the paper's Table 1
  (confidence bands -> #rules, #decisions, precision, recall, lift);
* :mod:`repro.experiments.stats` — **S1/S2**: the in-text §5 statistics
  (segment counts, threshold selection, classes with indicative
  segments, space-reduction claims);
* :mod:`repro.experiments.sweeps` — **A1/A2/A4**: support-threshold
  sweep, segmentation-strategy ablation, scalability in |TS|;
* :mod:`repro.experiments.blocking_comparison` — **A3**: rule-based
  reduction vs the classic blocking baselines (through the engine);
* :mod:`repro.experiments.throughput` — ``provider_batch``, the
  shared generator of out-of-sample provider records;
* :mod:`repro.experiments.generalization` — **X1**: the future-work
  subsumption generalization.

Every experiment module exposes a ``run_*`` function returning a
dataclass report and a ``main()`` that prints the paper-style table;
``python -m repro.experiments.table1`` etc. work from the command line.
"""

from repro.experiments.table1 import Table1Report, Table1Row, run_table1
from repro.experiments.stats import InTextStats, run_stats
from repro.experiments.sweeps import (
    SupportSweepRow,
    run_support_sweep,
    SegmentationRow,
    run_segmentation_ablation,
    ScalabilityRow,
    run_scalability,
)
from repro.experiments.blocking_comparison import (
    BlockingComparisonRow,
    run_blocking_comparison,
)
from repro.experiments.throughput import provider_batch
from repro.experiments.generalization import (
    GeneralizationReport,
    run_generalization,
)
from repro.experiments.generality import (
    GeneralityReport,
    run_generality,
)
from repro.experiments.ordering_ablation import (
    OrderingRow,
    run_ordering_ablation,
)

__all__ = [
    "Table1Report",
    "Table1Row",
    "run_table1",
    "InTextStats",
    "run_stats",
    "SupportSweepRow",
    "run_support_sweep",
    "SegmentationRow",
    "run_segmentation_ablation",
    "ScalabilityRow",
    "run_scalability",
    "BlockingComparisonRow",
    "run_blocking_comparison",
    "provider_batch",
    "GeneralizationReport",
    "run_generalization",
    "GeneralityReport",
    "run_generality",
    "OrderingRow",
    "run_ordering_ablation",
]
