"""Fixtures for the scenario regression layer.

The session-scoped ``scenario_report`` runner lives in the top-level
``tests/conftest.py`` so the batched-scoring differential layer under
``tests/engine`` shares the same memoized reports.
"""

from pathlib import Path

import pytest

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"


@pytest.fixture(scope="session")
def snapshot_update(request):
    return request.config.getoption("--snapshot-update")
