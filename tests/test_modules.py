"""Package hygiene: every ``repro`` module imports, documents itself and
exports only names it defines, and every document the code cites exists.

Deleting a subsystem tends to leave dangling imports, stale ``__all__``
entries and citations of files that are gone; each check here fails on
such a leftover by module name.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)
EXPORTING = [
    name for name in MODULES if hasattr(importlib.import_module(name), "__all__")
]
CITATION = re.compile(r"[\w./-]+\.md\b")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_has_a_docstring(name):
    module = importlib.import_module(name)
    assert (module.__doc__ or "").strip(), f"{name} has no module docstring"


@pytest.mark.parametrize("name", EXPORTING)
def test_exported_names_are_defined_once(name):
    module = importlib.import_module(name)
    assert not [export for export in module.__all__ if not hasattr(module, export)]
    assert len(set(module.__all__)) == len(module.__all__)


def test_cited_documents_exist():
    missing = []
    for root in ("src", "tests"):
        for path in sorted((REPO / root).rglob("*.py")):
            for cited in CITATION.findall(path.read_text(encoding="utf-8")):
                if not (REPO / cited).is_file():
                    missing.append(f"{path.relative_to(REPO)}: {cited}")
    assert not missing
