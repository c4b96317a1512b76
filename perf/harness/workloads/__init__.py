"""The six workloads, by the names ``BENCHMARK.json`` gives them."""

from __future__ import annotations

import importlib
from typing import Type

from harness.core import Workload

_MODULES = {
    "learn-classify": ("learn_classify", "LearnClassify"),
    "link-dense": ("link_dense", "LinkDense"),
    "link-sparse": ("link_sparse", "LinkSparse"),
    "link-redundant": ("link_redundant", "LinkRedundant"),
    "cli-cold": ("cli_cold", "CliCold"),
    "serve-mixed": ("serve_mixed", "ServeMixed"),
}


def workload_class(name: str) -> Type[Workload]:
    module, cls = _MODULES[name]
    return getattr(importlib.import_module(f"harness.workloads.{module}"), cls)
