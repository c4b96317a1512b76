"""The repo benchmark's harness: see ``perf/README.md``.

``perf/run.py`` is the entry point; every workload runs in its own
interpreter through :mod:`harness.child`. Nothing here imports
``repro.bench`` (the legacy benchmark subsystem).
"""
