"""``repro.serve`` — the warm-start linking service.

A cold ``repro link`` run spends most of its wall clock on work that is
identical across runs: generating the catalog, building the local
record store, learning rules and constructing key indexes.
:func:`~repro.serve.build.build_bundle` does that once and persists it
as a versioned artifact bundle (:mod:`repro.index.artifacts`);
:class:`~repro.serve.session.LinkSession` opens a bundle O(1) and
answers link/delta requests byte-identically to the one-shot path;
:class:`~repro.serve.daemon.LinkDaemon` puts one session behind a
threading HTTP server whose work is admitted through a bounded
:class:`~repro.serve.queueing.RequestQueue` (overload → 503 +
``Retry-After``), so many clients share one warm engine without thread
pileup. One daemon hosts one bundle; more bundles mean more daemons.
Every request runs serially on the session's shared thread-safe cache.
"""

from repro.serve.build import build_bundle
from repro.serve.daemon import (
    DEFAULT_MAX_BODY_BYTES,
    LinkDaemon,
    link_response,
    request_json,
    request_raw,
    serve_bundle,
)
from repro.serve.queueing import OverloadError, RequestQueue
from repro.serve.selftest import cold_reference, response_identity, run_self_test
from repro.serve.session import (
    BLOCKING_NAMES,
    STREAMABLE_BLOCKING,
    LinkSession,
    ServeError,
    make_blocking,
)

__all__ = [
    "BLOCKING_NAMES",
    "DEFAULT_MAX_BODY_BYTES",
    "STREAMABLE_BLOCKING",
    "LinkDaemon",
    "LinkSession",
    "OverloadError",
    "RequestQueue",
    "ServeError",
    "build_bundle",
    "cold_reference",
    "link_response",
    "make_blocking",
    "request_json",
    "request_raw",
    "response_identity",
    "run_self_test",
    "serve_bundle",
]
