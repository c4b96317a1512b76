"""A long-running linking daemon over a registry of warm sessions.

Stdlib-only HTTP front: a :class:`ThreadingHTTPServer` accepts each
connection on its own thread, but the linking work itself is admitted
through a bounded :class:`~repro.serve.queueing.RequestQueue` — at most
``queue_workers`` requests execute at once, at most ``queue_depth``
wait, and overload is answered with **503 + Retry-After** instead of an
unbounded thread pileup. Requests route by bundle name through a
:class:`~repro.serve.registry.BundleRegistry`, so one daemon hosts many
catalogs with lazy open and idle-LRU eviction.

Protocol (all JSON):

* ``GET /stats`` — daemon snapshot: queue counters (depth, rejections,
  in-flight), registry counters (opens, evictions), per-open-bundle
  session stats.
* ``GET /bundles`` — every hosted bundle (open ones with live session
  facts, closed ones from the manifest alone).
* ``POST /link`` — body ``{"records": [...], "bundle": name?}`` in the
  artifact-bundle record payload shape; responds with match counts and
  the confirmed links as canonical N-Triples (the byte-identity
  comparand). Without ``"bundle"`` the registry default answers.
* ``POST /delta`` — body ``{"stream": name, "records": [...],
  "bundle": name?}``; ingests a delta into a named cumulative stream.

Error mapping: malformed/empty JSON → 400, unknown bundle → 404,
unknown path → 404, body over ``max_body_bytes`` → 413 (rejected
before the body is read), full queue → 503. Every error body is JSON.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.serve.queueing import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_QUEUE_WORKERS,
    DEFAULT_RETRY_AFTER,
    OverloadError,
    RequestQueue,
)
from repro.serve.registry import BundleRegistry, UnknownBundleError
from repro.serve.session import LinkSession, ServeError

#: Default request-body ceiling (64 MiB of JSON records is far beyond
#: any sane provider batch; bigger bodies are rejected before reading).
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024


def link_response(result) -> Dict[str, Any]:
    """The JSON body describing one linking result.

    ``sameas_ntriples`` is the canonical serialized link set — two runs
    are byte-identical iff these strings (and the counters) are equal.
    ``executor`` is diagnostic, not part of the identity comparand
    (see :func:`repro.serve.selftest.response_identity`).
    """
    from repro.rdf.ntriples import serialize_ntriples

    return {
        "matches": len(result.matches),
        "possible": len(result.possible),
        "compared": result.compared,
        "naive_pairs": result.naive_pairs,
        "sameas_ntriples": serialize_ntriples(result.sameas_graph()),
        "executor": result.stats.executor if result.stats else None,
    }


def _make_handler(daemon: "LinkDaemon"):
    from repro.index.artifacts import ArtifactError, record_store_from_payload

    registry = daemon.registry
    request_queue = daemon.queue
    max_body = daemon.max_body_bytes

    class LinkRequestHandler(BaseHTTPRequestHandler):
        # one handler class per daemon: registry + queue ride the closure
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        def log_message(self, format: str, *args: Any) -> None:
            pass  # request logging is the caller's business, not stderr's

        def _reply(
            self,
            status: int,
            payload: Dict[str, Any],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ServeError("empty request body; expected JSON")
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeError(f"request body is not valid JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ServeError("request body must be a JSON object")
            return payload

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.rstrip("/") in ("", "/stats"):
                self._reply(200, daemon.stats())
                return
            if self.path.rstrip("/") == "/bundles":
                self._reply(200, registry.summary())
                return
            self._reply(404, {"error": f"unknown path {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length > max_body:
                    # reject before reading: the body stays on the
                    # socket, so the connection cannot be reused
                    self.close_connection = True
                    self._reply(
                        413,
                        {
                            "error": f"request body of {length} bytes "
                            f"exceeds the {max_body}-byte limit"
                        },
                    )
                    return
                payload = self._read_body()
                if self.path == "/link":
                    handle = self._handle_link
                elif self.path == "/delta":
                    handle = self._handle_delta
                else:
                    self._reply(404, {"error": f"unknown path {self.path!r}"})
                    return
                # admission first, session resolution second: a full
                # queue answers 503 without touching any bundle
                self._reply(200, request_queue.submit(lambda: handle(payload)))
            except OverloadError as exc:
                self._reply(
                    503,
                    {"error": str(exc), "retry_after": exc.retry_after},
                    headers={"Retry-After": f"{exc.retry_after:g}"},
                )
            except UnknownBundleError as exc:
                self._reply(404, {"error": str(exc)})
            except (ServeError, ArtifactError) as exc:
                self._reply(400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - defensive
                self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

        def _handle_link(self, payload: Dict[str, Any]) -> Dict[str, Any]:
            bundle = payload.pop("bundle", None)
            with registry.lease(_bundle_name(bundle)) as session:
                external = record_store_from_payload(payload)
                result = session.link(external)
                return link_response(result)

        def _handle_delta(self, payload: Dict[str, Any]) -> Dict[str, Any]:
            bundle = payload.pop("bundle", None)
            stream = payload.get("stream")
            if not isinstance(stream, str) or not stream:
                raise ServeError('delta requests need a non-empty "stream" name')
            with registry.lease(_bundle_name(bundle)) as session:
                store = record_store_from_payload(payload)
                job, delta = session.delta(stream, list(store))
                response = link_response(job.result())
                response["stream"] = stream
                response["delta"] = {
                    "index": delta.index,
                    "records": delta.records,
                    "compared": delta.compared,
                    "matches": delta.matches,
                }
                return response

    return LinkRequestHandler


def _bundle_name(raw: Any) -> Optional[str]:
    """The request's bundle field, validated to a routable shape."""
    if raw is None:
        return None
    if not isinstance(raw, str) or not raw:
        raise UnknownBundleError(
            f'request field "bundle" must be a non-empty string, got {raw!r}'
        )
    return raw


class LinkDaemon:
    """The serve daemon: a registry's warm sessions behind a queued
    threading server."""

    def __init__(
        self,
        registry: BundleRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_workers: int = DEFAULT_QUEUE_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if not isinstance(registry, BundleRegistry):
            raise TypeError(
                f"LinkDaemon serves a BundleRegistry, not a "
                f"{type(registry).__name__}; use serve_bundle(path) for one bundle"
            )
        if max_body_bytes < 1:
            raise ServeError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self._registry = registry
        self._queue = RequestQueue(
            workers=queue_workers, depth=queue_depth, retry_after=retry_after
        )
        self.max_body_bytes = max_body_bytes
        self._server = ThreadingHTTPServer((host, port), _make_handler(self))
        self._thread: Optional[threading.Thread] = None

    @property
    def registry(self) -> BundleRegistry:
        """The bundle registry answering routed requests."""
        return self._registry

    @property
    def queue(self) -> RequestQueue:
        """The bounded admission queue (counters on ``GET /stats``)."""
        return self._queue

    @property
    def session(self) -> LinkSession:
        """The default bundle's warm session (opened on first access)."""
        return self._registry.session()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves at bind)."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` body: queue + registry + open sessions."""
        registry_stats = self._registry.stats()
        sessions = {
            name: session.stats()
            for name, session in sorted(self._registry.open_sessions().items())
        }
        return {
            "default_bundle": self._registry.default_bundle,
            "queue": self._queue.stats(),
            "registry": registry_stats,
            "sessions": sessions,
        }

    def start(self) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound address."""
        self._queue.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._queue.start()
        self._server.serve_forever()

    def wait(self) -> None:
        """Block until the serving thread exits (after :meth:`shutdown`)."""
        if self._thread is not None:
            self._thread.join()

    def shutdown(self) -> None:
        """Stop serving and release the socket and worker pool."""
        self._server.shutdown()
        self._server.server_close()
        self._queue.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "LinkDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def serve_bundle(
    bundle_path: Path | str,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_size: Optional[int] = None,
    *,
    queue_workers: int = DEFAULT_QUEUE_WORKERS,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    retry_after: float = DEFAULT_RETRY_AFTER,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> LinkDaemon:
    """One bundle behind a (not yet started) daemon.

    The single-bundle convenience over :func:`serve_bundles`; the
    bundle is named ``default`` and loaded eagerly so configuration
    errors surface at startup, not on the first request.
    """
    return serve_bundles(
        {"default": Path(bundle_path)},
        host=host,
        port=port,
        cache_size=cache_size,
        queue_workers=queue_workers,
        queue_depth=queue_depth,
        retry_after=retry_after,
        max_body_bytes=max_body_bytes,
    )


def serve_bundles(
    bundles: Mapping[str, Path | str],
    *,
    default: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_size: Optional[int] = None,
    max_open: Optional[int] = None,
    queue_workers: int = DEFAULT_QUEUE_WORKERS,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    retry_after: float = DEFAULT_RETRY_AFTER,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> LinkDaemon:
    """Many named bundles behind one (not yet started) daemon.

    The default bundle is opened eagerly — a daemon that cannot answer
    its default route should fail at startup; the rest open lazily on
    first request (and idle ones are LRU-evicted past ``max_open``).
    """
    from repro.serve.registry import DEFAULT_MAX_OPEN

    registry = BundleRegistry(
        bundles,
        default=default,
        max_open=max_open if max_open is not None else DEFAULT_MAX_OPEN,
        cache_size=cache_size,
    )
    registry.session()  # eager default open: fail fast on a bad bundle
    return LinkDaemon(
        registry,
        host=host,
        port=port,
        queue_workers=queue_workers,
        queue_depth=queue_depth,
        retry_after=retry_after,
        max_body_bytes=max_body_bytes,
    )


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 60.0,
) -> Dict[str, Any]:
    """One JSON request against a running daemon (stdlib http.client).

    Raises :class:`ServeError` on any non-200 response, carrying the
    daemon's error message.
    """
    status, _, decoded = request_raw(
        host, port, method, path, payload=payload, timeout=timeout
    )
    if not isinstance(decoded, dict):
        raise ServeError(
            f"daemon returned non-JSON ({status}): {str(decoded)[:200]!r}"
        )
    if status != 200:
        raise ServeError(
            f"daemon error ({status}): {decoded.get('error', decoded)}"
        )
    return decoded


def request_raw(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    body: Optional[bytes] = None,
    timeout: float = 60.0,
) -> Tuple[int, Dict[str, str], Any]:
    """One request, returning ``(status, headers, decoded-or-raw body)``.

    The error-path and backpressure tests need the status line and the
    ``Retry-After`` header, which :func:`request_json` folds away.
    """
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read().decode("utf-8", errors="replace")
        try:
            decoded: Any = json.loads(raw)
        except json.JSONDecodeError:
            decoded = raw
        return response.status, dict(response.getheaders()), decoded
    finally:
        connection.close()
