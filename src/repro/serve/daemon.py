"""A long-running linking daemon over one warm session.

Stdlib-only HTTP front: a :class:`ThreadingHTTPServer` accepts each
connection on its own thread, but the linking work itself is admitted
through a bounded :class:`~repro.serve.queueing.RequestQueue` — at most
``queue_workers`` requests execute at once, at most ``queue_depth``
wait, and overload is answered with **503 + Retry-After** instead of an
unbounded thread pileup. One daemon hosts one bundle, named
``default``; more bundles mean more daemons.

Protocol (all JSON):

* ``GET /stats`` — daemon snapshot: queue counters (depth, rejections,
  in-flight) and the session's stats under ``sessions.default``.
* ``POST /link`` — body ``{"records": [...]}`` in the artifact-bundle
  record payload shape; responds with match counts and the confirmed
  links as canonical N-Triples (the byte-identity comparand).
* ``POST /delta`` — body ``{"stream": name, "records": [...]}``;
  ingests a delta into a named cumulative stream.

Either body may carry ``"bundle": "default"``; any other value names a
bundle this daemon does not host and is refused, never answered by the
hosted one.

Error mapping: malformed/empty JSON or a ``Content-Length`` that is not
a non-negative integer → 400, unknown bundle → 404,
unknown path → 404, body over ``max_body_bytes`` → 413 (rejected
before the body is read), full queue → 503. Every error body is JSON.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.serve.queueing import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_QUEUE_WORKERS,
    DEFAULT_RETRY_AFTER,
    OverloadError,
    RequestQueue,
)
from repro.serve.session import LinkSession, ServeError

#: Default request-body ceiling (64 MiB of JSON records is far beyond
#: any sane provider batch; bigger bodies are rejected before reading).
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: The name of the one bundle a daemon hosts.
BUNDLE_NAME = "default"


class UnknownBundleError(ServeError):
    """A request named a bundle the daemon does not host (HTTP 404)."""


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

    session = daemon.session
    request_queue = daemon.queue
    max_body = daemon.max_body_bytes

    class LinkRequestHandler(BaseHTTPRequestHandler):
        # one handler class per daemon: session + queue ride the closure
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

        def _content_length(self) -> int:
            raw = self.headers.get("Content-Length", "0")
            text = raw.strip()
            if not (text.isascii() and text.isdigit()):
                # a body of unknown length stays on the socket, so the
                # connection cannot be reused
                self.close_connection = True
                raise ServeError(
                    f"Content-Length must be a non-negative integer, got {raw!r}"
                )
            return int(text)

        def _read_body(self, length: int) -> Dict[str, Any]:
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
            self._reply(404, {"error": f"unknown path {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if "Transfer-Encoding" in self.headers:
                # the chunked body is never read, so its bytes would be
                # parsed as the next request: answer and hang up
                self.close_connection = True
                self._reply(
                    411,
                    {"error": "Transfer-Encoding bodies are not supported; "
                     "send Content-Length"},
                )
                return
            try:
                length = self._content_length()
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
                payload = self._read_body(length)
                if self.path == "/link":
                    handle = self._handle_link
                elif self.path == "/delta":
                    handle = self._handle_delta
                else:
                    self._reply(404, {"error": f"unknown path {self.path!r}"})
                    return
                # admission first, bundle check second: a full queue
                # answers 503 without touching the session
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
            _check_bundle(payload.pop("bundle", None))
            external = record_store_from_payload(payload)
            return link_response(session.link(external))

        def _handle_delta(self, payload: Dict[str, Any]) -> Dict[str, Any]:
            _check_bundle(payload.pop("bundle", None))
            stream = payload.get("stream")
            if not isinstance(stream, str) or not stream:
                raise ServeError('delta requests need a non-empty "stream" name')
            store = record_store_from_payload(payload)
            result, delta = session.delta(stream, list(store))
            response = link_response(result)
            response["stream"] = stream
            response["delta"] = {
                "index": delta.index,
                "records": delta.records,
                "compared": delta.compared,
                "matches": delta.matches,
            }
            return response

    return LinkRequestHandler


def _check_bundle(raw: Any) -> None:
    """Refuse a request whose bundle field names another bundle."""
    if raw is None:
        return
    if not isinstance(raw, str) or not raw:
        raise UnknownBundleError(
            f'request field "bundle" must be a non-empty string, got {raw!r}'
        )
    if raw != BUNDLE_NAME:
        raise UnknownBundleError(
            f"unknown bundle {raw!r}; this daemon hosts {BUNDLE_NAME!r}"
        )


class LinkDaemon:
    """The serve daemon: one warm session behind a queued threading
    server."""

    def __init__(
        self,
        session: LinkSession,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_workers: int = DEFAULT_QUEUE_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if not isinstance(session, LinkSession):
            raise TypeError(
                f"LinkDaemon serves one LinkSession, not a "
                f"{type(session).__name__}; use serve_bundle(path) to load "
                f"a bundle"
            )
        if max_body_bytes < 1:
            raise ServeError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self._session = session
        self._queue = RequestQueue(
            workers=queue_workers, depth=queue_depth, retry_after=retry_after
        )
        self.max_body_bytes = max_body_bytes
        self._server = ThreadingHTTPServer((host, port), _make_handler(self))
        self._thread: Optional[threading.Thread] = None
        # ThreadingHTTPServer.shutdown() waits for a serve_forever loop,
        # so it must not be called on a daemon that never served
        self._serving = False

    @property
    def queue(self) -> RequestQueue:
        """The bounded admission queue (counters on ``GET /stats``)."""
        return self._queue

    @property
    def session(self) -> LinkSession:
        """The warm session answering every request."""
        return self._session

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves at bind)."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` body: queue + the session's stats."""
        return {
            "default_bundle": BUNDLE_NAME,
            "queue": self._queue.stats(),
            "sessions": {BUNDLE_NAME: self._session.stats()},
        }

    def start(self) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound address."""
        self._queue.start()
        if self._thread is None:
            self._serving = True
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
        self._serving = True
        self._server.serve_forever()

    def wait(self) -> None:
        """Block until the serving thread exits (after :meth:`shutdown`)."""
        if self._thread is not None:
            self._thread.join()

    def shutdown(self) -> None:
        """Stop serving and release the socket and worker pool."""
        if self._serving:
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

    The bundle is loaded eagerly so configuration errors surface at
    startup, not on the first request.
    """
    from repro.index.artifacts import load_bundle

    return LinkDaemon(
        LinkSession(load_bundle(Path(bundle_path)), cache_size=cache_size),
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
