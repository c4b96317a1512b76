"""Daemon error paths: every bad request gets a JSON 4xx, never a
500 traceback or a hung connection."""

import json
import socket
import threading

import pytest

from repro.serve import build_bundle, request_raw, serve_bundle

SEED = 19


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-errors") / "bundle"
    build_bundle(path, preset="tiny", seed=SEED, blocking="prefix", warm_items=15)
    return path


@pytest.fixture(scope="module")
def daemon(bundle_path):
    running = serve_bundle(bundle_path, max_body_bytes=4096)
    running.start()
    yield running
    running.shutdown()


def _post(daemon, path, **kwargs):
    host, port = daemon.address
    return request_raw(host, port, "POST", path, **kwargs)


class TestMalformedBodies:
    def test_invalid_json_is_400(self, daemon):
        status, _, body = _post(daemon, "/link", body=b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_empty_body_is_400(self, daemon):
        status, _, body = _post(daemon, "/link", body=b"")
        assert status == 400
        assert "empty request body" in body["error"]

    def test_non_object_json_is_400(self, daemon):
        status, _, body = _post(daemon, "/link", body=b"[1, 2, 3]")
        assert status == 400
        assert "JSON object" in body["error"]

    def test_delta_without_stream_is_400(self, daemon):
        status, _, body = _post(daemon, "/delta", payload={"records": []})
        assert status == 400
        assert "stream" in body["error"]


class TestUnknownTargets:
    def test_unknown_endpoint_is_404(self, daemon):
        for method, path in (("GET", "/nonsense"), ("POST", "/nonsense")):
            host, port = daemon.address
            status, _, body = request_raw(
                host, port, method, path,
                payload={"records": []} if method == "POST" else None,
            )
            assert status == 404
            assert "unknown path" in body["error"]

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_work_endpoint_is_gone(self, daemon, method):
        host, port = daemon.address
        status, _, body = request_raw(
            host, port, method, "/work",
            payload={"format": "repro-shard-work-unit"} if method == "POST" else None,
        )
        assert status == 404
        assert body == {"error": "unknown path '/work'"}

    def test_bundles_listing_is_gone(self, daemon):
        host, port = daemon.address
        status, _, body = request_raw(host, port, "GET", "/bundles")
        assert status == 404
        assert body == {"error": "unknown path '/bundles'"}

    @pytest.mark.parametrize("path", ["/link", "/delta"])
    def test_the_hosted_bundle_name_is_served(self, daemon, path):
        payload = {"records": [], "bundle": "default", "stream": "named"}
        status, _, body = _post(daemon, path, payload=payload)
        assert status == 200
        assert body["matches"] == 0

    def test_unknown_bundle_is_404(self, daemon):
        status, _, body = _post(
            daemon, "/link", payload={"records": [], "bundle": "nope"}
        )
        assert status == 404
        assert "unknown bundle 'nope'" in body["error"]

    def test_non_string_bundle_is_404(self, daemon):
        status, _, body = _post(
            daemon, "/link", payload={"records": [], "bundle": 7}
        )
        assert status == 404
        assert "bundle" in body["error"]


def _post_with_content_length(daemon, value):
    """POST a header-only request over a raw socket; read to EOF.

    The socket timeout turns a daemon that waits for a body it will
    never get into a failure instead of a hung test run.
    """
    host, port = daemon.address
    request = (
        f"POST /link HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {value}\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(request.encode("ascii"))
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestBadContentLength:
    @pytest.mark.parametrize("value", ["-1", "-4096", "abc", "1.5", "+12", ""])
    def test_is_a_json_400_and_the_connection_closes(self, daemon, value):
        status, body = _post_with_content_length(daemon, value)
        assert status == 400
        assert body == {
            "error": f"Content-Length must be a non-negative integer, "
            f"got {value!r}"
        }

    def test_daemon_still_answers_afterwards(self, daemon):
        _post_with_content_length(daemon, "-1")
        status, _, body = _post(daemon, "/link", payload={"records": []})
        assert status == 200
        assert body["matches"] == 0


class TestChunkedBodies:
    def test_chunked_post_is_one_json_error_then_eof(self, daemon):
        """A chunked body is never parsed as the next request: the daemon
        answers one JSON error and closes, so the pipelined GET after it
        gets no (HTML) reply on this connection."""
        host, port = daemon.address
        body = b'{"records": []}'
        request = (
            f"POST /link HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        ).encode("ascii")
        request += b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        request += f"GET /stats HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        reply = b"".join(chunks)
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"<html" not in reply.lower()
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 411
        assert "Transfer-Encoding" in json.loads(payload)["error"]

    def test_daemon_still_answers_afterwards(self, daemon):
        status, _, body = _post(daemon, "/link", payload={"records": []})
        assert status == 200
        assert body["matches"] == 0


class TestShutdown:
    def test_a_daemon_that_never_served_shuts_down(self, bundle_path):
        daemon = serve_bundle(bundle_path)
        stopper = threading.Thread(target=daemon.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        with pytest.raises(OSError):
            # the listening socket is closed too
            socket.create_connection(daemon.address, timeout=2.0).close()


class TestOversizedPayloads:
    def test_oversized_body_is_413_before_reading(self, daemon):
        # 4 KiB limit on this daemon; send 64 KiB of valid JSON
        status, _, body = _post(
            daemon, "/link", body=b'{"records": "' + b"x" * 65536 + b'"}'
        )
        assert status == 413
        assert "exceeds" in body["error"]

    def test_limit_sized_body_still_answers(self, daemon):
        status, _, body = _post(daemon, "/link", payload={"records": []})
        assert status == 200
        assert body["matches"] == 0


class TestNoHangsNo500s:
    def test_every_error_body_is_json(self, daemon):
        probes = [
            _post(daemon, "/link", body=b"{not json"),
            _post(daemon, "/link", body=b""),
            _post(daemon, "/link", payload={"records": [], "bundle": "nope"}),
            _post(daemon, "/nonsense", payload={}),
            _post(daemon, "/link", body=b"\xff" * 8),  # undecodable bytes
        ]
        for status, _, body in probes:
            assert 400 <= status < 500
            assert isinstance(body, dict)
            assert "error" in body
