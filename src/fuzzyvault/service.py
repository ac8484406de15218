"""Minimal HTTP front end for a vault store.

Endpoints:

* ``GET /health`` liveness probe
* ``POST /vaults`` enroll one vault document (without id), returns 201
  and the assigned object id
* ``GET /vaults?user_id=...`` every vault stored for that user

Schema violations in a request return 400.  Storage faults return 503.
A stored vault file that is corrupt or breaks the schema is a server
fault, not a client one: the user's readable vaults come back with 200
and an ``"unreadable": n`` count, and if no file is readable the answer
is 503.  The server is a stdlib ThreadingHTTPServer; it exists so the
client code and the tests can exercise the real wire format, not to be
an internet-facing deployment.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .store import (
    DocumentInvalid,
    StorageUnavailable,
    UnreadableVaults,
    document_from_dict,
    document_to_dict,
)

_MAX_BODY = 8 << 20  # bytes; a vault document is a few KB
# Seconds between shutdown checks in serve_forever; bounds how long stop() blocks.
_POLL_INTERVAL = 0.05


class VaultStoreService:
    """Serve a store on 127.0.0.1; port 0 picks a free port.

    wire_log, when given, receives one dict per handled request with
    the parsed request and response payloads, so tests can assert on
    exactly what crossed the wire.
    """

    def __init__(self, store, host: str = "127.0.0.1", port: int = 0, wire_log: list | None = None):
        self.store = store
        self.wire_log = wire_log
        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # keep test output clean
                pass

            def _reply(self, status: int, payload: dict, logged: dict | None = None):
                # log first: once the body is written the client may read the log
                if service.wire_log is not None:
                    entry = dict(logged or {})
                    entry["status"] = status
                    entry["response"] = payload
                    service.wire_log.append(entry)
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                url = urlparse(self.path)
                logged = {"method": "GET", "path": url.path}
                if url.path == "/health":
                    self._reply(200, {"status": "ok"}, logged)
                    return
                if url.path == "/vaults":
                    params = parse_qs(url.query)
                    user_ids = params.get("user_id", [])
                    logged["user_id"] = user_ids[0] if user_ids else None
                    if len(user_ids) != 1:
                        self._reply(400, {"error": "exactly one user_id is required"}, logged)
                        return
                    unreadable = 0
                    try:
                        docs = service.store.fetch(user_ids[0])
                    except DocumentInvalid as exc:
                        self._reply(400, {"error": str(exc)}, logged)
                        return
                    except UnreadableVaults as exc:
                        if not exc.readable:
                            self._reply(503, {"error": str(exc)}, logged)
                            return
                        docs, unreadable = exc.readable, exc.unreadable
                    except StorageUnavailable as exc:
                        self._reply(503, {"error": str(exc)}, logged)
                        return
                    payload = {"vaults": [document_to_dict(d) for d in docs]}
                    if unreadable:
                        payload["unreadable"] = unreadable
                    self._reply(200, payload, logged)
                    return
                self._reply(404, {"error": "unknown path"}, logged)

            def do_POST(self):
                url = urlparse(self.path)
                logged = {"method": "POST", "path": url.path}
                if url.path != "/vaults":
                    self._reply(404, {"error": "unknown path"}, logged)
                    return
                try:
                    length = int(self.headers.get("Content-Length") or 0)
                except ValueError:
                    length = 0
                if length <= 0 or length > _MAX_BODY:
                    self._reply(400, {"error": "missing, malformed or oversized body"}, logged)
                    return
                raw = self.rfile.read(length)
                try:
                    data = json.loads(raw)
                except ValueError:  # bad JSON or bytes that are not UTF-8
                    self._reply(400, {"error": "body is not valid JSON"}, logged)
                    return
                logged["request"] = data
                try:
                    doc = document_from_dict(data, require_id=False)
                    object_id = service.store.put(doc)
                except DocumentInvalid as exc:
                    self._reply(400, {"error": str(exc)}, logged)
                    return
                except StorageUnavailable as exc:
                    self._reply(503, {"error": str(exc)}, logged)
                    return
                self._reply(201, {"object_id": object_id}, logged)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def serve_forever(self):
        self._server.serve_forever(_POLL_INTERVAL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False
