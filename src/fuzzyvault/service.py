"""Minimal HTTP front end for a vault store.

Endpoints:

* ``GET /health`` liveness probe
* ``POST /vaults`` enroll one vault document (without id), returns 201
  and the object id the store assigned; the store's put is its one check
* ``GET /vaults?user_id=...`` every vault stored for that user, as the
  JSON texts the store read, encoded again only where they are not ASCII

Every request passes one boundary: a route returns (status, payload)
or raises a typed error, and the boundary turns DocumentInvalid into
400 (the device's request is wrong) and StorageUnavailable into 503
(the device keeps its template or probe and retries).  A stored vault
file that cannot be read, is corrupt or breaks the schema is a server
fault, not a client one: the user's readable vaults come back with 200 and an
``"unreadable": n`` count, and if no file is readable the answer is
503.  A client that stops sending mid-request is dropped after
_READ_TIMEOUT seconds instead of holding a handler thread, and one that
hangs up before its reply is written is dropped without a traceback.
The server is a stdlib ThreadingHTTPServer; it exists so the client
code and the tests can exercise the real wire format, not to be an
internet-facing deployment.
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
    parse_json,
)

_MAX_BODY = 8 << 20  # bytes; a vault document is a few KB
# Seconds between shutdown checks in serve_forever; bounds how long stop() blocks.
_POLL_INTERVAL = 0.05
# Seconds a handler waits on one read or write of a client's socket before
# http.server drops the connection; the same as client._TIMEOUT.
_READ_TIMEOUT = 10.0


def _json_body(payload: dict) -> bytes:
    """payload as JSON, the documents of a "vaults" list joined in as the texts they were stored as."""
    if "vaults" not in payload:
        return json.dumps(payload).encode()
    texts = (getattr(doc, "text", None) or json.dumps(doc).encode() for doc in payload["vaults"])
    tail = b', "unreadable": %d}' % payload["unreadable"] if "unreadable" in payload else b"}"
    return b'{"vaults": [' + b", ".join(texts) + b"]" + tail


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
            timeout = _READ_TIMEOUT

            def log_message(self, fmt, *args):  # keep test output clean
                pass

            def health(self, query: str, logged: dict) -> tuple[int, dict]:
                return 200, {"status": "ok"}

            def get_vaults(self, query: str, logged: dict) -> tuple[int, dict]:
                user_ids = parse_qs(query).get("user_id", [])
                logged["user_id"] = user_ids[0] if user_ids else None
                if len(user_ids) != 1:
                    raise DocumentInvalid("exactly one user_id is required")
                try:
                    return 200, {"vaults": service.store.fetch(user_ids[0])}
                except UnreadableVaults as exc:
                    if not exc.readable:
                        raise  # nothing to serve: a plain server fault
                    return 200, {"vaults": exc.readable, "unreadable": exc.unreadable}

            def post_vault(self, query: str, logged: dict) -> tuple[int, dict]:
                # ASCII digits, few enough for int(), which alone also takes "+10" and "1_0"
                raw = (self.headers.get("Content-Length") or "").strip(" \t")
                length = int(raw) if raw.isascii() and raw.isdigit() and len(raw) < 20 else 0
                if length <= 0 or length > _MAX_BODY:
                    raise DocumentInvalid("missing, malformed or oversized body")
                try:
                    data = parse_json(self.rfile.read(length))
                except ValueError:  # bad JSON or bytes that are not UTF-8
                    raise DocumentInvalid("body is not valid JSON") from None
                logged["request"] = data
                object_id = service.store.put(data)
                return 201, {"object_id": object_id}

            def unknown(self, query: str, logged: dict) -> tuple[int, dict]:
                return 404, {"error": "unknown path"}

            routes = {("GET", "/health"): health, ("GET", "/vaults"): get_vaults,
                      ("POST", "/vaults"): post_vault}

            def _serve(self, method: str):
                url = urlparse(self.path)
                logged = {"method": method, "path": url.path}
                route = self.routes.get((method, url.path), Handler.unknown)
                try:
                    status, payload = route(self, url.query, logged)
                except DocumentInvalid as exc:
                    status, payload = 400, {"error": str(exc)}
                except StorageUnavailable as exc:
                    status, payload = 503, {"error": str(exc)}
                # log first: once the body is written the client may read the log
                if service.wire_log is not None:
                    service.wire_log.append({**logged, "status": status, "response": payload})
                body = _json_body(payload)
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    self.close_connection = True  # the client hung up; nobody to answer

            def do_GET(self):
                self._serve("GET")

            def do_POST(self):
                self._serve("POST")

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
