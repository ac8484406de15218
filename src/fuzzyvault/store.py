"""Vault documents and the stores that hold them.

A stored vault is deliberately skeletal: an object id, the owning user
id, the polynomial degree and the (X, Y) point list.  Nothing else is
accepted, because anything else risks leaking template or secret
material onto a host we treat as untrusted.  validate_document_dict is
the single gate both the wire format and the at-rest format must pass,
and in process a document is the JSON object (a dict) that passed it;
fetch returns it as a StoredDocument, which keeps its text for a reply.
"""

from __future__ import annotations

import json
import os
import re
import threading
import uuid
from pathlib import Path

from .vault import (
    Vault,
    VaultParams,
    VaultPoint,
    check_integer,
    check_keys,
    check_point_pairs,
)

_USER_ID_RE = re.compile(r"[A-Za-z0-9._-]{1,64}")


class DocumentInvalid(ValueError):
    """A vault document violates the storage schema."""


class StorageUnavailable(RuntimeError):
    """The vault store cannot be reached or cannot complete an operation."""


class UnreadableVaults(StorageUnavailable):
    """Some of a user's stored vault files are unreadable or corrupt; readable holds the others."""

    def __init__(self, message: str, readable: list[StoredDocument], unreadable: int):
        super().__init__(message)
        self.readable = readable
        self.unreadable = unreadable


class StoredDocument(dict):
    """A fetched document; text is the JSON it was stored as when those bytes can
    go into a reply as they are: plain ASCII, as both stores write.  It is None
    for the UTF-8 with a BOM, UTF-16 or UTF-32 that json.loads also reads."""

    def __init__(self, doc: dict, raw: bytes):
        super().__init__(doc)
        self.text = raw if raw.isascii() and b"\0" not in raw else None


def parse_json(text):
    """json.loads at every boundary (vault file, request or reply body, file at rest),
    where JSON nested past the parser's recursion limit is a ValueError, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def check_user_id(user_id) -> None:
    """Raise DocumentInvalid unless user_id is safe as one directory name."""
    if (not isinstance(user_id, str) or not _USER_ID_RE.fullmatch(user_id)
            or not user_id.strip(".")):
        raise DocumentInvalid("user_id must match [A-Za-z0-9._-]{1,64} and not be all dots")


def document_from_vault(vault: Vault, user_id: str) -> dict:
    """The wire document of a vault enrolled under user_id."""
    return {"user_id": user_id, "n": vault.params.degree, "points": [[x, y] for x, y in vault.points]}


def vault_from_document(doc: dict, params: VaultParams) -> Vault:
    """Rebuild a decodable Vault under the deployment's enrollment parameters.

    The document deliberately stores no parameters beyond the degree, so
    the verifier must know the enrollment configuration out of band.
    """
    if doc["n"] != params.degree:
        raise DocumentInvalid(f"document degree {doc['n']} != configured {params.degree}")
    if len(doc["points"]) != params.vault_size:
        raise DocumentInvalid(
            f"document has {len(doc['points'])} points, configuration expects {params.vault_size}"
        )
    return Vault(params, tuple(map(VaultPoint._make, doc["points"])))


def validate_document_dict(data, require_id: bool) -> None:
    """Reject anything that is not exactly a vault document.

    Raises DocumentInvalid with a reason; returning means the dict has
    exactly the allowed keys (vault.check_keys) and every field is well
    formed under the field rules local vault files share.
    """
    try:
        keys = {"id", "user_id", "n", "points"} if require_id else {"user_id", "n", "points"}
        check_keys(data, keys, "document")
        if require_id and (not isinstance(data["id"], str) or not data["id"]):
            raise ValueError("id must be a non-empty string")
        check_user_id(data["user_id"])
        check_integer(data["n"], "n")
        if data["n"] < 1:
            raise ValueError("n must be >= 1")
        check_point_pairs(data["points"])
    except ValueError as exc:
        raise DocumentInvalid(str(exc)) from None
    n = data["n"]
    if len(data["points"]) < n + 1:
        raise DocumentInvalid(f"need at least {n + 1} points for degree {n}")


def document_from_dict(data) -> dict:
    """data itself, once validate_document_dict has passed it as a stored document."""
    validate_document_dict(data, require_id=True)
    return data


def _file_document(doc: dict) -> tuple[str, bytes]:
    """(a fresh object id, the compact JSON text filed under it) for a wire document,
    which may not carry "id": the store alone names vaults.  The C encoder writes
    compact JSON (indent=2 forces the Python one); files written indented still load."""
    validate_document_dict(doc, require_id=False)
    object_id = uuid.uuid4().hex
    return object_id, json.dumps({"id": object_id, **doc}, separators=(",", ":")).encode()


class MemoryVaultStore:
    """In-process store, mainly for tests and the demo server's --memory mode;
    it keeps JSON text, so no caller can alter a stored document."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_user: dict[str, list[bytes]] = {}

    def put(self, doc: dict) -> str:
        object_id, text = _file_document(doc)
        with self._lock:
            self._by_user.setdefault(doc["user_id"], []).append(text)
        return object_id

    def fetch(self, user_id: str) -> list[StoredDocument]:
        check_user_id(user_id)
        with self._lock:
            return [StoredDocument(json.loads(text), text) for text in self._by_user.get(user_id, [])]


class FileVaultStore:
    """One compact JSON file per vault under root/<user_id>/<object_id>.json.

    Each write goes to its own uniquely named dot-prefixed temp file,
    then fsync, then os.replace, so a crash can leave a stale temp file
    but never a half-written document.  fetch lists only non-dot *.json
    files, so a reader sees a whole document or none; no lock is held.
    Construction removes the temp files a crashed writer left behind, so
    one store object must own its root.  fetch raises UnreadableVaults,
    carrying the readable documents, when any of the user's files cannot
    be read, is corrupt or holds another user's document; only a failure
    to list the user's directory raises StorageUnavailable.
    """

    def __init__(self, root):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            for stale in self.root.glob("*/.*.tmp"):
                stale.unlink(missing_ok=True)
        except OSError as exc:
            raise StorageUnavailable(f"cannot create store root {self.root}: {exc}") from exc

    def put(self, doc: dict) -> str:
        object_id, text = _file_document(doc)
        user_dir = self.root / doc["user_id"]
        final = user_dir / f"{object_id}.json"
        tmp = user_dir / f".{uuid.uuid4().hex}.tmp"
        try:
            user_dir.mkdir(exist_ok=True)
            with open(tmp, "xb") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
        except OSError as exc:
            raise StorageUnavailable(f"cannot persist vault: {exc}") from exc
        return object_id

    def fetch(self, user_id: str) -> list[StoredDocument]:
        check_user_id(user_id)
        user_dir = self.root / user_id
        if not user_dir.is_dir():
            return []
        docs = []
        corrupt = []
        try:
            paths = sorted(p for p in user_dir.glob("*.json") if not p.name.startswith("."))
        except OSError as exc:
            raise StorageUnavailable(f"cannot read vaults: {exc}") from exc
        for path in paths:
            try:
                raw = path.read_bytes()
                doc = document_from_dict(parse_json(raw))
                if doc["user_id"] != user_id:
                    raise ValueError(f"document of user {doc['user_id']!r}")
                docs.append(StoredDocument(doc, raw))
            except (OSError, ValueError) as exc:
                # a file that cannot be read, bad JSON, bad encoding, a schema violation
                # or another user's document: the request was fine, the store is not
                corrupt.append(f"{path.name}: {exc}")
        if corrupt:
            raise UnreadableVaults(
                f"corrupt vault file: {'; '.join(corrupt)}", readable=docs, unreadable=len(corrupt)
            )
        return docs
