"""Enrollment and verification against a remote vault store.

All template processing happens here, on the client.  The server only
ever sees vault documents, and local template files are destroyed the
moment they are no longer needed: after the store acknowledges an
enrollment, and after a verification reaches a decision.  A probe is
deleted only when verify returns or raises UnknownUser; every other
exception (a transport or storage failure, a probe too sparse to
decode) is no decision, so the file survives it and the operation can
be retried.
"""

from __future__ import annotations

import http.client
import json
import random
from pathlib import Path
from urllib.parse import urlencode, urlsplit

from .aligner import MatchParams
from .decoder import DEFAULT_STRATEGY, SubsetStrategy, decode_vault
from .minutiae import read_template
from .store import (
    DocumentInvalid,
    StorageUnavailable,
    document_from_dict,
    document_from_vault,
    parse_json,
    vault_from_document,
)
from .vault import VaultParams, encode_vault

_TIMEOUT = 10.0  # seconds per HTTP request
# HTTPSConnection's default context verifies the store's certificate
_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


class UnknownUser(Exception):
    """No vaults are enrolled under the given user id."""


def _request(method: str, server_url: str, expected: int, query: str = "",
             payload: dict | None = None) -> dict:
    """The JSON object the store answers on /vaults?query; no proxy is consulted.

    Raises DocumentInvalid on a 400, and StorageUnavailable when the URL is
    not http(s) with a host and a valid port, the store cannot be reached,
    answers another status, or sends no JSON object.
    """
    headers = {} if payload is None else {"Content-Type": "application/json"}
    try:
        body = None if payload is None else json.dumps(payload, allow_nan=False).encode()
        url = urlsplit(f"{server_url.rstrip('/')}/vaults")
        connection = _CONNECTIONS.get(url.scheme)
        port = url.port  # ValueError unless a number in [0, 65535]
        if connection is None or not url.hostname:
            raise ValueError(f"{server_url!r} is not an http or https URL with a host")
        # an explicit port keeps http.client from reading one out of an IPv6 host
        port = connection.default_port if port is None else port
        conn = connection(url.hostname, port, timeout=_TIMEOUT)
        try:
            conn.request(method, f"{url.path}?{query}" if query else url.path, body, headers)
            resp = conn.getresponse()
            status, raw = resp.status, resp.read()
        finally:
            conn.close()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise StorageUnavailable(f"cannot reach vault store: {exc}") from exc
    try:
        reply = parse_json(raw)
    except ValueError:
        reply = None
    if status == 400:
        error = reply.get("error") if isinstance(reply, dict) else None
        raise DocumentInvalid(error if isinstance(error, str) else "request rejected")
    if status != expected:
        raise StorageUnavailable(f"vault store returned status {status}")
    if not isinstance(reply, dict):
        raise StorageUnavailable("vault store sent a reply that is not a JSON object")
    return reply


def _get_vaults(server_url: str, user_id: str) -> tuple[list[dict], int]:
    """The user's readable vault documents and the count of unreadable ones."""
    body = _request("GET", server_url, 200, urlencode({"user_id": user_id}))
    vaults = body.get("vaults")  # required: a 200 without it is no answer, not "no vaults"
    if not isinstance(vaults, list):
        raise StorageUnavailable(f"vault store sent a bad vault list {vaults!r}")
    unreadable = body.get("unreadable", 0)
    if not isinstance(unreadable, int) or isinstance(unreadable, bool) or unreadable < 0:
        raise StorageUnavailable(f"vault store sent a bad unreadable count {unreadable!r}")
    # validate everything that came over the wire before trusting it; a 200
    # reply with a bad document, or another user's, is the store's fault
    try:
        docs = [document_from_dict(d) for d in vaults]
    except DocumentInvalid as exc:
        raise StorageUnavailable(f"vault store sent a bad vault document: {exc}") from None
    if any(doc["user_id"] != user_id for doc in docs):
        raise StorageUnavailable(f"vault store sent a vault not filed under {user_id!r}")
    return docs, unreadable


def enroll(
    template_path,
    user_id: str,
    server_url: str,
    params: VaultParams,
    rng: random.Random | None = None,
) -> tuple[str, bytes]:
    """Encode the template, upload the vault, then destroy the template file.

    Returns (object_id, secret).  The secret never leaves this process;
    callers that only authenticate can drop it.  The template file is
    deleted only after the store acknowledges, so a failed enrollment is
    retriable.
    """
    if rng is None:
        rng = random.Random()
    template_path = Path(template_path)
    template = read_template(template_path, params.width, params.height)
    vault, secret = encode_vault(template, params, rng)
    body = _request("POST", server_url, 201, payload=document_from_vault(vault, user_id))
    object_id = body.get("object_id")
    if not isinstance(object_id, str) or not object_id:
        raise StorageUnavailable(f"enrollment not acknowledged (object id {object_id!r})")
    template_path.unlink()
    return object_id, secret


def verify(
    probe_path,
    user_id: str,
    server_url: str,
    params: VaultParams,
    match_params: MatchParams,
    strategy: SubsetStrategy = DEFAULT_STRATEGY,
    rng: random.Random | None = None,
) -> bool:
    """True if any vault enrolled under user_id unlocks with this probe.

    The probe file is deleted only when this returns (accept or reject)
    or raises UnknownUser (the id has no vaults).  Any other exception is
    no decision and keeps the probe: the store cannot be reached
    (StorageUnavailable), a stored vault does not fit params
    (DocumentInvalid) or the probe has too few minutiae
    (InsufficientMinutiae).  When some of the user's vault files are
    corrupt, a readable vault that unlocks is still an accept; if none
    unlocks, an unreadable one might have, so StorageUnavailable is raised.
    """
    if rng is None:
        rng = random.Random()
    probe_path = Path(probe_path)
    probe = read_template(probe_path, params.width, params.height)
    docs, unreadable = _get_vaults(server_url, user_id)
    vaults = [vault_from_document(doc, params) for doc in docs]
    if not vaults and not unreadable:
        probe_path.unlink(missing_ok=True)
        raise UnknownUser(f"no vaults enrolled for user id {user_id!r}")
    accepted = any(decode_vault(v, probe, match_params, strategy, rng).matched for v in vaults)
    if not accepted and unreadable:
        raise StorageUnavailable(f"no readable vault unlocked and {unreadable} are unreadable")
    probe_path.unlink(missing_ok=True)
    return accepted
