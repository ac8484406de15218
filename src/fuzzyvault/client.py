"""Enrollment and verification against a remote vault store.

All template processing happens here, on the client.  The server only
ever sees vault documents, and local template files are destroyed the
moment they are no longer needed: after the store acknowledges an
enrollment, and after a verification reaches a decision.  A transport
or storage failure is not a decision, so the file survives it and the
operation can be retried.
"""

from __future__ import annotations

import random
from pathlib import Path

import requests

from .aligner import MatchParams
from .decoder import DEFAULT_STRATEGY, SubsetStrategy, decode_vault
from .minutiae import read_template
from .store import (
    DocumentInvalid,
    StorageUnavailable,
    VaultDocument,
    document_from_dict,
    document_from_vault,
    document_to_dict,
    vault_from_document,
)
from .vault import VaultParams, encode_vault

_TIMEOUT = 10.0  # seconds per HTTP request


class UnknownUser(Exception):
    """No vaults are enrolled under the given user id."""


def _request(send, server_url: str, expected: int, **kwargs) -> dict:
    """The JSON object the store answers on /vaults; send is requests.get or .post.

    Raises DocumentInvalid on a 400, and StorageUnavailable when the store
    cannot be reached, answers another status, or sends no JSON object.
    """
    try:
        resp = send(f"{server_url.rstrip('/')}/vaults", timeout=_TIMEOUT, **kwargs)
    except requests.RequestException as exc:
        raise StorageUnavailable(f"cannot reach vault store: {exc}") from exc
    try:
        body = resp.json()
    except ValueError:
        body = None
    if resp.status_code == 400:
        error = body.get("error") if isinstance(body, dict) else None
        raise DocumentInvalid(error if isinstance(error, str) else "request rejected")
    if resp.status_code != expected:
        raise StorageUnavailable(f"vault store returned status {resp.status_code}")
    if not isinstance(body, dict):
        raise StorageUnavailable("vault store sent a reply that is not a JSON object")
    return body


def _get_vaults(server_url: str, user_id: str) -> tuple[list[VaultDocument], int]:
    """The user's readable vault documents and the count of unreadable ones."""
    body = _request(requests.get, server_url, 200, params={"user_id": user_id})
    vaults = body.get("vaults", [])
    if not isinstance(vaults, list):
        raise StorageUnavailable(f"vault store sent a bad vault list {vaults!r}")
    unreadable = body.get("unreadable", 0)
    if not isinstance(unreadable, int) or isinstance(unreadable, bool) or unreadable < 0:
        raise StorageUnavailable(f"vault store sent a bad unreadable count {unreadable!r}")
    # validate everything that came over the wire before trusting it
    return [document_from_dict(d, require_id=True) for d in vaults], unreadable


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
    payload = document_to_dict(document_from_vault(vault, user_id))
    body = _request(requests.post, server_url, 201, json=payload)
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

    The probe file is deleted once a decision is reached, accept or
    reject.  If the store cannot be reached (StorageUnavailable), or a
    stored vault does not fit params (DocumentInvalid), there is no
    decision and the probe is kept.  When some of the user's vault files
    are corrupt, a readable vault that unlocks is still an accept; if
    none unlocks, an unreadable one might have, so StorageUnavailable is
    raised without a decision.  Raises UnknownUser when the id has no
    vaults.
    """
    if rng is None:
        rng = random.Random()
    probe_path = Path(probe_path)
    probe = read_template(probe_path, params.width, params.height)
    docs, unreadable = _get_vaults(server_url, user_id)  # probe survives a store outage
    # a vault for another configuration is no decision either
    vaults = [vault_from_document(doc, params) for doc in docs]
    decided = True
    try:
        if not vaults and not unreadable:
            raise UnknownUser(f"no vaults enrolled for user id {user_id!r}")
        for vault in vaults:
            if decode_vault(vault, probe, match_params, strategy, rng).matched:
                return True
        if unreadable:
            decided = False
            raise StorageUnavailable(f"no readable vault unlocked and {unreadable} are unreadable")
        return False
    finally:
        if decided:
            probe_path.unlink(missing_ok=True)
