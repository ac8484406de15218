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


def _get_vaults(server_url: str, user_id: str) -> tuple[list[VaultDocument], int]:
    """The user's readable vault documents and the count of unreadable ones."""
    try:
        resp = requests.get(
            f"{server_url.rstrip('/')}/vaults", params={"user_id": user_id}, timeout=_TIMEOUT
        )
    except requests.RequestException as exc:
        raise StorageUnavailable(f"cannot reach vault store: {exc}") from exc
    if resp.status_code == 400:
        raise DocumentInvalid(resp.json().get("error", "request rejected"))
    if resp.status_code != 200:
        raise StorageUnavailable(f"vault store returned status {resp.status_code}")
    body = resp.json()
    unreadable = body.get("unreadable", 0)
    if not isinstance(unreadable, int) or isinstance(unreadable, bool) or unreadable < 0:
        raise StorageUnavailable(f"vault store sent a bad unreadable count {unreadable!r}")
    # validate everything that came over the wire before trusting it
    return [document_from_dict(d, require_id=True) for d in body.get("vaults", [])], unreadable


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
    try:
        resp = requests.post(f"{server_url.rstrip('/')}/vaults", json=payload, timeout=_TIMEOUT)
    except requests.RequestException as exc:
        raise StorageUnavailable(f"cannot reach vault store: {exc}") from exc
    if resp.status_code == 400:
        raise DocumentInvalid(resp.json().get("error", "document rejected"))
    if resp.status_code != 201:
        raise StorageUnavailable(f"enrollment not acknowledged (status {resp.status_code})")
    object_id = resp.json()["object_id"]
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
