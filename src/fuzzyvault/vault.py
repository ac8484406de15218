"""Vault encoding: secret generation, CRC binding, chaff synthesis and
polynomial projection.

A vault binds a random secret to a minutia template.  The secret plus its
CRC-32 become the coefficients of a polynomial p over GF(2^32); each
selected genuine minutia contributes a true point (X, p(X)), and chaff
points with off-polynomial Y values hide which is which.  Only a reading
that lands degree+1 genuine points reproduces coefficients whose constant
term is the CRC of the rest.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from random import Random
from typing import NamedTuple, Sequence

from . import gf32
from .minutiae import (COORD_MAX, InsufficientMinutiae, Minutia, Template, encode_minutia,
                       pack_minutia, place_spaced, select_minutiae)

WORD_BITS = 32
_WORD_LIMIT = 1 << WORD_BITS
WORD_BYTES = 4


class LengthMismatch(ValueError):
    """Raised when a secret has the wrong length for the polynomial degree."""


@dataclass(frozen=True)
class VaultParams:
    degree: int  # polynomial degree n; the secret is 32*n bits
    genuine_count: int  # g: genuine minutiae per vault
    chaff_count: int  # c: chaff points per vault
    points_distance: float  # minimum pixel distance between vault minutiae
    width: int
    height: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.genuine_count < self.degree + 1:
            raise ValueError("genuine_count must be at least degree + 1")
        if self.chaff_count < 0:
            raise ValueError("chaff_count must be >= 0")
        if not 0 <= self.points_distance < float("inf"):  # NaN fails too
            raise ValueError("points_distance must be a finite number >= 0")
        if not (1 <= self.width <= COORD_MAX + 1 and 1 <= self.height <= COORD_MAX + 1):
            raise ValueError(f"image dimensions must be in [1, {COORD_MAX + 1}]")

    @property
    def vault_size(self) -> int:
        return self.genuine_count + self.chaff_count


class VaultPoint(NamedTuple):
    """One (X, Y) vault pair: X an encoded minutia, Y a field element."""

    X: int
    Y: int


@dataclass(frozen=True)
class Vault:
    params: VaultParams
    points: tuple[VaultPoint, ...]


def generate_secret(degree: int, rng: Random) -> bytes:
    """Uniform random secret of 32 * degree bits."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    bits = WORD_BITS * degree
    return rng.getrandbits(bits).to_bytes(bits // 8, "big")


def secret_polynomial(secret: bytes, degree: int) -> list[int]:
    """The CRC-protected polynomial a vault binds to the given secret.

    The constant term is the CRC-32 of the secret; the secret's big-endian
    32-bit words follow in reverse, so its first word is the coefficient of
    x^degree.

    Raises:
        LengthMismatch: the secret is not exactly 32*degree bits.
    """
    want = WORD_BYTES * degree
    if len(secret) != want:
        raise LengthMismatch(f"expected {want} bytes for degree {degree}, got {len(secret)}")
    words = [int.from_bytes(secret[i : i + WORD_BYTES], "big") for i in range(0, want, WORD_BYTES)]
    return [zlib.crc32(secret), *reversed(words)]


def secret_from_polynomial(coefficients: Sequence[int]) -> bytes | None:
    """Inverse of secret_polynomial: the secret, or None if the CRC fails."""
    body = b"".join(c.to_bytes(WORD_BYTES, "big") for c in reversed(coefficients[1:]))
    return body if zlib.crc32(body) == coefficients[0] else None


def generate_chaff(genuine: Sequence[Minutia], params: VaultParams, rng: Random) -> list[int]:
    """Draw chaff points that blend in with the genuine minutiae; their words.

    place_spaced puts each point in bounds, spaced from every vault minutia
    placed before it; its word packs theta = 360 * random() = uniform(0, 360)
    through pack_minutia, is at least half the smallest genuine word (so chaff
    cannot be skimmed off the bottom of the X range) and repeats none.

    Raises:
        ChaffExhausted: a point failed CHAFF_ATTEMPTS rejection draws.
    """
    if not genuine:
        raise ValueError("genuine minutiae required before placing chaff")
    reps = {encode_minutia(m) for m in genuine}
    min_rep, random = min(reps), rng.random

    def finish(x: int, y: int) -> int | None:
        rep = pack_minutia(x, y, 360.0 * random())
        if 2 * rep >= min_rep and rep not in reps:
            reps.add(rep)
            return rep
        return None  # below the X floor or a collision

    return place_spaced("chaff point", params.chaff_count, params.width, params.height,
                        params.points_distance, rng, finish, around=genuine)


def encode_vault(template: Template, params: VaultParams, rng: Random) -> tuple[Vault, bytes]:
    """Lock a fresh secret under the template's best minutiae.

    Returns the vault together with the secret so tests and transcripts can
    verify it; production callers discard the secret (any later match
    reproduces it).  The points are uniformly shuffled, so the vault carries
    no ordering signal separating genuine from chaff.

    Raises:
        ValueError: the template's image size is not the params' one, in
            which chaff is placed.
        InsufficientMinutiae: template cannot supply genuine_count minutiae.
        ChaffExhausted: chaff constraints are unsatisfiable.
    """
    if (template.width, template.height) != (params.width, params.height):
        raise ValueError(f"template image is {template.width}x{template.height} px, "
                         f"vault parameters say {params.width}x{params.height}")
    genuine = select_minutiae(template, params.genuine_count, params.points_distance)
    g_reps = [encode_minutia(m) for m in genuine]
    if len(set(g_reps)) != len(g_reps):
        raise InsufficientMinutiae("selected minutiae collide in their 32-bit encoding; rescan the finger")

    secret = generate_secret(params.degree, rng)
    coeffs = secret_polynomial(secret, params.degree)
    c_reps = generate_chaff(genuine, params, rng)
    # chaff placement ends before the first Y draw, so one projection of
    # every point leaves the rng stream as drawing point by point would
    on_curve = gf32.poly_eval_many(coeffs, g_reps + c_reps)
    points = [VaultPoint(rep, y) for rep, y in zip(g_reps, on_curve)]
    for rep, y_on in zip(c_reps, on_curve[len(g_reps):]):
        y = rng.getrandbits(WORD_BITS)
        while y == y_on:
            y = rng.getrandbits(WORD_BITS)
        points.append(VaultPoint(rep, y))

    rng.shuffle(points)
    return Vault(params, tuple(points)), secret


def genuine_indices(vault: Vault, secret: bytes) -> tuple[int, ...]:
    """Positions of the on-polynomial points; the generation transcript.

    Only callable by whoever knows the secret, i.e. tests and analysis.
    """
    coeffs = secret_polynomial(secret, vault.params.degree)
    on_curve = gf32.poly_eval_many(coeffs, [pt.X for pt in vault.points])
    return tuple(i for i, (pt, y) in enumerate(zip(vault.points, on_curve)) if pt.Y == y)


def check_keys(data, expected: set[str], what: str) -> None:
    """Require a JSON object with exactly the expected keys.

    The key rule of every vault format, local file or stored document: a
    missing field is not defaulted and an extra one is not ignored.

    Raises:
        ValueError: names the missing and the unexpected keys.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing, extra = expected - set(data), set(data) - expected
    if missing or extra:
        raise ValueError(f"bad {what} keys: missing {sorted(missing)}, unexpected {sorted(extra)}")


def check_integer(value, name: str) -> None:
    """Require an integer; bool is refused although Python counts it as one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")


def check_point_pairs(pairs) -> None:
    """Require a JSON list of [X, Y] vault point pairs.

    The one point rule of every vault format, local file or stored
    document: X and Y are integers in [0, 2^32), checked by check_integer.

    Raises:
        ValueError: names the first entry that breaks the rule.
    """
    if not isinstance(pairs, list):
        raise ValueError("points must be a list")
    for i, entry in enumerate(pairs):
        # a list of two plain ints passes on one test; anything else gets the full rule
        if type(entry) is list and len(entry) == 2:
            x, y = entry
            if type(x) is int and type(y) is int and 0 <= x < _WORD_LIMIT and 0 <= y < _WORD_LIMIT:
                continue
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"points[{i}] must be a [X, Y] pair")
        for coord in entry:
            check_integer(coord, f"points[{i}] coordinates")
            if not 0 <= coord < _WORD_LIMIT:
                raise ValueError(f"points[{i}] coordinates must fit in {WORD_BITS} bits")


# Local vault file parameters, in file order: JSON key -> VaultParams field.
_PARAM_KEYS = {
    "n": "degree",
    "g": "genuine_count",
    "c": "chaff_count",
    "pd": "points_distance",
    "width": "width",
    "height": "height",
}


def vault_to_dict(vault: Vault) -> dict:
    """JSON-ready form of a vault for local files; carries its parameters."""
    return {
        "params": {key: getattr(vault.params, field) for key, field in _PARAM_KEYS.items()},
        "points": [[pt.X, pt.Y] for pt in vault.points],
    }


def vault_from_dict(data) -> Vault:
    """Inverse of vault_to_dict, under the field rules of every vault format.

    Both levels hold exactly the keys vault_to_dict writes (check_keys);
    n, g, c, width and height are integers (check_integer), pd is a
    number, and the points follow check_point_pairs.  Nothing is coerced.

    Raises:
        ValueError: the document is malformed or its point count does not
            match its parameters.
    """
    try:
        check_keys(data, {"params", "points"}, "vault")
        raw = data["params"]
        check_keys(raw, set(_PARAM_KEYS), "params")
        for key in ("n", "g", "c", "width", "height"):
            check_integer(raw[key], f"params.{key}")
        if isinstance(raw["pd"], bool) or not isinstance(raw["pd"], (int, float)):
            raise ValueError("params.pd must be a number")
        params = VaultParams(**{field: raw[key] for key, field in _PARAM_KEYS.items()})
        check_point_pairs(data["points"])
    except ValueError as exc:
        raise ValueError(f"malformed vault document: {exc}") from exc
    points = tuple(map(VaultPoint._make, data["points"]))
    if len(points) != params.vault_size:
        raise ValueError(f"expected {params.vault_size} points, found {len(points)}")
    return Vault(params, points)
