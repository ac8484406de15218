"""Reference code for placement: minutia selection, chaff and synthetic
templates as first written, each with its own copy of the spacing rule and
a linear scan of every placed point and, for chaff and synthetic templates,
its own rejection loop; and vault encoding as first written, projecting
each point with scalar poly_eval as it is drawn.

The shipped functions test spacing in one cell grid inside minutiae, draw
through minutiae.place_spaced and project every vault point in one batched
call; they must return the same values and leave the rng in the same state.
"""

import random
from random import Random
from typing import Sequence

from fuzzyvault.minutiae import (
    ChaffExhausted,
    InsufficientMinutiae,
    Minutia,
    Template,
    encode_minutia,
)
from fuzzyvault import gf32
from fuzzyvault.vault import (
    WORD_BITS,
    Vault,
    VaultParams,
    VaultPoint,
    generate_secret,
    secret_polynomial,
)

# Rejection-sampling attempts per chaff point before giving up.
CHAFF_ATTEMPTS = 10_000

DEFAULT_MIN_DISTANCE = 8.0  # generation floor between synthetic minutiae, px


def select_minutiae(template: Template, count: int, points_distance: float) -> list[Minutia]:
    """Pick ``count`` well-separated minutiae, best quality first.

    Greedy scan in descending quality (ties keep file order); a minutia is
    accepted only if its distance to every already-accepted one is at
    least ``points_distance``.

    Raises:
        InsufficientMinutiae: the scan ran out before reaching ``count``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    ranked = sorted(template.minutiae, key=lambda m: -m.quality)
    min_d2 = points_distance * points_distance
    chosen: list[Minutia] = []
    for m in ranked:
        if all((m.x - c.x) ** 2 + (m.y - c.y) ** 2 >= min_d2 for c in chosen):
            chosen.append(m)
            if len(chosen) == count:
                return chosen
    raise InsufficientMinutiae(
        f"template yields {len(chosen)} separated minutiae, {count} required; rescan the finger"
    )


def generate_chaff(genuine: Sequence[Minutia], params: VaultParams, rng: Random) -> list[Minutia]:
    """Draw chaff minutiae that blend in with the genuine ones.

    Each chaff point is uniform in-bounds, keeps points_distance to every
    vault minutia placed before it, encodes to a word at least half the
    smallest genuine encoding (so chaff cannot be skimmed off the bottom
    of the X range), and never collides with another vault encoding.

    Raises:
        ChaffExhausted: a point failed CHAFF_ATTEMPTS rejection draws.
    """
    if not genuine:
        raise ValueError("genuine minutiae required before placing chaff")
    placed = [(m.x, m.y) for m in genuine]
    reps = {encode_minutia(m) for m in genuine}
    min_rep = min(reps)
    min_d2 = params.points_distance**2
    chaff: list[Minutia] = []
    for _ in range(params.chaff_count):
        for _ in range(CHAFF_ATTEMPTS):
            x = rng.randrange(params.width)
            y = rng.randrange(params.height)
            if any((x - px) ** 2 + (y - py) ** 2 < min_d2 for px, py in placed):
                continue
            m = Minutia(x, y, rng.uniform(0.0, 360.0) % 360.0)
            rep = encode_minutia(m)
            if 2 * rep < min_rep or rep in reps:
                continue
            break
        else:
            raise ChaffExhausted(
                f"no admissible chaff position after {CHAFF_ATTEMPTS} attempts "
                f"(placed {len(chaff)} of {params.chaff_count})"
            )
        placed.append((x, y))
        reps.add(rep)
        chaff.append(m)
    return chaff


def synth_template(
    seed: int,
    minutia_count: int,
    width: int = 400,
    height: int = 560,
    min_distance: float = DEFAULT_MIN_DISTANCE,
) -> Template:
    """Deterministic random template: same seed, same template.

    Coordinates are uniform in-bounds with pairwise distance at least
    min_distance, orientations uniform, qualities uniform in [1, 100].
    """
    rng = random.Random(seed)
    placed: list[Minutia] = []
    min_d2 = min_distance * min_distance
    attempts = 10_000 * max(1, minutia_count)
    while len(placed) < minutia_count:
        attempts -= 1
        if attempts < 0:
            raise RuntimeError(
                f"cannot place {minutia_count} minutiae {min_distance}px apart in {width}x{height}"
            )
        x = rng.randrange(width)
        y = rng.randrange(height)
        if any((x - m.x) ** 2 + (y - m.y) ** 2 < min_d2 for m in placed):
            continue
        theta = rng.uniform(0.0, 360.0) % 360.0
        placed.append(Minutia(x, y, theta, rng.randint(1, 100)))
    return Template(tuple(placed), width, height)


def encode_vault(template: Template, params: VaultParams, rng: Random) -> tuple[Vault, bytes]:
    """Lock a fresh secret under the template's best minutiae.

    Returns the vault together with the secret so tests and transcripts can
    verify it; production callers discard the secret (any later match
    reproduces it).  The points are uniformly shuffled, so the vault carries
    no ordering signal separating genuine from chaff.

    Raises:
        InsufficientMinutiae: template cannot supply genuine_count minutiae.
        ChaffExhausted: chaff constraints are unsatisfiable.
    """
    genuine = select_minutiae(template, params.genuine_count, params.points_distance)
    g_reps = [encode_minutia(m) for m in genuine]
    if len(set(g_reps)) != len(g_reps):
        raise InsufficientMinutiae("selected minutiae collide in their 32-bit encoding; rescan the finger")

    secret = generate_secret(params.degree, rng)
    coeffs = secret_polynomial(secret, params.degree)
    points = [VaultPoint(rep, gf32.poly_eval(coeffs, rep)) for rep in g_reps]

    for m in generate_chaff(genuine, params, rng):
        rep = encode_minutia(m)
        on_curve = gf32.poly_eval(coeffs, rep)
        y = rng.getrandbits(WORD_BITS)
        while y == on_curve:
            y = rng.getrandbits(WORD_BITS)
        points.append(VaultPoint(rep, y))

    rng.shuffle(points)
    return Vault(params, tuple(points)), secret
