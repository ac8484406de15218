"""Attack-cost model for vault brute force, plus a Monte-Carlo attacker.

An attacker holding a vault of v = g + c points but no matching finger
can only draw (degree+1)-subsets and interpolate until the CRC verifies.
With v_s = C(v, degree+1) subsets overall and g_s = C(g, degree+1)
all-genuine ones, the expected number of uniform without-replacement
draws until the first success is exactly (v_s + 1) / (g_s + 1), kept
here as an exact rational.  Multiplying by the measured per-attempt
interpolation time prices the attack in seconds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random
from typing import Sequence

from .decoder import try_unlock
from .vault import Vault


class DegreeTooHigh(ValueError):
    """Raised when degree + 1 exceeds the genuine count: no unlockable subset."""


class RegimeViolation(ValueError):
    """Raised outside the supported regime g >= 2 * (degree + 1)."""


@dataclass(frozen=True)
class SecurityModel:
    genuine_count: int
    chaff_count: int
    degree: int
    interpolation_seconds: float | None = None  # measured cost per attempt

    def __post_init__(self):
        if self.genuine_count < 1:
            raise ValueError("genuine_count must be >= 1")
        if self.chaff_count < 0:
            raise ValueError("chaff_count must be >= 0")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.interpolation_seconds is not None and self.interpolation_seconds <= 0:
            raise ValueError("interpolation_seconds must be positive")

    @property
    def vault_size(self) -> int:
        return self.genuine_count + self.chaff_count


@dataclass(frozen=True)
class AttackEstimate:
    vault_subsets: int  # v_s
    genuine_subsets: int  # g_s
    chaff_subsets: int  # v_s - g_s
    expected_attempts: Fraction
    expected_seconds: float | None
    bit_security: float


def subset_counts(model: SecurityModel) -> tuple[int, int, int]:
    """(v_s, g_s, c_s): total, all-genuine and remaining subset counts."""
    k = model.degree + 1
    if k > model.genuine_count:
        raise DegreeTooHigh(
            f"degree {model.degree} needs {k} genuine points, only {model.genuine_count} exist"
        )
    v_s = math.comb(model.vault_size, k)
    g_s = math.comb(model.genuine_count, k)
    return v_s, g_s, v_s - g_s


def estimate(model: SecurityModel) -> AttackEstimate:
    """Subset counts, mean draws (v_s + 1) / (g_s + 1), seconds if measured, bits."""
    v_s, g_s, c_s = subset_counts(model)
    attempts = Fraction(v_s + 1, g_s + 1)
    seconds = None
    if model.interpolation_seconds is not None:
        seconds = float(attempts) * model.interpolation_seconds
    return AttackEstimate(
        vault_subsets=v_s,
        genuine_subsets=g_s,
        chaff_subsets=c_s,
        expected_attempts=attempts,
        expected_seconds=seconds,
        bit_security=math.log2(attempts.numerator) - math.log2(attempts.denominator),
    )


@dataclass(frozen=True)
class TrendRow:
    parameter: str
    below: Fraction | None  # expected attempts at parameter - 1, if evaluable
    base: Fraction
    above: Fraction  # expected attempts at parameter + 1


def monotonicity_report(model: SecurityModel) -> list[TrendRow]:
    """Expected attempts at the base point and one step along each parameter.

    Confirms the directions that make the formula useful for sizing:
    more genuine points make attacks cheaper, more chaff and higher
    degree make them dearer.

    Raises:
        RegimeViolation: base point outside g >= 2 * (degree + 1).
    """
    k = model.degree + 1
    if model.genuine_count < 2 * k:
        raise RegimeViolation(
            f"need genuine_count >= {2 * k} for degree {model.degree}, got {model.genuine_count}"
        )
    base = estimate(model).expected_attempts
    rows = []

    g_above = estimate(replace(model, genuine_count=model.genuine_count + 1)).expected_attempts
    g_below = estimate(replace(model, genuine_count=model.genuine_count - 1)).expected_attempts
    if model.chaff_count > 0 and not g_above < base < g_below:
        raise AssertionError("expected attempts must fall as genuine_count grows")
    rows.append(TrendRow("genuine_count", g_below, base, g_above))

    c_above = estimate(replace(model, chaff_count=model.chaff_count + 1)).expected_attempts
    c_below = None
    if model.chaff_count >= 1:
        c_below = estimate(replace(model, chaff_count=model.chaff_count - 1)).expected_attempts
        if not c_below < base:
            raise AssertionError("expected attempts must rise as chaff_count grows")
    if not base < c_above:
        raise AssertionError("expected attempts must rise as chaff_count grows")
    rows.append(TrendRow("chaff_count", c_below, base, c_above))

    n_above = estimate(replace(model, degree=model.degree + 1)).expected_attempts
    n_below = None
    if model.degree > 1:
        n_below = estimate(replace(model, degree=model.degree - 1)).expected_attempts
    if model.chaff_count > 0 and not base < n_above:
        raise AssertionError("expected attempts must rise with the degree")
    if n_below is not None and model.chaff_count > 0 and not n_below < base:
        raise AssertionError("expected attempts must rise with the degree")
    rows.append(TrendRow("degree", n_below, base, n_above))
    return rows


def simulate_attack(
    vault: Vault,
    genuine: Sequence[int],
    trials: int,
    rng: Random,
) -> float:
    """Empirical mean draws to the first all-genuine subset.

    Runs the brute-force attacker at desk scale: every trial walks a fresh
    uniform permutation of all C(v, degree+1) index subsets (drawing
    without replacement, Fisher-Yates evaluated lazily) and stops at the
    first subset inside the transcript's genuine set.  That stopping
    subset is handed to try_unlock to confirm the vault really opens.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    degree = vault.params.degree
    size = degree + 1
    pool = list(itertools.combinations(range(len(vault.points)), size))
    gset = frozenset(genuine)
    total_draws = 0
    for _ in range(trials):
        order = pool[:]
        n = len(order)
        for i in range(n):
            pick = rng.randrange(i, n)
            order[i], order[pick] = order[pick], order[i]
            subset = order[i]
            if all(idx in gset for idx in subset):
                points = [vault.points[idx] for idx in subset]
                if try_unlock(points, degree) is None:
                    raise AssertionError("transcript-genuine subset failed to unlock")
                total_draws += i + 1
                break
        else:
            raise AssertionError("transcript contains no genuine subset")
    return total_draws / trials
