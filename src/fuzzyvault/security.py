"""Attack-cost model for vault brute force.

An attacker holding a vault of v = g + c points but no matching finger
can only draw (degree+1)-subsets and interpolate until the CRC verifies.
With v_s = C(v, degree+1) subsets overall and g_s = C(g, degree+1)
all-genuine ones, the expected number of uniform without-replacement
draws until the first success is exactly (v_s + 1) / (g_s + 1), kept
here as an exact rational.  Multiplying by the measured per-attempt
interpolation time prices the attack in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class DegreeTooHigh(ValueError):
    """Raised when degree + 1 exceeds the genuine count: no unlockable subset."""


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
        seconds = self.interpolation_seconds
        if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
            raise ValueError(f"interpolation_seconds must be positive and finite, got {seconds}")

    @property
    def vault_size(self) -> int:
        return self.genuine_count + self.chaff_count


@dataclass(frozen=True)
class AttackEstimate:
    vault_subsets: int  # v_s
    genuine_subsets: int  # g_s
    chaff_subsets: int  # v_s - g_s
    expected_attempts: Fraction
    expected_seconds: float | int | None  # an int only past the float range
    bit_security: float


def float_or_int(value: Fraction) -> float | int:
    """value as a float, or as the nearest int when it is past the float range."""
    try:
        return float(value)
    except OverflowError:
        return round(value)


def estimate(model: SecurityModel) -> AttackEstimate:
    """Subset counts, mean draws (v_s + 1) / (g_s + 1), seconds if measured, bits."""
    k = model.degree + 1
    if k > model.genuine_count:
        raise DegreeTooHigh(
            f"degree {model.degree} needs {k} genuine points, only {model.genuine_count} exist"
        )
    v_s = math.comb(model.vault_size, k)
    g_s = math.comb(model.genuine_count, k)
    attempts = Fraction(v_s + 1, g_s + 1)
    seconds = None
    if model.interpolation_seconds is not None:
        seconds = float_or_int(attempts * Fraction(model.interpolation_seconds))
    return AttackEstimate(
        vault_subsets=v_s,
        genuine_subsets=g_s,
        chaff_subsets=v_s - g_s,
        expected_attempts=attempts,
        expected_seconds=seconds,
        bit_security=math.log2(attempts.numerator) - math.log2(attempts.denominator),
    )
