"""Brute-force cost analysis: exact rationals, trends and the simulator."""

import math
import random
from fractions import Fraction

import pytest

from fuzzyvault.security import (
    AttackEstimate,
    DegreeTooHigh,
    SecurityModel,
    estimate,
)
from fuzzyvault.evaluation import synth_template
from fuzzyvault.vault import VaultParams, encode_vault, genuine_indices
from security_oracle import simulate_attack


def test_subset_counts_closed_form():
    est = estimate(SecurityModel(35, 300, 8))
    assert est.vault_subsets == math.comb(335, 9)
    assert est.genuine_subsets == math.comb(35, 9)
    assert est.chaff_subsets == est.vault_subsets - est.genuine_subsets


def test_expected_attempts_published_value_n8():
    e = estimate(SecurityModel(35, 300, 8)).expected_attempts
    assert abs(float(e) - 1.86e9) / 1.86e9 < 0.01


def test_expected_attempts_published_value_n12():
    e = estimate(SecurityModel(35, 300, 12)).expected_attempts
    assert abs(float(e) - 6e13) / 6e13 < 0.05


def test_expected_attempts_exact_rational_identity():
    for g, c, n in [(35, 300, 8), (30, 340, 8), (5, 20, 2), (10, 40, 3)]:
        est = estimate(SecurityModel(g, c, n))
        v_s, g_s, e = est.vault_subsets, est.genuine_subsets, est.expected_attempts
        assert e * (g_s + 1) == v_s + 1  # no float round-off anywhere
        assert 1 <= e <= v_s


def test_no_chaff_means_one_attempt():
    assert estimate(SecurityModel(30, 0, 8)).expected_attempts == 1


def test_degree_too_high():
    with pytest.raises(DegreeTooHigh):
        estimate(SecurityModel(8, 300, 8))  # needs n+1 = 9 genuine


def expected_seconds(g, c, n, seconds):
    return estimate(SecurityModel(g, c, n, interpolation_seconds=seconds)).expected_seconds


def test_expected_time_scales_linearly():
    base = expected_seconds(35, 300, 8, 0.01)
    assert abs(base - 1.86e7) / 1.86e7 < 0.01
    assert expected_seconds(35, 300, 8, 0.02) == 2 * base
    assert expected_seconds(30, 0, 8, 0.01) == 0.01


@pytest.mark.parametrize("seconds", [0.0, -1.0, math.nan, math.inf])
def test_model_refuses_a_latency_that_is_not_positive_and_finite(seconds):
    with pytest.raises(ValueError, match="interpolation_seconds"):
        SecurityModel(35, 300, 8, interpolation_seconds=seconds)


def test_expected_time_requires_measurement():
    assert estimate(SecurityModel(35, 300, 8)).expected_seconds is None


def test_bit_security_published_values():
    bits8 = estimate(SecurityModel(35, 300, 8)).bit_security
    assert round(bits8) in (30, 31)
    assert abs(bits8 - 30.8) < 0.1
    bits12 = estimate(SecurityModel(35, 300, 12)).bit_security
    assert round(bits12) == 46
    assert abs(bits12 - 45.8) < 0.15


def test_bit_security_zero_when_one_attempt():
    assert estimate(SecurityModel(30, 0, 8)).bit_security == 0.0


def test_estimate_bundles_consistent_fields():
    est = estimate(SecurityModel(35, 300, 8, interpolation_seconds=0.01))
    assert isinstance(est, AttackEstimate)
    assert est.chaff_subsets == est.vault_subsets - est.genuine_subsets
    assert est.expected_seconds == pytest.approx(float(est.expected_attempts) * 0.01)
    assert est.bit_security == pytest.approx(math.log2(float(est.expected_attempts)), abs=1e-9)


def test_monotonicity_directions():
    def attempts(g=35, c=300, n=8):
        return estimate(SecurityModel(g, c, n)).expected_attempts

    base = attempts()
    assert attempts(g=36) < base < attempts(g=34)  # more genuine points, easier attack
    assert attempts(c=299) < base < attempts(c=301)
    assert attempts(n=7) < base < attempts(n=9)


def make_transcript(g, c, n, seed):
    rng = random.Random(seed)
    t = synth_template(seed, 40)
    vault, secret = encode_vault(t, VaultParams(n, g, c, 10.0, 400, 560), rng)
    return vault, set(genuine_indices(vault, secret))


def test_simulate_no_chaff_is_always_first_draw():
    vault, genuine = make_transcript(4, 0, 2, seed=50)
    mean = simulate_attack(vault, genuine, trials=50, rng=random.Random(51))
    assert mean == 1.0


def test_simulate_matches_exact_expectation():
    # (g=5, c=20, n=2): E = (C(25,3)+1)/(C(5,3)+1) = 2301/11
    vault, genuine = make_transcript(5, 20, 2, seed=52)
    exact = Fraction(math.comb(25, 3) + 1, math.comb(5, 3) + 1)
    assert exact == Fraction(2301, 11)
    mean = simulate_attack(vault, genuine, trials=3000, rng=random.Random(53))
    assert abs(mean - float(exact)) / float(exact) < 0.10


def test_simulate_single_genuine_subset():
    # g = n+1 leaves exactly one winning subset: E = (C(v,k)+1)/2
    vault, genuine = make_transcript(3, 4, 2, seed=54)
    exact = (math.comb(7, 3) + 1) / 2
    mean = simulate_attack(vault, genuine, trials=4000, rng=random.Random(55))
    assert abs(mean - exact) / exact < 0.10
