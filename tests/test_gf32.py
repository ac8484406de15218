"""Field arithmetic checked against independent schoolbook oracles."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzyvault import gf32
from gf32_oracle import _is_irreducible, find_irreducible, gf_mul as shift_xor_mul
from gf32_oracle import gf_inv as fermat_inv
from gf32_oracle import lagrange_interpolate as scalar_interpolate


# --- oracles: naive bit-twiddling implementations kept deliberately dumb ---

def clmul(a: int, b: int) -> int:
    """Carry-less multiply, no reduction."""
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        shift += 1
        b >>= 1
    return out


def poly_remainder(a: int, m: int) -> int:
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def mul_oracle(a: int, b: int) -> int:
    return poly_remainder(clmul(a, b), gf32.REDUCTION_POLYNOMIAL)


def irreducible_by_trial_division(f: int) -> bool:
    deg = f.bit_length() - 1
    for d in range(2, 1 << (deg // 2 + 1)):
        if poly_remainder(f, d) == 0:
            return False
    return True


def eval_oracle(coeffs, x):
    """Power-sum evaluation: sum c_i * x^i, powers by repeated shift-and-xor products."""
    acc = 0
    power = 1
    for c in coeffs:
        acc = gf32.gf_add(acc, shift_xor_mul(c, power))
        power = shift_xor_mul(power, x)
    return acc


def test_reduction_polynomial_is_pinned_search_result():
    # the constant is frozen; re-derive it so a silent edit cannot drift
    assert find_irreducible(32) == gf32.REDUCTION_POLYNOMIAL == 0x10000008D
    assert gf32.REDUCTION_POLYNOMIAL >> 32 == 1  # top bit x^32 set


@pytest.mark.parametrize("degree,encoding", [(2, 0b111), (3, 0b1011)])
def test_find_irreducible_known_small(degree, encoding):
    assert find_irreducible(degree) == encoding


def test_find_irreducible_agrees_with_trial_division():
    for degree in range(2, 11):
        found = find_irreducible(degree)
        # first irreducible in encoding order, per the brute-force oracle
        for candidate in range(1 << degree, found + 1):
            expect = irreducible_by_trial_division(candidate)
            assert _is_irreducible(candidate) == expect
            if candidate < found:
                assert not expect


def test_mul_pinned_single_reduction():
    # 0x80000000 * x overflows once, folding in the reduction tail
    assert gf32.gf_mul(0x80000000, 2) == gf32.REDUCTION_POLYNOMIAL & 0xFFFFFFFF == 0x8D


def test_mul_matches_schoolbook_oracle():
    rng = random.Random(101)
    edge = [0, 1, 2, 0x8D, 0x80000000, 0xFFFFFFFF, 0x11111111, 0x22222222, 0x44444444,
            0x88888888]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(2000)]
    for a, b in pairs:
        assert gf32.gf_mul(a, b) == mul_oracle(a, b)
        assert gf32._tmul(gf32._nibbles(a), b) == mul_oracle(a, b)


def test_field_axioms_randomized():
    rng = random.Random(202)
    for _ in range(2000):
        a, b, c = (rng.getrandbits(32) for _ in range(3))
        assert gf32.gf_add(a, b) == gf32.gf_add(b, a)
        assert gf32.gf_add(a, a) == 0
        assert gf32.gf_add(a, 0) == a
        assert gf32.gf_mul(a, b) == gf32.gf_mul(b, a)
        assert gf32.gf_mul(a, 1) == a
        assert gf32.gf_mul(a, 0) == 0
        assert gf32.gf_mul(a, gf32.gf_add(b, c)) == gf32.gf_add(
            gf32.gf_mul(a, b), gf32.gf_mul(a, c)
        )
        assert gf32.gf_mul(gf32.gf_mul(a, b), c) == gf32.gf_mul(a, gf32.gf_mul(b, c))


_CLASS_MASKS = [0x11111111, 0x22222222, 0x44444444, 0x88888888]


def test_inverse():
    rng = random.Random(303)
    assert gf32.gf_inv(1) == 1
    for a in [1, 2, 0x80000000, 0xFFFFFFFF, *_CLASS_MASKS]:
        assert gf32.gf_inv(a) == fermat_inv(a)
    for _ in range(500):
        a = rng.getrandbits(32) or 1
        inv = gf32.gf_inv(a)
        assert gf32.gf_mul(a, inv) == 1
    with pytest.raises(gf32.ZeroInverse):
        gf32.gf_inv(0)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(1, 0xFFFFFFFF))
def test_inverse_matches_fermat_oracle(a):
    assert gf32.gf_inv(a) == fermat_inv(a)


def test_poly_eval_basics():
    assert gf32.poly_eval([7], 0x12345678) == 7
    rng = random.Random(404)
    for _ in range(100):
        a = rng.getrandbits(32)
        assert gf32.poly_eval([0, 1], a) == a  # p(x) = x


def test_poly_eval_matches_power_sum_oracle():
    rng = random.Random(505)
    for _ in range(200):
        coeffs = [rng.getrandbits(32) for _ in range(rng.randint(1, 12))]
        x = rng.getrandbits(32)
        assert gf32.poly_eval(coeffs, x) == eval_oracle(coeffs, x)


# field elements with the edges pinned: 0, 1, the top bit, the all-ones
# word, the reduction tail 0x8D, whose products exercise both folds, and
# each full class of every fourth bit, whose products reach gf_mul's
# largest column count, 8
_elements = st.one_of(st.sampled_from([0, 1, 0x8D, 0x80000000, 0xFFFFFFFF, 0x11111111,
                                       0x22222222, 0x44444444, 0x88888888]),
                      st.integers(0, 0xFFFFFFFF))


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_elements, min_size=1, max_size=17),
       xs=st.lists(_elements, max_size=40).flatmap(
           lambda xs: st.permutations(xs + xs[: len(xs) // 2])))
def test_poly_eval_many_matches_scalar(coeffs, xs):
    # degrees 0-16; xs may be empty and half of them repeat
    got = gf32.poly_eval_many(coeffs, xs)
    assert got == [gf32.poly_eval(coeffs, x) for x in xs]
    assert all(type(y) is int for y in got)
    assert gf32.poly_eval_many(coeffs, []) == []


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_elements, _elements), max_size=40))
def test_gf_mul_on_arrays_matches_scalar(pairs):
    # class mask x class mask and 2^32 - 1 pairs form gf_mul's largest
    # products, so they test its headroom in 64 bits
    widest = _CLASS_MASKS + [0xFFFFFFFF]
    pairs += itertools.product(widest, widest)
    a, b = (np.array(v, dtype=np.uint64) for v in zip(*pairs))
    got = gf32.gf_mul(a, b)
    assert got.dtype == np.uint64
    assert got.tolist() == [gf32.gf_mul(x, y) for x, y in pairs]


def test_interpolate_constant():
    assert gf32.lagrange_interpolate([(0xDEADBEEF, 7)], 0) == [7]


def test_interpolate_inverts_evaluation():
    rng = random.Random(606)
    for degree in range(0, 15):
        coeffs = [rng.getrandbits(32) for _ in range(degree + 1)]
        xs = rng.sample(range(1 << 32), degree + 1)
        points = [(x, gf32.poly_eval(coeffs, x)) for x in xs]
        assert gf32.lagrange_interpolate(points, degree) == coeffs


def test_interpolate_keeps_structural_zero_leading_coefficient():
    # degree is structural: a zero leading coefficient must come back as-is
    rng = random.Random(707)
    coeffs = [rng.getrandbits(32) for _ in range(8)] + [0]
    xs = rng.sample(range(1 << 32), 9)
    points = [(x, gf32.poly_eval(coeffs, x)) for x in xs]
    assert gf32.lagrange_interpolate(points, 8) == coeffs


def test_interpolate_rejects_duplicate_abscissa():
    points = [(5, 1), (5, 2), (9, 3)]
    with pytest.raises(gf32.DuplicateAbscissa):
        gf32.lagrange_interpolate(points, 2)


def test_interpolate_rejects_wrong_arity():
    points = [(1, 1), (2, 2)]
    with pytest.raises(gf32.ArityMismatch):
        gf32.lagrange_interpolate(points, 2)


@settings(max_examples=500, deadline=None)
@given(a=_elements, b=_elements)
def test_table_multiply_matches_gf_mul(a, b):
    table = gf32._nibbles(a)
    assert table == [gf32.gf_mul(a, n) for n in range(16)]
    assert gf32._tmul(table, b) == gf32.gf_mul(a, b) == mul_oracle(a, b) == shift_xor_mul(a, b)


@st.composite
def _point_sets(draw):
    """Degree 0-16 and that many + 1 points with distinct xs, edges included."""
    degree = draw(st.integers(0, 16))
    xs = draw(st.lists(_elements, min_size=degree + 1, max_size=degree + 1, unique=True))
    ys = draw(st.lists(_elements, min_size=degree + 1, max_size=degree + 1))
    return list(zip(xs, ys)), degree


@settings(max_examples=200, deadline=None)
@given(case=_point_sets())
def test_interpolate_matches_scalar_oracle(case):
    points, degree = case
    assert gf32.lagrange_interpolate(points, degree) == scalar_interpolate(points, degree)


def _raised(fn, points, degree):
    with pytest.raises(ValueError) as info:
        fn(points, degree)
    return type(info.value), str(info.value)


@settings(max_examples=100, deadline=None)
@given(case=_point_sets(), extra=st.sampled_from([-1, 1]), dup=st.data())
def test_interpolate_errors_match_scalar_oracle(case, extra, dup):
    points, degree = case
    # one point too few or too many for the degree
    wrong = points[:-1] if extra < 0 else points + [(points[0][0] ^ 1, 0)]
    got = _raised(gf32.lagrange_interpolate, wrong, degree)
    assert got[0] is gf32.ArityMismatch
    assert got == _raised(scalar_interpolate, wrong, degree)
    if degree:
        # one x repeated, in place of another point
        i, j = dup.draw(st.lists(st.integers(0, degree), min_size=2, max_size=2, unique=True))
        repeated = list(points)
        repeated[j] = (points[i][0], points[j][1])
        got = _raised(gf32.lagrange_interpolate, repeated, degree)
        assert got[0] is gf32.DuplicateAbscissa
        assert got == _raised(scalar_interpolate, repeated, degree)
