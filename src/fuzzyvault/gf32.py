"""Arithmetic in GF(2^32) and the polynomial operations built on it.

Field elements are plain ints in [0, 2^32): bit i holds the coefficient
of x^i of a binary polynomial of degree < 32.  Addition is XOR.
Multiplication is a carry-less product reduced modulo an irreducible
degree-32 polynomial that is selected deterministically (lowest integer
encoding first), so every build works in the same field.

2^32 elements rule out log/exp tables, and there are two multiplies.  gf_mul
is a bit-sliced integer multiply (four classes of every fourth bit, 16
integer products; BearSSL's ghash_ctmul) whose products fit in 64 bits, so
poly_eval_many runs it on np.uint64 arrays, Horner's rule over all points at
once.  poly_eval and lagrange_interpolate reuse each multiplier over a row
of work, so they multiply through _tmul and a 16-entry table of its nibble
multiples.  gf_inv, the extended Euclidean algorithm, multiplies by nothing:
each quotient bit goes into the Bezout coefficient as it is found.
Interpolation takes each denominator prod_{j != i} (x_i + x_j) as the master
polynomial's derivative at x_i, one gf_inv for all of them, and its
coefficients from the power sums sum_i (y_i / denom_i) x_i^m instead of k
quotient polynomials.  A tower field waits: the attack workload's peak
memory grows with the attempt rate until the benchmark bounds per-attempt
records (ROADMAP item 1).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Sequence

import numpy as np

FIELD_BITS = 32
FIELD_MASK = 0xFFFFFFFF

# First monic irreducible polynomial of degree 32 in increasing integer
# encoding order.  Pinned as a constant so importing this module does no
# search; test_reduction_polynomial_is_pinned_search_result in
# tests/test_gf32.py re-derives it with Rabin's criterion.
REDUCTION_POLYNOMIAL = 0x10000008D


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting the zero element."""


class DuplicateAbscissa(ValueError):
    """Raised when interpolation points share an x value."""


class ArityMismatch(ValueError):
    """Raised when the number of interpolation points does not fit the degree."""


def gf_add(a: int, b: int) -> int:
    """Sum in GF(2^32); characteristic 2 makes this plain XOR."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Carry-less product of a and b reduced modulo REDUCTION_POLYNOMIAL.

    a and b are field elements, or np.uint64 arrays of them multiplied
    elementwise.  Bit-sliced integer multiply: each operand is split into
    its four classes of every fourth bit, and the integer product of a
    class-i and a class-j part has in each column of class i + j (mod 4) the
    count of bit pairs meeting there, at most 8 < 16, so no carry reaches
    the next column of that class and its low bit is the carry-less sum.
    The 16 products, each under 2^64, are XORed per result class and masked
    to it.  The 63-bit product hi * x^32 + lo reduces by
    x^32 = x^7 + x^3 + x^2 + 1: folding hi pushes at most 6 bits past bit
    31, so hi first takes those in and is folded once.
    """
    a0, a1, a2, a3 = a & 0x11111111, a & 0x22222222, a & 0x44444444, a & 0x88888888
    b0, b1, b2, b3 = b & 0x11111111, b & 0x22222222, b & 0x44444444, b & 0x88888888
    p = ((a0 * b0 ^ a1 * b3 ^ a2 * b2 ^ a3 * b1) & 0x1111111111111111
         | (a0 * b1 ^ a1 * b0 ^ a2 * b3 ^ a3 * b2) & 0x2222222222222222
         | (a0 * b2 ^ a1 * b1 ^ a2 * b0 ^ a3 * b3) & 0x4444444444444444
         | (a0 * b3 ^ a1 * b2 ^ a2 * b1 ^ a3 * b0) & 0x8888888888888888)
    hi = p >> FIELD_BITS
    hi ^= (hi >> 25) ^ (hi >> 29) ^ (hi >> 30)
    return (p ^ hi ^ (hi << 2) ^ (hi << 3) ^ (hi << 7)) & FIELD_MASK


def gf_inv(a: int) -> int:
    """Multiplicative inverse via the extended Euclidean algorithm.

    Raises:
        ZeroInverse: for a == 0, which has no inverse.
    """
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    r0, r1 = REDUCTION_POLYNOMIAL, a
    t0, t1 = 0, 1
    while r1:
        # r0 / r1 over GF(2); each quotient bit goes into t = t0 - q * t1 as it is found.
        r, t = r0, t0
        rb = r1.bit_length()
        while r.bit_length() >= rb:
            shift = r.bit_length() - rb
            r ^= r1 << shift
            t ^= t1 << shift
        r0, r1 = r1, r
        t0, t1 = t1, t
    # r0 is gcd(modulus, a) == 1 because the modulus is irreducible.
    return t0


def _nibbles(m: int) -> list[int]:
    """m times each 4-bit element n = 0..15: the table _tmul multiplies by m through."""
    table = [0]
    for _ in range(4):
        table += [t ^ m for t in table]
        m = (m << 1) ^ (REDUCTION_POLYNOMIAL if m & 0x80000000 else 0)
    return table


def _tmul(table: list[int], b: int) -> int:
    """m times b, m's table walked by b's nibbles from the top, folding each 4 bits shifted out."""
    a = table[b >> 28]
    for shift in (24, 20, 16, 12, 8, 4, 0):
        a = ((a << 4) & FIELD_MASK) ^ _FOLD[a >> 28] ^ table[(b >> shift) & 15]
    return a


def poly_eval(coefficients: Sequence[int], x: int) -> int:
    """Evaluate a polynomial (index i = coefficient of x^i) by Horner's rule."""
    table, acc = _nibbles(x), 0
    for c in reversed(coefficients):
        acc = _tmul(table, acc) ^ c
    return acc


def poly_eval_many(coefficients: Sequence[int], xs: Sequence[int]) -> list[int]:
    """poly_eval at every x in xs, as plain ints: Horner's rule through gf_mul on np.uint64."""
    xs = np.asarray(xs, dtype=np.uint64)
    acc = np.zeros_like(xs)
    for c in reversed(coefficients):
        acc = gf_mul(acc, xs) ^ c
    return acc.tolist()


def lagrange_interpolate(points: Sequence[tuple[int, int]], degree: int) -> list[int]:
    """Coefficients of the unique degree-<= degree polynomial through the points.

    Expects exactly degree + 1 points with pairwise distinct x values and
    returns degree + 1 coefficients, index i being the coefficient of x^i
    (the leading one may be zero).

    Raises:
        ArityMismatch: wrong number of points for the degree.
        DuplicateAbscissa: two points share an x value.
    """
    k = degree + 1
    if len(points) != k:
        raise ArityMismatch(f"need {k} points for degree {degree}, got {len(points)}")
    xs = [x for x, _ in points]
    if len(set(xs)) != k:
        raise DuplicateAbscissa("interpolation abscissas must be pairwise distinct")
    tables = [_nibbles(x) for x in xs]

    # Master polynomial prod_i (X + x_i), low-to-high coefficients, degree k.
    master = [1]
    for t in tables:
        master = [a ^ _tmul(t, c) for a, c in zip([0] + master, master + [0])]

    # prod_{j != i} (x_i + x_j) = master'(x_i) != 0; in characteristic 2 the
    # derivative keeps only the odd terms: master'(X) = sum_t master[2t+1] X^2t.
    odd = master[1::2]
    denoms = [poly_eval(odd, _tmul(t, x)) for t, x in zip(tables, xs)]

    # One gf_inv for all k denominators (Montgomery): inv walks back from 1 / prefix[k].
    prefix = list(itertools.accumulate(denoms, gf_mul, initial=1))
    inv = gf_inv(prefix[-1])
    s = [0] * k
    for i in range(k - 1, -1, -1):
        s[i] = gf_mul(points[i][1], gf_mul(inv, prefix[i]))  # y_i / denom_i
        inv = gf_mul(inv, denoms[i])

    # The result is sum_i s_i master(X) / (X + x_i), and that quotient is
    # sum_j X^j sum_m master[j+1+m] x_i^m, so coefficient j is
    # sum_m master[j+1+m] P_m with the power sums P_m = sum_i s_i x_i^m.
    result = [0] * k
    for m in range(k):
        if m:
            s = [_tmul(t, v) for t, v in zip(tables, s)]  # s_i x_i^m
        pm = _nibbles(functools.reduce(operator.xor, s))
        result[:k - m] = [r ^ _tmul(pm, c) for r, c in zip(result, master[m + 1:])]
    return result


# t * x^32 = t * (x^7 + x^3 + x^2 + 1), 11 bits at most, for the 4 bits t _tmul shifts out.
_FOLD = tuple(gf_mul(t, REDUCTION_POLYNOMIAL & FIELD_MASK) for t in range(16))
