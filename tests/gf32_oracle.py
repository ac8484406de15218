"""Reference code for gf32: the reduction polynomial search, the
shift-and-xor multiply, a Fermat inverse and the scalar interpolator.

gf32 pins REDUCTION_POLYNOMIAL as a constant; find_irreducible walks monic
degree-d polynomials in increasing integer encoding order and returns the
first one that passes Rabin's irreducibility test, so the tests can
re-derive the constant and check the test itself against trial division.
gf_mul is the shift-and-xor multiply the bit-sliced one in gf32 must agree
with, gf_inv the inverse gf32's extended Euclidean one must agree with, and
lagrange_interpolate, built on both, the interpolator the power-sum one in
gf32 must agree with bit for bit.  None of them calls gf32's arithmetic.
"""

from fuzzyvault.gf32 import REDUCTION_POLYNOMIAL, ArityMismatch, DuplicateAbscissa


def gf_mul(a: int, b: int) -> int:
    """The product gf32 shipped before its bit-sliced multiply: a is doubled
    and reduced once per bit of b, and added where that bit is set."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & (1 << 32):
            a ^= REDUCTION_POLYNOMIAL
    return p


def gf_inv(a: int) -> int:
    """a^(2^32 - 2), the inverse of a nonzero a by Fermat's little theorem,
    squared and multiplied with the shift-and-xor gf_mul."""
    result, e = 1, (1 << 32) - 2
    while e:
        if e & 1:
            result = gf_mul(result, a)
        a = gf_mul(a, a)
        e >>= 1
    return result


def _clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two bit-packed polynomials."""
    p = 0
    while a:
        if a & 1:
            p ^= b
        a >>= 1
        b <<= 1
    return p


def find_irreducible(degree: int) -> int:
    """First irreducible monic polynomial of the given degree over GF(2).

    Candidates are walked in increasing integer encoding order and tested
    with Rabin's irreducibility criterion, so the result is deterministic:
    two runs always agree.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for enc in range(1 << degree, 1 << (degree + 1)):
        if _is_irreducible(enc):
            return enc
    raise AssertionError("unreachable: every degree has irreducible polynomials")


def _poly_mod(a: int, f: int) -> int:
    fb = f.bit_length()
    while a.bit_length() >= fb:
        a ^= f << (a.bit_length() - fb)
    return a


def _poly_mulmod(a: int, b: int, f: int) -> int:
    return _poly_mod(_clmul(a, b), f)


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _is_irreducible(f: int) -> bool:
    """Rabin's criterion: x^(2^d) == x mod f, and for every prime p | d
    gcd(x^(2^(d/p)) - x, f) == 1."""
    d = f.bit_length() - 1
    x = _poly_mod(2, f)
    checkpoints = {d // p for p in _prime_factors(d)}
    t = x
    gcd_points = {}
    for k in range(1, d + 1):
        t = _poly_mulmod(t, t, f)
        if k in checkpoints:
            gcd_points[k] = t
    if t != x:
        return False
    for t_k in gcd_points.values():
        if _poly_gcd(t_k ^ x, f) != 1:
            return False
    return True


def lagrange_interpolate(points, degree):
    """The scalar interpolator gf32 shipped before its nibble tables.

    Every multiply is a shift-and-xor gf_mul and every denominator gets
    its own Fermat gf_inv; gf32.lagrange_interpolate must return the same
    coefficients and raise the same errors.
    """
    k = degree + 1
    if len(points) != k:
        raise ArityMismatch(f"need {k} points for degree {degree}, got {len(points)}")
    xs = [x for x, _ in points]
    if len(set(xs)) != k:
        raise DuplicateAbscissa("interpolation abscissas must be pairwise distinct")

    # Master polynomial prod_i (X + x_i), low-to-high coefficients, degree k.
    master = [1]
    for x in xs:
        nxt = [0] * (len(master) + 1)
        for j, c in enumerate(master):
            nxt[j] ^= gf_mul(c, x)
            nxt[j + 1] ^= c
        master = nxt

    result = [0] * k
    for x, y in points:
        # Synthetic division of master by (X + x): quotient q of degree k-1.
        q = [0] * k
        carry = master[k]
        for j in range(k - 1, -1, -1):
            q[j] = carry
            carry = master[j] ^ gf_mul(carry, x)
        denom = 0  # prod_{j != i} (x_i + x_j) by Horner, never zero here
        for c in reversed(q):
            denom = gf_mul(denom, x) ^ c
        scale = gf_mul(y, gf_inv(denom))
        for j in range(k):
            result[j] ^= gf_mul(q[j], scale)
    return result
