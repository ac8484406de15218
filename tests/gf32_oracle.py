"""Reference search for the field's reduction polynomial.

gf32 pins REDUCTION_POLYNOMIAL as a constant; this walks monic degree-d
polynomials in increasing integer encoding order and returns the first
one that passes Rabin's irreducibility test, so the tests can re-derive
the constant and check the test itself against trial division.
"""

from fuzzyvault.gf32 import _clmul


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
