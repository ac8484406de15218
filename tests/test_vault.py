"""Secret layout, chaff constraints and vault generation transcripts."""

import enum
import math
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

import points_oracle as oracle
from minutiae_oracle import decode_minutia
from fuzzyvault import gf32
from fuzzyvault.evaluation import synth_template
from fuzzyvault.minutiae import ChaffExhausted, InsufficientMinutiae, encode_minutia
from fuzzyvault.vault import (
    LengthMismatch,
    Vault,
    VaultParams,
    VaultPoint,
    check_point_pairs,
    encode_vault,
    generate_chaff,
    generate_secret,
    genuine_indices,
    secret_from_polynomial,
    secret_polynomial,
    vault_from_dict,
    vault_to_dict,
)


def params(n=8, g=30, c=340, pd=10.0):
    return VaultParams(n, g, c, pd, 400, 560)


def test_secret_length_follows_degree():
    rng = random.Random(1)
    assert len(generate_secret(8, rng)) == 32  # 256 bits
    assert len(generate_secret(12, rng)) == 48  # 384 bits


def test_secret_deterministic_per_seed():
    assert generate_secret(8, random.Random(5)) == generate_secret(8, random.Random(5))
    assert generate_secret(8, random.Random(5)) != generate_secret(8, random.Random(6))


def test_secret_polynomial_known_answer():
    # pinned coefficients: stored vaults depend on this layout.  The CRC-32
    # of the secret is the constant term, then the secret's big-endian
    # words, last first, so the first word is the coefficient of x^degree
    assert secret_polynomial(b"123456789abc", 3) == [0xBDB0C0E4, 0x39616263, 0x35363738,
                                                     0x31323334]
    assert secret_polynomial(bytes(range(1, 9)), 2) == [0x3FCA88C5, 0x05060708, 0x01020304]
    assert secret_from_polynomial([0x3FCA88C5, 0x05060708, 0x01020304]) == bytes(range(1, 9))
    assert secret_from_polynomial([0x3FCA88C4, 0x05060708, 0x01020304]) is None


def test_crc_append_empty():
    assert secret_polynomial(b"", 0) == [0]  # the CRC-32 of no bytes


def test_crc_append_standard_check_value():
    # the classic CRC-32 check string; 9 bytes, so it is read back as a
    # constant term rather than built into one
    assert zlib.crc32(b"123456789") == 0xCBF43926
    body = b"123456789abc"
    assert secret_from_polynomial([zlib.crc32(body), 0x39616263, 0x35363738, 0x31323334]) == body


def test_crc_append_adds_four_bytes():
    # one 32-bit word more than the secret: the CRC
    rng = random.Random(2)
    for _ in range(20):
        degree = rng.randrange(1, 16)
        coeffs = secret_polynomial(rng.randbytes(4 * degree), degree)
        assert len(coeffs) == degree + 1
        assert all(0 <= c < 2**32 for c in coeffs)


def test_split_zero_bits():
    assert secret_polynomial(bytes(8), 2)[1:] == [0, 0]
    assert secret_polynomial(bytes(4), 1) == [0x2144DF1C, 0]


def test_split_windows_oracle():
    rng = random.Random(3)
    secret = rng.randbytes(32)  # 256 bits, n=8
    coeffs = secret_polynomial(secret, 8)
    windows = [int.from_bytes(secret[i : i + 4], "big") for i in range(0, 32, 4)]
    # first window is the most significant chunk: the x^8 coefficient
    assert coeffs == [zlib.crc32(secret), *reversed(windows)]


def test_split_join_inverse():
    rng = random.Random(4)
    for n in (1, 8, 12):
        secret = rng.randbytes(4 * n)
        assert secret_from_polynomial(secret_polynomial(secret, n)) == secret


def test_split_rejects_wrong_length():
    for secret, degree in [(b"\x00" * 3, 1), (b"\x00" * 8, 1), (b"\x00" * 7, 2), (b"", 1)]:
        with pytest.raises(LengthMismatch):
            secret_polynomial(secret, degree)


def test_secret_polynomial_embeds_crc_as_constant_term():
    secret = random.Random(5).randbytes(32)
    coeffs = secret_polynomial(secret, 8)
    assert coeffs[0] == zlib.crc32(secret)

    rng = random.Random(5)
    for degree in range(1, 15):
        secret = rng.randbytes(4 * degree)
        coeffs = secret_polynomial(secret, degree)
        assert secret_from_polynomial(coeffs) == secret
        for power in range(degree + 1):
            for bit in range(32):
                flipped = list(coeffs)
                flipped[power] ^= 1 << bit
                assert secret_from_polynomial(flipped) is None, (degree, power, bit)


def test_generate_chaff_counts():
    rng = random.Random(6)
    genuine = list(synth_template(60, 60).minutiae)[:30]
    chaff = generate_chaff(genuine, params(), rng)
    assert len(chaff) == 340
    assert generate_chaff(genuine, params(c=0), rng) == []


def test_generate_chaff_exhausts_on_infeasible_distance():
    rng = random.Random(7)
    genuine = list(synth_template(61, 30).minutiae)
    infeasible = params(g=30, c=1, pd=1000.0)  # larger than the image diagonal
    with pytest.raises(ChaffExhausted):
        generate_chaff(genuine, infeasible, rng)


def test_encode_vault_size_and_distinct_abscissas():
    rng = random.Random(8)
    vault, _ = encode_vault(synth_template(62, 60), params(), rng)
    assert len(vault.points) == 370
    xs = [pt.X for pt in vault.points]
    assert len(set(xs)) == len(xs)


def test_encode_vault_refuses_a_template_of_another_image_size():
    # chaff is placed in the params' image, genuine minutiae come from the
    # template's: in a 300x300 vault, a 400x560 finger's points past 300
    # would all be genuine
    rng = random.Random(10)
    with pytest.raises(ValueError, match="400x560 px, vault parameters say 300x300"):
        encode_vault(synth_template(3, 60), VaultParams(8, 30, 200, 10.0, 300, 300), rng)
    assert rng.getstate() == random.Random(10).getstate()  # refused before any draw


def test_encode_vault_deterministic():
    t = synth_template(63, 60)
    v1, s1 = encode_vault(t, params(), random.Random(9))
    v2, s2 = encode_vault(t, params(), random.Random(9))
    assert s1 == s2 and v1.points == v2.points


def test_transcript_exactly_g_points_on_polynomial():
    rng = random.Random(10)
    vault, secret = encode_vault(synth_template(64, 60), params(), rng)
    idx = genuine_indices(vault, secret)
    assert len(idx) == 30
    coeffs = secret_polynomial(secret, 8)
    for i, pt in enumerate(vault.points):
        on_curve = gf32.poly_eval(coeffs, pt.X) == pt.Y
        assert on_curve == (i in idx)


def test_vault_respects_point_distance_and_rep_floor():
    rng = random.Random(11)
    vault, secret = encode_vault(synth_template(65, 60), params(), rng)
    ms = [decode_minutia(pt.X) for pt in vault.points]
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            assert math.dist((a.x, a.y), (b.x, b.y)) >= 10.0
    genuine = set(genuine_indices(vault, secret))
    min_genuine_rep = min(vault.points[i].X for i in genuine)
    for i, pt in enumerate(vault.points):
        if i not in genuine:
            assert 2 * pt.X >= min_genuine_rep


def test_encode_minimum_genuine_arity_self_unlocks():
    from fuzzyvault.aligner import MatchParams
    from fuzzyvault.decoder import ITERATIVE_SELECTION, SubsetStrategy, decode_vault

    rng = random.Random(12)
    t = synth_template(66, 40)
    vault, secret = encode_vault(t, params(n=2, g=3, c=10), rng)
    res = decode_vault(vault, t, MatchParams(12, 12, 12, 15),
                       SubsetStrategy(ITERATIVE_SELECTION), rng)
    assert res.matched and res.secret == secret


def test_encode_insufficient_minutiae():
    rng = random.Random(13)
    with pytest.raises(InsufficientMinutiae):
        encode_vault(synth_template(67, 20), params(g=30), rng)


def test_point_order_is_statistically_uniform():
    """Genuine points should land anywhere in the shuffled vault."""
    rng = random.Random(14)
    p = params(n=2, g=3, c=3, pd=10.0)
    position_counts = [0] * 6
    rounds = 300
    for _ in range(rounds):
        t = synth_template(rng.getrandbits(32), 20)
        vault, secret = encode_vault(t, p, rng)
        for i in genuine_indices(vault, secret):
            position_counts[i] += 1
    total = 3 * rounds
    expected = total / 6
    chi2 = sum((c - expected) ** 2 / expected for c in position_counts)
    # df = 5, alpha = 0.001 critical value
    assert chi2 < 20.515, position_counts


def test_chaff_y_values_stay_off_the_polynomial():
    rng = random.Random(15)
    for _ in range(5):
        vault, secret = encode_vault(synth_template(rng.getrandbits(32), 60), params(), rng)
        assert len(genuine_indices(vault, secret)) == 30


def test_vault_dict_round_trip():
    rng = random.Random(16)
    vault, _ = encode_vault(synth_template(68, 60), params(), rng)
    data = vault_to_dict(vault)
    assert data["params"] == {"n": 8, "g": 30, "c": 340, "pd": 10.0, "width": 400, "height": 560}
    back = vault_from_dict(data)
    assert back.params == vault.params and back.points == vault.points


def test_vault_from_dict_rejects_wrong_point_count():
    rng = random.Random(17)
    vault, _ = encode_vault(synth_template(69, 60), params(), rng)
    data = vault_to_dict(vault)
    data["points"] = data["points"][:-1]
    with pytest.raises(ValueError):
        vault_from_dict(data)


@pytest.mark.parametrize("pair", [[-5, 2**40], ["7", "8"], [1.9, True]])
def test_vault_from_dict_rejects_uncoerced_points(pair):
    # same point rule as the stored-document schema: integers in [0, 2^32), no bool
    rng = random.Random(18)
    vault, _ = encode_vault(synth_template(70, 60), params(), rng)
    data = vault_to_dict(vault)
    data["points"][5] = pair
    with pytest.raises(ValueError, match=r"points\[5\]"):
        vault_from_dict(data)


class _Word(int):
    pass


class _Flag(enum.IntEnum):
    ON = 1


class _Pair(list):
    pass


# every kind of coordinate the rule must judge: plain ints at and past both
# ends of the range, bools, floats, strings, None, and int subclasses
_COORDS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**32 - 3, 2**32 + 3),
    st.integers(),
    st.sampled_from([True, False, 1.0, 2.5, float("nan"), -0.0, "7", None, _Flag.ON]),
    st.integers(0, 2**32).map(_Word),
)
_ENTRIES = st.one_of(
    st.lists(_COORDS, min_size=2, max_size=2),
    st.lists(_COORDS, max_size=4),  # mostly the wrong length
    st.tuples(_COORDS, _COORDS),
    st.lists(_COORDS, min_size=2, max_size=2).map(_Pair),
    st.sampled_from([None, 5, "[1, 2]", {"X": 1, "Y": 2}]),
)


def _verdict(check, pairs):
    try:
        check(pairs)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_ENTRIES, max_size=6),
                 st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2), max_size=6),
                 st.sampled_from([None, (), {}, "points", ((1, 2),)])))
def test_point_rule_matches_oracle(pairs):
    assert _verdict(check_point_pairs, pairs) == _verdict(oracle.check_point_pairs, pairs)


def test_vault_point_is_an_immutable_pair():
    # the pairs check_point_pairs passes become points as stored documents do
    pairs = [[0, 2**32 - 1], [5, 7], [_Word(3), _Flag.ON]]
    built = tuple(map(VaultPoint._make, pairs))
    assert built == tuple(VaultPoint(x, y) for x, y in pairs)
    assert [(p.X, p.Y) for p in built] == [(x, y) for x, y in pairs]
    assert [hash(p) for p in built] == [hash(VaultPoint(x, y)) for x, y in pairs]
    assert all(type(p) is VaultPoint for p in built)
    assert VaultPoint(5, 7) != VaultPoint(7, 5)
    with pytest.raises(AttributeError):  # frozen
        built[0].X = 1
    with pytest.raises(TypeError):  # a pair, nothing longer
        VaultPoint._make([1, 2, 3])


DROP = object()


@pytest.mark.parametrize("in_params, key, value", [
    (True, "n", True),  # would read as degree 1
    (True, "n", 8.0),
    (True, "g", 30.0),
    (True, "c", "340"),
    (True, "width", 400.5),
    (True, "height", None),
    (True, "pd", float("nan")),
    (True, "pd", True),
    (True, "pd", "10"),
    (True, "pd", DROP),
    (True, "extra", 1),
    (False, "extra", 1),
    (False, "params", [8, 30]),
    (False, "points", DROP),
    (True, "pd", float("inf")),  # what json.loads makes of Infinity
])
def test_vault_from_dict_rejects_loose_fields(in_params, key, value):
    # the key and field rules stored documents follow too: exact keys, no coercion
    vault, _ = encode_vault(synth_template(71, 60), params(), random.Random(19))
    data = vault_to_dict(vault)
    target = data["params"] if in_params else data
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ValueError, match="malformed vault document"):
        vault_from_dict(data)


def test_params_validation():
    with pytest.raises(ValueError):
        VaultParams(0, 30, 300, 10.0, 400, 560)
    with pytest.raises(ValueError):
        VaultParams(8, 8, 300, 10.0, 400, 560)  # g < n+1
    with pytest.raises(ValueError):
        VaultParams(8, 30, -1, 10.0, 400, 560)
    with pytest.raises(ValueError):
        VaultParams(8, 30, 340, float("nan"), 400, 560)
    with pytest.raises(ValueError, match="points_distance"):
        VaultParams(8, 30, 340, float("inf"), 400, 560)
    for width, height in [(2049, 560), (400, 2049), (5000, 5000)]:  # past 11-bit coordinates
        with pytest.raises(ValueError, match="image dimensions"):
            VaultParams(8, 30, 340, 10.0, width, height)
    assert VaultParams(8, 30, 340, 1000.0, 2048, 2048).vault_size == 370
    assert VaultParams(8, 30, 340, 10.0, 400, 560).vault_size == 370
