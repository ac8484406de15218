"""Template parsing, greedy selection and the 32-bit minutia encoding."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyvault.minutiae import (
    COORD_MAX,
    InsufficientMinutiae,
    Minutia,
    OutOfBounds,
    ParseError,
    Template,
    THETA_STEPS,
    decode_minutiae,
    encode_minutia,
    parse_template,
    read_template,
    select_minutiae,
)
from minutiae_oracle import decode_minutia


def test_parse_four_fields():
    t = parse_template("100 200 90 50\n", 400, 560)
    assert t.minutiae == (Minutia(100, 200, 90.0, 50),)


def test_parse_three_fields_defaults_quality_zero():
    t = parse_template("100 200 90\n", 400, 560)
    assert t.minutiae[0].quality == 0


def test_parse_normalizes_negative_theta():
    # -1e-20 % 360.0 rounds up to 360.0, which no minutia may hold
    t = parse_template("10 10 -30 5\n11 11 -1e-20 5\n12 12 -360 5\n13 13 720 5\n", 400, 560)
    assert [m.theta for m in t.minutiae] == [330.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("theta", [360.0, -1.0, -1e-20, math.nan, math.inf])
def test_template_refuses_theta_outside_the_circle(theta):
    with pytest.raises(OutOfBounds, match="theta"):
        Template((Minutia(1, 1, theta),), 400, 560)


def test_parse_skips_blank_lines():
    t = parse_template("\n10 10 0 1\n\n20 20 0 1\n\n", 400, 560)
    assert len(t) == 2


def test_parse_rejects_garbage_with_line_number():
    with pytest.raises(ParseError, match="2"):
        parse_template("10 10 0 1\n10 ten 0 1\n", 400, 560)
    with pytest.raises(ParseError):
        parse_template("10 10\n", 400, 560)


@pytest.mark.parametrize("line", ["1_0 20 30", "10 2_0 30", "10 20 3_0.5", "10 20 30 1_0",
                                  "\u0661\u0662 20 30", "10 20 \u0663\u0660"])
def test_parse_refuses_separators_and_non_ascii_digits(line):
    # int() and float() read "1_0" as 10 and Arabic-Indic digits as ASCII ones
    with pytest.raises(ParseError, match="line 2"):
        parse_template(f"1 1 0\n{line}\n", 400, 560)


def test_parse_reads_repr_floats():
    # the benchmark writes each angle as repr(theta)
    t = parse_template(f"10 20 {1e-05!r} 3\n11 21 {359.99999999999994!r}\n", 400, 560)
    assert [m.theta for m in t.minutiae] == [1e-05, 359.99999999999994]


@st.composite
def _templates(draw):
    width = draw(st.integers(1, COORD_MAX + 1))
    height = draw(st.integers(1, COORD_MAX + 1))
    minutia = st.builds(Minutia, st.integers(0, width - 1), st.integers(0, height - 1),
                        st.floats(0.0, 360.0, exclude_max=True), st.integers(0, 10**6))
    return Template(tuple(draw(st.lists(minutia, max_size=30))), width, height)


@settings(max_examples=200, deadline=None)
@given(template=_templates(), three_fields=st.booleans())
def test_formatted_template_parses_back(template, three_fields):
    if three_fields:  # quality left out: it reads back as 0
        template = Template(tuple(Minutia(m.x, m.y, m.theta) for m in template.minutiae),
                            template.width, template.height)
    lines = [f"{m.x} {m.y} {m.theta!r}" + ("" if three_fields else f" {m.quality}")
             for m in template.minutiae]
    text = "\n".join(lines) + "\n"
    assert parse_template(text, template.width, template.height) == template


def test_parse_out_of_bounds():
    with pytest.raises(OutOfBounds):
        parse_template("4000 10 0 1\n", 400, 560)


def test_read_template(tmp_path):
    p = tmp_path / "f.xyt"
    p.write_text("5 6 7 8\n9 10 11\n")
    t = read_template(p, 400, 560)
    assert len(t) == 2 and t.minutiae[0] == Minutia(5, 6, 7.0, 8)


def test_template_rejects_oversized_coordinates():
    # 11-bit ceiling applies even when the claimed image is bigger
    with pytest.raises(OutOfBounds):
        Template((Minutia(2048, 0, 0.0),), 4096, 4096)


def test_select_all_when_far_apart_sorted_by_quality():
    ms = (Minutia(0, 0, 0, 10), Minutia(100, 0, 0, 90), Minutia(0, 100, 0, 50))
    t = Template(ms, 400, 560)
    sel = select_minutiae(t, 3, 10.0)
    assert [m.quality for m in sel] == [90, 50, 10]


def test_select_insufficient_when_too_close():
    ms = (Minutia(0, 0, 0, 10), Minutia(3, 4, 0, 90))  # distance 5
    t = Template(ms, 400, 560)
    with pytest.raises(InsufficientMinutiae):
        select_minutiae(t, 2, 10.0)


def greedy_oracle(template, count, pd):
    """Re-run the greedy rule with brute-force distance checks."""
    chosen = []
    for m in sorted(template.minutiae, key=lambda m: -m.quality):
        if all(math.dist((m.x, m.y), (c.x, c.y)) >= pd for c in chosen):
            chosen.append(m)
        if len(chosen) == count:
            return chosen
    raise InsufficientMinutiae


def test_select_matches_greedy_oracle():
    from fuzzyvault.evaluation import synth_template

    for seed in range(5):
        t = synth_template(seed, 60)
        sel = select_minutiae(t, 30, 10.0)
        assert sel == greedy_oracle(t, 30, 10.0)
        for i, a in enumerate(sel):
            for b in sel[i + 1 :]:
                assert math.dist((a.x, a.y), (b.x, b.y)) >= 10.0


def test_encode_zero():
    assert encode_minutia(Minutia(0, 0, 0.0)) == 0


def test_encode_pinned_layout_example():
    assert encode_minutia(Minutia(1, 1, 0.0)) == 0x00200400 == 2098176


def test_encode_theta_quantization_ceiling():
    rep = encode_minutia(Minutia(0, 0, 359.9))
    assert rep == 1023  # theta occupies the low 10 bits


def test_decode_zero():
    assert decode_minutia(0) == Minutia(0, 0, 0.0, 0)


def test_decode_pinned_layout_example():
    assert decode_minutia(0x00200400) == Minutia(1, 1, 0.0, 0)


def test_encode_decode_round_trip():
    rng = random.Random(11)
    step = 360.0 / THETA_STEPS
    for _ in range(500):
        m = Minutia(rng.randrange(2048), rng.randrange(2048), rng.uniform(0, 360) % 360.0)
        back = decode_minutia(encode_minutia(m))
        assert (back.x, back.y) == (m.x, m.y)
        assert abs(back.theta - m.theta) < step
        assert back.quality == 0


@settings(max_examples=300, deadline=None)
@given(x=st.integers(0, COORD_MAX), y=st.integers(0, COORD_MAX),
       theta_q=st.integers(0, THETA_STEPS - 1))
def test_encode_decode_round_trip_on_the_grid(x, y, theta_q):
    m = Minutia(x, y, theta_q * 360.0 / THETA_STEPS)
    rep = encode_minutia(m)
    assert 0 <= rep < 1 << 32
    assert decode_minutia(rep) == m
    assert encode_minutia(decode_minutia(rep)) == rep


@settings(max_examples=100, deadline=None)
@given(words=st.lists(st.integers(0, 2**32 - 1), max_size=50))
def test_decode_minutiae_equals_decode_minutia(words):
    words = [0, 2**32 - 1] + words
    got = decode_minutiae(words)
    assert got.shape == (len(words), 3) and got.dtype == float
    for row, w in zip(got.tolist(), words):
        m = decode_minutia(w)
        assert row == [m.x, m.y, m.theta]  # exact, theta included


def test_encode_rejects_out_of_range():
    with pytest.raises(OutOfBounds):
        encode_minutia(Minutia(2048, 0, 0.0))
    with pytest.raises(OutOfBounds):
        encode_minutia(Minutia(0, 0, 360.0))
