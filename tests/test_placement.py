"""One placement rule: selection, chaff and synthetic templates against the
placement oracle, which keeps each as first written."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import placement_oracle as oracle
from fuzzyvault.evaluation import BUILTIN_CONFIGS, synth_template
from fuzzyvault.minutiae import (
    ChaffExhausted,
    InsufficientMinutiae,
    Minutia,
    Template,
    encode_minutia,
    select_minutiae,
)
from fuzzyvault.vault import VaultParams, encode_vault, generate_chaff

# Small images keep near-full placements and exhaustion cheap; the fixed
# distances cover 0, the defaults, one larger than any diagonal here, and
# cell-edge boundaries on either side of an integer.
_sizes = st.integers(1, 48)
_distances = st.one_of(
    st.sampled_from([0, 0.0, 0.5, 1, 5, 8, 9.5, 10, 10.0, 10.000001, 14, 100.0]),
    st.floats(0, 80, allow_nan=False),
)
# shorter distances for encoding, so that small images still hold the
# degree + 1 spaced minutiae a vault needs
_encode_distances = st.one_of(st.sampled_from([0, 1, 5, 9.5, 10, 10.000001]), st.floats(0, 16))
# selection is public and takes any float: the rule squares the distance,
# so a negative one acts as its absolute value, and inf or NaN space only
# the first minutia
_signed_distances = st.one_of(
    _distances,
    st.builds(lambda d: -d, _distances),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)


@st.composite
def _templates(draw, min_size=0):
    width, height = draw(_sizes), draw(_sizes)
    points = st.builds(Minutia, st.integers(0, width - 1), st.integers(0, height - 1),
                       st.floats(0, 360, exclude_max=True), st.integers(0, 5))
    return Template(tuple(draw(st.lists(points, min_size=min_size, max_size=24))), width, height)


def _outcome(fn, rng, *args):
    """fn's return value, or the type of the exception it raised, with the rng state after."""
    try:
        value = fn(*args)
    except (ChaffExhausted, InsufficientMinutiae) as exc:
        value = type(exc)
    return value, None if rng is None else rng.getstate()


@settings(max_examples=300, deadline=None)
@given(template=_templates(), pd=_signed_distances)
def test_select_minutiae_matches_oracle(template, pd):
    # every count to one past the template size, so a selection that
    # differs shows in its list, not only in the count that raises
    for count in range(1, len(template) + 2):
        assert (_outcome(select_minutiae, None, template, count, pd)
                == _outcome(oracle.select_minutiae, None, template, count, pd))


@settings(max_examples=150, deadline=None)
@given(template=_templates(min_size=1), chaff=st.integers(0, 40), pd=_distances,
       seed=st.integers(0, 2**32))
def test_generate_chaff_matches_oracle(template, chaff, pd, seed):
    # c = 0, full images and pd past the diagonal all occur; exhaustion must
    # come at the same draw, so the rng states after it agree too; only a
    # chaff point's word reaches a vault, so the oracle's are compared encoded
    params = VaultParams(1, 2, chaff, pd, template.width, template.height)
    genuine = list(template.minutiae)
    rng, ref_rng = random.Random(seed), random.Random(seed)

    def oracle_words(*args):
        return [encode_minutia(m) for m in oracle.generate_chaff(*args)]

    assert (_outcome(generate_chaff, rng, genuine, params, rng)
            == _outcome(oracle_words, ref_rng, genuine, params, ref_rng))


@st.composite
def _encode_inputs(draw):
    """VaultParams and a template holding degree + 1 or more lattice minutiae
    ceil(pd) apart, which selection can all take unless the image is too
    small, plus a few free minutiae that may crowd them out or collide."""
    degree, width, height, pd = (draw(st.integers(1, 14)), draw(_sizes), draw(_sizes),
                                 draw(_encode_distances))
    step = max(1, math.ceil(pd))
    lattice = [(x, y) for x in range(0, width, step) for y in range(0, height, step)]
    sites = draw(st.lists(st.sampled_from(lattice), unique=True,
                          min_size=min(len(lattice), degree + 1), max_size=degree + 4))
    sites += draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
                           max_size=3))
    minutiae = tuple(Minutia(x, y, draw(st.floats(0, 360, exclude_max=True)), draw(st.integers(0, 5)))
                     for x, y in sites)
    genuine = degree + 1 + draw(st.integers(0, 2))
    params = VaultParams(degree, genuine, draw(st.integers(0, 40)), pd, width, height)
    return Template(minutiae, width, height), params


@settings(max_examples=150, deadline=None)
@given(inputs=_encode_inputs(), seed=st.integers(0, 2**32))
def test_encode_vault_matches_oracle(inputs, seed):
    # too few spaced minutiae, colliding encodings, c = 0, full images and
    # exhaustion mid-chaff all occur; the vault, the secret or the error,
    # and the rng state after, must agree
    template, params = inputs
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert (_outcome(encode_vault, rng, template, params, rng)
            == _outcome(oracle.encode_vault, ref_rng, template, params, ref_rng))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64), count=st.integers(0, 12), width=_sizes, height=_sizes)
def test_synth_template_matches_oracle(seed, count, width, height):
    try:
        got = synth_template(seed, count, width, height)
    except ChaffExhausted:
        return  # the per-minutia budget may give up where the old total budget did not
    assert got == oracle.synth_template(seed, count, width, height)


@pytest.mark.parametrize("config", ["fvc-1", "fvc-5"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_size_encode_vault_matches_oracle(config, seed):
    # 400x560 images draw 9- and 10-bit coordinates with rejections, into a
    # grid of real size; the oracle draws through randrange itself
    template, params = synth_template(seed, 60), BUILTIN_CONFIGS[config].vault_params()
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert (_outcome(encode_vault, rng, template, params, rng)
            == _outcome(oracle.encode_vault, ref_rng, template, params, ref_rng))


@pytest.mark.parametrize("seed", [0, 1, 2, 2**63])
def test_full_size_synth_template_matches_oracle(seed):
    assert synth_template(seed, 60) == oracle.synth_template(seed, 60)


def test_synth_template_fails_typed_on_impossible_shape():
    with pytest.raises(ChaffExhausted, match="synthetic minutia 2 of 4 8 px apart in 3x3"):
        synth_template(5, 4, 3, 3)


@pytest.mark.parametrize("width, height", [(0, 10), (10, 0), (-3, 10)])
def test_synth_template_refuses_an_empty_image(width, height):
    # randrange refuses an empty range; the draws taken as it takes them must too
    with pytest.raises(ValueError):
        synth_template(5, 4, width, height)
