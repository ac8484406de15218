"""Subset strategies, CRC unlocking and whole-vault decoding."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import decoder_oracle
from aligner_oracle import EagerGeometricTable, dense_match_margins_many
from fuzzyvault import decoder
from fuzzyvault.aligner import MatchParams
from fuzzyvault.decoder import (
    ArityError,
    DEFAULT_STRATEGY,
    ITERATIVE_SELECTION,
    RANDOM_GENERATION,
    RANDOM_SELECTION,
    VARIANTS,
    SubsetStrategy,
    decode_vault,
    generate_subsets,
    try_unlock,
)
from fuzzyvault.evaluation import BUILTIN_CONFIGS, perturb_template, synth_template
from fuzzyvault.minutiae import Template, decode_minutiae
from fuzzyvault.vault import VaultPoint, encode_vault, genuine_indices

CONFIG1 = BUILTIN_CONFIGS["fvc-1"]
ITERATIVE = SubsetStrategy(ITERATIVE_SELECTION)


def small_vault(seed=30, n=2, g=3, c=8):
    rng = random.Random(seed)
    t = synth_template(seed, 40)
    cfg_params = CONFIG1.vault_params()
    from fuzzyvault.vault import VaultParams

    p = VaultParams(n, g, c, 10.0, cfg_params.width, cfg_params.height)
    vault, secret = encode_vault(t, p, rng)
    return vault, secret, t


def colex(pool, size):
    """Every size-subset of pool, in colex order: by the largest point first."""
    return sorted(itertools.combinations(pool, size), key=lambda s: s[::-1])


def test_iterative_subsets_colex():
    pts = [VaultPoint(i, 0) for i in range(5)]
    got = list(generate_subsets(pts, 3, ITERATIVE))
    assert got == colex(pts, 3)
    assert got != list(itertools.combinations(pts, 3))  # at m = 4 the two orders coincide


def test_random_generation_covers_all_subsets():
    pts = [VaultPoint(i, 0) for i in range(4)]
    got = list(generate_subsets(pts, 3, SubsetStrategy(RANDOM_GENERATION), random.Random(1)))
    key = lambda subset: tuple(p.X for p in subset)
    assert sorted(got, key=key) == sorted(itertools.combinations(pts, 3), key=key)


def test_random_generation_past_budget_shuffles_strongest_prefix(monkeypatch):
    # past the budget, iterative-selection's first SUBSET_BUDGET subsets are shuffled
    monkeypatch.setattr(decoder, "SUBSET_BUDGET", 100)
    pts = [VaultPoint(i, 0) for i in range(30)]
    assert math.comb(9, 3) <= 100 < math.comb(10, 3)
    got_rng, want_rng = random.Random(2), random.Random(2)
    got = list(generate_subsets(pts, 3, SubsetStrategy(RANDOM_GENERATION), got_rng))
    assert got == reference_subsets(pts, 3, RANDOM_GENERATION, None, want_rng)
    assert got_rng.getstate() == want_rng.getstate()
    assert sorted(got) == sorted(colex(pts, 3)[:100])
    assert set(got) >= set(itertools.combinations(pts[:9], 3))  # all 84 of the strongest 9
    assert sum(pts[9] in s for s in got) == 16 and all(set(s) <= set(pts[:10]) for s in got)


def test_random_generation_builds_subsets_as_reached():
    # C(31, 9) is past the budget: the first subset costs one draw and a few
    # dict entries, not a shuffle of 10^6 ranks
    pts = [VaultPoint(i, 0) for i in range(31)]
    got_rng, want_rng = random.Random(6), random.Random(6)
    tracemalloc.start()
    try:
        first = next(generate_subsets(pts, 9, SubsetStrategy(RANDOM_GENERATION), got_rng))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rank = want_rng.randrange(10**6)
    assert got_rng.getstate() == want_rng.getstate()
    index = [p.X for p in first]  # the subset of colex rank `rank`, read from its definition
    assert index == sorted(set(index)) and sum(math.comb(i, k) for k, i in enumerate(index, 1)) == rank
    assert peak < 64 * 2**10


def test_random_selection_draw_count_and_cap():
    pts = [VaultPoint(i, 0) for i in range(6)]
    # uncapped: exactly C(6,3) = 20 draws, repeats allowed
    drawn = list(generate_subsets(pts, 3, SubsetStrategy(RANDOM_SELECTION), random.Random(3)))
    assert len(drawn) == 20
    for s in drawn:
        assert len(set(s)) == 3
    capped = SubsetStrategy(RANDOM_SELECTION, iteration_cap=5)
    assert len(list(generate_subsets(pts, 3, capped, random.Random(4)))) == 5


def test_random_selection_is_capped_by_default(monkeypatch):
    assert SubsetStrategy(RANDOM_SELECTION).iteration_cap == decoder.DEFAULT_ITERATION_CAP
    # the default is colex order, capped as random-selection is
    assert DEFAULT_STRATEGY == SubsetStrategy(ITERATIVE_SELECTION, decoder.DEFAULT_ITERATION_CAP)
    assert SubsetStrategy(ITERATIVE_SELECTION).iteration_cap is None  # exhaustive ones stay whole
    assert SubsetStrategy(RANDOM_GENERATION).iteration_cap is None
    monkeypatch.setattr(decoder, "DEFAULT_ITERATION_CAP", 7)
    pts = [VaultPoint(i, 0) for i in range(6)]
    drawn = generate_subsets(pts, 3, SubsetStrategy(RANDOM_SELECTION), random.Random(5))
    assert len(list(drawn)) == 7  # not all C(6, 3) = 20


def reference_subsets(pool, size, variant, cap, rng):
    """Each variant's stream written out whole, then cut to the cap."""
    if variant == RANDOM_SELECTION:
        total = math.comb(len(pool), size)
        draws = total if cap is None else min(total, cap)
        return [tuple(rng.sample(pool, size)) for _ in range(draws)]
    subsets = colex(pool, size)
    if variant == RANDOM_GENERATION:
        # Fisher-Yates from the top over the budget's subsets, read slot by slot up to the cap
        subsets, read = subsets[:decoder.SUBSET_BUDGET], []
        for i in range(len(subsets) - 1, -1, -1):
            if len(read) == cap:
                break
            if i > 0:
                j = rng.randrange(i + 1)
                subsets[i], subsets[j] = subsets[j], subsets[i]
            read.append(subsets[i])
        return read
    return subsets[:cap]


@settings(max_examples=200, deadline=None)
@given(variant=st.sampled_from(VARIANTS), m=st.integers(3, 8), data=st.data(),
       seed=st.integers(0, 2**32))
def test_subset_stream_and_rng_state_match_reference(variant, m, data, seed):
    size = data.draw(st.integers(1, m))
    cap = data.draw(st.sampled_from([None, 1, 2, math.comb(m, size)]))
    pool = [VaultPoint(i, 0) for i in range(m)]
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    strategy = SubsetStrategy(variant, iteration_cap=cap)
    assert list(generate_subsets(pool, size, strategy, got_rng)) == reference_subsets(
        pool, size, variant, cap, want_rng
    )
    assert got_rng.getstate() == want_rng.getstate()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 10), n=st.sampled_from([1, 2, 3, 1000]), seed=st.integers(0, 2**32))
def test_unrank_is_colex_and_shuffled_is_a_lazy_shuffle(m, n, seed):
    pool = [VaultPoint(i, 0) for i in range(m)]
    for size in range(m + 1):
        got = [decoder._unrank(pool, size, rank) for rank in range(math.comb(m, size))]
        assert got == colex(pool, size)
        for j in range(size, m + 1):  # the first C(j, size) ranks are the subsets of pool[:j]
            assert set(got[:math.comb(j, size)]) == set(itertools.combinations(pool[:j], size))
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    ranks = list(range(n))
    want_rng.shuffle(ranks)
    assert list(decoder._shuffled(n, got_rng)) == ranks[::-1]
    assert got_rng.getstate() == want_rng.getstate()


def test_random_variants_require_rng():
    pts = [VaultPoint(i, 0) for i in range(4)]
    with pytest.raises(ValueError):
        generate_subsets(pts, 2, SubsetStrategy(RANDOM_SELECTION))


def test_generate_subsets_arity_error():
    pts = [VaultPoint(i, 0) for i in range(3)]
    with pytest.raises(ArityError):
        generate_subsets(pts, 4, ITERATIVE)


def test_strategy_validation():
    with pytest.raises(ValueError):
        SubsetStrategy("clever-guessing")
    with pytest.raises(ValueError):
        SubsetStrategy(RANDOM_SELECTION, iteration_cap=0)


def test_try_unlock_recovers_secret_from_any_genuine_subset():
    vault, secret, _ = small_vault()
    genuine = [vault.points[i] for i in genuine_indices(vault, secret)]
    for subset in itertools.combinations(genuine, 3):
        assert try_unlock(subset, 2) == secret


def test_try_unlock_rejects_chaff_substitution():
    vault, secret, _ = small_vault(seed=31, n=2, g=3, c=30)
    gset = set(genuine_indices(vault, secret))
    genuine = [vault.points[i] for i in gset]
    chaff = [pt for i, pt in enumerate(vault.points) if i not in gset]
    rng = random.Random(5)
    for _ in range(300):
        subset = genuine[:2] + [rng.choice(chaff)]
        assert try_unlock(subset, 2) is None


def test_try_unlock_filters_duplicate_abscissas():
    vault, secret, _ = small_vault()
    genuine = [vault.points[i] for i in genuine_indices(vault, secret)]
    assert try_unlock([genuine[0], genuine[0], genuine[1]], 2) is None


def test_decode_self_match():
    rng = random.Random(32)
    t = synth_template(320, 60)
    vault, secret = encode_vault(t, CONFIG1.vault_params(), rng)
    res = decode_vault(vault, t, CONFIG1.match_params(), ITERATIVE, rng)
    assert res.matched and res.secret == secret
    assert res.bases_tried >= 1
    assert res.candidate_sets_evaluated >= 1
    assert res.interpolations_performed >= 1
    assert res.elapsed_seconds > 0


def test_decode_perturbed_probe_within_thresholds():
    rng = random.Random(33)
    t = synth_template(330, 60)
    vault, secret = encode_vault(t, CONFIG1.vault_params(), rng)
    probe = perturb_template(t, rotation=10.0, translation=(5.0, 5.0),
                             jitter=4.0, theta_jitter=0.0, rng=rng)
    res = decode_vault(vault, probe, CONFIG1.match_params(), ITERATIVE, rng)
    assert res.matched and res.secret == secret


def test_decode_impostor_rejected():
    cfg = BUILTIN_CONFIGS["fvc-4"]  # n=10
    rng = random.Random(34)
    vault, _ = encode_vault(synth_template(340, 60), cfg.vault_params(), rng)
    impostor = synth_template(341, 60)
    res = decode_vault(vault, impostor, cfg.match_params(), DEFAULT_STRATEGY, rng)
    assert not res.matched and res.secret is None


def test_decode_matched_iff_secret_present():
    rng = random.Random(35)
    t = synth_template(350, 60)
    vault, _ = encode_vault(t, CONFIG1.vault_params(), rng)
    for probe in (t, synth_template(351, 60)):
        res = decode_vault(vault, probe, CONFIG1.match_params(), ITERATIVE, rng)
        assert res.matched == (res.secret is not None)


def test_decode_agrees_across_strategies():
    # small arity so random-generation can materialize every subset
    vault, secret, t = small_vault(seed=36, n=2, g=3, c=8)
    rng = random.Random(36)
    probe = perturb_template(t, rotation=4.0, translation=(3.0, -2.0),
                             jitter=2.0, theta_jitter=2.0, rng=rng)
    for strategy in (
        ITERATIVE,
        SubsetStrategy(RANDOM_GENERATION),
        SubsetStrategy(RANDOM_SELECTION, iteration_cap=2**20),
    ):
        res = decode_vault(vault, probe, CONFIG1.match_params(), strategy, random.Random(37))
        assert res.matched and res.secret == secret


def test_decode_insufficient_probe_minutiae():
    from fuzzyvault.minutiae import InsufficientMinutiae

    rng = random.Random(38)
    vault, _ = encode_vault(synth_template(380, 60), CONFIG1.vault_params(), rng)
    sparse = synth_template(381, 10)
    with pytest.raises(InsufficientMinutiae):
        decode_vault(vault, sparse, CONFIG1.match_params(), ITERATIVE, rng)


def test_decode_respects_iteration_cap():
    # a cap of 1 means at most one interpolation per candidate set
    rng = random.Random(39)
    t = synth_template(390, 60)
    vault, _ = encode_vault(t, CONFIG1.vault_params(), rng)
    strategy = SubsetStrategy(RANDOM_SELECTION, iteration_cap=1)
    res = decode_vault(vault, t, CONFIG1.match_params(), strategy, rng)
    assert res.interpolations_performed <= res.candidate_sets_evaluated


# (bases_tried, candidate_sets_evaluated, interpolations_performed) of the
# genuine and the impostor probe, as the decoder counted them row by row
_PINNED_COUNTERS = {"fvc-1": ((27, 1, 1), (867, 0, 0)), "fvc-4": ((4, 1, 1), (561, 0, 0))}


@pytest.mark.parametrize("name", ["fvc-1", "fvc-4"])
def test_decode_same_result_with_dense_kernel_oracle(name, monkeypatch):
    """Candidate sets, their order and so every counter and secret are unchanged.

    Checked against the dense kernel, the eagerly built table, and both,
    and the counters against the values pinned above.
    """
    cfg = BUILTIN_CONFIGS[name]
    t = synth_template(400 + cfg.degree, 60)
    vault, secret = encode_vault(t, cfg.vault_params(), random.Random(401))
    genuine = perturb_template(t, rotation=6.0, translation=(4.0, -3.0), jitter=3.0,
                               theta_jitter=4.0, drop_fraction=0.1, rng=random.Random(402))
    impostor = synth_template(403 + cfg.degree, 60)

    def run(probe):
        res = decode_vault(vault, probe, cfg.match_params(), DEFAULT_STRATEGY, random.Random(404))
        return dataclasses.replace(res, elapsed_seconds=0.0)

    fast = [run(genuine), run(impostor)]
    calls = {"build_geometric_table": 0, "match_margins_many": 0}

    def counted(attr, oracle):
        def wrapper(*args):
            calls[attr] += 1
            return oracle(*args)
        return wrapper

    table = ("build_geometric_table", EagerGeometricTable)
    kernel = ("match_margins_many", dense_match_margins_many)
    for swaps in ([kernel], [table], [table, kernel]):
        with monkeypatch.context() as m:
            for attr, oracle in swaps:
                calls[attr] = 0
                m.setattr(decoder, attr, counted(attr, oracle))
            assert [run(genuine), run(impostor)] == fast
            for attr, _ in swaps:  # the decoder went through the swapped name
                assert calls[attr] > 0, attr
    assert fast[0].matched and fast[0].secret == secret
    assert not fast[1].matched and fast[1].bases_tried > 0
    counters = tuple((r.bases_tried, r.candidate_sets_evaluated, r.interpolations_performed)
                     for r in fast)
    assert counters == _PINNED_COUNTERS[name]


def oracle_case(name, seed=0):
    """A vault and three probes of it: a genuine capture, the same capture
    behind four spurious minutiae of top quality (so probe bases 0-3 are
    spurious and it first unlocks later), and an impostor."""
    cfg = BUILTIN_CONFIGS[name]
    t = synth_template(600 + seed, 60)
    vault, secret = encode_vault(t, cfg.vault_params(), random.Random(601 + seed))
    genuine = perturb_template(t, rotation=6.0, translation=(4.0, -3.0), jitter=3.0,
                               theta_jitter=4.0, drop_fraction=0.1, rng=random.Random(602 + seed))
    fakes = tuple(dataclasses.replace(m, quality=100)
                  for m in synth_template(700 + seed, 4).minutiae)
    late = Template(fakes + genuine.minutiae, genuine.width, genuine.height)
    impostor = synth_template(650 + seed, 60)
    return vault, secret, {"genuine": genuine, "late": late, "impostor": impostor}


def outcome(decode, vault, probe, params, strategy):
    """MatchResult without its timing, and the rng state after."""
    rng = random.Random(404)
    res = dataclasses.replace(decode(vault, probe, params, strategy, rng), elapsed_seconds=0.0)
    return res, rng.getstate()


@pytest.mark.parametrize("strategy", [ITERATIVE, SubsetStrategy(RANDOM_GENERATION),
                                      SubsetStrategy(RANDOM_SELECTION), DEFAULT_STRATEGY],
                         ids=["iterative-selection", "random-generation", "random-selection",
                              "default"])
@pytest.mark.parametrize("name", ["fvc-1", "fvc-4", "fvc-6"])
def test_decode_matches_decoder_oracle(name, strategy):
    """Batched kernel calls and deferred pools give the reference loop's
    counters, secret and rng state."""
    vault, secret, probes = oracle_case(name)
    params = BUILTIN_CONFIGS[name].match_params()
    for kind, probe in probes.items():
        got = outcome(decode_vault, vault, probe, params, strategy)
        assert got == outcome(decoder_oracle.decode_vault, vault, probe, params, strategy), kind
        res = got[0]
        if kind == "impostor":
            assert not res.matched and res.bases_tried > 0
        else:
            assert res.matched and res.secret == secret, kind


def test_decode_matches_decoder_oracle_without_basis_gate():
    vault, secret, probes = oracle_case("fvc-1", seed=1)
    params = dataclasses.replace(CONFIG1.match_params(), theta_basis_thres=360.0)
    for kind in ("genuine", "impostor"):
        got = outcome(decode_vault, vault, probes[kind], params, DEFAULT_STRATEGY)
        assert got == outcome(decoder_oracle.decode_vault, vault, probes[kind], params,
                              DEFAULT_STRATEGY), kind
        assert got[0].matched == (kind == "genuine")


@pytest.mark.parametrize("gate", [15.0, 360.0])
def test_kernel_calls_take_doubling_slices_of_the_gated_pairs(gate, monkeypatch):
    """Each call takes the next slice of the gated pairs, in probe basis
    order: the first as many as the mean probe basis has, each later one
    twice as many, none past _PAIRS_PER_CALL."""
    vault, secret, probes = oracle_case("fvc-1")
    params = dataclasses.replace(CONFIG1.match_params(), theta_basis_thres=gate)
    cap = decoder._PAIRS_PER_CALL
    calls, tables = [], []
    kernel = decoder.match_margins_many

    def recorded(vault_table, probe_table, probe_bases, vault_bases, params):
        tables[:] = vault_table, probe_table
        calls.append((np.broadcast_to(probe_bases, np.shape(vault_bases)).copy(),
                      np.asarray(vault_bases)))
        return kernel(vault_table, probe_table, probe_bases, vault_bases, params)

    monkeypatch.setattr(decoder, "match_margins_many", recorded)
    for kind, probe in probes.items():
        calls.clear()
        res = decode_vault(vault, probe, params, DEFAULT_STRATEGY, random.Random(404))
        assert res.matched == (kind != "impostor")
        want = outcome(decoder_oracle.decode_vault, vault, probe, params, DEFAULT_STRATEGY)
        assert res.bases_tried == want[0].bases_tried  # the reference loop's count
        vtable, ptable = tables
        d = np.abs(ptable.thetas[:, None] - vtable.thetas[None, :]) % 360.0
        want_probe, want_vault = np.nonzero(np.minimum(d, 360.0 - d) <= gate)
        sizes = [len(vault_bases) for _, vault_bases in calls]
        assert max(sizes) <= cap
        # consecutive slices, in order, each pair at most once
        swept = sum(sizes)
        assert np.array_equal(np.concatenate([pb for pb, _ in calls]), want_probe[:swept])
        assert np.array_equal(np.concatenate([vb for _, vb in calls]), want_vault[:swept])
        run = min(max(len(want_vault) // len(ptable), 1), cap)
        for size in sizes[:-1]:
            assert size == run
            run = min(2 * run, cap)
        assert sizes[-1] == min(run, len(want_vault) - (swept - sizes[-1]))
        if kind == "impostor":
            assert swept == len(want_vault) == res.bases_tried  # every gated pair, once
            if gate == 15.0:
                assert len(calls) <= 6
        else:
            assert swept - sizes[-1] < res.bases_tried <= swept  # the unlock ends the last call
            if kind == "late":
                assert want_probe[res.bases_tried - 1] >= 3  # past the spurious bases
                if gate == 15.0:  # inside a call of several probe bases
                    assert len(np.unique(calls[-1][0])) > 1


@pytest.mark.parametrize("seed", range(5))
def test_impostor_decode_peak_memory(seed):
    """The kernel frees its (pairs, probe minutiae) temporaries once it has
    each query's cell, so a whole fvc-1 reject sweep peaks at 1.05-1.09 MB
    (1.34-1.40 MB while they stayed alive until the kernel returned)."""
    vault, _, probes = oracle_case("fvc-1", seed)
    params = CONFIG1.match_params()
    decode_vault(vault, probes["impostor"], params, DEFAULT_STRATEGY, random.Random(404))
    tracemalloc.start()
    try:
        res = decode_vault(vault, probes["impostor"], params, DEFAULT_STRATEGY, random.Random(404))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.matched and res.bases_tried > 0
    assert peak <= 1.15e6


@pytest.mark.parametrize("gate", [0.0, 15.0])
def test_basis_gate_agrees_with_the_modulo_form(gate, monkeypatch):
    """Probe angles at 0, just below 360 and equal to vault angles: the
    decoder sweeps exactly the pairs that |d| % 360.0 gates."""
    vault, _, probes = oracle_case("fvc-1")
    vault_thetas = decode_minutiae([pt.X for pt in vault.points])[:, 2]
    angles = [0.0, 360.0 - 1e-9, *vault_thetas[:8]]
    probe = Template(tuple(dataclasses.replace(m, theta=float(angles[i % len(angles)]))
                           for i, m in enumerate(probes["impostor"].minutiae)), 400, 560)
    params = dataclasses.replace(CONFIG1.match_params(), theta_basis_thres=gate)
    calls, want = [], []
    kernel = decoder.match_margins_many

    def recorded(vault_table, probe_table, probe_bases, vault_bases, params):
        if not want:
            d = np.abs(probe_table.thetas[:, None] - vault_table.thetas[None, :]) % 360.0
            want.extend(zip(*np.nonzero(np.minimum(d, 360.0 - d) <= params.theta_basis_thres)))
        calls.extend(zip(np.asarray(probe_bases).tolist(), np.asarray(vault_bases).tolist()))
        return kernel(vault_table, probe_table, probe_bases, vault_bases, params)

    monkeypatch.setattr(decoder, "match_margins_many", recorded)
    res = decode_vault(vault, probe, params, DEFAULT_STRATEGY, random.Random(405))
    assert not res.matched and res.bases_tried == len(calls)
    assert calls == [(int(p), int(v)) for p, v in want] and len(calls) > 30


@pytest.mark.parametrize("strategy", [SubsetStrategy(ITERATIVE_SELECTION, 256), DEFAULT_STRATEGY],
                         ids=["cap-256", "default"])
@pytest.mark.parametrize("name", ["fvc-1", "fvc-4", "fvc-5", "fvc-6"])
def test_deferring_small_pools_keeps_the_pair_order_decisions(name, strategy):
    """A colex pool's subsets do not depend on when it is tried, so the
    decision and the secret are the pair-order loop's."""
    vault, _, probes = oracle_case(name)
    params = BUILTIN_CONFIGS[name].match_params()
    for kind, probe in probes.items():
        res = decode_vault(vault, probe, params, strategy, random.Random(404))
        old = decoder_oracle.decode_vault(vault, probe, params, strategy, random.Random(404),
                                          defer=False)
        assert (res.matched, res.secret) == (old.matched, old.secret), kind


def test_no_small_pool_is_tried_before_the_big_pool_unlocks(monkeypatch):
    """On the late fvc-4 probe the pair-order loop first meets a pool of 15
    candidates; the decoder leaves it waiting and unlocks from a pool of at
    least 2 * degree, inside the sweep."""
    vault, secret, probes = oracle_case("fvc-4")
    params = BUILTIN_CONFIGS["fvc-4"].match_params()
    degree = vault.params.degree
    tried = {}
    for module in (decoder, decoder_oracle):
        pools = tried.setdefault(module, [])

        def recorded(pool, *args, _stream=module.generate_subsets, _pools=pools):
            _pools.append(len(pool))
            return _stream(pool, *args)

        monkeypatch.setattr(module, "generate_subsets", recorded)
    res = decode_vault(vault, probes["late"], params, DEFAULT_STRATEGY, random.Random(404))
    old = decoder_oracle.decode_vault(vault, probes["late"], params, DEFAULT_STRATEGY,
                                      random.Random(404), defer=False)
    assert res.matched and res.secret == old.secret == secret
    assert old.bases_tried < res.bases_tried  # the unlock came later in pair order ...
    assert tried[decoder_oracle][0] < 2 * degree  # ... behind a small pool
    assert all(size >= 2 * degree for size in tried[decoder])  # which waited
    assert res.candidate_sets_evaluated == len(tried[decoder])
