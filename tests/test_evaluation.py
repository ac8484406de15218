"""Synthetic data, perturbation and the accuracy protocol drivers."""

import csv
import math
import random
import statistics
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from fuzzyvault import evaluation
from fuzzyvault.decoder import ITERATIVE_SELECTION, SubsetStrategy, decode_vault
from fuzzyvault.evaluation import (
    BUILTIN_CONFIGS,
    Dataset,
    DatasetTooSmall,
    EvalConfig,
    Finger,
    PerturbationModel,
    all_vs_all_pairs,
    fvc_pairs,
    load_dataset,
    make_synthetic_dataset,
    perturb_template,
    run_fvc_protocol,
    synth_template,
    write_report_csv,
)
from fuzzyvault.minutiae import Minutia, Template

ITERATIVE = SubsetStrategy(ITERATIVE_SELECTION)


def shape_dataset(fingers, captures):
    """A dataset with empty templates; enough for pair enumeration."""
    empty = Template((), 400, 560)
    return Dataset(tuple(Finger(f"f{i}", (empty,) * captures) for i in range(fingers)))


def test_synth_template_deterministic_and_in_bounds():
    a = synth_template(99, 60)
    b = synth_template(99, 60)
    assert a == b
    assert len(a) == 60
    for m in a.minutiae:
        assert 0 <= m.x < 400 and 0 <= m.y < 560
        assert 0 <= m.theta < 360
        assert 1 <= m.quality <= 100


def test_synth_template_respects_distance_floor():
    t = synth_template(100, 60)
    ms = t.minutiae
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            assert math.dist((a.x, a.y), (b.x, b.y)) >= 8.0


def test_synth_single_minutia():
    assert len(synth_template(101, 1)) == 1


def test_perturb_identity_when_all_zero():
    t = synth_template(102, 30)
    assert perturb_template(t, rng=random.Random(1)) == t


def test_perturb_drop_everything():
    t = synth_template(103, 30)
    assert len(perturb_template(t, drop_fraction=1.0, rng=random.Random(2))) == 0


def test_perturb_pure_rotation_keeps_count_and_thetas():
    t = synth_template(104, 30)
    out = perturb_template(t, rotation=5.0, rng=random.Random(3))
    # small rotation about the center may drop edge minutiae, nothing else
    assert len(out) >= 25
    for m in out.minutiae:
        assert 0 <= m.theta < 360


def test_perturb_folds_an_angle_just_below_zero():
    # 10.0 - 10.000000000000002 is -1.8e-15, and % 360.0 rounds that up to 360.0
    t = Template((Minutia(200, 280, 10.0, 1),), 400, 560)
    out = perturb_template(t, rotation=-10.000000000000002, rng=random.Random(4))
    assert [m.theta for m in out.minutiae] == [0.0]


def test_fvc_pair_counts_small():
    genuine, impostor = fvc_pairs(shape_dataset(3, 2))
    assert len(genuine) == 3 and len(impostor) == 3


def test_fvc_pair_counts_full_benchmark_shape():
    genuine, impostor = fvc_pairs(shape_dataset(140, 12))
    assert len(genuine) == 9240
    assert len(impostor) == 9730


def test_all_vs_all_counts_small():
    genuine, impostor = all_vs_all_pairs(shape_dataset(2, 2))
    assert len(genuine) == 2 and len(impostor) == 4


def test_all_vs_all_counts_full_benchmark_shape():
    genuine, impostor = all_vs_all_pairs(shape_dataset(140, 12))
    assert len(genuine) == 9240
    # all unordered capture pairs minus the same-finger ones
    assert len(impostor) == math.comb(1680, 2) - 9240 == 1401120


def test_protocols_coincide_for_single_capture_fingers():
    ds = shape_dataset(5, 1)
    assert fvc_pairs(ds) == all_vs_all_pairs(ds)


def test_protocol_rejects_degenerate_datasets():
    with pytest.raises(DatasetTooSmall):
        run_fvc_protocol(shape_dataset(1, 3), None, None)
    with pytest.raises(DatasetTooSmall):
        run_fvc_protocol(shape_dataset(3, 1), None, None, pairs=all_vs_all_pairs)


def test_dry_run_counts_without_executing():
    ds = shape_dataset(140, 12)  # empty templates: execution would fail loudly
    report = run_fvc_protocol(ds, None, None, dry_run=True)
    assert report.genuine_comparisons == 9240
    assert report.impostor_comparisons == 9730
    assert report.fmr == report.fnmr == 0.0
    assert report.mean_total_seconds == 0.0


def gentle_model():
    return PerturbationModel(max_rotation=6.0, max_translation=5.0, max_jitter=2.0,
                             max_theta_jitter=3.0, max_drop_fraction=0.1)


def test_make_synthetic_dataset_shape_and_determinism():
    d1 = make_synthetic_dataset(3, 2, seed=7, perturbation=gentle_model())
    d2 = make_synthetic_dataset(3, 2, seed=7, perturbation=gentle_model())
    assert d1 == d2
    assert len(d1.fingers) == 3
    assert all(len(f.captures) == 2 for f in d1.fingers)


def test_load_dataset_round_trip(tmp_path):
    ds = make_synthetic_dataset(2, 2, seed=8, perturbation=gentle_model())
    for finger in ds.fingers:
        d = tmp_path / finger.finger_id
        d.mkdir()
        for k, t in enumerate(finger.captures):
            with open(d / f"capture_{k}.xyt", "w") as fh:
                for m in t.minutiae:
                    fh.write(f"{m.x} {m.y} {m.theta:.6f} {m.quality}\n")
    loaded = load_dataset(tmp_path, 400, 560)
    assert [f.finger_id for f in loaded.fingers] == [f.finger_id for f in ds.fingers]
    for a, b in zip(loaded.fingers, ds.fingers):
        for ta, tb in zip(a.captures, b.captures):
            assert len(ta) == len(tb)
            for ma, mb in zip(ta.minutiae, tb.minutiae):
                assert (ma.x, ma.y, ma.quality) == (mb.x, mb.y, mb.quality)
                assert abs(ma.theta - mb.theta) < 1e-5


def test_load_dataset_empty(tmp_path):
    with pytest.raises(DatasetTooSmall):
        load_dataset(tmp_path, 400, 560)


def run_small(config: EvalConfig, seed=9, protocol=run_fvc_protocol):
    ds = make_synthetic_dataset(3, 2, seed=seed, perturbation=gentle_model())
    return protocol(ds, config.vault_params(), config.match_params(),
                    strategy=ITERATIVE, rng=random.Random(seed))


def test_small_fvc_run_separates():
    report = run_small(BUILTIN_CONFIGS["fvc-1"])
    assert report.fnmr == 0.0
    assert report.fmr == 0.0
    assert report.genuine_comparisons == 3 and report.impostor_comparisons == 3
    assert report.mean_encode_seconds > 0
    assert report.mean_decode_seconds > 0


def test_report_tail_against_statistics(monkeypatch):
    # a fake clock makes the runner's decode times known; a wrapper sees each decode's counters
    clock, interpolations = iter(range(10**6)), []
    ticks = []

    def perf_counter():
        ticks.append(next(clock) ** 2 / 1000.0)
        return ticks[-1]

    def counted(*args):
        result = decode_vault(*args)
        interpolations.append(result.interpolations_performed)
        return result

    monkeypatch.setattr(evaluation, "time", SimpleNamespace(perf_counter=perf_counter))
    monkeypatch.setattr(evaluation, "decode_vault", counted)
    report = run_small(BUILTIN_CONFIGS["fvc-1"], seed=14)
    assert report.genuine_failures == report.impostor_failures == 0
    decode_times = [t2 - t1 for t1, t2 in zip(ticks[1::3], ticks[2::3])]
    assert len(decode_times) == len(interpolations) == 6
    assert report.p50_decode_seconds == statistics.median(decode_times)
    assert report.p90_decode_seconds == statistics.quantiles(decode_times, n=10,
                                                             method="inclusive")[8]
    assert report.max_interpolations == max(interpolations) > 0
    assert list(asdict(report))[-5:] == ["p50_decode_seconds", "p90_decode_seconds",
                                         "max_interpolations", "fmr_upper95",
                                         "fnmr_upper95"]  # appended after the old fields
    # 3 genuine and 3 impostor decodes, none wrong
    assert report.fmr_upper95 == report.fnmr_upper95 == evaluation._upper95(0, 3)


def binomial_tail_oracle(errors, trials, p):
    """P(X <= errors) for X ~ Binomial(trials, p), term by term with exact binomial coefficients."""
    return sum(math.comb(trials, i) * p ** i * (1 - p) ** (trials - i) for i in range(errors + 1))


@pytest.mark.parametrize("trials", [10, 1000])
@pytest.mark.parametrize("errors", [0, 1, 5])
def test_upper95_matches_binomial_oracle(errors, trials):
    bound = evaluation._upper95(errors, trials)
    # the exact bound is where the oracle's tail crosses 0.05
    assert binomial_tail_oracle(errors, trials, bound) == pytest.approx(0.05, rel=1e-9)
    assert binomial_tail_oracle(errors, trials, bound * (1 - 1e-6)) > 0.05
    assert binomial_tail_oracle(errors, trials, bound * (1 + 1e-6)) < 0.05
    if errors == 0:
        assert bound == pytest.approx(1 - 0.05 ** (1 / trials), rel=1e-12)


def test_upper95_edges():
    # criterion 06's 0 false accepts in 1,000 impostor decodes show only FMR <= 3.0e-3
    assert evaluation._upper95(0, 1000) <= 3.0e-3
    assert evaluation._upper95(0, 0) == evaluation._upper95(4, 4) == 1.0
    report = run_fvc_protocol(shape_dataset(4, 3), None, None, dry_run=True)
    assert (report.fmr, report.fmr_upper95, report.fnmr_upper95) == (0.0, 1.0, 1.0)  # nothing decoded


def test_report_determinism():
    r1 = run_small(BUILTIN_CONFIGS["fvc-1"], seed=10)
    r2 = run_small(BUILTIN_CONFIGS["fvc-1"], seed=10)
    assert asdict(r1)["fmr"] == asdict(r2)["fmr"]
    assert r1.genuine_failures == r2.genuine_failures


def test_threshold_increase_does_not_hurt_either_direction():
    tight = BUILTIN_CONFIGS["fvc-2"]
    loose = EvalConfig(8, 34, 300, 10, 15, 15, 15, 10)  # same shape, wider thresholds
    r_tight = run_small(tight, seed=11)
    r_loose = run_small(loose, seed=11)
    assert r_loose.fmr >= r_tight.fmr
    assert r_loose.fnmr <= r_tight.fnmr


def test_higher_degree_does_not_raise_fmr():
    low = BUILTIN_CONFIGS["fvc-2"]  # n=8
    high = EvalConfig(10, 34, 300, 10, 12, 12, 12, 10)
    assert run_small(high, seed=12).fmr <= run_small(low, seed=12).fmr


def test_chaff_count_leaves_rates_unchanged():
    a = EvalConfig(8, 34, 200, 10, 12, 12, 12, 10)
    b = EvalConfig(8, 34, 300, 10, 12, 12, 12, 10)
    ra = run_small(a, seed=13)
    rb = run_small(b, seed=13)
    assert (ra.fmr, ra.fnmr) == (rb.fmr, rb.fnmr)


def test_csv_report_single_row(tmp_path):
    report = run_fvc_protocol(shape_dataset(4, 3), None, None, dry_run=True)
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert int(rows[0]["genuine_comparisons"]) == 4 * 3
    assert int(rows[0]["impostor_comparisons"]) == 6


def test_builtin_configs_table():
    assert sorted(BUILTIN_CONFIGS) == [f"fvc-{i}" for i in range(1, 7)]
    c1 = BUILTIN_CONFIGS["fvc-1"]
    assert (c1.degree, c1.genuine_count, c1.chaff_count) == (8, 30, 340)
    assert BUILTIN_CONFIGS["fvc-6"].degree == 14
    for cfg in BUILTIN_CONFIGS.values():
        p = cfg.vault_params()
        assert p.vault_size == cfg.genuine_count + cfg.chaff_count