"""Acceptance battery: one test per shipping criterion.

Each test prints a single "criterion NN: PASS/FAIL" line with the
measured numbers, then asserts.  Tolerances and trial counts are part of
the contract, not tunables; keep them as written.
"""

import json
import math
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from fuzzyvault import gf32
from fuzzyvault.aligner import MatchParams
from fuzzyvault.cli import main as cli_main
from fuzzyvault.client import enroll as client_enroll
from fuzzyvault.client import verify as client_verify
from fuzzyvault.decoder import (
    DEFAULT_STRATEGY,
    ITERATIVE_SELECTION,
    SubsetStrategy,
    decode_vault,
    try_unlock,
)
from fuzzyvault.evaluation import BUILTIN_CONFIGS, perturb_template, run_fvc_protocol, \
    make_synthetic_dataset, synth_template
from fuzzyvault.minutiae import Minutia, Template
from fuzzyvault.service import VaultStoreService
from fuzzyvault.store import FileVaultStore, validate_document_dict
from fuzzyvault.vault import VaultParams, encode_vault, genuine_indices
from security_oracle import simulate_attack

# Capped lexicographic enumeration: at the true basis the margin sort
# places every genuine candidate ahead of any chaff (chaff is forced to
# keep its distance from genuine points), so the very first subset
# unlocks and the cap never blocks a match.  It only stops coincidental
# alignments from enumerating millions of doomed subsets.
ITERATIVE = SubsetStrategy(ITERATIVE_SELECTION, iteration_cap=256)


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def boxed_template(seed: int, count: int = 60) -> Template:
    """A template kept away from the borders so rigid motions cannot crop it."""
    inner = synth_template(seed, count, width=200, height=360)
    ms = tuple(Minutia(m.x + 100, m.y + 100, m.theta, m.quality) for m in inner.minutiae)
    return Template(ms, 400, 560)


def test_criterion_01_analytic_attack_cost_cli():
    """Brute-force cost report matches the published figures, fast."""
    runner = CliRunner()
    t0 = time.perf_counter()
    r8 = runner.invoke(cli_main, ["security", "--g", "35", "--c", "300", "--n", "8"])
    t8 = time.perf_counter() - t0
    t0 = time.perf_counter()
    r12 = runner.invoke(cli_main, ["security", "--g", "35", "--c", "300", "--n", "12"])
    t12 = time.perf_counter() - t0
    rep8 = json.loads(r8.stdout)
    rep12 = json.loads(r12.stdout)
    err8 = abs(rep8["expected_attempts"] - 1.86e9) / 1.86e9
    err12 = abs(rep12["expected_attempts"] - 6e13) / 6e13
    ok = (
        r8.exit_code == 0 and r12.exit_code == 0
        and err8 < 0.01 and round(rep8["bit_security"]) in (30, 31)
        and err12 < 0.05 and round(rep12["bit_security"]) in (45, 46)
        and t8 < 1.0 and t12 < 1.0
    )
    _report(1, ok, f"n=8 err {err8:.4f} ({rep8['bit_security']:.2f} bits, {t8:.2f}s); "
                   f"n=12 err {err12:.4f} ({rep12['bit_security']:.2f} bits, {t12:.2f}s)")


def test_criterion_02_attack_simulator_tracks_formula():
    """Monte-Carlo attacker mean within 10% of the exact expectation."""
    rng = random.Random(2025)
    t = synth_template(2025, 40)
    vault, secret = encode_vault(t, VaultParams(2, 5, 20, 10.0, 400, 560), rng)
    genuine = genuine_indices(vault, secret)
    exact = Fraction(math.comb(25, 3) + 1, math.comb(5, 3) + 1)  # 2301/11
    t0 = time.perf_counter()
    mean = simulate_attack(vault, genuine, trials=10_000, rng=random.Random(2026))
    elapsed = time.perf_counter() - t0
    rel = abs(mean - float(exact)) / float(exact)
    ok = rel < 0.10 and elapsed < 60.0
    _report(2, ok, f"mean {mean:.1f} vs exact {float(exact):.1f} "
                   f"(rel err {rel:.3f}) in {elapsed:.1f}s over 10000 trials")


def test_criterion_03_round_trip_completeness():
    """Identical-template decode succeeds 100/100 at every built-in degree."""
    failures = []
    for name in ("fvc-1", "fvc-4", "fvc-5", "fvc-6"):
        cfg = BUILTIN_CONFIGS[name]
        wins = 0
        for i in range(100):
            seed = 31_000 + 100 * cfg.degree + i
            rng = random.Random(seed)
            t = synth_template(seed, 60)
            vault, secret = encode_vault(t, cfg.vault_params(), rng)
            res = decode_vault(vault, t, cfg.match_params(), ITERATIVE, rng)
            wins += int(res.matched and res.secret == secret)
        if wins != 100:
            failures.append(f"{name}: {wins}/100")
    _report(3, not failures,
            "100/100 self-matches at degrees 8, 10, 12, 14" if not failures
            else "; ".join(failures))


def test_criterion_04_chaff_substitution_breaks_crc():
    """One chaff point in an otherwise winning subset must fail the CRC."""
    rng = random.Random(2027)
    t = synth_template(2027, 60)
    vault, secret = encode_vault(t, VaultParams(8, 30, 300, 10.0, 400, 560), rng)
    gidx = genuine_indices(vault, secret)
    genuine = [vault.points[i] for i in gidx]
    chaff = [pt for i, pt in enumerate(vault.points) if i not in set(gidx)]
    trials = 10_000
    rejected = 0
    for _ in range(trials):
        subset = rng.sample(genuine, 9)
        subset[rng.randrange(9)] = rng.choice(chaff)
        if try_unlock(subset, 8) is None:
            rejected += 1
    ok = rejected >= 9_999
    _report(4, ok, f"{rejected}/{trials} swapped subsets rejected")


def test_criterion_05_decision_invariant_under_rigid_motion():
    """Global rotation within the basis gate plus translation changes nothing."""
    bad = []
    for name, cfg in BUILTIN_CONFIGS.items():
        rng = random.Random(5_000 + cfg.degree)
        t = boxed_template(5_100 + cfg.degree)
        vault, secret = encode_vault(t, cfg.vault_params(), rng)
        base = decode_vault(vault, t, cfg.match_params(), ITERATIVE, rng)
        if not base.matched:
            bad.append(f"{name}: baseline failed")
            continue
        # vault orientations are quantized to 360/1024 degrees, so stay
        # that far inside the gate or quantization could cross it
        max_rot = cfg.theta_basis_thres - 0.36
        for k in range(50):
            rot = rng.uniform(-max_rot, max_rot)
            shift = (rng.uniform(-20, 20), rng.uniform(-20, 20))
            probe = perturb_template(t, rotation=rot, translation=shift)
            if len(probe) != len(t):
                bad.append(f"{name}#{k}: motion cropped the template")
                break
            res = decode_vault(vault, probe, cfg.match_params(), ITERATIVE, rng)
            if res.matched is not base.matched or res.secret != secret:
                bad.append(f"{name}#{k}: rot {rot:.1f}, shift {shift}")
                break
    _report(5, not bad, "50 motions per configuration, all decisions unchanged"
            if not bad else "; ".join(bad))


def test_criterion_06_genuine_impostor_separation():
    """Gentle same-finger captures match; random other fingers never do."""
    cfg1 = BUILTIN_CONFIGS["fvc-1"]
    rng = random.Random(2028)
    genuine_hits = 0
    for i in range(200):
        t = synth_template(60_000 + i, 60)
        vault, _ = encode_vault(t, cfg1.vault_params(), rng)
        probe = perturb_template(
            t,
            rotation=rng.uniform(-8, 8),
            translation=(rng.uniform(-8, 8), rng.uniform(-8, 8)),
            jitter=3.0,
            theta_jitter=4.0,
            drop_fraction=0.1,
            rng=rng,
        )
        res = decode_vault(vault, probe, cfg1.match_params(), ITERATIVE, rng)
        genuine_hits += int(res.matched)

    cfg4 = BUILTIN_CONFIGS["fvc-4"]
    false_accepts = 0
    pair = 0
    for v in range(100):
        t = synth_template(70_000 + v, 60)
        vault, _ = encode_vault(t, cfg4.vault_params(), rng)
        for p in range(10):
            impostor = synth_template(80_000 + 10 * v + p, 60)
            res = decode_vault(vault, impostor, cfg4.match_params(), DEFAULT_STRATEGY, rng)
            false_accepts += int(res.matched)
            pair += 1
    ok = genuine_hits >= 190 and false_accepts == 0 and pair == 1000
    _report(6, ok, f"genuine {genuine_hits}/200 (need >= 190); "
                   f"false accepts {false_accepts}/1000 (need 0)")


def test_criterion_07_protocol_pair_counts():
    """140 fingers x 12 captures enumerate the canonical comparison counts."""
    dataset = make_synthetic_dataset(140, 12, minutia_count=5)
    report = run_fvc_protocol(dataset, None, None, dry_run=True)
    api_ok = (report.genuine_comparisons, report.impostor_comparisons) == (9240, 9730)

    runner = CliRunner()
    r = runner.invoke(cli_main, ["eval", "--synthetic", "fingers=140,captures=12",
                                 "--minutiae", "5", "--protocol", "fvc", "--dry-run"])
    cli_rep = json.loads(r.stdout)
    cli_ok = (r.exit_code == 0
              and cli_rep["genuine_comparisons"] == 9240
              and cli_rep["impostor_comparisons"] == 9730)
    _report(7, api_ok and cli_ok,
            f"driver counted {report.genuine_comparisons} genuine / "
            f"{report.impostor_comparisons} impostor; cli agreed={cli_ok}")


def test_criterion_08_runtime_and_basis_pruning():
    """Encode/decode stay inside budget; disabling the basis gate costs >= 2x."""
    cfg = BUILTIN_CONFIGS["fvc-1"]
    rng = random.Random(2029)
    encode_times, decode_times = [], []
    for i in range(20):
        t = synth_template(90_000 + i, 60)
        t0 = time.perf_counter()
        vault, _ = encode_vault(t, cfg.vault_params(), rng)
        t1 = time.perf_counter()
        probe = perturb_template(t, rotation=rng.uniform(-8, 8),
                                 translation=(rng.uniform(-6, 6), rng.uniform(-6, 6)),
                                 jitter=2.0, theta_jitter=3.0, rng=rng)
        res = decode_vault(vault, probe, cfg.match_params(), ITERATIVE, rng)
        t2 = time.perf_counter()
        encode_times.append(t1 - t0)
        decode_times.append(t2 - t1)
        assert res.matched
    mean_encode = sum(encode_times) / len(encode_times)
    mean_decode = sum(decode_times) / len(decode_times)

    # same impostor workload, gate wide open vs tight
    pruned = MatchParams(cfg.x_thres, cfg.y_thres, cfg.theta_thres, 10.0)
    open_gate = MatchParams(cfg.x_thres, cfg.y_thres, cfg.theta_thres, 360.0)
    elapsed = {10.0: 0.0, 360.0: 0.0}
    for i in range(3):
        t = synth_template(91_000 + i, 60)
        vault, _ = encode_vault(t, cfg.vault_params(), random.Random(92_000 + i))
        impostor = synth_template(93_000 + i, 60)
        for params in (pruned, open_gate):
            res = decode_vault(vault, impostor, params, DEFAULT_STRATEGY,
                               random.Random(94_000 + i))
            assert not res.matched
            elapsed[params.theta_basis_thres] += res.elapsed_seconds
    ratio = elapsed[360.0] / elapsed[10.0]
    ok = mean_encode <= 0.5 and mean_decode <= 5.0 and ratio >= 2.0
    _report(8, ok, f"mean encode {mean_encode * 1000:.0f}ms (<= 500ms), "
                   f"mean decode {mean_decode * 1000:.0f}ms (<= 5000ms), "
                   f"open/pruned basis time ratio {ratio:.1f}x (>= 2x)")


def test_criterion_09_field_arithmetic_battery():
    """10^5 randomized field-axiom trials plus exact interpolation identity."""
    rng = random.Random(2030)
    trials = 100_000
    for _ in range(trials):
        a, b, c = rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(32)
        assert gf32.gf_add(a, b) == gf32.gf_add(b, a)
        assert gf32.gf_add(gf32.gf_add(a, b), c) == gf32.gf_add(a, gf32.gf_add(b, c))
        assert gf32.gf_add(a, a) == 0 and gf32.gf_add(a, 0) == a
        assert gf32.gf_mul(a, b) == gf32.gf_mul(b, a)
        assert gf32.gf_mul(gf32.gf_mul(a, b), c) == gf32.gf_mul(a, gf32.gf_mul(b, c))
        assert gf32.gf_mul(a, 1) == a and gf32.gf_mul(a, 0) == 0
        assert gf32.gf_mul(a, gf32.gf_add(b, c)) == gf32.gf_add(
            gf32.gf_mul(a, b), gf32.gf_mul(a, c))
        if a:
            assert gf32.gf_mul(a, gf32.gf_inv(a)) == 1
    identity_ok = True
    for degree in range(15):
        coeffs = [rng.getrandbits(32) for _ in range(degree + 1)]
        xs = rng.sample(range(1 << 32), degree + 1)
        points = [(x, gf32.poly_eval(coeffs, x)) for x in xs]
        identity_ok = identity_ok and gf32.lagrange_interpolate(points, degree) == coeffs
    _report(9, identity_ok, f"{trials} axiom trials passed; "
                            "interpolate(evaluate(p)) == p for degrees 0..14")


def test_criterion_10_distributed_round_trip(tmp_path):
    """Two clients, one store: enroll, verify, and nothing raw ever leaves."""
    cfg = BUILTIN_CONFIGS["fvc-1"]
    params = cfg.vault_params()
    wire = []
    store_root = tmp_path / "vaults"
    base = synth_template(2031, 60)

    enroll_path = tmp_path / "clientA.xyt"
    with open(enroll_path, "w") as fh:
        for m in base.minutiae:
            fh.write(f"{m.x} {m.y} {m.theta:.4f} {m.quality}\n")
    probe_path = tmp_path / "clientB.xyt"
    probe = perturb_template(base, rotation=4.0, translation=(3.0, -4.0),
                             jitter=2.0, theta_jitter=3.0, rng=random.Random(2032))
    with open(probe_path, "w") as fh:
        for m in probe.minutiae:
            fh.write(f"{m.x} {m.y} {m.theta:.4f} {m.quality}\n")

    with VaultStoreService(FileVaultStore(store_root), port=0, wire_log=wire) as svc:
        client_enroll(enroll_path, "user-7", svc.url, params, random.Random(2033))
        accepted = client_verify(probe_path, "user-7", svc.url, params,
                                 cfg.match_params(), ITERATIVE, random.Random(2034))

    schema_ok = True
    for entry in wire:
        if entry.get("method") == "POST" and "request" in entry:
            validate_document_dict(entry["request"], require_id=False)
        if entry.get("method") == "GET" and entry.get("path") == "/vaults":
            for doc in entry["response"].get("vaults", []):
                validate_document_dict(doc, require_id=True)
    blobs = list(store_root.rglob("*.json"))
    for blob in blobs:
        validate_document_dict(json.loads(blob.read_text()), require_id=True)

    ok = (accepted and schema_ok and len(blobs) == 1
          and not enroll_path.exists() and not probe_path.exists()
          and any(e.get("method") == "POST" for e in wire)
          and any(e.get("method") == "GET" for e in wire))
    _report(10, ok, f"accepted={accepted}, wire messages={len(wire)}, "
                    f"stored blobs={len(blobs)}, both template files destroyed")