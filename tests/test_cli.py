"""The fv command line surface: flags, JSON output and exit codes."""

import json
import random
import time

import click
import pytest
from click.testing import CliRunner

from fuzzyvault import cli, decoder
from fuzzyvault.cli import main
from fuzzyvault.aligner import MatchParams
from fuzzyvault.decoder import try_unlock
from fuzzyvault.evaluation import perturb_template, synth_template
from fuzzyvault.minutiae import read_template
from fuzzyvault.service import VaultStoreService
from fuzzyvault.store import FileVaultStore
from fuzzyvault.vault import vault_from_dict


@pytest.fixture
def runner():
    return CliRunner()


def write_template(path, template):
    with open(path, "w") as fh:
        for m in template.minutiae:
            fh.write(f"{m.x} {m.y} {m.theta:.4f} {m.quality}\n")


def strict_json(text):
    """Parse text as JSON proper: NaN, Infinity and -Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_security_report_shape(runner):
    result = runner.invoke(main, ["security", "--g", "35", "--c", "300", "--n", "8"])
    assert result.exit_code == 0
    report = strict_json(result.stdout)
    assert set(report) == {"v_s", "g_s", "expected_attempts", "expected_seconds", "bit_security"}
    assert report["expected_seconds"] is None
    assert abs(report["expected_attempts"] - 1.86e9) / 1.86e9 < 0.01


def test_security_with_latency(runner):
    result = runner.invoke(main, ["security", "--g", "35", "--c", "300", "--n", "8",
                                  "--l", "0.01"])
    report = strict_json(result.stdout)
    assert abs(report["expected_seconds"] - 1.86e7) / 1.86e7 < 0.01


def test_security_past_the_float_range_reports_integers(runner):
    result = runner.invoke(main, ["security", "--g", "3000", "--c", "340000", "--n", "800",
                                  "--l", "0.001"])
    assert result.exit_code == 0, result.output
    report = strict_json(result.stdout)
    attempts, seconds = report["expected_attempts"], report["expected_seconds"]
    assert type(attempts) is int and type(seconds) is int
    assert attempts > 10**1600
    assert abs(1000 * seconds - attempts) < attempts // 10**15  # 0.001 is not exact in binary


def test_security_rejects_bad_shape(runner):
    result = runner.invoke(main, ["security", "--g", "8", "--c", "300", "--n", "8"])
    assert result.exit_code == 2


def test_encode_verify_round_trip(runner, tmp_path):
    t = synth_template(900, 60)
    template_path = tmp_path / "f.xyt"
    write_template(template_path, t)
    vault_path = tmp_path / "vault.json"

    result = runner.invoke(main, [
        "encode", "--template", str(template_path), "--out", str(vault_path),
        "--n", "8", "--genuine", "30", "--chaff", "340", "--pd", "10", "--seed", "1",
    ])
    assert result.exit_code == 0, result.stderr
    secret_hex = result.stdout.strip()
    assert len(secret_hex) == 64  # 256-bit secret
    assert vault_path.exists()

    probe_path = tmp_path / "p.xyt"
    write_template(probe_path, perturb_template(t, rotation=4.0, jitter=2.0,
                                                rng=random.Random(2)))
    result = runner.invoke(main, [
        "verify", "--vault", str(vault_path), "--probe", str(probe_path),
        "--x-thres", "12", "--y-thres", "12", "--theta-thres", "12", "--basis-thres", "15",
        "--strategy", "iterative-selection", "--stats",
    ])
    assert result.exit_code == 0, result.stderr
    stats = json.loads(result.stdout)
    assert stats["matched"] is True
    assert stats["secret"] == secret_hex
    assert stats["interpolations_performed"] >= 1


def test_verify_defaults_to_the_library_strategy(runner, tmp_path):
    # no --strategy and no --cap: DEFAULT_STRATEGY itself, variant and cap
    t = synth_template(903, 60)
    template_path, vault_path, probe_path = tmp_path / "f.xyt", tmp_path / "v.json", tmp_path / "p.xyt"
    write_template(template_path, t)
    runner.invoke(main, ["encode", "--template", str(template_path), "--out", str(vault_path),
                         "--seed", "5"])
    probe = perturb_template(t, rotation=5.0, jitter=3.0, drop_fraction=0.1, rng=random.Random(6))
    write_template(probe_path, probe)
    result = runner.invoke(main, ["verify", "--vault", str(vault_path), "--probe", str(probe_path),
                                  "--seed", "7", "--stats"])
    assert result.exit_code == 0, result.stderr
    vault = vault_from_dict(json.loads(vault_path.read_text()))
    want = decoder.decode_vault(vault, read_template(probe_path, 400, 560),
                                MatchParams(12.0, 12.0, 12.0, 15.0), decoder.DEFAULT_STRATEGY,
                                random.Random(7))
    got = json.loads(result.stdout)
    assert got["secret"] == want.secret.hex()
    assert [got[key] for key in ("bases_tried", "candidate_sets_evaluated",
                                 "interpolations_performed")] == [
        want.bases_tried, want.candidate_sets_evaluated, want.interpolations_performed]
    for command in ("verify", "auth"):
        help_text = runner.invoke(main, [command, "--help"]).output
        assert decoder.DEFAULT_STRATEGY.variant in help_text
        assert str(decoder.DEFAULT_STRATEGY.iteration_cap) in help_text


def test_verify_non_match_exits_one(runner, tmp_path):
    template_path = tmp_path / "f.xyt"
    write_template(template_path, synth_template(901, 60))
    vault_path = tmp_path / "vault.json"
    runner.invoke(main, ["encode", "--template", str(template_path),
                         "--out", str(vault_path), "--seed", "3"])
    probe_path = tmp_path / "impostor.xyt"
    write_template(probe_path, synth_template(902, 60))
    result = runner.invoke(main, ["verify", "--vault", str(vault_path),
                                  "--probe", str(probe_path), "--seed", "4"])
    assert result.exit_code == 1


def test_verify_malformed_vault_file_exits_two(runner, tmp_path):
    template_path = tmp_path / "f.xyt"
    write_template(template_path, synth_template(904, 60))
    vault_path = tmp_path / "vault.json"
    runner.invoke(main, ["encode", "--template", str(template_path),
                         "--out", str(vault_path), "--seed", "5"])
    data = json.loads(vault_path.read_text())
    data["points"][0] = ["7", "8"]  # strings are not coerced
    vault_path.write_text(json.dumps(data))
    result = runner.invoke(main, ["verify", "--vault", str(vault_path),
                                  "--probe", str(template_path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "points[0]" in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flag", ["--x-thres", "--y-thres"])
def test_verify_infinite_threshold_exits_two(runner, tmp_path, flag):
    template_path = tmp_path / "f.xyt"
    write_template(template_path, synth_template(905, 60))
    vault_path = tmp_path / "vault.json"
    runner.invoke(main, ["encode", "--template", str(template_path),
                         "--out", str(vault_path), "--seed", "6"])
    result = runner.invoke(main, ["verify", "--vault", str(vault_path),
                                  "--probe", str(template_path), flag, "inf"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "must be finite" in result.stderr
    assert "Traceback" not in result.output


def template_file(tmp_path):
    template_path = tmp_path / "f.xyt"
    write_template(template_path, synth_template(909, 60))
    return template_path


def unwritable_secret_out(runner, tmp_path):
    return ["encode", "--template", str(template_file(tmp_path)), "--out",
            str(tmp_path / "v.json"), "--secret-out", str(tmp_path / "missing" / "s.hex")]


def nan_point_distance(runner, tmp_path):
    return ["encode", "--template", str(template_file(tmp_path)), "--out",
            str(tmp_path / "v.json"), "--pd", "nan"]


def float_degree_vault(runner, tmp_path):
    template_path, vault_path = template_file(tmp_path), tmp_path / "vault.json"
    runner.invoke(main, ["encode", "--template", str(template_path),
                         "--out", str(vault_path), "--seed", "1"])
    data = json.loads(vault_path.read_text())
    data["params"]["n"] = 8.0
    vault_path.write_text(json.dumps(data))
    return ["verify", "--vault", str(vault_path), "--probe", str(template_path)]


def inf_point_distance(runner, tmp_path):
    return ["encode", "--template", str(template_file(tmp_path)), "--out",
            str(tmp_path / "v.json"), "--pd", "inf"]


def deeply_nested_vault(runner, tmp_path):
    vault_path = tmp_path / "deep.json"
    vault_path.write_text("[" * 100_000)  # past the json parser's recursion limit
    return ["verify", "--vault", str(vault_path), "--probe", str(template_file(tmp_path))]


def separator_in_template(runner, tmp_path):
    template_path = tmp_path / "f.xyt"
    template_path.write_text("1_0 20 30\n")  # int() reads 1_0 as 10
    return ["encode", "--template", str(template_path), "--out", str(tmp_path / "v.json")]


def sparse_enroll_template(runner, tmp_path):
    template_path = tmp_path / "sparse.xyt"
    write_template(template_path, synth_template(910, 20))  # fvc-1 locks 30 minutiae
    # the store is never dialled: encoding fails first
    return ["enroll", "--id", "ada", "--template", str(template_path),
            "--server", "http://127.0.0.1:9"]


@pytest.mark.parametrize("make_args, reason", [
    (unwritable_secret_out, "s.hex"),
    (nan_point_distance, "points_distance"),
    (inf_point_distance, "points_distance"),
    (float_degree_vault, "params.n"),
    (deeply_nested_vault, "nested too deeply"),
    (separator_in_template, "line 1"),
    (sparse_enroll_template, "required; rescan the finger\n"),  # said once
    (lambda runner, tmp_path: ["serve", "--memory", "--port", "70000"], "--port"),
    (lambda runner, tmp_path: ["security", "--g", "35", "--c", "300", "--n", "8", "--l", "nan"],
     "interpolation_seconds"),
    (lambda runner, tmp_path: ["security", "--g", "35", "--c", "300", "--n", "8", "--l", "inf"],
     "interpolation_seconds"),
    (lambda runner, tmp_path: ["security", "--g", "35", "--c", "300", "--n", "8",
                               "--l", "1e400"], "interpolation_seconds"),
    (lambda runner, tmp_path: ["eval", "--synthetic", "x=1"], "--synthetic"),
    (lambda runner, tmp_path: ["eval", "--synthetic", "fingers=2,captures=2",
                               "--width", "10", "--height", "10"], "synthetic minutia"),
], ids=["secret-out", "pd-nan", "pd-inf", "float-degree", "deep-vault", "xyt-separator",
        "sparse-enroll", "port", "l-nan", "l-inf", "l-1e400", "synthetic", "synthetic-shape"])
def test_usage_errors_exit_two_without_traceback(runner, tmp_path, make_args, reason):
    result = runner.invoke(main, make_args(runner, tmp_path))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr.lower() and reason in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("failing", ["out", "secret-out"])
def test_encode_write_failure_leaves_no_file(runner, tmp_path, failing):
    # the vault is useless without its secret, and the secret without its vault
    paths = {"out": tmp_path / "v.json", "secret-out": tmp_path / "s.hex"}
    paths[failing] = tmp_path / "missing" / paths[failing].name
    result = runner.invoke(main, ["encode", "--template", str(template_file(tmp_path)),
                                  "--out", str(paths["out"]), "--secret-out", str(paths["secret-out"])])
    assert result.exit_code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.xyt"]


@pytest.mark.parametrize("alias", ["v.json", "./v.json"])
def test_encode_refuses_secret_out_equal_to_out(runner, tmp_path, monkeypatch, alias):
    # the secret would overwrite the vault it unlocks
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["encode", "--template", str(template_file(tmp_path)),
                                  "--out", "v.json", "--secret-out", alias])
    assert result.exit_code == 2
    assert "error:" in result.stderr and "--secret-out" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.xyt"]


def test_encode_folds_an_angle_just_below_zero(runner, tmp_path):
    # the best minutia's -1e-20 once became theta 360.0, which encoding refused
    template_path = tmp_path / "f.xyt"
    lines = [f"{m.x} {m.y} {m.theta!r} {m.quality}" for m in synth_template(904, 60).minutiae]
    x, y, _, _ = lines[0].split()
    lines[0] = f"{x} {y} -1e-20 101"
    template_path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["encode", "--template", str(template_path),
                                  "--out", str(tmp_path / "v.json"), "--seed", "1"])
    assert result.exit_code == 0, result.stderr


def test_encode_error_exits_two(runner, tmp_path):
    template_path = tmp_path / "thin.xyt"
    write_template(template_path, synth_template(903, 10))  # too few minutiae
    result = runner.invoke(main, ["encode", "--template", str(template_path),
                                  "--out", str(tmp_path / "v.json")])
    assert result.exit_code == 2
    assert "error" in result.stderr


def test_eval_dry_run_counts(runner):
    for protocol, shape, genuine, impostor in [
        ("fvc", "fingers=140,captures=12", 9240, 9730),
        ("all", "fingers=10,captures=3", 30, 405),  # C(30, 2) capture pairs minus 30 genuine
    ]:
        result = runner.invoke(main, ["eval", "--synthetic", shape,
                                      "--protocol", protocol, "--dry-run", "--minutiae", "20"])
        assert result.exit_code == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["genuine_comparisons"] == genuine
        assert report["impostor_comparisons"] == impostor


def test_eval_small_run_with_csv(runner, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--synthetic", "fingers=2,captures=2",
                                  "--config", "fvc-1", "--seed", "5",
                                  "--out", str(out), "--dry-run"])
    assert result.exit_code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert "fmr" in header and "fnmr" in header


def test_eval_requires_exactly_one_source(runner):
    assert runner.invoke(main, ["eval"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--synthetic", "x=1"]).exit_code == 2


def test_benchmark_reports_latency(runner):
    result = runner.invoke(main, ["benchmark", "--n", "4", "--trials", "20"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["interpolation_seconds"] > 0


@pytest.mark.parametrize("trials, stalled", [(5, 3), (1, 1)], ids=["counted", "warm-up"])
def test_benchmark_median_ignores_one_stall(runner, monkeypatch, trials, stalled):
    calls = []

    def stalling_unlock(subset, degree):
        calls.append(degree)
        if len(calls) == stalled:
            time.sleep(0.05)
        return try_unlock(subset, degree)

    monkeypatch.setattr(cli, "try_unlock", stalling_unlock)
    result = runner.invoke(main, ["benchmark", "--n", "4", "--trials", str(trials)])
    assert result.exit_code == 0
    assert len(calls) == trials + 1  # one warm-up, then the trials
    # the mean of five trials, or a median that counts the warm-up, is over 10 ms
    assert json.loads(result.stdout)["interpolation_seconds"] < 0.005


@pytest.mark.parametrize("args", [["--trials", "0"], ["--trials", "-3"], ["--n", "0"],
                                  ["--n", "-1"]])
def test_benchmark_rejects_non_positive_counts(runner, args):
    result = runner.invoke(main, ["benchmark", *args])
    assert result.exit_code == 2
    assert "Invalid value" in result.stderr
    assert "Traceback" not in result.output


# int() and float() read "1_0" as 10 and Arabic-Indic digits as their values
@pytest.mark.parametrize("args", [
    ["eval", "--synthetic", "fingers=1_0,captures=2", "--dry-run"],
    ["eval", "--synthetic", "fingers=10,captures=\u0662", "--dry-run"],
    ["eval", "--synthetic", "fingers=2,captures=2", "--minutiae", "6_0", "--dry-run"],
    ["security", "--g", "3_5", "--c", "300", "--n", "8"],
    ["security", "--g", "35", "--c", "\u0663\u0660\u0660", "--n", "8"],
    ["security", "--g", "35", "--c", "300", "--n", "8", "--l", "1_0e-3"],
    ["benchmark", "--n", "\u0668", "--trials", "1"],
    ["benchmark", "--n", "8", "--trials", "1_0"],
])
def test_numbers_must_be_plain_ascii(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output


def test_every_number_option_refuses_what_int_and_float_coerce():
    numeric = (click.types.IntParamType, click.types.FloatParamType)
    options = [(command.name, param) for command in main.commands.values()
               for param in command.params if isinstance(param.type, numeric)]
    assert len(options) == 32  # every int and float option of every command
    for name, param in options:
        assert param.type.convert("10", param, None) == 10, (name, param.name)
        for value in ("1_0", "\u0663"):
            with pytest.raises(click.BadParameter):
                param.type.convert(value, param, None)


def test_enroll_and_auth_flow(runner, tmp_path):
    svc = VaultStoreService(FileVaultStore(tmp_path / "vaults"), port=0)
    with svc:
        base = synth_template(904, 60)
        enroll_path = tmp_path / "enroll.xyt"
        write_template(enroll_path, base)
        result = runner.invoke(main, ["enroll", "--id", "7", "--template", str(enroll_path),
                                      "--server", svc.url, "--seed", "6"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout.strip()
        assert not enroll_path.exists()

        probe_path = tmp_path / "probe.xyt"
        write_template(probe_path, perturb_template(base, rotation=3.0, jitter=2.0,
                                                    rng=random.Random(7)))
        result = runner.invoke(main, ["auth", "--id", "7", "--probe", str(probe_path),
                                      "--server", svc.url,
                                      "--strategy", "iterative-selection", "--seed", "8"])
        assert result.exit_code == 0, result.stderr
        assert not probe_path.exists()

        reject_path = tmp_path / "reject.xyt"
        write_template(reject_path, synth_template(905, 60))
        result = runner.invoke(main, ["auth", "--id", "7", "--probe", str(reject_path),
                                      "--server", svc.url, "--seed", "9"])
        assert result.exit_code == 1

        ghost_path = tmp_path / "ghost.xyt"
        write_template(ghost_path, synth_template(906, 60))
        result = runner.invoke(main, ["auth", "--id", "ghost", "--probe", str(ghost_path),
                                      "--server", svc.url])
        assert result.exit_code == 3


def assert_one_error_line(result, reason):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and reason in line
    assert "Traceback" not in result.output


def test_verify_past_the_subset_budget_accepts(runner, tmp_path, monkeypatch):
    # the genuine finger's candidate sets are past the budget, and it is still accepted
    monkeypatch.setattr(decoder, "SUBSET_BUDGET", 1000)
    template_path = tmp_path / "f.xyt"
    write_template(template_path, synth_template(5, 60))
    vault_path = tmp_path / "vault.json"
    result = runner.invoke(main, ["encode", "--template", str(template_path),
                                  "--out", str(vault_path), "--seed", "1"])
    secret_hex = result.stdout.strip()
    result = runner.invoke(main, ["verify", "--vault", str(vault_path),
                                  "--probe", str(template_path),
                                  "--strategy", "random-generation", "--seed", "2", "--stats"])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["secret"] == secret_hex


def test_auth_past_the_subset_budget_accepts_and_deletes_probe(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(decoder, "SUBSET_BUDGET", 1000)
    svc = VaultStoreService(FileVaultStore(tmp_path / "vaults"), port=0)
    with svc:
        enroll_path = tmp_path / "enroll.xyt"
        write_template(enroll_path, synth_template(5, 60))
        result = runner.invoke(main, ["enroll", "--id", "9", "--template", str(enroll_path),
                                      "--server", svc.url, "--seed", "1"])
        assert result.exit_code == 0, result.stderr

        probe_path = tmp_path / "probe.xyt"
        write_template(probe_path, synth_template(5, 60))
        result = runner.invoke(main, ["auth", "--id", "9", "--probe", str(probe_path),
                                      "--server", svc.url,
                                      "--strategy", "random-generation", "--seed", "2"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == "accept\n"
        assert not probe_path.exists()  # a decision destroys the probe


def test_server_env_fallback(runner, tmp_path, monkeypatch):
    svc = VaultStoreService(FileVaultStore(tmp_path / "vaults"), port=0)
    with svc:
        monkeypatch.setenv("FV_SERVER", svc.url)
        enroll_path = tmp_path / "enroll.xyt"
        write_template(enroll_path, synth_template(907, 60))
        result = runner.invoke(main, ["enroll", "--id", "8", "--template", str(enroll_path)])
        assert result.exit_code == 0, result.stderr


def test_auth_unreachable_server_exits_two(runner, tmp_path):
    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(908, 60))
    result = runner.invoke(main, ["auth", "--id", "7", "--probe", str(probe_path),
                                  "--server", "http://127.0.0.1:9"])
    assert result.exit_code == 2
    assert probe_path.exists()