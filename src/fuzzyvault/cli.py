"""The fv command line.

Subcommands cover the whole system: local vault files (encode, verify),
attack-cost reports (security, benchmark), accuracy runs (eval) and the
distributed deployment (serve, enroll, auth).

Exit codes follow the verification convention everywhere: 0 for a
positive decision, 1 for a negative one, 2 for any error, and 3 when an
auth id has nothing enrolled.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click

from .aligner import MatchParams
from .client import UnknownUser
from .client import enroll as client_enroll
from .client import verify as client_verify
from .decoder import DEFAULT_STRATEGY, VARIANTS, SubsetStrategy, decode_vault, try_unlock
from .evaluation import (
    BUILTIN_CONFIGS,
    all_vs_all_pairs,
    fvc_pairs,
    load_dataset,
    make_synthetic_dataset,
    run_fvc_protocol,
    write_report_csv,
)
from .minutiae import ChaffExhausted, InsufficientMinutiae, read_template
from .security import SecurityModel, estimate, float_or_int
from .service import VaultStoreService
from .store import FileVaultStore, MemoryVaultStore, StorageUnavailable, parse_json
from .vault import (
    VaultParams,
    VaultPoint,
    encode_vault,
    vault_from_dict,
    vault_to_dict,
)

# Typed errors any subcommand may end in; the package's own input and
# schema errors are ValueError subclasses.
_USAGE_ERRORS = (InsufficientMinutiae, ChaffExhausted, StorageUnavailable, ValueError, OSError)


class _Plain:
    """Mixin for click's number types: refuse a non-ASCII character or "_" first,
    which int() and float() read ("1_0" as 10, "٣" as 3); parse_template's rule."""

    def convert(self, value, param, ctx):
        if isinstance(value, str) and (not value.isascii() or "_" in value):
            self.fail(f"{value!r} is not a plain ASCII number", param, ctx)
        return super().convert(value, param, ctx)


class _Int(_Plain, click.types.IntParamType):
    pass


class _Float(_Plain, click.types.FloatParamType):
    pass


class _IntRange(_Plain, click.IntRange):
    pass


_INT, _FLOAT = _Int(), _Float()


def _fail(exc) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


class _Group(click.Group):
    """Ends every subcommand that raises one of _USAGE_ERRORS with exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _USAGE_ERRORS as exc:
            _fail(exc)


@click.group(cls=_Group, context_settings={"show_default": True})
def main():
    """Fingerprint fuzzy vaults: encode, match, analyze, serve."""


@main.command()
@click.option("--template", "template_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="minutiae file (.xyt)")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="where to write the vault JSON")
@click.option("--n", "degree", type=_INT, default=8, help="polynomial degree")
@click.option("--genuine", type=_INT, default=30, help="genuine minutiae locked in")
@click.option("--chaff", type=_INT, default=340, help="chaff points added")
@click.option("--pd", type=_FLOAT, default=10.0, help="minimum point distance, px")
@click.option("--width", type=_INT, default=400)
@click.option("--height", type=_INT, default=560)
@click.option("--seed", type=_INT, default=None, help="RNG seed (default: OS entropy)")
@click.option("--secret-out", type=click.Path(dir_okay=False), default=None,
              help="write the bound secret (hex) to a file instead of stdout")
def encode(template_path, out_path, degree, genuine, chaff, pd, width, height, seed, secret_out):
    """Lock a minutiae template into a vault file."""
    if secret_out and Path(secret_out).resolve() == Path(out_path).resolve():
        raise ValueError("--secret-out names the --out file; the secret would overwrite the vault")
    rng = random.Random(seed)
    params = VaultParams(degree, genuine, chaff, pd, width, height)
    template = read_template(template_path, width, height)
    vault, secret = encode_vault(template, params, rng)
    out = Path(out_path)
    out.write_text(json.dumps(vault_to_dict(vault), indent=2) + "\n")
    if secret_out:
        try:
            Path(secret_out).write_text(secret.hex() + "\n")
        except OSError:
            out.unlink()  # a vault whose secret is lost must not outlive the command
            raise
    else:
        click.echo(secret.hex())


@main.command()
@click.option("--vault", "vault_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--probe", "probe_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--x-thres", type=_FLOAT, default=12.0)
@click.option("--y-thres", type=_FLOAT, default=12.0)
@click.option("--theta-thres", type=_FLOAT, default=12.0)
@click.option("--basis-thres", type=_FLOAT, default=15.0)
@click.option("--strategy", "strategy_name", type=click.Choice(VARIANTS),
              default=DEFAULT_STRATEGY.variant)
@click.option("--cap", type=_INT, default=DEFAULT_STRATEGY.iteration_cap,
              help="subsets tried per candidate set")
@click.option("--seed", type=_INT, default=None)
@click.option("--stats", is_flag=True, help="print the match counters as JSON")
def verify(vault_path, probe_path, x_thres, y_thres, theta_thres, basis_thres,
           strategy_name, cap, seed, stats):
    """Try to unlock a vault file with a probe template.

    Exit 0 on match, 1 on non-match, 2 on error.
    """
    rng = random.Random(seed)
    vault = vault_from_dict(parse_json(Path(vault_path).read_text()))
    probe = read_template(probe_path, vault.params.width, vault.params.height)
    match_params = MatchParams(x_thres, y_thres, theta_thres, basis_thres)
    result = decode_vault(vault, probe, match_params, SubsetStrategy(strategy_name, cap), rng)
    if stats:
        record = {**asdict(result), "secret": result.secret.hex() if result.secret else None}
        click.echo(json.dumps(record))
    sys.exit(0 if result.matched else 1)


@main.command()
@click.option("--g", "genuine", required=True, type=_INT, help="genuine points in the vault")
@click.option("--c", "chaff", required=True, type=_INT, help="chaff points in the vault")
@click.option("--n", "degree", required=True, type=_INT, help="polynomial degree")
@click.option("--l", "interp_seconds", type=_FLOAT, default=None,
              help="measured seconds per unlock attempt (see: fv benchmark)")
def security(genuine, chaff, degree, interp_seconds):
    """Analytic brute-force cost of a vault shape, as JSON."""
    est = estimate(SecurityModel(genuine, chaff, degree, interp_seconds))
    click.echo(json.dumps({
        "v_s": est.vault_subsets,
        "g_s": est.genuine_subsets,
        "expected_attempts": float_or_int(est.expected_attempts),
        "expected_seconds": est.expected_seconds,
        "bit_security": est.bit_security,
    }))


@main.command()
@click.option("--n", "degree", default=8, type=_IntRange(min=1), help="polynomial degree")
@click.option("--trials", default=200, type=_IntRange(min=1))
@click.option("--seed", type=_INT, default=0)
def benchmark(degree, trials, seed):
    """Median seconds per unlock attempt, after one warm-up; feed it to security --l."""
    rng = random.Random(seed)
    samples = []
    for _ in range(trials + 1):
        xs = rng.sample(range(1 << 32), degree + 1)
        subset = [VaultPoint(x, rng.getrandbits(32)) for x in xs]
        t0 = time.perf_counter()
        try_unlock(subset, degree)
        samples.append(time.perf_counter() - t0)
    click.echo(json.dumps({
        "degree": degree,
        "trials": trials,
        "interpolation_seconds": statistics.median(samples[1:]),
    }))


def _parse_synthetic(shape: str) -> tuple[int, int]:
    fields = (field.partition("=") for field in shape.split(","))
    pairs = {key.strip(): value.strip() for key, _, value in fields}
    try:
        return tuple(_INT.convert(pairs[key], None, None) for key in ("fingers", "captures"))
    except (KeyError, click.BadParameter):
        raise ValueError(f'--synthetic wants "fingers=10,captures=5", got {shape!r}') from None


@main.command(name="eval")
@click.option("--dataset", "dataset_dir", type=click.Path(exists=True, file_okay=False),
              default=None, help="directory of finger_id/capture.xyt trees")
@click.option("--synthetic", "synthetic_spec", default=None, metavar="SHAPE",
              help='generate data instead, e.g. "fingers=10,captures=5"')
@click.option("--protocol", type=click.Choice(["fvc", "all"]), default="fvc")
@click.option("--config", "config_name", type=click.Choice(sorted(BUILTIN_CONFIGS)),
              default="fvc-1")
@click.option("--seed", type=_INT, default=0)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="also write the report as CSV")
@click.option("--width", type=_INT, default=400)
@click.option("--height", type=_INT, default=560)
@click.option("--minutiae", type=_INT, default=60, help="synthetic minutiae per finger")
@click.option("--dry-run", is_flag=True, help="count the comparisons, execute none")
def eval_cmd(dataset_dir, synthetic_spec, protocol, config_name, seed, out_path,
             width, height, minutiae, dry_run):
    """Accuracy run (FMR/FNMR) over a dataset directory or synthetic data."""
    if (dataset_dir is None) == (synthetic_spec is None):
        _fail("pass exactly one of --dataset and --synthetic")
    cfg = BUILTIN_CONFIGS[config_name]
    if dataset_dir is not None:
        dataset = load_dataset(dataset_dir, width, height)
    else:
        fingers, captures = _parse_synthetic(synthetic_spec)
        dataset = make_synthetic_dataset(
            fingers, captures, minutia_count=minutiae, width=width, height=height, seed=seed
        )
    report = run_fvc_protocol(
        dataset,
        cfg.vault_params(width, height),
        cfg.match_params(),
        rng=random.Random(seed),
        dry_run=dry_run,
        pairs=fvc_pairs if protocol == "fvc" else all_vs_all_pairs,
    )
    if out_path:
        write_report_csv(report, out_path)
    click.echo(json.dumps(asdict(report), indent=2))


@main.command()
@click.option("--id", "user_id", required=True, help="user id the vault is filed under")
@click.option("--template", "template_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--server", envvar="FV_SERVER", required=True,
              help="vault store URL (env: FV_SERVER)")
@click.option("--config", "config_name", type=click.Choice(sorted(BUILTIN_CONFIGS)),
              default="fvc-1")
@click.option("--width", type=_INT, default=400)
@click.option("--height", type=_INT, default=560)
@click.option("--seed", type=_INT, default=None)
def enroll(user_id, template_path, server, config_name, width, height, seed):
    """Encode a template locally, store the vault, destroy the template."""
    cfg = BUILTIN_CONFIGS[config_name]
    object_id, _secret = client_enroll(
        template_path, user_id, server, cfg.vault_params(width, height), random.Random(seed)
    )
    click.echo(object_id)


@main.command()
@click.option("--id", "user_id", required=True)
@click.option("--probe", "probe_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--server", envvar="FV_SERVER", required=True,
              help="vault store URL (env: FV_SERVER)")
@click.option("--config", "config_name", type=click.Choice(sorted(BUILTIN_CONFIGS)),
              default="fvc-1")
@click.option("--strategy", "strategy_name", type=click.Choice(VARIANTS),
              default=DEFAULT_STRATEGY.variant)
@click.option("--cap", type=_INT, default=DEFAULT_STRATEGY.iteration_cap,
              help="subsets tried per candidate set")
@click.option("--width", type=_INT, default=400)
@click.option("--height", type=_INT, default=560)
@click.option("--seed", type=_INT, default=None)
def auth(user_id, probe_path, server, config_name, strategy_name, cap, width, height, seed):
    """Verify a probe against every vault stored under --id.

    Exit 0 accept, 1 reject, 3 unknown user, 2 error.  The probe file is
    deleted on 0, 1 and 3 and kept on 2.
    """
    cfg = BUILTIN_CONFIGS[config_name]
    try:
        accepted = client_verify(
            probe_path,
            user_id,
            server,
            cfg.vault_params(width, height),
            cfg.match_params(),
            SubsetStrategy(strategy_name, cap),
            random.Random(seed),
        )
    except UnknownUser as exc:
        click.echo(f"unknown user: {exc}", err=True)
        sys.exit(3)
    click.echo("accept" if accepted else "reject")
    sys.exit(0 if accepted else 1)


@main.command()
@click.option("--store-root", envvar="FV_STORE_ROOT", type=click.Path(file_okay=False),
              default=None, help="directory for vault files (env: FV_STORE_ROOT)")
@click.option("--memory", "use_memory", is_flag=True, help="volatile in-process store")
@click.option("--host", default="127.0.0.1")
@click.option("--port", default=8088, type=_IntRange(0, 65535))
def serve(store_root, use_memory, host, port):
    """Run the vault store service in the foreground."""
    if use_memory == (store_root is not None):
        _fail("pass exactly one of --store-root and --memory")
    store = MemoryVaultStore() if use_memory else FileVaultStore(store_root)
    service = VaultStoreService(store, host, port)
    click.echo(f"vault store listening on {service.url}", err=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
