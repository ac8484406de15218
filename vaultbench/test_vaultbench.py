"""Tests for the benchmark's own arithmetic, its tracer and a tiny run of
each workload.  Run from the repository root:

    python3 -m pytest -q vaultbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from stats import failed_ratio, summarize, tail_rank  # noqa: E402
from tracer import END, PARENT, START, Layer, Tracer, layer_stats, self_times  # noqa: E402
from workloads import FALSE_REJECT, FVC1, Outcome  # noqa: E402

from fuzzyvault import client, decoder, gf32  # noqa: E402
from fuzzyvault.evaluation import synth_template  # noqa: E402
from fuzzyvault.store import MemoryVaultStore  # noqa: E402
from fuzzyvault.vault import encode_vault  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("n, rank", [(100, 89), (250, 224), (1000, 899), (37, 26), (99, 88)])
def test_tail_is_p90_or_the_highest_percentile_with_ten_beyond(n, rank):
    assert tail_rank(n) == rank
    assert n - 1 - rank >= 10


def test_tail_is_exactly_p90_from_100_samples():
    s = summarize([float(x) for x in range(1, 101)])
    assert (s.tail, s.tail_pct, s.p50) == (90.0, 90.0, 50.5)


def test_interquartile_mean_ignores_the_outer_quarters():
    assert summarize([1.0, 2.0, 3.0, 4.0, 100.0, -50.0, 5.0, 6.0]).iqm == 3.5
    assert summarize([7.0]).iqm == 7.0
    # a mixture of a fast and a slow phase: the median jumps, the IQM moves smoothly
    fast, slow = [1.7] * 45, [2.3] * 55
    assert summarize(fast + slow).iqm == pytest.approx((20 * 1.7 + 30 * 2.3) / 50)


def test_trimmed_mean_drops_five_percent_at_each_end():
    samples = [1.0] + [2.0] * 18 + [1000.0]
    assert summarize(samples).tmean == 2.0
    assert summarize([3.0, 5.0]).tmean == 4.0


@pytest.mark.parametrize("n", [1, 2, 5, 11, 16, 20])
def test_tail_never_falls_below_the_median(n):
    s = summarize([float(x) for x in range(n)])
    assert s.tail >= s.p50
    assert tail_rank(n) == max(n // 2, n - 11)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail_rank(0)


# failed_ops -----------------------------------------------------------------

def _outcome(op, failure=None):
    return Outcome(op, "a", 0.01, failure, "", 0)


def test_failed_ops_counts_false_rejects_but_only_defects_are_incorrect():
    outcomes = [_outcome(i) for i in range(8)]
    outcomes += [_outcome(8, FALSE_REJECT), _outcome(9, "impostor accepted")]
    failures, defects = run.tally(outcomes)
    assert failed_ratio(len(failures), len(outcomes)) == pytest.approx(0.2)
    assert [o.op for o in defects] == [9]
    failures, defects = run.tally(outcomes[:9])
    assert (len(failures), defects) == (1, [])


def test_failed_ratio_rejects_impossible_counts():
    assert failed_ratio(0, 5) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(6, 5)


# self time ------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # decode_vault > try_unlock > lagrange_interpolate > poly_eval, twice,
    # then a kernel call; times are arbitrary units.
    spans = [
        ["decoder.decode_vault", 0, 100, None, 0],
        ["decoder.try_unlock", 10, 40, 0, 0],
        ["gf32.lagrange_interpolate", 12, 38, 1, 0],
        ["gf32.poly_eval", 20, 25, 2, 0],
        ["gf32.poly_eval", 30, 33, 2, 0],
        ["decoder.try_unlock", 50, 60, 0, 0],
        ["gf32.lagrange_interpolate", 51, 59, 5, 0],
        ["aligner.match_margins", 61, 90, 0, 0],
    ]
    assert self_times(spans) == [31, 4, 18, 5, 3, 2, 8, 29]
    assert sum(self_times(spans)) == 100


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0, 10, None, 0], ["c", 2, 6, 0, 0], ["c", 4, 8, 0, 0]]
    assert self_times(spans)[0] == 4


def test_wrapped_layers_nest_and_account_for_the_operation():
    """Real wrappers around a genuine decode: every span's parent encloses it
    and the self times add up to the operation's traced time."""
    cfg = FVC1
    rng = random.Random(5)
    template = synth_template(5, 60)
    vault, secret = encode_vault(template, cfg.vault_params(), rng)
    t = Tracer()
    t.install()
    try:
        sid = t.start_op(0, "a")
        result = client.decode_vault(vault, template, cfg.match_params(), decoder.DEFAULT_STRATEGY, rng)
        t.end_op(sid)
    finally:
        t.uninstall()
    assert result.secret == secret
    names = {s[0] for s in t.spans}
    assert {"decoder.decode_vault", "decoder.try_unlock", "gf32.lagrange_interpolate",
            "gf32.poly_eval", "aligner.geometric_table", "aligner.match_margins"} <= names
    for span in t.spans:
        if span[PARENT] is not None:
            parent = t.spans[span[PARENT]]
            assert parent[START] <= span[START] <= span[END] <= parent[END]
    chain = {s[0]: t.spans[s[PARENT]][0] for s in t.spans if s[PARENT] is not None}
    assert chain["gf32.poly_eval"] == "gf32.lagrange_interpolate"
    assert chain["gf32.lagrange_interpolate"] == "decoder.try_unlock"
    assert chain["decoder.try_unlock"] == "decoder.decode_vault"
    st = layer_stats(t)
    assert sum(st.ms.values()) == pytest.approx(st.op_ms)
    assert st.calls["gf32.poly_eval"] == (cfg.degree + 1) * st.calls["gf32.lagrange_interpolate"]
    assert t.counts[0]["decoder.accepts"] == 1
    assert result.interpolations_performed == st.calls["decoder.try_unlock"]


# tracer robustness -----------------------------------------------------------

def test_missing_layer_is_absent_and_the_rest_still_trace(monkeypatch):
    fake = types.ModuleType("vaultbench_fake_layer")
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    layers = (
        Layer("aligner.geometric_table", ((fake.__name__, "build_geometric_table"),)),
        Layer("gf32.poly_eval", (("fuzzyvault.gf32", "poly_eval"),)),
    )
    original = gf32.poly_eval
    store = MemoryVaultStore()
    t = Tracer()
    t.install(layers, store=store)
    try:
        sid = t.start_op(0, "a")
        assert gf32.poly_eval([1, 2], 3) == original([1, 2], 3)
        store.fetch("nobody")
        t.end_op(sid)
    finally:
        t.uninstall()
    assert set(t.absent) == {"aligner.geometric_table"}
    assert [s[0] for s in t.spans] == ["op.a", "gf32.poly_eval", "store.fetch"]
    assert gf32.poly_eval is original
    assert "fetch" not in vars(store)  # the instance uses its class method again


def test_wrappers_pass_through_outside_an_operation():
    t = Tracer()
    t.install()
    try:
        gf32.poly_eval([1, 2], 3)
    finally:
        t.uninstall()
    assert t.spans == []


def test_layer_table_names_only_existing_entry_points():
    for layer in tracer_mod.LAYERS:
        for module_name, attr in layer.targets:
            assert hasattr(tracer_mod._import(module_name), attr), f"{module_name}.{attr}"


# host-speed probe -----------------------------------------------------------

def test_host_probe_reports_kernel_times_and_stops_its_child():
    with reference.HostProbe() as probe:
        for _ in range(3):
            probe.sample()
    assert len(probe.samples) == 3
    assert all(0 < s < 1 for s in probe.samples)
    assert probe.proc.returncode == 0


def test_reference_kernel_uses_nothing_from_the_package():
    # a change to the package must not be able to speed the yardstick up
    assert "fuzzyvault" not in Path(reference.__file__).read_text()


# smoke runs -----------------------------------------------------------------

SIZES = {"enroll": {}, "verify": {"users": 4}, "attack": {"pool": 256}}


@pytest.mark.parametrize("workload", ["enroll", "verify", "attack"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace, tmp_path):
    lines, result = run.run(workload, seed=3, seconds=0.0, trace=trace, workdir=tmp_path,
                            **SIZES[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[group]}
    for m in BENCHMARK[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("fingerprint ") for line in lines)
    assert not any(tmp_path.glob("run-*")), "set-up directories are removed"


def test_verify_trace_puts_the_kernel_first_on_impostors(tmp_path):
    lines, result = run.run("verify", seed=4, seconds=0.0, trace=True, workdir=tmp_path, users=4)
    assert result["correct"] is True, lines
    impostor = [line.split()[2] for line in lines if line.startswith("layer b ")]
    assert impostor[0] == "aligner.match_margins"
    assert result["metrics"]["aligner.match_margins.calls"]["value"] > 0
    assert 0 < result["metrics"]["aligner.gate_pass_ratio"]["value"] < 1


def test_same_seed_gives_the_same_fingerprint(tmp_path):
    prints = []
    for _ in range(2):
        lines, _ = run.run("attack", seed=9, seconds=0.0, trace=False, workdir=tmp_path, pool=256)
        prints += [line for line in lines if line.startswith("fingerprint ")]
    assert prints[0] == prints[1]


def test_run_refuses_without_the_package_source(tmp_path):
    bench = tmp_path / "vaultbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "vaultbench/run.py", "--workload", "attack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
