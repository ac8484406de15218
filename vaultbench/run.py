"""Seeded enroll / verify / attack benchmark for fuzzyvault.

Run from the repository root:

    python3 vaultbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

--trace 0 times the workload with nothing installed, next to a
host-speed probe (reference.py), and prints the end-to-end metrics.
--trace 1 alternates blocks of untraced operations with replays of the
same operations through wrapped layer entry points, and prints
per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every check passed (genuine false rejects are counted, not failures of
the program), 1 when a check failed and 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(SRC))
try:
    import numpy
    import requests  # noqa: F401

    import fuzzyvault
    from fuzzyvault.security import SecurityModel, estimate
    from reference import PROBE_EVERY, HostProbe
    from stats import failed_ratio, summarize
    from tracer import LAYERS, STORE_LAYERS, Tracer, layer_stats
    from workloads import FALSE_REJECT, FVC1, WORKLOADS, Checked, Outcome
except ImportError as exc:  # reported by main(); the module stays importable
    _IMPORT_ERROR: ImportError | None = exc
else:
    _IMPORT_ERROR = None

SETUP_REPEATS = 3  # setup_s is the median of these set-ups, imports included
TRACE_BLOCK = 8  # operations per untraced block and per traced replay of it


class SetupFailed(RuntimeError):
    """What set-up built did not pass its checks."""


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy, requests, the
    package and the benchmark: the import part of one set-up."""
    code = (f"import sys, time; t = time.perf_counter(); sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import numpy, requests, fuzzyvault, stats, tracer, workloads; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout)


def env_record(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, seconds=0.0, count=None, tracer=None, start=0, probe=None):
    """Closed loop over operations start, start+1, ...: a fixed count, or
    until `seconds` have passed and the fingerprinted prefix is done.
    With a probe, the host's speed is sampled between operations once
    PROBE_EVERY seconds have passed since the last sample."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    i = start
    while (i < start + count) if count is not None else (
        i < workload.fingerprint_ops or time.perf_counter() < deadline
    ):
        if probe is not None and time.perf_counter() >= next_probe:
            probe.sample()
            next_probe = time.perf_counter() + PROBE_EVERY
        planned = workload.plan(i)
        sid = tracer.start_op(i, planned.lane) if tracer is not None else None
        error = None
        t0 = time.perf_counter()
        try:
            result = planned.call()
        except Exception as exc:  # a failed operation is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(sid)
        checked = Checked(error, "error") if error else planned.check(result)
        outcomes.append(Outcome(i, planned.lane, elapsed, checked.failure, checked.token,
                                checked.stored_bytes))
        i += 1
    return outcomes


def lane_summary(outcomes, lane):
    return summarize([1000.0 * o.seconds for o in outcomes if o.lane == lane])


def attack_seconds(n8) -> float:
    """security.estimate's expected attack time at fvc-1 with the measured n=8 l."""
    l_seconds = n8.total / n8.n / 1000.0
    model = SecurityModel(FVC1.genuine_count, FVC1.chaff_count, FVC1.degree, l_seconds)
    return estimate(model).expected_seconds


def end_to_end(workload, outcomes, setup_s, reference_s):
    """Gated metrics (same names on every workload) and the named report lines.

    A lane's gated latency is the interquartile mean of its calls' wall
    time divided by the trimmed mean of the reference kernel's time over
    the same run, so the host's speed drift cancels out of it.
    """
    ref = summarize([1000.0 * s for s in reference_s])
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    lines = [f"metric reference_ms {ref.tmean:.6g} ms n={ref.n} (trimmed mean of the host-speed probe)"]
    for lane, prefix in workload.lanes.items():
        wall = lane_summary(outcomes, lane)
        metrics[f"{lane}_iqm_refs"] = (wall.iqm / ref.tmean, "refs")
        lines.append(f"metric {prefix}_iqm_refs {wall.iqm / ref.tmean:.6g} refs n={wall.n}")
        if workload.name == "attack":
            lines.append(f"metric {prefix}_attempts_per_s {1000.0 * wall.n / wall.total:.6g} 1/s n={wall.n}")
        tail = "p90" if wall.tail_pct >= 90 else f"p{wall.tail_pct:.0f}"
        lines.append(f"metric {prefix}_ms_p50 {wall.p50:.6g} ms n={wall.n}")
        lines.append(f"metric {prefix}_ms_iqm {wall.iqm:.6g} ms n={wall.n}")
        lines.append(f"metric {prefix}_ms_p90 {wall.tail:.6g} ms n={wall.n} reported={tail}")
    if workload.name == "attack":
        n8 = lane_summary(outcomes, "a")
        lines.append(f"metric security.expected_attack_s {attack_seconds(n8):.6g} s n={n8.n} "
                     "(fvc-1 shape, measured n=8 l)")
    return metrics, lines


COUNTERS = {  # per-operation counters and their units
    "aligner.match_margins.bases": "count",
    "aligner.gate_pass_ratio": "ratio",
    "decoder.bases_tried": "count",
    "decoder.candidate_sets": "count",
    "decoder.interpolations": "count",
    "decoder.crc_failures": "count",
    "decoder.unlock_ratio": "ratio",
}


def counters(ls) -> dict:
    """The counters of COUNTERS, per operation, from one LayerStats."""
    c, n = ls.counts, ls.ops
    unlocks = ls.calls.get("decoder.try_unlock", 0.0)
    accepts = c.get("decoder.accepts", 0) / n
    pairs = c.get("aligner.basis_pairs", 0)
    return {
        "aligner.match_margins.bases": c.get("aligner.match_margins.bases", 0) / n,
        "aligner.gate_pass_ratio": c.get("decoder.bases_tried", 0) / pairs if pairs else 0.0,
        "decoder.bases_tried": c.get("decoder.bases_tried", 0) / n,
        "decoder.candidate_sets": c.get("decoder.candidate_sets", 0) / n,
        "decoder.interpolations": unlocks,
        "decoder.crc_failures": ls.calls.get("gf32.lagrange_interpolate", 0.0) - accepts,
        "decoder.unlock_ratio": accepts / unlocks if unlocks else 0.0,
    }


def per_layer(workload, tracer, untraced, traced):
    """Per-layer metrics over every traced operation, and a per-lane table."""
    st = layer_stats(tracer)
    m = {f"{layer.name}.ms": (st.ms.get(layer.name, 0.0), "ms") for layer in LAYERS + STORE_LAYERS}
    for layer in ("gf32.poly_eval", "gf32.lagrange_interpolate", "aligner.geometric_table",
                  "aligner.match_margins"):
        m[f"{layer}.calls"] = (st.calls.get(layer, 0.0), "count")
    m.update({name: (value, COUNTERS[name]) for name, value in counters(st).items()})
    sizes = [o.stored_bytes for o in traced if o.stored_bytes]
    m["store.bytes_per_vault"] = (sum(sizes) / len(sizes) if sizes else 0.0, "bytes")
    m["security.expected_attack_s"] = (
        attack_seconds(lane_summary(untraced, "a")) if workload.name == "attack" else 0.0, "s")
    for lane in workload.lanes:  # on the gated statistic, the wall-time interquartile mean
        u, t = lane_summary(untraced, lane).iqm, lane_summary(traced, lane).iqm
        m[f"trace.overhead_{lane}_pct"] = (100.0 * (t - u) / u, "%")
    m["trace.accounted_pct"] = (100.0 * (st.op_ms - st.ms.get("bench.self", 0.0)) / st.op_ms, "%")

    lines = [f"layer {name} absent (not found: {', '.join(missing)})"
             for name, missing in sorted(tracer.absent.items())]
    for lane, prefix in workload.lanes.items():
        ls = layer_stats(tracer, {lane})
        lines.append(f"lane {lane} ({prefix}): {ls.ops} ops, traced {ls.op_ms:.4g} ms/op, "
                     f"IQM untraced {lane_summary(untraced, lane).iqm:.4g} ms, "
                     f"traced {lane_summary(traced, lane).iqm:.4g} ms")
        lines.append(f"counts {lane} per op: " + ", ".join(
            f"{name} {value:.6g}" for name, value in counters(ls).items()))
        for name, ms in sorted(ls.ms.items(), key=lambda kv: -kv[1]):
            lines.append(f"layer {lane} {name:28s} self {ms:10.4f} ms/op "
                         f"{100.0 * ms / ls.op_ms:6.2f}%  calls {ls.calls[name]:.4g}/op")
    return m, lines


def tally(outcomes):
    """(failed, defects): every operation that failed a check, and those
    failures that are not a counted genuine false reject."""
    failures = [o for o in outcomes if o.failure]
    return failures, [o for o in failures if o.failure != FALSE_REJECT]


def run(name, seed, seconds, trace, workdir, **sizes):
    """Set up, measure and check one workload; returns (report lines, result dict)."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir, **sizes)
    lines = []
    traced, tracer, probe = [], Tracer(), None
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            if r:
                workload.teardown()
            imports = import_seconds()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(imports + time.perf_counter() - t0)
        setup_s = summarize(setup_times).p50
        problems = workload.check_setup()
        if problems:
            raise SetupFailed("; ".join(problems))

        probe = HostProbe()
        if not trace:
            outcomes = measure(workload, seconds, probe=probe)
        else:
            # Untraced blocks alternate with traced replays of the same
            # operations, so drift in machine speed cancels out of the overhead.
            outcomes = []
            deadline = time.perf_counter() + seconds
            while len(outcomes) < workload.fingerprint_ops or time.perf_counter() < deadline:
                start = len(outcomes)
                outcomes += measure(workload, count=TRACE_BLOCK, start=start, probe=probe)
                tracer.install(store=workload.store)
                try:
                    traced += measure(workload, count=TRACE_BLOCK, tracer=tracer, start=start)
                finally:
                    tracer.uninstall()
        fingerprint = workload.fingerprint(outcomes)
    finally:
        if probe is not None:
            probe.close()
        workload.teardown()

    every = outcomes + traced
    failures, defects = tally(every)
    correct = not defects and "replay_mismatch" not in fingerprint
    if traced and [o.token for o in traced] != [o.token for o in outcomes]:
        correct = False
        lines.append("check traced replay decided differently from the untraced run")

    metrics, named = end_to_end(workload, outcomes, setup_s, probe.samples)
    lines += named
    lines.append(f"metric setup_s {setup_s:.6g} s n={SETUP_REPEATS} "
                 f"(median of fresh-interpreter imports + set-up: {[round(x, 4) for x in setup_times]})")
    lines.append(f"metric peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB n=1")
    lines.append(f"metric failed_ops {failed_ratio(len(failures), len(every)):.6g} ratio "
                 f"n={len(every)} (false_rejects={len(failures) - len(defects)} defects={len(defects)})")
    lines += [f"check op {o.op} lane {o.lane}: {o.failure}" for o in defects[:10]]
    lines.append("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    if trace:
        metrics, layer_lines = per_layer(workload, tracer, outcomes, traced)
        lines += layer_lines
        spans_path = workdir / f"trace-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
            "op_lane": tracer.op_lane,
            "counts": {op: dict(c) for op, c in tracer.counts.items()},
            "absent": tracer.absent,
        }))
        lines.append(f"trace {len(tracer.spans)} spans written to {spans_path}")
    result = {
        "correct": correct,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enroll", "verify", "attack"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _IMPORT_ERROR is not None:
        print(f"vaultbench: cannot import the package from {SRC}: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(fuzzyvault.__file__).resolve().parent != SRC / "fuzzyvault":
        print(f"vaultbench: imported fuzzyvault from {fuzzyvault.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    except SetupFailed as exc:
        print(f"vaultbench: set-up check failed: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env_record(args.seed), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
