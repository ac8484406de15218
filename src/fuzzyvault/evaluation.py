"""Synthetic fingerprint datasets, capture perturbation and the accuracy runner.

run_fvc_protocol runs either of two standard comparison protocols over
a dataset of F fingers x K captures, picked by its pair function:

* fvc (fvc_pairs): genuine score per finger over all unordered capture
  pairs (F * C(K, 2) comparisons) and impostor score over unordered
  pairs of first captures (C(F, 2) comparisons).
* all-vs-all (all_vs_all_pairs): the same genuine pairs plus every
  cross-finger capture pair.

For each pair the first template is encoded into a fresh vault and the
second is decoded against it, so FNMR counts genuine pairs that fail to
unlock and FMR counts impostor pairs that do.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable

from .aligner import MatchParams
from .decoder import DEFAULT_STRATEGY, SubsetStrategy, decode_vault
from .minutiae import (ChaffExhausted, InsufficientMinutiae, Minutia, Template, fold_angle,
                       place_spaced, read_template)
from .vault import VaultParams, encode_vault

DEFAULT_MIN_DISTANCE = 8.0  # spacing between synthetic minutiae, px


class DatasetTooSmall(ValueError):
    """Raised when a dataset cannot support the requested protocol."""


@dataclass(frozen=True)
class Finger:
    finger_id: str
    captures: tuple[Template, ...]


@dataclass(frozen=True)
class Dataset:
    fingers: tuple[Finger, ...]


@dataclass(frozen=True)
class PerturbationModel:
    """Bounds for the capture-to-capture variation of one finger."""

    max_rotation: float = 15.0  # degrees
    max_translation: float = 10.0  # pixels per axis
    max_jitter: float = 4.0  # per-minutia pixels per axis
    max_theta_jitter: float = 6.0  # per-minutia degrees
    max_drop_fraction: float = 0.2


@dataclass(frozen=True)
class AccuracyReport:
    fmr: float
    fnmr: float
    genuine_comparisons: int
    impostor_comparisons: int
    genuine_failures: int  # pairs skipped because encode/select failed
    impostor_failures: int
    mean_encode_seconds: float
    mean_decode_seconds: float
    mean_total_seconds: float
    p50_decode_seconds: float  # the tail of the decodes, which the means hide
    p90_decode_seconds: float
    max_interpolations: int  # in one decode
    fmr_upper95: float  # exact one-sided 95% upper bounds (Clopper-Pearson); 1.0 with no trials
    fnmr_upper95: float


@dataclass(frozen=True)
class EvalConfig:
    """One named benchmark configuration: vault and matcher parameters."""

    degree: int
    genuine_count: int
    chaff_count: int
    points_distance: float
    x_thres: float
    y_thres: float
    theta_thres: float
    theta_basis_thres: float

    def vault_params(self, width: int = 400, height: int = 560) -> VaultParams:
        return VaultParams(
            degree=self.degree,
            genuine_count=self.genuine_count,
            chaff_count=self.chaff_count,
            points_distance=self.points_distance,
            width=width,
            height=height,
        )

    def match_params(self) -> MatchParams:
        return MatchParams(self.x_thres, self.y_thres, self.theta_thres, self.theta_basis_thres)


# Built-in evaluation configurations, ordered from permissive to strict.
BUILTIN_CONFIGS: dict[str, EvalConfig] = {
    "fvc-1": EvalConfig(8, 30, 340, 10, 12, 12, 12, 15),
    "fvc-2": EvalConfig(8, 34, 300, 10, 12, 12, 12, 10),
    "fvc-3": EvalConfig(8, 40, 300, 10, 15, 15, 15, 10),
    "fvc-4": EvalConfig(10, 30, 300, 10, 12, 12, 12, 10),
    "fvc-5": EvalConfig(12, 40, 300, 10, 15, 15, 15, 10),
    "fvc-6": EvalConfig(14, 30, 300, 10, 15, 15, 15, 10),
}


def synth_template(seed: int, minutia_count: int, width: int = 400, height: int = 560) -> Template:
    """Deterministic random template: same seed, same template.

    place_spaced puts the minutiae DEFAULT_MIN_DISTANCE apart, or raises
    ChaffExhausted; orientations are uniform, qualities uniform in [1, 100].
    """
    rng = random.Random(seed)
    minutiae = place_spaced(
        "synthetic minutia", minutia_count, width, height, DEFAULT_MIN_DISTANCE, rng,
        lambda x, y: Minutia(x, y, rng.uniform(0.0, 360.0) % 360.0, rng.randint(1, 100)))
    return Template(tuple(minutiae), width, height)


def perturb_template(
    template: Template,
    rotation: float = 0.0,
    translation: tuple[float, float] = (0.0, 0.0),
    jitter: float = 0.0,
    theta_jitter: float = 0.0,
    drop_fraction: float = 0.0,
    rng: random.Random | None = None,
) -> Template:
    """Simulate a repeat capture of the same finger.

    One global rigid motion (rotation about the image center, then
    translation) hits every minutia; independent uniform jitter in
    [-jitter, jitter] per axis and [-theta_jitter, theta_jitter] degrees
    models local distortion; minutiae pushed out of bounds are dropped,
    then a random drop_fraction of the survivors disappears.  Qualities
    are kept.  With everything zero the template comes back identical.
    """
    if rng is None:
        rng = random.Random()
    cx, cy = template.width / 2.0, template.height / 2.0
    r = math.radians(rotation)
    cr, sr = math.cos(r), math.sin(r)
    tx, ty = translation
    kept: list[Minutia] = []
    for m in template.minutiae:
        px, py = m.x - cx, m.y - cy
        x = cx + cr * px - sr * py + tx + rng.uniform(-jitter, jitter)
        y = cy + sr * px + cr * py + ty + rng.uniform(-jitter, jitter)
        theta = fold_angle(m.theta + rotation + rng.uniform(-theta_jitter, theta_jitter))
        xi, yi = round(x), round(y)
        if 0 <= xi < template.width and 0 <= yi < template.height:
            kept.append(Minutia(xi, yi, theta, m.quality))
    drop = int(round(drop_fraction * len(kept)))
    if drop > 0:
        doomed = set(rng.sample(range(len(kept)), min(drop, len(kept))))
        kept = [m for i, m in enumerate(kept) if i not in doomed]
    return Template(tuple(kept), template.width, template.height)


def make_synthetic_dataset(
    num_fingers: int,
    captures_per_finger: int,
    minutia_count: int = 60,
    width: int = 400,
    height: int = 560,
    seed: int = 0,
    perturbation: PerturbationModel = PerturbationModel(),
) -> Dataset:
    """F fingers x K captures; capture 1 is the base, the rest are perturbed."""
    rng = random.Random(seed)
    fingers = []
    for f in range(num_fingers):
        base = synth_template(rng.getrandbits(64), minutia_count, width, height)
        captures = [base]
        for _ in range(captures_per_finger - 1):
            captures.append(
                perturb_template(
                    base,
                    rotation=rng.uniform(-perturbation.max_rotation, perturbation.max_rotation),
                    translation=(
                        rng.uniform(-perturbation.max_translation, perturbation.max_translation),
                        rng.uniform(-perturbation.max_translation, perturbation.max_translation),
                    ),
                    jitter=perturbation.max_jitter,
                    theta_jitter=perturbation.max_theta_jitter,
                    drop_fraction=rng.uniform(0.0, perturbation.max_drop_fraction),
                    rng=rng,
                )
            )
        fingers.append(Finger(f"finger{f:04d}", tuple(captures)))
    return Dataset(tuple(fingers))


def load_dataset(root, width: int, height: int) -> Dataset:
    """Read a ``finger_id/capture_k.xyt`` directory tree, sorted for determinism."""
    root = Path(root)
    fingers = []
    for finger_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        captures = tuple(
            read_template(path, width, height) for path in sorted(finger_dir.glob("*.xyt"))
        )
        if captures:
            fingers.append(Finger(finger_dir.name, captures))
    if not fingers:
        raise DatasetTooSmall(f"no finger directories with .xyt captures under {root}")
    return Dataset(tuple(fingers))


Pair = tuple[tuple[int, int], tuple[int, int]]  # ((finger, capture), (finger, capture))


def fvc_pairs(dataset: Dataset) -> tuple[list[Pair], list[Pair]]:
    """Genuine and impostor comparison pairs under the fvc protocol."""
    genuine = [
        ((f, a), (f, b))
        for f, finger in enumerate(dataset.fingers)
        for a in range(len(finger.captures))
        for b in range(a + 1, len(finger.captures))
    ]
    impostor = [
        ((f1, 0), (f2, 0))
        for f1 in range(len(dataset.fingers))
        for f2 in range(f1 + 1, len(dataset.fingers))
    ]
    return genuine, impostor


def all_vs_all_pairs(dataset: Dataset) -> tuple[list[Pair], list[Pair]]:
    """Genuine pairs as in fvc; impostor pairs over every cross-finger pair."""
    genuine, _ = fvc_pairs(dataset)
    impostor = [
        ((f1, c1), (f2, c2))
        for f1 in range(len(dataset.fingers))
        for f2 in range(f1 + 1, len(dataset.fingers))
        for c1 in range(len(dataset.fingers[f1].captures))
        for c2 in range(len(dataset.fingers[f2].captures))
    ]
    return genuine, impostor


def _require_protocol_shape(dataset: Dataset):
    if len(dataset.fingers) < 2:
        raise DatasetTooSmall("need at least 2 fingers")
    if min(len(f.captures) for f in dataset.fingers) < 2:
        raise DatasetTooSmall("need at least 2 captures per finger")


def run_fvc_protocol(
    dataset: Dataset,
    vault_params: VaultParams,
    match_params: MatchParams,
    strategy: SubsetStrategy = DEFAULT_STRATEGY,
    rng: random.Random | None = None,
    dry_run: bool = False,
    pairs: Callable[[Dataset], tuple[list[Pair], list[Pair]]] = fvc_pairs,
) -> AccuracyReport:
    """FMR/FNMR over the pairs ``pairs`` enumerates; dry_run only counts them.

    ``fvc_pairs`` is the fvc protocol, ``all_vs_all_pairs`` the
    all-vs-all one.  Every genuine pair runs before the first impostor
    pair, each drawing on the one rng.
    """
    _require_protocol_shape(dataset)
    if rng is None:
        rng = random.Random()
    genuine_pairs, impostor_pairs = pairs(dataset)
    skipped = [0, 0]  # [genuine, impostor] pairs whose encode or selection failed
    wrong = [0, 0]  # [false rejects, false accepts]
    decoded = [0, 0]  # [genuine, impostor] pairs decoded
    encode_times: list[float] = []
    decode_times: list[float] = []
    max_interpolations = 0
    batches = () if dry_run else ((False, genuine_pairs), (True, impostor_pairs))
    for impostor, batch in batches:
        for (f1, c1), (f2, c2) in batch:
            try:
                t0 = time.perf_counter()
                vault, _ = encode_vault(dataset.fingers[f1].captures[c1], vault_params, rng)
                t1 = time.perf_counter()
                result = decode_vault(
                    vault, dataset.fingers[f2].captures[c2], match_params, strategy, rng
                )
                t2 = time.perf_counter()
            except (InsufficientMinutiae, ChaffExhausted):
                skipped[impostor] += 1
                continue
            encode_times.append(t1 - t0)
            decode_times.append(t2 - t1)
            max_interpolations = max(max_interpolations, result.interpolations_performed)
            wrong[impostor] += result.matched == impostor
            decoded[impostor] += 1

    genuine_done = len(genuine_pairs) - skipped[False]
    impostor_done = len(impostor_pairs) - skipped[True]
    total = [e + d for e, d in zip(encode_times, decode_times)]
    deciles = (statistics.quantiles(decode_times, n=10, method="inclusive")
               if len(decode_times) > 1 else (decode_times or [0.0]) * 9)
    return AccuracyReport(
        fmr=wrong[True] / impostor_done if impostor_done else 0.0,
        fnmr=wrong[False] / genuine_done if genuine_done else 0.0,
        genuine_comparisons=len(genuine_pairs),
        impostor_comparisons=len(impostor_pairs),
        genuine_failures=skipped[False],
        impostor_failures=skipped[True],
        mean_encode_seconds=sum(encode_times) / len(encode_times) if encode_times else 0.0,
        mean_decode_seconds=sum(decode_times) / len(decode_times) if decode_times else 0.0,
        mean_total_seconds=sum(total) / len(total) if total else 0.0,
        p50_decode_seconds=deciles[4],
        p90_decode_seconds=deciles[8],
        max_interpolations=max_interpolations,
        fmr_upper95=_upper95(wrong[True], decoded[True]),
        fnmr_upper95=_upper95(wrong[False], decoded[False]),
    )


def _upper95(errors: int, trials: int) -> float:
    """Exact one-sided 95% upper bound on an error rate seen as errors in trials.

    Clopper & Pearson (Biometrika 1934): the rate p at which errors or fewer
    in trials has probability 0.05, found by bisection on the binomial sum
    (1 - 0.05^(1/trials) for no errors).  1.0 when every trial erred or none ran.
    """
    if errors >= trials:
        return 1.0
    log_combs = [math.log(math.comb(trials, i)) for i in range(errors + 1)]

    def at_most(p: float) -> float:  # P(X <= errors), X ~ Binomial(trials, p)
        lp, lq = math.log(p), math.log1p(-p)
        return math.fsum(math.exp(c + i * lp + (trials - i) * lq) for i, c in enumerate(log_combs))

    lo, hi = 0.0, 1.0
    for _ in range(64):  # the tail falls as p rises
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if at_most(mid) > 0.05 else (lo, mid)
    return hi


def write_report_csv(report: AccuracyReport, path):
    """One header row, one value row; loads cleanly into a spreadsheet."""
    data = asdict(report)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(data))
        writer.writeheader()
        writer.writerow(data)
