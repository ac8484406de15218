"""Vault decoding: basis pairing, candidate subsets, interpolation and the
CRC unlock decision.

Every (probe basis, vault basis) pair whose orientations agree within
theta_basis_thres gets a candidate set: vault points close to some probe
minutia once both are expressed in the paired frames.  Candidate sets of
at least degree+1 points are streamed as subsets by the configured
strategy, each subset is interpolated over GF(2^32), and the first
coefficient string whose trailing CRC-32 verifies is the secret.  Chaff
points miss the polynomial by construction, so a verifying CRC certifies
an all-genuine subset (up to a 2^-32 collision).

A pool of fewer than 2 * degree candidates (16 at n = 8) is usually a
partial alignment that cannot unlock, so it waits: pools at least that
large are tried as the sweep meets them, and the waiting ones only after
the sweep over every gated pair ends, largest first, ties in pair order.

The gated pairs run probe basis by probe basis, and each kernel call
takes the next slice of them: the first as many as the mean probe basis
has, each later one twice as many, up to _PAIRS_PER_CALL.  An early
unlock costs a small call or two, and a reject sweeps every pair in a few.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gf32
from .aligner import MatchParams, build_geometric_table, match_margins_many
from .minutiae import Template, decode_minutiae, select_minutiae
from .vault import Vault, VaultPoint, secret_from_polynomial

ITERATIVE_SELECTION = "iterative-selection"
RANDOM_GENERATION = "random-generation"
RANDOM_SELECTION = "random-selection"
VARIANTS = (ITERATIVE_SELECTION, RANDOM_GENERATION, RANDOM_SELECTION)

# Per basis pair, random-selection and the default strategy stop after this many subsets.
DEFAULT_ITERATION_CAP = 2**20
# random-generation shuffles at most this many subsets: iterative-selection's first ones.
SUBSET_BUDGET = 1_000_000
# No kernel call takes more than this many basis pairs.
_PAIRS_PER_CALL = 256


class ArityError(ValueError):
    """Raised when a candidate set is smaller than the subset size."""


@dataclass(frozen=True)
class SubsetStrategy:
    """How candidate subsets are enumerated for interpolation.

    iterative-selection walks all combinations in colex order, so the
    subsets of the j strongest candidates come first (deterministic,
    exhaustive); random-generation reads the first SUBSET_BUDGET of them in
    an order shuffled as it goes; random-selection draws subsets uniformly
    at random, repeats allowed, capped by iteration_cap, which defaults to
    DEFAULT_ITERATION_CAP for it and to no cap for the exhaustive variants.
    """

    variant: str
    iteration_cap: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.iteration_cap is None and self.variant == RANDOM_SELECTION:
            object.__setattr__(self, "iteration_cap", DEFAULT_ITERATION_CAP)
        if self.iteration_cap is not None and self.iteration_cap < 1:
            raise ValueError("iteration_cap must be positive")


DEFAULT_STRATEGY = SubsetStrategy(ITERATIVE_SELECTION, DEFAULT_ITERATION_CAP)


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    secret: bytes | None
    bases_tried: int
    candidate_sets_evaluated: int
    interpolations_performed: int
    elapsed_seconds: float


def generate_subsets(
    candidates: Sequence[VaultPoint],
    size: int,
    strategy: SubsetStrategy,
    rng: Random | None = None,
) -> Iterator[tuple[VaultPoint, ...]]:
    """Stream size-subsets of the candidates per the strategy.

    Raises:
        ArityError: fewer candidates than the subset size.
    """
    candidates = tuple(candidates)
    m = len(candidates)
    if m < size:
        raise ArityError(f"{m} candidates cannot form subsets of size {size}")
    if strategy.variant != ITERATIVE_SELECTION and rng is None:
        raise ValueError(f"{strategy.variant} needs an rng")
    ranks: Iterable[int] = range(math.comb(m, size))
    if strategy.variant == RANDOM_GENERATION:
        ranks = _shuffled(min(math.comb(m, size), SUBSET_BUDGET), rng)
    stream = (tuple(rng.sample(candidates, size)) if strategy.variant == RANDOM_SELECTION
              else _unrank(candidates, size, rank) for rank in ranks)
    return itertools.islice(stream, strategy.iteration_cap)


def _unrank(pool: Sequence[VaultPoint], size: int, rank: int) -> tuple[VaultPoint, ...]:
    """The rank-th size-subset of pool in colex order: rank = sum of C(i_k, k) over its indices."""
    subset, i = [], len(pool)
    for k in range(size, 0, -1):
        i -= 1
        while (count := math.comb(i, k)) > rank:  # i_k is the largest i with C(i, k) <= rank
            i -= 1
        rank -= count
        subset.append(pool[i])
    return tuple(subset[::-1])


def _shuffled(n: int, rng: Random) -> Iterator[int]:
    """range(n) as rng.shuffle leaves it, read from slot n - 1 down, each right after its one
    randrange (none for slot 0); only swapped slots are kept (j == i re-stores i, never read)."""
    displaced: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        j = rng.randrange(i + 1) if i else 0
        rank, displaced[j] = displaced.get(j, j), displaced.pop(i, i)
        yield rank


def try_unlock(subset: Sequence[VaultPoint], degree: int) -> bytes | None:
    """Interpolate a subset and check the embedded CRC; the secret on success.

    Subsets with a repeated X cannot come from distinct genuine points,
    so they are dismissed as negatives: interpolation refuses them.
    """
    try:
        return secret_from_polynomial(gf32.lagrange_interpolate(subset, degree))
    except gf32.DuplicateAbscissa:
        return None


def decode_vault(
    vault: Vault,
    probe: Template,
    match_params: MatchParams,
    strategy: SubsetStrategy = DEFAULT_STRATEGY,
    rng: Random | None = None,
) -> MatchResult:
    """Match a probe template against a vault and recover the secret if genuine.

    Probe bases run in select_minutiae order (best quality first), vault
    bases in vault order, both pinned for reproducibility.  Candidates
    within a basis pair are tried strongest match first, so exhaustive
    strategies reach an all-genuine subset quickly when the alignment is
    right.  Pools under 2 * degree candidates wait until every gated pair
    is swept (see the module docstring); an unlock from one of them
    reports every gated pair in bases_tried.  The first verifying subset
    short-circuits everything.

    Raises:
        InsufficientMinutiae: the probe cannot supply genuine_count minutiae.
    """
    if rng is None:
        rng = Random()
    start = time.perf_counter()
    degree = vault.params.degree
    size = degree + 1

    probe_sel = select_minutiae(probe, vault.params.genuine_count, vault.params.points_distance)
    vtable = build_geometric_table(decode_minutiae([pt.X for pt in vault.points]))
    ptable = build_geometric_table([(m.x, m.y, m.theta) for m in probe_sel])

    # both angles are in [0, 360), which the tables check, so |d| needs no % 360.0
    d = np.abs(ptable.thetas[:, None] - vtable.thetas[None, :])
    # every gated pair, probe basis by probe basis
    probe_bases, vault_bases = np.nonzero(np.minimum(d, 360.0 - d) <= match_params.theta_basis_thres)
    del d
    bases_tried = sets_evaluated = interpolations = 0

    def result(matched, secret):
        return MatchResult(
            matched=matched,
            secret=secret,
            bases_tried=bases_tried,
            candidate_sets_evaluated=sets_evaluated,
            interpolations_performed=interpolations,
            elapsed_seconds=time.perf_counter() - start,
        )

    def unlock(pool):
        nonlocal sets_evaluated, interpolations
        sets_evaluated += 1
        for subset in generate_subsets(pool, size, strategy, rng):
            interpolations += 1
            if (secret := try_unlock(subset, degree)) is not None:
                return secret
        return None

    deferred = []  # small pools, in pair order
    run = min(max(len(vault_bases) // len(probe_sel), 1), _PAIRS_PER_CALL)
    while bases_tried < len(vault_bases):
        stop = min(bases_tried + run, len(vault_bases))
        pair, point, _ = match_margins_many(vtable, ptable, probe_bases[bases_tried:stop],
                                            vault_bases[bases_tried:stop], match_params)
        bounds = np.searchsorted(pair, np.arange(stop - bases_tried + 1))  # each pair's matches
        # only pairs with at least degree+1 candidates can unlock
        for k in np.flatnonzero(np.diff(bounds) >= size):
            # Strongest matches first; ties keep vault order.
            pool = [vault.points[int(j)] for j in point[bounds[k]:bounds[k + 1]]]
            if len(pool) < 2 * degree:  # a small pool waits
                deferred.append(pool)
            elif (secret := unlock(pool)) is not None:
                bases_tried += int(k) + 1
                return result(True, secret)
        bases_tried, run = stop, min(2 * run, _PAIRS_PER_CALL)
    for pool in sorted(deferred, key=len, reverse=True):  # a stable sort: ties keep pair order
        if (secret := unlock(pool)) is not None:
            return result(True, secret)
    return result(False, None)
