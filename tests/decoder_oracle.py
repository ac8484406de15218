"""Reference decoder: one dense kernel call per probe basis.

This is the decode loop as first written.  For each probe basis in
template order it takes the dense margins of every gated vault basis,
takes the rows with at least degree+1 matches in vault basis order, and
orders each row's candidates by margin with a stable argsort, so ties
keep vault order.  A row of fewer than 2 * degree candidates waits until
every probe basis is done; then the waiting rows are tried largest
first, ties in the order they were met.  The shipped decoder batches
probe bases into fewer kernel calls, and must give the same MatchResult
and leave the rng in the same state.  With defer=False every row is
tried as it is met, which is the pair order of the decoder before pools
waited.
"""

from random import Random

import numpy as np

from aligner_oracle import dense_margins
from fuzzyvault.aligner import build_geometric_table
from fuzzyvault.decoder import MatchResult, generate_subsets, try_unlock
from fuzzyvault.minutiae import decode_minutiae, select_minutiae


def decode_vault(vault, probe, match_params, strategy, rng: Random,
                 defer: bool = True) -> MatchResult:
    """MatchResult of the reference loop, with elapsed_seconds 0."""
    degree = vault.params.degree
    size = degree + 1

    probe_sel = select_minutiae(probe, vault.params.genuine_count, vault.params.points_distance)
    vtable = build_geometric_table(decode_minutiae([pt.X for pt in vault.points]))
    ptable = build_geometric_table([(m.x, m.y, m.theta) for m in probe_sel])

    d = np.abs(ptable.thetas[:, None] - vtable.thetas[None, :]) % 360.0
    basis_ok = np.minimum(d, 360.0 - d) <= match_params.theta_basis_thres

    bases_tried = sets_evaluated = interpolations = 0

    def result(secret):
        return MatchResult(secret is not None, secret, bases_tried, sets_evaluated,
                           interpolations, 0.0)

    def unlock(pool):
        nonlocal sets_evaluated, interpolations
        sets_evaluated += 1
        for subset in generate_subsets(pool, size, strategy, rng):
            interpolations += 1
            secret = try_unlock(subset, degree)
            if secret is not None:
                return secret
        return None

    waiting = []
    for i in range(len(probe_sel)):
        compatible = np.nonzero(basis_ok[i])[0]
        if compatible.size == 0:
            continue
        margins = dense_margins(vtable, ptable, i, compatible, match_params)
        hits = margins <= 0.0
        for row in np.flatnonzero(np.count_nonzero(hits, axis=1) >= size):
            cand = np.flatnonzero(hits[row])
            order = cand[np.argsort(margins[row][cand], kind="stable")]
            pool = [vault.points[int(j)] for j in order]
            if defer and len(pool) < 2 * degree:
                waiting.append(pool)
                continue
            secret = unlock(pool)
            if secret is not None:
                bases_tried += int(row) + 1
                return result(secret)
        bases_tried += len(compatible)
    for pool in sorted(waiting, key=lambda pool: -len(pool)):
        secret = unlock(pool)
        if secret is not None:
            return result(secret)
    return result(None)
