"""Reference attacker: the vault brute force of fuzzyvault.security, run.

``simulate_attack`` is the attacker the closed form in
``security.estimate`` prices, at desk scale; no command, service or
client path calls it, so it lives with the tests as an oracle for that
estimate.
"""

import itertools
from random import Random
from typing import Sequence

from fuzzyvault.decoder import try_unlock
from fuzzyvault.vault import Vault


def simulate_attack(
    vault: Vault,
    genuine: Sequence[int],
    trials: int,
    rng: Random,
) -> float:
    """Empirical mean draws to the first all-genuine subset.

    Runs the brute-force attacker at desk scale: every trial walks a fresh
    uniform permutation of all C(v, degree+1) index subsets (drawing
    without replacement, Fisher-Yates evaluated lazily) and stops at the
    first subset inside the transcript's genuine set.  That stopping
    subset is handed to try_unlock to confirm the vault really opens.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    degree = vault.params.degree
    size = degree + 1
    pool = list(itertools.combinations(range(len(vault.points)), size))
    gset = frozenset(genuine)
    total_draws = 0
    for _ in range(trials):
        order = pool[:]
        n = len(order)
        for i in range(n):
            pick = rng.randrange(i, n)
            order[i], order[pick] = order[pick], order[i]
            subset = order[i]
            if all(idx in gset for idx in subset):
                points = [vault.points[idx] for idx in subset]
                if try_unlock(points, degree) is None:
                    raise AssertionError("transcript-genuine subset failed to unlock")
                total_draws += i + 1
                break
        else:
            raise AssertionError("transcript contains no genuine subset")
    return total_draws / trials
