"""Dense reference for the aligner's threshold kernel.

This is the kernel as first written: every (basis, probe, vault) slack is
materialized and reduced, so each entry is the true margin, positive or
not.  The shipped kernel must agree with it on every matching entry.
"""

import numpy as np


def dense_match_margins_many(vault_table, probe_table, probe_basis, vault_bases, params):
    """Margins of shape (len(vault_bases), kv); entry <= 0 means a match."""
    P = probe_table.coords[probe_basis]  # (kp, 3)
    V = vault_table.coords[np.asarray(vault_bases, dtype=int)]  # (m, kv, 3)
    dx = np.abs(V[:, None, :, 0] - P[None, :, None, 0]) - params.x_thres
    dy = np.abs(V[:, None, :, 1] - P[None, :, None, 1]) - params.y_thres
    dt = np.abs(V[:, None, :, 2] - P[None, :, None, 2]) % 360.0
    dt = np.minimum(dt, 360.0 - dt) - params.theta_thres
    return np.maximum(np.maximum(dx, dy), dt).min(axis=1)
