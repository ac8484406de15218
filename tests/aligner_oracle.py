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


class EagerGeometricTable:
    """The geometric table as first written: every basis row built up front.

    The shipped table builds rows on demand and must match this one bit
    for bit on every row it returns.
    """

    def __init__(self, sources):
        self.sources = tuple(sources)
        k = len(self.sources)
        if k == 0:
            raise ValueError("at least one minutia required")
        xs = np.array([m.x for m in self.sources], dtype=float)
        ys = np.array([m.y for m in self.sources], dtype=float)
        thetas = np.array([m.theta for m in self.sources], dtype=float)
        dx = xs[None, :] - xs[:, None]
        dy = ys[None, :] - ys[:, None]
        b = np.radians(thetas)[:, None]
        cb, sb = np.cos(b), np.sin(b)
        coords = np.empty((k, k, 3))
        coords[..., 0] = cb * dx + sb * dy
        coords[..., 1] = -sb * dx + cb * dy
        coords[..., 2] = (thetas[None, :] - thetas[:, None]) % 360.0
        coords.setflags(write=False)
        self.coords = coords
        self.thetas = thetas

    def __len__(self):
        return len(self.sources)

    def rows(self, bases):
        return self.coords[np.asarray(bases, dtype=int)]
