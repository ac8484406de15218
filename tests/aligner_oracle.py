"""Reference code for the aligner: scalar views and the kernels as first written.

The scalar rigid transform and the candidate collectors work one basis
pair at a time; the dense kernel materializes every (basis, probe, vault)
slack from the basis rows, so each entry is the true margin, positive or
not, and ``dense_match_margins_many`` reads the shipped kernel's sparse
matches off it; the eager table builds every basis row up front with its
own cos/sin.  The shipped table and kernel must agree with them.
"""

import math
from dataclasses import dataclass

import numpy as np

from fuzzyvault.aligner import GeometricTable, build_geometric_table, match_margins_many


@dataclass(frozen=True)
class TransformedMinutia:
    x: float
    y: float
    theta: float
    origin_index: int  # index of the untransformed source point


def rigid_transform(basis, m, origin_index=0):
    """Express m in the frame whose origin is basis, oriented along basis.theta."""
    b = math.radians(basis.theta)
    cb, sb = math.cos(b), math.sin(b)
    dx = m.x - basis.x
    dy = m.y - basis.y
    return TransformedMinutia(
        x=cb * dx + sb * dy,
        y=-sb * dx + cb * dy,
        theta=(m.theta - basis.theta) % 360.0,
        origin_index=origin_index,
    )


def circular_diff(a, b):
    """Smaller arc between two angles in degrees; always in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def xyt(minutiae):
    """Minutia objects as the (x, y, theta) rows a geometric table takes."""
    return [(m.x, m.y, m.theta) for m in minutiae]


def table_of(minutiae):
    return build_geometric_table(xyt(minutiae))


def rows(table, bases):
    """Row b per given basis b, every minutia in b's frame, read off the table's
    [point, basis] frames: shape (len(bases), k, 3), the last axis x/y/theta."""
    return np.stack([f[:, np.asarray(bases, dtype=int)].T for f in table.frames()], axis=-1)


def table_coords(table):
    """The whole table, shape (k, k, 3)."""
    return rows(table, range(len(table)))


def table_row(table, i):
    """Row i of a table as TransformedMinutia, one per source point."""
    return [
        TransformedMinutia(float(x), float(y), float(t), j)
        for j, (x, y, t) in enumerate(rows(table, [i])[0])
    ]


def densify(matches, pairs, kv):
    """The kernel's (pair, point, margin) matches as a (pairs, kv) array, +inf elsewhere."""
    margins = np.full((pairs, kv), np.inf)
    pair, point, margin = matches
    margins[pair, point] = margin
    return margins


def match_margins(vault_table, probe_table, probe_basis, vault_basis, params):
    """The shipped kernel for one vault basis; shape (kv,), +inf where nothing matches."""
    matches = match_margins_many(vault_table, probe_table, probe_basis, [vault_basis], params)
    return densify(matches, 1, len(vault_table))[0]


def collect_candidates(vault_table, vault_points, probe_table, probe_basis, vault_basis, params):
    """Vault points within thresholds of at least one transformed probe minutia."""
    margins = match_margins(vault_table, probe_table, probe_basis, vault_basis, params)
    return {vault_points[j] for j in np.nonzero(margins <= 0.0)[0]}


def dense_margins(vault_table, probe_table, probe_basis, vault_bases, params):
    """True margins of shape (len(vault_bases), kv); entry <= 0 means a match.

    Every (vault basis row, probe minutia) slack is materialized, one
    vault basis at a time so a whole probe basis fits in a few MB.
    """
    P = rows(probe_table, [probe_basis])[0]  # (kp, 3)
    out = np.empty((len(vault_bases), len(vault_table)))
    for i, V in enumerate(rows(vault_table, vault_bases)):  # (kv, 3)
        dx = np.abs(V[None, :, 0] - P[:, None, 0]) - params.x_thres
        dy = np.abs(V[None, :, 1] - P[:, None, 1]) - params.y_thres
        dt = np.abs(V[None, :, 2] - P[:, None, 2]) % 360.0
        dt = np.minimum(dt, 360.0 - dt) - params.theta_thres
        out[i] = np.maximum(np.maximum(dx, dy), dt).min(axis=0)
    return out


def dense_match_margins_many(vault_table, probe_table, probe_bases, vault_bases, params):
    """The shipped kernel's contract from dense margins, pair by pair.

    probe_bases is one probe basis per pair or one for all; the result
    is (pair, point, margin) of every match, sorted by pair, margin, point.
    """
    probe_bases = np.broadcast_to(probe_bases, np.shape(vault_bases))
    margins = np.empty((len(vault_bases), len(vault_table)))
    for i, (pb, vb) in enumerate(zip(probe_bases, vault_bases)):
        margins[i] = dense_margins(vault_table, probe_table, pb, [vb], params)[0]
    pair, point = np.nonzero(margins <= 0.0)
    margin = margins[pair, point]
    order = np.lexsort((point, margin, pair))
    return pair[order], point[order], margin[order]


class EagerGeometricTable(GeometricTable):
    """The geometric table as first written: every basis row built up front.

    The shipped table builds its frames on first use and must match these
    bit for bit.  Everything else, the absolute minutiae and the kernel's
    grid, is the shipped table's.
    """

    def __init__(self, points):
        super().__init__(points)
        xs, ys, thetas = self.xs, self.ys, self.thetas
        dx = xs[None, :] - xs[:, None]
        dy = ys[None, :] - ys[:, None]
        b = np.radians(thetas)[:, None]
        cb, sb = np.cos(b), np.sin(b)
        coords = np.empty((len(xs), len(xs), 3))
        coords[..., 0] = cb * dx + sb * dy
        coords[..., 1] = -sb * dx + cb * dy
        coords[..., 2] = (thetas[None, :] - thetas[:, None]) % 360.0
        coords.setflags(write=False)
        self.coords = coords

    def frames(self):
        return tuple(np.ascontiguousarray(self.coords[..., axis].T) for axis in range(3))
