"""Geometric-hashing alignment between a probe template and vault minutiae.

Absolute pose is useless across captures, so matching happens in
basis-relative frames: every minutia takes a turn as the origin, the
remaining points are rigidly transformed so the basis sits at (0, 0)
pointing along +x, and two captures of the same finger then agree in at
least one shared basis frame no matter how the finger was shifted or
rotated on the sensor.  All orientation comparisons are circular.

A table holds its minutiae's absolute x, y and theta and the cos/sin of
every basis angle, computed once per table (numpy's vectorized cos/sin
may round an element differently depending on its position in the
array, so a basis frame indexes them instead of recomputing them).  A
row, the whole minutia list in one basis frame, is computed when asked
for and not kept.

The threshold kernel builds no vault rows.  The vault table buckets its
absolute minutiae once, in an (x, y, theta) grid; a kernel call takes a
list of (probe basis, vault basis) pairs and maps each pair's probe frame
into the vault image, so each (pair, probe minutia) reads the one cell
around its image point.  Cells only choose which triples to test: each
gets its vault coordinates and slack with the float64 operations of a
dense evaluation, and only the matches come back, sparse, with their
exact margins, because callers only read which points match and in
what order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A grid cell is at least the matching radius plus this many pixels (or
# degrees) wide, so a point that matches a query is at most one cell away.
_CELL_PAD = 1.0
# Caps the grid at about this many cells per axis; without it a zero
# threshold would give one cell per pixel of the vault's extent.
_GRID_CELLS = 64


@dataclass(frozen=True)
class MatchParams:
    x_thres: float  # pixels
    y_thres: float  # pixels
    theta_thres: float  # degrees, circular
    theta_basis_thres: float  # degrees; >= 180 disables basis pruning

    def __post_init__(self):
        for name in ("x_thres", "y_thres", "theta_thres", "theta_basis_thres"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0")
        if self.theta_thres >= 180:
            raise ValueError("theta_thres must be < 180 (circular distance caps there)")
        if self.theta_basis_thres > 360:
            raise ValueError("theta_basis_thres must be <= 360")


class _VaultGrid:
    """Absolute minutiae bucketed in (x, y, theta) cells, in CSR form.

    The x/y cell edge is max(hypot(x_thres, y_thres) + _CELL_PAD,
    span / _GRID_CELLS), span being the larger extent of the minutiae.
    The theta cells split the circle evenly, each at least theta_thres +
    _CELL_PAD wide; when fewer than three fit there is one theta cell.
    Each minutia is entered into its own cell and the 26 around it (the 8
    around it with one theta cell), so reading the cell of a query finds
    every minutia less than one cell away from it on each axis.  Queries
    past the grid's border read a last, empty cell.
    """

    def __init__(self, xs, ys, thetas, params: MatchParams):
        self.params = params
        self.edge = max(math.hypot(params.x_thres, params.y_thres) + _CELL_PAD,
                        max(np.ptp(xs), np.ptp(ys)) / _GRID_CELLS)
        fit = int(360.0 // (params.theta_thres + _CELL_PAD))
        self.nt = min(fit, _GRID_CELLS) if fit >= 3 else 1
        self.width = 360.0 / self.nt
        # one spare cell on each side
        self.x0 = np.floor(xs.min() / self.edge) - 1.0
        self.y0 = np.floor(ys.min() / self.edge) - 1.0
        self.nx = np.floor(xs.max() / self.edge) - self.x0 + 2.0
        self.ny = np.floor(ys.max() / self.edge) - self.y0 + 2.0
        self.empty = int(self.nx * self.ny * self.nt)
        near = np.array([-1.0, 0.0, 1.0])
        near_t = near if self.nt >= 3 else np.zeros(1)
        cx, cy, ct = self._axes(xs, ys, thetas)
        cells = (((cx[:, None] + near)[:, :, None, None] * self.ny
                  + (cy[:, None] + near)[:, None, :, None]) * self.nt
                 + ((ct[:, None] + near_t) % self.nt)[:, None, None, :])
        cells = cells.reshape(len(xs), -1).astype(np.intp)
        # the order inside a cell is free: match_margins_many returns one
        # (pair, point, margin) row per (pair, point), sorted by all three
        self.members = np.argsort(cells.ravel()) // cells.shape[1]
        self.counts = np.bincount(cells.ravel(), minlength=self.empty + 1)
        self.starts = np.cumsum(self.counts) - self.counts

    def _axes(self, x, y, theta):
        return (np.floor(x / self.edge) - self.x0, np.floor(y / self.edge) - self.y0,
                np.floor(theta / self.width).astype(np.intp) % self.nt)

    def cells(self, x, y, theta) -> np.ndarray:
        """The flat cell index of each query point."""
        cx, cy, ct = self._axes(x, y, theta)
        inside = (cx >= 0.0) & (cx < self.nx) & (cy >= 0.0) & (cy < self.ny)
        cx *= self.ny  # (cx * ny + cy) * nt + ct, in place
        cx += cy
        cx *= self.nt
        cx += ct
        cx[~inside] = self.empty
        return cx.astype(np.intp)


class GeometricTable:
    """A minutia list and all its basis-relative views.

    ``rows(bases)`` computes the list in each given basis frame: row i
    holds every minutia transformed into the frame of basis i, so
    ``rows([i])[0, i]`` is always the exact zero transform; the last axis
    is x/y/theta.  ``grid(params)`` is the absolute minutiae bucketed for
    the threshold kernel, built on first use and kept while the same
    params are asked for.
    """

    def __init__(self, points):
        """points: one (x, y, theta) row per minutia, theta in degrees."""
        pts = np.asarray(points, dtype=float)
        if len(pts) == 0:
            raise ValueError("at least one minutia required")
        self.xs, self.ys, self.thetas = np.array(pts.T)
        b = np.radians(self.thetas)
        self.cos, self.sin = np.cos(b), np.sin(b)
        self._grid: _VaultGrid | None = None

    def __len__(self) -> int:
        return len(self.xs)

    def rows(self, bases: Sequence[int]) -> np.ndarray:
        """The rows of the given bases, shape (len(bases), k, 3)."""
        idx = np.asarray(bases, dtype=int)
        dx = self.xs[None, :] - self.xs[idx, None]
        dy = self.ys[None, :] - self.ys[idx, None]
        cb, sb = self.cos[idx, None], self.sin[idx, None]
        return np.stack([cb * dx + sb * dy, -sb * dx + cb * dy,
                         (self.thetas[None, :] - self.thetas[idx, None]) % 360.0], axis=-1)

    def grid(self, params: MatchParams) -> _VaultGrid:
        if self._grid is None or self._grid.params != params:
            self._grid = _VaultGrid(self.xs, self.ys, self.thetas, params)
        return self._grid


def build_geometric_table(points) -> GeometricTable:
    return GeometricTable(points)


def match_margins_many(
    vault_table: GeometricTable,
    probe_table: GeometricTable,
    probe_bases: int | Sequence[int],
    vault_bases: Sequence[int],
    params: MatchParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every match of each (probe basis, vault basis) pair, as (pair, point, margin).

    Pair i is (probe_bases[i], vault_bases[i]); one probe basis index is
    broadcast to every pair.  Vault point j matches in pair i when some
    probe minutia p lies within all three thresholds of it in the paired
    frames, V_b[j] (the vault's row b) against P[p] (the probe's row); its
    margin, the minimum over those p of max(|dx| - x_thres, |dy| - y_thres,
    circ(dtheta) - theta_thres), is <= 0.  There is one entry per matching
    (pair, point), sorted by pair, then margin, then point, so each pair's
    run is its candidate set, strongest first with ties in vault order.

    No vault row is built.  Each (pair, p) maps P[p] into the vault
    image, q = v_b + R(theta_b) P[p] with orientation theta_b + P[p].theta,
    and reads the one cell of the vault table's grid that holds q.  Only
    the (pair, p, j) triples that read turns up get V_b[j], computed with
    the float64 expressions of GeometricTable.rows, and then the exact slack.

    The result is exact.  V_b[j] - P[p] is R(-theta_b)(v_j - q) up to
    float64 rounding, about 1e-12 of a pixel for 11-bit coordinates, and a
    rotation keeps lengths; so a pair within x_thres and y_thres lies
    within hypot(x_thres, y_thres) plus that rounding of q on each image
    axis, and a pair within theta_thres lies within theta_thres plus
    rounding of q's orientation on the circle.  Each is less than a cell
    edge, which exceeds the radius by _CELL_PAD, so floor(v / edge) and
    floor(q / edge) differ by at most one on every axis (circularly for
    theta), and the cells each vault minutia is entered into, its own and
    all those around it, include the one q reads.  Every matching triple is
    therefore tested, and each (pair, point) keeps a dense evaluation's
    minimum; every value is elementwise, the same in any batch of pairs.
    """
    T = vault_table
    b = np.asarray(vault_bases, dtype=np.intp)
    distinct, slot = np.unique(np.broadcast_to(probe_bases, b.shape), return_inverse=True)
    P = probe_table.rows(distinct)  # (distinct probe bases, kp, 3); pair i has row slot[i]
    grid = T.grid(params)
    cb, sb = T.cos[b, None], T.sin[b, None]
    px, py = P[slot, :, 0], P[slot, :, 1]
    # each pair's probe frame in the vault image: (pairs, kp)
    qx = T.xs[b, None] + (cb * px - sb * py)
    qy = T.ys[b, None] + (sb * px + cb * py)
    del px, py
    qt = T.thetas[b, None] + P[slot, :, 2]  # the grid wraps the theta cell index
    cell = grid.cells(qx.ravel(), qy.ravel(), qt.ravel())
    del qx, qy, qt
    # one (pair, probe minutia, vault point) triple per member of each cell read
    k = grid.counts[cell]
    query = np.repeat(np.arange(len(cell)), k)
    pos = np.arange(len(query)) + np.repeat(grid.starts[cell] - (np.cumsum(k) - k), k)
    j = grid.members[pos]
    row, p = np.divmod(query, len(probe_table))
    vb, pp = b[row], P[slot[row], p]
    dx, dy = T.xs[j] - T.xs[vb], T.ys[j] - T.ys[vb]
    c, s = T.cos[vb], T.sin[vb]
    ex = np.abs((c * dx + s * dy) - pp[:, 0]) - params.x_thres
    ey = np.abs((-s * dx + c * dy) - pp[:, 1]) - params.y_thres
    # both angles are in [0, 360], so min(d, 360 - d) is the circular distance
    et = np.abs((T.thetas[j] - T.thetas[vb]) % 360.0 - pp[:, 2])
    et = np.minimum(et, 360.0 - et) - params.theta_thres
    slack = np.maximum(np.maximum(ex, ey), et)
    hit = slack <= 0.0
    row, j, slack = row[hit], j[hit], slack[hit]
    key = row * len(T) + j  # stable sorts follow, minor key first
    first = np.argsort(slack, kind="stable")
    first = first[np.argsort(key[first], kind="stable")]  # by (pair, point, margin)
    keep = first[np.diff(key[first], prepend=-1) != 0]  # each (pair, point)'s minimum
    keep = keep[np.argsort(slack[keep], kind="stable")]
    keep = keep[np.argsort(row[keep], kind="stable")]  # by (pair, margin, point)
    return row[keep], j[keep], slack[keep]
