"""Geometric-hashing alignment between a probe template and vault minutiae.

Absolute pose is useless across captures, so matching happens in
basis-relative frames: every minutia takes a turn as the origin, the
remaining points are rigidly transformed so the basis sits at (0, 0)
pointing along +x, and two captures of the same finger then agree in at
least one shared basis frame no matter how the finger was shifted or
rotated on the sensor.

Tables store real-valued coordinates and all orientation comparisons
are circular.  A table builds the row of a basis frame the first time a
match asks for it and keeps it, so a genuine probe that unlocks after a
few dozen vault bases never pays for the rest.  Every row is
bit-identical to building the whole table at once, because the
trigonometry of all basis angles is computed once per table (numpy's
vectorized cos/sin may round an element differently depending on its
position in the array).

The threshold kernel buckets only the probe side: per call it hashes the
probe's one basis frame into a grid of cells at least a threshold plus a
pixel wide, so each vault point looks up the few probe minutiae in its
neighbourhood instead of being tested against all of them.  Buckets only
choose which pairs to test; every tested pair gets the exact float64
slack, so the output is the same as a dense evaluation's: a vault point
that matches gets its exact margin, every other point gets +inf, because
callers only read which points match and in what order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .minutiae import Minutia

# A probe-grid cell is at least the threshold plus this many pixels wide,
# so a point within the threshold of a probe minutia is at most one cell away.
_CELL_PAD = 1.0
# Caps the probe grid at about this many cells per axis; without it a zero
# threshold would give one cell per pixel of the probe's extent.
_GRID_CELLS = 64

@dataclass(frozen=True)
class MatchParams:
    x_thres: float  # pixels
    y_thres: float  # pixels
    theta_thres: float  # degrees, circular
    theta_basis_thres: float  # degrees; >= 180 disables basis pruning

    def __post_init__(self):
        for name in ("x_thres", "y_thres", "theta_thres", "theta_basis_thres"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0")
        if self.theta_thres >= 180:
            raise ValueError("theta_thres must be < 180 (circular distance caps there)")
        if self.theta_basis_thres > 360:
            raise ValueError("theta_basis_thres must be <= 360")


class GeometricTable:
    """All basis-relative views of a minutia list, built row by row on demand.

    Row i holds every minutia transformed into the frame of basis i, so
    ``rows([i])[0, i]`` is always the exact zero transform; the last axis
    is x/y/theta.  ``rows`` computes a row the first time it is asked
    for, with the same float64 operations as a whole-table build, and
    keeps it for later calls.  Rows are bit-identical to that build
    because cos/sin of all basis angles are computed once, here, and
    indexed per row.  ``thetas`` (the basis angles) is available
    without building any row.
    """

    def __init__(self, sources: Iterable[Minutia]):
        self.sources = tuple(sources)
        k = len(self.sources)
        if k == 0:
            raise ValueError("at least one minutia required")
        self._xs = np.array([m.x for m in self.sources], dtype=float)
        self._ys = np.array([m.y for m in self.sources], dtype=float)
        self.thetas = np.array([m.theta for m in self.sources], dtype=float)
        b = np.radians(self.thetas)
        self._cos, self._sin = np.cos(b), np.sin(b)
        self._rows = np.empty((k, k, 3))
        self._built = np.zeros(k, dtype=bool)

    def __len__(self) -> int:
        return len(self.sources)

    def rows(self, bases: Sequence[int]) -> np.ndarray:
        """The rows of the given bases, shape (len(bases), k, 3); a copy."""
        idx = np.asarray(bases, dtype=int)
        todo = idx[~self._built[idx]]
        if todo.size:
            dx = self._xs[None, :] - self._xs[todo, None]
            dy = self._ys[None, :] - self._ys[todo, None]
            cb, sb = self._cos[todo, None], self._sin[todo, None]
            self._rows[todo, :, 0] = cb * dx + sb * dy
            self._rows[todo, :, 1] = -sb * dx + cb * dy
            self._rows[todo, :, 2] = (self.thetas[None, :] - self.thetas[todo, None]) % 360.0
            self._built[todo] = True
        return self._rows[idx]


def build_geometric_table(minutiae: Iterable[Minutia]) -> GeometricTable:
    return GeometricTable(minutiae)


def match_margins_many(
    vault_table: GeometricTable,
    probe_table: GeometricTable,
    probe_basis: int,
    vault_bases: Sequence[int],
    params: MatchParams,
) -> np.ndarray:
    """Per-vault-point margins in several vault basis frames; shape (len(bases), kv).

    A vault point j matches in the frame of a vault basis when some probe
    minutia lies within all three thresholds in the paired frames.  For a
    match, the entry is the margin min over probe minutiae of
    max(|dx| - x_thres, |dy| - y_thres, circ(dtheta) - theta_thres),
    which is <= 0; every other entry is +inf.

    The probe basis frame is hashed once per call into a grid whose cell
    edge on each axis is max(thres + _CELL_PAD, span / _GRID_CELLS),
    span being the probe's extent on that axis.  Every probe minutia is
    entered into its own cell and the eight around it, so each vault
    point reads one cell to find the probe minutiae that may lie within
    x_thres and y_thres of it; vault points outside the grid read an
    extra, empty cell.  The full slack of those pairs is then computed
    with the same float64 operations a dense evaluation would use.

    The result is exact.  If |v - p| <= thres holds in float64, then
    floor(v / edge) and floor(p / edge) differ by at most one, because
    the edge exceeds the threshold by a pixel and rounding is about
    1e-12 of a pixel, so every matching pair is among those tested and
    every matching margin is the same minimum.  _GRID_CELLS only bounds
    the grid when a threshold is near zero; any edge of at least
    thres + _CELL_PAD gives the same margins.
    """
    P = probe_table.rows([probe_basis])[0]  # (kp, 3)
    V = vault_table.rows(vault_bases)  # (m, kv, 3)
    m, kv = V.shape[:2]
    Vf = V.reshape(-1, 3)
    # per axis, on a grid around the probe: probe cells, vault cells, cell count
    cells = []
    for axis, thres in ((0, params.x_thres), (1, params.y_thres)):
        p = P[:, axis]
        edge = max(thres + _CELL_PAD, (p.max() - p.min()) / _GRID_CELLS)
        pc = np.floor(p / edge)
        lo = pc.min() - 1.0  # one spare cell on each side
        cells.append((pc - lo, np.floor(Vf[:, axis] / edge) - lo, pc.max() - lo + 2.0))
    (px, vx, nx), (py, vy, ny) = cells
    # CSR grid: each probe minutia in its own cell and the eight around it
    near = np.array([-1.0, 0.0, 1.0])
    probe_cells = (px[:, None] + near)[:, :, None] * ny + (py[:, None] + near)[:, None, :]
    probe_cells = probe_cells.ravel().astype(np.intp)
    members = np.repeat(np.arange(len(P)), 9)[np.argsort(probe_cells, kind="stable")]
    counts = np.bincount(probe_cells, minlength=int(nx * ny) + 1)  # last cell: empty
    starts = np.cumsum(counts) - counts
    inside = (vx >= 0.0) & (vx < nx) & (vy >= 0.0) & (vy < ny)
    cell = np.where(inside, vx * ny + vy, nx * ny).astype(np.intp)
    # one (vault point, probe minutia) pair per cell member
    per_point = counts[cell]
    near_any = np.flatnonzero(per_point)
    k = per_point[near_any]
    f = np.repeat(near_any, k)
    pos = np.arange(len(f)) + np.repeat(starts[cell[near_any]] - (np.cumsum(k) - k), k)
    Vs, Ps = Vf[f], P[members[pos]]
    dx = np.abs(Vs[:, 0] - Ps[:, 0]) - params.x_thres
    dy = np.abs(Vs[:, 1] - Ps[:, 1]) - params.y_thres
    dt = np.abs(Vs[:, 2] - Ps[:, 2]) % 360.0
    dt = np.minimum(dt, 360.0 - dt) - params.theta_thres
    s = np.maximum(np.maximum(dx, dy), dt)
    hit = s <= 0.0
    margins = np.full(m * kv, np.inf)
    np.minimum.at(margins, f[hit], s[hit])
    return margins.reshape(m, kv)

