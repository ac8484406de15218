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
array, so a basis frame indexes them instead of recomputing them).  It
refuses a theta outside [0, 360), the range the kernel's and the basis
gate's exactness rest on.  Its frames, every minutia in every basis
frame, are built on first use and kept; the kernel reads the probe's.

The threshold kernel builds no vault frames.  The vault table holds its
minutiae once per decode in the cell units of an (x, theta, y) grid; a
kernel call takes a list of (probe basis, vault basis) pairs, maps each
pair's probe frame into the vault image in cell units and reads one run of
cells around the one each (pair, probe minutia) lands in.  Cells only
choose which triples to test: each gets its slack with the float64
operations of a dense evaluation, and only the matches come back,
sparse, exact.
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
    """Absolute minutiae bucketed in (x, theta, y) cells, in CSR form.

    The x/y cell edge is max(hypot(x_thres, y_thres) + _CELL_PAD,
    span / _GRID_CELLS), span being the larger extent of the minutiae.
    The theta cells split the circle evenly, each at least theta_thres +
    _CELL_PAD wide; when fewer than three fit there is one theta cell.
    In cell units, u = x / edge - x0, v = y / edge - y0 and w = theta /
    width, a point lies in cell (floor(u), floor(v), floor(w) mod nt),
    numbered (x * nt + t) * ny + y; x0 and y0 leave a spare cell on each
    side of the minutiae.  Each minutia is entered into the 3 x 3 (x,
    theta) cells around its own (3 with one theta cell) at its own y row,
    so x slab nx - 1 and y rows 0, ny - 2 and ny - 1 hold no entry, and the
    y rows around cell c, one run members[runs[c]:runs[c + 3]], hold every
    minutia less than one cell away from c on each axis; runs[c] starts
    cell c - 1, and a run into a neighbouring (x, theta) column reads only
    its empty row 0 or ny - 1.
    """

    def __init__(self, table: GeometricTable, params: MatchParams):
        self.params = params
        self.edge = max(math.hypot(params.x_thres, params.y_thres) + _CELL_PAD,
                        max(np.ptp(table.xs), np.ptp(table.ys)) / _GRID_CELLS)
        fit = int(360.0 // (params.theta_thres + _CELL_PAD))
        self.nt = min(fit, _GRID_CELLS) if fit >= 3 else 1
        self.width = 360.0 / self.nt
        self.u, self.v = (a / self.edge - np.floor(a.min() / self.edge) + 1.0 for a in (table.xs, table.ys))
        self.w = table.thetas / self.width
        self.cos, self.sin = table.cos / self.edge, table.sin / self.edge  # a basis frame's axes
        # floor(w) is in [0, nt] for a minutia and in [0, 2 nt] for a query: this folds it
        self.wrap = np.arange(2 * self.nt + 1) % self.nt
        cx, cy, ct = self.u.astype(np.intp), self.v.astype(np.intp), self.wrap[self.w.astype(np.intp)]
        self.nx, self.ny = int(cx.max()) + 3, int(cy.max()) + 3
        near = np.arange(-1, 2)
        near_t = near if self.nt >= 3 else near[1:2]
        cells = (((cx[:, None, None] + near[:, None]) * self.nt + (ct[:, None, None] + near_t) % self.nt)
                 * self.ny + cy[:, None, None])
        keys = cells.ravel().astype(np.min_scalar_type(self.nx * self.nt * self.ny))
        # stable sorts 16-bit keys by radix; the order inside a cell is free: match_margins_many
        # returns one (pair, point, margin) row per (pair, point), sorted by all three
        order = np.argsort(keys, kind="stable")
        self.members = order // (cells.size // len(cx))
        # runs[c] is the count of entries in cells below c - 1: a step at each sorted key + 2
        self.runs = np.repeat(np.arange(len(keys) + 1, dtype=np.int32),
                              np.diff(keys[order], prepend=-2, append=self.nx * self.nt * self.ny + 1))


class GeometricTable:
    """A minutia list and all its basis-relative views.

    ``frames()`` is x, y and theta of every minutia transformed into the
    frame of every basis, indexed [point, basis], so entry [i, i] is
    always the exact zero transform; ``grid(params)`` is the absolute
    minutiae bucketed for the threshold kernel.  Each is built on first
    use and kept, the grid while the same params are asked for.
    """

    def __init__(self, points):
        """points: one (x, y, theta) row per minutia, theta in degrees in [0, 360)."""
        pts = np.asarray(points, dtype=float)
        if len(pts) == 0:
            raise ValueError("at least one minutia required")
        self.xs, self.ys, self.thetas = np.array(pts.T)
        if not 0.0 <= self.thetas.min() <= self.thetas.max() < 360.0:  # NaN fails too
            raise ValueError("every theta must lie in [0, 360)")
        b = np.radians(self.thetas)
        self.cos, self.sin = np.cos(b), np.sin(b)
        self._grid: _VaultGrid | None = None
        self._frames: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return len(self.xs)

    def frames(self) -> tuple[np.ndarray, ...]:
        """x, y and theta of every minutia in every basis frame, each (k, k), [point, basis]."""
        if self._frames is None:
            dx, dy = self.xs[:, None] - self.xs, self.ys[:, None] - self.ys
            self._frames = (self.cos * dx + self.sin * dy, -self.sin * dx + self.cos * dy,
                            (self.thetas[:, None] - self.thetas) % 360.0)
        return self._frames

    def grid(self, params: MatchParams) -> _VaultGrid:
        if self._grid is None or self._grid.params != params:
            self._grid = _VaultGrid(self, params)
        return self._grid


build_geometric_table = GeometricTable  # the decoder's name for it, which vaultbench's tracer wraps


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
    frames, V_b[j] (vault point j in vault basis b's frame) against P[p]; its
    margin, the minimum over those p of max(|dx| - x_thres, |dy| - y_thres,
    circ(dtheta) - theta_thres), is <= 0.  There is one entry per matching
    (pair, point), sorted by pair, then margin, then point, so each pair's
    run is its candidate set, strongest first with ties in vault order.

    No vault frame is built.  Each (pair, p) maps P[p] into the vault image
    in the grid's cell units, u = u_b + (cos(theta_b) P[p].x - sin(theta_b)
    P[p].y) / edge, v likewise and w = w_b + P[p].theta / width, and reads
    the run around the cell it lands in.  The (pair, p, j) triples that
    read turns up get V_b[j], with the float64 expressions of
    GeometricTable.frames, and the exact slack.

    The result is exact.  V_b[j] - P[p] is R(-theta_b)(v_j - q) up to
    rounding, q being the image point, and a rotation keeps lengths; so a
    matching pair lies within hypot(x_thres, y_thres) of q on each image
    axis and within theta_thres of q's orientation on the circle.  In cell
    units that is short of one by _CELL_PAD / edge (or / width), far more
    than the rounding of 11-bit coordinates and of angles in [0, 360), so
    floor(u), floor(v) and floor(w) of the two differ by at most one
    (circularly for w), and the run the query reads holds v_j; a query
    clamped into x slab nx - 1 or y row ny - 1 is past every minutia and
    reads no entry.  Every matching triple is tested, and each (pair,
    point) keeps a dense evaluation's minimum, the same in any batch of
    pairs.
    """
    T, grid = vault_table, vault_table.grid(params)
    pb, b = np.broadcast_arrays(np.asarray(probe_bases, dtype=np.intp),
                                np.asarray(vault_bases, dtype=np.intp))
    px, py, pt = probe_table.frames()
    # query (p, i), probe minutia p of pair i, in cell units: (kp, pairs) arrays
    gx, gy, cos, sin = px[:, pb], py[:, pb], grid.cos[b], grid.sin[b]
    # astype truncates: floor, but (-1, 0) reads spare slab or row 0, whose entries are all too
    # far; as unsigned, a query left of or below the grid is past it, in the empty slab or row
    cx = np.minimum((gx * cos - gy * sin + grid.u[b]).astype(np.intp).view(np.uintp), grid.nx - 1)
    cy = np.minimum((gx * sin + gy * cos + grid.v[b]).astype(np.intp).view(np.uintp), grid.ny - 1)
    del gx, gy
    ct = grid.wrap[(pt[:, pb] * (1.0 / grid.width) + grid.w[b]).astype(np.intp)]
    cell = ((cx.view(np.intp) * grid.nt + ct) * grid.ny + cy.view(np.intp)).ravel()
    del cx, cy, ct
    # one (pair, probe minutia, vault point) triple per member of the run read
    start, stop = grid.runs[cell], grid.runs[3:][cell]
    hit = np.flatnonzero(stop - start)
    stop = stop[hit]
    k = stop - start[hit]
    q = np.repeat(np.arange(len(hit)), k)  # the query of each triple, among those hit
    j = grid.members[np.arange(len(q)) + (stop - np.cumsum(k))[q]]
    p, row = np.divmod(hit[q], len(b))
    fp, vb = p * len(probe_table) + pb[row], b[row]
    dx, dy, c, s = T.xs[j] - T.xs[vb], T.ys[j] - T.ys[vb], T.cos[vb], T.sin[vb]
    d = T.thetas[j] - T.thetas[vb]
    d += 360.0 * (d < 0.0)  # (theta_j - theta_b) % 360.0 for angles in [0, 360)
    et = np.abs(d - pt.ravel()[fp])  # both angles in [0, 360]: min(et, 360 - et) is circular
    slack = np.maximum(np.maximum(np.abs((c * dx + s * dy) - px.ravel()[fp]) - params.x_thres,
                                  np.abs((-s * dx + c * dy) - py.ravel()[fp]) - params.y_thres),
                       np.minimum(et, 360.0 - et) - params.theta_thres)
    hit = slack <= 0.0
    row, j, slack = row[hit], j[hit], slack[hit]
    key = row * len(T) + j
    first = np.lexsort((slack, key))  # by (pair, point, margin)
    key = key[first]
    keep = first[np.concatenate((key[:1] >= 0, key[1:] != key[:-1]))]  # each (pair, point)'s minimum
    keep = keep[np.lexsort((slack[keep], row[keep]))]  # by (pair, margin, point)
    return row[keep], j[keep], slack[keep]
