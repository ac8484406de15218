"""Geometric hashing: per-basis frames, thresholds and candidate collection."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aligner_oracle import (
    EagerGeometricTable,
    circular_diff,
    collect_candidates,
    dense_match_margins_many,
    match_margins,
    rigid_transform,
    table_coords,
    table_row,
)
from fuzzyvault.aligner import (
    _CELL_PAD,
    _GRID_CELLS,
    MatchParams,
    build_geometric_table,
    match_margins_many,
)
from fuzzyvault.minutiae import Minutia
from fuzzyvault.vault import VaultPoint


def rotate_about(m, cx, cy, deg, dx=0.0, dy=0.0):
    """Independent rigid-motion oracle using a plain rotation matrix."""
    r = math.radians(deg)
    x = cx + (m.x - cx) * math.cos(r) - (m.y - cy) * math.sin(r) + dx
    y = cy + (m.x - cx) * math.sin(r) + (m.y - cy) * math.cos(r) + dy
    return Minutia(x, y, (m.theta + deg) % 360.0, m.quality)


def test_basis_maps_to_origin():
    b = Minutia(123, 45, 77.0)
    t = rigid_transform(b, b)
    assert (t.x, t.y, t.theta) == (0.0, 0.0, 0.0)


def test_pure_translation():
    t = rigid_transform(Minutia(10, 10, 0.0), Minutia(20, 15, 45.0))
    assert (t.x, t.y, t.theta) == (10.0, 5.0, 45.0)


def test_rotated_basis_pinned_example():
    t = rigid_transform(Minutia(10, 10, 90.0), Minutia(10, 20, 90.0))
    assert abs(t.x - 10.0) < 1e-9
    assert abs(t.y - 0.0) < 1e-9
    assert t.theta == 0.0


def test_rigid_transform_matches_rotation_matrix_oracle():
    rng = random.Random(21)
    for _ in range(200):
        b = Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360))
        m = Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360))
        t = rigid_transform(b, m)
        # the frame rotates by -theta_b: verify by rotating the frame back
        r = math.radians(b.theta)
        x_back = t.x * math.cos(r) - t.y * math.sin(r) + b.x
        y_back = t.x * math.sin(r) + t.y * math.cos(r) + b.y
        assert abs(x_back - m.x) < 1e-8
        assert abs(y_back - m.y) < 1e-8
        assert circular_diff(t.theta, (m.theta - b.theta) % 360.0) < 1e-9


def test_table_shapes():
    one_table = build_geometric_table([Minutia(5, 5, 10.0)])
    assert len(one_table) == 1
    one = table_coords(one_table)
    assert one.shape == (1, 1, 3)
    assert tuple(one[0, 0]) == (0.0, 0.0, 0.0)

    ms = [Minutia(i * 20, i * 10, (i * 30) % 360.0) for i in range(7)]
    coords = table_coords(build_geometric_table(ms))
    assert coords.shape == (7, 7, 3)
    for i in range(7):
        assert tuple(coords[i, i]) == (0.0, 0.0, 0.0)  # exact zero diagonal


def test_table_rows_agree_with_rigid_transform():
    rng = random.Random(22)
    ms = [Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360)) for _ in range(9)]
    table = build_geometric_table(ms)
    for i in range(9):
        for j, entry in enumerate(table_row(table, i)):
            ref = rigid_transform(ms[i], ms[j], origin_index=i)
            assert abs(entry.x - ref.x) < 1e-9
            assert abs(entry.y - ref.y) < 1e-9
            assert circular_diff(entry.theta, ref.theta) < 1e-9


def test_table_invariant_under_global_rigid_motion():
    rng = random.Random(23)
    ms = [Minutia(rng.uniform(50, 350), rng.uniform(50, 500), rng.uniform(0, 360))
          for _ in range(12)]
    moved = [rotate_about(m, 200.0, 280.0, 37.5, dx=14.2, dy=-9.1) for m in ms]
    a = table_coords(build_geometric_table(ms))
    b = table_coords(build_geometric_table(moved))
    assert np.max(np.abs(a[..., 0] - b[..., 0])) < 1e-6
    assert np.max(np.abs(a[..., 1] - b[..., 1])) < 1e-6
    dt = np.abs(a[..., 2] - b[..., 2]) % 360.0
    assert np.max(np.minimum(dt, 360.0 - dt)) < 1e-6


@pytest.mark.parametrize("a,b,expect", [(10, 350, 20), (77, 77, 0), (0, 180, 180)])
def test_circular_diff(a, b, expect):
    assert circular_diff(a, b) == expect


def test_match_params_validation():
    with pytest.raises(ValueError):
        MatchParams(-1, 12, 12, 15)
    with pytest.raises(ValueError):
        MatchParams(12, 12, 180, 15)  # theta threshold must stay under 180
    with pytest.raises(ValueError, match="y_thres"):
        MatchParams(12, math.nan, 12, 15)
    MatchParams(12, 12, 12, 360)  # basis gate may be disabled entirely


def test_collect_candidates_self_match_is_complete():
    rng = random.Random(24)
    ms = [Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360))
          for _ in range(15)]
    table = build_geometric_table(ms)
    points = [VaultPoint(i, 0) for i in range(15)]
    params = MatchParams(12, 12, 12, 15)
    got = collect_candidates(table, points, table, 0, 0, params)
    assert got == set(points)


def test_collect_candidates_only_trivial_for_incompatible_geometry():
    # the basis pair always matches itself at zero offset, so the floor
    # for any candidate set is the basis point; nothing else may appear
    # when the two constellations share no displacement structure
    vault_ms = [Minutia(100, 100, 0.0), Minutia(160, 130, 90.0),
                Minutia(220, 90, 180.0), Minutia(280, 160, 270.0),
                Minutia(340, 110, 45.0)]
    probe_ms = [Minutia(100, 100, 0.0), Minutia(107, 101, 10.0),
                Minutia(113, 99, 20.0), Minutia(119, 102, 30.0),
                Minutia(126, 98, 40.0)]
    vt = build_geometric_table(vault_ms)
    pt = build_geometric_table(probe_ms)
    points = [VaultPoint(i, 0) for i in range(len(vault_ms))]
    got = collect_candidates(vt, points, pt, 0, 0, MatchParams(5, 5, 5, 360))
    assert got == {points[0]}


def brute_force_candidates(vault_ms, probe_ms, vb, pb, params):
    out = set()
    for j, vm in enumerate(vault_ms):
        v = rigid_transform(vault_ms[vb], vm)
        for pm in probe_ms:
            p = rigid_transform(probe_ms[pb], pm)
            if (abs(v.x - p.x) <= params.x_thres
                    and abs(v.y - p.y) <= params.y_thres
                    and circular_diff(v.theta, p.theta) <= params.theta_thres):
                out.add(j)
                break
    return out


def test_candidates_match_brute_force_after_rigid_motion():
    rng = random.Random(25)
    vault_ms = [Minutia(rng.uniform(60, 340), rng.uniform(60, 500), rng.uniform(0, 360))
                for _ in range(20)]
    probe_ms = [rotate_about(m, 200.0, 280.0, 10.0, dx=5.0, dy=3.0) for m in vault_ms]
    vt = build_geometric_table(vault_ms)
    ptab = build_geometric_table(probe_ms)
    points = [VaultPoint(i, 0) for i in range(20)]
    params = MatchParams(12, 12, 12, 15)
    for basis in range(5):
        got = collect_candidates(vt, points, ptab, basis, basis, params)
        expect = brute_force_candidates(vault_ms, probe_ms, basis, basis, params)
        assert {points[j] for j in expect} == got
        # aligned copies of the same set must keep at least n+1 candidates
        assert len(got) == 20


def test_match_margins_many_agrees_with_single():
    rng = random.Random(26)
    vault_ms = [Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360))
                for _ in range(10)]
    probe_ms = [Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360))
                for _ in range(8)]
    vt = build_geometric_table(vault_ms)
    ptab = build_geometric_table(probe_ms)
    params = MatchParams(12, 12, 12, 360)
    many = match_margins_many(vt, ptab, 2, [0, 3, 7], params)
    for row, vb in enumerate([0, 3, 7]):
        single = match_margins(vt, ptab, 2, vb, params)
        assert np.array_equal(many[row], single)


# Angles cluster at the wrap-around and at the vault's 360/1024 quantum.
_angles = st.one_of(
    st.floats(0.0, 360.0, exclude_max=True),
    st.sampled_from([0.0, 1e-9, 360.0 / 1024, 180.0, 359.648, 360.0 - 1e-9]),
)
_minutiae = st.builds(Minutia, st.integers(0, 2047), st.integers(0, 2047), _angles)
# Zero, pixel-scale, and larger than any image.
_thres = st.one_of(st.sampled_from([0.0, 0.5, 12.0, 15.0, 4096.0]), st.floats(0.0, 3000.0))
_theta_thres = st.one_of(st.sampled_from([0.0, 12.0, 179.9]),
                         st.floats(0.0, 180.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(
    vault_ms=st.lists(_minutiae, min_size=1, max_size=60),
    probe=st.one_of(st.none(), st.lists(_minutiae, min_size=1, max_size=30)),
    params=st.builds(MatchParams, _thres, _thres, _theta_thres, st.just(360.0)),
    data=st.data(),
)
def test_match_margins_many_agrees_with_dense_oracle(vault_ms, probe, params, data):
    probe_ms = vault_ms[:30] if probe is None else probe  # None: identical minutiae
    vt = build_geometric_table(vault_ms)
    ptab = build_geometric_table(probe_ms)
    probe_basis = data.draw(st.integers(0, len(probe_ms) - 1), label="probe_basis")
    bases = list(range(len(vault_ms)))
    got = match_margins_many(vt, ptab, probe_basis, bases, params)
    expect = dense_match_margins_many(vt, ptab, probe_basis, bases, params)
    match = expect <= 0.0
    assert np.array_equal(got <= 0.0, match)
    assert np.array_equal(got[match], expect[match])
    assert np.all(np.isposinf(got[~match]))


class FixedRows:
    """A table whose basis rows are given outright, so tests can place points."""

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=float)

    def rows(self, bases):
        return self.coords[np.asarray(bases, dtype=int)]


_grid_thres = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 12.0, 15.0, 4096.0, 1e6]),
                        st.floats(0.0, 3000.0))


def _probe_coords(data, probe_edge, kp):
    """Probe values for one axis: integers, floats, or multiples of probe_edge."""
    value = st.one_of(st.integers(-2048, 2048).map(float), st.floats(-3000.0, 3000.0),
                      st.integers(-32, 32).map(lambda k: k * probe_edge))
    return np.array(data.draw(st.lists(value, min_size=kp, max_size=kp)))


def _vault_coord(data, p, thres, edge):
    """A vault value for one axis, placed where a grid could go wrong."""
    kind = data.draw(st.sampled_from(["thres", "pad", "edge", "multiple", "same", "any"]))
    sign = data.draw(st.sampled_from([-1.0, 1.0]))
    if kind == "thres":  # exactly at the threshold
        return p + sign * thres
    if kind == "pad":
        return p + sign * (thres + _CELL_PAD)
    if kind == "edge":
        return p + sign * edge
    if kind == "multiple":  # on a cell boundary, inside or outside the grid
        return data.draw(st.integers(-80, 80)) * edge
    if kind == "same":
        return p
    return data.draw(st.floats(-6000.0, 6000.0))


@settings(max_examples=300, deadline=None)
@given(
    x_thres=_grid_thres,
    y_thres=_grid_thres,
    theta_thres=_theta_thres,
    shape=st.sampled_from(["one", "flat-x", "flat-y", "spread"]),
    kp=st.integers(2, 30),
    m=st.integers(1, 2),
    kv=st.integers(1, 20),
    data=st.data(),
)
def test_grid_kernel_boundaries_agree_with_dense_oracle(
    x_thres, y_thres, theta_thres, shape, kp, m, kv, data
):
    """Points exactly at the threshold, on cell boundaries, off the grid,
    at negative coordinates, and probes with zero span on an axis."""
    params = MatchParams(x_thres, y_thres, theta_thres, 360.0)
    if shape == "one":
        kp = 1
    px = _probe_coords(data, x_thres + _CELL_PAD, kp)
    py = _probe_coords(data, y_thres + _CELL_PAD, kp)
    if shape == "flat-x":  # collinear: zero span in x
        px[:] = px[0]
    elif shape == "flat-y":
        py[:] = py[0]
    pt = np.array(data.draw(st.lists(_angles, min_size=kp, max_size=kp)))
    # the cell edges the kernel derives from this probe
    edges = [max(t + _CELL_PAD, (c.max() - c.min()) / _GRID_CELLS)
             for t, c in ((x_thres, px), (y_thres, py))]
    vault = np.empty((m * kv, 3))
    for j in range(m * kv):
        near = data.draw(st.integers(0, kp - 1))
        vault[j, 0] = _vault_coord(data, px[near], x_thres, edges[0])
        vault[j, 1] = _vault_coord(data, py[near], y_thres, edges[1])
        vault[j, 2] = data.draw(st.one_of(st.just(pt[near]), _angles))
    vt = FixedRows(vault.reshape(m, kv, 3))
    ptab = FixedRows(np.stack([px, py, pt], axis=1)[None])
    bases = list(range(m))
    got = match_margins_many(vt, ptab, 0, bases, params)
    expect = dense_match_margins_many(vt, ptab, 0, bases, params)
    match = expect <= 0.0
    assert np.array_equal(got <= 0.0, match)
    assert np.array_equal(got[match], expect[match])
    assert np.all(np.isposinf(got[~match]))


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(_minutiae, min_size=1, max_size=60), data=st.data())
def test_rows_built_on_demand_agree_with_eager_oracle(ms, data):
    k = len(ms)
    table = build_geometric_table(ms)
    expect = EagerGeometricTable(ms).coords
    calls = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k),
                               min_size=1, max_size=6), label="calls")
    requested = set()
    for bases in calls:  # any order, repeats within and across calls
        got = table.rows(bases)
        assert got.shape == (len(bases), k, 3)
        assert np.array_equal(got, expect[bases])
        for row, b in enumerate(bases):
            assert np.all(got[row, b] == 0.0)  # exact zero transform on the diagonal
        requested.update(bases)
        assert int(table._built.sum()) == len(requested)  # nothing built unasked
    assert np.array_equal(table_coords(table), expect)
