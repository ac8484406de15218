"""Geometric hashing: per-basis frames, thresholds and candidate collection."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aligner_oracle import (
    EagerGeometricTable,
    circular_diff,
    collect_candidates,
    dense_match_margins_many,
    densify,
    match_margins,
    rigid_transform,
    rows,
    table_coords,
    table_of,
    table_row,
    xyt,
)
from fuzzyvault.aligner import (_CELL_PAD, GeometricTable, MatchParams, build_geometric_table,
                                match_margins_many)
from fuzzyvault.evaluation import BUILTIN_CONFIGS, synth_template
from fuzzyvault.minutiae import Minutia, decode_minutiae, fold_angle, select_minutiae
from fuzzyvault.vault import VaultPoint, encode_vault


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
    one_table = table_of([Minutia(5, 5, 10.0)])
    assert len(one_table) == 1
    one = table_coords(one_table)
    assert one.shape == (1, 1, 3)
    assert tuple(one[0, 0]) == (0.0, 0.0, 0.0)

    ms = [Minutia(i * 20, i * 10, (i * 30) % 360.0) for i in range(7)]
    coords = table_coords(table_of(ms))
    assert coords.shape == (7, 7, 3)
    for i in range(7):
        assert tuple(coords[i, i]) == (0.0, 0.0, 0.0)  # exact zero diagonal


def test_table_rows_agree_with_rigid_transform():
    rng = random.Random(22)
    ms = [Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360)) for _ in range(9)]
    table = table_of(ms)
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
    a = table_coords(table_of(ms))
    b = table_coords(table_of(moved))
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
    with pytest.raises(ValueError, match="x_thres must be finite"):
        MatchParams(math.inf, 12, 12, 15)
    with pytest.raises(ValueError, match="y_thres must be finite"):
        MatchParams(12, math.inf, 12, 15)
    MatchParams(12, 12, 12, 360)  # basis gate may be disabled entirely
    MatchParams(4096, 1e6, 12, 15)  # large finite thresholds stay allowed


def test_collect_candidates_self_match_is_complete():
    rng = random.Random(24)
    ms = [Minutia(rng.randrange(400), rng.randrange(560), rng.uniform(0, 360))
          for _ in range(15)]
    table = table_of(ms)
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
    vt = table_of(vault_ms)
    pt = table_of(probe_ms)
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
    vt = table_of(vault_ms)
    ptab = table_of(probe_ms)
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
    vt = table_of(vault_ms)
    ptab = table_of(probe_ms)
    params = MatchParams(12, 12, 12, 360)
    many = densify(match_margins_many(vt, ptab, 2, [0, 3, 7], params), 3, len(vt))
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
    """Random pair lists over several probe bases, repeats and the empty list:
    the same matches, == margins, one per (pair, point), in (pair, margin,
    point) order."""
    probe_ms = vault_ms[:30] if probe is None else probe  # None: identical minutiae
    vt = table_of(vault_ms)
    ptab = table_of(probe_ms)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(probe_ms) - 1),
                                         st.integers(0, len(vault_ms) - 1)), max_size=40),
                      label="pairs")
    if pairs and data.draw(st.booleans(), label="repeat a pair"):
        pairs.insert(data.draw(st.integers(0, len(pairs))), data.draw(st.sampled_from(pairs)))
    probe_bases = [pb for pb, _ in pairs]
    vault_bases = [vb for _, vb in pairs]
    pair, point, margin = match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    want = dense_match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    assert np.array_equal(pair, want[0])
    assert np.array_equal(point, want[1])
    assert np.array_equal(margin, want[2])  # ==, so -0.0 and 0.0 agree
    assert np.all(margin <= 0.0)
    order = np.lexsort((point, margin, pair))
    assert np.array_equal(order, np.arange(len(pair)))
    assert len(set(zip(pair.tolist(), point.tolist()))) == len(pair)


_box_thres = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 12.0, 15.0, 2048.0, 4096.0, 1e6]),
                       st.floats(0.0, 3000.0))
# past 119 fewer than three theta cells fit, so the grid has one
_wide_theta_thres = st.one_of(st.sampled_from([0.0, 12.0, 118.0, 119.0, 119.5, 150.0, 179.9]),
                              st.floats(0.0, 180.0, exclude_max=True))


def _image_point(base, probe_point):
    """A probe-frame point mapped into the vault image through a vault basis."""
    bx, by, bt = base
    px, py, pt = probe_point
    c, s = math.cos(math.radians(bt)), math.sin(math.radians(bt))
    return bx + c * px - s * py, by + s * px + c * py, (bt + pt) % 360.0


def _near(data, q, theta_b, params, width):
    """A vault minutia around the image point q where the grid could go
    wrong: at the threshold box's corners in the basis frame (the hypot
    radius) or just inside them, one padded radius away on an image axis;
    in theta at or past the threshold, on a cell boundary, across the wrap."""
    qx, qy, qt = q
    xt, yt, tt = params.x_thres, params.y_thres, params.theta_thres
    sx, sy = data.draw(st.sampled_from([-1.0, 1.0])), data.draw(st.sampled_from([-1.0, 1.0]))
    kind = data.draw(st.sampled_from(["corner", "radius", "same", "any"]))
    if kind == "corner":
        c, s = math.cos(math.radians(theta_b)), math.sin(math.radians(theta_b))
        f = data.draw(st.sampled_from([1.0, 1.0 - 1e-9]))
        x, y = qx + f * (c * sx * xt - s * sy * yt), qy + f * (s * sx * xt + c * sy * yt)
    elif kind == "radius":
        r = math.hypot(xt, yt) + _CELL_PAD
        x, y = data.draw(st.sampled_from([(qx + sx * r, qy), (qx, qy + sy * r)]))
    elif kind == "same":
        x, y = qx, qy
    else:
        x, y = data.draw(st.floats(0.0, 2047.0)), data.draw(st.floats(0.0, 2047.0))
    turn = data.draw(st.sampled_from(["same", "thres", "pad", "cell", "wrap", "any"]))
    if turn == "thres":
        t = qt + sx * tt
    elif turn == "pad":
        t = qt + sx * (tt + _CELL_PAD)
    elif turn == "cell":
        t = (math.floor(qt / width) + data.draw(st.integers(0, 1))) * width
    elif turn == "wrap":
        t = data.draw(st.sampled_from([0.0, 360.0 - 1e-9]))
    elif turn == "any":
        t = data.draw(_angles)
    else:
        t = qt
    return x, y, fold_angle(t)


def _on_cell_edges(data, q, edge):
    """x and y on the cell boundaries below or above q, or q one cell edge away."""
    qx, qy, _ = q
    if data.draw(st.booleans()):
        s = data.draw(st.sampled_from([-1.0, 1.0]))
        return data.draw(st.sampled_from([(qx + s * edge, qy), (qx, qy + s * edge)]))
    return ((math.floor(qx / edge) + data.draw(st.integers(0, 1))) * edge,
            (math.floor(qy / edge) + data.draw(st.integers(0, 1))) * edge)


@settings(max_examples=300, deadline=None)
@given(
    params=st.builds(MatchParams, _box_thres, _box_thres, _wide_theta_thres, st.just(360.0)),
    span=st.one_of(st.integers(0, 2047), st.integers(0, 300)),  # small: the radius sets the edge
    data=st.data(),
)
def test_vault_grid_boundaries_agree_with_dense_oracle(params, span, data):
    """Vault minutiae placed around the probe's points mapped into the vault
    image, on 11-bit coordinates well outside a 400x560 image, and as
    duplicates."""
    lo = data.draw(st.integers(0, 2047 - span), label="lo")
    coord = st.integers(lo, lo + span)
    bases = data.draw(st.lists(st.tuples(coord, coord, _angles), min_size=1, max_size=4),
                      label="bases")
    probe = data.draw(st.lists(st.tuples(coord, coord, _angles), min_size=1, max_size=20),
                      label="probe")
    ptab = build_geometric_table(probe)
    probe_basis = data.draw(st.integers(0, len(probe) - 1), label="probe_basis")
    P = rows(ptab, [probe_basis])[0]
    width = build_geometric_table(bases).grid(params).width

    def image_point():
        base = data.draw(st.sampled_from(bases))
        return base, _image_point(base, P[data.draw(st.integers(0, len(P) - 1))])

    vault = list(bases)
    for _ in range(data.draw(st.integers(1, 30), label="placed")):
        if data.draw(st.booleans()):
            vault.append(data.draw(st.sampled_from(vault)))  # a duplicate minutia
            continue
        base, q = image_point()
        x, y, t = _near(data, q, base[2], params, width)
        vault.append((min(max(x, 0.0), 2047.0), min(max(y, 0.0), 2047.0), t))
    # x/y cell boundaries depend on the span: place points on them inside it
    grid = build_geometric_table(vault).grid(params)
    (x_lo, y_lo, _), (x_hi, y_hi, _) = np.min(vault, axis=0), np.max(vault, axis=0)
    for _ in range(data.draw(st.integers(0, 10), label="on edges")):
        base, q = image_point()
        x, y = _on_cell_edges(data, q, grid.edge)
        _, _, t = _near(data, q, base[2], params, width)
        vault.append((min(max(x, x_lo), x_hi), min(max(y, y_lo), y_hi), t))
    vt = build_geometric_table(vault)
    assert vt.grid(params).edge == grid.edge  # so the boundaries above are the grid's
    vault_bases = list(range(len(vault)))
    got = match_margins_many(vt, ptab, probe_basis, vault_bases, params)
    want = dense_match_margins_many(vt, ptab, probe_basis, vault_bases, params)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(_minutiae, min_size=1, max_size=60), data=st.data())
def test_frames_agree_with_eager_oracle(ms, data):
    k = len(ms)
    table = table_of(ms)
    expect = EagerGeometricTable(xyt(ms)).coords  # [basis, point, x/y/theta]
    frames = table.frames()
    assert table.frames() is frames  # built once
    for axis, frame in enumerate(frames):
        assert frame.shape == (k, k) and frame.flags.c_contiguous  # the kernel ravels them
        assert np.array_equal(frame, expect[..., axis].T)  # [point, basis]
        assert np.all(np.diagonal(frame) == 0.0)  # exact zero transform on the diagonal
    bases = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k), label="bases")
    assert np.array_equal(rows(table, bases), expect[bases])  # any order, repeats


def test_kernel_agrees_with_dense_oracle_at_the_benchmark_shape():
    """An fvc-1 vault, a 30-minutia impostor probe and one 256-pair call
    across several probe bases, as a reject sweep makes them."""
    cfg = BUILTIN_CONFIGS["fvc-1"]
    params = cfg.match_params()
    vault, _ = encode_vault(synth_template(31, 60), cfg.vault_params(), random.Random(32))
    vt = build_geometric_table(decode_minutiae([pt.X for pt in vault.points]))
    probe = select_minutiae(synth_template(33, 60), 30, cfg.points_distance)
    ptab = table_of(probe)
    d = np.abs(ptab.thetas[:, None] - vt.thetas[None, :]) % 360.0
    probe_bases, vault_bases = np.nonzero(np.minimum(d, 360.0 - d) <= params.theta_basis_thres)
    probe_bases, vault_bases = probe_bases[:256], vault_bases[:256]
    assert len(vault_bases) == 256 and len(np.unique(probe_bases)) > 3
    got = match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    want = dense_match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    assert len(got[0]) > 0
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_kernel_agrees_with_dense_oracle_on_a_grid_past_65536_cells():
    """Zero thresholds over a 2,047-px span: a 32-px cell edge and 64 theta cells."""
    rng = random.Random(34)
    vault_ms = [(rng.randrange(2048), rng.randrange(2048), rng.randrange(1024) * 360.0 / 1024)
                for _ in range(300)]
    vault_ms += [(0, 0, 0.0), (2047, 2047, 359.6484375)]
    params = MatchParams(0.0, 0.0, 0.0, 360.0)
    vt = build_geometric_table(vault_ms)
    grid = vt.grid(params)
    assert grid.nx * grid.ny * grid.nt > 2**16
    ptab = build_geometric_table(vault_ms[-30:])  # the same minutiae: exact matches
    probe_bases = [p for p in range(30) for _ in range(4)]
    vault_bases = [272 + p if i == 0 else rng.randrange(302) for p in range(30) for i in range(4)]
    got = match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    want = dense_match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    assert len(got[0]) >= 30 * 30
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("theta_thres", [12.0, 150.0])  # 27 theta cells, and one
def test_kernel_agrees_with_dense_oracle_at_the_grid_edges(theta_thres):
    """Vault minutiae on the lowest and highest occupied y rows and in the
    first and last x and theta columns; probe minutiae mapped into the image
    on, just past and far past every edge of the grid."""
    params = MatchParams(12.0, 12.0, theta_thres, 360.0)
    vault = [(x, y, t) for x in (100.0, 400.0) for y in (100.0, 400.0) for t in (0.0, 360.0 - 1e-9)]
    vault += [(250.0, 250.0, 180.0), (100.0, 250.0, 90.0), (250.0, 400.0, 270.0)]
    vt = build_geometric_table(vault)
    grid = vt.grid(params)
    cx, cy, ct = grid.u.astype(int), grid.v.astype(int), grid.wrap[grid.w.astype(int)]
    assert (cx.min(), cx.max(), cy.min(), cy.max()) == (1, grid.nx - 3, 1, grid.ny - 3)
    assert (ct.min(), ct.max(), grid.nt == 1) == (0, grid.nt - 1, theta_thres > 119)
    # probe minutia i < len(vault) is vault minutia i, so pair (i, i) maps every
    # probe minutia into the image at its own coordinates
    steps = [s * d for s in (-1.0, 1.0) for d in (0.0, 0.5, grid.edge - 0.5, grid.edge,
                                                   grid.edge + 0.5, 2 * grid.edge, 1e4)]
    probe = vault + [(x + dx, y + dy, t) for x, y, t in vault[:8]
                     for dx, dy in [(d, 0.0) for d in steps] + [(0.0, d) for d in steps] + [(d, d) for d in steps]]
    ptab = build_geometric_table(probe)
    pairs = [(i, i) for i in range(len(vault))]
    pairs += [(p, v) for p in range(0, len(probe), 7) for v in range(len(vault))]
    probe_bases, vault_bases = zip(*pairs)
    got = match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    want = dense_match_margins_many(vt, ptab, probe_bases, vault_bases, params)
    assert len(got[0]) > len(vault)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_vault_grid_build_peak_memory():
    """An fvc-1 vault's grid sorts 16-bit keys and keeps one int32 run offset
    per cell (24,570 cells): its build peaks near 220 KB, where int64 counts
    and offsets per cell took ~560 KB."""
    cfg = BUILTIN_CONFIGS["fvc-1"]
    vault, _ = encode_vault(synth_template(35, 60), cfg.vault_params(), random.Random(36))
    points = decode_minutiae([pt.X for pt in vault.points])
    build_geometric_table(points).grid(cfg.match_params())
    vt = build_geometric_table(points)
    tracemalloc.start()
    try:
        grid = vt.grid(cfg.match_params())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.nx * grid.ny * grid.nt > 20_000
    assert peak < 350_000


@pytest.mark.parametrize("theta", [360.0, -1.0, -1e-20, math.nan])
def test_table_refuses_theta_outside_the_circle(theta):
    with pytest.raises(ValueError, match="theta"):
        GeometricTable([(10.0, 10.0, 0.0), (20.0, 20.0, theta)])


def test_build_geometric_table_refuses_theta_outside_the_circle():
    # the decoder's name for a table folds nothing: its angles are in [0, 360) already
    for theta in (360.0, -1e-20, -1.0, 725.0):
        with pytest.raises(ValueError, match="theta"):
            build_geometric_table([(1, 1, 0.0), (2, 2, theta)])
