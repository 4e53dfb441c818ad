"""Lattice construction, boundary extraction, and field sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfields.errors import (DisconnectedFreeSpace, MalformedGrid,
                               OpenWorkspace, OutOfDomain)
from riskfields.grid import (FREE, NB4, OCCUPIED, FieldSampler, OccupancyGrid,
                             ScalarField, VectorField, _box_blur, _cell,
                             _dilate8, _interp, _label, _label_free, dump_csv,
                             extract_boundary, fill_band, gradient_field,
                             nearest_node_map, sample_gradient, sample_scalar,
                             sample_vector)
from riskfields.safety import GuidanceFieldBundle, SafetyFunction


def box_state(nx, ny):
    """All free except the occupied perimeter."""
    s = np.full((nx, ny), OCCUPIED, dtype=np.int8)
    s[1:-1, 1:-1] = FREE
    return s


def box_grid(nx=12, ny=10, d=0.5, origin=(0.0, 0.0), **kw):
    return OccupancyGrid(box_state(nx, ny), d, origin=origin, **kw)


# -- construction -------------------------------------------------------------

def test_state_must_be_2d():
    with pytest.raises(MalformedGrid):
        OccupancyGrid(np.zeros(9, dtype=int), 0.1)


def test_minimum_lattice_size():
    with pytest.raises(MalformedGrid):
        OccupancyGrid(np.full((2, 5), OCCUPIED), 0.1)


def test_cell_size_positive():
    for d in (0.0, -0.5):
        with pytest.raises(MalformedGrid):
            OccupancyGrid(box_state(6, 6), d)


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
def test_cell_size_finite(d):
    with pytest.raises(MalformedGrid, match="positive and finite"):
        OccupancyGrid(box_state(6, 6), d)


@pytest.mark.parametrize("origin", [(math.nan, 0.0), (0.0, math.inf),
                                    (-math.inf, 1.0), (0.0,),
                                    (0.0, 0.0, 0.0)])
def test_origin_must_be_a_finite_point(origin):
    with pytest.raises(MalformedGrid, match="origin"):
        OccupancyGrid(box_state(6, 6), 0.1, origin=origin)


def test_state_values_restricted():
    s = box_state(6, 6)
    s[3, 3] = 7
    with pytest.raises(MalformedGrid):
        OccupancyGrid(s, 0.1)
    for bad in (0.5, math.nan):
        f = box_state(6, 6).astype(float)
        f[3, 3] = bad
        with pytest.raises(MalformedGrid, match="FREE or OCCUPIED"):
            OccupancyGrid(f, 0.1)


def test_open_perimeter_rejected():
    s = box_state(8, 8)
    s[0, 4] = FREE
    with pytest.raises(OpenWorkspace):
        OccupancyGrid(s, 0.1)


def test_split_free_space_rejected():
    s = box_state(9, 9)
    s[4, :] = OCCUPIED  # wall splits the interior in two
    with pytest.raises(DisconnectedFreeSpace):
        OccupancyGrid(s, 0.1)


def test_no_free_cells_rejected():
    with pytest.raises(DisconnectedFreeSpace):
        OccupancyGrid(np.full((5, 5), OCCUPIED), 0.1)


def test_prob_channel_validation():
    with pytest.raises(MalformedGrid):
        box_grid(6, 6, prob=np.zeros((3, 3)))
    bad = np.zeros((6, 6))
    bad[2, 2] = 1.5
    with pytest.raises(MalformedGrid):
        box_grid(6, 6, prob=bad)


def test_label_channel_shape():
    with pytest.raises(MalformedGrid):
        box_grid(6, 6, label=np.zeros((6, 5), dtype=int))


def test_vel_channel_shape():
    with pytest.raises(MalformedGrid):
        box_grid(6, 6, vel=np.zeros((6, 6)))
    g = box_grid(6, 6, vel=np.zeros((6, 6, 2)))
    assert g.vel.shape == (6, 6, 2)


def test_arrays_frozen():
    g = box_grid()
    with pytest.raises(ValueError):
        g.state[2, 2] = OCCUPIED
    with pytest.raises(ValueError):
        g.free[2, 2] = False


# -- geometry helpers ---------------------------------------------------------

def test_free_cells_and_centers():
    g = box_grid(7, 5)
    ii, jj = np.nonzero(g.free)
    assert len(ii) == 5 * 3
    cents = g.free_centers()
    assert cents.shape == (15, 2)
    assert np.allclose(cents[0], g.cell_center(ii[0], jj[0]))
    g = box_grid(d=0.25, origin=(-1.0, 2.0))
    assert np.allclose(g.cell_center(3, 4), [-1.0 + 0.75, 2.0 + 1.0])


def test_same_geometry():
    a = box_grid(8, 8, d=0.1)
    assert a.same_geometry(box_grid(8, 8, d=0.1))
    assert not a.same_geometry(box_grid(8, 8, d=0.2))
    assert not a.same_geometry(box_grid(8, 9, d=0.1))


def test_bands_partition_near_interface():
    s = box_state(12, 12)
    s[5:7, 5:7] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    assert not (g.band1 & g.free).any()
    assert not (g.band2 & g.free).any()
    assert not (g.band1 & g.band2).any()
    # every occupied 4-neighbor of a free cell sits in the first band
    for i, j in zip(*np.nonzero(g.free)):
        for di, dj in NB4:
            if not g.free[i + di, j + dj]:
                assert g.band1[i + di, j + dj]


# -- numpy image helpers, pinned to scipy.ndimage -----------------------------

def _snake(nx, ny):
    """A one-cell corridor winding through every other row."""
    m = np.zeros((nx, ny), dtype=bool)
    m[1:-1:2, 1:-1] = True
    for k, i in enumerate(range(2, nx - 2, 2)):
        m[i, ny - 2 if k % 2 == 0 else 1] = True
    return m


def _fuzz_masks(seed, count):
    """Seeded masks 3-130 cells a side: random densities, one-cell
    corridors, checkerboards, diagonal stripes, and boxes whose interior is
    all occupied or all free."""
    rng = np.random.default_rng(seed)
    masks = [np.zeros((3, 3), dtype=bool), np.ones((3, 130), dtype=bool),
             _snake(130, 97), _snake(4, 3), box_state(130, 130) == OCCUPIED]
    for k in range(count):
        nx, ny = (int(v) for v in rng.integers(3, 131, size=2))
        ii, jj = np.indices((nx, ny))
        kind = k % 6
        if kind == 0:
            m = rng.random((nx, ny)) < rng.uniform(0.05, 0.95)
        elif kind == 1:
            m = (ii + jj + k) % 2 == 0
        elif kind == 2:
            m = (ii + rng.choice([-1, 1]) * jj) % int(rng.integers(2, 6)) == 0
        elif kind == 3:
            m = np.ones((nx, ny), dtype=bool)
            m[rng.integers(0, nx, size=3)] = False
            m[:, rng.integers(0, ny, size=3)] = False
        elif kind == 4:
            m = _snake(nx, ny)
        else:
            m = box_state(nx, ny) == FREE
        masks.append(m)
    return masks


_FUZZ = _fuzz_masks(2024, 180)
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def test_label_matches_ndimage_label():
    from scipy import ndimage

    for m in _FUZZ:
        for diag, structure in ((False, _CROSS), (True, np.ones((3, 3)))):
            for mask in (m, ~m):
                want, n = ndimage.label(mask, structure=structure)
                got, count = _label(mask, diag)
                assert count == n
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        assert _label_free(m) == (int(m.sum()), ndimage.label(m)[1])


def test_dilate8_matches_binary_dilation():
    from scipy import ndimage

    for m in _FUZZ:
        for mask in (m, ~m):
            assert np.array_equal(
                _dilate8(mask),
                ndimage.binary_dilation(mask, structure=np.ones((3, 3))))


def test_box_blur_matches_uniform_filter_bit_for_bit():
    from scipy import ndimage

    rng = np.random.default_rng(5)
    for m in _FUZZ:
        for x in (m.astype(float), rng.standard_normal(m.shape)):
            want = x
            got = x
            for _ in range(2):
                want = ndimage.uniform_filter(want, size=3, mode="nearest")
                got = _box_blur(got)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# -- boundary extraction ------------------------------------------------------

def test_boundary_nodes_complete_and_free():
    s = box_state(14, 11)
    s[4:7, 3:6] = OCCUPIED
    g = OccupancyGrid(s, 0.2)
    b = extract_boundary(g)
    want = set()
    for i, j in zip(*np.nonzero(g.free)):
        if any(not g.free[i + di, j + dj] for di, dj in NB4):
            want.add((i, j))
    got = {tuple(c) for c in b.cells}
    assert got == want
    assert all(g.free[i, j] for i, j in b.cells)


def test_arc_weights_count_interface_faces():
    s = box_state(10, 10)
    s[4, 4] = OCCUPIED
    g = OccupancyGrid(s, 0.3)
    b = extract_boundary(g)
    for k, (i, j) in enumerate(b.cells):
        cnt = sum(1 for di, dj in NB4 if not g.free[i + di, j + dj])
        assert b.arcw[k] == pytest.approx(0.3 * cnt)
    # the lone block contributes 4 faces, one per side
    inner = [k for k, c in enumerate(b.cells)
             if 1 < c[0] < 8 and 1 < c[1] < 8]
    assert sum(b.arcw[k] for k in inner) == pytest.approx(4 * 0.3)


def test_components_split_wall_and_obstacle():
    s = box_state(16, 16)
    s[7:9, 7:9] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    b = extract_boundary(g)
    assert len(b.components()) == 2
    sizes = sorted(int((b.comp == c).sum()) for c in b.components())
    assert sizes[0] == 8  # ring of free cells around the 2x2 block


def test_chain_is_closed_adjacent_permutation():
    s = box_state(20, 20)
    s[8:12, 8:12] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    b = extract_boundary(g)
    for cid in b.components():
        chain = b.chains[cid]
        assert chain is not None
        assert sorted(chain) == np.nonzero(b.comp == cid)[0].tolist()
        cells = b.cells[chain]
        step = np.abs(np.diff(np.vstack([cells, cells[:1]]), axis=0))
        assert step.max() <= 1  # consecutive interface cells stay 8-adjacent


def test_normals_unit_and_outward_on_disk(disk_build):
    _, res = disk_build
    b = res.boundary
    assert np.allclose(np.hypot(b.normals[:, 0], b.normals[:, 1]), 1.0)
    radial = b.pos / np.linalg.norm(b.pos, axis=1, keepdims=True)
    ang = np.degrees(np.arccos(np.clip((b.normals * radial).sum(axis=1),
                                       -1.0, 1.0)))
    assert np.median(ang) < 4.0
    assert ang.max() < 12.0  # staircase corners; measured 10.6 on this map


def test_with_flux_validation():
    g = box_grid(8, 8)
    b = extract_boundary(g)
    with pytest.raises(MalformedGrid):
        b.with_flux(np.ones(b.n - 1))
    with pytest.raises(MalformedGrid):
        b.with_flux(np.zeros(b.n))
    b2 = b.with_flux(np.full(b.n, 2.0))
    assert b.flux is None
    assert np.all(b2.flux == 2.0)
    assert np.array_equal(b2.cells, b.cells)


def test_nearest_node_map_covers_band():
    s = box_state(12, 12)
    s[5:7, 5:7] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    b = extract_boundary(g)
    nn = nearest_node_map(g, b)
    for i, j in zip(*np.nonzero(g.band1)):
        k = nn[(i, j)]
        assert np.abs(b.cells[k] - (i, j)).max() <= 3


# -- fields and sampling ------------------------------------------------------

def affine_field(g, a, bx, by):
    x = g.centers_x()[:, None]
    y = g.centers_y()[None, :]
    return ScalarField(g, a + bx * x + by * y)


def test_scalar_field_shape_and_mask_checks():
    g = box_grid(8, 8)
    with pytest.raises(MalformedGrid):
        ScalarField(g, np.zeros((8, 7)))
    vals = np.zeros((8, 8))
    vals[4, 4] = np.nan
    with pytest.raises(MalformedGrid):
        ScalarField(g, vals)
    vals[4, 4] = 0.0
    vals[0, 0] = np.nan  # occupied corner may hold anything
    ScalarField(g, vals)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-5, 5), bx=st.floats(-3, 3), by=st.floats(-3, 3),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_bilinear_reproduces_affine(a, bx, by, u, v):
    g = box_grid(9, 7, d=0.4, origin=(1.0, -2.0))
    f = affine_field(g, a, bx, by)
    lo = g.cell_center(0, 0)
    hi = g.cell_center(g.nx - 1, g.ny - 1)
    p = lo + np.array([u, v]) * 0.999 * (hi - lo)  # hull is half-open on top
    want = a + bx * p[0] + by * p[1]
    assert sample_scalar(f, p) == pytest.approx(want, abs=1e-10)


def test_sampling_outside_hull_raises():
    g = box_grid(8, 8, d=0.5)
    f = affine_field(g, 1.0, 0.0, 0.0)
    with pytest.raises(OutOfDomain):
        sample_scalar(f, (-0.5, 1.0))
    with pytest.raises(OutOfDomain):
        sample_scalar(f, (1.0, 10.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampling_a_non_finite_point_raises_out_of_domain(bad):
    # math.floor raises ValueError on NaN and OverflowError on +-inf; the
    # one-point sampler maps both, the batch sampler's hull test rejects them
    g = box_grid(8, 8, d=0.5)
    f = affine_field(g, 1.0, 0.0, 0.0)
    for p in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(OutOfDomain):
            sample_scalar(f, p)
        with pytest.raises(OutOfDomain):
            sample_gradient(f, np.array([[1.0, 1.0], p]))


def test_sampling_deep_inside_obstacle_raises():
    s = box_state(16, 16)
    s[5:11, 5:11] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    vals = fill_band(g, np.where(g.free, 1.0, 0.0))
    f = ScalarField(g, vals)
    with pytest.raises(OutOfDomain):
        sample_scalar(f, g.cell_center(8, 8))  # NaN core of the block
    # near the interface the ghost band keeps sampling legal
    assert sample_scalar(f, g.cell_center(5, 4)) <= 1.0


def _read(fn, *args):
    """fn(*args) as a tuple, or the message of the OutOfDomain it raises."""
    try:
        return tuple(fn(*args))
    except OutOfDomain as e:
        return str(e)


def _shape(reads):
    """Each read's message, or the positions of its floats and Nones."""
    return [r if isinstance(r, str) else tuple(x is None for x in r)
            for r in reads]


def _bits(reads):
    """The floats of every read that returned, as int64 bit patterns."""
    return np.array([x for r in reads if not isinstance(r, str) for x in r
                     if x is not None], dtype=float).view(np.int64)


def test_field_sampler_matches_one_channel_samplers(semantic_build):
    # one lookup for every channel against sample_scalar, sample_vector and
    # sample_gradient one field at a time: the same bits, and the same
    # OutOfDomain message where a channel it returns is NaN
    _, b = semantic_build
    g, sf, gf = b.grid, b.sf, b.gf
    bi, bj = np.nonzero(g.band1 | g.band2)
    rng = np.random.default_rng(3)
    dt_values = fill_band(g, rng.uniform(-1.0, 1.0, (g.nx, g.ny)))
    dt_values[bi[::5], bj[::5]] = np.nan   # dh/dt alone is NaN there
    dh = ScalarField(g, dt_values)
    d = g.d
    centres = g.free_centers()
    band = np.stack([g.centers_x()[bi], g.centers_y()[bj]], axis=1)
    di, dj = np.nonzero(~g.free & ~g.band1 & ~g.band2)
    pts = np.concatenate([
        centres, centres + [0.37 * d, 0.61 * d], band,
        band + [0.5 * d, 0.25 * d], band - [0.3 * d, 0.8 * d],
        [g.cell_center(di[len(di) // 2], dj[len(dj) // 2]),
         [-0.2 * d, 1.0], g.cell_center(g.nx - 1, 10) + [0.1 * d, 0.0],
         [np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.5]]])
    # the in-place array reads (snapshot=False) at every 8th point; grad=False
    # leaves out grad h and dh/dt
    samplers = [(FieldSampler(sf, gf, field, snapshot=snap, grad=flag), field,
                 flag, 1 if snap else 8)
                for snap in (True, False) for field in (None, dh)
                for flag in (False, True)]
    got, want = [], []
    for i, p in enumerate(pts.tolist()):
        h = _read(lambda q: [sample_scalar(sf.h, q)], p)
        v = _read(sample_vector, gf.v, p)
        grad = _read(sample_gradient, sf.h, p)
        dt = _read(lambda q: [sample_scalar(dh, q)], p)
        for fs, field, flag, every in samplers:
            if i % every:
                continue
            reads = [h, v] if not flag else [
                h, v, grad, (None,) if field is None else dt]
            msg = [r for r in reads if isinstance(r, str)]
            want.append(msg[0] if msg else sum(reads, ()))
            got.append(_read(fs.at, *p))
    assert _shape(got) == _shape(want)
    assert np.array_equal(_bits(got), _bits(want))
    assert {w.split(") ")[-1] for w in want if isinstance(w, str)} == {
        "outside the lattice hull", "is not finite",
        "deeper than one cell into occupied space"}


def test_field_sampler_hull_check_gives_cells_outcome():
    # at's inline hull test 0 <= gx < nx - 1 against _cell's floor, on each
    # axis: on the last line of centres, at -0.0 and just below 0, and at
    # NaN and +-inf, at raises _cell's error (type and message), or neither
    # raises and at gives _interp's bits
    g = box_grid(12, 10, d=0.25)
    x, y = g.centers_x()[:, None], g.centers_y()[None, :]
    h = ScalarField(g, 1.0 + 0.5 * x - 0.3 * y * y)
    sf = SafetyFunction(h)
    v = VectorField(ScalarField(g, np.sin(x + y)), ScalarField(g, x * y))
    dh = ScalarField(g, np.cos(x - y))
    gf = GuidanceFieldBundle(v)
    channels = [h.values, v.x.values, v.y.values, sf.grad.x.values,
                sf.grad.y.values, dh.values]
    mid = 0.5 * g.d * np.array([g.nx, g.ny])
    got, want = [], []
    for axis in (0, 1):
        for c in (g.nx - 1 if axis == 0 else g.ny - 1, -0.0, -1e-17,
                  math.nan, math.inf, -math.inf):
            p = mid.tolist()
            p[axis] = g.d * c               # the origin is (0, 0)
            gc = (p[axis] - g.origin_xy[axis]) / g.d
            assert gc.hex() == float(c).hex() or c != c
            try:
                _cell(g, *p)
                ref = tuple(x.hex() for x in _interp(channels, g, *p))
            except OutOfDomain as e:
                ref = (type(e), str(e))
            want.append(ref)
            for snap in (True, False):
                fs = FieldSampler(sf, gf, dh, snapshot=snap)
                try:
                    out = tuple(float(x).hex() for x in fs.at(*p))
                except OutOfDomain as e:
                    out = (type(e), str(e))
                got.append((out, ref))
    assert all(out == ref for out, ref in got), got
    kinds = [r[1].split(") ")[-1] if isinstance(r[0], type) else "value"
             for r in want]
    assert kinds == 2 * ["outside the lattice hull", "value",
                         "outside the lattice hull", "is not finite",
                         "is not finite", "is not finite"]


def test_gradient_field_exact_on_affine():
    g = box_grid(10, 9, d=0.25)
    f = affine_field(g, 0.5, 1.75, -0.6)
    grad = gradient_field(f)
    assert np.allclose(grad.x.values[g.free], 1.75)
    assert np.allclose(grad.y.values[g.free], -0.6)
    p = (g.cell_center(3, 3) + g.cell_center(4, 4)) / 2
    assert np.allclose(sample_gradient(f, p), [1.75, -0.6])
    assert np.allclose(sample_vector(grad, p), [1.75, -0.6])


def test_gradient_band_copies_nearest_free():
    s = box_state(12, 12)
    s[5:7, 5:7] = OCCUPIED
    g = OccupancyGrid(s, 0.2)
    vals = fill_band(g, 2.0 + 0.3 * g.centers_x()[:, None]
                     + 0.0 * g.centers_y()[None, :])
    f = ScalarField(g, vals)
    grad = gradient_field(f)
    # ghost cells inherit a finite gradient from the free side
    band = g.band1 | g.band2
    assert np.isfinite(grad.x.values[band]).all()
    assert np.isfinite(grad.y.values[band]).all()


def test_fill_band_layout():
    s = box_state(16, 16)
    s[5:11, 5:11] = OCCUPIED
    g = OccupancyGrid(s, 0.1)
    out = fill_band(g, np.where(g.free, 3.0, 99.0), band_value=-1.0,
                    cells=(np.array([5, 10]), np.array([5, 6])),
                    cell_values=np.array([7.0, 8.0]))
    assert np.all(out[g.free] == 3.0)
    assert out[5, 5] == 7.0 and out[10, 6] == 8.0
    band = g.band1 | g.band2
    band_rest = band.copy()
    band_rest[5, 5] = band_rest[10, 6] = False
    assert np.all(out[band_rest] == -1.0)
    deep = ~g.free & ~band
    assert np.isnan(out[deep]).all()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((6, 9))
    arr[0, 0] = np.pi
    path = tmp_path / "field.csv"
    dump_csv(arr, path)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)  # %.17g keeps doubles exact

