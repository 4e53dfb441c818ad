"""Vectorized solver and ghost-band code against straightforward references.

The red-black sweep runs on strided sub-lattices and the nearest-cell maps
are built offset by offset.  Both do the same arithmetic and make the same
tie-breaks as the boolean-mask sweep and the per-cell loops kept below, so
every comparison here is exact (NaN-aware), not within a tolerance.
"""

import math

import numpy as np
import pytest

from riskfields.elliptic import (GAUSS_SEIDEL, SOR, SolveStats, SolverConfig,
                                 _sweep_solve, _target)
from riskfields.errors import NonConvergence
from riskfields.grid import (FREE, OCCUPIED, BoundarySet, OccupancyGrid,
                             ScalarField, extract_boundary, fill_band,
                             gradient_field, nearest_node_map)

from test_elliptic import disk_grid
from test_grid import box_state


# -- references ---------------------------------------------------------------

def _rb_masks(unknown):
    inter = unknown[1:-1, 1:-1]
    a = np.arange(inter.shape[0])[:, None] + np.arange(inter.shape[1])[None, :]
    red = inter & (a % 2 == 0)
    black = inter & (a % 2 == 1)
    return red, black


def reference_sweep_solve(grid, unknown, fixed, rhs, cfg):
    """Red-black SOR / Gauss-Seidel through boolean-mask gathers."""
    n = max(grid.nx, grid.ny)
    omega = 1.0 if cfg.method == GAUSS_SEIDEL else cfg.resolved_omega(n)
    max_sweeps = cfg.resolved_max_iters(n)
    target = _target(cfg, grid)

    w = fixed.copy()
    w[unknown] = 0.0
    red, black = _rb_masks(unknown)
    both = red | black
    core = w[1:-1, 1:-1]
    rc = rhs[1:-1, 1:-1]

    res = math.inf
    it = 0
    check_every = 8
    while it < max_sweeps:
        for m in (red, black):
            nb = w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2]
            core[m] = (1.0 - omega) * core[m] + (omega * 0.25) * (nb[m] - rc[m])
        it += 1
        if it % check_every == 0 or it == max_sweeps:
            nb = w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2]
            gap = np.abs(0.25 * (nb - rc) - core)
            res = float(gap[both].max()) if both.any() else 0.0
            if res <= target:
                break
    stats = SolveStats(cfg.method, it, res, target, int(unknown.sum()),
                       res <= target)
    if not stats.converged:
        raise NonConvergence(stats.to_text())
    return w, stats


def reference_nearest_node_map(grid, boundary):
    """Per-cell scan of the 7x7 window, keeping the first strict minimum."""
    out = {}
    cell_idx = boundary._index
    band = np.nonzero(grid.band1 | grid.band2)
    for i, j in zip(*band):
        best = None
        best_d2 = None
        for di in range(-3, 4):
            for dj in range(-3, 4):
                k = cell_idx.get((i + di, j + dj))
                if k is None:
                    continue
                d2 = di * di + dj * dj
                if best is None or d2 < best_d2:
                    best, best_d2 = k, d2
        if best is not None:
            out[(i, j)] = best
    return out


def reference_gradient(field):
    """Central differences, then a per-cell copy of the nearest free cell's
    gradient into the ghost bands.  Returns (gx, gy)."""
    grid = field.grid
    d = grid.d
    v = field.values
    fin = np.isfinite(v)
    gx = np.full_like(v, np.nan)
    gy = np.full_like(v, np.nan)

    c = fin[2:, :] & fin[:-2, :]
    tgt = np.zeros_like(v[1:-1, :])
    tgt[c] = (v[2:, :][c] - v[:-2, :][c]) / (2.0 * d)
    fwd = fin[1:-1, :] & fin[2:, :] & ~fin[:-2, :]
    tgt[fwd] = (v[2:, :][fwd] - v[1:-1, :][fwd]) / d
    bwd = fin[1:-1, :] & fin[:-2, :] & ~fin[2:, :]
    tgt[bwd] = (v[1:-1, :][bwd] - v[:-2, :][bwd]) / d
    gx[1:-1, :] = np.where(c | fwd | bwd, tgt, np.nan)

    c = fin[:, 2:] & fin[:, :-2]
    tgt = np.zeros_like(v[:, 1:-1])
    tgt[c] = (v[:, 2:][c] - v[:, :-2][c]) / (2.0 * d)
    fwd = fin[:, 1:-1] & fin[:, 2:] & ~fin[:, :-2]
    tgt[fwd] = (v[:, 2:][fwd] - v[:, 1:-1][fwd]) / d
    bwd = fin[:, 1:-1] & fin[:, :-2] & ~fin[:, 2:]
    tgt[bwd] = (v[:, 1:-1][bwd] - v[:, :-2][bwd]) / d
    gy[:, 1:-1] = np.where(c | fwd | bwd, tgt, np.nan)

    band = np.nonzero(grid.band1 | grid.band2)
    free = grid.free
    for i, j in zip(*band):
        best = None
        best_d2 = None
        for di in range(-2, 3):
            for dj in range(-2, 3):
                ii, jj = i + di, j + dj
                if 0 <= ii < grid.nx and 0 <= jj < grid.ny and free[ii, jj]:
                    d2 = di * di + dj * dj
                    if best is None or d2 < best_d2:
                        best, best_d2 = (ii, jj), d2
        if best is not None and np.isfinite(gx[best]) and np.isfinite(gy[best]):
            gx[i, j] = gx[best]
            gy[i, j] = gy[best]
    return gx, gy


# -- lattices -----------------------------------------------------------------

def _grid(nx, ny, block=True):
    s = box_state(nx, ny)
    if block:
        s[nx // 3:nx // 3 + 4, ny // 3:ny // 3 + 3] = OCCUPIED
    return OccupancyGrid(s, 0.1)


def _corridor(n, axis):
    s = np.full((3, n), OCCUPIED, dtype=np.int8)
    s[1, 1:-1] = FREE
    return OccupancyGrid(s if axis == 1 else s.T.copy(), 0.1)


def _single():
    s = np.full((3, 3), OCCUPIED, dtype=np.int8)
    s[1, 1] = FREE
    return OccupancyGrid(s, 0.5)


def _two_blocks():
    # blocks two cells apart, so ghost cells between and beside them see
    # several nodes at one distance
    s = box_state(18, 15)
    s[4:8, 4:7] = OCCUPIED
    s[10:13, 4:9] = OCCUPIED
    s[7, 10] = OCCUPIED
    return OccupancyGrid(s, 0.1)


GRIDS = {
    "even_even": lambda: _grid(24, 20),
    "odd_odd": lambda: _grid(25, 21),
    "even_odd": lambda: _grid(24, 21),
    "odd_even": lambda: _grid(25, 20),
    "disk": lambda: disk_grid(0.1)[0],
    "corridor_x": lambda: _corridor(12, 0),
    "corridor_y": lambda: _corridor(11, 1),
    "single_unknown": _single,
    "two_blocks": _two_blocks,
}

CONFIGS = {
    "sor_auto": SolverConfig(method=SOR, omega="auto", tol=1e-8),
    "sor_1.7": SolverConfig(method=SOR, omega=1.7, tol=1e-8),
    "gauss_seidel": SolverConfig(method=GAUSS_SEIDEL, tol=1e-8),
}


def _poisson_system(g):
    rhs = np.where(g.free, -4.0 * g.d * g.d, 0.0)
    return g.free, np.zeros((g.nx, g.ny)), rhs


def _laplace_system(g, b):
    fixed = np.zeros((g.nx, g.ny))
    rng = np.random.default_rng(3)
    ci, cj = b.cells[:, 0], b.cells[:, 1]
    fixed[ci, cj] = rng.uniform(-2.0, 3.0, b.n)
    pinned = np.zeros_like(g.free)
    pinned[ci, cj] = True
    return g.free & ~pinned, fixed, np.zeros_like(fixed)


def _same_solve(g, system, cfg):
    want_w, want_stats = reference_sweep_solve(g, *system, cfg)
    got_w, got_stats = _sweep_solve(g, *system, cfg)
    assert np.array_equal(got_w, want_w, equal_nan=True)
    assert got_stats == want_stats


# -- sweeps -------------------------------------------------------------------

@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("make", GRIDS.values(), ids=GRIDS.keys())
def test_strided_sweep_matches_mask_sweep_on_poisson(make, cfg):
    g = make()
    _same_solve(g, _poisson_system(g), cfg)


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("name", ["even_even", "odd_odd", "even_odd",
                                  "odd_even", "disk", "two_blocks"])
def test_strided_sweep_matches_mask_sweep_on_laplace(name, cfg):
    g = GRIDS[name]()
    _same_solve(g, _laplace_system(g, extract_boundary(g)), cfg)


def test_strided_sweep_matches_mask_sweep_when_not_converged():
    g = GRIDS["odd_even"]()
    cfg = SolverConfig(method=SOR, omega="auto", tol=1e-8, max_iters=5)
    with pytest.raises(NonConvergence) as want:
        reference_sweep_solve(g, *_poisson_system(g), cfg)
    with pytest.raises(NonConvergence) as got:
        _sweep_solve(g, *_poisson_system(g), cfg)
    assert str(got.value) == str(want.value)


# -- ghost-band maps ----------------------------------------------------------

def _has_tied_band_cell(g, b):
    band = g.band1 | g.band2
    for i, j in zip(*np.nonzero(band)):
        off = b.cells - (i, j)
        d2 = (off ** 2).sum(axis=1)[np.abs(off).max(axis=1) <= 3]
        if len(d2) > 1 and (d2 == d2.min()).sum() > 1:
            return True
    return False


@pytest.mark.parametrize("name", ["even_even", "odd_odd", "disk",
                                  "two_blocks"])
def test_nearest_node_map_matches_loop(name):
    g = GRIDS[name]()
    b = extract_boundary(g)
    assert _has_tied_band_cell(g, b)
    assert nearest_node_map(g, b) == reference_nearest_node_map(g, b)


def test_each_boundary_gets_its_own_node_map():
    g = GRIDS["two_blocks"]()
    b = extract_boundary(g)
    part = BoundarySet(g, b.cells[:22], b.normals[:22], b.arcw[:22],
                       b.comp[:22], None)
    whole = nearest_node_map(g, b)
    sub = nearest_node_map(g, part)
    assert whole == reference_nearest_node_map(g, b)
    assert sub == reference_nearest_node_map(g, part)
    assert max(sub.values()) < 22 <= max(whole.values())


@pytest.mark.parametrize("ghosts", [True, False], ids=["ghosts", "nan"])
@pytest.mark.parametrize("name", ["even_even", "odd_odd", "disk",
                                  "two_blocks", "corridor_x"])
def test_gradient_band_copy_matches_loop(name, ghosts):
    # without ghost values a one-cell corridor has no gradient across it,
    # and a band cell copies nothing from a free cell whose gradient is not
    # finite in both components; an empty mask lets such a field through
    # ScalarField's finiteness check
    g = GRIDS[name]()
    x = g.centers_x()[:, None]
    y = g.centers_y()[None, :]
    vals = np.where(g.free, 1.0 + x * x - 0.5 * y, np.nan)
    if ghosts:
        f = ScalarField(g, fill_band(g, vals))
    else:
        f = ScalarField(g, vals, mask=np.zeros_like(g.free))
    got = gradient_field(f)
    want_x, want_y = reference_gradient(f)
    assert np.array_equal(got.x.values, want_x, equal_nan=True)
    assert np.array_equal(got.y.values, want_y, equal_nan=True)
