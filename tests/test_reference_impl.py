"""Fast paths against straightforward references.

The red-black sweep solves a stack of systems at once on contiguous parity
planes, the nearest-cell maps are built offset by offset, and the per-node
features, obstacle owners and arc weights come from one (n, 4) gather of
each node's neighbours.  They do the same arithmetic and make the same
tie-breaks as the boolean-mask sweep, run once per system, and the per-cell
and per-node loops kept below.
The rollout loops sample each point once, from nested-list snapshots of the
fields, and derive every recorded quantity from that one sample; the
references sample every quantity on its own, from the arrays.  Every
comparison here is exact (NaN-aware), not within a tolerance.
"""

import math

import numpy as np
import pytest

from riskfields import riskmap, sim
from riskfields.backstep import (ExtendedState, filter_accel, h_B, hdot_B,
                                 k_v_jacobian, k_v_smooth)
from riskfields.elliptic import (GAUSS_SEIDEL, SOR, ForcingSpec, SolveStats,
                                 SolverConfig, _sweep_solve, _target,
                                 solve_fields)
from riskfields.errors import (DegenerateCoefficient, NonConvergence,
                               OutOfDomain, VanishingGuidance)
from riskfields.grid import (FREE, NB4, OCCUPIED, BoundarySet, OccupancyGrid,
                             ScalarField, VectorField, extract_boundary,
                             fill_band, gradient_field, nearest_node_map,
                             sample_gradient, sample_scalar, sample_vector)
from riskfields.scenario import Scenario
from riskfields.safety import (GuidanceFieldBundle, activation,
                               activation_dynamic, filter_control,
                               filter_control_dynamic)
from riskfields.sim import _Recorder, _rk4, time_derivative

from conftest import build_scenario
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


def ref_node_features(sc, grid, boundary):
    """Per-node loop over the occupied 4-neighbours, np.mean and np.unique."""
    out = []
    for k in range(boundary.n):
        i, j = boundary.cells[k]
        probs, labels, speeds = [], [], []
        for di, dj in NB4:
            ii, jj = i + di, j + dj
            if grid.state[ii, jj] == OCCUPIED:
                probs.append(grid.prob[ii, jj])
                labels.append(int(grid.label[ii, jj]))
                speeds.append(float(np.hypot(*grid.vel[ii, jj])))
        if sc.feature == riskmap.PROBABILITY:
            out.append(riskmap.FeatureReading(
                riskmap.PROBABILITY, float(np.mean(probs))))
        elif sc.feature == riskmap.SPEED:
            out.append(riskmap.FeatureReading(
                riskmap.SPEED, float(np.mean(speeds)) if speeds else 0.0))
        else:
            ids, counts = np.unique(labels, return_counts=True)
            best = ids[counts == counts.max()].min()
            out.append(riskmap.FeatureReading(riskmap.LABEL, int(best)))
    return out


def ref_obstacle_components(sc, grid, boundary):
    out = {}
    for idx, m in enumerate(sc._masks):
        comps = set()
        for k in range(boundary.n):
            i, j = boundary.cells[k]
            for di, dj in NB4:
                ii, jj = i + di, j + dj
                if grid.state[ii, jj] == OCCUPIED and m[ii, jj]:
                    comps.add(int(boundary.comp[k]))
        out[idx] = comps
    return out


def ref_arc_weights(grid, cells):
    arcw = np.empty(len(cells))
    for k, (i, j) in enumerate(cells):
        cnt = sum(1 for di, dj in NB4 if not grid.free[i + di, j + dj])
        arcw[k] = grid.d * cnt
    return arcw


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


# one-cell corridors and the single cell have nodes and no interior free
# cells, so their Laplace systems have no unknowns
NO_LAPLACE_UNKNOWNS = ("corridor_x", "corridor_y", "single_unknown")


def _poisson_system(g):
    rhs = np.where(g.free, -4.0 * g.d * g.d, 0.0)
    return g.free, np.zeros((g.nx, g.ny)), rhs


def _laplace_system(g, cells, vals):
    fixed = np.zeros((g.nx, g.ny))
    ci, cj = cells[:, 0], cells[:, 1]
    fixed[ci, cj] = vals
    pinned = np.zeros_like(g.free)
    pinned[ci, cj] = True
    return g.free & ~pinned, fixed, np.zeros_like(fixed)


def _guidance_systems(g):
    """Two Laplace systems with different node data, as for vx and vy.  The
    nodes are the free cells next to an occupied one (extract_boundary finds
    no normal in a one-cell corridor)."""
    occ = ~g.free
    touch = np.zeros_like(g.free)
    touch[1:-1, 1:-1] = (occ[2:, 1:-1] | occ[:-2, 1:-1] | occ[1:-1, 2:]
                         | occ[1:-1, :-2])
    cells = np.argwhere(g.free & touch)
    rng = np.random.default_rng(3)
    return [_laplace_system(g, cells, rng.uniform(-2.0, 3.0, len(cells)))
            for _ in range(2)]


def _same_solve(g, systems, cfg):
    """One stacked solve against a separate reference solve per system."""
    got = _sweep_solve(g, systems, cfg)
    assert len(got) == len(systems)
    for (got_w, got_stats), system in zip(got, systems):
        want_w, want_stats = reference_sweep_solve(g, *system, cfg)
        assert np.array_equal(got_w, want_w, equal_nan=True)
        assert got_stats == want_stats


# -- sweeps -------------------------------------------------------------------

@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("name", GRIDS.keys())
def test_strided_sweep_matches_mask_sweep_on_poisson(name, cfg):
    # h, vx and vy in one k = 3 solve, and h alone
    g = GRIDS[name]()
    systems = [_poisson_system(g)] + _guidance_systems(g)
    if name in NO_LAPLACE_UNKNOWNS:
        assert not systems[1][0].any() and not systems[2][0].any()
    _same_solve(g, systems, cfg)
    _same_solve(g, systems[:1], cfg)


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("name", ["even_even", "odd_odd", "even_odd",
                                  "odd_even", "disk", "two_blocks"])
def test_strided_sweep_matches_mask_sweep_on_laplace(name, cfg):
    # the guidance pair in one k = 2 solve
    g = GRIDS[name]()
    _same_solve(g, _guidance_systems(g), cfg)


def _reference_failure(g, system, cfg):
    with pytest.raises(NonConvergence) as err:
        reference_sweep_solve(g, *system, cfg)
    return str(err.value)


def test_strided_sweep_matches_mask_sweep_when_not_converged():
    g = GRIDS["odd_even"]()
    b = extract_boundary(g)
    b = b.with_flux(np.random.default_rng(5).uniform(1.0, 6.0, b.n))
    systems = [_poisson_system(g)] + [
        _laplace_system(g, b.cells, -b.flux * b.normals[:, c])
        for c in (0, 1)]
    converged = SolverConfig(method=SOR, omega="auto", tol=1e-8)
    h_iters = reference_sweep_solve(g, *systems[0], converged)[1].iterations
    vx_iters = reference_sweep_solve(g, *systems[1], converged)[1].iterations
    assert h_iters < vx_iters
    # every system fails, then h converges and the guidance pair fails: the
    # first failing system in the order (h, vx, vy) names the error
    for max_iters, first in ((5, 0), (h_iters + 1, 1)):
        cfg = SolverConfig(method=SOR, omega="auto", tol=1e-8,
                           max_iters=max_iters)
        for (_, stats), system in zip(_sweep_solve(g, systems, cfg), systems):
            if stats.converged:
                assert stats == reference_sweep_solve(g, *system, cfg)[1]
            else:
                assert stats.to_text() == _reference_failure(g, system, cfg)
        with pytest.raises(NonConvergence) as got:
            solve_fields(g, b, ForcingSpec(), cfg)
        assert str(got.value) == _reference_failure(g, systems[first], cfg)


# -- per-node features -------------------------------------------------------

def _feature_doc():
    # a moving ramped rect one cell off the wall, a static disk, and a U of
    # two labels whose inner cells see three occupied neighbours (9, 9),
    # whose mean depends on the order of the sum, or a tie of one 'chair'
    # and one 'person' (9, 10)
    return {
        "name": "features",
        "grid": {"nx": 22, "ny": 18, "d": 0.1},
        "risk": {"priorities": {"wall": 1.0, "chair": 3.0, "person": 6.0}},
        "obstacles": [
            {"kind": "rect", "min": [0.12, 0.3], "max": [0.45, 0.62],
             "label": "person", "prob": {"axis": "y", "from": 0.3,
                                         "to": 0.9}},
            {"kind": "disk", "center": [1.6, 0.5], "radius": 0.22,
             "label": "chair", "prob": 0.7},
            {"kind": "cells", "cells": [[8, 8], [8, 9], [8, 10]],
             "label": "chair", "prob": 0.3},
            {"kind": "cells", "cells": [[9, 8], [10, 8], [10, 9], [10, 10]],
             "label": "person", "prob": {"axis": "x", "from": 0.1,
                                         "to": 0.7}},
        ],
        "motion": [{"obstacle": 0, "heading": [0.25, 1.0],
                    "profile": {"kind": "constant", "speed": 0.37}}],
        "nominal": {"kind": "goal", "mu": 1.0, "goal": [1.9, 1.5]},
    }


def _repr(feats):
    # repr tells -0.0 from 0.0 and an int from a float
    return [(f.kind, repr(f.value)) for f in feats]


def test_node_features_match_loop():
    sc = Scenario(_feature_doc())
    g = sc.rasterize(t=0.4)
    b = extract_boundary(g)
    occupied = np.array([sum(not g.free[i + di, j + dj] for di, dj in NB4)
                         for i, j in b.cells])
    assert set(occupied) == {1, 2, 3}
    p = [g.prob[10, 9], g.prob[8, 9], g.prob[9, 8]]     # NB4 order at (9, 9)
    assert (p[0] + p[1]) + p[2] != (p[2] + p[1]) + p[0]
    for feature in (riskmap.PROBABILITY, riskmap.SPEED, riskmap.LABEL):
        sc.feature = feature
        want = ref_node_features(sc, g, b)
        assert _repr(sc.node_features(g, b)) == _repr(want)
    k = b.node_at_cell(9, 10)
    assert sorted({int(g.label[8, 10]), int(g.label[10, 10])}) == [2, 3]
    assert want[k].value == 2          # the tie goes to the smaller id
    assert len({f.value for f in want}) >= 3
    assert sc.obstacle_components(g, b) == ref_obstacle_components(sc, g, b)
    assert np.array_equal(b.arcw, ref_arc_weights(g, b.cells))


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


# -- point sampling, filters and rollout loops --------------------------------
# References: every point sampled on its own, with numpy scalars indexed out
# of the arrays, and every recorded quantity re-derived by its own call.

def ref_bilinear(values, grid, px, py):
    gx = (px - grid.origin[0]) / grid.d
    gy = (py - grid.origin[1]) / grid.d
    i0 = math.floor(gx)
    j0 = math.floor(gy)
    if i0 < 0 or j0 < 0 or i0 + 1 >= grid.nx or j0 + 1 >= grid.ny:
        raise OutOfDomain("outside the lattice hull")
    fx = gx - i0
    fy = gy - j0
    v00 = values[i0, j0]
    v10 = values[i0 + 1, j0]
    v01 = values[i0, j0 + 1]
    v11 = values[i0 + 1, j0 + 1]
    s = (v00 * (1.0 - fx) * (1.0 - fy) + v10 * fx * (1.0 - fy)
         + v01 * (1.0 - fx) * fy + v11 * fx * fy)
    if math.isnan(s):
        raise OutOfDomain("deeper than one cell into occupied space")
    return s


def ref_scalar(field, y):
    p = np.asarray(y, dtype=float)
    return ref_bilinear(field.values, field.grid, p[0], p[1])


def ref_vector(field, y):
    p = np.asarray(y, dtype=float)
    return np.array([ref_bilinear(field.x.values, field.grid, p[0], p[1]),
                     ref_bilinear(field.y.values, field.grid, p[0], p[1])])


def ref_gradient(field, y):
    return ref_vector(field.gradient(), y)


def ref_activation(y, k_nom_value, sf, gf, cfg):
    v = ref_vector(gf.v, y)
    k = np.asarray(k_nom_value, dtype=float)
    vk = float(v[0] * k[0] + v[1] * k[1])
    return vk + cfg.gamma * ref_scalar(sf.h, y)


def ref_filter_control(y, k_nom_value, sf, gf, cfg):
    v = ref_vector(gf.v, y)
    k = np.array(k_nom_value, dtype=float)
    vk = float(v[0] * k[0] + v[1] * k[1])
    a = vk + cfg.gamma * ref_scalar(sf.h, y)
    if a >= 0.0:
        return k
    nv2 = float(v[0] * v[0] + v[1] * v[1])
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance("a < 0 where v vanishes")
    return k + (-a / nv2) * v


def _ref_dyn_terms(y, sf_t, dh_dt, gf, cfg):
    v = ref_vector(gf.v, y)
    h = ref_scalar(sf_t.h, y)
    g = ref_gradient(sf_t.h, y)
    gn = math.hypot(g[0], g[1])
    denom = gn + float(cfg.sigma(h))
    nv = math.hypot(v[0], v[1])
    coeff = nv / denom if denom > 0.0 else 0.0
    return v, h, coeff * ref_scalar(dh_dt, y)


def ref_activation_dynamic(y, t, k_nom_value, sf_t, dh_dt, gf, cfg):
    v, h, tv = _ref_dyn_terms(y, sf_t, dh_dt, gf, cfg)
    k = np.asarray(k_nom_value, dtype=float)
    vk = float(v[0] * k[0] + v[1] * k[1])
    return (vk + tv) + cfg.gamma * h


def ref_filter_control_dynamic(y, t, k_nom_value, sf_t, dh_dt, gf, cfg):
    v, h, tv = _ref_dyn_terms(y, sf_t, dh_dt, gf, cfg)
    k = np.array(k_nom_value, dtype=float)
    vk = float(v[0] * k[0] + v[1] * k[1])
    a = (vk + tv) + cfg.gamma * h
    if a >= 0.0:
        return k
    nv2 = float(v[0] * v[0] + v[1] * v[1])
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance("a < 0 where v vanishes")
    return k + (-a / nv2) * v


def ref_k_v_smooth(y, k_nom_value, sf, gf, cfg):
    v = ref_vector(gf.v, y)
    k = np.array(k_nom_value, dtype=float)
    nv2 = float(v[0] * v[0] + v[1] * v[1])
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance("||v|| below eta_v")
    a = float(v[0] * k[0] + v[1] * k[1]) + cfg.gamma * ref_scalar(sf.h, y)
    lam = 0.5 * (-a + math.hypot(a, cfg.sigma_s))
    return k + (lam / nv2) * v


def _ref_k_v_at(y, sf, gf, cfg):
    return ref_k_v_smooth(y, cfg.nominal(y), sf, gf, cfg)


def ref_h_B(state, sf, gf, cfg):
    e = state.ydot - _ref_k_v_at(state.y, sf, gf, cfg)
    return ref_scalar(sf.h, state.y) - float(e @ e) / (2.0 * cfg.mu)


def ref_k_v_jacobian(y, sf, gf, cfg):
    y = np.asarray(y, dtype=float)
    step = 0.5 * sf.grid.d
    cols = []
    for axis in range(2):
        off = np.zeros(2)
        off[axis] = step
        hi = lo = None
        try:
            hi = _ref_k_v_at(y + off, sf, gf, cfg)
        except OutOfDomain:
            pass
        try:
            lo = _ref_k_v_at(y - off, sf, gf, cfg)
        except OutOfDomain:
            pass
        if hi is not None and lo is not None:
            cols.append((hi - lo) / (2.0 * step))
        elif hi is not None:
            cols.append((hi - _ref_k_v_at(y, sf, gf, cfg)) / step)
        elif lo is not None:
            cols.append((_ref_k_v_at(y, sf, gf, cfg) - lo) / step)
        else:
            raise OutOfDomain("no valid probes")
    return np.column_stack(cols)


def ref_hdot_B(state, w, sf, gf, cfg):
    e = state.ydot - _ref_k_v_at(state.y, sf, gf, cfg)
    Dh = ref_gradient(sf.h, state.y)
    J = ref_k_v_jacobian(state.y, sf, gf, cfg)
    return float(Dh @ state.ydot) - float(e @ (np.asarray(w, dtype=float)
                                               - J @ state.ydot)) / cfg.mu


def ref_filter_accel(state, w_nom, sf, gf, cfg):
    w_nom = np.array(w_nom, dtype=float)
    kv = _ref_k_v_at(state.y, sf, gf, cfg)
    e = state.ydot - kv
    Dh = ref_gradient(sf.h, state.y)
    J = ref_k_v_jacobian(state.y, sf, gf, cfg)
    hb = ref_scalar(sf.h, state.y) - float(e @ e) / (2.0 * cfg.mu)
    hdot = float(Dh @ state.ydot) - float(e @ (w_nom - J @ state.ydot)) \
        / cfg.mu
    resid = hdot + cfg.gamma * hb
    if resid >= 0.0:
        return w_nom
    c = -e / cfg.mu
    nc2 = float(c @ c)
    if nc2 < cfg.eta_c * cfg.eta_c:
        if resid < -1e-9:
            raise DegenerateCoefficient("violated with vanishing c")
        return w_nom
    return w_nom + (-resid / nc2) * c


def ref_adversarial(mu, sf):
    return lambda y: -mu * ref_gradient(sf.h, y)


def _ref_steps(z, stage, record, dt, T, at_goal, degenerate):
    """The record/step loop of the integrators, step by step."""
    n = int(math.floor(T / dt + 1e-9))
    rec = _Recorder(double=len(z) == 4)
    term = sim.TIME_LIMIT
    for k in range(n + 1):
        try:
            record(rec, k * dt, z)
        except degenerate:
            term = sim.DEGENERATE
            break
        except OutOfDomain:
            term = sim.LEFT_DOMAIN
            break
        if at_goal(z):
            term = sim.GOAL_REACHED
            break
        if k == n:
            break
        try:
            z = _rk4(z, stage, dt)
        except degenerate:
            term = sim.DEGENERATE
            break
        except OutOfDomain:
            term = sim.LEFT_DOMAIN
            break
    return rec.build(dt, term)


def ref_integrate_single(y0, controller, sf, gf, cfg, dt, T, goal):
    def stage(q):
        return ref_filter_control(q, controller(q), sf, gf, cfg)

    def record(rec, t, y):
        u_nom = np.asarray(controller(y), dtype=float)
        u = ref_filter_control(y, u_nom, sf, gf, cfg)
        hv = ref_scalar(sf.h, y)
        a = ref_activation(y, u_nom, sf, gf, cfg)
        audit = ref_activation(y, u, sf, gf, cfg)
        rec.add(t, y, u_nom, u, hv, a, audit)

    def at_goal(y):
        return goal is not None and np.linalg.norm(y - goal) < sf.grid.d

    return _ref_steps(np.array(y0, dtype=float), stage, record, dt, T,
                      at_goal, VanishingGuidance)


def ref_integrate_double(state0, accel_nom, sf, gf, bcfg, dt, T):
    def stage(z):
        q = ExtendedState(z[:2], z[2:])
        w = ref_filter_accel(q, accel_nom(q.y, q.ydot), sf, gf, bcfg)
        return np.concatenate([q.ydot, w])

    def record(rec, t, z):
        st = ExtendedState(z[:2], z[2:])
        w_nom = np.asarray(accel_nom(st.y, st.ydot), dtype=float)
        w = ref_filter_accel(st, w_nom, sf, gf, bcfg)
        hv = ref_scalar(sf.h, st.y)
        hb = ref_h_B(st, sf, gf, bcfg)
        resid_nom = ref_hdot_B(st, w_nom, sf, gf, bcfg) + bcfg.gamma * hb
        resid = ref_hdot_B(st, w, sf, gf, bcfg) + bcfg.gamma * hb
        rec.add(t, st.y, w_nom, w, hv, resid_nom, resid, ydot=st.ydot,
                h_B=hb)

    z0 = np.concatenate([state0.y, state0.ydot])
    return _ref_steps(z0, stage, record, dt, T, lambda z: False,
                      (VanishingGuidance, DegenerateCoefficient))


def ref_run_dynamic(scenario, dt_frame, dt_sim, T):
    m = int(round(dt_frame / dt_sim))
    nf = int(round(T / dt_frame))
    builds = [scenario.build(t=k * dt_frame) for k in range(nf + 1)]
    cfg = builds[0].filter_cfg
    y = np.array(scenario.sim_cfg["y0"], dtype=float)
    goal = np.asarray(scenario.sim_cfg["goal"], dtype=float)
    rec = _Recorder()
    term = sim.TIME_LIMIT
    step = 0
    done = False

    def record(t, y, sfk, dh, gfk, controller):
        u_nom = np.asarray(controller(y), dtype=float)
        u = ref_filter_control_dynamic(y, t, u_nom, sfk, dh, gfk, cfg)
        hv = ref_scalar(sfk.h, y)
        a = ref_activation_dynamic(y, t, u_nom, sfk, dh, gfk, cfg)
        audit = ref_activation_dynamic(y, t, u, sfk, dh, gfk, cfg)
        rec.add(t, y, u_nom, u, hv, a, audit)

    for k in range(nf):
        bk = builds[k]
        sfk, gfk = bk.sf, bk.gf
        dh = time_derivative(bk.sf.h, builds[k + 1].sf.h, dt_frame)
        controller = scenario.controller(bk)

        def f(q, s=sfk, d=dh, g=gfk, c=controller):
            return ref_filter_control_dynamic(q, 0.0, c(q), s, d, g, cfg)

        for _ in range(m):
            t = step * dt_sim
            try:
                record(t, y, sfk, dh, gfk, controller)
            except VanishingGuidance:
                term, done = sim.DEGENERATE, True
                break
            except OutOfDomain:
                term, done = sim.LEFT_DOMAIN, True
                break
            if np.linalg.norm(y - goal) < builds[0].grid.d:
                term, done = sim.GOAL_REACHED, True
                break
            try:
                y = _rk4(y, f, dt_sim)
            except VanishingGuidance:
                term, done = sim.DEGENERATE, True
                break
            except OutOfDomain:
                term, done = sim.LEFT_DOMAIN, True
                break
            step += 1
        if done:
            break
    if not done:
        bk = builds[nf - 1]
        try:
            record(step * dt_sim, y, bk.sf, dh, bk.gf,
                   scenario.controller(bk))
        except VanishingGuidance:
            term = sim.DEGENERATE
        except OutOfDomain:
            term = sim.LEFT_DOMAIN
        else:
            if np.linalg.norm(y - goal) < builds[0].grid.d:
                term = sim.GOAL_REACHED
    return rec.build(dt_sim, term)


def _same_trajectory(got, want):
    assert got.termination == want.termination
    assert got.dt == want.dt
    for name in ("t", "y", "u_nom", "u_filt", "h", "a", "audit", "ydot",
                 "h_B"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None, name
        else:
            assert g.shape == w.shape, name
            assert np.array_equal(g, w, equal_nan=True), name


@pytest.mark.parametrize("name", ["semantic_room", "single_obstacle"])
def test_integrate_single_matches_reference(name):
    sc, b = build_scenario(name)
    c = sc.sim_cfg
    ctrl = sc.controller(b)
    ref_ctrl = (ref_adversarial(sc.nominal_mu, b.sf)
                if sc.nominal_kind == "adversarial" else ctrl)
    goal = c.get("goal", getattr(ctrl, "goal", None))
    got = sim.integrate_single(c["y0"], ctrl, b.sf, b.gf, b.filter_cfg,
                               c["dt"], c["T"], goal=goal)
    want = ref_integrate_single(c["y0"], ref_ctrl, b.sf, b.gf, b.filter_cfg,
                                c["dt"], c["T"], goal)
    _same_trajectory(got, want)


# y0 and ydot0 = mu (goal - y0) of three benchmark rollout starts; the last
# one leaves the domain
DOUBLE_STARTS = [([0.796, 1.9144], [2.104, -0.1644]),
                 ([0.8255, 1.1961], [2.0745, 0.5539]),
                 ([0.2654, 1.9953], [2.6346, -0.2453])]


@pytest.mark.parametrize("start", [None] + DOUBLE_STARTS,
                         ids=["smoke", "rollout0", "rollout1", "rollout2"])
def test_integrate_double_matches_reference(single_build, start):
    sc, b = single_build
    bcfg = b.backstep_cfg

    def accel_nom(y, ydot):
        return bcfg.mu * (bcfg.nominal(y) - ydot)

    if start is None:       # the test_integrate_double_smoke run
        y0 = np.array(sc.sim_cfg["y0"], dtype=float)
        st, T = ExtendedState(y0, k_v_smooth(y0, bcfg.nominal(y0), b.sf,
                                             b.gf, bcfg)), 2.0
    else:
        st, T = ExtendedState(*start), 1.5
    got = sim.integrate_double(st, accel_nom, b.sf, b.gf, bcfg,
                               sc.sim_cfg["dt"], T)
    want = ref_integrate_double(st, accel_nom, b.sf, b.gf, bcfg,
                                sc.sim_cfg["dt"], T)
    _same_trajectory(got, want)
    if start is DOUBLE_STARTS[-1]:
        assert got.termination == sim.LEFT_DOMAIN


def test_run_dynamic_matches_reference():
    sc, _ = build_scenario("moving_block")
    builds = {}
    build = sc.build

    def shared_build(t=0.0):        # both runs see the same frames
        if t not in builds:
            builds[t] = build(t=t)
        return builds[t]

    sc.build = shared_build
    c = sc.sim_cfg
    got = sim.run_dynamic(sc, c["dt_frame"], c["dt"], 2.0).trajectory
    want = ref_run_dynamic(sc, c["dt_frame"], c["dt"], 2.0)
    _same_trajectory(got, want)


def test_adversarial_batch_matches_point_loop(semantic_build):
    sc, b = semantic_build
    pts = b.grid.free_centers()
    pts = np.concatenate([pts, pts[::7] + 0.3 * b.grid.d])
    want = np.array([-sc.nominal_mu * ref_gradient(b.sf.h, p) for p in pts])
    got = sim.nominal_adversarial(pts, sc.nominal_mu, b.sf)
    assert np.array_equal(got, want)
    with pytest.raises(OutOfDomain):
        sim.nominal_adversarial(np.vstack([pts[:3], [[-1.0, 0.5]]]),
                                sc.nominal_mu, b.sf)


# -- point cases --------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:          # the exception type is the outcome
        return type(e)


def _same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert np.array_equal(np.asarray(got), np.asarray(want))


def _point_cases(g, sf):
    """Free, ghost-band, past-the-band and outside-the-hull points."""
    h = sf.h.values
    fin = np.isfinite(h)
    block = fin[:-1, :-1] & fin[1:, :-1] & fin[:-1, 1:] & fin[1:, 1:]
    band = np.zeros_like(fin)
    band[:-1, :-1] = g.band1[:-1, :-1] & block
    bi, bj = np.nonzero(band)
    deep = ~g.free & ~g.band1 & ~g.band2
    ki, kj = np.nonzero(fin[:-1, :-1] & ~block)     # block reaches a NaN
    di, dj = np.nonzero(deep)
    d = g.d
    pts = {
        "free": g.cell_center(12, 20) + [0.3 * d, 0.6 * d],
        "band_center": g.cell_center(bi[0], bj[0]),
        "band_inside": g.cell_center(bi[len(bi) // 2], bj[len(bj) // 2])
        + [0.4 * d, 0.7 * d],
        "past_band": g.cell_center(ki[0], kj[0]) + [0.5 * d, 0.5 * d],
        "deep": g.cell_center(di[len(di) // 2], dj[len(dj) // 2]),
        "hull_low": np.array([-0.2 * d, 1.0]),
        "hull_high": g.cell_center(g.nx - 1, 10) + [0.1 * d, 0.0],
    }
    assert sf.value(pts["band_center"]) == 0.0
    return pts


def _scaled(gf, s):
    v = gf.v
    return GuidanceFieldBundle(VectorField(
        ScalarField(v.grid, s * v.x.values, mask=v.mask),
        ScalarField(v.grid, s * v.y.values, mask=v.mask)))


@pytest.mark.parametrize("guidance", ["solved", "tiny", "zero"])
def test_point_functions_match_reference(single_build, guidance):
    # tiny: ||v|| below eta_v, so an active constraint cannot be corrected;
    # zero: v vanishes outright, so k_v is undefined everywhere
    sc, b = single_build
    g, sf, cfg, bcfg = b.grid, b.sf, b.filter_cfg, b.backstep_cfg
    gf = {"solved": b.gf, "tiny": _scaled(b.gf, 1e-9),
          "zero": _scaled(b.gf, 0.0)}[guidance]
    rng = np.random.default_rng(5)
    dh = ScalarField(g, fill_band(g, rng.uniform(-2.0, 2.0, (g.nx, g.ny))))
    for name, y in _point_cases(g, sf).items():
        k = np.array([0.7, -0.4])
        try:                        # steer against v where v is known
            k = -3.0 * ref_vector(b.gf.v, y) / 1e-3
        except OutOfDomain:
            pass
        st = ExtendedState(y, [0.4, -0.3])
        w = np.array([-2.0, 1.5])
        pairs = [
            (sample_scalar, ref_scalar, (sf.h, y)),
            (sample_vector, ref_vector, (gf.v, y)),
            (sample_gradient, ref_gradient, (sf.h, y)),
            (activation, ref_activation, (y, k, sf, gf, cfg)),
            (filter_control, ref_filter_control, (y, k, sf, gf, cfg)),
            (activation_dynamic, ref_activation_dynamic,
             (y, 0.0, k, sf, dh, gf, cfg)),
            (filter_control_dynamic, ref_filter_control_dynamic,
             (y, 0.0, k, sf, dh, gf, cfg)),
            (k_v_smooth, ref_k_v_smooth, (y, k, sf, gf, bcfg)),
            (k_v_jacobian, ref_k_v_jacobian, (y, sf, gf, bcfg)),
            (h_B, ref_h_B, (st, sf, gf, bcfg)),
            (hdot_B, ref_hdot_B, (st, w, sf, gf, bcfg)),
            (filter_accel, ref_filter_accel, (st, w, sf, gf, bcfg)),
        ]
        for fn, ref, args in pairs:
            got, want = _outcome(fn, *args), _outcome(ref, *args)
            try:
                _same_outcome(got, want)
            except AssertionError as e:
                raise AssertionError(f"{fn.__name__} at {name}: got {got!r}, "
                                     f"want {want!r}") from e
