"""Fast paths against straightforward references.

The red-black sweep solves a stack of systems at once on contiguous parity
planes, with per-cell coefficient planes in place of masked writes, and
skips a full residual pass while probe cells show that no system can stop;
its results are compared bit for bit, the sign of a zero included.  The
boundary walk lists every interface face and its successor as arrays and
walks them on ints; the reference collects each component's faces into a
set, walks them one face at a time and reads each normal on its own.  A
nearest-cell search gathers every cell's whole window at once, and the
per-node features, obstacle owners and arc weights come from one (n, 4)
gather of each node's neighbours.  They do the same arithmetic and make the
same tie-breaks as the boolean-mask sweep, run once per system, the
offset-by-offset search, and the per-cell and per-node loops kept below.
The rollout loops step tuples of Python floats, sample each point once,
from nested-list snapshots of the fields, and derive every recorded quantity
from that one sample; the references step numpy arrays with their own RK4
and recorder, and sample every quantity on its own, from the arrays.  Every
comparison here is exact (NaN-aware), not within a tolerance.
"""

import math

import numpy as np
import pytest
import yaml

from riskfields import elliptic, riskmap, safety, sim
from riskfields.backstep import (ExtendedState, filter_accel, h_B, hdot_B,
                                 k_v_jacobian, k_v_smooth)
from riskfields.elliptic import (SOR, ForcingSpec, SolveStats,
                                 SolverConfig, _guidance, _poisson,
                                 _sweep_solve, _target, solve_fields)
from riskfields.errors import (DegenerateCoefficient, DegenerateNormal,
                               NonConvergence, OutOfDomain,
                               VanishingGuidance)
from riskfields.grid import (FREE, NB4, OCCUPIED, BoundarySet, OccupancyGrid,
                             ScalarField, VectorField, _nearest_hits,
                             extract_boundary, fill_band, gradient_field,
                             nearest_node_map, sample_gradient, sample_scalar,
                             sample_vector)
from riskfields.scenario import Scenario
from riskfields.safety import (GuidanceFieldBundle, activation,
                               activation_dynamic, filter_control,
                               filter_control_dynamic)
from riskfields.sim import Trajectory, time_derivative

from conftest import SCENARIOS, build_scenario, flux_sweep_doc
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
    omega = cfg.resolved_omega(unknown)
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


def reference_nearest_hits(cells, target, radius):
    """One fancy-indexed pass per window offset, in (squared distance, di,
    dj) order, each cell keeping its first hit.  Returns (hit, ti, tj), with
    ti, tj 0 where there is no hit."""
    ii, jj = cells
    padded = np.pad(target, radius, constant_values=False)
    ti = np.zeros_like(ii)
    tj = np.zeros_like(jj)
    hit = np.zeros(len(ii), dtype=bool)
    offsets = sorted((di * di + dj * dj, di, dj)
                     for di in range(-radius, radius + 1)
                     for dj in range(-radius, radius + 1))
    for _, di, dj in offsets:
        new = ~hit & padded[ii + radius + di, jj + radius + dj]
        ti[new] = ii[new] + di
        tj[new] = jj[new] + dj
        hit |= new
    return hit, ti, tj


def reference_nearest_node_map(grid, boundary):
    """Per-cell scan of the 7x7 window, keeping the first strict minimum."""
    out = {}
    cell_idx = {(i, j): k
                for k, (i, j) in enumerate(boundary.cells.tolist())}
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
    for idx, m in enumerate(sc.obstacle_masks()):
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


def ref_estimate_normals(grid, cells):
    """Per-cell reads of the twice-blurred occupancy gradient."""
    from scipy import ndimage

    ind = (~grid.free).astype(float)
    blur = ndimage.uniform_filter(ind, size=3, mode="nearest")
    blur = ndimage.uniform_filter(blur, size=3, mode="nearest")
    out = np.empty((len(cells), 2), dtype=float)
    for k, (i, j) in enumerate(cells):
        gx = (blur[i + 1, j] - blur[i - 1, j]) * 0.5
        gy = (blur[i, j + 1] - blur[i, j - 1]) * 0.5
        nrm = math.hypot(gx, gy)
        if nrm < 1e-8:
            sx = sy = 0.0
            for di, dj in NB4:
                if not grid.free[i + di, j + dj]:
                    sx += di
                    sy += dj
            nrm = math.hypot(sx, sy)
            if nrm < 1e-12:
                raise DegenerateNormal(
                    f"no usable normal at cell ({i}, {j})")
            gx, gy = sx, sy
        out[k, 0] = gx / nrm
        out[k, 1] = gy / nrm
    return out


def ref_trace_component(grid, occ_comp, comp_id):
    """Face set of one component, collected cell by cell, walked one face
    at a time from its smallest face left."""
    free = grid.free
    faces = set()
    ii, jj = np.nonzero(occ_comp == comp_id)
    for i, j in zip(ii, jj):
        for m in NB4:
            fi, fj = i + m[0], j + m[1]
            if 0 <= fi < grid.nx and 0 <= fj < grid.ny and free[fi, fj]:
                faces.add((i, j, m))
    loops = []
    while faces:
        start = min(faces)
        cur = start
        loop_cells = []
        while True:
            faces.discard(cur)
            oi, oj, m = cur
            fc = (oi + m[0], oj + m[1])
            if not loop_cells or loop_cells[-1] != fc:
                loop_cells.append(fc)
            t = (-m[1], m[0])
            di, dj = oi + m[0] + t[0], oj + m[1] + t[1]
            si, sj = oi + t[0], oj + t[1]
            diag_occ = (0 <= di < grid.nx and 0 <= dj < grid.ny
                        and not free[di, dj])
            side_occ = (0 <= si < grid.nx and 0 <= sj < grid.ny
                        and not free[si, sj])
            if diag_occ:
                cur = (di, dj, (-t[0], -t[1]))
            elif side_occ:
                cur = (si, sj, m)
            else:
                cur = (oi, oj, t)
            if cur == start:
                break
        if len(loop_cells) > 1 and loop_cells[0] == loop_cells[-1]:
            loop_cells.pop()
        loops.append(loop_cells)
    return loops


def ref_extract_boundary(grid):
    """Component by component: its loops, a count per loop and a seen map."""
    from scipy import ndimage

    occ_comp, n_comp = ndimage.label(~grid.free, structure=np.ones((3, 3)))
    cells, comp_of, chains, seen = [], [], {}, {}
    for cid in range(1, n_comp + 1):
        loops = ref_trace_component(grid, occ_comp, cid)
        if not loops:
            continue
        order = []
        simple = len(loops) == 1
        for loop in loops:
            counts = {}
            for c in loop:
                counts[c] = counts.get(c, 0) + 1
            if any(v > 1 for v in counts.values()):
                simple = False
            for c in loop:
                if c in seen:
                    simple = False
                    continue
                seen[c] = cid
                order.append(len(cells))
                cells.append(c)
                comp_of.append(cid)
        chains[cid] = np.array(order, dtype=int) if simple else None
    cells_arr = np.array(cells, dtype=int).reshape(-1, 2)
    normals = ref_estimate_normals(grid, cells_arr) if len(cells) else \
        np.zeros((0, 2))
    return BoundarySet(grid, cells_arr, normals,
                       ref_arc_weights(grid, cells_arr), comp_of, chains)


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
    "gauss_seidel": SolverConfig(method=SOR, omega=1.0, tol=1e-8),
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


def _bits(x):
    """x as int64 words: equal bits, the sign of a zero included."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _same_solve(g, systems, cfg):
    """One stacked solve against a separate reference solve per system,
    bit for bit."""
    got = _sweep_solve(g, systems, cfg)
    assert len(got) == len(systems)
    for (got_w, got_stats), system in zip(got, systems):
        want_w, want_stats = reference_sweep_solve(g, *system, cfg)
        assert np.array_equal(_bits(got_w), _bits(want_w))
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


# 2/(1 + sin(pi/25)), the empty box's optimum on the 25 x 20 odd_even
# lattice: at this omega its Poisson system converges before its guidance
# pair, which the two tests below need (the mask-derived omega of "auto"
# gives h 80 sweeps against vx 72)
ODD_EVEN_BOX_OMEGA = 2.0 / (1.0 + math.sin(math.pi / 25))


def test_strided_sweep_matches_mask_sweep_when_not_converged():
    g = GRIDS["odd_even"]()
    b = extract_boundary(g)
    b = b.with_flux(np.random.default_rng(5).uniform(1.0, 6.0, b.n))
    systems = [_poisson_system(g)] + [
        _laplace_system(g, b.cells, -b.flux * b.normals[:, c])
        for c in (0, 1)]
    converged = SolverConfig(method=SOR, omega=ODD_EVEN_BOX_OMEGA, tol=1e-8)
    h_iters = reference_sweep_solve(g, *systems[0], converged)[1].iterations
    vx_iters = reference_sweep_solve(g, *systems[1], converged)[1].iterations
    assert h_iters < vx_iters
    # every system fails, then h converges and the guidance pair fails: the
    # first failing system in the order (h, vx, vy) names the error
    for max_iters, first in ((5, 0), (h_iters + 1, 1)):
        cfg = SolverConfig(method=SOR, omega=ODD_EVEN_BOX_OMEGA, tol=1e-8,
                           max_iters=max_iters)
        for (_, stats), system in zip(_sweep_solve(g, systems, cfg), systems):
            if stats.converged:
                assert stats == reference_sweep_solve(g, *system, cfg)[1]
            else:
                assert stats.to_text() == _reference_failure(g, system, cfg)
        with pytest.raises(NonConvergence) as got:
            solve_fields(g, b, ForcingSpec(), cfg)
        assert str(got.value) == _reference_failure(g, systems[first], cfg)


@pytest.mark.parametrize("order", [(1, 0, 2), (2, 1, 0)],
                         ids=["middle", "last"])
def test_stacked_sweep_with_the_poisson_system_not_first(order):
    # only the Poisson system carries an rhs; the run spans every system
    g = GRIDS["odd_even"]()
    systems = [_poisson_system(g)] + _guidance_systems(g)
    _same_solve(g, [systems[i] for i in order], CONFIGS["sor_auto"])


def _pocket(g, cell):
    """One unknown at cell, fenced by fixed values, so every unknown of the
    system sits in one parity class."""
    unknown = np.zeros((g.nx, g.ny), dtype=bool)
    unknown[cell] = True
    fixed = np.random.default_rng(1).uniform(-1.0, 2.0, (g.nx, g.ny))
    return unknown, fixed, np.zeros_like(fixed)


@pytest.mark.parametrize("cell", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_sweep_with_unknowns_in_one_class(cell):
    # at omega 1.9 a pocket's error shrinks by 0.9 a sweep, so it runs on
    # long after the Poisson system it is stacked with has stopped
    g = GRIDS["odd_even"]()
    cfg = SolverConfig(method=SOR, omega=1.9, tol=1e-8)
    systems = [_pocket(g, cell), _poisson_system(g)]
    _same_solve(g, systems[:1], cfg)
    _same_solve(g, systems, cfg)


@pytest.mark.parametrize("omega", [1.0, 1.9])
def test_stacked_sweep_when_the_largest_probe_is_not_the_first(omega):
    # a pocket's unknown sits in class (1, 1) or (0, 1), so its largest
    # probe is in the second or third class of the run, never the first,
    # and every other probe of the pocket is 0
    g = GRIDS["odd_even"]()
    cfg = SolverConfig(method=SOR, omega=omega, tol=1e-8)
    _same_solve(g, [_poisson_system(g), _pocket(g, (3, 3)),
                    _pocket(g, (4, 3))], cfg)


def test_probes_are_tried_largest_first(monkeypatch):
    # a pocket alone: a probe check tries the pocket's cell first, and a
    # holding class's probe, always 0, only after it came out at or below
    # the target
    g = GRIDS["odd_even"]()
    cfg = SolverConfig(method=SOR, omega=1.9, tol=1e-8)
    calls = []
    probe = elliptic._residual

    def logged(items, p):
        calls.append(probe(items, p))
        return calls[-1]

    monkeypatch.setattr(elliptic, "_residual", logged)
    _same_solve(g, [_pocket(g, (4, 3))], cfg)
    target = _target(cfg, g)
    assert sum(v > target for v in calls) > 10
    assert all(v > 0.0 or calls[i - 1] <= target
               for i, v in enumerate(calls))
    assert calls[0] > 0.0


@pytest.mark.parametrize("scale", [1.0, 1e-4], ids=["h_first", "h_last"])
def test_stacked_sweep_stops_each_system_on_its_own(scale):
    # the guidance pair of a boundary with flux, its data scaled so that h
    # converges before or after it; max_iters off the check period, one
    # past the first system's converged count and one short of the last's
    g = GRIDS["odd_even"]()
    b = extract_boundary(g)
    b = b.with_flux(np.random.default_rng(5).uniform(1.0, 6.0, b.n))
    systems = [_poisson_system(g)] + [
        _laplace_system(g, b.cells, -scale * b.flux * b.normals[:, c])
        for c in (0, 1)]
    cfg = SolverConfig(method=SOR, omega=ODD_EVEN_BOX_OMEGA, tol=1e-8)
    iters = [reference_sweep_solve(g, *system, cfg)[1].iterations
             for system in systems]
    assert (iters[0] < min(iters[1:])) == (scale == 1.0)
    assert iters[0] not in iters[1:]
    _same_solve(g, systems, cfg)
    for max_iters in (13, min(iters) + 1, max(iters) - 1):
        cut = SolverConfig(method=SOR, omega=ODD_EVEN_BOX_OMEGA, tol=1e-8,
                           max_iters=max_iters)
        for (w, stats), system in zip(_sweep_solve(g, systems, cut),
                                      systems):
            if stats.converged:
                want_w, want_stats = reference_sweep_solve(g, *system, cut)
                assert np.array_equal(_bits(w), _bits(want_w))
                assert stats == want_stats
            else:
                assert stats.to_text() == _reference_failure(g, system, cut)


def _negative_zero_systems(g):
    """The guidance pair of g's boundary, whose axis-aligned normals give
    -beta * 0.0 = -0.0 data, and a one-cell pocket fenced by four nodes
    pinned to -0.0."""
    b = extract_boundary(g)
    b = b.with_flux(np.random.default_rng(6).uniform(1.0, 6.0, b.n))
    pair = [_laplace_system(g, b.cells, -b.flux * b.normals[:, c])
            for c in (0, 1)]
    unknown = np.zeros((g.nx, g.ny), dtype=bool)
    unknown[3, 3] = True
    fixed = np.ones((g.nx, g.ny))
    fixed[[2, 4, 3, 3], [3, 3, 2, 4]] = -0.0
    return pair + [(unknown, fixed, np.zeros_like(fixed))]


@pytest.mark.parametrize("max_iters", [0, 3, 7, 9])
def test_sweep_keeps_pinned_negative_zero(max_iters):
    g = GRIDS["odd_even"]()
    systems = _negative_zero_systems(g)
    for unknown, fixed, _ in systems[:2]:
        assert (np.signbit(fixed) & (fixed == 0) & ~unknown).any()
    cfg = SolverConfig(method=SOR, omega=1.9, tol=1e-8, max_iters=max_iters)
    if max_iters:
        # the pocket alone: with omega > 1 its cell is -0.0 after an odd
        # number of sweeps, as long as its four neighbours read -0.0
        _same_solve(g, systems[2:], cfg)
        (got, stats), = _sweep_solve(g, systems[2:], cfg)
        assert stats.iterations == min(max_iters, 8)
        assert np.signbit(got[3, 3]) == (stats.iterations % 2 == 1)
        assert np.signbit(got[[2, 4, 3, 3], [3, 3, 2, 4]]).all()
    else:
        _same_solve(g, systems, cfg)


# shipped scenario -> the session fixture that holds its build
SHIPPED = {"disk_oracle": "disk_build", "single_obstacle": "single_build",
           "three_obstacles": "three_build",
           "uncertain_wall": "uncertain_build",
           "semantic_room": "semantic_build", "moving_block": None}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_fields_match_mask_sweep_bitwise(name, request):
    # h, vx and vy of each shipped scenario's build, against one reference
    # solve per system and the same ghost-band fill
    fixture = SHIPPED[name]
    sc, b = (request.getfixturevalue(fixture) if fixture
             else build_scenario(name))
    systems = ([_poisson(b.grid, b.boundary, ForcingSpec())]
               + _guidance(b.grid, b.boundary))
    cfg = sc.solver_cfg or SolverConfig()
    for field, (unknown, fixed, rhs, finish) in zip(
            (b.sf.h, b.gf.v.x, b.gf.v.y), systems):
        want_w, want_stats = reference_sweep_solve(b.grid, unknown, fixed,
                                                   rhs, cfg)
        assert np.array_equal(_bits(field.values),
                              _bits(finish(want_w).values))
        assert field.stats == want_stats


# -- boundary walk ------------------------------------------------------------

def _boundary_outcome(fn, g):
    try:
        return fn(g)
    except DegenerateNormal as err:
        return str(err)


def _same_boundary(g):
    """extract_boundary against the per-component face-set walk, every
    array and chain exact; returns the reference's BoundarySet, or its
    DegenerateNormal text."""
    got = _boundary_outcome(extract_boundary, g)
    want = _boundary_outcome(ref_extract_boundary, g)
    if isinstance(want, str):
        assert got == want
        return want
    for name in ("cells", "arcw", "comp"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(_bits(got.normals), _bits(want.normals))
    assert got.chains.keys() == want.chains.keys()
    for cid, chain in want.chains.items():
        if chain is None:
            assert got.chains[cid] is None
        else:
            assert got.chains[cid].dtype == chain.dtype
            assert np.array_equal(got.chains[cid], chain)
    assert got.components() == want.components()
    return want


@pytest.mark.parametrize("name", SHIPPED)
def test_boundary_walk_matches_face_set_on_shipped(name, request):
    fixture = SHIPPED[name]
    if fixture:
        _same_boundary(request.getfixturevalue(fixture)[1].grid)
    else:
        sc = Scenario(str(SCENARIOS / f"{name}.yaml"))
        for t in (0.0, 1.3, 2.6, 3.9, 5.2, 6.5, 8.0):
            _same_boundary(sc.rasterize(t))


def _fuzz_grid(seed):
    """A small random map: 15-50% cover inside the perimeter, free space
    cut down to its largest 4-connected piece."""
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(5, 10, 2)
    occ = rng.random((nx, ny)) < rng.uniform(0.15, 0.5)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    lab, n = ndimage.label(~occ)
    if n == 0:
        return None
    keep = lab == 1 + int(np.bincount(lab.ravel())[1:].argmax())
    return OccupancyGrid(np.where(keep, FREE, OCCUPIED), 0.1)


def test_boundary_walk_matches_face_set_on_fuzz():
    outcomes = [_same_boundary(g) for g in map(_fuzz_grid, range(200))
                if g is not None]
    assert sum(isinstance(o, str) for o in outcomes) >= 2
    chains = [c for o in outcomes if not isinstance(o, str)
              for c in o.chains.values()]
    assert any(c is None for c in chains)
    assert any(c is not None for c in chains)


def test_boundary_walk_matches_face_set_on_normal_fallback():
    from scipy import ndimage

    # fuzz seed 111: the blurred gradient vanishes at node (3, 2), whose
    # normal comes from its one occupied 4-neighbour, (3, 3)
    g = _fuzz_grid(111)
    blur = ndimage.uniform_filter(
        ndimage.uniform_filter((~g.free).astype(float), size=3,
                               mode="nearest"), size=3, mode="nearest")
    assert blur[4, 2] - blur[2, 2] == 0.0 == blur[3, 3] - blur[3, 1]
    b = _same_boundary(g)
    assert b.normals[b.cells.tolist().index([3, 2])].tolist() == [0.0, 1.0]


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
    k = b.cells.tolist().index([9, 10])
    assert sorted({int(g.label[8, 10]), int(g.label[10, 10])}) == [2, 3]
    assert want[k].value == 2          # the tie goes to the smaller id
    assert len({f.value for f in want}) >= 3
    assert sc.obstacle_components(g, b, sc.obstacle_masks()) \
        == ref_obstacle_components(sc, g, b)
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


def _ties(cells, target, radius):
    """How many cells hold more than one target cell at their least squared
    distance within the window."""
    ii, jj = cells
    padded = np.pad(target, radius, constant_values=False)
    d2 = np.stack([np.where(padded[ii + radius + di, jj + radius + dj],
                            di * di + dj * dj, np.inf)
                   for di in range(-radius, radius + 1)
                   for dj in range(-radius, radius + 1)], axis=1)
    least = d2.min(axis=1)
    return int((((d2 == least[:, None]).sum(axis=1) > 1)
                & np.isfinite(least)).sum())


@pytest.mark.parametrize("radius", [2, 3])
def test_one_gather_search_matches_offset_passes(radius):
    ties = misses = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(3, 25, 2)
        target = rng.random((nx, ny)) < rng.uniform(0.01, 0.4)
        cells = np.nonzero(rng.random((nx, ny)) < 0.6)
        hit, ti, tj = _nearest_hits(cells, target, radius)
        want_hit, want_ti, want_tj = reference_nearest_hits(cells, target,
                                                            radius)
        assert np.array_equal(hit, want_hit)
        assert np.array_equal(ti[hit], want_ti[hit])
        assert np.array_equal(tj[hit], want_tj[hit])
        assert ti.dtype == want_ti.dtype and tj.dtype == want_tj.dtype
        # a cell without a hit is its own target, an index on the lattice
        assert np.array_equal(ti[~hit], cells[0][~hit])
        assert np.array_equal(tj[~hit], cells[1][~hit])
        ties += _ties(cells, target, radius)
        misses += int((~hit).sum())
    assert ties > 100 and misses > 100


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


# The barrier references below build on k_v, the guidance layer; the
# barrier itself uses k_v_safe, k_v corrected along grad h.  They stand only
# for the outcomes where the guidance vanishes, the point cases checked here.

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


def _rk4(y, f, dt):
    """Classical RK4 on numpy arrays."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_COLUMNS = ("t", "y", "u_nom", "u_filt", "h", "a", "audit", "ydot", "h_B")


class _Recorder:
    """Trajectory rows of numpy copies; a double-integrator row adds ydot
    and h_B."""

    def __init__(self, double=False):
        self.width = 9 if double else 7
        self.rows = []

    def add(self, t, y, u_nom, u_filt, h, a, audit, ydot=None, h_B=None):
        row = (t, np.array(y), np.array(u_nom), np.array(u_filt), h, a, audit)
        if self.width == 9:
            row += (np.array(ydot), h_B)
        self.rows.append(row)

    def build(self, dt, termination):
        cols = list(zip(*self.rows)) or [()] * self.width
        return Trajectory(dt=dt, termination=termination,
                          **{k: np.array(c) for k, c in zip(_COLUMNS, cols)})


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


@pytest.mark.parametrize("kind", ["goal", "adversarial"])
def test_run_dynamic_matches_reference(kind):
    # the adversarial case reads Dh from the one sample that also carries
    # dh/dt; its reference steers with ref_adversarial
    if kind == "goal":
        sc, _ = build_scenario("moving_block")
    else:
        doc = yaml.safe_load((SCENARIOS / "moving_block.yaml").read_text())
        doc["nominal"] = {"kind": "adversarial", "mu": 0.3}
        doc["sim"]["goal"] = [2.0, 2.5]
        sc = Scenario(doc)
    builds = {}
    build = sc.build

    def shared_build(t=0.0):        # both runs see the same frames
        if t not in builds:
            builds[t] = build(t=t)
        return builds[t]

    sc.build = shared_build
    c = sc.sim_cfg
    got = sim.run_dynamic(sc, c["dt_frame"], c["dt"], 2.0).trajectory
    if kind == "adversarial":
        assert (got.u_filt != got.u_nom).any()      # the filter acted
        sc.controller = lambda b: ref_adversarial(sc.nominal_mu, b.sf)
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


# -- one lattice pass per goal run ------------------------------------------------

def ref_inactive_cells(sf, gf, cfg, mu, goal):
    """The skip mask as it was computed before goal runs shared one lattice
    pass with the CFL bound: its own evaluation of a at every centre, with
    k_nom affine on every cell (not zeroed off the free cells)."""
    g = sf.grid
    m, (gx, gy), (ox, oy) = -float(mu), map(float, goal), g.origin_xy
    kx = (m * (g.centers_x() - gx))[:, None]
    ky = m * (g.centers_y() - gy)
    h, vx, vy = sf.h.values, gf.v.x.values, gf.v.y.values
    with np.errstate(invalid="ignore", over="ignore"):
        gh, ax, ay = cfg.gamma * h, vx * kx, vy * ky
        bx = vx[:-1] * kx[1:] + vx[1:] * kx[:-1]
        by = vy[:, :-1] * ky[1:] + vy[:, 1:] * ky[:-1]
        qx, qy, corner = ay + gh, ax + gh, ax + ay + gh
        lo = np.minimum(np.minimum(corner[:-1], corner[1:]),
                        0.5 * (bx + qx[:-1] + qx[1:]))
        edge_y = 0.5 * (by + qy[:, :-1] + qy[:, 1:])
        centre = 0.25 * ((bx[:, :-1] + bx[:, 1:]) + (by[:-1] + by[1:])
                         + (gh[:-1, :-1] + gh[1:, :-1])
                         + (gh[:-1, 1:] + gh[1:, 1:]))
        lo = np.minimum(np.minimum(lo[:, :-1], lo[:, 1:]), np.minimum(
            np.minimum(edge_y[:-1], edge_y[1:]), centre))
        w = (np.abs(vx) * (abs(m) * (abs(ox) + g.d * g.nx + abs(gx)))
             + np.abs(vy) * (abs(m) * (abs(oy) + g.d * g.ny + abs(gy)))
             + cfg.gamma * np.abs(h))
        w = np.maximum(w[:-1], w[1:])
        return lo > 1e-9 * np.maximum(w[:, :-1], w[:, 1:])


def test_goal_runs_share_one_lattice_pass(monkeypatch, single_build,
                                          three_build, uncertain_build,
                                          disk_build):
    # every shipped goal run evaluates a over the lattice once, in
    # goal_lattice: its skip mask keeps the bits of its own pass, and the
    # CFL bound reads lattice_activation's bits on the free cells
    passes = []

    def spy(*args):
        passes.append(safety.goal_lattice(*args))
        return passes[-1]

    def forbidden(*args):
        raise AssertionError("a second lattice pass")

    monkeypatch.setattr(sim, "goal_lattice", spy)
    monkeypatch.setattr(sim, "lattice_activation", forbidden)
    doc, scale = flux_sweep_doc(12)
    sweep = Scenario(doc)
    runs = [single_build, three_build, uncertain_build, disk_build,
            build_scenario("moving_block"), (sweep, sweep.build(
                flux_scale=scale))]
    for sc, b in runs:
        k, c, cfg = sc.controller(b), sc.sim_cfg, b.filter_cfg
        tr = sim.integrate_single(c["y0"], k, b.sf, b.gf, cfg, c["dt"],
                                  c["T"], goal=c.get("goal"))
        assert tr.n > 1 and len(passes) == 1
        *lattice, mark = passes.pop()
        assert np.array_equal(mark, ref_inactive_cells(b.sf, b.gf, cfg, k.mu,
                                                       k.goal))
        free = b.grid.free
        want = safety.lattice_activation(b.grid, k, b.sf, b.gf, cfg)
        for got, ref in zip(lattice, want):
            assert got[free].tobytes() == ref[free].tobytes()


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


@pytest.mark.parametrize("guidance", ["tiny", "zero"])
def test_point_functions_match_reference(single_build, guidance):
    # tiny: ||v|| below eta_v, so an active constraint cannot be corrected;
    # zero: v vanishes outright, so k_v is undefined everywhere
    sc, b = single_build
    g, sf, cfg, bcfg = b.grid, b.sf, b.filter_cfg, b.backstep_cfg
    gf = _scaled(b.gf, {"tiny": 1e-9, "zero": 0.0}[guidance])
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
