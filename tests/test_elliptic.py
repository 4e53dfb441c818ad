"""Poisson / Laplace solves: oracles, contracts, and failure modes."""

import math

import numpy as np
import pytest

from riskfields import elliptic
from riskfields.elliptic import (SOR, ForcingSpec, SolverConfig, _fields,
                                 _guidance, _poisson, _sweep_solve,
                                 _sweep_stack, check_divergence_identity,
                                 hopf_margins, solve_fields, solve_guidance,
                                 solve_laplace_component, solve_poisson)
from riskfields.errors import (GridMismatch, MalformedGrid,
                               NegativeForcingViolation, NonConvergence)
from riskfields.grid import (FREE, NB4, OCCUPIED, OccupancyGrid,
                             extract_boundary)
from riskfields.scenario import Scenario

from test_grid import box_grid, box_state


def block_grid(nx=24, ny=20, d=0.1):
    s = box_state(nx, ny)
    s[9:13, 8:12] = OCCUPIED
    return OccupancyGrid(s, d)


def disk_grid(d, R=1.0):
    n = int(round(2 * (R + 2 * d) / d)) + 1
    orig = -(n // 2) * d
    x = orig + d * np.arange(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    st = np.where(X * X + Y * Y < R * R, FREE, OCCUPIED).astype(np.int8)
    st[0, :] = st[-1, :] = st[:, 0] = st[:, -1] = OCCUPIED
    return OccupancyGrid(st, d, origin=(orig, orig)), X, Y


SOR_CFG = SolverConfig(method=SOR, omega="auto", tol=1e-8)


def dense_reference(unknown, fixed, rhs):
    """np.linalg.solve of the assembled 5-point system
    -4u + (unknown neighbours) = rhs - (fixed neighbours), a direct oracle
    for small lattices."""
    ii, jj = np.nonzero(unknown)
    idx = np.full(unknown.shape, -1)
    idx[ii, jj] = np.arange(len(ii))
    mat = -4.0 * np.eye(len(ii))
    b = rhs[ii, jj].astype(float)
    for di, dj in NB4:
        nb = idx[ii + di, jj + dj]
        on = nb >= 0
        mat[np.flatnonzero(on), nb[on]] = 1.0
        b[~on] -= fixed[ii[~on] + di, jj[~on] + dj]
    w = fixed.copy()
    w[ii, jj] = np.linalg.solve(mat, b)
    return w


def dense_poisson(g, b):
    unknown, fixed, rhs, finish = _poisson(g, b, ForcingSpec())
    return finish(dense_reference(unknown, fixed, rhs))


# -- poisson ------------------------------------------------------------------

def test_single_unknown_exact():
    # one free cell, four ghost zeros: -4u = d^2 f  =>  u = d^2
    s = np.full((3, 3), OCCUPIED, dtype=np.int8)
    s[1, 1] = FREE
    g = OccupancyGrid(s, 0.5)
    # a fully enclosed cell has no usable normal, so skip boundary extraction
    h = solve_poisson(g, None, ForcingSpec(), SOR_CFG)
    # iterative stop target is tol*2/N^2 = 2.2e-9 here
    assert h.values[1, 1] == pytest.approx(0.25, abs=5e-9)


def test_iterative_matches_dense_oracle():
    # SOR, and SOR at omega = 1 (Gauss-Seidel), against the direct solve
    g = block_grid()
    b = extract_boundary(g)
    ref = dense_poisson(g, b)
    for omega in ("auto", 1.0):
        cfg = SolverConfig(method=SOR, omega=omega, tol=1e-8)
        h = solve_poisson(g, b, ForcingSpec(), cfg)
        gap = np.abs(h.values[g.free] - ref.values[g.free]).max()
        assert gap <= 10 * cfg.tol


def test_solve_is_deterministic():
    g = block_grid()
    b = extract_boundary(g)
    h1 = solve_poisson(g, b, ForcingSpec(), SOR_CFG)
    h2 = solve_poisson(g, b, ForcingSpec(), SOR_CFG)
    assert np.array_equal(h1.values[g.free], h2.values[g.free])


def test_positivity_band_and_nan_layout():
    g = block_grid()
    h = solve_poisson(g, extract_boundary(g), ForcingSpec(), SOR_CFG)
    assert (h.values[g.free] > 0).all()
    band = g.band1 | g.band2
    assert np.all(h.values[band] == 0.0)
    deep = ~g.free & ~band
    assert np.isnan(h.values[deep]).all()


def test_residual_contract_and_stats_text():
    g = block_grid()
    h = solve_poisson(g, extract_boundary(g), ForcingSpec(), SOR_CFG)
    st = h.stats
    assert st.converged
    assert st.residual <= st.target
    assert st.unknowns == int(g.free.sum())
    txt = st.to_text()
    for part in ("method=sor", f"unknowns={st.unknowns}", "converged=True"):
        assert part in txt
    # 5-point residual in field units stays within the advertised budget
    w = np.where(np.isfinite(h.values), h.values, 0.0)
    lap = (w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2]
           - 4 * w[1:-1, 1:-1]) / g.d ** 2
    free_in = g.free[1:-1, 1:-1]
    assert np.abs(lap[free_in] + 4.0).max() <= 4 * SOR_CFG.tol / g.d ** 2


def test_forcing_must_be_negative():
    g = box_grid(8, 8)
    b = extract_boundary(g)
    with pytest.raises(NegativeForcingViolation):
        solve_poisson(g, b, ForcingSpec(const=0.0), SOR_CFG)
    bad = ForcingSpec(fn=lambda p: -1.0 if p[0] < 0.3 else 0.5)
    with pytest.raises(NegativeForcingViolation):
        solve_poisson(g, b, bad, SOR_CFG)


def test_forcing_fn_evaluated_at_centers():
    g = box_grid(8, 8, d=0.5)
    f = ForcingSpec(fn=lambda p: -(1.0 + p[0]))
    vals = f.evaluate(g)
    i, j = 3, 4
    assert vals[i, j] == pytest.approx(-(1.0 + g.cell_center(i, j)[0]))
    assert vals[0, 0] == 0.0  # occupied cells carry no forcing


def test_nonconvergence_raises():
    g = block_grid()
    cfg = SolverConfig(method=SOR, omega="auto", tol=1e-8, max_iters=1)
    with pytest.raises(NonConvergence):
        solve_poisson(g, extract_boundary(g), ForcingSpec(), cfg)


def _frame_systems(g):
    b = extract_boundary(g)
    b = b.with_flux(np.linspace(1.0, 3.0, b.n))
    return [_poisson(g, b, ForcingSpec())] + _guidance(g, b)


def test_stack_of_two_grids_matches_solo_solves():
    # two masks and cell sizes on one 24 x 20 lattice, as consecutive
    # frames of a moving obstacle.  At omega 1 the small pocket converges
    # in far fewer sweeps than the open box, so the cut leaves the box's
    # systems unconverged next to the pocket's converged ones.
    pocket = np.full((24, 20), OCCUPIED, dtype=np.int8)
    pocket[2:7, 3:9] = FREE
    grids = [block_grid(), OccupancyGrid(pocket, 0.05)]
    groups = [(g, _frame_systems(g)) for g in grids]
    slow = SolverConfig(method=SOR, omega=1.0, tol=1e-8)
    cut = SolverConfig(method=SOR, omega=1.0, tol=1e-8, max_iters=200)
    for cfg in (SOR_CFG, slow, cut):
        stacked = _sweep_stack(groups, cfg)
        converged = []
        for (g, systems), got in zip(groups, stacked):
            assert len(got) == len(systems) == 3
            for (w, stats), system in zip(got, systems):
                want_w, want_stats = _sweep_solve(g, [system[:3]], cfg)[0]
                assert np.array_equal(w.view(np.int64),
                                      want_w.view(np.int64))
                assert stats == want_stats
                converged.append(stats.converged)
        if cfg is cut:
            assert converged == [False] * 3 + [True] * 3
            with pytest.raises(NonConvergence):
                _fields(groups[0][1], stacked[0])
            h, vx, vy = _fields(groups[1][1], stacked[1])
            assert h.stats == stacked[1][0][1]
        else:
            assert all(converged)


def _pocket_grid():
    pocket = np.full((24, 20), OCCUPIED, dtype=np.int8)
    pocket[2:7, 3:9] = FREE
    return OccupancyGrid(pocket, 0.05)


def test_auto_omega_has_the_same_bits_alone_and_in_any_stack(monkeypatch):
    # each distinct mask of a stack gets one estimate, read from the mask
    # alone, so a system's omega, values and stats are those of its solo
    # solve; vx and vy share one mask and one estimate
    g = block_grid()
    box = [s[:3] for s in _frame_systems(g)]
    pocket = [s[:3] for s in _frame_systems(_pocket_grid())]
    alone = {u.tobytes(): elliptic._auto_omega(u) for u, _, _ in box + pocket}
    assert len(alone) == 4
    estimate = elliptic._auto_omega
    seen = []

    def logged(unknown):
        seen.append((unknown.tobytes(), estimate(unknown)))
        return seen[-1][1]

    monkeypatch.setattr(elliptic, "_auto_omega", logged)
    for stack in (box, pocket, box + pocket, pocket[::-1] + box[:1],
                  box[1:] + pocket[:1] + box[:1]):
        seen.clear()
        got = _sweep_solve(g, stack, SOR_CFG)
        assert len(seen) == len({u.tobytes() for u, _, _ in stack})
        for key, omega in seen:
            assert np.float64(omega).view(np.int64) == \
                np.float64(alone[key]).view(np.int64)
        for (w, stats), system in zip(got, stack):
            want_w, want_stats = _sweep_solve(g, [system], SOR_CFG)[0]
            assert np.array_equal(w.view(np.int64), want_w.view(np.int64))
            assert stats == want_stats


def _one_cell_corridor(n, axis):
    s = np.full((3, n), OCCUPIED, dtype=np.int8)
    s[1, 1:-1] = FREE
    return OccupancyGrid(s if axis == 1 else s.T.copy(), 0.1)


@pytest.mark.parametrize("case", ["empty", "single", "corridor_x_6",
                                  "corridor_y_5", "corridor_x_40"])
def test_auto_omega_on_degenerate_masks(case):
    # no unknowns, an isolated unknown and one-cell corridors: the Lanczos
    # run ends at once or exhausts its Krylov space within a few steps
    if case == "empty":
        g = box_grid(8, 8)
        unknown = np.zeros((8, 8), dtype=bool)
        system = (unknown, np.ones((8, 8)), np.zeros((8, 8)))
    else:
        if case == "single":
            s = np.full((3, 3), OCCUPIED, dtype=np.int8)
            s[1, 1] = FREE
            g = OccupancyGrid(s, 0.5)
        else:
            _, axis, n = case.split("_")
            g = _one_cell_corridor(int(n), axis == "y")
        system = (g.free, np.zeros((g.nx, g.ny)),
                  np.where(g.free, -4.0 * g.d * g.d, 0.0))
    omega = SOR_CFG.resolved_omega(system[0])
    assert 1.0 <= omega < 2.0
    (w, stats), = _sweep_solve(g, [system], SOR_CFG)
    assert stats.converged
    assert np.abs(w - dense_reference(*system)).max() < 1e-9


def test_auto_omega_needs_fewer_sweeps_than_the_box_formula(three_build):
    # obstacles shrink each system's domain, so its optimal omega falls
    # below the empty box's 2/(1 + sin(pi/N)), and the mask-derived omega
    # stops every system in fewer sweeps
    sc, b = three_build
    assert sc.solver_cfg.omega == "auto"
    n = max(b.grid.nx, b.grid.ny)
    box = SolverConfig(method=SOR, omega=2.0 / (1.0 + math.sin(math.pi / n)),
                       tol=sc.solver_cfg.tol)
    h, v = solve_fields(b.grid, b.boundary, ForcingSpec(), box)
    for auto, slow in ((b.sf.h, h), (b.gf.v.x, v.x), (b.gf.v.y, v.y)):
        assert auto.stats.converged and slow.stats.converged
        assert auto.stats.iterations < 0.8 * slow.stats.iterations


def test_stack_needs_one_lattice_shape():
    a, b = block_grid(24, 20), block_grid(24, 22)
    with pytest.raises(GridMismatch):
        _sweep_stack([(a, _frame_systems(a)), (b, _frame_systems(b))],
                     SOR_CFG)
    assert _sweep_stack([(a, []), (a, [])], SOR_CFG) == [[], []]


def test_omega_and_method_validation():
    g = box_grid(8, 8)
    b = extract_boundary(g)
    for w in (0.0, 2.0, -1.0):
        with pytest.raises(MalformedGrid):
            solve_poisson(g, b, ForcingSpec(),
                          SolverConfig(method=SOR, omega=w))
    # SOR is the one solver; the removed dense and Gauss-Seidel modes are
    # unknown methods like any other name
    for method in ("cg", "dense_direct", "gauss_seidel"):
        with pytest.raises(MalformedGrid, match="unknown solver method"):
            solve_poisson(g, b, ForcingSpec(), SolverConfig(method=method))


def test_disk_error_levels_are_stable():
    # staircase boundary keeps the analytic gap first order in d; freeze the
    # measured levels so a regression in either direction is caught
    errs = {}
    for d in (0.08, 0.04):
        g, X, Y = disk_grid(d)
        h = solve_poisson(g, extract_boundary(g), ForcingSpec(), SOR_CFG)
        exact = 1.0 - (X * X + Y * Y)
        errs[d] = np.abs(h.values[g.free] - exact[g.free]).max()
    assert 0.015 <= errs[0.04] <= 0.06  # measured 3.48e-2
    ratio = errs[0.08] / errs[0.04]  # measured 2.43
    assert 1.3 <= ratio <= 3.2


@pytest.mark.xfail(strict=True, reason="the solve stops at an absolute "
                   "residual, tol * 2/N^2 in field units (elliptic._target), "
                   "so a lattice whose h is small stops early and still "
                   "reports converged")
def test_solution_scales_with_the_cell_size():
    # an empty 24^2 box with every length scaled by d: the discrete h scales
    # as d^2, so the centre h/d^2 must not depend on d.  Measured: 155.158
    # after 264 sweeps at d = 1, 157.906 after 40 sweeps at d = 1e-5
    centre = {}
    for d in (1.0, 1e-5):
        doc = {"name": "box", "grid": {"nx": 24, "ny": 24, "d": d},
               "obstacles": [], "nominal": {"kind": "goal", "mu": 1.0,
                                            "goal": [12 * d, 12 * d]}}
        b = Scenario(doc).build()
        assert b.report["poisson"]["converged"]
        centre[d] = b.sf.h.values[12, 12] / (d * d)
    assert centre[1e-5] == pytest.approx(centre[1.0], rel=1e-6)


# -- laplace / guidance -------------------------------------------------------

def test_laplace_pins_nodes_bitwise():
    g = block_grid()
    b = extract_boundary(g)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(b.n)
    f = solve_laplace_component(g, b, vals, SOR_CFG)
    ci, cj = b.cells[:, 0], b.cells[:, 1]
    assert np.array_equal(f.values[ci, cj], vals)


def test_laplace_needs_one_value_per_node():
    g = box_grid(8, 8)
    b = extract_boundary(g)
    with pytest.raises(MalformedGrid):
        solve_laplace_component(g, b, np.zeros(b.n + 2), SOR_CFG)


def test_laplace_reproduces_affine_data():
    # affine functions are discrete-harmonic, so pinning the nodes to one must
    # return it on the whole free mask
    g = block_grid()
    b = extract_boundary(g)
    a, bx, by = 0.7, -1.3, 0.4
    vals = a + bx * b.pos[:, 0] + by * b.pos[:, 1]
    f = solve_laplace_component(g, b, vals, SOR_CFG)
    x = g.centers_x()[:, None]
    y = g.centers_y()[None, :]
    want = a + bx * x + by * y
    assert np.abs(f.values[g.free] - want[g.free]).max() < 1e-6


def test_laplace_maximum_principle():
    g = block_grid()
    b = extract_boundary(g)
    rng = np.random.default_rng(19)
    vals = rng.uniform(-2.0, 5.0, b.n)
    f = solve_laplace_component(g, b, vals, SOR_CFG)
    interior = f.values[g.free]
    assert interior.min() >= vals.min() - 1e-9
    assert interior.max() <= vals.max() + 1e-9


def test_guidance_requires_flux_and_scales_linearly():
    g = block_grid()
    b = extract_boundary(g)
    with pytest.raises(MalformedGrid):
        solve_guidance(g, b, SOR_CFG)
    rng = np.random.default_rng(23)
    beta = rng.uniform(1.0, 6.0, b.n)
    v1 = solve_guidance(g, b.with_flux(beta), SOR_CFG)
    v2 = solve_guidance(g, b.with_flux(2.5 * beta), SOR_CFG)
    for c1, c2 in ((v1.x, v2.x), (v1.y, v2.y)):
        scale = np.abs(c2.values[g.free] - 2.5 * c1.values[g.free]).max()
        denom = max(np.abs(c2.values[g.free]).max(), 1e-12)
        assert scale / denom < 1e-7


def test_guidance_matches_boundary_data_exactly():
    g = block_grid()
    b = extract_boundary(g)
    b = b.with_flux(np.linspace(1.0, 3.0, b.n))
    v = solve_guidance(g, b, SOR_CFG)
    ci, cj = b.cells[:, 0], b.cells[:, 1]
    assert np.array_equal(v.x.values[ci, cj], -b.flux * b.normals[:, 0])
    assert np.array_equal(v.y.values[ci, cj], -b.flux * b.normals[:, 1])


def test_divergence_identity_tracks_solver_residual():
    g = block_grid()
    b = extract_boundary(g)
    f = ForcingSpec()
    h_dense = dense_poisson(g, b)
    assert check_divergence_identity(h_dense, f, b) < 1e-10
    h_sor = solve_poisson(g, b, f, SOR_CFG)
    assert check_divergence_identity(h_sor, f, b) < 1e-5


def test_hopf_margins_negative_on_small_map():
    g = block_grid()
    b = extract_boundary(g)
    h = solve_poisson(g, b, ForcingSpec(), SOR_CFG)
    m = hopf_margins(h, b)
    assert m.shape == (b.n,)
    assert (m < 0).all()
