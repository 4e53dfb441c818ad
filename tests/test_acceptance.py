"""End-to-end guarantees, one test per advertised criterion.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion.  Criterion 1 is a strict xfail: the ghost scheme is first
order in d on curved boundaries, so the quadratic-accuracy target is out
of reach with this stencil.  The test stays in the suite unweakened to
keep the honest number visible.
"""

import dataclasses
import time

import numpy as np
import pytest
import yaml

from riskfields.backstep import ExtendedState, h_B, k_v_smooth
from riskfields.elliptic import (ForcingSpec, check_divergence_identity,
                                 hopf_margins, solve_poisson)
from riskfields.errors import OutOfDomain
from riskfields.safety import FilterConfig, activation, activation_zone, \
    filter_control
from riskfields.scenario import Scenario
from riskfields.sim import (adversarial_controller, goal_controller,
                            integrate_double, integrate_single, run_dynamic)

from conftest import SCENARIOS
from test_elliptic import SOR_CFG, disk_grid


def _all(disk, single, three, uncertain, semantic):
    return (disk, single, three, uncertain, semantic)


@pytest.mark.xfail(strict=True, reason="staircase boundary cells keep the "
                   "error first order in d; the quadratic target needs a "
                   "cut-cell or interpolated boundary stencil")
def test_criterion_1():
    # disk R=1, f=-4: exact solution is R^2 - r^2
    t0 = time.perf_counter()
    errs = {}
    for d in (0.04, 0.02):
        g, X, Y = disk_grid(d)
        h = solve_poisson(g, None, ForcingSpec(), SOR_CFG)
        exact = 1.0 - (X * X + Y * Y)
        errs[d] = float(np.abs(h.values - exact)[g.free].max())
    assert time.perf_counter() - t0 <= 10.0
    assert errs[0.04] / errs[0.02] >= 3.0  # measured 1.63
    assert errs[0.02] <= 2e-3              # measured 2.14e-2


def test_criterion_2(disk_build, single_build, three_build, uncertain_build,
                     semantic_build):
    # repulsive gradient on every boundary node of every shipped map
    for _, res in _all(disk_build, single_build, three_build,
                       uncertain_build, semantic_build):
        m = hopf_margins(res.sf.h, res.boundary)
        assert (m < 0.0).all()


def test_criterion_3(disk_build, single_build, three_build, uncertain_build,
                     semantic_build):
    # forcing volume integral vs boundary flux, within 5% on every map
    # with at least 64 cells per side (all five static maps qualify)
    for _, res in _all(disk_build, single_build, three_build,
                       uncertain_build, semantic_build):
        assert min(res.grid.nx, res.grid.ny) >= 64
        rel = check_divergence_identity(res.sf.h, ForcingSpec(),
                                        res.boundary)
        assert rel <= 0.05


def test_criterion_4(disk_build, single_build, three_build, uncertain_build,
                     semantic_build):
    for _, res in _all(disk_build, single_build, three_build,
                       uncertain_build, semantic_build):
        b = res.boundary
        ci, cj = b.cells[:, 0], b.cells[:, 1]
        ex = res.gf.v.x.values[ci, cj] + b.flux * b.normals[:, 0]
        ey = res.gf.v.y.values[ci, cj] + b.flux * b.normals[:, 1]
        assert np.hypot(ex, ey).max() <= 1e-9

    # linearity: scaling the flux scales the whole field
    sc, base = single_build
    scaled = sc.build(flux_scale=2.5)
    free = base.grid.free
    num = max(np.abs(scaled.gf.v.x.values[free]
                     - 2.5 * base.gf.v.x.values[free]).max(),
              np.abs(scaled.gf.v.y.values[free]
                     - 2.5 * base.gf.v.y.values[free]).max())
    den = 2.5 * max(np.abs(base.gf.v.x.values[free]).max(),
                    np.abs(base.gf.v.y.values[free]).max())
    assert num <= 1e-7 * den


def _kkt_reference(y, k, gamma, sf, gf):
    """Constrained least squares by hand: min ||u-k||^2 s.t. v.u+gamma*h>=0."""
    h = sf.value(y)
    v = np.asarray(gf.value(y), dtype=float)
    if float(v @ k) + gamma * h >= 0.0:
        return np.asarray(k, dtype=float)
    A = np.array([[2.0, 0.0, -v[0]],
                  [0.0, 2.0, -v[1]],
                  [v[0], v[1], 0.0]])
    rhs = np.array([2.0 * k[0], 2.0 * k[1], -gamma * h])
    return np.linalg.solve(A, rhs)[:2]


def test_criterion_5(disk_build, single_build, three_build, uncertain_build,
                     semantic_build):
    rng = np.random.default_rng(17)
    for _, res in _all(disk_build, single_build, three_build,
                       uncertain_build, semantic_build):
        pts = res.grid.free_centers()
        checked = attempts = 0
        while checked < 1000:
            attempts += 1
            assert attempts < 20000
            y = pts[rng.integers(len(pts))] \
                + rng.uniform(-0.3, 0.3, 2) * res.grid.d
            try:
                v = np.asarray(res.gf.value(y), dtype=float)
            except OutOfDomain:
                continue
            if np.hypot(*v) < 1e-3:
                continue
            k = rng.normal(0.0, 2.0, 2)
            gamma = float(rng.uniform(0.5, 5.0))
            cfg = FilterConfig(gamma=gamma, eps=res.filter_cfg.eps)
            u = np.asarray(filter_control(y, k, res.sf, res.gf, cfg))
            ref = _kkt_reference(y, k, gamma, res.sf, res.gf)
            assert np.linalg.norm(u - ref) \
                <= 1e-7 * (1.0 + np.linalg.norm(ref))
            checked += 1


def test_criterion_6(disk_build, single_build, three_build, uncertain_build,
                     semantic_build):
    for sc, res in _all(disk_build, single_build, three_build,
                        uncertain_build, semantic_build):
        s = sc.sim_cfg
        y0 = np.asarray(s["y0"], dtype=float)
        goal = np.asarray(s.get("goal", sc.nominal_goal), dtype=float)
        runs = [(goal_controller(sc.nominal_mu, goal), goal),
                (adversarial_controller(sc.nominal_mu, res.sf), None)]
        for controller, stop in runs:
            t0 = time.perf_counter()
            tr = integrate_single(y0, controller, res.sf, res.gf,
                                  res.filter_cfg, s["dt"], s["T"], goal=stop)
            assert time.perf_counter() - t0 <= 5.0
            assert tr.h.min() >= -res.grid.d
            assert tr.audit.min() >= -1e-6


def test_criterion_7(three_build):
    # more flux on the swept obstacle: bigger restricted zone, wider berth
    sc, _ = three_build
    idx = sc.sweep_obstacle
    restricted, clearance = [], []
    for c in (1.0, 2.0, 3.0):
        b = sc.build(flux_scale={idx: c})
        controller = sc.controller(b)
        zone = activation_zone(b.grid, controller, b.sf, b.gf, b.filter_cfg)
        restricted.append(zone.cell_count_restricted)
        s = sc.sim_cfg
        goal = np.asarray(s.get("goal", sc.nominal_goal), dtype=float)
        tr = integrate_single(np.asarray(s["y0"], dtype=float), controller,
                              b.sf, b.gf, b.filter_cfg, s["dt"], s["T"],
                              goal=goal)
        ii, jj = np.nonzero(sc.obstacle_masks(0.0)[idx] & ~b.grid.free)
        centers = b.grid.origin + b.grid.d \
            * np.column_stack([ii, jj]).astype(float)
        clearance.append(min(float(np.hypot(*(centers - p).T).min())
                             for p in tr.y))
    assert restricted[0] <= restricted[1] <= restricted[2]  # 301, 448, 606
    assert restricted[2] > restricted[0]
    assert clearance[0] <= clearance[1] <= clearance[2]
    assert clearance[2] > clearance[0]  # 0.0026, 0.0087, 0.036


def spearman(x, y):
    """Spearman's rho as scipy.stats.spearmanr computes it: Pearson's r
    (np.corrcoef) of the ranks, tied values sharing their average rank."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        r = np.empty(len(v))
        r[np.argsort(v, kind="stable")] = np.arange(1, len(v) + 1)
        _, tie = np.unique(v, return_inverse=True)
        return (np.bincount(tie, weights=r) / np.bincount(tie))[tie]

    return float(np.corrcoef(np.stack([ranks(x), ranks(y)], axis=1),
                             rowvar=False)[1, 0])


def test_criterion_8(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "moving_block.yaml").read_text())
    sc = Scenario(doc)
    s = sc.sim_cfg
    dres = run_dynamic(sc, s["dt_frame"], s["dt"], s["T"])
    tr = dres.trajectory
    assert tr.h.min() >= -0.06
    assert tr.audit.min() >= -1e-6
    speeds = [f.speed for f in dres.frames]
    counts = [f.zone.cell_count_restricted for f in dres.frames]
    rho = spearman(speeds, counts)
    assert rho >= 0.75  # measured 0.90

    # speed zero collapses the dynamic pipeline onto the static one, bit
    # for bit
    frozen = yaml.safe_load((SCENARIOS / "moving_block.yaml").read_text())
    frozen["motion"][0]["profile"] = {"kind": "constant", "speed": 0.0}
    frozen["sim"]["T"] = 2.0
    sc0 = Scenario(frozen)
    dz = run_dynamic(sc0, s["dt_frame"], s["dt"], 2.0)
    b0 = sc0.build()
    ref = integrate_single(np.asarray(s["y0"], dtype=float),
                           sc0.controller(b0), b0.sf, b0.gf, b0.filter_cfg,
                           s["dt"], 2.0, goal=None)
    for name in ("t", "y", "u_nom", "u_filt", "h", "a", "audit"):
        assert np.array_equal(getattr(dz.trajectory, name),
                              getattr(ref, name))
    assert dz.trajectory.termination == ref.termination


def test_criterion_9(single_build):
    sc, res = single_build
    bcfg = res.backstep_cfg
    s = sc.sim_cfg
    y0 = np.asarray(s["y0"], dtype=float)
    goal = np.asarray(s.get("goal", sc.nominal_goal), dtype=float)

    def acc(y, ydot):
        return bcfg.mu * (bcfg.nominal(y) - ydot)

    starts = [k_v_smooth(y0, bcfg.nominal(y0), res.sf, res.gf, bcfg),
              np.array([2.55, 0.25])]
    for ydot0 in starts:
        st = ExtendedState(y0, np.asarray(ydot0, dtype=float))
        assert h_B(st, res.sf, res.gf, bcfg) >= 0.0
        tr = integrate_double(st, acc, res.sf, res.gf, bcfg, s["dt"], s["T"],
                              goal=goal)
        assert tr.h.min() >= -res.grid.d

    rng = np.random.default_rng(7)
    pts = res.grid.free_centers()
    pts = pts[rng.permutation(len(pts))[:300]]

    # margin stays strictly positive wherever the guidance is usable
    checked = 0
    for y in pts:
        v = np.asarray(res.gf.value(y), dtype=float)
        if np.hypot(*v) < 1e-2:
            continue
        kv = np.asarray(k_v_smooth(y, bcfg.nominal(y), res.sf, res.gf, bcfg))
        assert float(v @ kv) + bcfg.gamma * res.sf.value(y) > 0.0
        checked += 1
    assert checked >= 250

    # halving sigma_s more than halves the gap to the min-norm filter
    devs = []
    for sig in (0.2, 0.1, 0.05):
        c = dataclasses.replace(bcfg, sigma_s=sig)
        worst = 0.0
        for y in pts:
            v = np.asarray(res.gf.value(y), dtype=float)
            if np.hypot(*v) < 1e-2:
                continue
            hard = np.asarray(filter_control(y, bcfg.nominal(y), res.sf,
                                             res.gf, res.filter_cfg))
            sm = np.asarray(k_v_smooth(y, bcfg.nominal(y), res.sf, res.gf,
                                       c))
            worst = max(worst, float(np.linalg.norm(sm - hard)))
        devs.append(worst)
    assert devs[1] <= 0.5 * devs[0]  # measured ratio 0.25
    assert devs[2] <= 0.5 * devs[1]


def test_criterion_10(semantic_build):
    sc, res = semantic_build
    g, b = res.grid, res.boundary
    doc = yaml.safe_load((SCENARIOS / "semantic_room.yaml").read_text())
    lo = doc["risk"]["flux"]["beta_min"]
    hi = doc["risk"]["flux"]["beta_max"]
    alpha = doc["risk"]["assign"]["alpha"]
    names = {v: k for k, v in sc.label_ids.items()}
    feats = sc.node_features(g, b)
    by_class = {}
    for i in range(b.n):
        by_class.setdefault(names[int(feats[i].value)], []).append(i)
    assert set(by_class) == {"wall", "chair", "person"}

    means = {}
    for name, idx in by_class.items():
        f = b.flux[idx]
        assert np.ptp(f) <= 1e-12  # one plateau per class
        expect = lo + (hi - lo) * -np.expm1(
            -alpha * doc["risk"]["priorities"][name])
        assert f.mean() == pytest.approx(expect, rel=1e-12)
        means[name] = float(f.mean())
    assert means["wall"] < means["chair"] < means["person"]

    # probe depth: walk inward from each node with a unit descent nominal
    # until the filter lets go; mean depth follows the priority order
    def descent(y):
        gr = res.sf.grad_at(y)
        return -gr / np.linalg.norm(gr)

    step = g.d / 2.0
    depths = {}
    for name, idx in by_class.items():
        acc = []
        for i in idx:
            pos = g.cell_center(*b.cells[i])
            nhat = b.normals[i]
            for k in range(1, 201):
                y = pos - k * step * nhat
                try:
                    a = activation(y, descent(y), res.sf, res.gf,
                                   res.filter_cfg)
                except OutOfDomain:
                    break
                if a > 0.0:
                    acc.append(k * step)
                    break
        assert len(acc) >= 30
        depths[name] = float(np.mean(acc))
    # measured 0.213 / 0.253 / 0.303
    assert depths["wall"] < depths["chair"] < depths["person"]
