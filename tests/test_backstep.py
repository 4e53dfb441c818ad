"""Velocity-level smooth controller, shrunken barrier, acceleration filter."""

import math

import numpy as np
import pytest

from riskfields.backstep import (BackstepConfig, ExtendedState, filter_accel,
                                 h_B, hdot_B, k_v_jacobian, k_v_smooth,
                                 smooth_margin)
from riskfields.errors import (DegenerateCoefficient, OutOfDomain,
                               VanishingGuidance)
from riskfields.grid import ScalarField, VectorField
from riskfields.safety import GuidanceFieldBundle, SafetyFunction

from test_grid import box_grid


def affine_setup(h0=0.8, hx=0.35, hy=-0.2, vx=-1.1, vy=0.4, d=0.25):
    """Affine h, constant v: every sampled quantity is exact."""
    g = box_grid(20, 18, d=d)
    x = g.centers_x()[:, None]
    y = g.centers_y()[None, :]
    sf = SafetyFunction(ScalarField(g, h0 + hx * x + hy * y))
    gf = GuidanceFieldBundle(
        VectorField(ScalarField(g, np.full((g.nx, g.ny), vx)),
                    ScalarField(g, np.full((g.nx, g.ny), vy))))
    return g, sf, gf


# -- config and state ----------------------------------------------------------

def test_extended_state_must_be_finite():
    st = ExtendedState([1.0, 2.0], [0.0, 0.5])
    assert st.y.dtype == float
    with pytest.raises(ValueError):
        ExtendedState([np.nan, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        ExtendedState([0.0, 0.0], [np.inf, 0.0])


def test_backstep_config_validation():
    for kw in ({"mu": 0.0}, {"gamma": -1.0}, {"sigma_s": 0.0},
               {"eta_c": 0.0}, {"eta_v": -1e-9}):
        with pytest.raises(ValueError):
            BackstepConfig(**kw)
    cfg = BackstepConfig()
    with pytest.raises(ValueError):
        cfg.nominal([0.0, 0.0])


@pytest.mark.parametrize("name", ["mu", "gamma", "sigma_s", "eta_c", "eta_v"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_backstep_config_rejects_nonfinite(name, value):
    with pytest.raises(ValueError):
        BackstepConfig(**{name: value})


# -- smooth margin ---------------------------------------------------------------

def test_smooth_margin_matches_naive_form():
    for a in (-5.0, -0.3, 0.0, 0.7, 12.0):
        naive = 0.5 * (a + math.hypot(a, 0.1))
        assert smooth_margin(a, 0.1) == pytest.approx(naive, rel=1e-12,
                                                      abs=1e-300)


def test_smooth_margin_positive_under_cancellation():
    # naive form rounds to zero near a = -1e12; the two-branch form cannot
    m = smooth_margin(-1e12, 0.1)
    assert m > 0.0
    assert m == pytest.approx(0.01 / (4e12), rel=1e-6)


def test_smooth_margin_monotone_in_a():
    xs = np.linspace(-20, 20, 400)
    vals = [smooth_margin(a, 0.3) for a in xs]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert smooth_margin(0.0, 0.3) == pytest.approx(0.15)


# -- velocity controller -----------------------------------------------------------

def test_k_v_margin_identity():
    # v.k_v + gamma h collapses to smooth_margin(a) exactly
    g, sf, gf = affine_setup()
    cfg = BackstepConfig(mu=1.0, gamma=1.3, sigma_s=0.25)
    rng = np.random.default_rng(5)
    v = np.array([-1.1, 0.4])
    for _ in range(50):
        y = g.cell_center(3, 3) + rng.random(2) * 10 * g.d
        k = rng.normal(0, 2, 2)
        kv = k_v_smooth(y, k, sf, gf, cfg)
        a = float(v @ k) + cfg.gamma * sf.value(y)
        got = float(v @ kv) + cfg.gamma * sf.value(y)
        assert got == pytest.approx(smooth_margin(a, cfg.sigma_s), rel=1e-10,
                                    abs=1e-13)
        assert got > 0.0
        # the smooth gap dominates the hard ReLU step
        lam = 0.5 * (-a + math.hypot(a, cfg.sigma_s))
        assert lam >= max(0.0, -a)
        assert lam > 0.0


def test_k_v_requires_guidance():
    g, sf, _ = affine_setup()
    zero = GuidanceFieldBundle(
        VectorField(ScalarField(g, np.zeros((g.nx, g.ny))),
                    ScalarField(g, np.zeros((g.nx, g.ny)))))
    cfg = BackstepConfig()
    with pytest.raises(VanishingGuidance):
        k_v_smooth(g.cell_center(5, 5), np.zeros(2), sf, zero, cfg)


# -- jacobian --------------------------------------------------------------------

def test_k_v_jacobian_matches_analytic_on_affine():
    g, sf, gf = affine_setup()
    h0, hx, hy = 0.8, 0.35, -0.2
    v = np.array([-1.1, 0.4])
    A = np.array([[0.3, -0.5], [0.2, 0.1]])
    b = np.array([0.4, -0.1])
    cfg = BackstepConfig(mu=1.0, gamma=1.2, sigma_s=0.4,
                         k_nom_v=lambda p: A @ np.asarray(p) + b)
    nv2 = float(v @ v)
    grad_a = A.T @ v + cfg.gamma * np.array([hx, hy])
    rng = np.random.default_rng(0)
    for _ in range(40):
        p = g.cell_center(4, 4) + rng.random(2) * 8 * g.d
        a = float(v @ (A @ p + b)) + cfg.gamma * (h0 + hx * p[0] + hy * p[1])
        r = math.hypot(a, cfg.sigma_s)
        J_exact = A + np.outer(v / nv2, 0.5 * (a / r - 1.0) * grad_a)
        J = k_v_jacobian(p, sf, gf, cfg)
        assert np.abs(J - J_exact).max() < 2e-4  # measured 1.4e-5


def test_k_v_jacobian_column_order():
    # k_nom = (0, 2x) with constant h far from the constraint: the jacobian
    # must put the 2 at row 1 / column 0, not at its transpose slot
    g, sf, gf = affine_setup(h0=5.0, hx=0.0, hy=0.0, vx=0.0, vy=0.5)
    cfg = BackstepConfig(
        sigma_s=0.3, k_nom_v=lambda p: np.array([0.0, 2.0 * np.asarray(p)[0]]))
    J = k_v_jacobian(g.cell_center(8, 8), sf, gf, cfg)
    assert abs(J[1, 0] - 2.0) < 0.05
    assert abs(J[0, 1]) < 1e-9
    assert abs(J[0, 0]) < 1e-9
    assert abs(J[1, 1]) < 0.05


def test_k_v_jacobian_out_of_domain(disk_build):
    _, res = disk_build
    cfg = BackstepConfig(k_nom_v=lambda p: np.zeros(2))
    with pytest.raises(OutOfDomain):
        k_v_jacobian(np.array([50.0, 50.0]), res.sf, res.gf, cfg)


def test_k_v_jacobian_one_sided_fallback(disk_build):
    # near the lattice hull the +x probe leaves the sampleable region; the
    # one-sided branch must still return a finite jacobian
    _, res = disk_build
    sf, gf = res.sf, res.gf
    cfg = BackstepConfig(k_nom_v=lambda p: np.zeros(2))
    step = 0.5 * sf.grid.d
    y = np.array([0.995, 0.0])
    with pytest.raises(OutOfDomain):
        k_v_smooth(y + [step, 0], np.zeros(2), sf, gf, cfg)
    k_v_smooth(y - [step, 0], np.zeros(2), sf, gf, cfg)  # the -x probe works
    J = k_v_jacobian(y, sf, gf, cfg)
    assert np.isfinite(J).all()


# -- barrier and acceleration filter ------------------------------------------------

def bs_cfg(**kw):
    kw.setdefault("mu", 1.0)
    kw.setdefault("gamma", 1.0)
    kw.setdefault("sigma_s", 0.1)
    kw.setdefault("k_nom_v", lambda p: np.array([0.3, -0.2]))
    return BackstepConfig(**kw)


def test_h_B_never_exceeds_h(disk_build):
    _, res = disk_build
    cfg = bs_cfg()
    rng = np.random.default_rng(11)
    pts = res.grid.free_centers()
    for y in pts[rng.choice(len(pts), 40, replace=False)]:
        st = ExtendedState(y, rng.normal(0, 1, 2))
        try:
            hb = h_B(st, res.sf, res.gf, cfg)
        except (OutOfDomain, VanishingGuidance):
            continue
        assert hb <= res.sf.value(y) + 1e-12


def test_h_B_tight_on_the_manifold(disk_build):
    _, res = disk_build
    cfg = bs_cfg()
    y = np.array([0.3, 0.2])
    kv = k_v_smooth(y, cfg.nominal(y), res.sf, res.gf, cfg)
    st = ExtendedState(y, kv)
    assert h_B(st, res.sf, res.gf, cfg) == pytest.approx(res.sf.value(y))


def test_hdot_B_matches_finite_difference(disk_build):
    _, res = disk_build
    sf, gf = res.sf, res.gf
    cfg = bs_cfg()
    rng = np.random.default_rng(1)
    pts = res.grid.free_centers()
    tau = 1e-6
    used = 0
    for y in pts[rng.choice(len(pts), 60, replace=False)]:
        if sf.value(y) < 0.05:
            continue
        kv = k_v_smooth(y, cfg.nominal(y), sf, gf, cfg)
        ydot = kv + rng.normal(0, 0.01, 2)
        w = rng.normal(0, 0.5, 2)
        st = ExtendedState(y, ydot)
        try:
            hd = hdot_B(st, w, sf, gf, cfg)
            hp = h_B(ExtendedState(y + tau * ydot, ydot + tau * w), sf, gf, cfg)
            hm = h_B(ExtendedState(y - tau * ydot, ydot - tau * w), sf, gf, cfg)
        except (OutOfDomain, VanishingGuidance):
            continue
        assert abs((hp - hm) / (2 * tau) - hd) < 2e-4  # measured 1.6e-5
        used += 1
    assert used >= 30


def test_filter_accel_inactive_copy(disk_build):
    _, res = disk_build
    cfg = bs_cfg()
    y = np.array([0.3, 0.2])
    kv = k_v_smooth(y, cfg.nominal(y), res.sf, res.gf, cfg)
    st = ExtendedState(y, kv)  # on the manifold, resid = gamma h > 0
    w = np.array([0.1, 0.1])
    out = filter_accel(st, w, res.sf, res.gf, cfg)
    assert np.array_equal(out, w)
    assert out is not w


def test_filter_accel_zeroes_active_residual(disk_build):
    _, res = disk_build
    sf, gf = res.sf, res.gf
    cfg = bs_cfg()
    rng = np.random.default_rng(21)
    pts = res.grid.free_centers()
    active = 0
    for y in pts[rng.choice(len(pts), 80, replace=False)]:
        try:
            kv = k_v_smooth(y, cfg.nominal(y), sf, gf, cfg)
        except (OutOfDomain, VanishingGuidance):
            continue
        e = rng.normal(0, 0.5, 2)
        st = ExtendedState(y, kv + e)
        w_nom = rng.normal(0, 2.0, 2)
        try:
            before = hdot_B(st, w_nom, sf, gf, cfg) \
                + cfg.gamma * h_B(st, sf, gf, cfg)
            u = filter_accel(st, w_nom, sf, gf, cfg)
        except (OutOfDomain, VanishingGuidance):
            continue
        if before >= 0:
            assert np.array_equal(u, w_nom)
            continue
        active += 1
        after = hdot_B(st, u, sf, gf, cfg) + cfg.gamma * h_B(st, sf, gf, cfg)
        assert after == pytest.approx(0.0, abs=1e-9)
        # correction acts along the error direction
        dvec = u - w_nom
        err = st.ydot - kv
        assert dvec[0] * err[1] - dvec[1] * err[0] == pytest.approx(
            0.0, abs=1e-9 * max(1.0, np.abs(dvec).max()))
    assert active >= 10


def test_filter_accel_degenerate_coefficient(disk_build):
    # on the manifold (e = 0) the constraint has no lever arm; a violated
    # residual there must raise instead of silently passing w through
    _, res = disk_build
    sf, gf = res.sf, res.gf
    cfg = BackstepConfig(mu=1.0, gamma=1.0, sigma_s=0.1,
                         k_nom_v=lambda y: -5.0 * sf.grad_at(y))
    hit = None
    for y in res.grid.free_centers()[::7]:
        try:
            kv = k_v_smooth(y, cfg.nominal(y), sf, gf, cfg)
            st = ExtendedState(y, kv)
            resid = hdot_B(st, np.zeros(2), sf, gf, cfg) \
                + cfg.gamma * h_B(st, sf, gf, cfg)
        except (OutOfDomain, VanishingGuidance):
            continue
        if resid < -1e-3:
            hit = st
            break
    assert hit is not None
    with pytest.raises(DegenerateCoefficient):
        filter_accel(hit, np.zeros(2), sf, gf, cfg)
