"""Activation function, closed-form filter, and activation zones."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from riskfields.errors import GridMismatch, VanishingGuidance
from riskfields.grid import ScalarField, VectorField, sample_scalar
from riskfields.safety import (ActivationZone, FilterConfig,
                               GuidanceFieldBundle, SafetyFunction,
                               activation, activation_dynamic,
                               activation_zone, eval_controller,
                               filter_control, filter_control_dynamic)

from test_grid import box_grid


def const_fields(g, h0=0.5, vx=-1.0, vy=0.25, hx=0.0, hy=0.0):
    """Affine h and constant v; bilinear sampling is exact on both."""
    x = g.centers_x()[:, None]
    y = g.centers_y()[None, :]
    h = ScalarField(g, h0 + hx * x + hy * y + 0.0 * x)
    v = VectorField(ScalarField(g, np.full((g.nx, g.ny), vx)),
                    ScalarField(g, np.full((g.nx, g.ny), vy)))
    return SafetyFunction(h), GuidanceFieldBundle(v)


def zero_field(g):
    return ScalarField(g, np.zeros((g.nx, g.ny)))


# -- config -------------------------------------------------------------------

def test_filter_config_validation():
    for kw in ({"gamma": 0.0}, {"eps": -1.0}, {"eta_v": 0.0}):
        with pytest.raises(ValueError):
            FilterConfig(**kw)


@pytest.mark.parametrize("name", ["gamma", "eps", "eta_v"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_filter_config_rejects_nonfinite(name, value):
    with pytest.raises(ValueError):
        FilterConfig(**{name: value})


def test_sigma_shape():
    cfg = FilterConfig(eps=0.25)
    assert cfg.sigma(0.0) == 0.0
    assert cfg.sigma(-3.0) == 0.0  # clamped below zero
    s = cfg.sigma(np.array([0.1, 0.5, 2.0, 50.0]))
    assert (np.diff(s) > 0).all()
    assert s[-1] == pytest.approx(0.25, abs=1e-10)
    assert (s <= 0.25).all()


# -- pointwise activation and filter -------------------------------------------

def test_activation_formula():
    g = box_grid(12, 12, d=0.3)
    sf, gf = const_fields(g, h0=0.8, vx=-2.0, vy=0.5)
    cfg = FilterConfig(gamma=1.5)
    y = g.cell_center(5, 6) + 0.1
    k = np.array([0.7, -0.3])
    want = (-2.0 * 0.7 + 0.5 * -0.3) + 1.5 * 0.8
    assert activation(y, k, sf, gf, cfg) == pytest.approx(want, abs=1e-12)


def test_filter_inactive_returns_nominal_copy():
    g = box_grid(12, 12, d=0.3)
    sf, gf = const_fields(g, h0=2.0, vx=0.3, vy=0.0)
    cfg = FilterConfig(gamma=1.0)
    y = g.cell_center(6, 6)
    k = np.array([1.0, 2.0])
    out = filter_control(y, k, sf, gf, cfg)
    assert np.array_equal(out, k)
    assert out is not k  # caller may mutate without aliasing


def test_filter_active_zeroes_the_margin():
    g = box_grid(12, 12, d=0.3)
    sf, gf = const_fields(g, h0=0.2, vx=-1.5, vy=0.6)
    cfg = FilterConfig(gamma=1.0)
    y = g.cell_center(5, 5)
    k = np.array([2.0, 0.0])  # drives v.k well below -gamma h
    a = activation(y, k, sf, gf, cfg)
    assert a < 0
    u = filter_control(y, k, sf, gf, cfg)
    v = gf.value(y)
    post = float(v @ u) + cfg.gamma * sf.value(y)
    assert post == pytest.approx(0.0, abs=1e-12)
    # correction is parallel to v
    dvec = u - k
    assert dvec[0] * v[1] - dvec[1] * v[0] == pytest.approx(0.0, abs=1e-12)


def test_filter_matches_kkt_oracle(single_build):
    _, res = single_build
    sf = SafetyFunction(res.sf.h)
    gf = res.gf
    rng = np.random.default_rng(42)
    pts = res.grid.free_centers()
    pts = pts[rng.choice(len(pts), 150, replace=False)]
    pts = pts + (rng.random((150, 2)) - 0.5) * 0.5 * res.grid.d
    checked = 0
    for n, y in enumerate(pts):
        v = gf.value(y)
        nv = math.hypot(*v)
        if nv < 1e-3:
            continue
        cfg = FilterConfig(gamma=rng.uniform(0.5, 3.0))
        if n % 2:
            k = rng.normal(0.0, 2.0, 2)
        else:
            # push v.k below -gamma h so the constraint goes active
            h = sf.value(y)
            k = -(cfg.gamma * h / nv + 1.0) * np.asarray(v) / nv
            k += rng.normal(0.0, 0.2, 2)
        u = filter_control(y, k, sf, gf, cfg)
        if activation(y, k, sf, gf, cfg) >= 0:
            assert np.array_equal(u, k)
            continue
        # stationarity of the equality-constrained QP
        kkt = np.zeros((3, 3))
        kkt[:2, :2] = 2.0 * np.eye(2)
        kkt[:2, 2] = -v
        kkt[2, :2] = v
        sol = np.linalg.solve(kkt, np.array([2 * k[0], 2 * k[1],
                                             -cfg.gamma * sf.value(y)]))
        assert np.abs(u - sol[:2]).max() <= 1e-9 * max(1.0, np.abs(u).max())
        checked += 1
    assert checked >= 40  # the active branch got real coverage


def test_filter_matches_slsqp_on_spot_checks(single_build):
    _, res = single_build
    sf = SafetyFunction(res.sf.h)
    gf = res.gf
    cfg = FilterConfig(gamma=1.0)
    rng = np.random.default_rng(7)
    done = 0
    for y in res.grid.free_centers()[::37]:
        v = gf.value(y)
        if math.hypot(*v) < 1e-2:
            continue
        k = rng.normal(0.0, 3.0, 2)
        if activation(y, k, sf, gf, cfg) >= 0:
            continue
        u = filter_control(y, k, sf, gf, cfg)
        h = sf.value(y)
        ref = minimize(lambda q: float(((q - k) ** 2).sum()), k,
                       constraints=[{"type": "ineq",
                                     "fun": lambda q: float(v @ q) + cfg.gamma * h}],
                       method="SLSQP")
        assert ref.success
        assert np.abs(u - ref.x).max() <= 1e-5
        done += 1
        if done >= 5:
            break
    assert done >= 3


def test_vanishing_guidance_raises():
    g = box_grid(12, 12, d=0.3)
    sf, gf = const_fields(g, h0=-0.2, vx=0.0, vy=0.0)
    cfg = FilterConfig(gamma=1.0)
    y = g.cell_center(6, 6)
    with pytest.raises(VanishingGuidance):
        filter_control(y, np.zeros(2), sf, gf, cfg)


# -- time-varying activation ----------------------------------------------------

def test_dynamic_reduces_to_static_bitwise():
    g = box_grid(14, 12, d=0.25)
    sf, gf = const_fields(g, h0=0.6, vx=-1.0, vy=0.3)
    cfg = FilterConfig(gamma=2.0)
    dh = zero_field(g)
    rng = np.random.default_rng(3)
    for _ in range(25):
        y = g.cell_center(2, 2) + rng.random(2) * 6 * g.d
        k = rng.normal(0, 1, 2)
        assert activation_dynamic(y, 0.0, k, sf, dh, gf, cfg) \
            == activation(y, k, sf, gf, cfg)


def test_dynamic_term_sign():
    # receding obstacle (dh/dt > 0) relaxes the activation, approaching one
    # (dh/dt < 0) tightens it
    g = box_grid(14, 12, d=0.25)
    sf, gf = const_fields(g, h0=0.6, vx=-1.0, vy=0.3, hx=0.5)
    cfg = FilterConfig(gamma=2.0)
    y = g.cell_center(6, 6)
    k = np.array([0.4, 0.0])
    up = ScalarField(g, np.full((g.nx, g.ny), 0.7))
    dn = ScalarField(g, np.full((g.nx, g.ny), -0.7))
    a0 = activation_dynamic(y, 0.0, k, sf, zero_field(g), gf, cfg)
    assert activation_dynamic(y, 0.0, k, sf, up, gf, cfg) > a0
    assert activation_dynamic(y, 0.0, k, sf, dn, gf, cfg) < a0


def test_dynamic_filter_zeroes_shifted_margin():
    g = box_grid(14, 12, d=0.25)
    sf, gf = const_fields(g, h0=0.3, vx=-1.2, vy=0.1, hx=0.4)
    cfg = FilterConfig(gamma=1.0)
    y = g.cell_center(7, 5)
    k = np.array([1.5, 0.0])
    dh = ScalarField(g, np.full((g.nx, g.ny), -0.5))
    a = activation_dynamic(y, 0.0, k, sf, dh, gf, cfg)
    assert a < 0
    u = filter_control_dynamic(y, 0.0, k, sf, dh, gf, cfg)
    v = gf.value(y)
    assert float(v @ (u - k)) == pytest.approx(-a, abs=1e-12)


# -- batched controller evaluation ----------------------------------------------

def test_eval_controller_vectorized_and_loop_agree():
    pts = np.array([[0.1, 0.2], [1.0, -1.0], [2.0, 0.5]])

    def vec(ys):
        return -2.0 * np.asarray(ys)

    def pointwise(y):
        if np.asarray(y).ndim != 1:
            raise TypeError("points only")
        return -2.0 * np.asarray(y)

    assert np.allclose(eval_controller(vec, pts), -2.0 * pts)
    assert np.allclose(eval_controller(pointwise, pts), -2.0 * pts)


# -- activation zones -------------------------------------------------------------

def adversarial_k(res, mu=1.0):
    from riskfields.sim import adversarial_controller
    return adversarial_controller(mu, res.sf)


def test_zone_recounts_pointwise(single_build):
    sc, res = single_build
    k_nom = adversarial_k(res)
    cfg = res.filter_cfg
    zone = activation_zone(res.grid, k_nom, res.sf, res.gf, cfg)
    g = res.grid
    # recompute a on the lattice straight from the fields
    ks = eval_controller(k_nom, g.free_centers())
    ii, jj = g.free_cells()
    vk = (res.gf.v.x.values[ii, jj] * ks[:, 0]
          + res.gf.v.y.values[ii, jj] * ks[:, 1])
    a = vk + cfg.gamma * res.sf.h.values[ii, jj]
    assert np.allclose(zone.a.values[ii, jj], a)
    active = a <= 0
    assert zone.cell_count == int(active.sum())
    assert zone.cell_count_restricted == int((active & (vk <= 0)).sum())
    assert zone.cell_count_restricted <= zone.cell_count
    assert zone.area == pytest.approx(zone.cell_count * g.d ** 2)
    assert (zone.active_restricted & ~zone.active).sum() == 0


def test_zone_contour_lies_on_zero_level(single_build):
    _, res = single_build
    zone = activation_zone(res.grid, adversarial_k(res), res.sf, res.gf,
                           res.filter_cfg)
    assert zone.polylines
    worst = 0.0
    for line in zone.polylines:
        for p in line:
            worst = max(worst, abs(sample_scalar(zone.a, p)))
    scale = np.nanmax(np.abs(zone.a.values))
    assert worst <= 1e-9 * max(1.0, scale)


def test_zone_empty_for_zero_controller(single_build):
    _, res = single_build
    zone = activation_zone(res.grid, lambda ys: np.zeros_like(np.asarray(ys)),
                           res.sf, res.gf, res.filter_cfg)
    # a = gamma h > 0 on free space: nothing active, no contour
    assert zone.cell_count == 0
    assert zone.polylines == []


def test_zone_grid_mismatch():
    g1 = box_grid(12, 12, d=0.3)
    g2 = box_grid(12, 12, d=0.4)
    sf, gf = const_fields(g1)
    cfg = FilterConfig()
    with pytest.raises(GridMismatch):
        activation_zone(g2, lambda ys: np.zeros_like(np.asarray(ys)), sf, gf,
                        cfg)
    with pytest.raises(GridMismatch):
        activation_zone(g1, lambda ys: np.zeros_like(np.asarray(ys)), sf, gf,
                        cfg, dh_dt=zero_field(g2))


def test_zone_dynamic_zero_matches_static(single_build):
    _, res = single_build
    k_nom = adversarial_k(res)
    z0 = activation_zone(res.grid, k_nom, res.sf, res.gf, res.filter_cfg)
    z1 = activation_zone(res.grid, k_nom, res.sf, res.gf, res.filter_cfg,
                         dh_dt=zero_field(res.grid))
    ii, jj = res.grid.free_cells()
    assert np.array_equal(z0.a.values[ii, jj], z1.a.values[ii, jj])
    assert np.array_equal(z0.active, z1.active)


def test_zone_csv_outputs(tmp_path, single_build):
    _, res = single_build
    zone = activation_zone(res.grid, adversarial_k(res), res.sf, res.gf,
                           res.filter_cfg)
    sign_path = tmp_path / "sign.csv"
    zone.write_sign_csv(sign_path)
    sign = np.loadtxt(sign_path, delimiter=",", dtype=int)
    assert sign.shape == (res.grid.ny, res.grid.nx)
    vals = np.unique(sign)
    assert set(vals.tolist()) <= {-1, 0, 1}
    assert (sign == -1).sum() == zone.cell_count

    poly_path = tmp_path / "contours.csv"
    zone.write_polylines(poly_path)
    rows = [ln.split(",") for ln in poly_path.read_text().splitlines()]
    assert all(len(r) == 3 for r in rows)
    ids = sorted({int(r[0]) for r in rows})
    assert ids == list(range(len(zone.polylines)))
