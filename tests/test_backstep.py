"""Velocity-level smooth controller, shrunken barrier, acceleration filter."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from riskfields.backstep import (BackstepConfig, ExtendedState, _eps2,
                                 accel_kernel, filter_accel, h_B, hdot_B,
                                 k_v_jacobian, k_v_smooth)
from riskfields.errors import (DegenerateCoefficient, OutOfDomain,
                               VanishingGuidance)
from riskfields.grid import FieldSampler, ScalarField, VectorField, point_xy
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


def k_v_safe(y, sf, gf, cfg):
    """The barrier's velocity k_v_safe at y, from cfg's nominal there."""
    p, k = point_xy(y), point_xy(cfg.nominal(y))
    kernel = accel_kernel(FieldSampler(sf, gf, snapshot=False),
                          lambda px, py, s: k, cfg)
    return np.array(kernel.k_v(*p)[3:])


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

def smooth_margin(a, sigma_s):
    """(a + sqrt(a^2 + sigma_s^2)) / 2 evaluated without cancellation: the
    value of v.k_v + gamma h after the smooth correction, positive for every
    finite a.  The oracle for k_v below."""
    r = math.hypot(a, sigma_s)
    if a >= 0.0:
        return 0.5 * (a + r)
    return sigma_s * sigma_s / (2.0 * (r - a))


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

def affine_jacobian():
    """(g, sf, gf, cfg, J_exact) on affine_setup(d=0.1) with an affine
    nominal, J_exact(p) the analytic Jacobian of k_v_safe.

    J of k_v_safe = k_v + lambda_s(a_s) Dh / (||Dh||^2 + eps^2), with
    a_s = Dh.k_v + gamma h, is J_kv plus the outer product of that
    direction with lambda_s'(a_s) grad a_s.  d = 0.1 keeps the central
    differences' truncation error (step d/2) well below the tests' bounds.
    J_exact(p, kv_only=True) is J_kv alone."""
    g, sf, gf = affine_setup(d=0.1)
    h0, hx, hy = 0.8, 0.35, -0.2
    v = np.array([-1.1, 0.4])
    Dh = np.array([hx, hy])
    A = np.array([[0.3, -0.5], [0.2, 0.1]])
    b = np.array([0.4, -0.1])
    cfg = BackstepConfig(mu=1.0, gamma=1.2, sigma_s=0.4,
                         k_nom_v=lambda p: A @ np.asarray(p) + b)
    nv2 = float(v @ v)
    toward = Dh / (float(Dh @ Dh) + _eps2(g))
    grad_a = A.T @ v + cfg.gamma * Dh

    def J_exact(p, kv_only=False):
        h = h0 + hx * p[0] + hy * p[1]
        a = float(v @ (A @ p + b)) + cfg.gamma * h
        r = math.hypot(a, cfg.sigma_s)
        kv = A @ p + b + 0.5 * (-a + r) / nv2 * v
        J_kv = A + np.outer(v / nv2, 0.5 * (a / r - 1.0) * grad_a)
        if kv_only:
            return J_kv
        a_s = float(Dh @ kv) + cfg.gamma * h
        r_s = math.hypot(a_s, cfg.sigma_s)
        return J_kv + np.outer(
            toward, 0.5 * (a_s / r_s - 1.0) * (J_kv.T @ Dh + cfg.gamma * Dh))

    return g, sf, gf, cfg, J_exact


def test_k_v_jacobian_matches_analytic_on_affine():
    g, sf, gf, cfg, J_exact = affine_jacobian()
    rng = np.random.default_rng(0)
    for _ in range(40):
        p = g.cell_center(4, 4) + rng.random(2) * 8 * g.d
        J = k_v_jacobian(p, sf, gf, cfg)
        assert np.abs(J - J_exact(p)).max() < 2e-4  # measured 2.7e-5
        # the Dh correction's own term is far above the bound (0.019 at
        # least), so J_kv alone would fail
        assert np.abs(J_exact(p) - J_exact(p, kv_only=True)).max() > 50 * 2e-4


def test_J_ydot_matches_analytic_on_affine():
    # the filter's J ydot is one difference along ydot, not J from the
    # axes: within 2e-4 |ydot| of the analytic J ydot, diagonals included
    g, sf, gf, cfg, J_exact = affine_jacobian()
    terms = accel_kernel(FieldSampler(sf, gf, snapshot=False),
                         cfg.nominal_at(sf), cfg)
    rng = np.random.default_rng(3)
    diagonal = [(1.0, 1.0), (-1.0, 1.0), (2.5, -2.5), (-0.3, -0.3)]
    for i in range(60):
        p = g.cell_center(4, 4) + rng.random(2) * 8 * g.d
        ydot = (np.array(diagonal[i]) if i < len(diagonal)
                else rng.normal(0.0, 2.0, 2))
        got = np.array(terms(*p.tolist(), *ydot.tolist())[4])
        err = np.abs(got - J_exact(p) @ ydot).max() / np.hypot(*ydot)
        assert err < 2e-4, (p, ydot)     # measured 8.6e-5


def raising_nominal(p, k):
    """A point-form nominal that returns k at p and raises OutOfDomain at
    every other point, as a probe off the sampleable region would."""
    def at(qx, qy, s):
        if (qx, qy) != p:
            raise OutOfDomain(f"probe at {(qx, qy)}")
        return k
    return at


def test_J_ydot_zero_speed_takes_no_probe():
    g, sf, gf = affine_setup()
    cfg = BackstepConfig(sigma_s=0.3)
    p = tuple(g.cell_center(8, 8).tolist())
    terms = accel_kernel(FieldSampler(sf, gf, snapshot=False),
                         raising_nominal(p, (0.3, -0.2)), cfg)
    with pytest.raises(OutOfDomain, match="no valid probes"):
        terms(*p, 0.5, 0.0)             # every probe raises
    for ydot in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
        jv = terms(*p, *ydot)[4]
        assert [x.hex() for x in jv] == [(0.0).hex()] * 2


@pytest.mark.parametrize("ydot", [(5e-324, 0.0), (-5e-324, 5e-324),
                                  (1e-310, -3e-320)])
def test_J_ydot_finite_at_a_subnormal_speed(ydot):
    # ydot is normalised before the step, so d/2 / |ydot| never appears
    g, sf, gf, cfg, _ = affine_jacobian()
    terms = accel_kernel(FieldSampler(sf, gf, snapshot=False),
                         cfg.nominal_at(sf), cfg)
    jv = terms(*g.cell_center(8, 8).tolist(), *ydot)[4]
    assert all(math.isfinite(x) for x in jv)


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
    st = ExtendedState(y, k_v_safe(y, res.sf, res.gf, cfg))
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
            kv = k_v_safe(y, sf, gf, cfg)
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


def _manifold_residual(y, w, sf, gf, cfg):
    """(state, hdot_B(w) + gamma h_B) on the manifold ydot = k_v_safe(y),
    where that residual is Dh.k_v_safe + gamma h - e.(...) with e = 0."""
    st = ExtendedState(y, k_v_safe(y, sf, gf, cfg))
    return st, (hdot_B(st, w, sf, gf, cfg) + cfg.gamma * h_B(st, sf, gf, cfg))


def test_filter_accel_degenerate_coefficient(disk_build):
    # on the manifold (e = 0) the constraint has no lever arm; a violated
    # residual there must raise instead of silently passing w through.
    # There the residual is Dh.k_v_safe + gamma h, which k_v_safe keeps
    # positive wherever ||Dh|| >> eps: a nominal straight into the obstacle
    # finds no violation on the disk ...
    _, res = disk_build
    sf, gf = res.sf, res.gf
    cfg = BackstepConfig(mu=1.0, gamma=1.0, sigma_s=0.1,
                         k_nom_v=lambda y: -5.0 * sf.grad_at(y))
    checked = 0
    for y in res.grid.free_centers()[::7]:
        try:
            _, resid = _manifold_residual(y, np.zeros(2), sf, gf, cfg)
        except (OutOfDomain, VanishingGuidance):
            continue
        assert resid > 0.0
        checked += 1
    assert checked >= 100
    # ... but where h is nearly flat (||Dh||^2 = 1e-4 against eps^2 =
    # 2.5e-3) the regularised correction is too weak for a nominal of
    # 1000 against Dh, and the violation must raise
    g, sf, gf = affine_setup(h0=0.8, hx=0.01, hy=0.0)
    cfg = BackstepConfig(mu=1.0, gamma=1.0, sigma_s=0.1,
                         k_nom_v=lambda y: np.array([-1000.0, 0.0]))
    hit, resid = _manifold_residual(g.cell_center(8, 8), np.zeros(2), sf, gf,
                                    cfg)
    assert resid < -1e-3
    with pytest.raises(DegenerateCoefficient):
        filter_accel(hit, np.zeros(2), sf, gf, cfg)


def test_k_v_safe_is_safe_for_h(disk_build):
    # Dh.k_v_safe + gamma h > 0 where Dh.k_v + gamma h < 0, for a nominal
    # straight into the obstacle; the guidance margin v.k_v + gamma h stays
    # k_v_smooth's
    _, res = disk_build
    sf, gf = res.sf, res.gf
    cfg = BackstepConfig(mu=1.0, gamma=1.0, sigma_s=0.1,
                         k_nom_v=lambda y: -5.0 * sf.grad_at(y))
    unsafe = 0
    for y in res.grid.free_centers()[::7]:
        try:
            kv = k_v_smooth(y, cfg.nominal(y), sf, gf, cfg)
            ks = k_v_safe(y, sf, gf, cfg)
        except (OutOfDomain, VanishingGuidance):
            continue
        Dh, h = sf.grad_at(y), sf.value(y)
        unsafe += float(Dh @ kv) + cfg.gamma * h < 0.0
        assert float(Dh @ ks) + cfg.gamma * h > 0.0
    assert unsafe >= 50


def test_k_v_safe_bounded_at_the_maximum_of_h():
    # Dh = 0 at the top of a paraboloid h: the correction vanishes there
    # and stays below lambda_s / (2 eps) next to it, where an unregularised
    # lambda_s Dh / ||Dh||^2 grows without bound
    g = box_grid(20, 18, d=0.25)
    x = g.centers_x()[:, None] - g.cell_center(10, 9)[0]
    y = g.centers_y()[None, :] - g.cell_center(10, 9)[1]
    sf = SafetyFunction(ScalarField(g, 4.0 - x * x - y * y))
    _, _, gf = affine_setup()
    cfg = BackstepConfig(sigma_s=0.1, k_nom_v=lambda p: np.array([0.3, 0.1]))
    top = g.cell_center(10, 9)
    fs = FieldSampler(sf, gf, snapshot=False)
    eps = math.sqrt(_eps2(g))
    for off in (0.0, 1e-9, 1e-4, 1e-2, 0.1):
        p = tuple(top + off * g.d)
        s = fs.at(*p)
        kv = k_v_smooth(p, cfg.nominal(p), sf, gf, cfg)
        ks = k_v_safe(p, sf, gf, cfg)
        a_s = s[3] * kv[0] + s[4] * kv[1] + cfg.gamma * s[0]
        lam = smooth_margin(a_s, cfg.sigma_s) - a_s
        gap = math.hypot(ks[0] - kv[0], ks[1] - kv[1])
        assert gap <= lam / (2.0 * eps) * (1 + 1e-12)
        if off == 0.0:
            assert gap == 0.0


# -- accel_kernel against the layered path ---------------------------------------
# The layered path is the one accel_kernel replaced: FieldSampler.at, the
# nominal, k_v and k_v_safe as separate steps, and the central differences
# with their one-sided fallback, along each axis for the jacobian and along
# ydot for terms' J ydot.  The kernel must give its bits and errors.

def _layered_k_v(q, at, fs, cfg, safe=True):
    """(h, dh/dx, dh/dy, kx, ky) at q, k = k_v_safe or with safe=False
    k_v, from one FieldSampler.at sample."""
    qx, qy = q
    s = fs.at(qx, qy)
    h, vx, vy, hx, hy = s[:5]
    kx, ky = at(qx, qy, s)
    nv2 = vx * vx + vy * vy
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance(
            f"||v||={math.sqrt(nv2):.3e} below eta_v at {tuple(q)}")
    a = (vx * kx + vy * ky) + cfg.gamma * h
    lam = 0.5 * (-a + math.hypot(a, cfg.sigma_s))
    c = lam / nv2
    kx, ky = kx + c * vx, ky + c * vy
    if not safe:
        return h, hx, hy, kx, ky
    a = (hx * kx + hy * ky) + cfg.gamma * h
    c = 0.5 * (-a + math.hypot(a, cfg.sigma_s)) / (hx * hx + hy * hy
                                                   + _eps2(fs.grid))
    return h, hx, hy, kx + c * hx, ky + c * hy


def _layered_jacobian(p, kv, at, fs, cfg, seen):
    """Columns of J of k_v_safe at p, kv = k_v_safe(p) or None; seen counts
    the branch each axis takes."""
    step = 0.5 * fs.grid.d
    px, py = p

    def k_v_at(q):
        return _layered_k_v(q, at, fs, cfg)[3:]

    cols = []
    for hi_p, lo_p in (((px + step, py), (px - step, py)),
                       ((px, py + step), (px, py - step))):
        hi = lo = None
        try:
            hi = k_v_at(hi_p)
        except OutOfDomain:
            pass
        try:
            lo = k_v_at(lo_p)
        except OutOfDomain:
            pass
        if hi is not None and lo is not None:
            seen["central"] += 1
            w = 2.0 * step
        elif hi is not None:
            seen["lo out"] += 1
            lo, w = (k_v_at(p) if kv is None else kv), step
        elif lo is not None:
            seen["hi out"] += 1
            hi, w = (k_v_at(p) if kv is None else kv), step
        else:
            seen["both out"] += 1
            raise OutOfDomain(f"no valid probes around {tuple(p)}")
        cols.append(((hi[0] - lo[0]) / w, (hi[1] - lo[1]) / w))
    return cols


def _layered_J_ydot(p, ydot, kv, at, fs, cfg, seen):
    """J ydot at p as one difference of k_v_safe along ydot / |ydot|, times
    |ydot|, kv = k_v_safe(p); seen counts the branch taken."""
    speed = math.hypot(*ydot)
    if speed == 0.0:
        return 0.0, 0.0
    ux, uy = ydot[0] / speed, ydot[1] / speed
    step = 0.5 * fs.grid.d
    px, py = p

    def k_v_at(q):
        try:
            return _layered_k_v(q, at, fs, cfg)[3:]
        except OutOfDomain:
            return None

    hi = k_v_at((px + step * ux, py + step * uy))
    lo = k_v_at((px - step * ux, py - step * uy))
    if hi is not None and lo is not None:
        seen["central"] += 1
        w = 2.0 * step
    elif hi is not None:
        seen["lo out"] += 1
        lo, w = kv, step
    elif lo is not None:
        seen["hi out"] += 1
        hi, w = kv, step
    else:
        seen["both out"] += 1
        raise OutOfDomain(f"no valid probes around {tuple(p)}")
    return ((hi[0] - lo[0]) / w * speed, (hi[1] - lo[1]) / w * speed)


def _layered_terms(p, ydot, at, fs, cfg, seen):
    h, hx, hy, kx, ky = _layered_k_v(p, at, fs, cfg)
    vx, vy = ydot
    e = (vx - kx, vy - ky)
    return (h, e, h - (e[0] * e[0] + e[1] * e[1]) / (2.0 * cfg.mu),
            hx * vx + hy * vy,
            _layered_J_ydot(p, ydot, (kx, ky), at, fs, cfg, seen))


def kernel_points(g, h, rng, n=300):
    """Points as pairs of floats: n over the lattice hull and one cell past
    it, n in the cells whose block of four centres is finite next to one
    that reaches a NaN (so a probe there lands deeper than the ghost band),
    and non-finite ones."""
    fin = np.isfinite(h)
    block = fin[:-1, :-1] & fin[1:, :-1] & fin[:-1, 1:] & fin[1:, 1:]
    near = np.zeros_like(block)
    near[1:] |= ~block[:-1]
    near[:-1] |= ~block[1:]
    near[:, 1:] |= ~block[:, :-1]
    near[:, :-1] |= ~block[:, 1:]
    ii, jj = np.nonzero(block & near)
    pick = rng.integers(0, len(ii), n)
    gx = np.concatenate([rng.uniform(-1.0, g.nx, n), ii[pick] + rng.random(n)])
    gy = np.concatenate([rng.uniform(-1.0, g.ny, n), jj[pick] + rng.random(n)])
    ox, oy = g.origin_xy
    pts = list(zip((ox + g.d * gx).tolist(), (oy + g.d * gy).tolist()))
    mid = (ox + 0.5 * g.d * g.nx, oy + 0.5 * g.d * g.ny)
    for bad in (math.nan, math.inf, -math.inf):
        pts += [(bad, mid[1]), (mid[0], bad)]
    return pts


def outcome(fn, *args):
    """fn(*args) with every float as its hex string (nested as returned),
    or the (type, message) of the OutOfDomain or VanishingGuidance raised."""
    def bits(x):
        if isinstance(x, (tuple, list)):
            return tuple(bits(c) for c in x)
        return float(x).hex()

    try:
        return bits(fn(*args))
    except (OutOfDomain, VanishingGuidance) as e:
        return type(e), str(e)


def outcome_kind(out):
    if not isinstance(out[0], type):
        return "value"
    words = ("hull", "deeper", "not finite", "no valid probes", "eta_v", "a=")
    return out[0].__name__ + ": " + next(w for w in words if w in out[1])


@pytest.mark.parametrize("fixture", ["single_build", "semantic_build"])
def test_accel_kernel_matches_layered_path(request, fixture):
    # goal (single_obstacle) and adversarial (semantic_room) nominals, the
    # latter reading Dh from the sample; the second eta_v puts ||v|| below
    # it on a twentieth of the free cells
    sc, b = request.getfixturevalue(fixture)
    base = b.backstep_cfg or BackstepConfig(k_nom_v=sc.controller(b))
    rng = np.random.default_rng(7)
    pts = kernel_points(b.grid, b.sf.h.values, rng)
    vnorm = np.hypot(b.gf.v.x.values, b.gf.v.y.values)[b.grid.free]
    fs = FieldSampler(b.sf, b.gf)
    kinds = collections.Counter()
    seen = {"terms": collections.Counter(),
            "jacobian": collections.Counter()}
    for eta_v in (base.eta_v, float(np.quantile(vnorm, 0.05))):
        cfg = dataclasses.replace(base, eta_v=eta_v)
        at = cfg.nominal_at(b.sf)
        terms = accel_kernel(fs, at, cfg)
        for p in pts:
            ydot = tuple(rng.normal(0.0, 1.0, 2).tolist())
            want = outcome(_layered_terms, p, ydot, at, fs, cfg,
                           seen["terms"])
            assert outcome(terms, *p, *ydot) == want, p
            kinds["terms " + outcome_kind(want)] += 1
            want = outcome(_layered_jacobian, p, None, at, fs, cfg,
                           seen["jacobian"])
            assert outcome(terms.jacobian, *p) == want, p
            kinds["jacobian " + outcome_kind(want)] += 1
            for safe in (True, False):
                want = outcome(_layered_k_v, p, at, fs, cfg, safe)
                assert outcome(terms.k_v, *p, safe) == want, p
    # every branch of the probes' fallback, along ydot and along the axes,
    # and every error, was reached
    for path in ("terms", "jacobian"):
        assert min(seen[path][k] for k in ("central", "lo out", "hi out",
                                           "both out")) > 0, seen
    for kind in ("value", "OutOfDomain: hull", "OutOfDomain: deeper",
                 "OutOfDomain: not finite", "VanishingGuidance: eta_v"):
        assert kinds["terms " + kind] > 0, kinds
    assert kinds["jacobian OutOfDomain: no valid probes"] > 0, kinds
