"""Relative-degree-2 extension: smooth safe velocity, shrunken barrier,
acceleration filter.

The velocity-level controller k_v replaces the ReLU correction with the
smooth gap lambda = (-a + sqrt(a^2 + sigma_s^2))/2, which keeps
v.k_v + gamma h strictly positive and is C-infinity, so its Jacobian (needed
by the acceleration constraint) exists.  That is the guidance layer: it
makes k_v safe for v, not for h.  The barrier's velocity k_v_safe adds one
more smooth correction, along Dh with the same gap, so that
Dh.k_v_safe + gamma h > 0 as well; h_B = h - ||ydot - k_v_safe||^2 / (2 mu)
is then a valid barrier over (y, ydot) (Taylor, Ong, Molnar and Ames, "Safe
Backstepping with Control Barrier Functions", CDC 2022), and the filter
enforces d/dt h_B >= -gamma h_B by direct differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateCoefficient, InvalidParameter, OutOfDomain,
                     VanishingGuidance)
from .grid import FieldSampler, point_xy
from .safety import _point_form


@dataclass
class ExtendedState:
    y: np.ndarray
    ydot: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.ydot = np.asarray(self.ydot, dtype=float)
        if not (np.isfinite(self.y).all() and np.isfinite(self.ydot).all()):
            raise InvalidParameter("extended state must be finite")


@dataclass
class BackstepConfig:
    mu: float = 1.0          # shrink rate of the velocity penalty
    gamma: float = 1.0
    sigma_s: float = 0.1     # smooth-formula sharpness
    eta_c: float = 1e-8      # coefficient floor in the accel constraint
    eta_v: float = 1e-6
    k_nom_v: object = None   # velocity-level nominal controller over points

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.mu, self.gamma,
                                               self.sigma_s, self.eta_c,
                                               self.eta_v)):
            raise InvalidParameter("backstep parameters must all be positive "
                                   "and finite")

    def _k_nom(self):
        if self.k_nom_v is None:
            raise InvalidParameter("BackstepConfig.k_nom_v is unset")
        return self.k_nom_v

    def nominal(self, y):
        return np.asarray(self._k_nom()(np.asarray(y, dtype=float)),
                          dtype=float)

    def nominal_at(self, sf):
        """k_nom_v in point form, at(px, py, s) with s a sample that
        carries grad h (see safety._point_form)."""
        return _point_form(self._k_nom(), sf)[1]


def _eps2(grid):
    """eps^2 in k_v_safe's denominator ||Dh||^2 + eps^2: (d/5)^2, a fifth
    of a cell, so 1e-4 at d = 0.05."""
    return 0.04 * grid.d * grid.d


def _h_B(h, e, mu):
    ex, ey = e
    return h - (ex * ex + ey * ey) / (2.0 * mu)


def accel_kernel(fs, at, cfg):
    """terms(px, py, vx, vy): the acceleration constraint's terms at the
    extended state ((px, py), (vx, vy)) on Python floats, fs a
    FieldSampler over (sf, gf) with grad h and at k_nom_v in point form
    (BackstepConfig.nominal_at).  Each point takes its sample from fs.at.

    The terms are the tuple (h, e, h_B, Dh.ydot, J ydot) of floats, e =
    ydot - k_v_safe and J ydot pairs of floats, J the Jacobian of
    k_v_safe.  terms.k_v(px, py, safe=True) is (h, dh/dx, dh/dy, kx, ky)
    with k the guidance layer's k_v = k_nom + lambda/||v||^2 v, lambda the
    smooth gap (-a + sqrt(a^2 + sigma_s^2))/2 of a = v.k_nom + gamma h,
    and with safe the barrier's k_v_safe = k_v + lambda_s Dh / (||Dh||^2 +
    eps^2), the same gap of a_s = Dh.k_v + gamma h.  Where ||Dh||^2 >>
    eps^2 (_eps2) Dh.k_v_safe + gamma h is the smooth margin of a_s, which
    is positive; where Dh vanishes, at the maximum of h, the correction
    stays below lambda_s / (2 eps).  slope(px, py, ux, uy) is dk/du of
    k_v_safe along a unit u: central with step d/2, one-sided against
    k_v(px, py) (evaluated when needed) where a probe leaves the
    sampleable region.  terms reads J only as J ydot, one slope along
    ydot/|ydot| times |ydot| ((0.0, 0.0) without a probe at ydot = 0):
    three points, not five.  terms.jacobian(px, py) is the slopes along
    the axes, J's columns.  terms.filter(px, py, vx, vy, w_nom, row=False)
    is _filter's w on the terms; with row, (w, h, h_B, resid_nom, resid),
    resid = _hdot_B(w) + gamma h_B."""
    sample = fs.at
    gamma, sig, mu = cfg.gamma, cfg.sigma_s, cfg.mu
    eta2, eps2, step = cfg.eta_v * cfg.eta_v, _eps2(fs.grid), 0.5 * fs.grid.d

    def k_v(px, py, safe=True):
        s = sample(px, py)
        h, vx, vy, hx, hy, _ = s
        kx, ky = at(px, py, s)
        nv2 = vx * vx + vy * vy
        if nv2 < eta2:
            raise VanishingGuidance(
                f"||v||={math.sqrt(nv2):.3e} below eta_v at {(px, py)}")
        gh = gamma * h
        a = (vx * kx + vy * ky) + gh
        c = 0.5 * (-a + math.hypot(a, sig)) / nv2
        kx, ky = kx + c * vx, ky + c * vy
        if not safe:
            return h, hx, hy, kx, ky
        a = (hx * kx + hy * ky) + gh
        c = 0.5 * (-a + math.hypot(a, sig)) / (hx * hx + hy * hy + eps2)
        return h, hx, hy, kx + c * hx, ky + c * hy

    def slope(px, py, ux, uy, here=None):
        hi = lo = None
        try:
            hi = k_v(px + step * ux, py + step * uy)
        except OutOfDomain:
            pass
        try:
            lo = k_v(px - step * ux, py - step * uy)
        except OutOfDomain:
            pass
        if hi is None and lo is None:
            raise OutOfDomain(f"no valid probes around {(px, py)}")
        w = 2.0 * step
        if hi is None or lo is None:        # one-sided against here
            here = k_v(px, py) if here is None else here
            hi, lo, w = hi or here, lo or here, step
        return (hi[3] - lo[3]) / w, (hi[4] - lo[4]) / w

    def jacobian(px, py):
        return [slope(px, py, 1.0, 0.0), slope(px, py, 0.0, 1.0)]

    # filtered reads the terms through fields, not terms: a closure over
    # terms, which holds filtered, would be a reference cycle that keeps
    # the kernel's field copies alive until a full collection
    def fields(px, py, vx, vy):
        here = h, hx, hy, kx, ky = k_v(px, py)
        e = (vx - kx, vy - ky)
        speed, jv = math.hypot(vx, vy), (0.0, 0.0)
        if speed != 0.0:
            jx, jy = slope(px, py, vx / speed, vy / speed, here)
            jv = (jx * speed, jy * speed)
        return h, e, _h_B(h, e, mu), hx * vx + hy * vy, jv

    def terms(px, py, vx, vy):
        return fields(px, py, vx, vy)

    def filtered(px, py, vx, vy, w_nom, row=False):
        t = fields(px, py, vx, vy)
        w, resid_nom = _filter(t, w_nom, cfg)
        if not row:
            return w
        h_B = t[2]
        return w, t[0], h_B, resid_nom, _hdot_B(t, w, mu) + gamma * h_B

    terms.k_v, terms.jacobian, terms.filter = k_v, jacobian, filtered
    return terms


def _kernel(sf, gf, cfg, at=None):
    """accel_kernel on (sf, gf) in place, at by default cfg's nominal."""
    return accel_kernel(FieldSampler(sf, gf, snapshot=False),
                        cfg.nominal_at(sf) if at is None else at, cfg)


def k_v_smooth(y, k_nom_value, sf, gf, cfg):
    """Velocity controller k_nom + lambda/||v||^2 v, smooth in y: the
    guidance layer, safe for v."""
    k = point_xy(k_nom_value)
    kv = _kernel(sf, gf, cfg, lambda px, py, s: k).k_v(*point_xy(y), False)
    return np.array(kv[3:])


def h_B(state, sf, gf, cfg):
    """Shrunken barrier h - ||ydot - k_v_safe||^2 / (2 mu); never above h."""
    h, _, _, kx, ky = _kernel(sf, gf, cfg).k_v(*point_xy(state.y))
    vx, vy = point_xy(state.ydot)
    return _h_B(h, (vx - kx, vy - ky), cfg.mu)


def k_v_jacobian(y, sf, gf, cfg):
    """Finite-difference Jacobian of k_v_safe, central step d/2 per axis.

    Falls back to one-sided differences when a probe point leaves the
    sampleable region.  For callers that need J itself: the filter reads
    only J ydot (see accel_kernel).
    """
    return np.column_stack(_kernel(sf, gf, cfg).jacobian(*point_xy(y)))


def _hdot_B(t, w, mu):
    """d/dt h_B under acceleration w (floats) from accel_kernel's terms t,
    by differentiation:

        Dh.ydot - (1/mu)(ydot - k_v_safe).(w - J ydot)
    """
    (wx, wy), (ex, ey), (jx, jy) = w, t[1], t[4]
    return t[3] - (ex * (wx - jx) + ey * (wy - jy)) / mu


def _filter(t, w_nom, cfg):
    """(w, resid): the minimal correction of w_nom enforcing
    hdot_B >= -gamma h_B at accel_kernel's terms t, and hdot_B(w_nom) +
    gamma h_B; w_nom and w are pairs of floats.

    The constraint is affine in w with coefficient
    c = -(ydot - k_v_safe)/mu, so the correction is the usual ReLU step
    along c.  A vanishing coefficient with the constraint already
    satisfied is fine (on the boundary of the shrunken set
    ydot = k_v_safe); vanishing with a violated constraint means the
    state left the shrunken set or the gradients are off, and is an
    error.
    """
    resid = _hdot_B(t, w_nom, cfg.mu) + cfg.gamma * t[2]
    if resid >= 0.0:
        return w_nom, resid
    ex, ey = t[1]
    cx, cy = -ex / cfg.mu, -ey / cfg.mu
    nc2 = cx * cx + cy * cy
    if nc2 < cfg.eta_c * cfg.eta_c:
        if resid < -1e-9:
            raise DegenerateCoefficient(
                f"constraint residual {resid:.3e} with "
                f"||c||={math.sqrt(nc2):.3e}")
        return w_nom, resid
    g = -resid / nc2
    return (w_nom[0] + g * cx, w_nom[1] + g * cy), resid


def _terms(state, sf, gf, cfg):
    return _kernel(sf, gf, cfg)(*point_xy(state.y), *point_xy(state.ydot))


def hdot_B(state, w, sf, gf, cfg):
    """d/dt h_B under acceleration w (see _hdot_B), with J ydot one
    difference of k_v_safe along ydot (see accel_kernel)."""
    return _hdot_B(_terms(state, sf, gf, cfg), point_xy(w), cfg.mu)


def filter_accel(state, w_nom, sf, gf, cfg):
    """Minimal correction of w_nom enforcing hdot_B >= -gamma h_B (see
    _filter); J ydot as in hdot_B."""
    return np.array(_filter(_terms(state, sf, gf, cfg), point_xy(w_nom),
                            cfg)[0])
