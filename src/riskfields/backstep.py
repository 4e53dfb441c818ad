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
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCoefficient, OutOfDomain, VanishingGuidance
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
            raise ValueError("extended state must be finite")


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
            raise ValueError("backstep parameters must all be positive and "
                             "finite")

    def _k_nom(self):
        if self.k_nom_v is None:
            raise ValueError("BackstepConfig.k_nom_v is unset")
        return self.k_nom_v

    def nominal(self, y):
        return np.asarray(self._k_nom()(np.asarray(y, dtype=float)),
                          dtype=float)

    def nominal_at(self, sf):
        """k_nom_v in point form, at(px, py, s) with s a sample that
        carries grad h (see safety._point_form)."""
        return _point_form(self._k_nom(), sf)[1]


def _k_v(p, k, s, cfg):
    """k_v at the point p as two floats, from k = k_nom there and a sample
    s = (h, vx, vy, ...) of the fields; p and k are pairs of floats."""
    h, vx, vy = s[0], s[1], s[2]
    kx, ky = k
    nv2 = vx * vx + vy * vy
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance(
            f"||v||={math.sqrt(nv2):.3e} below eta_v at {tuple(p)}")
    a = (vx * kx + vy * ky) + cfg.gamma * h
    lam = 0.5 * (-a + math.hypot(a, cfg.sigma_s))
    c = lam / nv2
    return kx + c * vx, ky + c * vy


def _eps2(grid):
    """eps^2 in _k_v_safe's denominator ||Dh||^2 + eps^2: (d/5)^2, a fifth
    of a cell, so 1e-4 at d = 0.05."""
    return 0.04 * grid.d * grid.d


def _k_v_safe(p, k, s, cfg, eps2):
    """k_v_safe at the point p as two floats: k_v, then one correction
    lambda_s Dh / (||Dh||^2 + eps2) with the same smooth gap lambda_s of
    a_s = Dh.k_v + gamma h; s = (h, vx, vy, dh/dx, dh/dy, ...) is a sample
    with grad h.

    Where ||Dh||^2 >> eps2 this makes Dh.k_v_safe + gamma h the smooth
    margin of a_s, which is positive.  The regularised denominator keeps
    the correction below lambda_s / (2 eps) where Dh vanishes, at the
    interior maximum of h, where a_s = gamma h > 0 and lambda_s is small.
    """
    kx, ky = _k_v(p, k, s, cfg)
    hx, hy = s[3], s[4]
    a = (hx * kx + hy * ky) + cfg.gamma * s[0]
    c = 0.5 * (-a + math.hypot(a, cfg.sigma_s)) / (hx * hx + hy * hy + eps2)
    return kx + c * hx, ky + c * hy


def k_v_smooth(y, k_nom_value, sf, gf, cfg):
    """Velocity controller k_nom + lambda/||v||^2 v, smooth in y: the
    guidance layer, safe for v."""
    p = point_xy(y)
    s = FieldSampler(sf, gf, snapshot=False).at(*p)
    return np.array(_k_v(p, point_xy(k_nom_value), s, cfg))


def _h_B(h, e, mu):
    ex, ey = e
    return h - (ex * ex + ey * ey) / (2.0 * mu)


def h_B(state, sf, gf, cfg):
    """Shrunken barrier h - ||ydot - k_v_safe||^2 / (2 mu); never above h."""
    p = point_xy(state.y)
    k = point_xy(cfg.nominal(state.y))
    s = FieldSampler(sf, gf, snapshot=False).at(*p, True)
    kx, ky = _k_v_safe(p, k, s, cfg, _eps2(sf.grid))
    vx, vy = point_xy(state.ydot)
    return _h_B(s[0], (vx - kx, vy - ky), cfg.mu)


def _jacobian(p, kv, at, cfg, fs):
    """Central differences of k_v_safe with step d/2 per axis, one
    (h, v, grad h) lookup per probe; one-sided against kv = k_v_safe(p)
    (computed here when None) when a probe leaves the sampleable region.
    at is k_nom_v in point form; J comes back as float pairs."""
    step = 0.5 * fs.grid.d
    eps2 = _eps2(fs.grid)
    px, py = p

    def k_v_at(q):
        qx, qy = q
        s = fs.at(qx, qy, True)
        return _k_v_safe(q, at(qx, qy, s), s, cfg, eps2)

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
            w = 2.0 * step
        elif hi is not None:
            lo, w = (k_v_at(p) if kv is None else kv), step
        elif lo is not None:
            hi, w = (k_v_at(p) if kv is None else kv), step
        else:
            raise OutOfDomain(f"no valid probes around {tuple(p)}")
        cols.append(((hi[0] - lo[0]) / w, (hi[1] - lo[1]) / w))
    (j00, j10), (j01, j11) = cols
    return (j00, j01), (j10, j11)


def k_v_jacobian(y, sf, gf, cfg):
    """Finite-difference Jacobian of k_v_safe, central step d/2 per axis.

    Falls back to one-sided differences when a probe point leaves the
    sampleable region.
    """
    fs = FieldSampler(sf, gf, snapshot=False)
    return np.array(_jacobian(point_xy(y), None, cfg.nominal_at(sf), cfg,
                              fs))


class AccelTerms(NamedTuple):
    """Everything the acceleration constraint needs at one extended state,
    on Python floats."""
    h: float              # h(y)
    e: tuple              # ydot - k_v_safe(y), two floats
    h_B: float
    dh_ydot: float        # Dh(y).ydot
    J_ydot: tuple         # J(y) ydot, two floats, J the Jacobian of k_v_safe

    def hdot_B(self, w, mu):
        """d/dt h_B under acceleration w (floats), by differentiation:

            Dh.ydot - (1/mu)(ydot - k_v_safe).(w - J ydot)
        """
        (wx, wy), (ex, ey), (jx, jy) = w, self.e, self.J_ydot
        return self.dh_ydot - (ex * (wx - jx) + ey * (wy - jy)) / mu

    def filter(self, w_nom, cfg):
        """(w, resid): the minimal correction of w_nom enforcing
        hdot_B >= -gamma h_B, and hdot_B(w_nom) + gamma h_B; w_nom and w
        are pairs of floats.

        The constraint is affine in w with coefficient
        c = -(ydot - k_v_safe)/mu, so the correction is the usual ReLU step
        along c.  A vanishing coefficient with the constraint already
        satisfied is fine (on the boundary of the shrunken set
        ydot = k_v_safe); vanishing with a violated constraint means the
        state left the shrunken set or the gradients are off, and is an
        error.
        """
        resid = self.hdot_B(w_nom, cfg.mu) + cfg.gamma * self.h_B
        if resid >= 0.0:
            return w_nom, resid
        ex, ey = self.e
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


def accel_terms(y, ydot, at, cfg, fs):
    """k_v_safe, e, Dh, J and h_B at the extended state (y, ydot), as
    AccelTerms.

    y and ydot are pairs of floats; at is k_nom_v in point form
    (BackstepConfig.nominal_at) and fs a FieldSampler over (sf, gf).  One
    (h, v, grad h) lookup at y plus one per Jacobian probe, all on Python
    floats.
    """
    px, py = y
    vx, vy = ydot
    s = fs.at(px, py, True)
    kx, ky = _k_v_safe(y, at(px, py, s), s, cfg, _eps2(fs.grid))
    e = (vx - kx, vy - ky)
    (j00, j01), (j10, j11) = _jacobian(y, (kx, ky), at, cfg, fs)
    return AccelTerms(s[0], e, _h_B(s[0], e, cfg.mu), s[3] * vx + s[4] * vy,
                      (j00 * vx + j01 * vy, j10 * vx + j11 * vy))


def _terms(state, sf, gf, cfg):
    return accel_terms(point_xy(state.y), point_xy(state.ydot),
                       cfg.nominal_at(sf), cfg,
                       FieldSampler(sf, gf, snapshot=False))


def hdot_B(state, w, sf, gf, cfg):
    """d/dt h_B under acceleration w (see AccelTerms.hdot_B)."""
    return _terms(state, sf, gf, cfg).hdot_B(point_xy(w), cfg.mu)


def filter_accel(state, w_nom, sf, gf, cfg):
    """Minimal correction of w_nom enforcing hdot_B >= -gamma h_B (see
    AccelTerms.filter)."""
    return np.array(_terms(state, sf, gf, cfg).filter(point_xy(w_nom),
                                                      cfg)[0])
