"""Relative-degree-2 extension: smooth safe velocity, shrunken barrier,
acceleration filter.

The velocity-level controller k_v replaces the ReLU correction with the
smooth gap lambda = (-a + sqrt(a^2 + sigma_s^2))/2, which keeps
v.k_v + gamma h strictly positive and is C-infinity, so its Jacobian (needed
by the acceleration constraint) exists.  The barrier over (y, ydot) is
h_B = h - ||ydot - k_v||^2 / (2 mu) and the filter enforces
d/dt h_B >= -gamma h_B by direct differentiation.
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
        """k_nom_v in point form as (grad, at), see safety._point_form."""
        return _point_form(self._k_nom(), sf)


def smooth_margin(a, sigma_s):
    """(a + sqrt(a^2 + sigma_s^2)) / 2 evaluated without cancellation.

    This is the value of v.k_v + gamma h after the smooth correction; it is
    positive for every finite a.
    """
    r = math.hypot(a, sigma_s)
    if a >= 0.0:
        return 0.5 * (a + r)
    return sigma_s * sigma_s / (2.0 * (r - a))


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


def k_v_smooth(y, k_nom_value, sf, gf, cfg):
    """Velocity controller k_nom + lambda/||v||^2 v, smooth in y."""
    p = point_xy(y)
    s = FieldSampler(sf, gf, snapshot=False).at(*p)
    return np.array(_k_v(p, point_xy(k_nom_value), s, cfg))


def _h_B(h, e, mu):
    return h - float(e.dot(e)) / (2.0 * mu)


def h_B(state, sf, gf, cfg):
    """Shrunken barrier h - ||ydot - k_v||^2 / (2 mu); never above h."""
    p = point_xy(state.y)
    k = point_xy(cfg.nominal(state.y))
    s = FieldSampler(sf, gf, snapshot=False).at(*p)
    return _h_B(s[0], state.ydot - np.array(_k_v(p, k, s, cfg)), cfg.mu)


def _jacobian(p, kv, k, cfg, fs):
    """Central differences of k_v with step d/2 per axis, one (h, v) lookup
    per probe (and grad h when k reads it); one-sided against kv = k_v(p)
    (computed here when None) when a probe leaves the sampleable region.
    k is k_nom_v in point form, (grad, at); J comes back as float pairs."""
    step = 0.5 * fs.grid.d
    px, py = p
    grad, at = k

    def k_v_at(q):
        qx, qy = q
        s = fs.at(qx, qy, grad)
        return _k_v(q, at(qx, qy, s), s, cfg)

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
    """Finite-difference Jacobian of k_v, central step d/2 per axis.

    Falls back to one-sided differences when a probe point leaves the
    sampleable region.
    """
    fs = FieldSampler(sf, gf, snapshot=False)
    return np.array(_jacobian(point_xy(y), None, cfg.nominal_at(sf), cfg,
                              fs))


class AccelTerms(NamedTuple):
    """Everything the acceleration constraint needs at one extended state."""
    h: float              # h(y)
    e: np.ndarray         # ydot - k_v(y)
    h_B: float
    dh_ydot: float        # Dh(y).ydot
    J_ydot: list          # J_kv(y) ydot, two floats

    def hdot_B(self, w, mu):
        """d/dt h_B under acceleration w (floats), by differentiation:

            Dh.ydot - (1/mu)(ydot - k_v).(w - J_kv ydot)
        """
        (wx, wy), (jx, jy) = w, self.J_ydot
        dw = np.array((wx - jx, wy - jy))
        return self.dh_ydot - float(self.e.dot(dw)) / mu

    def filter(self, w_nom, cfg):
        """(w, resid): the minimal correction of w_nom enforcing
        hdot_B >= -gamma h_B, and hdot_B(w_nom) + gamma h_B; w_nom and w
        are pairs of floats.

        The constraint is affine in w with coefficient c = -(ydot - k_v)/mu,
        so the correction is the usual ReLU step along c.  A vanishing
        coefficient with the constraint already satisfied is fine (on the
        boundary of the shrunken set ydot = k_v); vanishing with a violated
        constraint means the state left the shrunken set or the gradients
        are off, and is an error.
        """
        resid = self.hdot_B(w_nom, cfg.mu) + cfg.gamma * self.h_B
        if resid >= 0.0:
            return w_nom, resid
        ex, ey = self.e.tolist()
        cx, cy = -ex / cfg.mu, -ey / cfg.mu
        c = np.array((cx, cy))
        nc2 = float(c.dot(c))
        if nc2 < cfg.eta_c * cfg.eta_c:
            if resid < -1e-9:
                raise DegenerateCoefficient(
                    f"constraint residual {resid:.3e} with "
                    f"||c||={math.sqrt(nc2):.3e}")
            return w_nom, resid
        g = -resid / nc2
        return (w_nom[0] + g * cx, w_nom[1] + g * cy), resid


def accel_terms(y, ydot, k, cfg, fs):
    """k_v, e, Dh, J and h_B at the extended state (y, ydot), as AccelTerms.

    y is the position as a pair of floats and ydot the velocity as a
    length-2 array; k is k_nom_v in point form as (grad, at) and fs a
    FieldSampler over (sf, gf).  One (h, v, grad h) lookup at y plus one
    lookup per Jacobian probe, all on Python floats; e, Dh and J become
    arrays only for the dot products, whose bits come from BLAS.
    """
    px, py = y
    s = fs.at(px, py, True)
    kv = _k_v(y, k[1](px, py, s), s, cfg)
    vx, vy = ydot.tolist()
    e = np.array((vx - kv[0], vy - kv[1]))
    J = np.array(_jacobian(y, kv, k, cfg, fs))
    return AccelTerms(s[0], e, _h_B(s[0], e, cfg.mu),
                      float(np.array((s[3], s[4])).dot(ydot)),
                      J.dot(ydot).tolist())


def _terms(state, sf, gf, cfg):
    return accel_terms(point_xy(state.y), state.ydot, cfg.nominal_at(sf), cfg,
                       FieldSampler(sf, gf, snapshot=False))


def hdot_B(state, w, sf, gf, cfg):
    """d/dt h_B under acceleration w (see AccelTerms.hdot_B)."""
    return _terms(state, sf, gf, cfg).hdot_B(point_xy(w), cfg.mu)


def filter_accel(state, w_nom, sf, gf, cfg):
    """Minimal correction of w_nom enforcing hdot_B >= -gamma h_B (see
    AccelTerms.filter)."""
    return np.array(_terms(state, sf, gf, cfg).filter(point_xy(w_nom),
                                                      cfg)[0])
