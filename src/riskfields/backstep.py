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
from .grid import FieldSampler


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

    def nominal(self, y):
        if self.k_nom_v is None:
            raise ValueError("BackstepConfig.k_nom_v is unset")
        return np.asarray(self.k_nom_v(np.asarray(y, dtype=float)),
                          dtype=float)


def smooth_margin(a, sigma_s):
    """(a + sqrt(a^2 + sigma_s^2)) / 2 evaluated without cancellation.

    This is the value of v.k_v + gamma h after the smooth correction; it is
    positive for every finite a.
    """
    r = math.hypot(a, sigma_s)
    if a >= 0.0:
        return 0.5 * (a + r)
    return sigma_s * sigma_s / (2.0 * (r - a))


def _k_v(y, k_nom_value, s, cfg):
    """k_v at y from a sample s = (h, vx, vy, ...) of the fields there."""
    h, vx, vy = s[0], s[1], s[2]
    kx, ky = np.asarray(k_nom_value, dtype=float).tolist()
    nv2 = vx * vx + vy * vy
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance(
            f"||v||={math.sqrt(nv2):.3e} below eta_v at {tuple(np.asarray(y))}")
    a = (vx * kx + vy * ky) + cfg.gamma * h
    lam = 0.5 * (-a + math.hypot(a, cfg.sigma_s))
    c = lam / nv2
    return np.array([kx + c * vx, ky + c * vy])


def k_v_smooth(y, k_nom_value, sf, gf, cfg):
    """Velocity controller k_nom + lambda/||v||^2 v, smooth in y."""
    fs = FieldSampler(sf, gf, snapshot=False)
    return _k_v(y, k_nom_value, fs.at(y), cfg)


def _h_B(h, e, mu):
    return h - float(e @ e) / (2.0 * mu)


def h_B(state, sf, gf, cfg):
    """Shrunken barrier h - ||ydot - k_v||^2 / (2 mu); never above h."""
    y = state.y
    k = cfg.nominal(y)
    s = FieldSampler(sf, gf, snapshot=False).at(y)
    return _h_B(s[0], state.ydot - _k_v(y, k, s, cfg), cfg.mu)


def _jacobian(y, kv, cfg, fs):
    """Central differences of k_v with step d/2 per axis, one (h, v) lookup
    per probe; one-sided against kv = k_v(y) (computed here when None) when
    a probe leaves the sampleable region."""
    step = 0.5 * fs.grid.d

    def k_v_at(p):
        return _k_v(p, cfg.nominal(p), fs.at(p), cfg)

    cols = []
    for axis in range(2):
        off = np.zeros(2)
        off[axis] = step
        hi = lo = None
        try:
            hi = k_v_at(y + off)
        except OutOfDomain:
            pass
        try:
            lo = k_v_at(y - off)
        except OutOfDomain:
            pass
        if hi is not None and lo is not None:
            cols.append((hi - lo) / (2.0 * step))
        elif hi is not None:
            cols.append((hi - (k_v_at(y) if kv is None else kv)) / step)
        elif lo is not None:
            cols.append(((k_v_at(y) if kv is None else kv) - lo) / step)
        else:
            raise OutOfDomain(f"no valid probes around {tuple(y)}")
    return np.column_stack(cols)


def k_v_jacobian(y, sf, gf, cfg):
    """Finite-difference Jacobian of k_v, central step d/2 per axis.

    Falls back to one-sided differences when a probe point leaves the
    sampleable region.
    """
    y = np.asarray(y, dtype=float)
    return _jacobian(y, None, cfg, FieldSampler(sf, gf, snapshot=False))


class AccelTerms(NamedTuple):
    """Everything the acceleration constraint needs at one extended state."""
    h: float              # h(y)
    e: np.ndarray         # ydot - k_v(y)
    h_B: float
    dh_ydot: float        # Dh(y).ydot
    J_ydot: np.ndarray    # J_kv(y) ydot

    def hdot_B(self, w, mu):
        """d/dt h_B under acceleration w, by direct differentiation:

            Dh.ydot - (1/mu)(ydot - k_v).(w - J_kv ydot)
        """
        return self.dh_ydot - float(self.e @ (np.asarray(w, dtype=float)
                                              - self.J_ydot)) / mu

    def filter(self, w_nom, cfg):
        """(w, resid): the minimal correction of w_nom enforcing
        hdot_B >= -gamma h_B, and hdot_B(w_nom) + gamma h_B.

        The constraint is affine in w with coefficient c = -(ydot - k_v)/mu,
        so the correction is the usual ReLU step along c.  A vanishing
        coefficient with the constraint already satisfied is fine (on the
        boundary of the shrunken set ydot = k_v); vanishing with a violated
        constraint means the state left the shrunken set or the gradients
        are off, and is an error.
        """
        w_nom = np.array(w_nom, dtype=float)
        resid = self.hdot_B(w_nom, cfg.mu) + cfg.gamma * self.h_B
        if resid >= 0.0:
            return w_nom, resid
        c = -self.e / cfg.mu
        nc2 = float(c @ c)
        if nc2 < cfg.eta_c * cfg.eta_c:
            if resid < -1e-9:
                raise DegenerateCoefficient(
                    f"constraint residual {resid:.3e} with "
                    f"||c||={math.sqrt(nc2):.3e}")
            return w_nom, resid
        return w_nom + (-resid / nc2) * c, resid


def accel_terms(state, sf, gf, cfg, fs=None):
    """k_v, e, Dh, J and h_B at state, as AccelTerms.

    One (h, v, grad h) lookup at y plus one (h, v) lookup per Jacobian
    probe.  fs is a FieldSampler over (sf, gf), built once per rollout;
    without one the arrays are read in place.
    """
    if fs is None:
        fs = FieldSampler(sf, gf, snapshot=False)
    y, ydot = state.y, state.ydot
    k = cfg.nominal(y)
    s = fs.at(y, grad=True)
    kv = _k_v(y, k, s, cfg)
    e = ydot - kv
    Dh = np.array([s[3], s[4]])
    J = _jacobian(y, kv, cfg, fs)
    return AccelTerms(s[0], e, _h_B(s[0], e, cfg.mu), float(Dh @ ydot),
                      J @ ydot)


def hdot_B(state, w, sf, gf, cfg):
    """d/dt h_B under acceleration w (see AccelTerms.hdot_B)."""
    return accel_terms(state, sf, gf, cfg).hdot_B(w, cfg.mu)


def filter_accel(state, w_nom, sf, gf, cfg):
    """Minimal correction of w_nom enforcing hdot_B >= -gamma h_B (see
    AccelTerms.filter)."""
    return accel_terms(state, sf, gf, cfg).filter(w_nom, cfg)[0]
