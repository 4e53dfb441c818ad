"""Activation function, closed-form safety filter, and activation zones.

The filter solves, in closed form, the pointwise QP

    min ||u - k_nom||^2   s.t.  v(y).u >= -gamma h(y),

whose solution is k_nom + ReLU(-a)/||v||^2 v with a = v.k_nom + gamma h.
The time-varying variant shifts a by a scaled dh/dt term; the constraint
stays affine in u with coefficient v, so the same closed form applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from .errors import GridMismatch, VanishingGuidance
from .grid import (FieldSampler, fill_band, sample_gradient, sample_scalar,
                   sample_vector)


@dataclass
class FilterConfig:
    gamma: float = 1.0      # class-K slope, 1/s
    eps: float = 0.1        # transition amplitude for the dh/dt scaling
    eta_v: float = 1e-6     # ||v|| floor before we refuse to divide

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.gamma, self.eps,
                                               self.eta_v)):
            raise ValueError("gamma, eps, eta_v must all be positive and "
                             "finite")

    def sigma(self, s):
        # smooth transition: sigma(0)=0, monotone, -> eps
        return self.eps * -np.expm1(-np.maximum(s, 0.0))


class SafetyFunction:
    """Scalar field h with its cached lattice gradient."""

    def __init__(self, h):
        self.h = h
        self.grid = h.grid
        self.grad = h.gradient()
        self._grad_rows = None

    def value(self, y):
        return sample_scalar(self.h, y)

    def grad_at(self, y):
        """Dh at y, or at each row of an (n, 2) block.

        One point is read from nested-list copies of the cached gradient,
        made on first use: same bits as sample_gradient, at about a fifth
        of the cost.
        """
        p = np.asarray(y, dtype=float)
        if p.ndim == 2:
            return sample_gradient(self.h, p)
        if self._grad_rows is None:
            self._grad_rows = (self.grad.x.values.tolist(),
                               self.grad.y.values.tolist())
        return gridmod.sample_pair(*self._grad_rows, self.grid, p)


class GuidanceFieldBundle:
    """Vector field v plus the flux-carrying boundary it was solved from."""

    def __init__(self, v, boundary=None):
        self.v = v
        self.grid = v.grid
        self.boundary = boundary if boundary is not None else getattr(
            v, "boundary", None)

    def value(self, y):
        return sample_vector(self.v, y)


def _dh_term(s, cfg):
    """(||v||/(||Dh||+sigma(h))) dh/dt from a sample s = fs.at(y, grad=True),
    or None for a sample without dh/dt (the static constraint)."""
    if len(s) == 3 or s[5] is None:
        return None
    h, vx, vy, gx, gy, dh = s
    gn = math.hypot(gx, gy)
    denom = gn + float(cfg.sigma(h))
    nv = math.hypot(vx, vy)
    coeff = nv / denom if denom > 0.0 else 0.0
    return coeff * dh


def _activation(s, tv, kx, ky, gamma):
    vk = s[1] * kx + s[2] * ky
    if tv is None:
        return vk + gamma * s[0]
    return (vk + tv) + gamma * s[0]


def min_norm(y, k_nom_value, s, cfg):
    """Closed-form filter at y from one sample s of the fields there.

    Returns (u, a, audit): the filtered input, the activation at k_nom and
    the activation at u.  s comes from FieldSampler.at; with a dh/dt channel
    (grad=True) this is the time-varying filter, without it the static one,
    which is the same arithmetic less the dh/dt term.  k_nom is returned as
    a copy when a >= 0.
    """
    k = np.array(k_nom_value, dtype=float)
    kx, ky = k.tolist()
    tv = _dh_term(s, cfg)
    a = _activation(s, tv, kx, ky, cfg.gamma)
    if a >= 0.0:
        return k, a, a
    vx, vy = s[1], s[2]
    nv2 = vx * vx + vy * vy
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance(
            f"a={a:.3e} < 0 with ||v||={math.sqrt(nv2):.3e} at {tuple(y)}")
    c = -a / nv2
    ux = kx + c * vx
    uy = ky + c * vy
    return np.array([ux, uy]), a, _activation(s, tv, ux, uy, cfg.gamma)


def _sample(y, sf, gf, dh_dt=None):
    fs = FieldSampler(sf, gf, dh_dt, snapshot=False)
    return fs.at(y, grad=dh_dt is not None)


def _activation_at(y, k_nom_value, s, cfg):
    kx, ky = np.asarray(k_nom_value, dtype=float).tolist()
    return _activation(s, _dh_term(s, cfg), kx, ky, cfg.gamma)


def activation(y, k_nom_value, sf, gf, cfg):
    """a(y) = v(y).k_nom + gamma h(y)."""
    return _activation_at(y, k_nom_value, _sample(y, sf, gf), cfg)


def filter_control(y, k_nom_value, sf, gf, cfg):
    """Closed-form filtered input; k_nom untouched when a >= 0."""
    return min_norm(y, k_nom_value, _sample(y, sf, gf), cfg)[0]


def activation_dynamic(y, t, k_nom_value, sf_t, dh_dt, gf, cfg):
    """a(y,t) = v.k_nom + (||v||/(||Dh||+sigma(h))) dh/dt + gamma h.

    With dh/dt identically zero this reproduces activation() bit for bit.
    """
    return _activation_at(y, k_nom_value, _sample(y, sf_t, gf, dh_dt), cfg)


def filter_control_dynamic(y, t, k_nom_value, sf_t, dh_dt, gf, cfg):
    return min_norm(y, k_nom_value, _sample(y, sf_t, gf, dh_dt), cfg)[0]


def eval_controller(k_nom, pts):
    """Evaluates a point controller at an (n,2) block of points.

    Tries one vectorized call first; falls back to a python loop for
    controllers that only understand single points.
    """
    pts = np.asarray(pts, dtype=float)
    try:
        out = np.asarray(k_nom(pts), dtype=float)
        if out.shape == pts.shape:
            return out
    except Exception:
        pass
    out = np.empty_like(pts)
    for i in range(pts.shape[0]):
        out[i] = np.asarray(k_nom(pts[i]), dtype=float)
    return out


# marching squares: corner bit set means a > 0
# edges: 0 bottom, 1 right, 2 top, 3 left
_MS_TABLE = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
}


def _edge_point(edge, i, j, a00, a10, a11, a01, cx, cy):
    if edge == 0:
        p, q = a00, a10
        x0, y0, dx, dy = cx[i], cy[j], cx[i + 1] - cx[i], 0.0
    elif edge == 1:
        p, q = a10, a11
        x0, y0, dx, dy = cx[i + 1], cy[j], 0.0, cy[j + 1] - cy[j]
    elif edge == 2:
        p, q = a01, a11
        x0, y0, dx, dy = cx[i], cy[j + 1], cx[i + 1] - cx[i], 0.0
    else:
        p, q = a00, a01
        x0, y0, dx, dy = cx[i], cy[j], 0.0, cy[j + 1] - cy[j]
    den = p - q
    t = 0.5 if den == 0.0 else p / den
    t = min(1.0, max(0.0, t))
    return (x0 + t * dx, y0 + t * dy)


def _chain_segments(segments):
    """Joins raw segments into polylines by shared endpoints."""
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    adj = {}
    for s, (p, q) in enumerate(segments):
        adj.setdefault(key(p), []).append(s)
        adj.setdefault(key(q), []).append(s)
    used = [False] * len(segments)
    lines = []
    for s0 in range(len(segments)):
        if used[s0]:
            continue
        used[s0] = True
        path = [segments[s0][0], segments[s0][1]]
        # grow forward then backward
        for flip in (False, True):
            if flip:
                path.reverse()
            while True:
                k = key(path[-1])
                nxt = [s for s in adj.get(k, []) if not used[s]]
                if not nxt:
                    break
                s = nxt[0]
                used[s] = True
                p, q = segments[s]
                path.append(q if key(p) == k else p)
        lines.append(np.array(path))
    return lines


@dataclass
class ActivationZone:
    """Sign of the activation function over the lattice plus its contour."""
    grid: object
    a: object                      # ScalarField of a over free cells
    active: np.ndarray             # free cells with a <= 0
    active_restricted: np.ndarray  # additionally v.k_nom <= 0
    polylines: list = field(default_factory=list)

    @property
    def cell_count(self):
        return int(self.active.sum())

    @property
    def cell_count_restricted(self):
        return int(self.active_restricted.sum())

    @property
    def area(self):
        return self.cell_count * self.grid.d ** 2

    def write_sign_csv(self, path):
        sign = np.zeros(self.grid.state.shape, dtype=int)
        sign[self.grid.free] = 1
        sign[self.active] = -1
        np.savetxt(path, sign.T[::-1], fmt="%d", delimiter=",")

    def write_polylines(self, path):
        with open(path, "w") as fh:
            for li, line in enumerate(self.polylines):
                for x, y in line:
                    fh.write(f"{li},{x:.9g},{y:.9g}\n")


def lattice_activation(grid, k_nom, sf, gf, cfg, dh_dt=None):
    """(kx, ky, v.k_nom, a) at every cell center, with the controller k_nom
    evaluated on the free cells and 0 elsewhere; with dh_dt given, a is the
    time-varying activation.

    The arithmetic mirrors the pointwise ops so lattice and sampled values
    agree where it matters.
    """
    if not grid.same_geometry(sf.grid):
        raise GridMismatch("safety function solved on a different lattice")
    free = grid.free
    ks = eval_controller(k_nom, grid.free_centers())
    kx = np.zeros(grid.state.shape)
    ky = np.zeros(grid.state.shape)
    kx[free] = ks[:, 0]
    ky[free] = ks[:, 1]

    h = sf.h.values
    vx = gf.v.x.values
    vy = gf.v.y.values
    vk = vx * kx + vy * ky
    if dh_dt is None:
        return kx, ky, vk, vk + cfg.gamma * h
    if not grid.same_geometry(dh_dt.grid):
        raise GridMismatch("dh/dt field lives on a different lattice")
    gn = np.hypot(sf.grad.x.values, sf.grad.y.values)
    denom = gn + cfg.sigma(h)
    nv = np.hypot(vx, vy)
    coeff = np.where(denom > 0.0, nv / np.where(denom > 0.0, denom, 1.0), 0.0)
    return kx, ky, vk, (vk + coeff * dh_dt.values) + cfg.gamma * h


def activation_zone(grid, k_nom, sf, gf, cfg, dh_dt=None):
    """Evaluates a on every free cell center and traces its zero contour.

    k_nom is a controller over points.  With dh_dt given, uses the
    time-varying activation instead.
    """
    _, _, vk, a = lattice_activation(grid, k_nom, sf, gf, cfg, dh_dt)
    free = grid.free
    a_free = np.where(free, a, np.nan)
    active = free & (a_free <= 0.0)
    restricted = active & (vk <= 0.0)

    # contour only across squares whose four cells are all free
    segments = []
    cx = grid.centers_x()
    cy = grid.centers_y()
    sq = free[:-1, :-1] & free[1:, :-1] & free[1:, 1:] & free[:-1, 1:]
    pos = a_free > 0.0
    case = (pos[:-1, :-1].astype(int) + 2 * pos[1:, :-1] + 4 * pos[1:, 1:]
            + 8 * pos[:-1, 1:])
    ii, jj = np.nonzero(sq & (case != 0) & (case != 15))
    for i, j in zip(ii, jj):
        a00, a10 = a_free[i, j], a_free[i + 1, j]
        a11, a01 = a_free[i + 1, j + 1], a_free[i, j + 1]
        c = int(case[i, j])
        if c in (5, 10):
            mid = 0.25 * (a00 + a10 + a11 + a01)
            if c == 5:
                pairs = [(0, 1), (2, 3)] if mid > 0 else [(0, 3), (1, 2)]
            else:
                pairs = [(0, 3), (1, 2)] if mid > 0 else [(0, 1), (2, 3)]
        else:
            pairs = _MS_TABLE[c]
        for e0, e1 in pairs:
            p = _edge_point(e0, i, j, a00, a10, a11, a01, cx, cy)
            q = _edge_point(e1, i, j, a00, a10, a11, a01, cx, cy)
            segments.append((p, q))

    afield = gridmod.ScalarField(grid, fill_band(grid, np.where(free, a, 0.0),
                                                 band_value=0.0))
    return ActivationZone(grid, afield, active, restricted,
                          _chain_segments(segments))
