"""Activation function, closed-form safety filter, and activation zones.

The filter solves, in closed form, the pointwise QP

    min ||u - k_nom||^2   s.t.  v(y).u >= -gamma h(y),

whose solution is k_nom + ReLU(-a)/||v||^2 v with a = v.k_nom + gamma h.
The time-varying variant shifts a by a scaled dh/dt term; the constraint
stays affine in u with coefficient v, so the same closed form applies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from .errors import GridMismatch, InvalidParameter, VanishingGuidance
from .grid import (FieldSampler, fill_band, point_xy, sample_gradient,
                   sample_scalar, sample_vector)


@dataclass
class FilterConfig:
    gamma: float = 1.0      # class-K slope, 1/s
    eps: float = 0.1        # transition amplitude for the dh/dt scaling
    eta_v: float = 1e-6     # ||v|| floor before we refuse to divide

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.gamma, self.eps,
                                               self.eta_v)):
            raise InvalidParameter("gamma, eps, eta_v must all be positive "
                                   "and finite")

    def sigma(self, s):
        # smooth transition: sigma(0)=0, monotone, -> eps
        return self.eps * -np.expm1(-np.maximum(s, 0.0))


class SafetyFunction:
    """Scalar field h with its cached lattice gradient."""

    def __init__(self, h):
        self.h = h
        self.grid = h.grid
        self.grad = h.gradient()

    def value(self, y):
        return sample_scalar(self.h, y)

    def grad_at(self, y):
        """Dh at y, or at each row of an (n, 2) block."""
        return sample_gradient(self.h, y)


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
    """(||v||/(||Dh||+sigma(h))) dh/dt from a sample s = fs.at(y) that
    carries dh/dt."""
    h, vx, vy, gx, gy, dh = s
    gn = math.hypot(gx, gy)
    # cfg.sigma(h) in one numpy call; math.expm1 differs in the last bit
    denom = gn + cfg.eps * -float(np.expm1(-max(h, 0.0)))
    nv = math.hypot(vx, vy)
    coeff = nv / denom if denom > 0.0 else 0.0
    return coeff * dh


def filter_kernel(k, fs, cfg, skip=None):
    """point(y, row=False): the closed-form filter of the nominal k at the
    point y, a pair of floats, as the pair u; the one float form of the
    static and the time-varying filter.

    fs is a FieldSampler; one that carries dh/dt gives the time-varying
    filter, a = (v.k + tv) + gamma h with tv _dh_term's dh/dt term, and
    one without it the static filter, a = v.k + gamma h.  k(px, py, s) is
    the nominal in point form (s = fs.at(px, py), see _point_form).  u is
    k itself where a >= 0, else k + (-a/||v||^2) v; a < 0 with ||v|| below
    eta_v raises VanishingGuidance, whose attribute a is that activation.
    point(y, True) returns the row (y, k, u, h, a, audit) with u, audit
    the activation at u.  skip, a list of rows of booleans over the cells
    (goal_lattice's inactive mask), makes point return k unsampled in the
    cells it marks, where a > 0 and u is k: a stage returns k, a record
    the row (y, k, k, nan, nan, nan), whose h, a and audit fill_unsampled
    supplies after the run (a sampled row never holds a NaN h: at raises
    OutOfDomain on a NaN blend).  The filter arithmetic stays in this
    order: goal_lattice's round-off bound is argued for it.
    """
    at, g, has_dh_dt = fs.at, fs.grid, fs.has_dh_dt
    (ox, oy), d, nx1, ny1 = g.origin_xy, g.d, g.nx - 1, g.ny - 1
    gamma, eta2 = cfg.gamma, cfg.eta_v * cfg.eta_v

    def point(y, row=False):
        px, py = y
        if skip is not None:
            gx, gy = (px - ox) / d, (py - oy) / d
            if (0.0 <= gx < nx1 and 0.0 <= gy < ny1
                    and skip[int(gx)][int(gy)]):
                u = kx, ky = k(px, py, None)
                if not row:
                    return u
                return (px, py, kx, ky, kx, ky, math.nan, math.nan,
                        math.nan), u
        s = at(px, py)
        h, vx, vy = s[0], s[1], s[2]
        u = kx, ky = k(px, py, s)
        vk = vx * kx + vy * ky
        if has_dh_dt:                   # a = (v.k + tv) + gamma h
            tv = _dh_term(s, cfg)
            vk += tv
        a = vk + gamma * h
        if a >= 0.0:
            return ((px, py, kx, ky, kx, ky, h, a, a), u) if row else u
        nv2 = vx * vx + vy * vy
        if nv2 < eta2:
            e = VanishingGuidance(f"a={a:.3e} < 0 with ||v||="
                                  f"{math.sqrt(nv2):.3e} at {tuple(y)}")
            e.a = a
            raise e
        c = -a / nv2
        u = ux, uy = kx + c * vx, ky + c * vy
        if not row:
            return u
        vk = vx * ux + vy * uy
        if has_dh_dt:
            vk += tv
        audit = vk + gamma * h
        return (px, py, kx, ky, ux, uy, h, a, audit), u

    return point


def _activation(h, vx, vy, kx, ky, gamma, tv=None):
    """(v.k, a) with a = v.k + gamma h, or (v.k + tv) + gamma h with the
    dh/dt term tv: filter_kernel's arithmetic, elementwise on arrays."""
    vk = vx * kx + vy * ky
    return vk, (vk if tv is None else vk + tv) + gamma * h


def fill_unsampled(tr, sf, gf, cfg):
    """Fills in place the h, a and audit of the rows of the trajectory tr
    that filter_kernel recorded unsampled (h NaN): h and v from
    _bilinear_many, which gives FieldSampler.at's bits, a the static
    activation at the row's u_nom and audit a, since there u is u_nom."""
    rows = np.isnan(tr.h)
    if rows.any():
        px, py = tr.y[rows].T
        h, vx, vy = (gridmod._bilinear_many(f.values, sf.grid, px, py)
                     for f in (sf.h, gf.v.x, gf.v.y))
        kx, ky = tr.u_nom[rows].T
        tr.h[rows] = h
        tr.a[rows] = tr.audit[rows] = _activation(h, vx, vy, kx, ky,
                                                  cfg.gamma)[1]


def _record(y, k_nom_value, sf, gf, cfg, dh_dt=None):
    """filter_kernel's (row, u) at the array-like y for the nominal value
    k_nom_value, the fields read in place."""
    k = point_xy(k_nom_value)
    fs = FieldSampler(sf, gf, dh_dt, snapshot=False, grad=dh_dt is not None)
    return filter_kernel(lambda px, py, s: k, fs, cfg)(point_xy(y), True)


def _a_at(*args):
    """The row's a, or where ||v|| < eta_v stops the filter, the error's."""
    try:
        return _record(*args)[0][7]
    except VanishingGuidance as e:
        return e.a


def activation(y, k_nom_value, sf, gf, cfg):
    """a(y) = v(y).k_nom + gamma h(y)."""
    return _a_at(y, k_nom_value, sf, gf, cfg)


def filter_control(y, k_nom_value, sf, gf, cfg):
    """Closed-form filtered input; k_nom untouched when a >= 0."""
    return np.array(_record(y, k_nom_value, sf, gf, cfg)[1])


def activation_dynamic(y, t, k_nom_value, sf_t, dh_dt, gf, cfg):
    """a(y,t) = v.k_nom + (||v||/(||Dh||+sigma(h))) dh/dt + gamma h.

    With dh/dt identically zero this reproduces activation() bit for bit.
    """
    return _a_at(y, k_nom_value, sf_t, gf, cfg, dh_dt)


def filter_control_dynamic(y, t, k_nom_value, sf_t, dh_dt, gf, cfg):
    return np.array(_record(y, k_nom_value, sf_t, gf, cfg, dh_dt)[1])


def _point_form(k_nom, sf):
    """(grad, at): k_nom as a map at(px, py, s) -> (kx, ky) on Python
    floats, where s = FieldSampler.at(px, py) samples the fields over sf at
    the point, with grad h if grad.

    A controller with its own point form k_nom.at is used as it is; one
    that is -mu Dh of sf itself (k_nom.grad_of is sf) reads Dh from s, so
    grad is True.  Any other callable, and one that reads the gradient of
    another safety function, is called on a length-2 array and its result
    converted with tolist().
    """
    at = getattr(k_nom, "at", None)
    grad_of = getattr(k_nom, "grad_of", None)
    if at is not None and (grad_of is None or grad_of is sf):
        return grad_of is not None, at

    def at(px, py, s):
        return np.asarray(k_nom(np.array((px, py))), dtype=float).tolist()

    return False, at


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
    """Joins raw segments into polylines by shared endpoints.

    Endpoints match when their coordinates agree to round(., 9); each
    segment's two keys are computed once.
    """
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    keys = [(key(p), key(q)) for p, q in segments]
    adj = {}
    for s, (kp, kq) in enumerate(keys):
        adj.setdefault(kp, []).append(s)
        adj.setdefault(kq, []).append(s)
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
            k = keys[s0][0 if flip else 1]
            while True:
                nxt = [s for s in adj.get(k, []) if not used[s]]
                if not nxt:
                    break
                s = nxt[0]
                used[s] = True
                far = 1 if keys[s][0] == k else 0
                path.append(segments[s][far])
                k = keys[s][far]
        lines.append(np.array(path))
    return lines


@dataclass
class ActivationZone:
    """Sign of the activation function over the lattice plus its contour."""
    grid: object
    a: object                      # ScalarField of a over free cells
    active: np.ndarray             # free cells with a <= 0
    active_restricted: np.ndarray  # additionally v.k_nom <= 0
    segments: list = field(default_factory=list)  # raw contour segments

    @functools.cached_property
    def polylines(self):
        """The contour segments chained into polylines, on first read."""
        return _chain_segments(self.segments)

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
    tv = None
    if dh_dt is not None:
        if not grid.same_geometry(dh_dt.grid):
            raise GridMismatch("dh/dt field lives on a different lattice")
        gn = np.hypot(sf.grad.x.values, sf.grad.y.values)
        denom = gn + cfg.sigma(h)
        nv = np.hypot(vx, vy)
        tv = np.where(denom > 0.0, nv / np.where(denom > 0.0, denom, 1.0),
                      0.0) * dh_dt.values
    return (kx, ky) + _activation(h, vx, vy, kx, ky, cfg.gamma, tv)


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

    # contour only across squares whose four cells are all free; the
    # corner values and centres are read as Python floats
    segments = []
    cx = grid.centers_x().tolist()
    cy = grid.centers_y().tolist()
    rows = a_free.tolist()
    sq = free[:-1, :-1] & free[1:, :-1] & free[1:, 1:] & free[:-1, 1:]
    pos = a_free > 0.0
    case = (pos[:-1, :-1].astype(int) + 2 * pos[1:, :-1] + 4 * pos[1:, 1:]
            + 8 * pos[:-1, 1:])
    ii, jj = np.nonzero(sq & (case != 0) & (case != 15))
    for i, j, c in zip(ii.tolist(), jj.tolist(), case[ii, jj].tolist()):
        r0, r1 = rows[i], rows[i + 1]
        a00, a10 = r0[j], r1[j]
        a11, a01 = r1[j + 1], r0[j + 1]
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
    return ActivationZone(grid, afield, active, restricted, segments)


def goal_lattice(sf, gf, cfg, mu, goal):
    """(kx, ky, v.k_nom, a, inactive) under the goal nominal
    k_nom = -mu (y - goal), from one evaluation of a = v.k_nom + gamma h:
    the first four at every cell centre, with lattice_activation's bits on
    the free cells (k_nom is affine on every cell); inactive, (nx-1, ny-1)
    booleans, True where a > 0 on all of the cell spanned by centres
    (i, j) .. (i+1, j+1), for the static filter.

    On a cell h, vx, vy are bilinear (FieldSampler.at's blend) and k_nom
    affine, so a has degree (2, 2) and its nine Bernstein coefficients
    bound it from below (Farouki 2012).  A cell is marked when their least
    exceeds 1e-9 W, W the largest |vx| Kx + |vy| Ky + gamma |h| at its
    corners; Kx = |mu| (|ox| + d nx + |goal_x|) bounds |mu| (|x| + |goal_x|)
    and |mu| |x - ox| on the hull, Ky likewise.  The coefficients'
    round-off, that of filter_kernel's a (blend, k_nom) and that of
    (px - ox) / d placing the point are each a few dozen ulps of 3 W at
    most, under 1e-13 W in all, so filter_kernel finds a > 0 in a marked
    cell.  A non-finite corner fails the comparison: its cell is never
    marked."""
    g = sf.grid
    m, (gx, gy), (ox, oy) = -float(mu), map(float, goal), g.origin_xy
    kx = (m * (g.centers_x() - gx))[:, None]
    ky = m * (g.centers_y() - gy)
    h, vx, vy = sf.h.values, gf.v.x.values, gf.v.y.values
    with np.errstate(invalid="ignore", over="ignore"):
        gh, ax, ay = cfg.gamma * h, vx * kx, vy * ky
        vk = ax + ay
        corner = vk + gh
        # cross terms of the products raised to degree 2 along x, along y
        bx = vx[:-1] * kx[1:] + vx[1:] * kx[:-1]
        by = vy[:, :-1] * ky[1:] + vy[:, 1:] * ky[:-1]
        qx, qy = ay + gh, ax + gh
        lo = np.minimum(np.minimum(corner[:-1], corner[1:]),
                        0.5 * (bx + qx[:-1] + qx[1:]))
        edge_y = 0.5 * (by + qy[:, :-1] + qy[:, 1:])
        centre = 0.25 * ((bx[:, :-1] + bx[:, 1:]) + (by[:-1] + by[1:])
                         + (gh[:-1, :-1] + gh[1:, :-1])
                         + (gh[:-1, 1:] + gh[1:, 1:]))
        lo = np.minimum(np.minimum(lo[:, :-1], lo[:, 1:]), np.minimum(
            np.minimum(edge_y[:-1], edge_y[1:]), centre))
        w = (np.abs(vx) * (abs(m) * (abs(ox) + g.d * g.nx + abs(gx)))
             + np.abs(vy) * (abs(m) * (abs(oy) + g.d * g.ny + abs(gy)))
             + cfg.gamma * np.abs(h))
        w = np.maximum(w[:-1], w[1:])
        inactive = lo > 1e-9 * np.maximum(w[:, :-1], w[:, 1:])
    return (np.broadcast_to(kx, h.shape), np.broadcast_to(ky, h.shape), vk,
            corner, inactive)
