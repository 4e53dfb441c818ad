"""Closed-loop integration of filtered controllers, static and dynamic.

Single- and double-integrator plants under classical RK4 with the controller
evaluated inside every stage.  Dynamic scenes advance frame by frame: fields
are re-solved per frame, held fixed (zero-order) while the agent integrates,
and dh/dt comes from differencing consecutive frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backstep as bs
from .errors import (DegenerateCoefficient, GridMismatch, InvalidParameter,
                     InvalidTimeStep, OutOfDomain, StartUnsafe,
                     VanishingGuidance)
from .grid import FieldSampler, ScalarField, fill_band
# activation, filter_control and their dynamic forms are not called here;
# they stay importable from this module, where perfbench's tracer wraps them.
from .safety import (_point_form, activation,  # noqa: F401
                     activation_dynamic, activation_zone, fill_unsampled,
                     filter_control, filter_control_dynamic, filter_kernel,
                     goal_lattice, lattice_activation)

TIME_LIMIT = "time_limit"
GOAL_REACHED = "goal_reached"
LEFT_DOMAIN = "left_domain"
DEGENERATE = "degenerate"


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray
    u_nom: np.ndarray
    u_filt: np.ndarray
    h: np.ndarray
    a: np.ndarray
    audit: np.ndarray      # constraint value at the filtered input
    dt: float
    termination: str
    ydot: np.ndarray = None
    h_B: np.ndarray = None

    @property
    def n(self):
        return len(self.t)

    def min_h(self):
        return float(self.h.min())

    def path_length(self):
        return float(np.linalg.norm(np.diff(self.y, axis=0), axis=1).sum())

    def to_csv(self, path):
        cols = [("t", self.t), ("x", self.y[:, 0]), ("y", self.y[:, 1])]
        if self.ydot is not None:
            cols += [("vx", self.ydot[:, 0]), ("vy", self.ydot[:, 1])]
        cols += [("unom_x", self.u_nom[:, 0]), ("unom_y", self.u_nom[:, 1]),
                 ("u_x", self.u_filt[:, 0]), ("u_y", self.u_filt[:, 1]),
                 ("h", self.h)]
        hb = self.h_B if self.h_B is not None else np.full(self.n, np.nan)
        cols += [("h_B", hb), ("a", self.a)]
        with open(path, "w") as fh:
            fh.write(",".join(name for name, _ in cols) + ",flags\n")
            for i in range(self.n):
                flag = self.termination if i == self.n - 1 else ""
                fh.write(",".join("%.17g" % c[i] for _, c in cols)
                         + f",{flag}\n")


class MotionProfile:
    """Rigid translation along a fixed heading with piecewise-linear speed.

    Beyond the last breakpoint the speed holds its final value.
    """

    def __init__(self, times, speeds, heading):
        self.times = np.asarray(times, dtype=float)
        self.speeds = np.asarray(speeds, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.speeds.shape:
            raise InvalidParameter(
                "times and speeds must be matching 1-d arrays")
        if not (np.isfinite(self.times).all()
                and np.isfinite(self.speeds).all()):
            # NaN passes the order and sign checks below
            raise InvalidParameter("times and speeds must be finite")
        if self.times[:1].tolist() != [0.0] or (np.diff(self.times) < 0).any():
            raise InvalidParameter(
                "times must start at 0 and be nondecreasing")
        if (self.speeds < 0).any():
            raise InvalidParameter("speeds must be nonnegative")
        heading = np.asarray(heading, dtype=float)
        nh = np.linalg.norm(heading)
        if nh == 0:
            raise InvalidParameter("heading must be a nonzero vector")
        self.heading = heading / nh
        # cumulative integral of the speed at each breakpoint
        seg = np.diff(self.times) * 0.5 * (self.speeds[1:] + self.speeds[:-1])
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])

    @classmethod
    def trapezoid(cls, v_max, t_rise, t_hold, t_fall, heading):
        times = [0.0, t_rise, t_rise + t_hold, t_rise + t_hold + t_fall]
        return cls(times, [0.0, v_max, v_max, 0.0], heading)

    @classmethod
    def constant(cls, speed, heading):
        return cls([0.0], [speed], heading)

    def speed(self, t):
        if len(self.times) == 1:
            return float(self.speeds[0])
        return float(np.interp(t, self.times, self.speeds))

    def offset(self, t):
        t = float(t)
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        if k >= len(self.times) - 1:
            return float(self.cum[-1] + self.speeds[-1]
                         * (t - self.times[-1]))
        dt = t - self.times[k]
        seg = self.times[k + 1] - self.times[k]
        v0, v1 = self.speeds[k], self.speeds[k + 1]
        v_t = v0 if seg == 0 else v0 + (v1 - v0) * dt / seg
        return float(self.cum[k] + 0.5 * (v0 + v_t) * dt)

    def displacement(self, t):
        return self.heading * self.offset(t)


def nominal_goal(y, mu, goal):
    """-mu (y - goal); accepts single points or (n,2) blocks."""
    y = np.asarray(y, dtype=float)
    return -mu * (y - np.asarray(goal, dtype=float))


def nominal_adversarial(y, mu, sf):
    """-mu Dh(y): straight at the nearest obstacle, the worst case.

    y is one point or an (n,2) block, sampled in one vectorized pass.
    """
    return -mu * sf.grad_at(np.asarray(y, dtype=float))


def goal_controller(mu, goal):
    """nominal_goal as a controller over points or (n,2) blocks; k.at(px, py,
    s) is the same arithmetic on Python floats (s, the point's sample, is
    not read).  k.mu and k.goal declare the affine form: a static rollout
    skips a stage's sample where goal_lattice's inactive mask proves a > 0
    (exact: there the filter returns k_nom itself)."""
    goal = np.asarray(goal, dtype=float)
    gx, gy = goal.tolist()
    m = -mu

    def k_nom(y):
        return nominal_goal(y, mu, goal)

    def at(px, py, s):
        return m * (px - gx), m * (py - gy)

    k_nom.mu = mu
    k_nom.goal = goal
    k_nom.at = at
    return k_nom


def adversarial_controller(mu, sf):
    """nominal_adversarial as a controller over points or (n,2) blocks;
    k.at(px, py, s) is the same arithmetic on Python floats, with Dh read
    from s, a FieldSampler.at(px, py) sample over sf with grad h
    (k.grad_of)."""
    m = -mu

    def k_nom(y):
        return nominal_adversarial(y, mu, sf)

    def at(px, py, s):
        return m * s[3], m * s[4]

    k_nom.at = at
    k_nom.grad_of = sf
    return k_nom


def _check_start(y, controller, sf, gf, cfg, dt, where=""):
    """Refuses a start with h(y) <= 0 and a dt above the CFL bound, taken
    from the controller's (kx, ky, v.k, a) at every cell centre: those of
    _goal_lattice, which it returns for the skip mask, else
    lattice_activation's."""
    if sf.value(y) <= 0.0:
        raise StartUnsafe(f"h({tuple(y)}) <= 0{where}")
    grid, free = sf.grid, sf.grid.free
    lattice = _goal_lattice(controller, sf, gf, cfg)
    kx, ky, _, a = (lattice or lattice_activation(grid, controller, sf, gf,
                                                  cfg))[:4]
    vx, vy, a = gf.v.x.values[free], gf.v.y.values[free], a[free]
    nv2 = vx * vx + vy * vy
    corr = np.where((a < 0.0) & (nv2 >= cfg.eta_v ** 2),
                    -a / np.where(nv2 > 0, nv2, 1.0), 0.0)
    u = np.hypot(kx[free] + corr * vx, ky[free] + corr * vy)
    umax = float(u.max()) if len(u) else 0.0
    if umax > 0 and dt > grid.d / (4.0 * umax):
        raise InvalidTimeStep(
            f"dt={dt} too coarse: need <= {grid.d / (4.0 * umax):.3e}"
            f" (d={grid.d}, u_max~{umax:.3g})")
    return lattice


def _rk4(z, k1, f, dt):
    """One classical RK4 step of z' = f(z) on a tuple of four floats, from
    k1 = f(z): z + dt/6 (k1 + 2 k2 + 2 k3 + k4), elementwise in that order."""
    px, py, vx, vy = z
    a0, a1, a2, a3 = k1
    h = 0.5 * dt
    b0, b1, b2, b3 = f((px + h * a0, py + h * a1, vx + h * a2, vy + h * a3))
    c0, c1, c2, c3 = f((px + h * b0, py + h * b1, vx + h * b2, vy + h * b3))
    d0, d1, d2, d3 = f((px + dt * c0, py + dt * c1, vx + dt * c2,
                        vy + dt * c3))
    w = dt / 6.0
    return (px + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            py + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            vx + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            vy + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3))


def _rk4_xy(y, k1, f, dt):
    """_rk4 written out for a state of two floats, with the same bits."""
    px, py = y
    ax, ay = k1
    h = 0.5 * dt
    bx, by = f((px + h * ax, py + h * ay))
    cx, cy = f((px + h * bx, py + h * by))
    dx, dy = f((px + dt * cx, py + dt * cy))
    w = dt / 6.0
    return (px + w * (ax + 2.0 * bx + 2.0 * cx + dx),
            py + w * (ay + 2.0 * by + 2.0 * cy + dy))


def _goal_check(goal, d):
    """reached(px, py): np.linalg.norm((px, py) - goal) < d, or None
    without a goal.  The squared distance on floats decides except within
    a relative 1e-12 of d^2, where numpy's FMA dot may round differently."""
    if goal is None:
        return None
    goal = np.asarray(goal, dtype=float)
    gx, gy = goal.tolist()
    lo, hi = d * d * (1.0 - 1e-12), d * d * (1.0 + 1e-12)

    def reached(px, py):
        r2 = (px - gx) * (px - gx) + (py - gy) * (py - gy)
        if lo <= r2 <= hi:
            return bool(np.linalg.norm(np.subtract((px, py), goal)) < d)
        return r2 < lo

    return reached


_COLUMNS = (("y", slice(0, 2)), ("u_nom", slice(2, 4)),
            ("u_filt", slice(4, 6)), ("h", 6), ("a", 7), ("audit", 8),
            ("ydot", slice(9, 11)), ("h_B", 11))


def _trajectory(rows, double, dt, termination):
    """The Trajectory of rows recorded as one flat list of floats, 9 a row
    or 12 with the double integrator's ydot and h_B: each column (placed
    by _COLUMNS) is copied out of one (n, width) array; t is k dt at row k."""
    table = np.fromiter(rows, float).reshape(-1, 12 if double else 9)
    cols = {k: table[:, c].copy() for k, c in _COLUMNS[:8 if double else 6]}
    cols["t"] = np.arange(len(table)) * dt
    return Trajectory(dt=dt, termination=termination, **cols)


def _samples(segments):
    """(point, True) for every step of every segment, then the last
    segment's (point, False) for the closing sample."""
    point = None
    for point, steps in segments:
        for _ in range(steps):
            yield point, True
    yield point, False


def _rollout(z, segments, dt, goal, d):
    """The record, goal check and RK4 step loop of every closed-loop run.

    z is the state as a tuple of floats: (x, y), or (x, y, vx, vy) for the
    double integrator.  segments yields (point, steps), point the
    segment's kernel: point(z) is the RK4 right-hand side as a tuple of
    floats, and point(z, True) returns the run's next row as a tuple of
    floats together with point(z), which serves as the step's first RK4
    stage; the segment runs for steps steps.  After the last segment its
    point records the closing sample.  Any sample with z[:2] within d of
    goal ends the run; a degenerate filter ends it as DEGENERATE and a
    point off the lattice as LEFT_DOMAIN.  A filter that degenerates at
    the first record, so that the run would hold no sample, raises
    StartUnsafe.
    """
    rows = []
    reached = _goal_check(goal, d)
    rk4 = _rk4_xy if len(z) == 2 else _rk4
    term = TIME_LIMIT
    try:
        for point, step in _samples(segments):
            row, zdot = point(z, True)
            rows.extend(row)
            if reached is not None and reached(z[0], z[1]):
                term = GOAL_REACHED
                break
            if step:
                z = rk4(z, zdot, point, dt)
    except (VanishingGuidance, DegenerateCoefficient) as e:
        if not rows:
            raise StartUnsafe(f"the filter degenerates at the start: {e}"
                              ) from e
        term = DEGENERATE
    except OutOfDomain:
        term = LEFT_DOMAIN
    return _trajectory(rows, len(z) == 4, dt, term)


def _goal_lattice(controller, sf, gf, cfg):
    """goal_lattice under a goal controller (k.mu, k.goal), else None."""
    mu = getattr(controller, "mu", None)
    if mu is None or _point_form(controller, sf)[0]:
        return None
    return goal_lattice(sf, gf, cfg, mu, controller.goal)


def _filtered(controller, sf, gf, cfg, steps, dh_dt=None, lattice=None):
    """(point, steps) of ydot = the closed-form filter of controller(y),
    with dh_dt the time-varying filter: point is safety.filter_kernel over
    a FieldSampler of the fields, so point(y, True) returns the run's row
    (y, u_nom, u, h, a, audit) with u.  An adversarial controller over sf
    reads Dh from the sample.  A static point under a goal controller
    returns k_nom unsampled in the cells of lattice's (_goal_lattice's)
    inactive mask, where a > 0 and the filter returns k_nom unchanged: a
    stage returns k_nom, a record a row with h, a and audit NaN, which
    safety.fill_unsampled fills after the run."""
    kgrad, k = _point_form(controller, sf)
    fs = FieldSampler(sf, gf, dh_dt, grad=kgrad or dh_dt is not None)
    skip = None
    if dh_dt is None:
        if lattice is None:
            lattice = _goal_lattice(controller, sf, gf, cfg)
        skip = None if lattice is None else lattice[4].tolist()
    return filter_kernel(k, fs, cfg, skip), steps


def _check_times(T, **steps):
    """Raises InvalidTimeStep unless every step is finite and positive and
    T finite and not negative."""
    for name, dt in steps.items():
        if not 0.0 < dt < math.inf:         # NaN fails too
            raise InvalidTimeStep(f"{name}={dt} must be finite and positive")
    if not 0.0 <= T < math.inf:
        raise InvalidTimeStep(f"T={T} must be finite and not negative")


def integrate_single(y0, controller, sf, gf, cfg, dt, T, goal=None):
    """RK4 on ydot = filter_control(y, controller(y)).

    Records every step; stops early on goal capture (within one cell),
    domain exit, or a degenerate filter evaluation.  Under a goal
    controller neither a stage nor a record samples the fields in the
    cells where goal_lattice proves a > 0; one vectorized pass
    (safety.fill_unsampled) gives those records their h, a and audit
    before the trajectory is returned.
    """
    _check_times(T, dt=dt)
    y = np.array(y0, dtype=float)
    lattice = _check_start(y, controller, sf, gf, cfg, dt)
    if goal is None:
        goal = getattr(controller, "goal", None)
    n = int(math.floor(T / dt + 1e-9))
    segment = _filtered(controller, sf, gf, cfg, n, lattice=lattice)
    tr = _rollout(tuple(y.tolist()), [segment], dt, goal, sf.grid.d)
    fill_unsampled(tr, sf, gf, cfg)
    return tr


def integrate_double(state0, accel_nom, sf, gf, bcfg, dt, T, goal=None):
    """RK4 on the extended state with the acceleration-level filter.

    accel_nom(y, ydot) is the nominal acceleration, called with arrays; the
    velocity-level nominal used inside k_v comes from bcfg.k_nom_v.  Each
    sample, record or stage, is one call of point: accel_nom, then one call
    of accel_kernel's terms.filter on floats.
    """
    _check_times(T, dt=dt)
    st = bs.ExtendedState(np.array(state0.y), np.array(state0.ydot))
    if bs.h_B(st, sf, gf, bcfg) < 0.0:
        raise StartUnsafe("h_B(state0) < 0")
    kernel = bs.accel_kernel(FieldSampler(sf, gf), bcfg.nominal_at(sf),
                             bcfg).filter

    def point(z, row=False):
        w_nom = np.asarray(accel_nom(np.array(z[:2]), np.array(z[2:])),
                           dtype=float).tolist()
        out = kernel(*z, tuple(w_nom), row)
        if not row:
            return z[2:] + out
        w, h, h_B, resid_nom, resid = out
        return ((z[0], z[1], *w_nom, *w, h, resid_nom, resid, z[2], z[3],
                 h_B), z[2:] + w)

    n = int(math.floor(T / dt + 1e-9))
    z0 = tuple(st.y.tolist() + st.ydot.tolist())
    return _rollout(z0, [(point, n)], dt, goal, sf.grid.d)


def time_derivative(h_prev, h_next, dt):
    """(h_next - h_prev)/dt as a field on h_prev's lattice.

    Cells on only one side use that side's value against the Dirichlet 0 of
    the other (an obstacle moved over them); the returned field carries a
    .changed mask marking those cells.
    """
    if dt <= 0:
        raise InvalidTimeStep("dt must be positive")
    gp, gn = h_prev.grid, h_next.grid
    if not gp.same_geometry(gn):
        raise GridMismatch("frames live on different lattices")
    pe = np.where(gp.free, h_prev.values, 0.0)
    ne = np.where(gn.free, h_next.values, 0.0)
    vals = (ne - pe) / dt
    # vacated by a retreating obstacle
    entering = np.nonzero(gn.free & ~gp.free)
    out = ScalarField(gp, fill_band(gp, np.where(gp.free, vals, 0.0),
                                    band_value=0.0, cells=entering,
                                    cell_values=vals[entering]))
    out.changed = gp.free ^ gn.free
    return out


# run_dynamic's stacked solves stay within this many lattice cells: a
# sweep's cost per cell falls as a stack grows to about this size and rises
# past it (measured on moving_block frames at 64x48 and 96^2)
_STACK_CELLS = 1 << 16


@dataclass
class Frame:
    t: float
    speed: float
    build: object
    dh_dt: object
    zone: object


@dataclass
class DynamicResult:
    trajectory: Trajectory
    frames: list = field(default_factory=list)


def run_dynamic(scenario, dt_frame, dt_sim, T):
    """Frame-by-frame dynamic pipeline.

    Per frame: re-rasterize, re-solve h and v, difference consecutive h for
    dh/dt, extract the dynamic activation zone, then integrate with the
    time-varying filter while the fields stay frozen.  Frames are solved
    in stacks, each in one stacked solve (Scenario._build_frames), counted
    from frame 0: as many frames per stack as keep it within _STACK_CELLS
    lattice cells at three systems per frame, and at least two, so 7 on a
    64x48 lattice and 2 from about 86^2 up.  The frame at t = T only feeds
    dh/dt, solves for h alone and comes last, so a 5-frame run on 64x48
    solves (0, ..., 4, h5) in one stack, and on 96^2 (0, 1), (2, 3),
    (4, h5).  A stack is solved when the run first needs its first frame,
    so a run that stops early builds at most one stack past the frame its
    dh/dt needs, and a frame's failure raises only when the run reaches
    it.  The closing sample at t = T uses the last frame's fields.  With
    all obstacle speeds zero every step reduces bit for bit to the static
    pipeline.
    """
    _check_times(T, dt_frame=dt_frame, dt_sim=dt_sim)
    m = dt_frame / dt_sim
    if abs(m - round(m)) > 1e-9:
        raise InvalidTimeStep("dt_sim must divide dt_frame")
    m = int(round(m))
    nf = T / dt_frame
    if abs(nf - round(nf)) > 1e-9 or round(nf) < 1:
        raise InvalidTimeStep("dt_frame must divide T, T > 0")
    nf = int(round(nf))

    per = max(2, _STACK_CELLS // (3 * scenario.nx * scenario.ny))

    def builds():       # frames 0 .. nf, the last one h alone, in stacks
        for k in range(0, nf + 1, per):
            stack = range(k, min(k + per, nf + 1))
            yield from scenario._build_frames(
                [j * dt_frame if j else 0.0 for j in stack],
                h_last=nf in stack)

    frame_builds = builds()
    b0 = next(frame_builds)
    cfg = b0.filter_cfg
    y = np.array(scenario.sim_cfg["y0"], dtype=float)
    _check_start(y, scenario.controller(b0), b0.sf, b0.gf, cfg, dt_sim,
                 " in the first frame")
    y = tuple(y.tolist())
    frames = []

    def segments():     # frame k + 1 is finished when segment k starts
        bk = b0
        for k in range(nf):
            nxt = next(frame_builds)
            h1 = nxt.sf.h if k + 1 < nf else nxt
            dh = time_derivative(bk.sf.h, h1, dt_frame)
            controller = scenario.controller(bk)
            zone = activation_zone(bk.grid, controller, bk.sf, bk.gf, cfg,
                                   dh_dt=dh)
            frames.append(Frame(k * dt_frame, scenario.speed_at(k * dt_frame),
                                bk, dh, zone))
            yield _filtered(controller, bk.sf, bk.gf, cfg, m, dh)
            bk = nxt

    tr = _rollout(y, segments(), dt_sim, scenario.sim_cfg.get("goal"),
                  b0.grid.d)
    return DynamicResult(tr, frames)
