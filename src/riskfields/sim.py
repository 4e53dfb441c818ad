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
from .errors import (DegenerateCoefficient, GridMismatch, InvalidTimeStep,
                     OutOfDomain, StartUnsafe, VanishingGuidance)
from .grid import FieldSampler, ScalarField, fill_band
# activation, filter_control and their dynamic forms are not called here;
# they stay importable from this module, where perfbench's tracer wraps them.
from .safety import (activation, activation_dynamic, activation_zone,  # noqa: F401
                     filter_control, filter_control_dynamic,
                     lattice_activation, min_norm)

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
            raise ValueError("times and speeds must be matching 1-d arrays")
        if self.times[0] != 0.0 or (np.diff(self.times) < 0).any():
            raise ValueError("times must start at 0 and be nondecreasing")
        if (self.speeds < 0).any():
            raise ValueError("speeds must be nonnegative")
        heading = np.asarray(heading, dtype=float)
        nh = np.linalg.norm(heading)
        if nh == 0:
            raise ValueError("heading must be a nonzero vector")
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
    goal = np.asarray(goal, dtype=float)

    def k_nom(y):
        return nominal_goal(y, mu, goal)

    k_nom.goal = goal
    return k_nom


def adversarial_controller(mu, sf):
    def k_nom(y):
        return nominal_adversarial(y, mu, sf)

    return k_nom


def _check_start(y, controller, sf, gf, cfg, dt, where=""):
    """Refuses a start with h(y) <= 0 and a dt above the CFL bound."""
    if sf.value(y) <= 0.0:
        raise StartUnsafe(f"h({tuple(y)}) <= 0{where}")
    grid = sf.grid
    umax = _u_max_estimate(grid, controller, sf, gf, cfg)
    if umax > 0 and dt > grid.d / (4.0 * umax):
        raise InvalidTimeStep(
            f"dt={dt} too coarse: need <= {grid.d / (4.0 * umax):.3e}"
            f" (d={grid.d}, u_max~{umax:.3g})")


def _u_max_estimate(grid, controller, sf, gf, cfg):
    """Max filtered-input magnitude over the free lattice, for a CFL guard."""
    kx, ky, _, a = lattice_activation(grid, controller, sf, gf, cfg)
    free = grid.free
    vx, vy, a = gf.v.x.values[free], gf.v.y.values[free], a[free]
    nv2 = vx * vx + vy * vy
    corr = np.where((a < 0.0) & (nv2 >= cfg.eta_v ** 2),
                    -a / np.where(nv2 > 0, nv2, 1.0), 0.0)
    u = np.hypot(kx[free] + corr * vx, ky[free] + corr * vy)
    return float(u.max()) if len(u) else 0.0


def _rk4(y, f, dt):
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_COLUMNS = ("t", "y", "u_nom", "u_filt", "h", "a", "audit", "ydot", "h_B")


class _Recorder:
    """Trajectory rows; a double-integrator row adds ydot and h_B."""

    def __init__(self, double=False):
        self.width = 9 if double else 7
        self.rows = []

    def add(self, t, y, u_nom, u_filt, h, a, audit, ydot=None, h_B=None):
        row = (t, np.array(y), np.array(u_nom), np.array(u_filt), h, a, audit)
        if self.width == 9:
            row += (np.array(ydot), h_B)
        self.rows.append(row)

    def build(self, dt, termination):
        cols = list(zip(*self.rows)) or [()] * self.width
        return Trajectory(dt=dt, termination=termination,
                          **{k: np.array(c) for k, c in zip(_COLUMNS, cols)})


def _samples(segments):
    """(record, stage) for every step of every segment, then the last
    segment's (record, None) for the closing sample."""
    record = None
    for record, stage, steps in segments:
        for _ in range(steps):
            yield record, stage
    yield record, None


def _rollout(z, segments, dt, goal, d):
    """The record, goal check and RK4 step loop of every closed-loop run.

    segments yields (record, stage, steps): record(z) returns the row that
    _Recorder.add takes after t, stage(z) is the RK4 right-hand side, and
    the segment runs for steps steps.  After the last segment its record
    takes the closing sample.  Any sample with z[:2] within d of goal ends
    the run; a degenerate filter ends it as DEGENERATE and a point off the
    lattice as LEFT_DOMAIN.
    """
    rec = _Recorder(double=len(z) == 4)
    term = TIME_LIMIT
    try:
        for k, (record, stage) in enumerate(_samples(segments)):
            rec.add(k * dt, *record(z))
            if goal is not None and np.linalg.norm(z[:2] - goal) < d:
                term = GOAL_REACHED
                break
            if stage is not None:
                z = _rk4(z, stage, dt)
    except (VanishingGuidance, DegenerateCoefficient):
        term = DEGENERATE
    except OutOfDomain:
        term = LEFT_DOMAIN
    return rec.build(dt, term)


def _filtered(controller, sf, gf, cfg, steps, dh_dt=None):
    """(record, stage, steps) of ydot = the closed-form filter of
    controller(y), sampled once per point; with dh_dt the time-varying
    filter."""
    fs = FieldSampler(sf, gf, dh_dt)
    grad = dh_dt is not None

    def record(y):
        u_nom = np.asarray(controller(y), dtype=float)
        s = fs.at(y, grad)
        u, a, audit = min_norm(y, u_nom, s, cfg)
        return y, u_nom, u, s[0], a, audit

    def stage(y):
        return min_norm(y, controller(y), fs.at(y, grad), cfg)[0]

    return record, stage, steps


def integrate_single(y0, controller, sf, gf, cfg, dt, T, goal=None):
    """RK4 on ydot = filter_control(y, controller(y)).

    Records every step; stops early on goal capture (within one cell),
    domain exit, or a degenerate filter evaluation.
    """
    y = np.array(y0, dtype=float)
    _check_start(y, controller, sf, gf, cfg, dt)
    if goal is None:
        goal = getattr(controller, "goal", None)
    n = int(math.floor(T / dt + 1e-9))
    return _rollout(y, [_filtered(controller, sf, gf, cfg, n)], dt, goal,
                    sf.grid.d)


def integrate_double(state0, accel_nom, sf, gf, bcfg, dt, T, goal=None):
    """RK4 on the extended state with the acceleration-level filter.

    accel_nom(y, ydot) is the nominal acceleration; the velocity-level
    nominal used inside k_v comes from bcfg.k_nom_v.
    """
    st = bs.ExtendedState(np.array(state0.y), np.array(state0.ydot))
    if bs.h_B(st, sf, gf, bcfg) < 0.0:
        raise StartUnsafe("h_B(state0) < 0")
    fs = FieldSampler(sf, gf)

    def record(z):
        q = bs.ExtendedState(z[:2], z[2:])
        w_nom = np.asarray(accel_nom(q.y, q.ydot), dtype=float)
        terms = bs.accel_terms(q, sf, gf, bcfg, fs)
        w, resid_nom = terms.filter(w_nom, bcfg)
        resid = terms.hdot_B(w, bcfg.mu) + bcfg.gamma * terms.h_B
        return q.y, w_nom, w, terms.h, resid_nom, resid, q.ydot, terms.h_B

    def stage(z):
        q = bs.ExtendedState(z[:2], z[2:])
        w_nom = accel_nom(q.y, q.ydot)
        w, _ = bs.accel_terms(q, sf, gf, bcfg, fs).filter(w_nom, bcfg)
        return np.concatenate([q.ydot, w])

    n = int(math.floor(T / dt + 1e-9))
    return _rollout(np.concatenate([st.y, st.ydot]), [(record, stage, n)],
                    dt, goal, sf.grid.d)


def time_derivative(h_prev, h_next, dt):
    """(h_next - h_prev)/dt as a field on h_prev's lattice.

    Cells on only one side use that side's value against the Dirichlet 0 of
    the other (an obstacle moved over them); the returned field carries a
    .changed mask marking those cells.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    gp, gn = h_prev.grid, h_next.grid
    if not gp.same_geometry(gn):
        raise GridMismatch("frames live on different lattices")
    pe = np.where(gp.free, h_prev.values, 0.0)
    ne = np.where(gn.free, h_next.values, 0.0)
    vals = (ne - pe) / dt
    entering = gn.free & ~gp.free   # vacated by a retreating obstacle
    per_cell = {(int(i), int(j)): float(vals[i, j])
                for i, j in zip(*np.nonzero(entering))}
    out = ScalarField(gp, fill_band(gp, np.where(gp.free, vals, 0.0),
                                    band_value=0.0, per_cell=per_cell))
    out.changed = gp.free ^ gn.free
    return out


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
    time-varying filter while the fields stay frozen.  The closing sample
    at t = T uses the last frame's fields.  With all obstacle speeds zero
    every step reduces bit for bit to the static pipeline.
    """
    m = dt_frame / dt_sim
    if abs(m - round(m)) > 1e-9:
        raise InvalidTimeStep("dt_sim must divide dt_frame")
    m = int(round(m))
    nf = T / dt_frame
    if abs(nf - round(nf)) > 1e-9 or round(nf) < 1:
        raise InvalidTimeStep("dt_frame must divide T, T > 0")
    nf = int(round(nf))

    builds = [scenario.build(t=k * dt_frame) for k in range(nf + 1)]
    b0 = builds[0]
    cfg = b0.filter_cfg
    y = np.array(scenario.sim_cfg["y0"], dtype=float)
    _check_start(y, scenario.controller(b0), b0.sf, b0.gf, cfg, dt_sim,
                 " in the first frame")
    frames = []

    def segments():             # built on demand: frames stop with the run
        for k in range(nf):
            bk = builds[k]
            dh = time_derivative(bk.sf.h, builds[k + 1].sf.h, dt_frame)
            controller = scenario.controller(bk)
            zone = activation_zone(bk.grid, controller, bk.sf, bk.gf, cfg,
                                   dh_dt=dh)
            frames.append(Frame(k * dt_frame, scenario.speed_at(k * dt_frame),
                                bk, dh, zone))
            yield _filtered(controller, bk.sf, bk.gf, cfg, m, dh)

    tr = _rollout(y, segments(), dt_sim, scenario.sim_cfg.get("goal"),
                  b0.grid.d)
    return DynamicResult(tr, frames)
