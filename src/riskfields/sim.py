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
from .errors import (DegenerateCoefficient, GridMismatch, OutOfDomain,
                     StartUnsafe, VanishingGuidance)
from .grid import ScalarField, fill_band, sample_gradient
from .safety import (activation, activation_dynamic, activation_zone,
                     eval_controller, filter_control, filter_control_dynamic)

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
    """-mu Dh(y): straight at the nearest obstacle, the worst case."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return -mu * sf.grad_at(y)
    out = np.empty_like(y)
    for i in range(y.shape[0]):
        out[i] = -mu * sf.grad_at(y[i])
    return out


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


def _u_max_estimate(grid, controller, sf, gf, cfg):
    """Max filtered-input magnitude over the free lattice, for a CFL guard."""
    pts = grid.free_centers()
    ks = eval_controller(controller, pts)
    vx = gf.v.x.values[grid.free]
    vy = gf.v.y.values[grid.free]
    h = sf.h.values[grid.free]
    vk = vx * ks[:, 0] + vy * ks[:, 1]
    a = vk + cfg.gamma * h
    nv2 = vx * vx + vy * vy
    corr = np.where((a < 0.0) & (nv2 >= cfg.eta_v ** 2),
                    -a / np.where(nv2 > 0, nv2, 1.0), 0.0)
    u = np.hypot(ks[:, 0] + corr * vx, ks[:, 1] + corr * vy)
    return float(u.max()) if len(u) else 0.0


def _check_cfl(grid, dt, umax):
    if umax > 0 and dt > grid.d / (4.0 * umax):
        raise ValueError(
            f"dt={dt} too coarse: need <= {grid.d / (4.0 * umax):.3e}"
            f" (d={grid.d}, u_max~{umax:.3g})")


def _rk4(y, f, dt):
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Recorder:
    def __init__(self, with_ydot=False, with_hb=False):
        self.rows = {k: [] for k in
                     ("t", "y", "u_nom", "u_filt", "h", "a", "audit")}
        self.ydot = [] if with_ydot else None
        self.h_B = [] if with_hb else None

    def add(self, t, y, u_nom, u_filt, h, a, audit, ydot=None, h_B=None):
        r = self.rows
        r["t"].append(t)
        r["y"].append(np.array(y))
        r["u_nom"].append(np.array(u_nom))
        r["u_filt"].append(np.array(u_filt))
        r["h"].append(h)
        r["a"].append(a)
        r["audit"].append(audit)
        if self.ydot is not None:
            self.ydot.append(np.array(ydot))
        if self.h_B is not None:
            self.h_B.append(h_B)

    def build(self, dt, termination):
        r = self.rows
        return Trajectory(
            t=np.array(r["t"]), y=np.array(r["y"]),
            u_nom=np.array(r["u_nom"]), u_filt=np.array(r["u_filt"]),
            h=np.array(r["h"]), a=np.array(r["a"]),
            audit=np.array(r["audit"]), dt=dt, termination=termination,
            ydot=None if self.ydot is None else np.array(self.ydot),
            h_B=None if self.h_B is None else np.array(self.h_B))


def integrate_single(y0, controller, sf, gf, cfg, dt, T, goal=None):
    """RK4 on ydot = filter_control(y, controller(y)).

    Records every step; stops early on goal capture (within one cell),
    domain exit, or a degenerate filter evaluation.
    """
    grid = sf.grid
    y = np.array(y0, dtype=float)
    if sf.value(y) <= 0.0:
        raise StartUnsafe(f"h({tuple(y)}) <= 0")
    _check_cfl(grid, dt, _u_max_estimate(grid, controller, sf, gf, cfg))
    if goal is None:
        goal = getattr(controller, "goal", None)

    def f(q):
        return filter_control(q, controller(q), sf, gf, cfg)

    n = int(math.floor(T / dt + 1e-9))
    rec = _Recorder()
    term = TIME_LIMIT
    for k in range(n + 1):
        t = k * dt
        try:
            u_nom = np.asarray(controller(y), dtype=float)
            u = filter_control(y, u_nom, sf, gf, cfg)
            hv = sf.value(y)
            a = activation(y, u_nom, sf, gf, cfg)
            audit = activation(y, u, sf, gf, cfg)
        except VanishingGuidance:
            term = DEGENERATE
            break
        except OutOfDomain:
            term = LEFT_DOMAIN
            break
        rec.add(t, y, u_nom, u, hv, a, audit)
        if goal is not None and np.linalg.norm(y - goal) < grid.d:
            term = GOAL_REACHED
            break
        if k == n:
            break
        try:
            y = _rk4(y, f, dt)
        except VanishingGuidance:
            term = DEGENERATE
            break
        except OutOfDomain:
            term = LEFT_DOMAIN
            break
    return rec.build(dt, term)


def integrate_double(state0, accel_nom, sf, gf, bcfg, dt, T, goal=None):
    """RK4 on the extended state with the acceleration-level filter.

    accel_nom(y, ydot) is the nominal acceleration; the velocity-level
    nominal used inside k_v comes from bcfg.k_nom_v.
    """
    grid = sf.grid
    st = bs.ExtendedState(np.array(state0.y), np.array(state0.ydot))
    if bs.h_B(st, sf, gf, bcfg) < 0.0:
        raise StartUnsafe("h_B(state0) < 0")

    def f(z):
        q = bs.ExtendedState(z[:2], z[2:])
        w = bs.filter_accel(q, accel_nom(q.y, q.ydot), sf, gf, bcfg)
        return np.concatenate([q.ydot, w])

    n = int(math.floor(T / dt + 1e-9))
    rec = _Recorder(with_ydot=True, with_hb=True)
    term = TIME_LIMIT
    z = np.concatenate([st.y, st.ydot])
    for k in range(n + 1):
        t = k * dt
        st = bs.ExtendedState(z[:2], z[2:])
        try:
            w_nom = np.asarray(accel_nom(st.y, st.ydot), dtype=float)
            w = bs.filter_accel(st, w_nom, sf, gf, bcfg)
            hv = sf.value(st.y)
            hb = bs.h_B(st, sf, gf, bcfg)
            resid_nom = bs.hdot_B(st, w_nom, sf, gf, bcfg) + bcfg.gamma * hb
            resid = bs.hdot_B(st, w, sf, gf, bcfg) + bcfg.gamma * hb
        except (VanishingGuidance, DegenerateCoefficient):
            term = DEGENERATE
            break
        except OutOfDomain:
            term = LEFT_DOMAIN
            break
        rec.add(t, st.y, w_nom, w, hv, resid_nom, resid, ydot=st.ydot, h_B=hb)
        if goal is not None and np.linalg.norm(st.y - goal) < grid.d:
            term = GOAL_REACHED
            break
        if k == n:
            break
        try:
            z = _rk4(z, f, dt)
        except (VanishingGuidance, DegenerateCoefficient):
            term = DEGENERATE
            break
        except OutOfDomain:
            term = LEFT_DOMAIN
            break
    return rec.build(dt, term)


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
    time-varying filter while the fields stay frozen.  With all obstacle
    speeds zero every step reduces bit for bit to the static pipeline.
    """
    m = dt_frame / dt_sim
    if abs(m - round(m)) > 1e-9:
        raise ValueError("dt_sim must divide dt_frame")
    m = int(round(m))
    nf = T / dt_frame
    if abs(nf - round(nf)) > 1e-9:
        raise ValueError("dt_frame must divide T")
    nf = int(round(nf))

    builds = [scenario.build(t=k * dt_frame) for k in range(nf + 1)]
    b0 = builds[0]
    cfg = b0.filter_cfg
    y = np.array(scenario.sim_cfg["y0"], dtype=float)
    if b0.sf.value(y) <= 0.0:
        raise StartUnsafe(f"h({tuple(y)}) <= 0 in the first frame")
    controller0 = scenario.controller(b0)
    _check_cfl(b0.grid, dt_sim,
               _u_max_estimate(b0.grid, controller0, b0.sf, b0.gf, cfg))
    goal = scenario.sim_cfg.get("goal")
    if goal is not None:
        goal = np.asarray(goal, dtype=float)

    rec = _Recorder()
    frames = []
    term = TIME_LIMIT
    step = 0
    done = False
    for k in range(nf):
        bk = builds[k]
        sfk, gfk = bk.sf, bk.gf
        dh = time_derivative(bk.sf.h, builds[k + 1].sf.h, dt_frame)
        controller = scenario.controller(bk)
        zone = activation_zone(bk.grid, controller, sfk, gfk, cfg, dh_dt=dh)
        frames.append(Frame(k * dt_frame, scenario.speed_at(k * dt_frame),
                            bk, dh, zone))

        def f(q, t=0.0, s=sfk, d=dh, g=gfk, c=controller):
            return filter_control_dynamic(q, t, c(q), s, d, g, cfg)

        for _ in range(m):
            t = step * dt_sim
            try:
                u_nom = np.asarray(controller(y), dtype=float)
                u = filter_control_dynamic(y, t, u_nom, sfk, dh, gfk, cfg)
                hv = sfk.value(y)
                a = activation_dynamic(y, t, u_nom, sfk, dh, gfk, cfg)
                audit = activation_dynamic(y, t, u, sfk, dh, gfk, cfg)
            except VanishingGuidance:
                term, done = DEGENERATE, True
                break
            except OutOfDomain:
                term, done = LEFT_DOMAIN, True
                break
            rec.add(t, y, u_nom, u, hv, a, audit)
            if goal is not None and np.linalg.norm(y - goal) < b0.grid.d:
                term, done = GOAL_REACHED, True
                break
            try:
                y = _rk4(y, f, dt_sim)
            except VanishingGuidance:
                term, done = DEGENERATE, True
                break
            except OutOfDomain:
                term, done = LEFT_DOMAIN, True
                break
            step += 1
        if done:
            break
    if not done:
        # closing sample at t = T against the last frame's fields
        bk = builds[nf - 1]
        sfk, gfk = bk.sf, bk.gf
        dh = frames[-1].dh_dt
        controller = scenario.controller(bk)
        t = step * dt_sim
        try:
            u_nom = np.asarray(controller(y), dtype=float)
            u = filter_control_dynamic(y, t, u_nom, sfk, dh, gfk, cfg)
            rec.add(t, y, u_nom, u, sfk.value(y),
                    activation_dynamic(y, t, u_nom, sfk, dh, gfk, cfg),
                    activation_dynamic(y, t, u, sfk, dh, gfk, cfg))
        except VanishingGuidance:
            term = DEGENERATE
        except OutOfDomain:
            term = LEFT_DOMAIN
    return DynamicResult(rec.build(dt_sim, term), frames)
