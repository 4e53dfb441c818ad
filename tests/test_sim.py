"""Motion profiles, nominal controllers, closed-loop integrators."""

import copy
import math

import numpy as np
import pytest

from riskfields import sim
from riskfields.backstep import BackstepConfig, ExtendedState, k_v_smooth
from riskfields.errors import GridMismatch, OutOfDomain, StartUnsafe
from riskfields.grid import ScalarField
from riskfields.safety import SafetyFunction
from riskfields.scenario import Scenario
from riskfields.sim import (GOAL_REACHED, LEFT_DOMAIN, TIME_LIMIT,
                            MotionProfile, adversarial_controller,
                            goal_controller, integrate_double,
                            integrate_single, nominal_adversarial,
                            nominal_goal, run_dynamic, time_derivative, _rk4)

from conftest import SCENARIOS
import yaml


def load_doc(name):
    with open(SCENARIOS / f"{name}.yaml") as fh:
        return yaml.safe_load(fh)


# -- motion profiles ------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ValueError):
        MotionProfile([0.0, 1.0], [0.0], (1, 0))
    with pytest.raises(ValueError):
        MotionProfile([0.5, 1.0], [0.0, 1.0], (1, 0))
    with pytest.raises(ValueError):
        MotionProfile([0.0, 2.0, 1.0], [0.0, 1.0, 0.0], (1, 0))
    with pytest.raises(ValueError):
        MotionProfile([0.0, 1.0], [0.0, -0.2], (1, 0))
    with pytest.raises(ValueError):
        MotionProfile([0.0], [1.0], (0, 0))


def test_profile_speed_interpolation():
    p = MotionProfile.trapezoid(0.6, 3.0, 1.0, 3.0, (1, 0))
    assert p.speed(0.0) == 0.0
    assert p.speed(1.5) == pytest.approx(0.3)
    assert p.speed(3.5) == 0.6
    assert p.speed(5.5) == pytest.approx(0.3)
    assert p.speed(100.0) == 0.0  # holds the last value
    c = MotionProfile.constant(0.4, (0, 1))
    assert c.speed(0.0) == 0.4
    assert c.speed(7.0) == 0.4


def test_profile_offset_matches_quadrature():
    p = MotionProfile.trapezoid(0.6, 3.0, 1.0, 3.0, (1, 0))
    for t in (0.0, 0.7, 3.0, 3.5, 4.0, 5.2, 7.0, 9.0):
        ts = np.linspace(0.0, t, 20001)
        quad = np.trapezoid([p.speed(s) for s in ts], ts) if t > 0 else 0.0
        assert p.offset(t) == pytest.approx(quad, abs=1e-6)
    # beyond the profile the final speed holds (zero here)
    assert p.offset(9.0) == p.offset(7.0)
    c = MotionProfile.constant(0.4, (0, 1))
    assert c.offset(2.5) == pytest.approx(1.0)


def test_profile_displacement_uses_unit_heading():
    p = MotionProfile.constant(2.0, (3.0, 4.0))
    assert np.allclose(p.heading, [0.6, 0.8])
    assert np.allclose(p.displacement(1.0), [1.2, 1.6])


# -- nominal controllers -----------------------------------------------------------

def test_nominal_goal_single_and_batch():
    goal = np.array([1.0, -1.0])
    assert np.allclose(nominal_goal([2.0, 0.0], 0.5, goal), [-0.5, -0.5])
    ys = np.array([[2.0, 0.0], [1.0, -1.0]])
    out = nominal_goal(ys, 0.5, goal)
    assert out.shape == (2, 2)
    assert np.allclose(out[1], 0.0)


def test_nominal_adversarial_descends_h(disk_build):
    _, res = disk_build
    y = np.array([0.5, 0.2])
    u = nominal_adversarial(y, 2.0, res.sf)
    assert np.allclose(u, -2.0 * res.sf.grad_at(y))
    # pointing against the gradient lowers h
    assert float(u @ res.sf.grad_at(y)) < 0
    batch = nominal_adversarial(np.array([y, -y]), 2.0, res.sf)
    assert np.allclose(batch[0], u)


def test_controller_factories(disk_build):
    _, res = disk_build
    kg = goal_controller(1.5, [0.2, 0.1])
    assert np.allclose(kg.goal, [0.2, 0.1])
    assert np.allclose(kg([1.2, 0.1]), [-1.5, 0.0])
    ka = adversarial_controller(0.7, res.sf)
    assert not hasattr(ka, "goal")
    y = np.array([0.3, -0.4])
    assert np.allclose(ka(y), -0.7 * res.sf.grad_at(y))


# -- integrator core -----------------------------------------------------------------

def test_rk4_is_fourth_order():
    def err(n):
        y = np.array([1.0])
        dt = 1.0 / n
        for _ in range(n):
            y = _rk4(y, lambda q: -q, dt)
        return abs(float(y[0]) - math.exp(-1.0))

    ratio = err(20) / err(40)
    assert 12.0 <= ratio <= 20.0  # halving dt cuts the error ~16x


def test_cfl_guard(disk_build):
    sc, res = disk_build
    k = goal_controller(1.0, sc.sim_cfg["goal"])
    with pytest.raises(ValueError):
        integrate_single(sc.sim_cfg["y0"], k, res.sf, res.gf,
                         res.filter_cfg, dt=0.5, T=2.0)


def test_start_unsafe_single(disk_build):
    _, res = disk_build
    g = res.grid
    vals = res.sf.h.values
    y0 = None
    for i, j in zip(*np.nonzero(g.band1)):
        # need the whole sampling stencil finite so h comes back 0, not NaN
        if np.isfinite(vals[i:i + 2, j:j + 2]).all():
            y0 = g.cell_center(i, j)
            break
    assert y0 is not None
    assert res.sf.value(y0) == 0.0
    k = goal_controller(1.0, [0.0, 0.0])
    with pytest.raises(StartUnsafe):
        integrate_single(y0, k, res.sf, res.gf, res.filter_cfg,
                         dt=0.001, T=0.1)


def test_goal_run_is_safe_and_deterministic(disk_build):
    sc, res = disk_build
    k = goal_controller(sc.nominal_mu, sc.sim_cfg["goal"])
    kw = dict(controller=k, sf=res.sf, gf=res.gf, cfg=res.filter_cfg,
              dt=sc.sim_cfg["dt"], T=sc.sim_cfg["T"])
    tr = integrate_single(sc.sim_cfg["y0"], **kw)
    assert tr.termination == GOAL_REACHED
    assert np.linalg.norm(tr.y[-1] - sc.sim_cfg["goal"]) < res.grid.d
    assert tr.min_h() > 0.0
    assert tr.audit.min() >= -1e-9
    assert np.allclose(tr.t, np.arange(tr.n) * tr.dt)
    assert tr.path_length() >= np.linalg.norm(tr.y[-1] - tr.y[0]) - 1e-12
    tr2 = integrate_single(sc.sim_cfg["y0"], **kw)
    for fld in ("t", "y", "u_nom", "u_filt", "h", "a", "audit"):
        assert np.array_equal(getattr(tr, fld), getattr(tr2, fld))


def test_filter_audit_identity(disk_build):
    # where the nominal already satisfies the constraint the filter is a
    # no-op (audit == a); where it does not, the filtered margin is ~0
    sc, res = disk_build
    k = adversarial_controller(1.0, res.sf)
    tr = integrate_single(sc.sim_cfg["y0"], k, res.sf, res.gf,
                          res.filter_cfg, dt=sc.sim_cfg["dt"], T=2.0)
    inactive = tr.a >= 0
    assert np.array_equal(tr.audit[inactive], tr.a[inactive])
    active = ~inactive
    assert active.any()
    assert np.abs(tr.audit[active]).max() <= 1e-12
    assert np.array_equal(tr.u_nom[inactive], tr.u_filt[inactive])


def test_trajectory_csv_format(tmp_path, disk_build):
    sc, res = disk_build
    k = goal_controller(1.0, sc.sim_cfg["goal"])
    tr = integrate_single(sc.sim_cfg["y0"], k, res.sf, res.gf,
                          res.filter_cfg, dt=sc.sim_cfg["dt"], T=0.2)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,unom_x,unom_y,u_x,u_y,h,h_B,a,flags"
    assert len(lines) == tr.n + 1
    first = lines[1].split(",")
    assert float(first[0]) == tr.t[0]
    assert float(first[1]) == tr.y[0, 0]  # %.17g round trips doubles
    assert first[-1] == ""
    assert lines[-1].endswith("," + tr.termination)
    assert math.isnan(float(first[8]))  # no h_B channel on a single run


def _double_smoke_run(sc, res, sf):
    bcfg = res.backstep_cfg
    y0 = np.array(sc.sim_cfg["y0"], dtype=float)
    kv0 = k_v_smooth(y0, bcfg.nominal(y0), sf, res.gf, bcfg)
    state0 = ExtendedState(y0, kv0)

    def accel_nom(y, ydot):
        return bcfg.mu * (bcfg.nominal(y) - ydot)

    return integrate_double(state0, accel_nom, sf, res.gf, bcfg,
                            dt=sc.sim_cfg["dt"], T=2.0)


def test_integrate_double_smoke(tmp_path, single_build):
    sc, res = single_build
    assert res.backstep_cfg is not None
    tr = _double_smoke_run(sc, res, res.sf)
    assert tr.ydot is not None and tr.h_B is not None
    assert tr.ydot.shape == (tr.n, 2)
    # position-level safety is the discrete guarantee; h_B itself may dip
    # negative transiently when the stiff correction chatters around e = 0
    assert tr.min_h() > 0.0
    assert tr.audit.min() >= -1e-9  # every recorded step solved its QP
    assert (tr.h_B <= tr.h + 1e-12).all()
    # h_B starts at h exactly: the initial velocity sits on the manifold
    assert tr.h_B[0] == pytest.approx(tr.h[0])
    path = tmp_path / "double.csv"
    tr.to_csv(path)
    head = path.read_text().splitlines()[0]
    assert head == "t,x,y,vx,vy,unom_x,unom_y,u_x,u_y,h,h_B,a,flags"


@pytest.mark.xfail(strict=True, reason="knife edge: h perturbed by 1e-12 "
                   "sends the double integrator into the ghost band, where "
                   "the backstepping correction blows up as e -> 0")
def test_integrate_double_smoke_survives_round_off_in_h(single_build):
    sc, res = single_build
    ref = _double_smoke_run(sc, res, res.sf)
    free = res.grid.free
    for seed in range(6):
        rng = np.random.default_rng(seed)
        vals = res.sf.h.values.copy()
        vals[free] += 1e-12 * rng.uniform(-1.0, 1.0, int(free.sum()))
        sf = SafetyFunction(ScalarField(res.grid, vals))
        tr = _double_smoke_run(sc, res, sf)
        assert tr.min_h() > 0.0, seed
        assert tr.termination == ref.termination, seed


def test_integrate_double_start_unsafe(single_build):
    sc, res = single_build
    bcfg = res.backstep_cfg
    state0 = ExtendedState(sc.sim_cfg["y0"], [8.0, -8.0])  # way off k_v
    with pytest.raises(StartUnsafe):
        integrate_double(state0, lambda y, v: np.zeros(2), res.sf, res.gf,
                         bcfg, dt=0.003, T=1.0)


# -- frame differencing ----------------------------------------------------------------

def test_time_derivative_static_zero(single_build):
    _, res = single_build
    dh = time_derivative(res.sf.h, res.sf.h, 0.1)
    assert np.all(dh.values[res.grid.free] == 0.0)
    assert not dh.changed.any()


def test_time_derivative_validation(single_build, disk_build):
    _, res = single_build
    _, other = disk_build
    with pytest.raises(ValueError):
        time_derivative(res.sf.h, res.sf.h, 0.0)
    with pytest.raises(GridMismatch):
        time_derivative(res.sf.h, other.sf.h, 0.1)


def test_time_derivative_moving_frames():
    sc = Scenario(load_doc("moving_block"))
    b0 = sc.build(t=3.2)
    b1 = sc.build(t=3.4)
    dh = time_derivative(b0.sf.h, b1.sf.h, 0.2)
    g0, g1 = b0.grid, b1.grid
    assert np.array_equal(dh.changed, g0.free ^ g1.free)
    assert dh.changed.any()  # the block really moved
    both = g0.free & g1.free
    want = (b1.sf.h.values[both] - b0.sf.h.values[both]) / 0.2
    assert np.allclose(dh.values[both], want)
    # vacated cells: one-sided value h_next/dt, readable off the field
    entering = g1.free & ~g0.free
    ii, jj = np.nonzero(entering)
    assert np.allclose(dh.values[ii, jj], b1.sf.h.values[ii, jj] / 0.2)
    # h ahead of the block drops, h behind it rises
    assert dh.values[both].min() < 0 < dh.values[both].max()


# -- dynamic pipeline ----------------------------------------------------------------

def test_run_dynamic_divisibility_checks():
    sc = Scenario(load_doc("moving_block"))
    with pytest.raises(ValueError):
        run_dynamic(sc, dt_frame=0.2, dt_sim=0.03, T=2.0)
    with pytest.raises(ValueError):
        run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=2.1)


def test_run_dynamic_zero_speed_matches_static():
    doc = load_doc("moving_block")
    doc["motion"][0]["profile"] = {"kind": "constant", "speed": 0.0}
    sc = Scenario(doc)
    dyn = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=2.0)
    tr_d = dyn.trajectory

    res = sc.build()
    k = sc.controller(res)
    tr_s = integrate_single(sc.sim_cfg["y0"], k, res.sf, res.gf,
                            res.filter_cfg, dt=0.004, T=2.0,
                            goal=sc.sim_cfg.get("goal"))
    assert tr_d.termination == tr_s.termination == TIME_LIMIT
    assert tr_d.n == tr_s.n
    for fld in ("t", "y", "u_nom", "u_filt", "h", "a", "audit"):
        assert np.array_equal(getattr(tr_d, fld), getattr(tr_s, fld)), fld
    # frame bookkeeping
    assert len(dyn.frames) == 10
    for kf, fr in enumerate(dyn.frames):
        assert fr.t == pytest.approx(kf * 0.2)
        assert fr.speed == 0.0
        assert not fr.dh_dt.changed.any()
        assert fr.zone.cell_count >= fr.zone.cell_count_restricted


def test_run_dynamic_goal_at_T_matches_static():
    # T ends on the step where the static run reaches the goal: the
    # closing sample at t = T must make the same goal check
    doc = load_doc("moving_block")
    doc["motion"][0]["profile"] = {"kind": "constant", "speed": 0.0}
    sc = Scenario(doc)
    res = sc.build()
    k = sc.controller(res)
    kw = dict(goal=sc.sim_cfg.get("goal"), dt=0.004)
    first = integrate_single(sc.sim_cfg["y0"], k, res.sf, res.gf,
                             res.filter_cfg, T=20.0, **kw)
    assert first.termination == GOAL_REACHED
    T = first.t[-1]
    tr_s = integrate_single(sc.sim_cfg["y0"], k, res.sf, res.gf,
                            res.filter_cfg, T=T, **kw)
    tr_d = run_dynamic(sc, dt_frame=T, dt_sim=0.004, T=T).trajectory
    assert tr_d.termination == tr_s.termination == GOAL_REACHED
    assert tr_d.n == tr_s.n == first.n
    for fld in ("t", "y", "u_nom", "u_filt", "h", "a", "audit"):
        assert np.array_equal(getattr(tr_d, fld), getattr(tr_s, fld)), fld


def test_run_dynamic_closing_sample_leaves_domain(monkeypatch):
    sc = Scenario(load_doc("moving_block"))
    T = 0.4
    full = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=T).trajectory
    assert full.termination == TIME_LIMIT and full.t[-1] == pytest.approx(T)
    y_T = full.y[-1]
    real = sim.min_norm

    def out_at_T(y, *args):
        if np.array_equal(y, y_T):
            raise OutOfDomain("forced at t = T")
        return real(y, *args)

    monkeypatch.setattr(sim, "min_norm", out_at_T)
    tr = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=T).trajectory
    assert tr.termination == LEFT_DOMAIN
    assert tr.t[-1] < T


def test_run_dynamic_moving_smoke():
    sc = Scenario(load_doc("moving_block"))
    dyn = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=2.0)
    tr = dyn.trajectory
    assert tr.min_h() >= -sc.d
    assert tr.audit.min() >= -1e-6
    speeds = [f.speed for f in dyn.frames]
    assert speeds == pytest.approx([sc.speed_at(k * 0.2) for k in range(10)])
    assert max(speeds) > 0.0
