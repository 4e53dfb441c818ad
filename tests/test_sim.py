"""Motion profiles, nominal controllers, closed-loop integrators."""

import collections
import copy
import dataclasses
import math

import numpy as np
import pytest

from riskfields import elliptic, scenario, sim
from riskfields.backstep import (BackstepConfig, ExtendedState, _eps2,
                                 accel_kernel, k_v_smooth)
from riskfields.errors import (DegenerateCoefficient, GridMismatch,
                               InvalidParameter, InvalidTimeStep,
                               MalformedGrid, OutOfDomain, RiskFieldsError,
                               StartUnsafe, VanishingGuidance)
from riskfields.grid import FieldSampler, ScalarField
from riskfields.safety import (FilterConfig, SafetyFunction,
                               activation_zone, goal_lattice)
from riskfields.scenario import Scenario
from riskfields.sim import (GOAL_REACHED, LEFT_DOMAIN, TIME_LIMIT,
                            MotionProfile, adversarial_controller,
                            goal_controller, integrate_double,
                            integrate_single, nominal_adversarial,
                            nominal_goal, run_dynamic, time_derivative)

from conftest import SCENARIOS
from test_backstep import kernel_points, outcome, outcome_kind
from test_grid import box_grid
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


def _same_trajectory(a, b):
    for f in ("t", "y", "u_nom", "u_filt", "h", "a", "audit", "ydot", "h_B"):
        u, v = getattr(a, f), getattr(b, f)
        assert (u is None) == (v is None), f
        if u is not None:
            assert (u.dtype, u.shape) == (v.dtype, v.shape), f
            assert np.array_equal(u, v), f
    assert (a.dt, a.termination) == (b.dt, b.termination)


@pytest.mark.parametrize("fixture", ["single_build", "semantic_build"])
def test_plain_controller_matches_point_form(request, fixture):
    # goal (single_obstacle) and adversarial (semantic_room) controllers
    # step on their float point form k.at; a plain callable goes through
    # the array adapter and must give the same bits
    sc, res = request.getfixturevalue(fixture)
    k = sc.controller(res)
    assert hasattr(k, "at")
    c = sc.sim_cfg
    runs = [integrate_single(c["y0"], ctrl, res.sf, res.gf, res.filter_cfg,
                             c["dt"], c["T"], goal=c.get("goal"))
            for ctrl in (k, lambda y: k(y))]
    assert (runs[0].u_filt != runs[0].u_nom).any()   # the filter acted
    _same_trajectory(*runs)


def test_only_a_static_goal_filter_skips(monkeypatch, single_build):
    sc, res = single_build
    k = sc.controller(res)
    cfg = res.filter_cfg
    zero = ScalarField(res.grid, np.zeros(res.grid.state.shape))

    class Called(Exception):
        pass

    def called(*args):
        raise Called

    monkeypatch.setattr(sim, "goal_lattice", called)
    for ctrl, dh in ((k, zero), (lambda y: k(y), None),
                     (adversarial_controller(1.0, res.sf), None)):
        sim._filtered(ctrl, res.sf, res.gf, cfg, 1, dh)
    with pytest.raises(Called):
        sim._filtered(k, res.sf, res.gf, cfg, 1)


def test_skipping_stage_matches_full_stage(single_build):
    # a goal controller's stage skips the field sample in the cells of
    # goal_lattice's inactive mask; at any point, on the hull or off it,
    # finite or not, it gives the bits of the full stage or raises the same
    # OutOfDomain
    sc, res = single_build
    k = sc.controller(res)

    def k_full(y):      # k without the mu that enables the skip
        return k(y)

    k_full.at, k_full.goal = k.at, k.goal
    cfg = res.filter_cfg
    skip = sim._filtered(k, res.sf, res.gf, cfg, 1)[0]
    stage = sim._filtered(k_full, res.sf, res.gf, cfg, 1)[0]
    g = res.grid
    ox, oy = g.origin_xy
    rng = np.random.default_rng(3)
    edges = np.concatenate([np.arange(-1.0, g.nx + 1), np.arange(g.nx)
                            + (1.0 - 2.0 ** -40)])
    gx = np.concatenate([rng.uniform(-1.0, g.nx, 400), edges,
                         rng.uniform(0.0, g.nx - 1.0, len(edges))])
    gy = np.concatenate([rng.uniform(-1.0, g.ny, 400),
                         rng.uniform(0.0, g.ny - 1.0, len(edges)),
                         edges * (g.ny / g.nx)])
    pts = list(zip((ox + g.d * gx).tolist(), (oy + g.d * gy).tolist()))
    for bad in (math.nan, math.inf, -math.inf, 1e300, -1e300):
        pts += [(bad, oy + 0.5 * g.d * g.ny), (ox + 0.5 * g.d * g.nx, bad),
                (bad, bad)]
    mark = goal_lattice(res.sf, res.gf, cfg, k.mu, k.goal)[4]
    skipped = 0
    for p in pts:
        outs = []
        for f in (skip, stage):
            try:
                outs.append([c.hex() for c in f(p)])
            except OutOfDomain as e:
                outs.append(str(e))
        assert outs[0] == outs[1], p
        i, j = (p[0] - ox) / g.d, (p[1] - oy) / g.d
        skipped += bool(0 <= i < g.nx - 1 and 0 <= j < g.ny - 1
                        and mark[int(i), int(j)])
    assert skipped > len(pts) // 2


@pytest.mark.parametrize("fixture", ["single_build", "three_build",
                                     "uncertain_build", "disk_build"])
def test_skipping_goal_run_matches_full_run(request, fixture):
    # a goal run skips the sample of the stages and of the records in
    # goal_lattice's marked cells and fills those records after the run;
    # with mu hidden nothing is skipped, and every column must keep its bits
    sc, b = request.getfixturevalue(fixture)
    k = sc.controller(b)

    def k_full(y):
        return k(y)

    k_full.at, k_full.goal = k.at, k.goal
    c = sc.sim_cfg
    runs = [integrate_single(c["y0"], ctrl, b.sf, b.gf, b.filter_cfg,
                             c["dt"], c["T"]) for ctrl in (k, k_full)]
    _same_trajectory(*runs)
    g = b.grid
    mark = goal_lattice(b.sf, b.gf, b.filter_cfg, k.mu, k.goal)[4]
    ij = ((runs[0].y - g.origin_xy) / g.d).astype(int)
    assert mark[ij[:, 0], ij[:, 1]].mean() > 0.5


# -- the rollout kernels against the layered path ------------------------------
# The layered path samples the fields once with FieldSampler.at, calls the
# controller's point form k.at and filters with the closed form restated
# here (for the double integrator, the acceleration filter restated on the
# kernel's terms).  A rollout's one kernel per sample must give its bits
# and errors, as a stage and as a record.

def _layered_row(p, k, fs, cfg):
    """(row, u) at the point p: the run's row (y, u_nom, u, h, a, audit) and
    the filtered input, from one FieldSampler.at sample, k.at and the
    closed form u = k + ReLU(-a)/||v||^2 v, a = v.k (+ tv) + gamma h."""
    px, py = p
    s = fs.at(px, py)
    h, vx, vy = s[:3]
    tv = None
    if s[5] is not None:                     # the dh/dt term
        denom = math.hypot(s[3], s[4]) + float(cfg.sigma(h))
        tv = (math.hypot(vx, vy) / denom if denom > 0.0 else 0.0) * s[5]

    def activation(ux, uy):
        vu = vx * ux + vy * uy
        return (vu if tv is None else vu + tv) + cfg.gamma * h

    u_nom = k.at(px, py, s)
    a = activation(*u_nom)
    if a >= 0.0:
        return (px, py, *u_nom, *u_nom, h, a, a), u_nom
    nv2 = vx * vx + vy * vy
    if nv2 < cfg.eta_v * cfg.eta_v:
        raise VanishingGuidance(
            f"a={a:.3e} < 0 with ||v||={math.sqrt(nv2):.3e} at {tuple(p)}")
    u = (u_nom[0] + (-a / nv2) * vx, u_nom[1] + (-a / nv2) * vy)
    return (px, py, *u_nom, *u, h, a, activation(*u)), u


def _point_kinds(point, k, fs, cfg, pts, fields=None):
    """Asserts point(p, True) is _layered_row at every p of pts, and point(p)
    its u, bit for bit and error for error; counts the outcome kinds.  With
    fields, the (sf, gf) of a goal controller k, a record in a cell of
    goal_lattice's inactive mask must be the unsampled row (y, k, k, nan,
    nan, nan) with u = k, and safety.fill_unsampled, run once on all of
    those rows, must fill each to _layered_row's row."""
    g = fs.grid
    (ox, oy), kinds = g.origin_xy, collections.Counter()
    mark = (None if fields is None
            else goal_lattice(*fields, cfg, k.mu, k.goal)[4])
    unsampled = []
    for p in pts:
        want = outcome(_layered_row, p, k, fs, cfg)
        i, j = (p[0] - ox) / g.d, (p[1] - oy) / g.d
        if (mark is not None and 0 <= i < g.nx - 1 and 0 <= j < g.ny - 1
                and mark[int(i), int(j)]):
            row, u = want
            assert outcome(point, p, True) == (row[:6] + ("nan",) * 3, u), p
            assert outcome(point, p) == u, p
            unsampled.append(row)
            kinds["skipped"] += 1
            continue
        assert outcome(point, p, True) == want, p
        kind = outcome_kind(want)
        assert outcome(point, p) == (want[1] if kind == "value" else want), p
        if kind == "value":
            kind = "corrected" if float.fromhex(want[0][7]) < 0.0 else "idle"
        kinds[kind] += 1
    if unsampled:
        rows = [float.fromhex(c) for row in unsampled for c in row[:6]
                + ("nan",) * 3]
        tr = sim._trajectory(rows, False, 1.0, TIME_LIMIT)
        sim.fill_unsampled(tr, *fields, cfg)
        table = np.column_stack([tr.y, tr.u_nom, tr.u_filt, tr.h, tr.a,
                                 tr.audit])
        assert [tuple(c.hex() for c in r) for r in table.tolist()] == unsampled
    return kinds


_KINDS = ["corrected", "idle", "OutOfDomain: hull", "OutOfDomain: deeper",
          "OutOfDomain: not finite", "VanishingGuidance: a="]


@pytest.mark.parametrize("fixture", ["single_build", "semantic_build"])
def test_static_stage_matches_layered_path(request, fixture):
    # goal (single_obstacle) and adversarial (semantic_room) controllers,
    # the goal controller's point skipping the sample in goal_lattice's
    # marked cells, its record filled after the run; eta_v = 1e3 makes
    # every a < 0 vanishing
    sc, b = request.getfixturevalue(fixture)
    k = sc.controller(b)
    fields = (b.sf, b.gf) if hasattr(k, "mu") else None
    fs = FieldSampler(b.sf, b.gf)
    pts = kernel_points(b.grid, b.sf.h.values, np.random.default_rng(11))
    kinds = collections.Counter()
    for eta_v in (b.filter_cfg.eta_v, 1e3):
        cfg = dataclasses.replace(b.filter_cfg, eta_v=eta_v)
        point = sim._filtered(k, b.sf, b.gf, cfg, 1)[0]
        kinds += _point_kinds(point, k, fs, cfg, pts, fields)
    want = _KINDS + (["skipped"] if fields is not None else [])
    assert all(kinds[w] > 0 for w in want), kinds


def test_time_varying_point_matches_layered_path():
    # moving_block's filter with dh/dt from two frames, on an h set to 0
    # over a 5x5 block of free cells (inside it Dh = 0 and the dh/dt term's
    # denominator ||Dh|| + sigma(h) is 0, so the term is 0) and a dh/dt set
    # to NaN over a 2x2 block (a sample there is too deep)
    sc = Scenario(load_doc("moving_block"))
    b0, b1 = sc.build(t=3.2), sc.build(t=3.4)
    g, k = b0.grid, sc.controller(b0)
    dh = time_derivative(b0.sf.h, b1.sf.h, 0.2)
    blocks = [(i, j) for i in range(g.nx - 5) for j in range(g.ny - 5)
              if g.free[i:i + 5, j:j + 5].all()]
    (i0, j0), (i1, j1) = blocks[0], blocks[-1]
    h = b0.sf.h.values.copy()
    h[i0:i0 + 5, j0:j0 + 5] = 0.0
    sf = SafetyFunction(ScalarField(g, h))
    dh_nan = ScalarField(g, dh.values.copy())
    dh_nan.values[i1:i1 + 2, j1:j1 + 2] = np.nan
    fs = FieldSampler(sf, b0.gf, dh_nan)
    rng = np.random.default_rng(5)
    pts = kernel_points(g, h, rng)
    ox, oy = g.origin_xy
    for (i, j), n in (((i0 + 1, j0 + 1), 2), ((i1 - 1, j1 - 1), 3)):
        gx, gy = i + n * rng.random(40), j + n * rng.random(40)
        pts += list(zip((ox + g.d * gx).tolist(), (oy + g.d * gy).tolist()))
    kinds = collections.Counter()
    for eta_v in (b0.filter_cfg.eta_v, 1e3):
        cfg = dataclasses.replace(b0.filter_cfg, eta_v=eta_v)
        point = sim._filtered(k, sf, b0.gf, cfg, 1, dh_nan)[0]
        kinds += _point_kinds(point, k, fs, cfg, pts)
    without_dh = FieldSampler(sf, b0.gf)
    for p in pts:
        try:
            s = without_dh.at(*p)
        except OutOfDomain:
            continue
        try:
            fs.at(*p)
        except OutOfDomain:
            kinds["dh/dt NaN"] += 1
        kinds["denominator 0"] += s[3] == s[4] == 0.0 and s[0] <= 0.0
    want = _KINDS + ["dh/dt NaN", "denominator 0"]
    assert all(kinds[w] > 0 for w in want), kinds


def _layered_filter(terms, z, w_nom, cfg):
    """(w, h, h_B, resid_nom, resid) at the state z from the kernel's terms
    there: the least correction of w_nom along c = -e/mu that makes the
    residual hdot_B(w) + gamma h_B = Dh.ydot - e.(w - J ydot)/mu + gamma h_B
    nonnegative; with ||c|| below eta_c a residual under -1e-9 raises."""
    h, (ex, ey), h_B, dh_ydot, (jx, jy) = terms(*z)

    def resid(w):
        return (dh_ydot - (ex * (w[0] - jx) + ey * (w[1] - jy)) / cfg.mu
                + cfg.gamma * h_B)

    w = w_nom
    r = resid(w_nom)
    if r < 0.0:
        cx, cy = -ex / cfg.mu, -ey / cfg.mu
        nc2 = cx * cx + cy * cy
        if nc2 >= cfg.eta_c * cfg.eta_c:
            w = (w_nom[0] + -r / nc2 * cx, w_nom[1] + -r / nc2 * cy)
        elif r < -1e-9:
            raise DegenerateCoefficient(f"constraint residual {r:.3e} with "
                                        f"||c||={math.sqrt(nc2):.3e}")
    return w, h, h_B, r, resid(w)


def _filter_outcome(fn, *args):
    try:
        return outcome(fn, *args)
    except DegenerateCoefficient as e:
        return type(e), str(e)


def test_accel_filter_matches_reference(single_build):
    # the double integrator's kernel, terms.filter, against the filter
    # restated on its terms (_layered_filter): a random w_nom, and on a
    # second pass, where eta_c = 1e6 makes every coefficient vanish, a
    # w_nom along e with the residual at -5e-10 (returned as it is) and at
    # -1e-3 (raises)
    sc, b = single_build
    rng = np.random.default_rng(9)
    pts = kernel_points(b.grid, b.sf.h.values, rng)
    fs = FieldSampler(b.sf, b.gf)
    kinds = collections.Counter()
    for eta_c in (b.backstep_cfg.eta_c, 1e6):
        cfg = dataclasses.replace(b.backstep_cfg, eta_c=eta_c)
        terms = accel_kernel(fs, cfg.nominal_at(b.sf), cfg)
        for p in pts:
            z = (*p, *rng.normal(0.0, 1.0, 2).tolist())
            w_noms = [tuple(rng.normal(0.0, 5.0, 2).tolist())]
            try:
                t = terms(*z)
            except (OutOfDomain, VanishingGuidance):
                t = None
            if t is not None and eta_c > 1.0:
                _, (ex, ey), h_B, dh_ydot, (jx, jy) = t
                at_0 = (dh_ydot + (ex * jx + ey * jy) / cfg.mu
                        + cfg.gamma * h_B)       # the residual at w = 0
                for r in (-5e-10, -1e-3):
                    lam = (at_0 - r) * cfg.mu / (ex * ex + ey * ey)
                    w_noms.append((lam * ex, lam * ey))
            for w_nom in w_noms:
                want = _filter_outcome(_layered_filter, terms, z, w_nom, cfg)
                assert _filter_outcome(terms.filter, *z, w_nom, True) \
                    == want, z
                value = not isinstance(want[0], type)
                assert _filter_outcome(terms.filter, *z, w_nom) \
                    == (want[0] if value else want), z
                if want[0] is DegenerateCoefficient:
                    kind = "DegenerateCoefficient"
                elif not value:
                    kind = outcome_kind(want)
                elif float.fromhex(want[3]) >= 0.0:
                    kind = "kept"
                elif want[0] != tuple(c.hex() for c in w_nom):
                    kind = "corrected"
                else:
                    kind = "degenerate kept"
                kinds[kind] += 1
    want = ["kept", "corrected", "degenerate kept", "DegenerateCoefficient",
            "OutOfDomain: hull", "OutOfDomain: deeper",
            "OutOfDomain: not finite", "OutOfDomain: no valid probes"]
    assert all(kinds[w] > 0 for w in want), kinds


# -- integrator core -----------------------------------------------------------------

def _rk4(y, k1, f, dt):
    """The classical RK4 step on a tuple of floats of any length, in the
    elementwise order the written-out steps sim._rk4_xy and sim._rk4 keep."""
    h = 0.5 * dt
    k2 = f(tuple([a + h * b for a, b in zip(y, k1)]))
    k3 = f(tuple([a + h * b for a, b in zip(y, k2)]))
    k4 = f(tuple([a + dt * b for a, b in zip(y, k3)]))
    w = dt / 6.0
    return tuple([a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def test_rk4_is_fourth_order():
    # the generic step, and the written-out steps of sim on y' = -y per
    # component
    for rk4, width in ((_rk4, 1), (sim._rk4_xy, 2), (sim._rk4, 4)):
        def f(q):
            return tuple([-c for c in q])

        def err(n):
            y = (1.0,) * width
            dt = 1.0 / n
            for _ in range(n):
                y = rk4(y, f(y), f, dt)
            return abs(y[0] - math.exp(-1.0))

        ratio = err(20) / err(40)
        assert 12.0 <= ratio <= 20.0  # halving dt cuts the error ~16x


def test_rk4_xy_matches_generic_rk4():
    # the written-out step for a two-float state has the generic step's bits
    def f(q):
        return (math.sin(3.0 * q[1]) - q[0], q[0] * q[1] + 0.1)

    rng = np.random.default_rng(4)
    for y in rng.uniform(-2.0, 2.0, (200, 2)).tolist():
        y = tuple(y)
        for dt in (1e-3, 0.05, 0.3):
            got = sim._rk4_xy(y, f(y), f, dt)
            want = _rk4(y, f(y), f, dt)
            assert [v.hex() for v in got] == [v.hex() for v in want]


def test_rk4_matches_generic_rk4():
    # the written-out step for the double integrator's four floats, too
    def f(q):
        return (q[2], q[3], math.sin(3.0 * q[1]) - q[0] * q[3],
                q[0] * q[1] + 0.1 - q[2])

    rng = np.random.default_rng(4)
    for y in rng.uniform(-2.0, 2.0, (200, 4)).tolist():
        y = tuple(y)
        for dt in (1e-3, 0.05, 0.3):
            got = sim._rk4(y, f(y), f, dt)
            want = _rk4(y, f(y), f, dt)
            assert [v.hex() for v in got] == [v.hex() for v in want]


def test_goal_check_decides_as_numpy_norm_at_distance_d():
    # samples on the circle of radius d around the goal and one or two ulp
    # either side of it in x; where the squared distance on floats and
    # numpy's norm (an FMA dot) fall on different sides of d, the rollout
    # must follow numpy
    goal, d = (1.0, 2.6), 0.05

    def point(z, row=False):
        return (*z, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0), (0.0, 0.0)

    naive_differs = 0
    for ang in np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False).tolist():
        px = goal[0] + d * math.cos(ang)
        py = goal[1] + d * math.sin(ang)
        for k in range(-2, 3):
            x = px
            for _ in range(abs(k)):
                x = math.nextafter(x, math.copysign(math.inf, k))
            want = np.linalg.norm(np.array([x, py]) - goal) < d
            got = sim._rollout((x, py), [(point, 0)], 0.01, goal, d)
            assert (got.termination == GOAL_REACHED) == want, (x, py)
            dx, dy = x - goal[0], py - goal[1]
            naive_differs += (math.sqrt(dx * dx + dy * dy) < d) != want
    assert naive_differs > 0


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


def test_risk_pair_keeps_more_clearance_from_the_riskier_disk():
    # risk_pair: equal disks mirrored about the run's axis y = 1.55 (the
    # lattice's middle row), differing only in label; the clearance is the
    # true distance |y - c| - r to each disk (0.1361 and 0.1039 measured)
    doc = load_doc("risk_pair")

    def run(labels):
        d = copy.deepcopy(doc)
        for ob, label in zip(d["obstacles"], labels):
            ob["label"] = label
        sc = Scenario(d)
        b = sc.build()
        c = sc.sim_cfg
        tr = integrate_single(c["y0"], sc.controller(b), b.sf, b.gf,
                              b.filter_cfg, c["dt"], c["T"])
        assert tr.termination == GOAL_REACHED
        return tr.y

    y = run(("person", "chair"))
    person, chair = (float((np.linalg.norm(y - ob["center"], axis=1)
                            - ob["radius"]).min()) for ob in doc["obstacles"])
    assert person == pytest.approx(0.1361, abs=1e-4)
    assert chair == pytest.approx(0.1039, abs=1e-4)
    swapped = run(("chair", "person"))
    assert swapped.shape == y.shape
    assert np.abs(swapped[:, 0] - y[:, 0]).max() <= 1e-14
    assert np.abs((swapped[:, 1] - 1.55) + (y[:, 1] - 1.55)).max() <= 1e-15
    assert (run(("chair", "chair"))[:, 1] == 1.55).all()


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


def _double_smoke_run(sc, res, sf, bcfg=None):
    bcfg = bcfg or res.backstep_cfg
    y0 = np.array(sc.sim_cfg["y0"], dtype=float)
    kv0 = k_v_smooth(y0, bcfg.nominal(y0), sf, res.gf, bcfg)
    state0 = ExtendedState(y0, kv0)

    def accel_nom(y, ydot):
        return bcfg.mu * (bcfg.nominal(y) - ydot)

    return integrate_double(state0, accel_nom, sf, res.gf, bcfg,
                            dt=sc.sim_cfg["dt"], T=2.0)


def test_integrate_single_nan_control_leaves_domain(single_build):
    # a NaN input makes the next RK4 stage sample at a NaN point, which
    # ends the run as LEFT_DOMAIN instead of escaping as a ValueError
    sc, res = single_build

    def k_nan(y):
        return np.full(np.shape(y), np.nan)

    tr = integrate_single(sc.sim_cfg["y0"], k_nan, res.sf, res.gf,
                          res.filter_cfg, dt=sc.sim_cfg["dt"], T=1.0)
    assert tr.termination == LEFT_DOMAIN
    assert tr.n == 1 and np.isnan(tr.u_nom).all()


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


def test_integrate_double_plain_k_nom_v_matches_point_form(single_build):
    sc, res = single_build
    k = res.backstep_cfg.k_nom_v
    assert hasattr(k, "at")
    plain = dataclasses.replace(res.backstep_cfg, k_nom_v=lambda y: k(y))
    _same_trajectory(_double_smoke_run(sc, res, res.sf),
                     _double_smoke_run(sc, res, res.sf, plain))


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


def _k_v_safe(p, k, fs, cfg):
    """k_v_safe at the point p from k = k_nom there (accel_kernel's k_v)."""
    return accel_kernel(fs, lambda px, py, s: k, cfg).k_v(*p)[3:]


def test_integrate_double_smoke_k_v_safe_is_safe_for_h(single_build):
    # Dh.k_v_safe + gamma h > 0 at every sample of the smoke run (measured
    # 9.5e-4 at least), where the guidance layer's k_v alone breaks it on
    # most samples
    sc, res = single_build
    bcfg = res.backstep_cfg
    tr = _double_smoke_run(sc, res, res.sf)
    fs = FieldSampler(res.sf, res.gf)
    at = bcfg.nominal_at(res.sf)
    unsafe = 0
    for px, py in tr.y.tolist():
        s = fs.at(px, py)
        k = at(px, py, s)
        kv = k_v_smooth((px, py), k, res.sf, res.gf, bcfg)
        kx, ky = _k_v_safe((px, py), k, fs, bcfg)
        assert s[3] * kx + s[4] * ky + bcfg.gamma * s[0] > 0.0
        unsafe += s[3] * kv[0] + s[4] * kv[1] + bcfg.gamma * s[0] < 0.0
    assert unsafe > tr.n // 2


@pytest.mark.parametrize("offset", [(0.0, 0.0), (-0.5, 0.4)])
def test_integrate_double_from_the_maximum_of_h(single_build, offset):
    # Dh vanishes at the interior maximum of h: the barrier's correction
    # along Dh stays below lambda_s / (2 eps) there, and a run started next
    # to it keeps its acceleration corrections as small as the smoke run's
    sc, res = single_build
    bcfg = res.backstep_cfg
    h = np.where(res.grid.free, res.sf.h.values, -np.inf)
    top = res.grid.cell_center(*np.unravel_index(np.argmax(h), h.shape))
    y0 = top + res.grid.d * np.array(offset)
    kv0 = k_v_smooth(y0, bcfg.nominal(y0), res.sf, res.gf, bcfg)
    s = FieldSampler(res.sf, res.gf).at(*y0.tolist())
    ks0 = _k_v_safe(tuple(y0.tolist()), tuple(bcfg.nominal(y0).tolist()),
                    FieldSampler(res.sf, res.gf), bcfg)
    a_s = s[3] * kv0[0] + s[4] * kv0[1] + bcfg.gamma * s[0]
    lam = 0.5 * (-a_s + math.hypot(a_s, bcfg.sigma_s))
    assert math.dist(ks0, kv0) <= lam / (2.0 * math.sqrt(_eps2(res.grid)))

    def accel_nom(y, ydot):
        return bcfg.mu * (bcfg.nominal(y) - ydot)

    tr = integrate_double(ExtendedState(y0, kv0), accel_nom, res.sf, res.gf,
                          bcfg, dt=sc.sim_cfg["dt"], T=2.0)
    assert tr.termination == TIME_LIMIT
    assert tr.min_h() > 0.4                 # measured 0.44 and 0.46
    correction = np.hypot(*(tr.u_filt - tr.u_nom).T)
    assert correction.max() < 40.0          # measured 13.6 and 20.3


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


def _zero_field():
    g = box_grid(6, 6)
    return ScalarField(g, np.zeros((g.nx, g.ny)))


@pytest.mark.parametrize("make, kind", [
    (lambda: ExtendedState([np.nan, 0.0], [0.0, 0.0]), InvalidParameter),
    (lambda: BackstepConfig(mu=0.0), InvalidParameter),
    (lambda: BackstepConfig().nominal([0.0, 0.0]), InvalidParameter),
    (lambda: FilterConfig(gamma=np.inf), InvalidParameter),
    (lambda: MotionProfile([0.0, 1.0], [0.0], (1, 0)), InvalidParameter),
    (lambda: MotionProfile([0.0, np.nan], [0.0, 1.0], (1, 0)),
     InvalidParameter),
    (lambda: MotionProfile([0.5, 1.0], [0.0, 1.0], (1, 0)), InvalidParameter),
    (lambda: MotionProfile([0.0, 1.0], [0.0, -0.2], (1, 0)),
     InvalidParameter),
    (lambda: MotionProfile([0.0], [1.0], (0, 0)), InvalidParameter),
    (lambda: time_derivative(_zero_field(), _zero_field(), -0.1),
     InvalidTimeStep),
], ids=["state", "backstep_cfg", "k_nom_unset", "filter_cfg",
        "profile_shape", "profile_finite", "profile_order", "profile_sign",
        "profile_heading", "time_derivative_dt"])
def test_argument_errors_are_typed(make, kind):
    # typed, and still a ValueError for callers that catch that
    with pytest.raises(kind) as info:
        make()
    assert isinstance(info.value, RiskFieldsError)
    assert isinstance(info.value, ValueError)


_BAD_TIMES = [("dt", 0.0), ("dt", -0.002), ("dt", math.nan),
              ("dt", math.inf), ("T", -1.0), ("T", math.nan), ("T", math.inf)]


@pytest.mark.parametrize("name,bad", _BAD_TIMES,
                         ids=[f"{n}={v}" for n, v in _BAD_TIMES])
@pytest.mark.parametrize("run", ["single", "double", "dynamic_sim",
                                 "dynamic_frame"])
def test_time_arguments_are_typed(run, name, bad):
    # raised before any work: the fields and the scenario are None here
    t = {"dt": 0.002, "T": 1.0, name: bad}
    with pytest.raises(InvalidTimeStep):
        if run == "single":
            integrate_single((0.0, 0.0), None, None, None, None, t["dt"],
                             t["T"])
        elif run == "double":
            integrate_double(None, None, None, None, None, t["dt"], t["T"])
        elif run == "dynamic_sim":
            run_dynamic(None, dt_frame=0.2, dt_sim=t["dt"], T=t["T"])
        else:
            run_dynamic(None, dt_frame=t["dt"], dt_sim=0.002, T=t["T"])


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
    # one mask: every frame after the first reuses frame 0's h and grad h
    assert [f.build.report["geometry"] for f in dyn.frames[1:]] \
        == ["reused"] * 9

    scenario._SOLVED.clear()
    res = sc.build()
    assert res.report["geometry"] == "solved"
    k = sc.controller(res)
    tr_s = integrate_single(sc.sim_cfg["y0"], k, res.sf, res.gf,
                            res.filter_cfg, dt=0.004, T=2.0,
                            goal=sc.sim_cfg.get("goal"))
    assert tr_d.termination == tr_s.termination == TIME_LIMIT
    assert tr_d.n == tr_s.n
    for fld in ("t", "y", "u_nom", "u_filt", "h", "a", "audit"):
        assert np.array_equal(getattr(tr_d, fld), getattr(tr_s, fld)), fld
    for fr in dyn.frames:
        for got, want in ((fr.build.sf.h, res.sf.h),
                          (fr.build.sf.grad.x, res.sf.grad.x),
                          (fr.build.gf.v.y, res.gf.v.y)):
            assert np.array_equal(got.values.view(np.int64),
                                  want.values.view(np.int64))
            assert got.stats == want.stats
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
    y_T = tuple(full.y[-1].tolist())
    real = sc.controller

    def controller(build):      # its point form raises at y(T)
        k = real(build)
        at = k.at

        def at_T(px, py, s):
            if (px, py) == y_T:
                raise OutOfDomain("forced at t = T")
            return at(px, py, s)

        k.at = at_T
        return k

    monkeypatch.setattr(sc, "controller", controller)
    tr = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=T).trajectory
    assert tr.termination == LEFT_DOMAIN
    assert tr.t[-1] < T


def _log_frames(monkeypatch, sc):
    """The frames sc is asked to build, in order: ("build", t) for a full
    build and ("h", t) for h alone."""
    built = []
    build_frames = sc._build_frames

    def logged(times, flux_scale=None, h_last=False):
        built.extend(("h" if h_last and n == len(times) - 1 else "build", t)
                     for n, t in enumerate(times))
        return build_frames(times, flux_scale, h_last)

    monkeypatch.setattr(sc, "_build_frames", logged)
    return built


def test_run_dynamic_builds_no_frame_past_its_end(monkeypatch):
    doc = load_doc("moving_block")
    doc["sim"]["goal"] = doc["sim"]["y0"]       # caught at the first sample
    sc = Scenario(doc)
    built = _log_frames(monkeypatch, sc)
    dyn = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=8.0)
    assert dyn.trajectory.termination == GOAL_REACHED
    assert dyn.trajectory.n == 1 and len(dyn.frames) == 1
    # the first stack, frame 0 and the frame 1 its dh/dt needs with the
    # five after it (7 frames a stack on 64 x 48); the other 34 never
    assert built == [("build", k * 0.2) for k in range(7)]


def test_run_dynamic_solves_h_alone_for_the_closing_frame(monkeypatch):
    sc = Scenario(load_doc("moving_block"))
    built = _log_frames(monkeypatch, sc)
    dyn = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=0.4)
    assert dyn.trajectory.termination == TIME_LIMIT
    assert built == [("build", 0.0), ("build", 0.2), ("h", 0.4)]


# -- frames solved in stacks ---------------------------------------------------

# frames per stack on moving_block's 64 x 48 lattice: 2^16 // (3 * 3072)
_PER_STACK = 7

def _bits(x):
    a = np.asarray(x)
    return a.view(np.int64) if a.dtype == np.float64 else a


def _same(got, want):
    return np.array_equal(_bits(got), _bits(want))


def _assert_same_build(got, want):
    for a, b in ((got.sf.h, want.sf.h), (got.sf.grad.x, want.sf.grad.x),
                 (got.sf.grad.y, want.sf.grad.y), (got.gf.v.x, want.gf.v.x),
                 (got.gf.v.y, want.gf.v.y)):
        assert _same(a.values, b.values)
    for a, b in ((got.sf.h, want.sf.h), (got.gf.v.x, want.gf.v.x),
                 (got.gf.v.y, want.gf.v.y)):
        assert a.stats == b.stats
    assert {k: v for k, v in got.report.items() if k != "timings_ms"} \
        == {k: v for k, v in want.report.items() if k != "timings_ms"}
    for key in ("cells", "normals", "arcw", "comp", "flux"):
        assert _same(getattr(got.boundary, key), getattr(want.boundary, key))
    assert {c: None if a is None else a.tolist()
            for c, a in got.boundary.chains.items()} \
        == {c: None if a is None else a.tolist()
            for c, a in want.boundary.chains.items()}


def _memo_state():
    """_SOLVED as {key: its entry's array bits, stats and chains}: the
    shape's boundary arrays, chains and node map, and h with grad h or a
    guidance pair as each field's bits and stats."""
    state = {}
    for key, entry in scenario._SOLVED.items():
        if key[1] == "shape":
            b, ((ii, jj), k) = entry
            arrays = (b.cells, b.normals, b.arcw, b.comp, ii, jj, k)
            state[key] = ([a.tobytes() for a in arrays],
                          {c: None if a is None else a.tolist()
                           for c, a in b.chains.items()})
        else:
            g = entry[0]._grad if key[1] == "h" else None
            fields = entry + ([] if g is None else [g.x, g.y])
            state[key] = [(f.values.tobytes(), f.stats) for f in fields]
    return state


def _one_at_a_time(sc, nf, dt_frame):
    """build(t) of frames 0 .. nf-1 and safety_field of frame nf, one at a
    time from an empty memo, with the memo state after each."""
    scenario._SOLVED.clear()
    out, memos = [], []
    for k in range(nf + 1):
        t = k * dt_frame if k else 0.0
        out.append(sc.build(t=t) if k < nf else sc.safety_field(t))
        memos.append(_memo_state())
    return out, memos


def _moving_block(kind):
    doc = load_doc("moving_block")
    if kind == "still":
        doc["motion"][0]["profile"] = {"kind": "constant", "speed": 0.0}
    elif kind == "late":    # at rest until t = 0.2: F1 has F0's mask, F2 not
        doc["motion"][0]["profile"] = {"kind": "piecewise",
                                       "times": [0.0, 0.2, 0.21],
                                       "speeds": [0.0, 0.0, 1.0]}
    return doc


@pytest.mark.parametrize("kind,T", [("moving", 0.2), ("moving", 0.4),
                                    ("moving", 1.0), ("moving", 8.0),
                                    ("still", 2.0), ("late", 1.0)])
def test_paired_frames_match_one_at_a_time(kind, T):
    sc = Scenario(_moving_block(kind))
    nf = int(round(T / 0.2))
    ref, memos = _one_at_a_time(sc, nf, 0.2)
    if kind == "late":
        assert [b.report["geometry"] for b in ref[:3]] \
            == ["solved", "reused", "solved"]

    stack_memos = []
    build_frames = sc._build_frames

    def tracked(times, flux_scale=None, h_last=False):
        yield from build_frames(times, flux_scale, h_last)
        stack_memos.append(_memo_state())   # once the stack is finished

    sc._build_frames = tracked
    scenario._SOLVED.clear()
    dyn = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=T)
    stack_memos.append(_memo_state())       # the last stack
    assert len(dyn.frames) == nf
    assert stack_memos == [memos[min(k + _PER_STACK - 1, nf)]
                           for k in range(0, nf + 1, _PER_STACK)]
    for k, fr in enumerate(dyn.frames):
        want = ref[k]
        h1 = ref[k + 1] if k + 1 == nf else ref[k + 1].sf.h
        dh = time_derivative(want.sf.h, h1, 0.2)
        assert _same(fr.dh_dt.values, dh.values)
        assert np.array_equal(fr.dh_dt.changed, dh.changed)
        zone = activation_zone(want.grid, sc.controller(want), want.sf,
                               want.gf, want.filter_cfg, dh_dt=dh)
        assert _same(fr.zone.a.values, zone.a.values)
        assert fr.zone.cell_count == zone.cell_count
        assert fr.zone.cell_count_restricted == zone.cell_count_restricted
        _assert_same_build(fr.build, want)


def _break_frame(monkeypatch, t_bad):
    """Scenario.rasterize raises at t_bad alone."""
    rasterize = Scenario.rasterize

    def broken(self, t=0.0):
        if abs(t - t_bad) < 1e-9:
            raise MalformedGrid(f"no map at t = {t}")
        return rasterize(self, t)

    monkeypatch.setattr(Scenario, "rasterize", broken)


def _stop_in_segment_1(doc):
    """doc with a sim goal that the run reaches during segment 1."""
    tr = run_dynamic(Scenario(doc), dt_frame=0.2, dt_sim=0.004,
                     T=1.0).trajectory
    doc["sim"]["goal"] = tr.y[95].tolist()     # t = 0.38
    return tr


def test_run_dynamic_stopping_in_segment_1_builds_one_stack(monkeypatch):
    doc = load_doc("moving_block")
    full = _stop_in_segment_1(doc)
    sc = Scenario(doc)
    built = _log_frames(monkeypatch, sc)
    tr = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=8.0).trajectory
    assert tr.termination == GOAL_REACHED and 0.2 <= tr.t[-1] < 0.4
    assert _same(tr.y, full.y[:tr.n])
    # segment 1 needs frame 2, in the first stack; the second never starts
    assert built == [("build", k * 0.2) for k in range(_PER_STACK)]


def test_frame_failure_raises_when_the_run_reaches_it(monkeypatch):
    doc = load_doc("moving_block")
    full = _stop_in_segment_1(doc)
    _break_frame(monkeypatch, 0.6)
    # frame 3 fails while its stack is solved; a run that ends in segment 1
    # never needs it
    tr = run_dynamic(Scenario(doc), dt_frame=0.2, dt_sim=0.004,
                     T=1.0).trajectory
    assert tr.termination == GOAL_REACHED and 0.2 <= tr.t[-1] < 0.4
    assert _same(tr.y, full.y[:tr.n])
    # one that reaches segment 2 raises frame 3's error as it starts
    segments = []
    real = sim.time_derivative

    def logged(h0, h1, dt):
        segments.append(h0.grid)
        return real(h0, h1, dt)

    monkeypatch.setattr(sim, "time_derivative", logged)
    with pytest.raises(MalformedGrid, match="no map at t = 0.6"):
        run_dynamic(Scenario(load_doc("moving_block")), dt_frame=0.2,
                    dt_sim=0.004, T=1.0)
    assert len(segments) == 2


def test_unsafe_start_wins_over_a_failing_frame_1(monkeypatch):
    doc = load_doc("moving_block")
    doc["sim"]["y0"] = [0.54, 1.44]     # an occupied cell at the rim: h = 0
    sc = Scenario(doc)
    _break_frame(monkeypatch, 0.2)
    built = _log_frames(monkeypatch, sc)
    with pytest.raises(StartUnsafe):
        run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=1.0)
    # the one stack of the run is asked for; frame 1 fails as it is
    # prepared, and the start is checked on frame 0 before it is reached
    assert built == [("build", k * 0.2) for k in range(5)] + [("h", 1.0)]


def test_run_dynamic_stacks_frames_within_2_16_cells(monkeypatch):
    sizes = []
    sweep = elliptic._sweep_solve

    def counted(grid, systems, cfg):
        sizes.append(len(systems))
        return sweep(grid, systems, cfg)

    monkeypatch.setattr(elliptic, "_sweep_solve", counted)
    scenario._SOLVED.clear()
    run_dynamic(Scenario(load_doc("moving_block")), dt_frame=0.2,
                dt_sim=0.004, T=1.0)
    # F0 .. F4 and h5 in one stack: three systems per build, one for h
    assert sizes == [16]
    sizes.clear()
    scenario._SOLVED.clear()
    sc = Scenario(load_doc("moving_block"))
    built = _log_frames(monkeypatch, sc)
    run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=8.0)
    assert len(built) == 41
    # 6 stacks of up to 7 frames; the block rests from t = 7, so frames
    # 36-39 reuse frame 35's h and, with its speed-0 flux, its v, and the
    # closing h its h: the last stack solves frame 35's three systems
    assert sizes == [21] * 5 + [3]


def test_run_dynamic_solves_96_squared_frames_in_pairs(monkeypatch):
    # 3 * 96^2 cells a frame: more than a third of 2^16, so two a stack
    doc = load_doc("moving_block")
    doc["grid"] = {"nx": 96, "ny": 96, "d": 0.04, "origin": [0.0, 0.0]}
    sc = Scenario(doc)
    stacks = []
    build_frames = sc._build_frames

    def logged(times, flux_scale=None, h_last=False):
        stacks.append((len(times), h_last))
        return build_frames(times, flux_scale, h_last)

    monkeypatch.setattr(sc, "_build_frames", logged)
    dyn = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=1.0)
    assert len(dyn.frames) == 5
    assert stacks == [(2, False), (2, False), (2, True)]


def test_closing_frame_h_is_the_build_h():
    sc = Scenario(load_doc("moving_block"))
    h = sc.safety_field(0.4)
    full = sc.build(t=0.4).sf.h
    assert np.array_equal(h.values.view(np.int64), full.values.view(np.int64))
    assert h.stats == full.stats


def test_run_dynamic_moving_smoke():
    sc = Scenario(load_doc("moving_block"))
    dyn = run_dynamic(sc, dt_frame=0.2, dt_sim=0.004, T=2.0)
    tr = dyn.trajectory
    assert tr.min_h() >= -sc.d
    assert tr.audit.min() >= -1e-6
    speeds = [f.speed for f in dyn.frames]
    assert speeds == pytest.approx([sc.speed_at(k * 0.2) for k in range(10)])
    assert max(speeds) > 0.0
