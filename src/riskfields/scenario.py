"""Scenario documents: rasterization, per-node features, end-to-end builds.

A scenario is a YAML/dict document naming the lattice, the domain shape,
obstacle primitives with annotations, the risk pipeline, the filter and
nominal-controller parameters, and the simulation setup.  build() runs the
whole chain (discretize, risk, Poisson, Laplace, filter) at a given time and
returns everything downstream code needs.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from . import elliptic, riskmap, sim
from .errors import MalformedDocument, MalformedGrid
from .grid import FREE, OCCUPIED, OccupancyGrid, extract_boundary, nb4_of
from .safety import FilterConfig, GuidanceFieldBundle, SafetyFunction
from .backstep import BackstepConfig

# Largest lattice a document may ask for, in cells (2^22 = 2048^2).
MAX_CELLS = 1 << 22


def _req(doc, key, path):
    if key not in doc:
        raise MalformedDocument(f"{path}: missing required key {key!r}")
    return doc[key]


def _num(x, path, positive=False):
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise MalformedDocument(f"{path}: expected a number, got {x!r}")
    if positive and not 0 < v < math.inf:
        raise MalformedDocument(f"{path}: must be positive and finite")
    return v


def _int(x, path, lo=0):
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < lo:
        raise MalformedDocument(
            f"{path}: expected an integer >= {lo}, got {x!r}")
    return int(x)


def _unit(x, path):
    v = _num(x, path)
    if not 0.0 <= v <= 1.0:
        raise MalformedDocument(f"{path}: must lie in [0, 1], got {x!r}")
    return v


def _mapping(x, path):
    if not isinstance(x, dict):
        raise MalformedDocument(f"{path}: expected a mapping, got {x!r}")
    return x


def _point(x, path):
    try:
        p = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise MalformedDocument(f"{path}: expected [x, y]")
    if p.shape != (2,):
        raise MalformedDocument(f"{path}: expected [x, y]")
    return p


@dataclass
class BuildResult:
    grid: object
    boundary: object
    sf: object
    gf: object
    filter_cfg: object
    backstep_cfg: object
    report: dict = field(default_factory=dict)


class Scenario:
    """Parsed scenario document plus the machinery to realize it."""

    def __init__(self, doc, name_hint="scenario"):
        if isinstance(doc, (str, bytes)):
            with open(doc) as fh:
                name_hint = str(doc)
                doc = yaml.safe_load(fh)
        if not isinstance(doc, dict):
            raise MalformedDocument(f"{name_hint}: document is not a mapping")
        self.doc = doc
        self.name = doc.get("name", name_hint)
        self._parse()

    # -- parsing ------------------------------------------------------------

    def _parse(self):
        doc = self.doc
        g = _req(doc, "grid", self.name)
        self.nx = _int(_req(g, "nx", "grid"), "grid.nx", lo=3)
        self.ny = _int(_req(g, "ny", "grid"), "grid.ny", lo=3)
        if self.nx * self.ny > MAX_CELLS:
            raise MalformedDocument(
                f"grid: nx*ny = {self.nx * self.ny} exceeds {MAX_CELLS}")
        self.d = _num(_req(g, "d", "grid"), "grid.d", positive=True)
        self.origin = _point(g.get("origin", [0.0, 0.0]), "grid.origin")

        dom = doc.get("domain", {"kind": "box"})
        self.domain_kind = dom.get("kind", "box")
        if self.domain_kind not in ("box", "disk"):
            raise MalformedDocument(f"domain.kind: unknown {self.domain_kind!r}")
        if self.domain_kind == "disk":
            self.domain_center = _point(dom.get("center", [0.0, 0.0]),
                                        "domain.center")
            self.domain_radius = _num(_req(dom, "radius", "domain"),
                                      "domain.radius", positive=True)

        risk = _mapping(doc.get("risk", {}), "risk")
        self.feature = risk.get("feature", "probability")
        if self.feature not in (riskmap.PROBABILITY, riskmap.SPEED,
                                riskmap.LABEL):
            raise MalformedDocument(f"risk.feature: unknown {self.feature!r}")
        assign = _mapping(risk.get("assign", {"kind": "identity"}),
                          "risk.assign")
        kind = assign.get("kind", "identity")
        if kind not in (riskmap.IDENTITY, riskmap.SATURATING,
                        riskmap.EXPONENTIAL):
            raise MalformedDocument(f"risk.assign.kind: unknown {kind!r}")
        self.assign = riskmap.RiskAssign(
            kind, v_ref=_num(assign.get("v_ref", 1.0), "risk.assign.v_ref"),
            alpha=_num(assign.get("alpha", 1.0), "risk.assign.alpha"))
        fx = _mapping(risk.get("flux", {}), "risk.flux")
        self.flux_map = riskmap.FluxMap(
            _num(fx.get("beta_min", 1.0), "risk.flux.beta_min"),
            _num(fx.get("beta_max", 6.0), "risk.flux.beta_max"))
        win = _int(risk.get("smooth_window", 5), "risk.smooth_window")
        if win % 2 == 0 and win != 0:
            raise MalformedDocument(
                f"risk.smooth_window: expected 0, 1 or a positive odd "
                f"integer, got {win!r}")
        self.smooth_window = win

        # label names get small ids in declaration order, starting at 1
        prio = risk.get("priorities", {"wall": 1.0, "chair": 3.0,
                                       "person": 6.0})
        self.label_ids = {nm: i + 1 for i, nm in enumerate(prio)}
        self.label_priorities = {self.label_ids[nm]: _num(v, f"priorities.{nm}")
                                 for nm, v in prio.items()}
        if "wall" not in self.label_ids:
            self.label_ids["wall"] = max(self.label_ids.values(), default=0) + 1
            self.label_priorities[self.label_ids["wall"]] = 1.0

        self.obstacles = []
        for idx, ob in enumerate(doc.get("obstacles", [])):
            path = f"obstacles[{idx}]"
            kind = _req(ob, "kind", path)
            if kind not in ("disk", "rect", "cells", "polyline"):
                raise MalformedDocument(f"{path}.kind: unknown {kind!r}")
            lab = ob.get("label", "wall")
            if lab not in self.label_ids:
                raise MalformedDocument(
                    f"{path}.label: {lab!r} not in the priority table")
            prob = ob.get("prob", 1.0)
            if isinstance(prob, dict):
                axis = prob.get("axis", "x")
                if axis not in ("x", "y"):
                    raise MalformedDocument(
                        f"{path}.prob.axis: expected x or y, got {axis!r}")
                prob = (axis,
                        _unit(_req(prob, "from", f"{path}.prob"),
                              f"{path}.prob.from"),
                        _unit(_req(prob, "to", f"{path}.prob"),
                              f"{path}.prob.to"))
            else:
                prob = _unit(prob, f"{path}.prob")
            self.obstacles.append(dict(ob, label=lab, prob=prob, _path=path))

        flt = doc.get("filter", {})
        self.filter_cfg = FilterConfig(
            gamma=_num(flt.get("gamma", 1.0), "filter.gamma", positive=True),
            eps=_num(flt.get("eps", 0.1), "filter.eps", positive=True),
            eta_v=_num(flt.get("eta_v", 1e-6), "filter.eta_v", positive=True))

        self.backstep_doc = doc.get("backstep")

        nom = _req(doc, "nominal", self.name)
        self.nominal_kind = _req(nom, "kind", "nominal")
        if self.nominal_kind not in ("goal", "adversarial"):
            raise MalformedDocument(
                f"nominal.kind: unknown {self.nominal_kind!r}")
        self.nominal_mu = _num(nom.get("mu", 1.0), "nominal.mu",
                               positive=True)
        self.nominal_goal = None
        if self.nominal_kind == "goal":
            self.nominal_goal = _point(_req(nom, "goal", "nominal"),
                                       "nominal.goal")

        sol = doc.get("solver", {})
        method = sol.get("method", elliptic.SOR)
        if method not in (elliptic.SOR, elliptic.GAUSS_SEIDEL,
                          elliptic.DENSE_DIRECT):
            raise MalformedDocument(f"solver.method: unknown {method!r}")
        omega = sol.get("omega", 1.9)
        if omega != "auto" and not 0.0 < _num(omega, "solver.omega") < 2.0:
            raise MalformedDocument(
                f"solver.omega: expected 'auto' or a number in (0, 2), "
                f"got {omega!r}")
        self.solver_cfg = elliptic.SolverConfig(
            method=method, omega=omega,
            tol=_num(sol.get("tol", 1e-8), "solver.tol", positive=True),
            max_iters=_int(sol.get("max_iters", 0), "solver.max_iters"))

        sc = doc.get("sim", {})
        self.sim_cfg = {}
        if sc:
            self.sim_cfg["y0"] = _point(_req(sc, "y0", "sim"), "sim.y0")
            self.sim_cfg["dt"] = _num(_req(sc, "dt", "sim"), "sim.dt",
                                      positive=True)
            self.sim_cfg["T"] = _num(_req(sc, "T", "sim"), "sim.T",
                                     positive=True)
            if "goal" in sc:
                self.sim_cfg["goal"] = _point(sc["goal"], "sim.goal")
            elif self.nominal_goal is not None:
                self.sim_cfg["goal"] = self.nominal_goal
            if "ydot0" in sc:
                self.sim_cfg["ydot0"] = _point(sc["ydot0"], "sim.ydot0")
            if "dt_frame" in sc:
                self.sim_cfg["dt_frame"] = _num(sc["dt_frame"],
                                                "sim.dt_frame", positive=True)

        self.motion = []
        for idx, mo in enumerate(doc.get("motion", [])):
            path = f"motion[{idx}]"
            ob = int(_num(_req(mo, "obstacle", path), f"{path}.obstacle"))
            if not (0 <= ob < len(self.obstacles)):
                raise MalformedDocument(f"{path}.obstacle: index out of range")
            heading = _point(_req(mo, "heading", path), f"{path}.heading")
            prof = _req(mo, "profile", path)
            pk = prof.get("kind", "constant")
            if pk == "trapezoid":
                profile = sim.MotionProfile.trapezoid(
                    _num(_req(prof, "v_max", path), f"{path}.v_max"),
                    _num(_req(prof, "t_rise", path), f"{path}.t_rise"),
                    _num(prof.get("t_hold", 0.0), f"{path}.t_hold"),
                    _num(_req(prof, "t_fall", path), f"{path}.t_fall"),
                    heading)
            elif pk == "constant":
                profile = sim.MotionProfile.constant(
                    _num(_req(prof, "speed", path), f"{path}.speed"), heading)
            elif pk == "piecewise":
                profile = sim.MotionProfile(
                    [float(x) for x in _req(prof, "times", path)],
                    [float(x) for x in _req(prof, "speeds", path)], heading)
            else:
                raise MalformedDocument(f"{path}.profile.kind: unknown {pk!r}")
            self.motion.append((ob, profile))

        self.sweep_obstacle = doc.get("sweep_obstacle")
        if self.sweep_obstacle is not None:
            self.sweep_obstacle = int(self.sweep_obstacle)
            if not (0 <= self.sweep_obstacle < len(self.obstacles)):
                raise MalformedDocument("sweep_obstacle: index out of range")

    # -- rasterization ------------------------------------------------------

    def _centers(self):
        xs = self.origin[0] + self.d * np.arange(self.nx)
        ys = self.origin[1] + self.d * np.arange(self.ny)
        return np.meshgrid(xs, ys, indexing="ij")

    def _obstacle_mask(self, ob, X, Y, shift):
        kind = ob["kind"]
        path = ob["_path"]
        if kind == "disk":
            c = _point(_req(ob, "center", path), f"{path}.center") + shift
            r = _num(_req(ob, "radius", path), f"{path}.radius",
                     positive=True)
            return (X - c[0]) ** 2 + (Y - c[1]) ** 2 <= r * r
        if kind == "rect":
            lo = _point(_req(ob, "min", path), f"{path}.min") + shift
            hi = _point(_req(ob, "max", path), f"{path}.max") + shift
            return ((X >= lo[0]) & (X <= hi[0])
                    & (Y >= lo[1]) & (Y <= hi[1]))
        if kind == "cells":
            m = np.zeros(X.shape, dtype=bool)
            di = int(round(shift[0] / self.d))
            dj = int(round(shift[1] / self.d))
            for cell in _req(ob, "cells", path):
                i, j = int(cell[0]) + di, int(cell[1]) + dj
                if 0 <= i < self.nx and 0 <= j < self.ny:
                    m[i, j] = True
            return m
        # polyline with a thickness
        pts = [_point(p, f"{path}.points") + shift
               for p in _req(ob, "points", path)]
        if len(pts) < 2:
            raise MalformedDocument(f"{path}.points: need at least two")
        w = _num(ob.get("thickness", self.d), f"{path}.thickness",
                 positive=True)
        m = np.zeros(X.shape, dtype=bool)
        for p, q in zip(pts[:-1], pts[1:]):
            pq = q - p
            L2 = float(pq @ pq)
            t = ((X - p[0]) * pq[0] + (Y - p[1]) * pq[1]) / L2 if L2 > 0 \
                else np.zeros_like(X)
            t = np.clip(t, 0.0, 1.0)
            dist2 = (X - (p[0] + t * pq[0])) ** 2 \
                + (Y - (p[1] + t * pq[1])) ** 2
            m |= dist2 <= (0.5 * w) ** 2
        return m

    def _shift_of(self, idx, t):
        for ob, profile in self.motion:
            if ob == idx:
                return profile.displacement(t)
        return np.zeros(2)

    def _prob_values(self, ob, X, Y, mask):
        """Occupancy probability per cell: a constant, or a linear ramp
        (axis, from, to) across the obstacle's extent on that axis."""
        if not isinstance(ob["prob"], tuple):
            return np.full(X.shape, ob["prob"])
        axis, lo, hi = ob["prob"]
        coord = X if axis == "x" else Y
        cmin, cmax = coord[mask].min(), coord[mask].max()
        span = max(cmax - cmin, self.d)
        return lo + (hi - lo) * (coord - cmin) / span

    def rasterize(self, t=0.0):
        """OccupancyGrid at time t (moving obstacles shifted and re-covered)."""
        X, Y = self._centers()
        state = np.full((self.nx, self.ny), OCCUPIED, dtype=np.int8)
        if self.domain_kind == "box":
            state[1:-1, 1:-1] = FREE
        else:
            c, r = self.domain_center, self.domain_radius
            inside = (X - c[0]) ** 2 + (Y - c[1]) ** 2 < r * r
            inside[0, :] = inside[-1, :] = False
            inside[:, 0] = inside[:, -1] = False
            state[inside] = FREE

        wall_id = self.label_ids["wall"]
        prob = np.where(state == OCCUPIED, 1.0, 0.0)
        label = np.where(state == OCCUPIED, wall_id, 0).astype(np.int32)
        vel = np.zeros((self.nx, self.ny, 2))
        self._masks = []
        for idx, ob in enumerate(self.obstacles):
            shift = self._shift_of(idx, t)
            m = self._obstacle_mask(ob, X, Y, shift)
            self._masks.append(m)
            state[m] = OCCUPIED
            # the clip guards a ramp's round-off; ends lie in [0, 1]
            pv = np.clip(self._prob_values(ob, X, Y, m), 0.0, 1.0)
            prob[m] = pv[m]
            label[m] = self.label_ids[ob["label"]]
            spd = self._speed_of(idx, t)
            if spd is not None:
                vel[m] = spd
        return OccupancyGrid(state, self.d, self.origin, prob=prob,
                             label=label, vel=vel)

    def _speed_of(self, idx, t):
        for ob, profile in self.motion:
            if ob == idx:
                return profile.heading * profile.speed(t)
        explicit = self.obstacles[idx].get("speed")
        if explicit is not None:
            return np.array([_num(explicit, "speed"), 0.0])
        return None

    def speed_at(self, t):
        return max((p.speed(t) for _, p in self.motion), default=0.0)

    # -- features and the full build ----------------------------------------

    def node_features(self, grid, boundary):
        """One reading per node from the occupied 4-neighbors' channels.

        Probability and speed are the mean over the occupied neighbours, a
        label is their most common one with ties to the smallest id.  A grid
        without a vel channel reads speed 0.
        """
        ni, nj = nb4_of(boundary.cells)
        occ = grid.state[ni, nj] == OCCUPIED
        if self.feature == riskmap.LABEL:
            if grid.label is None:
                raise MalformedGrid("the label feature needs a label channel")
            lab = grid.label[ni, nj]
            same = (lab[:, :, None] == lab[:, None, :]) & occ[:, None, :]
            counts = np.where(occ, same.sum(axis=2), 0)
            top = counts == counts.max(axis=1, keepdims=True)
            best = np.where(top, lab, np.iinfo(lab.dtype).max).min(axis=1)
            return [riskmap.FeatureReading(riskmap.LABEL, int(x))
                    for x in best]
        if self.feature == riskmap.PROBABILITY:
            if grid.prob is None:
                raise MalformedGrid("the probability feature needs a prob "
                                    "channel")
            vals = grid.prob[ni, nj]
        elif grid.vel is None:
            vals = np.zeros(ni.shape)
        else:
            vals = np.hypot(grid.vel[ni, nj, 0], grid.vel[ni, nj, 1])
        # np.mean of the occupied values: a sum from 0.0 in NB4 order
        total = np.zeros(boundary.n)
        for o, v in zip(occ.T, vals.T):
            total += np.where(o, v, 0.0)
        mean = total / occ.sum(axis=1)
        return [riskmap.FeatureReading(self.feature, float(x)) for x in mean]

    def priority_rule(self):
        if self.feature == riskmap.LABEL:
            return riskmap.PriorityRule(riskmap.LABEL, self.label_priorities)
        return riskmap.PriorityRule(self.feature)

    def obstacle_components(self, grid, boundary):
        """Maps obstacle index -> set of boundary component ids it owns."""
        ni, nj = nb4_of(boundary.cells)
        occ = grid.state[ni, nj] == OCCUPIED
        return {idx: set(boundary.comp[(occ & m[ni, nj]).any(axis=1)].tolist())
                for idx, m in enumerate(self._masks)}

    def build(self, t=0.0, flux_scale=None):
        """Full chain at time t; flux_scale is a factor (all nodes) or a
        {obstacle_index: factor} map applied after smoothing."""
        report = {"stages": [], "scenario": self.name, "t": t}
        timings = report["timings_ms"] = {}
        last = time.perf_counter()

        def lap(stage):
            nonlocal last
            now = time.perf_counter()
            timings[stage] = 1e3 * (now - last)
            last = now

        grid = self.rasterize(t)
        lap("rasterize")
        boundary = extract_boundary(grid)
        lap("boundary")
        report["stages"].append("discretize")
        report["nodes"] = boundary.n
        report["components"] = [int(c) for c in boundary.components()]

        feats = self.node_features(grid, boundary)
        rule = self.priority_rule()
        boundary = riskmap.assign_flux(boundary, feats, rule, self.assign,
                                       self.flux_map)
        boundary = riskmap.smooth_flux(boundary, self.smooth_window)
        if flux_scale is not None:
            flux = boundary.flux.copy()
            if isinstance(flux_scale, dict):
                owners = self.obstacle_components(grid, boundary)
                for idx, c in flux_scale.items():
                    comps = owners.get(int(idx), set())
                    pick = np.isin(boundary.comp, list(comps))
                    flux[pick] = flux[pick] * float(c)
            else:
                flux = flux * float(flux_scale)
            boundary = boundary.with_flux(flux)
        report["stages"].append("risk")
        report["flux"] = {"min": float(boundary.flux.min()),
                          "max": float(boundary.flux.max()),
                          "mean": float(boundary.flux.mean())}
        lap("risk")

        h, v = elliptic.solve_fields(grid, boundary, elliptic.ForcingSpec(),
                                     self.solver_cfg)
        report["stages"] += ["poisson", "laplace"]
        report["poisson"] = asdict(h.stats)
        report["laplace"] = [asdict(v.x.stats), asdict(v.y.stats)]
        lap("solve")

        sf = SafetyFunction(h)
        gf = GuidanceFieldBundle(v, boundary)
        bcfg = None
        if self.backstep_doc is not None:
            bd = self.backstep_doc
            bcfg = BackstepConfig(
                mu=_num(bd.get("mu", 1.0), "backstep.mu", positive=True),
                gamma=self.filter_cfg.gamma,
                sigma_s=_num(bd.get("sigma_s", 0.1), "backstep.sigma_s",
                             positive=True),
                eta_c=_num(bd.get("eta_c", 1e-8), "backstep.eta_c",
                           positive=True),
                eta_v=self.filter_cfg.eta_v)
        report["stages"].append("filter")
        res = BuildResult(grid, boundary, sf, gf, self.filter_cfg, bcfg,
                          report)
        if bcfg is not None:
            bcfg.k_nom_v = self.controller(res)
        lap("filter")
        return res

    def controller(self, build):
        if self.nominal_kind == "goal":
            return sim.goal_controller(self.nominal_mu, self.nominal_goal)
        return sim.adversarial_controller(self.nominal_mu, build.sf)


def load_scenario(path):
    return Scenario(path)
