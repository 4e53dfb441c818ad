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
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import yaml

from . import elliptic, riskmap, sim
from .errors import MalformedDocument, MalformedGrid
from .grid import (FREE, OCCUPIED, BoundarySet, OccupancyGrid, ScalarField,
                   VectorField, extract_boundary, nb4_of)
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
        if isinstance(x, bool):     # YAML true and false are not numbers
            raise TypeError
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


def _list(x, path):
    if not isinstance(x, (list, tuple)):
        raise MalformedDocument(f"{path}: expected a list, got {x!r}")
    return x


def _point(x, path):
    try:
        p = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise MalformedDocument(f"{path}: expected [x, y]")
    if p.shape != (2,):
        raise MalformedDocument(f"{path}: expected [x, y]")
    if not np.isfinite(p).all():
        raise MalformedDocument(f"{path}: coordinates must be finite, "
                                f"got {p.tolist()}")
    return p


def _obstacle_geometry(ob, kind, path, d):
    """The validated shape fields of one obstacle, by their document keys:
    disk center and radius, rect min and max, polyline points and
    thickness (default d), or cells as (i, j) integer pairs."""
    if kind == "disk":
        return {"center": _point(_req(ob, "center", path), f"{path}.center"),
                "radius": _num(_req(ob, "radius", path), f"{path}.radius",
                               positive=True)}
    if kind == "rect":
        lo = _point(_req(ob, "min", path), f"{path}.min")
        hi = _point(_req(ob, "max", path), f"{path}.max")
        if (lo > hi).any():
            raise MalformedDocument(
                f"{path}: min {lo.tolist()} exceeds max {hi.tolist()}")
        return {"min": lo, "max": hi}
    if kind == "cells":
        out = []
        for k, cell in enumerate(_list(_req(ob, "cells", path),
                                       f"{path}.cells")):
            if (not isinstance(cell, (list, tuple)) or len(cell) != 2
                    or not all(isinstance(v, (int, np.integer))
                               and not isinstance(v, bool) for v in cell)):
                raise MalformedDocument(
                    f"{path}.cells[{k}]: expected [i, j] integers, "
                    f"got {cell!r}")
            out.append((int(cell[0]), int(cell[1])))
        return {"cells": out}
    pts = [_point(p, f"{path}.points")
           for p in _list(_req(ob, "points", path), f"{path}.points")]
    if len(pts) < 2:
        raise MalformedDocument(f"{path}.points: need at least two")
    return {"points": pts,
            "thickness": _num(ob.get("thickness", d), f"{path}.thickness",
                              positive=True)}


# Private fields solved by earlier builds, keyed by content; G is
# _geometry_key, all that the boundary, h and (for a given beta0) the
# guidance depend on: the free mask, the lattice and the solver config.
# (G, "shape"): the flux-free BoundarySet and its _band_nodes arrays;
# (G, "h"): [h], with its stats and cached grad h; (G, beta0 bytes, c):
# [vx, vy] of the smoothed, unscaled flux beta0, v0 (data -beta0 n_hat)
# for c None, else v_c (that data on component c's nodes, 0 elsewhere).
# A successful full build leaves every solved entry of its own G and beta0
# here, read or not, and drops all others; a failed build stores nothing,
# nor does h alone.  Nothing stored is handed out: builds get fresh copies
# on their grid.
_SOLVED = {}


def _geometry_key(grid, cfg):
    return (grid.free.tobytes(), grid.nx, grid.ny, grid.d, grid.origin_xy,
            cfg.method, cfg.omega, cfg.tol, cfg.max_iters)


def _boundary_on(b, grid):
    """A fresh copy of the flux-free boundary b on grid."""
    return BoundarySet(grid, b.cells.copy(), b.normals.copy(), b.arcw.copy(),
                       b.comp.copy(), {c: None if a is None else a.copy()
                                       for c, a in b.chains.items()})


def _h_on(h, grid, boundary):
    """A fresh copy of the stored h on grid, with its stats and grad h."""
    out = ScalarField(grid, h.values.copy())
    out.stats = replace(h.stats)
    out.boundary = boundary
    g = h.gradient()
    out._grad = VectorField(*(ScalarField(grid, c.values.copy(), mask=out.mask)
                              for c in (g.x, g.y)))
    return out


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
            name_hint = str(doc)
            try:
                with open(doc) as fh:
                    doc = yaml.safe_load(fh)
            except (OSError, UnicodeError, yaml.YAMLError) as exc:
                raise MalformedDocument(f"{name_hint}: unreadable: {exc}") \
                    from None
        if not isinstance(doc, dict):
            raise MalformedDocument(f"{name_hint}: document is not a mapping")
        self.doc = doc
        self.name = doc.get("name", name_hint)
        self._parse()

    # -- parsing ------------------------------------------------------------

    def _parse(self):
        doc = self.doc
        g = _mapping(_req(doc, "grid", self.name), "grid")
        self.nx = _int(_req(g, "nx", "grid"), "grid.nx", lo=3)
        self.ny = _int(_req(g, "ny", "grid"), "grid.ny", lo=3)
        if self.nx * self.ny > MAX_CELLS:
            raise MalformedDocument(
                f"grid: nx*ny = {self.nx * self.ny} exceeds {MAX_CELLS}")
        self.d = _num(_req(g, "d", "grid"), "grid.d", positive=True)
        if not np.finfo(float).tiny <= self.d * self.d < math.inf:
            raise MalformedDocument(f"grid.d: {self.d!r} squared is not normal")
        self.origin = _point(g.get("origin", [0.0, 0.0]), "grid.origin")

        dom = _mapping(doc.get("domain", {"kind": "box"}), "domain")
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
        self.assign = riskmap.RiskAssign(kind, **{
            key: _num(assign.get(key, 1.0), f"risk.assign.{key}",
                      positive=True) for key in ("v_ref", "alpha")})
        fx = _mapping(risk.get("flux", {}), "risk.flux")
        lo, hi = (_num(fx.get(key, default), f"risk.flux.{key}",
                       positive=True)
                  for key, default in (("beta_min", 1.0), ("beta_max", 6.0)))
        if lo > hi:
            raise MalformedDocument(
                f"risk.flux: beta_min {lo!r} exceeds beta_max {hi!r}")
        self.flux_map = riskmap.FluxMap(lo, hi)
        win = _int(risk.get("smooth_window", 5), "risk.smooth_window")
        if win % 2 == 0 and win != 0:
            raise MalformedDocument(
                f"risk.smooth_window: expected 0, 1 or a positive odd "
                f"integer, got {win!r}")
        self.smooth_window = win

        # label names get small ids in declaration order, starting at 1
        prio = _mapping(risk.get("priorities", {"wall": 1.0, "chair": 3.0,
                                                "person": 6.0}),
                        "risk.priorities")
        self.label_ids = {nm: i + 1 for i, nm in enumerate(prio)}
        self.label_priorities = {
            self.label_ids[nm]: _num(v, f"risk.priorities.{nm}")
            for nm, v in prio.items()}
        if "wall" not in self.label_ids:
            self.label_ids["wall"] = max(self.label_ids.values(), default=0) + 1
            self.label_priorities[self.label_ids["wall"]] = 1.0

        self.obstacles = []
        for idx, ob in enumerate(_list(doc.get("obstacles", []),
                                       "obstacles")):
            path = f"obstacles[{idx}]"
            kind = _req(_mapping(ob, path), "kind", path)
            if kind not in ("disk", "rect", "cells", "polyline"):
                raise MalformedDocument(f"{path}.kind: unknown {kind!r}")
            lab = ob.get("label", "wall")
            if isinstance(lab, (list, dict, set)) or lab not in self.label_ids:
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
            geom = _obstacle_geometry(ob, kind, path, self.d)
            if ob.get("speed") is not None:
                geom["speed"] = _num(ob["speed"], f"{path}.speed")
            self.obstacles.append(dict(ob, label=lab, prob=prob, **geom))

        flt = _mapping(doc.get("filter", {}), "filter")
        self.filter_cfg = FilterConfig(
            gamma=_num(flt.get("gamma", 1.0), "filter.gamma", positive=True),
            eps=_num(flt.get("eps", 0.1), "filter.eps", positive=True),
            eta_v=_num(flt.get("eta_v", 1e-6), "filter.eta_v", positive=True))

        self.backstep = None     # BackstepConfig's own parameters
        if doc.get("backstep") is not None:
            bd = _mapping(doc["backstep"], "backstep")
            self.backstep = {
                key: _num(bd.get(key, default), f"backstep.{key}",
                          positive=True)
                for key, default in (("mu", 1.0), ("sigma_s", 0.1),
                                     ("eta_c", 1e-8))}

        nom = _mapping(_req(doc, "nominal", self.name), "nominal")
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

        sol = _mapping(doc.get("solver", {}), "solver")
        method = sol.get("method", elliptic.SOR)
        if method in ("gauss_seidel", "dense_direct"):
            raise MalformedDocument(
                f"solver.method: {method!r} was removed; use 'sor' "
                "(Gauss-Seidel is 'sor' with omega 1.0)")
        if method != elliptic.SOR:
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

        sc = _mapping(doc.get("sim", {}), "sim")
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
        for idx, mo in enumerate(_list(doc.get("motion", []), "motion")):
            path = f"motion[{idx}]"
            ob = _int(_req(_mapping(mo, path), "obstacle", path),
                      f"{path}.obstacle")
            if not (0 <= ob < len(self.obstacles)):
                raise MalformedDocument(f"{path}.obstacle: index out of range")
            heading = _point(_req(mo, "heading", path), f"{path}.heading")
            prof = _req(mo, "profile", path)
            path += ".profile"
            pk = _mapping(prof, path).get("kind", "constant")
            try:    # MotionProfile's own checks raise ValueError
                if pk == "trapezoid":
                    profile = sim.MotionProfile.trapezoid(
                        _num(_req(prof, "v_max", path), f"{path}.v_max"),
                        _num(_req(prof, "t_rise", path), f"{path}.t_rise"),
                        _num(prof.get("t_hold", 0.0), f"{path}.t_hold"),
                        _num(_req(prof, "t_fall", path), f"{path}.t_fall"),
                        heading)
                elif pk == "constant":
                    profile = sim.MotionProfile.constant(
                        _num(_req(prof, "speed", path), f"{path}.speed"),
                        heading)
                elif pk == "piecewise":
                    profile = sim.MotionProfile(*(
                        [_num(x, f"{path}.{key}") for x in
                         _list(_req(prof, key, path), f"{path}.{key}")]
                        for key in ("times", "speeds")), heading)
                else:
                    raise MalformedDocument(f"{path}.kind: unknown {pk!r}")
            except ValueError as exc:
                raise MalformedDocument(f"{path}: {exc}") from None
            self.motion.append((ob, profile))

        self.sweep_obstacle = doc.get("sweep_obstacle")
        if self.sweep_obstacle is not None:
            self.sweep_obstacle = _int(self.sweep_obstacle, "sweep_obstacle")
            if not (0 <= self.sweep_obstacle < len(self.obstacles)):
                raise MalformedDocument("sweep_obstacle: index out of range")

    # -- rasterization ------------------------------------------------------

    def _centers(self):
        xs = self.origin[0] + self.d * np.arange(self.nx)
        ys = self.origin[1] + self.d * np.arange(self.ny)
        return np.meshgrid(xs, ys, indexing="ij")

    def _obstacle_mask(self, ob, X, Y, shift):
        kind = ob["kind"]
        if kind == "disk":
            c = ob["center"] + shift
            r = ob["radius"]
            return (X - c[0]) ** 2 + (Y - c[1]) ** 2 <= r * r
        if kind == "rect":
            lo = ob["min"] + shift
            hi = ob["max"] + shift
            return ((X >= lo[0]) & (X <= hi[0])
                    & (Y >= lo[1]) & (Y <= hi[1]))
        if kind == "cells":
            m = np.zeros(X.shape, dtype=bool)
            di = int(round(shift[0] / self.d))
            dj = int(round(shift[1] / self.d))
            for ci, cj in ob["cells"]:
                i, j = ci + di, cj + dj
                if 0 <= i < self.nx and 0 <= j < self.ny:
                    m[i, j] = True
            return m
        # polyline with a thickness
        pts = [p + shift for p in ob["points"]]
        w = ob["thickness"]
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
        if not mask.any():       # covers no cell: nothing to paint
            return np.full(X.shape, lo)
        coord = X if axis == "x" else Y
        cmin, cmax = coord[mask].min(), coord[mask].max()
        span = max(cmax - cmin, self.d)
        return lo + (hi - lo) * (coord - cmin) / span

    def obstacle_masks(self, t=0.0):
        """Each obstacle's cells at time t, moving ones shifted, in document
        order."""
        X, Y = self._centers()
        return [self._obstacle_mask(ob, X, Y, self._shift_of(idx, t))
                for idx, ob in enumerate(self.obstacles)]

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
        for idx, (ob, m) in enumerate(zip(self.obstacles,
                                          self.obstacle_masks(t))):
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
            return np.array([explicit, 0.0])
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

    def obstacle_components(self, grid, boundary, masks):
        """Maps obstacle index -> set of boundary component ids it owns;
        masks is obstacle_masks at the grid's time."""
        ni, nj = nb4_of(boundary.cells)
        occ = grid.state[ni, nj] == OCCUPIED
        return {idx: set(boundary.comp[(occ & m[ni, nj]).any(axis=1)].tolist())
                for idx, m in enumerate(masks)}

    def build(self, t=0.0, flux_scale=None):
        """Full chain at time t; flux_scale is a factor a (all nodes) or a
        {obstacle_index: factor} map applied after smoothing, each factor
        finite and positive, each key an obstacle's index; anything else
        raises MalformedDocument before any work.

        The guidance is linear in its boundary data, so it is one sum,
        v = a v0 + sum_c (s_c - a) v_c, over the components c whose factor
        s_c (the product of the scales of the obstacles that own c) is not
        a; a is 1 for a map or no scale, so an unscaled build's v is v0.
        v0 and v_c are solved for the smoothed, unscaled flux beta0.  A
        build reads what _SOLVED holds for its geometry G: the boundary and
        node map (G, "shape"), h with grad h (G, "h"), and v0 and the v_c
        of its beta0 (G, beta0, c); only what is missing is solved, and a
        successful build keeps every entry of its own G and beta0, read or
        not.  So a one-off map-scaled build solves five systems (h, v0 and
        one basis pair), two more than a direct solve of its scaled flux,
        while later scales of the same obstacles solve none, also after a
        scalar scale in between.
        The one-frame case of _build_frames; run_dynamic asks it for a
        stack of frames per solve (at least two, more on small lattices),
        so it prepares at most one stack ahead of the frame its dh/dt
        needs."""
        return next(self._build_frames([t], flux_scale))

    def safety_field(self, t=0.0):
        """h at time t alone: the Poisson solve of build(t), without the
        boundary, flux and guidance stages, so with the same values; taken
        from _SOLVED when the last build had this geometry.  The one-frame
        case of _build_frames with h_last; a dynamic run solves its closing
        frame's h this way, as the last item of its last stack."""
        return next(self._build_frames([t], h_last=True))

    def _build_frames(self, times, flux_scale=None, h_last=False):
        """The builds at times, in order, from one stacked solve; with
        h_last the last one is h alone, as safety_field.

        A generator.  When the first frame is asked for, every frame is
        prepared (rasterize, boundary, flux) against one plan: a copy of
        _SOLVED that gains each frame's boundary and the keys of the fields
        it solves as the frame adds them.  A frame reads every field the
        plan holds and adds the rest, so each key is solved once, in one
        elliptic._sweep_stack, where each system keeps the values and stats
        of a solve on its own.  Each frame is finished when it is asked
        for; a full build then leaves in _SOLVED the plan's solved entries
        of its own G and beta0.  So every field and stats is that of builds
        made one at a time, whatever the number of frames, but a report
        reads "reused" for a field that those builds would have re-solved
        because only the last one's G stays in _SOLVED.  A frame that fails
        raises when it is asked for, and no frame after it is prepared.
        build and safety_field ask for one frame, run_dynamic for stacks of
        two or more (sim._STACK_CELLS).
        """
        groups, frames, failure = [], [], None
        flux_scale = self._checked_scale(flux_scale)
        plan = dict(_SOLVED)
        for n, t in enumerate(times):
            try:
                grid, adds, finish = self._prepare(
                    t, flux_scale, plan, h_last and n == len(times) - 1)
            except Exception as exc:
                # any error, raised when its frame is asked for: where a
                # build made one at a time would raise it
                failure = exc
                break
            plan.update((key, None) for key, _ in adds)     # None: pending
            groups.append((grid, [s for _, group in adds for s in group]))
            frames.append((adds, finish))
        start = time.perf_counter()
        solved = elliptic._sweep_stack(groups, self.solver_cfg)
        # each frame's share of the stacked sweep, by its number of systems
        per_system = ((time.perf_counter() - start)
                      / max(1, sum(len(systems) for _, systems in groups)))
        for (_, systems), (adds, finish), values in zip(groups, frames,
                                                        solved):
            fields = iter(elliptic._fields(systems, values))
            plan.update((key, [next(fields) for _ in group])
                        for key, group in adds)
            yield finish(plan, per_system * len(systems))
        if failure is not None:
            raise failure

    def _prepare(self, t, flux_scale, plan, h_only):
        """Frame t up to its systems: (grid, adds, finish), with adds the
        [(key, systems)] of the plan's keys it solves, in stack order, and
        finish(plan, seconds) its build, or its h alone, once the plan
        holds every field it reads; seconds is its share of the sweep."""
        start = time.perf_counter()
        grid = self.rasterize(t)
        G = _geometry_key(grid, self.solver_cfg)
        if h_only:      # the plan's h, or its own solve
            key = (G, "h")
            adds = [] if key in plan else [(key, [
                elliptic._poisson(grid, None, elliptic.ForcingSpec())])]

            def h_alone(plan, seconds):
                h, = plan[key]
                return h if adds else _h_on(h, grid, None)
            return grid, adds, h_alone
        report = {"stages": [], "scenario": self.name, "t": t}
        timings = report["timings_ms"] = {
            "rasterize": 1e3 * (time.perf_counter() - start)}

        start = time.perf_counter()
        stored = plan.get((G, "shape"))
        report["geometry"] = "solved" if stored is None else "reused"
        shape = (extract_boundary(grid) if stored is None
                 else _boundary_on(stored[0], grid))
        timings["boundary"] = 1e3 * (time.perf_counter() - start)
        report["stages"].append("discretize")
        report["nodes"] = shape.n
        report["components"] = [int(c) for c in shape.components()]

        start = time.perf_counter()
        feats = self.node_features(grid, shape)
        rule = self.priority_rule()
        base = riskmap.assign_flux(shape, feats, rule, self.assign,
                                   self.flux_map)
        base = riskmap.smooth_flux(base, self.smooth_window)     # beta0
        a, scales = self._component_scales(flux_scale, t, grid, base)
        boundary = base
        if flux_scale is not None:
            factor = np.full(base.n, a)
            for c, s in scales.items():
                factor[base.comp == c] = s
            boundary = base.with_flux(base.flux * factor)
        report["stages"].append("risk")
        report["flux"] = {"min": float(boundary.flux.min()),
                          "max": float(boundary.flux.max()),
                          "mean": float(boundary.flux.mean())}
        timings["risk"] = 1e3 * (time.perf_counter() - start)

        start = time.perf_counter()
        flux_key = base.flux.tobytes()
        adds = []
        if stored is None:
            plan[G, "shape"] = (_boundary_on(shape, grid),
                                elliptic._band_nodes(grid, boundary))
            adds.append(((G, "h"), [elliptic._poisson(
                grid, boundary, elliptic.ForcingSpec())]))
        nodes = plan[G, "shape"][1]
        terms = [((G, flux_key, None), a)] + [((G, flux_key, c), s - a)
                                              for c, s in scales.items()]
        adds += [(key, elliptic._guidance(grid, base, nodes, comp=key[2]))
                 for key, _ in terms if key not in plan]
        timings["solve"] = 1e3 * (time.perf_counter() - start)

        def finish(plan, seconds):
            start = time.perf_counter()
            h = _h_on(plan[G, "h"][0], grid, boundary)
            fx, fy = elliptic._superpose(grid, [(s, plan[key])
                                                for key, s in terms])
            v = elliptic._vector(fx, fy, boundary)
            report["stages"] += ["poisson", "laplace"]
            report["poisson"] = asdict(h.stats)
            report["laplace"] = [asdict(v.x.stats), asdict(v.y.stats)]
            origin = {key: "solved" for key, _ in adds}
            report["guidance"] = {
                "v0": origin.get(terms[0][0], "reused"),
                "terms": [{"component": key[2], "coefficient": s,
                           "basis": origin.get(key, "reused"),
                           "stats": [asdict(f.stats) for f in plan[key]]}
                          for key, s in terms]}
            now = time.perf_counter()
            timings["solve"] += 1e3 * (seconds + now - start)

            start = now
            sf = SafetyFunction(h)
            bcfg = None
            if self.backstep is not None:
                bcfg = BackstepConfig(gamma=self.filter_cfg.gamma,
                                      eta_v=self.filter_cfg.eta_v,
                                      k_nom_v=self._nominal(sf),
                                      **self.backstep)
            report["stages"].append("filter")
            res = BuildResult(grid, boundary, sf,
                              GuidanceFieldBundle(v, boundary),
                              self.filter_cfg, bcfg, report)
            _SOLVED.clear()
            _SOLVED.update((k, e) for k, e in plan.items() if k[0] == G
                           and k[1] in ("shape", "h", flux_key)
                           and e is not None)
            timings["filter"] = 1e3 * (time.perf_counter() - start)
            return res
        return grid, adds, finish

    def _checked_scale(self, flux_scale):
        """flux_scale as build takes it, with float factors and int keys;
        a bad factor or key raises MalformedDocument."""
        if flux_scale is None:
            return None
        if not isinstance(flux_scale, dict):
            return _num(flux_scale, "flux_scale", positive=True)
        out = {}
        for idx, s in flux_scale.items():
            i = _int(idx, "flux_scale key")
            if i >= len(self.obstacles):
                raise MalformedDocument(
                    f"flux_scale key: no obstacle {i}, the document has "
                    f"{len(self.obstacles)}")
            out[i] = _num(s, f"flux_scale[{i}]", positive=True)
        return out

    def _component_scales(self, flux_scale, t, grid, boundary):
        """(a, {c: s_c}): the factor a of every node, and the factor s_c of
        each component c where it is not a, the product of the scales of
        the obstacles that own c at time t, in the map's order."""
        if not isinstance(flux_scale, dict):
            return (1.0 if flux_scale is None else flux_scale), {}
        owners = self.obstacle_components(grid, boundary,
                                          self.obstacle_masks(t))
        scales = {}
        for c in boundary.components():
            s = 1.0
            for idx, x in flux_scale.items():
                if c in owners[idx]:
                    s *= x
            if s != 1.0:
                scales[c] = s
        return 1.0, scales

    def controller(self, build):
        return self._nominal(build.sf)

    def _nominal(self, sf):
        if self.nominal_kind == "goal":
            return sim.goal_controller(self.nominal_mu, self.nominal_goal)
        return sim.adversarial_controller(self.nominal_mu, sf)


def load_scenario(path):
    return Scenario(path)
