"""Seeded inputs for the benchmark workloads.

Every input is a plain scenario document or start state, placed by geometry
alone.  This module never imports riskfields: an error the program raises on
a generated input counts as a failed op, and no input is ever drawn again
because of one.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import zlib
from pathlib import Path

import numpy as np
import yaml

# Starts and goals keep at least this many cells between themselves and
# every obstacle and wall.
MARGIN_CELLS = 4
# Gap in cells between any two generated obstacles and between an obstacle
# and the outer wall, so free space stays one component and every obstacle
# owns a simple boundary loop.
GAP_CELLS = 4
# Bare disk documents solved per run for disk_oracle_err.
DISK_DOCS = 5
# Share of a map_solve map that its obstacles cover.
OBSTACLE_SHARE = 0.1

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the same
# structure at small sizes so the benchmark's own tests run in seconds.
SIZES = {
    "full": {
        "map_sizes": (96, 112, 128),
        "disk_radius": (0.9, 1.05),
        "sweep_n": 96,
        "sweep_scale": (0.5, 3.0),
        "double_T": 1.5,
        "single_T": 6.0,
        "frames": 5,
    },
    "tiny": {
        "map_sizes": (56, 64),
        "disk_radius": (0.3, 0.35),
        "sweep_n": 48,
        "sweep_scale": (0.5, 3.0),
        "double_T": 0.09,
        "single_T": 0.1,
        "frames": 1,
    },
}

def rng_for(workload, seed):
    """Independent generator per (workload, seed)."""
    salt = zlib.crc32(f"{workload}/".encode())
    return np.random.default_rng([int(seed), salt])


def digest(items):
    """sha256 over the canonical JSON of a list of inputs."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _r(x):
    return round(float(x), 4)


# -- geometry ----------------------------------------------------------------

def clearance(p, doc):
    """Distance from p to the nearest obstacle or wall of a document.

    Box walls are the perimeter cells, whose free side lies half a cell in
    from their centers.  Rectangles are measured to their outline; a point
    inside any obstacle gets a negative value.
    """
    g = doc["grid"]
    d = g["d"]
    ox, oy = g.get("origin", [0.0, 0.0])
    x, y = float(p[0]) - ox, float(p[1]) - oy
    dom = doc.get("domain", {"kind": "box"})
    if dom["kind"] == "box":
        best = min(x - 0.5 * d, (g["nx"] - 1.5) * d - x,
                   y - 0.5 * d, (g["ny"] - 1.5) * d - y)
    else:
        cx, cy = dom["center"]
        best = dom["radius"] - math.hypot(p[0] - cx, p[1] - cy)
    for ob in doc.get("obstacles", []):
        if ob["kind"] == "disk":
            cx, cy = ob["center"]
            gap = math.hypot(p[0] - cx, p[1] - cy) - ob["radius"]
        else:
            (x0, y0), (x1, y1) = ob["min"], ob["max"]
            dx = max(x0 - p[0], 0.0, p[0] - x1)
            dy = max(y0 - p[1], 0.0, p[1] - y1)
            gap = math.hypot(dx, dy)
            if dx == 0.0 and dy == 0.0:
                gap = -min(p[0] - x0, x1 - p[0], p[1] - y0, y1 - p[1])
        best = min(best, gap)
    return best


def free_point(rng, doc, lo, hi, far_from=None, min_dist=0.0):
    """Uniform point in the box [lo, hi] with MARGIN_CELLS of clearance,
    optionally at least min_dist away from the point far_from."""
    need = MARGIN_CELLS * doc["grid"]["d"]
    for _ in range(10000):
        p = rng.uniform(lo, hi)
        if clearance(p, doc) < need:
            continue
        if far_from is not None and math.dist(p, far_from) < min_dist:
            continue
        return [_r(p[0]), _r(p[1])]
    raise RuntimeError("no free point found; the placement box is too tight")


def _place_obstacles(rng, n, d, shapes, x_range=None):
    """Non-overlapping obstacles inside an n x n box map.

    shapes lists (kind, area in m^2); a rect gets a seed-drawn aspect ratio
    in [1/2, 2].  Each obstacle keeps GAP_CELLS from the wall and from every
    other one; a layout that jams is started over.
    """
    L = (n - 1) * d
    gap = GAP_CELLS * d
    for _ in range(1000):
        placed = []   # (center, bounding radius)
        obstacles = []
        for kind, area in shapes:
            if kind == "disk":
                r = math.sqrt(area / math.pi)
                bound = r
            else:
                w = math.sqrt(area * rng.uniform(0.5, 2.0))
                h = area / w
                bound = 0.5 * math.hypot(w, h)
            lo = 0.5 * d + gap + bound
            hi = L - 0.5 * d - gap - bound
            xlo, xhi = (lo, hi) if x_range is None else (
                max(lo, x_range[0]), min(hi, x_range[1]))
            for _ in range(200):
                c = np.array([rng.uniform(xlo, xhi), rng.uniform(lo, hi)])
                if all(np.linalg.norm(c - c2) >= bound + b2 + gap
                       for c2, b2 in placed):
                    break
            else:
                break
            placed.append((c, bound))
            if kind == "disk":
                obstacles.append({"kind": "disk",
                                  "center": [_r(c[0]), _r(c[1])],
                                  "radius": _r(r), "label": "wall"})
            else:
                obstacles.append({"kind": "rect",
                                  "min": [_r(c[0] - w / 2), _r(c[1] - h / 2)],
                                  "max": [_r(c[0] + w / 2), _r(c[1] + h / 2)],
                                  "label": "wall"})
        if len(obstacles) == len(shapes):
            return obstacles
    raise RuntimeError("could not place the obstacles")


def _prob(rng):
    """Scalar occupancy probability, or a ramp across the obstacle."""
    if rng.uniform() < 0.3:
        lo, hi = sorted(rng.uniform(0.2, 1.0, size=2))
        return {"kind": "ramp", "axis": ["x", "y"][int(rng.integers(2))],
                "from": _r(lo), "to": _r(hi)}
    return _r(rng.uniform(0.2, 1.0))


def _doc(name, n, d, origin, domain, obstacles):
    """Square-lattice scenario document with the shipped risk settings."""
    return {
        "name": name,
        "grid": {"nx": n, "ny": n, "d": d, "origin": [origin, origin]},
        "domain": domain,
        "obstacles": obstacles,
        "risk": {"feature": "probability", "assign": {"kind": "identity"},
                 "flux": {"beta_min": 1.0, "beta_max": 6.0},
                 "smooth_window": 5},
        "filter": {"gamma": 1.0},
        "solver": {"method": "sor", "omega": "auto", "tol": 1.0e-8},
    }


def _box_doc(name, n, d, obstacles):
    return _doc(name, n, d, 0.0, {"kind": "box"}, obstacles)


# -- per-workload inputs -----------------------------------------------------

def disk_docs(seed, size="full"):
    """DISK_DOCS obstacle-free disk domains with seed-drawn radii, d = 0.02.

    h = R^2 - r^2 is the exact solution, so these documents measure the
    accuracy of the Poisson solve (disk_oracle_err).  The staircase error
    jumps by up to 30% between radii one cell apart, depending on how the
    circle cuts the lattice, so the metric is the median over several.
    The radii are stratified: one in each of DISK_DOCS equal slices of the
    radius range, all at the same seed-drawn offset within their slice.
    """
    rng = rng_for("disk", seed)
    lo, hi = SIZES[size]["disk_radius"]
    width = (hi - lo) / DISK_DOCS
    offset = float(rng.uniform(0.0, width))
    docs = []
    for k in range(DISK_DOCS):
        R = _r(lo + k * width + offset)
        d = 0.02
        n = int(math.ceil(2 * R / d)) + 3
        doc = _doc("disk_oracle_generated", n, d, _r(-d * (n - 1) / 2),
                   {"kind": "disk", "center": [0.0, 0.0], "radius": R}, [])
        doc["nominal"] = {"kind": "goal", "mu": 1.0, "goal": [0.0, 0.0]}
        docs.append(doc)
    return docs


def map_solve_docs(seed, size="full"):
    """Endless stream of box maps for map_solve, in rounds.

    A round holds one map of every entry of map_sizes in seed-shuffled
    order.  Obstacles cover OBSTACLE_SHARE of every map, split into 3 to 6
    disks and rects of about equal area, so op cost depends on the lattice
    size and little on the draw; count, shapes, positions, annotations and
    the goal are fresh for every document.
    """
    rng = rng_for("map_solve", seed)
    sizes = list(SIZES[size]["map_sizes"])
    k = 0
    while True:
        for n in rng.permutation(sizes):
            n = int(n)
            d = 0.05
            count = int(rng.integers(3, 7))
            share = OBSTACLE_SHARE * ((n - 1) * d) ** 2 / count
            shapes = [(["disk", "rect"][int(rng.integers(2))],
                       share * rng.uniform(0.8, 1.2)) for _ in range(count)]
            obstacles = _place_obstacles(rng, n, d, shapes)
            for ob in obstacles:
                ob["prob"] = _prob(rng)
            doc = _box_doc(f"map_{k:04d}", n, d, obstacles)
            L = (n - 1) * d
            doc["nominal"] = {"kind": "goal", "mu": 1.0,
                              "goal": free_point(rng, doc, [0, 0], [L, L])}
            k += 1
            yield doc


def flux_sweep_inputs(seed, size="full"):
    """One three-disk 96^2 geometry plus an endless stream of flux scales
    for obstacle 0, as `riskfields sweep --workers 1` would run them."""
    rng = rng_for("flux_sweep", seed)
    cfg = SIZES[size]
    n, d = cfg["sweep_n"], 0.05
    L = (n - 1) * d
    shapes = [("disk", math.pi * (rng.uniform(n / 19, n / 12) * d) ** 2)
              for _ in range(3)]
    obstacles = _place_obstacles(rng, n, d, shapes,
                                 x_range=(0.25 * L, 0.75 * L))
    for ob in obstacles:
        ob["prob"] = 1.0
    doc = _box_doc("sweep_generated", n, d, obstacles)
    y0 = free_point(rng, doc, [0.06 * L, 0.3 * L], [0.14 * L, 0.7 * L])
    goal = free_point(rng, doc, [0.86 * L, 0.3 * L], [0.94 * L, 0.7 * L])
    doc["nominal"] = {"kind": "goal", "mu": 1.0, "goal": goal}
    # integrate_single refuses dt > d / (4 u_max); the goal nominal is
    # slower than mu * (lattice diagonal) everywhere, and the step keeps a
    # third in reserve for the filter's corrections.
    dt = math.floor(1e5 * d / (4 * 1.33 * math.sqrt(2) * L)) / 1e5
    doc["sim"] = {"y0": y0, "dt": dt, "T": 12.0}
    doc["sweep_obstacle"] = 0

    def scales():
        while True:
            yield _r(rng.uniform(*cfg["sweep_scale"]))

    return doc, scales()


def load_doc(root, name):
    with open(Path(root) / "scenarios" / f"{name}.yaml") as fh:
        return yaml.safe_load(fh)


def rollout_starts(seed, double_doc, single_doc, size="full"):
    """Endless stream of (double-integrator start, single-integrator start).

    The double-integrator start lies in the left 30% of the map, on the
    obstacle's far side from the goal and at least 1 m from it, with its
    velocity at the closed-form goal nominal mu (goal - y0).  The
    single-integrator start is anywhere in the room with the usual
    clearance, at least 0.5 m from the stop point.
    """
    rng = rng_for("rollout", seed)
    cfg = SIZES[size]
    gd = double_doc["grid"]
    Ld = (gd["nx"] - 1) * gd["d"]
    goal = double_doc["nominal"]["goal"]
    mu = double_doc["nominal"].get("mu", 1.0)
    sd = single_doc
    c, R = sd["domain"]["center"], sd["domain"]["radius"]
    while True:
        y0 = free_point(rng, double_doc, [0.0, 0.0], [0.3 * Ld, Ld],
                        far_from=goal, min_dist=1.0)
        ydot0 = [mu * (goal[0] - y0[0]), mu * (goal[1] - y0[1])]
        s0 = free_point(rng, sd, [c[0] - R, c[1] - R], [c[0] + R, c[1] + R],
                        far_from=sd["sim"]["goal"], min_dist=0.5)
        yield {"double": {"y0": y0, "ydot0": ydot0,
                          "dt": double_doc["sim"]["dt"],
                          "T": cfg["double_T"]},
               "single": {"y0": s0, "dt": sd["sim"]["dt"],
                          "T": cfg["single_T"]}}


def dynamic_docs(seed, base, size="full"):
    """Endless stream of moving_block variants: seed-drawn start point and
    peak speed of the block, replayed for a fixed number of frames.

    The block starts somewhere new in every op, so masks repeat only
    between the first frames of one op, while the block has barely moved.
    """
    rng = rng_for("dynamic_replay", seed)
    cfg = SIZES[size]
    while True:
        doc = copy.deepcopy(base)
        block = doc["obstacles"][0]
        cx, cy = block["center"]
        block["center"] = [_r(cx + rng.uniform(-0.2, 0.2)),
                           _r(cy + rng.uniform(-0.2, 0.3))]
        doc["motion"][0]["profile"]["v_max"] = _r(rng.uniform(0.4, 0.8))
        doc["sim"]["T"] = _r(cfg["frames"] * doc["sim"]["dt_frame"])
        yield doc
