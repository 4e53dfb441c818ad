"""Command-line entry point: solve | zones | simulate | dynamic | sweep.

Every run writes a manifest (scenario hash, package and library versions)
so results can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import yaml

from . import __version__, backstep, elliptic, sim
from .errors import RiskFieldsError
from .grid import OCCUPIED, FieldSampler, dump_csv
from .safety import activation_zone
from .scenario import _SOLVED, Scenario


def _manifest(argv, scenario_path, outputs):
    with open(scenario_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "command": " ".join(argv),
        "scenario": os.path.abspath(scenario_path),
        "scenario_sha256": digest,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "pyyaml_version": yaml.__version__,
        "python_version": sys.version.split()[0],
        "outputs": sorted(outputs),
    }


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dump_fields(out, tag, build):
    names = []
    for name, arr in (("h", build.sf.h.values),
                      ("vx", build.gf.v.x.values),
                      ("vy", build.gf.v.y.values)):
        p = os.path.join(out, f"{tag}{name}.csv")
        dump_csv(arr, p)
        names.append(p)
    return names


def _disk_oracle_error(scenario, build):
    """Max |h - (R^2 - r^2)| against the analytic disk solution."""
    g = build.grid
    pts = g.free_centers()
    c = scenario.domain_center
    r2 = ((pts - c) ** 2).sum(axis=1)
    exact = scenario.domain_radius ** 2 - r2
    return float(np.abs(build.sf.h.values[g.free] - exact).max())


def cmd_solve(args, scenario):
    out = args.out
    build = scenario.build()
    outputs = []
    report = dict(build.report)
    if scenario.domain_kind == "disk" and not scenario.obstacles \
            and np.ptp(build.boundary.flux) == 0:
        report["disk_oracle_max_err"] = _disk_oracle_error(scenario, build)
    rel = elliptic.check_divergence_identity(
        build.sf.h, elliptic.ForcingSpec(), build.boundary)
    report["divergence_residual"] = rel
    if args.dump_fields:
        outputs += _dump_fields(out, "", build)
    p = os.path.join(out, "build_report.json")
    _write_json(p, report)
    outputs.append(p)
    print(f"solved {scenario.name}: {build.boundary.n} nodes, "
          f"divergence residual {rel:.3e}")
    if "disk_oracle_max_err" in report:
        print(f"disk oracle max error {report['disk_oracle_max_err']:.3e}")
    return outputs


def cmd_zones(args, scenario):
    out = args.out
    build = scenario.build()
    zone = activation_zone(build.grid, scenario.controller(build), build.sf,
                           build.gf, build.filter_cfg)
    sp = os.path.join(out, "zone_sign.csv")
    pp = os.path.join(out, "zone_contours.csv")
    zone.write_sign_csv(sp)
    zone.write_polylines(pp)
    summary = {"cells_active": zone.cell_count,
               "cells_active_restricted": zone.cell_count_restricted,
               "area": zone.area, "polylines": len(zone.polylines)}
    jp = os.path.join(out, "zone_summary.json")
    _write_json(jp, summary)
    print(f"zones for {scenario.name}: {zone.cell_count} active cells, "
          f"{len(zone.polylines)} contour lines")
    outputs = [sp, pp, jp]
    if args.dump_fields:
        outputs += _dump_fields(out, "", build)
    return outputs


def _simulate(scenario, build):
    sc = scenario.sim_cfg
    if not sc:
        raise RiskFieldsError("scenario has no sim section")
    controller = scenario.controller(build)
    if "ydot0" in sc and build.backstep_cfg is not None:
        bcfg = build.backstep_cfg

        def acc_nom(y, ydot):
            return bcfg.mu * (bcfg.k_nom_v(y) - ydot)

        st = backstep.ExtendedState(sc["y0"], sc["ydot0"])
        return sim.integrate_double(st, acc_nom, build.sf, build.gf, bcfg,
                                    sc["dt"], sc["T"], goal=sc.get("goal"))
    return sim.integrate_single(sc["y0"], controller, build.sf, build.gf,
                                build.filter_cfg, sc["dt"], sc["T"],
                                goal=sc.get("goal"))


# points x squares per block of _nearest_square (2 MB of floats)
_CLEARANCE_BLOCK = 1 << 18


def _nearest_square(y, cx, cy, half):
    """Per point of y, the distance to the nearest square of side 2 half
    centred at (cx, cy), in blocks of about _CLEARANCE_BLOCK pairs; half 0
    is the distance to the nearest centre."""
    out = np.empty(len(y))
    step = max(1, _CLEARANCE_BLOCK // len(cx))
    for k in range(0, len(y), step):
        p = y[k:k + step]
        dx = np.maximum(np.abs(cx - p[:, :1]) - half, 0.0)
        dy = np.maximum(np.abs(cy - p[:, 1:]) - half, 0.0)
        out[k:k + step] = np.hypot(dx, dy).min(axis=1)
    return out


def _depths(y, grid):
    """Per point of y, each in an occupied cell's square, its distance to
    the union of grid's free cell squares.  The nearest point of the union
    then lies on the square of a free cell with an occupied 4-neighbour
    (the perimeter is occupied), so only those are searched."""
    free = grid.free
    edge = free[1:-1, 1:-1] & ~(free[2:, 1:-1] & free[:-2, 1:-1]
                                & free[1:-1, 2:] & free[1:-1, :-2])
    ii, jj = np.nonzero(edge)
    cx, cy = grid.origin[:, None] + grid.d * np.array([ii + 1, jj + 1])
    return _nearest_square(y, cx, cy, 0.5 * grid.d)


def _safety_counts(traj, builds, m):
    """The trajectory's checks against the fields each sample was filtered
    on, builds[min(i // m, len(builds) - 1)] for sample i, with the frozen
    h of its frame (no dh/dt):

    - inside_occupied: samples whose cell, the nearest centre
      floor((y - origin)/d + 1/2), is occupied; every recorded sample lies
      in the lattice hull, so its cell exists;
    - max_depth: the largest distance of those samples to the union of the
      free cell squares (0 without any);
    - grad_h_negative: samples with grad h . u + gamma h < 0, u the
      filtered input of a single integrator or the velocity of a double;
    - k_v_safe_negative, double integrator only: samples with
      grad h . k_v_safe + gamma h < 0, 0 when h_B is a valid barrier.
    """
    k = np.minimum(np.arange(traj.n) // m, len(builds) - 1)
    double = traj.ydot is not None
    u = traj.ydot if double else traj.u_filt
    counts = {"inside_occupied": 0, "max_depth": 0.0, "grad_h_negative": 0}
    if double:
        counts["k_v_safe_negative"] = 0
    for f in np.unique(k).tolist():
        b = builds[f]
        g, sel = b.grid, k == f
        y = traj.y[sel]
        i, j = np.floor((y - g.origin) / g.d + 0.5).astype(int).T
        inside = g.state[i, j] == OCCUPIED
        counts["inside_occupied"] += int(inside.sum())
        if inside.any():
            counts["max_depth"] = max(counts["max_depth"],
                                      float(_depths(y[inside], g).max()))
        gamma = b.filter_cfg.gamma
        grad = b.sf.grad_at(y)
        gu = (grad * u[sel]).sum(axis=1) + gamma * traj.h[sel]
        counts["grad_h_negative"] += int((gu < 0.0).sum())
        if double:
            counts["k_v_safe_negative"] += _k_v_safe_negative(y, b)
    return counts


def _k_v_safe_negative(y, build):
    """The number of points of y where grad h . k_v_safe + gamma h < 0."""
    bcfg = build.backstep_cfg
    k_v = backstep.accel_kernel(FieldSampler(build.sf, build.gf),
                                bcfg.nominal_at(build.sf), bcfg).k_v
    n = 0
    for px, py in y.tolist():
        h, hx, hy, kx, ky = k_v(px, py)
        if hx * kx + hy * ky + bcfg.gamma * h < 0.0:
            n += 1
    return n


def _run_summary(traj, builds, m):
    """A run's summary: filter activity and _safety_counts."""
    du = traj.u_filt - traj.u_nom
    return {"termination": traj.termination, "samples": traj.n,
            "min_h": traj.min_h(), "audit_min": float(traj.audit.min()),
            "filter_active": int((du != 0.0).any(axis=1).sum()),
            "max_correction": float(np.hypot(*du.T).max()),
            **_safety_counts(traj, builds, m),
            "end": {"t": float(traj.t[-1]), "y": traj.y[-1].tolist()}}


def cmd_simulate(args, scenario):
    out = args.out
    build = scenario.build()
    traj = _simulate(scenario, build)
    tp = os.path.join(out, "trajectory.csv")
    traj.to_csv(tp)
    ap = os.path.join(out, "audit.csv")
    with open(ap, "w") as fh:
        fh.write("t,constraint\n")
        for t, c in zip(traj.t, traj.audit):
            fh.write("%.17g,%.17g\n" % (t, c))
    summary = {**_run_summary(traj, [build], 1),
               "path_length": traj.path_length()}
    jp = os.path.join(out, "sim_summary.json")
    _write_json(jp, summary)
    print(f"simulated {scenario.name}: {traj.termination} after "
          f"{traj.n} samples, min h {traj.min_h():.4g}")
    outputs = [tp, ap, jp]
    if args.dump_fields:
        outputs += _dump_fields(out, "", build)
    return outputs


def cmd_dynamic(args, scenario):
    out = args.out
    sc = scenario.sim_cfg
    dt_frame = sc.get("dt_frame")
    if dt_frame is None:
        raise RiskFieldsError("scenario sim section needs dt_frame")
    T = sc["T"]
    if args.frames:
        T = args.frames * dt_frame
    res = sim.run_dynamic(scenario, dt_frame, sc["dt"], T)
    tp = os.path.join(out, "trajectory.csv")
    res.trajectory.to_csv(tp)
    fp = os.path.join(out, "frames.csv")
    with open(fp, "w") as fh:
        fh.write("t,speed,zone_cells,zone_cells_restricted\n")
        for fr in res.frames:
            fh.write("%.17g,%.17g,%d,%d\n"
                     % (fr.t, fr.speed, fr.zone.cell_count,
                        fr.zone.cell_count_restricted))
    outputs = [tp, fp]
    if args.dump_fields:
        for k, fr in enumerate(res.frames):
            outputs += _dump_fields(out, f"frame{k:04d}_", fr.build)
    traj = res.trajectory
    builds = [fr.build for fr in res.frames]
    summary = {**_run_summary(traj, builds, round(dt_frame / sc["dt"])),
               "frames": len(res.frames)}
    jp = os.path.join(out, "dynamic_summary.json")
    _write_json(jp, summary)
    outputs.append(jp)
    print(f"dynamic {scenario.name}: {len(res.frames)} frames, "
          f"{traj.termination}, min h {traj.min_h():.4g}")
    return outputs


def _min_clearance(traj, build, scenario, obstacle_idx):
    mask = scenario.obstacle_masks(build.report["t"])[obstacle_idx]
    g = build.grid
    ii, jj = np.nonzero(mask & ~g.free)
    if len(ii) == 0:
        return float("nan")
    cx, cy = g.origin[:, None] + g.d * np.array([ii, jj], dtype=float)
    # fmin skips a NaN sample
    return float(np.fmin.reduce(_nearest_square(traj.y, cx, cy, 0.0)))


def _start_worker(solved):
    """Pool initializer: the worker's _SOLVED starts as the parent's."""
    _SOLVED.clear()
    _SOLVED.update(solved)


def _sweep_one(job):
    path, scale, gamma = job
    scenario = Scenario(path)
    scenario.filter_cfg = dataclasses.replace(scenario.filter_cfg, gamma=gamma)
    idx = scenario.sweep_obstacle
    fs = None if idx is None else {idx: scale}
    if idx is None and scale != 1.0:
        fs = scale
    build = scenario.build(flux_scale=fs)
    zone = activation_zone(build.grid, scenario.controller(build), build.sf,
                           build.gf, build.filter_cfg)
    traj = _simulate(scenario, build)
    clearance = float("nan")
    if idx is not None:
        clearance = _min_clearance(traj, build, scenario, idx)
    return {"scale": scale, "gamma": gamma,
            "zone_cells_restricted": zone.cell_count_restricted,
            "zone_cells": zone.cell_count,
            "min_h": traj.min_h(), "min_clearance": clearance,
            "path_length": traj.path_length(),
            "termination": traj.termination}


def _positive_list(text, flag):
    """The comma-separated numbers of a flag, each positive and finite; a
    typed error naming the flag before any job starts (FilterConfig's own
    check raises ValueError, a bad scale would fail inside a job)."""
    values = []
    for s in text.split(","):
        try:
            v = float(s)
        except ValueError:
            raise RiskFieldsError(f"{flag}: {s!r} is not a number")
        if not 0 < v < math.inf:
            raise RiskFieldsError(f"{flag}: {v} is not positive and finite")
        values.append(v)
    return values


def cmd_sweep(args, scenario):
    out = args.out
    if args.workers < 1:
        raise RiskFieldsError(f"--workers: {args.workers} is not at least 1")
    scales = _positive_list(args.scales, "--scales")
    gammas = _positive_list(args.gammas, "--gammas") if args.gammas \
        else [scenario.filter_cfg.gamma]
    jobs = [(args.scenario, s, gm) for gm in gammas for s in scales]
    # a scaled job first, here, so _SOLVED holds every field the others
    # read (scale 1 needs no basis pair); each worker starts from a copy
    jobs.sort(key=lambda job: job[1] == 1.0)
    rows = [_sweep_one(jobs.pop(0))]
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_start_worker,
                                 initargs=(dict(_SOLVED),)) as ex:
            rows += ex.map(_sweep_one, jobs)
    else:
        rows += map(_sweep_one, jobs)
    rows.sort(key=lambda r: (r["gamma"], r["scale"]))
    sp = os.path.join(out, "sweep.csv")
    cols = ["scale", "gamma", "zone_cells_restricted", "zone_cells",
            "min_h", "min_clearance", "path_length", "termination"]
    with open(sp, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(str(r[c]) for c in cols) + "\n")
    for r in rows:
        print("scale %g gamma %g: restricted zone %d, min h %.4g, "
              "clearance %.4g" % (r["scale"], r["gamma"],
                                  r["zone_cells_restricted"], r["min_h"],
                                  r["min_clearance"]))
    return [sp]


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="riskfields",
        description="risk-aware safety filters from occupancy maps")
    ap.add_argument("command",
                    choices=["solve", "zones", "simulate", "dynamic",
                             "sweep"])
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--dump-fields", action="store_true")
    ap.add_argument("--frames", type=int, default=0,
                    help="dynamic: number of frames to run (default: full T)")
    ap.add_argument("--scales", default="1,2,3",
                    help="sweep: comma-separated flux scales")
    ap.add_argument("--gammas", default="",
                    help="sweep: comma-separated gamma values")
    ap.add_argument("--workers", type=int, default=1)
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    try:
        scenario = Scenario(args.scenario)
        outputs = {"solve": cmd_solve, "zones": cmd_zones,
                   "simulate": cmd_simulate, "dynamic": cmd_dynamic,
                   "sweep": cmd_sweep}[args.command](args, scenario)
    except RiskFieldsError as e:
        marker = os.path.join(args.out, "FAILED.txt")
        with open(marker, "w") as fh:
            fh.write(f"{type(e).__name__}: {e}\n")
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 2
    mp = os.path.join(args.out, "manifest.json")
    _write_json(mp, _manifest(argv, args.scenario, outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
