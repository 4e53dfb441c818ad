"""Command-line entry point: solve | zones | simulate | dynamic | sweep.

Every run writes a manifest (scenario hash, package and library versions)
so results can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy
import yaml

from . import __version__, backstep, elliptic, sim
from .errors import RiskFieldsError
from .grid import dump_csv
from .safety import activation_zone
from .scenario import Scenario


def _manifest(scenario_path, outputs):
    with open(scenario_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "command": " ".join(sys.argv[1:]),
        "scenario": os.path.abspath(scenario_path),
        "scenario_sha256": digest,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
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
    summary = {"termination": traj.termination, "samples": traj.n,
               "min_h": traj.min_h(), "path_length": traj.path_length(),
               "audit_min": float(traj.audit.min())}
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
    summary = {"termination": traj.termination, "samples": traj.n,
               "min_h": traj.min_h(), "frames": len(res.frames),
               "audit_min": float(traj.audit.min())}
    jp = os.path.join(out, "dynamic_summary.json")
    _write_json(jp, summary)
    outputs.append(jp)
    print(f"dynamic {scenario.name}: {len(res.frames)} frames, "
          f"{traj.termination}, min h {traj.min_h():.4g}")
    return outputs


def _min_clearance(traj, build, scenario, obstacle_idx):
    mask = scenario._masks[obstacle_idx]
    g = build.grid
    ii, jj = np.nonzero(mask & ~g.free)
    if len(ii) == 0:
        return float("nan")
    centers = g.origin + g.d * np.column_stack([ii, jj]).astype(float)
    dmin = np.inf
    for p in traj.y:
        dmin = min(dmin, float(np.min(np.hypot(*(centers - p).T))))
    return dmin


def _sweep_one(job):
    path, scale, gamma = job
    scenario = Scenario(path)
    scenario.filter_cfg.gamma = gamma
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


def cmd_sweep(args, scenario):
    out = args.out
    scales = [float(s) for s in args.scales.split(",")]
    gammas = [float(s) for s in args.gammas.split(",")] if args.gammas \
        else [scenario.filter_cfg.gamma]
    for gm in gammas:
        # _sweep_one sets gamma after the filter config is validated
        if not 0 < gm < math.inf:
            raise RiskFieldsError(f"--gammas: {gm} is not positive and finite")
    jobs = [(args.scenario, s, gm) for gm in gammas for s in scales]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as ex:
            rows = list(ex.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]
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
    _write_json(mp, _manifest(args.scenario, outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
