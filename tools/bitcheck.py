"""Bit-identity and field-diff harness.

    python tools/bitcheck.py --dump OUT.npz [--size full|tiny] [--omega W]
    python tools/bitcheck.py --compare A.npz B.npz

--dump runs a standard set of builds and closed-loop runs with the
riskfields of the checkout this script sits in, and writes every array it
produces to OUT.npz:

- per input seed (--seeds, default 12 and 31), 27 builds: the five static
  scenarios, moving_block at t = 0, 1 and 3 (with safety_field at each),
  six map_solve documents, five disk documents, two flux_sweep builds and
  three_obstacles at the flux scales of FLUX_SCALES, in that order.  Per
  build: h, grad h, v, the SolveStats, the report without timings_ms and
  guidance, the guidance report on its own (a build that has one), every
  BoundarySet array and chain, the ghost-band node map (the
  elliptic._band_nodes index arrays, as rows ii, jj and node) and the
  activation zone;
- the trajectories of the two flux_sweep builds, of the FLUX_SCALES
  builds, of two rollout-workload starts (double and single integrator)
  with their inputs, and of the single-integrator `simulate` run of every
  static scenario;
- per dynamic seed (--dynamic-seeds, default 12 and 41), six
  dynamic_replay documents, and moving_block at T = 0.2, 0.4, 2 and 8 and
  with the block at rest: every frame's build as above, dh/dt and zone,
  and the trajectory.

Documents come from perfbench/inputs.py and runs from the workloads in
perfbench/workloads.py, so the set follows the benchmark's inputs.  With
--omega W every document's solver.omega is set to the number W before it
is parsed, which checks the builds that do not resolve omega "auto".

--compare prints a one-line verdict, then one line per array that differs:
the largest absolute difference, the largest difference in units in the
last place and the share of entries that moved.  Floats are compared as
their int64 bit patterns, so -0.0 differs from 0.0 and NaNs compare by
payload.  The exit status is 0 when both files hold the same arrays with
the same bits, 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STATIC = ("single_obstacle", "three_obstacles", "uncertain_wall",
          "disk_oracle", "semantic_room")
MOVING_T = (0.2, 0.4, 2.0, 8.0)
# three_obstacles flux scales, built in this order: a repeat of an
# obstacle's scale, a scalar and two obstacles at once
FLUX_SCALES = (1.0, {0: 2.0}, {0: 3.0}, {0: 2.0}, 2.5, {0: 0.5, 2: 2.0})


# -- dump ---------------------------------------------------------------------

class Dump:
    """Named arrays; names are unique and keep their insertion order.
    band_nodes is elliptic._band_nodes of the riskfields being dumped."""

    def __init__(self, band_nodes):
        self.arrays = {}
        self.band_nodes = band_nodes

    def add(self, name, value):
        if name in self.arrays:
            raise KeyError(f"{name} recorded twice")
        self.arrays[name] = np.asarray(value)

    def text(self, name, obj):
        self.add(name, json.dumps(obj, sort_keys=True))

    def build(self, name, b):
        h, g, v = b.sf.h, b.sf.grad, b.gf.v
        for key, f in (("h", h), ("grad_x", g.x), ("grad_y", g.y),
                       ("v_x", v.x), ("v_y", v.y)):
            self.add(f"{name}/{key}", f.values)
        for key, f in (("h", h), ("v_x", v.x), ("v_y", v.y)):
            self.text(f"{name}/stats_{key}", asdict(f.stats))
        self.text(f"{name}/report", {k: x for k, x in b.report.items()
                                     if k not in ("timings_ms", "guidance")})
        if "guidance" in b.report:
            self.text(f"{name}/guidance", b.report["guidance"])
        bd = b.boundary
        for key in ("cells", "normals", "arcw", "comp", "flux"):
            self.add(f"{name}/boundary_{key}", getattr(bd, key))
        self.text(f"{name}/boundary_chains",
                  {str(c): None if a is None else a.tolist()
                   for c, a in bd.chains.items()})
        (ii, jj), node = self.band_nodes(b.grid, bd)
        self.add(f"{name}/band_nodes", np.stack([ii, jj, node]))

    def zone(self, name, z):
        self.add(f"{name}/zone_a", z.a.values)
        self.add(f"{name}/zone_active", z.active)
        self.add(f"{name}/zone_active_restricted", z.active_restricted)
        self.add(f"{name}/zone_segments",
                 np.array(z.segments, dtype=float).reshape(-1, 4))

    def trajectory(self, name, tr):
        for key in ("t", "y", "u_nom", "u_filt", "h", "a", "audit", "ydot",
                    "h_B"):
            if getattr(tr, key) is not None:
                self.add(f"{name}/{key}", getattr(tr, key))
        self.add(f"{name}/termination", tr.termination)

    def dynamic(self, name, res):
        for k, fr in enumerate(res.frames):
            self.build(f"{name}/f{k}", fr.build)
            self.add(f"{name}/f{k}/dh_dt", fr.dh_dt.values)
            self.add(f"{name}/f{k}/changed", fr.dh_dt.changed)
            self.zone(f"{name}/f{k}", fr.zone)
            self.add(f"{name}/f{k}/t_speed", [fr.t, fr.speed])
        self.trajectory(f"{name}/trajectory", res.trajectory)


def _modules():
    """The riskfields and benchmark modules of this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs
    import workloads
    from riskfields import cli, elliptic, safety, scenario, sim
    return inputs, workloads, cli, elliptic, safety, scenario, sim


def dump(path, seeds, dynamic_seeds, size="full", omega=None):
    inputs, workloads, cli, elliptic, safety, scenario, sim = _modules()
    parse = scenario.Scenario._parse
    if omega is not None:
        def numeric(sc):
            sc.doc = {**sc.doc, "solver": {**sc.doc.get("solver", {}),
                                           "omega": omega}}
            parse(sc)

        scenario.Scenario._parse = numeric
    try:
        return _dump(path, seeds, dynamic_seeds, size, inputs, workloads,
                     cli, elliptic, safety, scenario, sim)
    finally:
        scenario.Scenario._parse = parse


def _dump(path, seeds, dynamic_seeds, size, inputs, workloads, cli, elliptic,
          safety, scenario, sim):
    out = Dump(elliptic._band_nodes)

    def zone_of(sc, b):
        return safety.activation_zone(b.grid, sc.controller(b), b.sf, b.gf,
                                      b.filter_cfg)

    for name in STATIC:
        sc = scenario.Scenario(inputs.load_doc(ROOT, name))
        out.trajectory(f"simulate/{name}", cli._simulate(sc, sc.build()))

    for seed in seeds:
        pre = f"s{seed}"
        for name in STATIC:
            sc = scenario.Scenario(inputs.load_doc(ROOT, name))
            b = sc.build()
            out.build(f"{pre}/{name}", b)
            out.zone(f"{pre}/{name}", zone_of(sc, b))
        sc = scenario.Scenario(inputs.load_doc(ROOT, "moving_block"))
        for t in (0.0, 1.0, 3.0):
            b = sc.build(t=t)
            out.build(f"{pre}/moving_block_t{t:g}", b)
            out.zone(f"{pre}/moving_block_t{t:g}", zone_of(sc, b))
            out.add(f"{pre}/moving_block_t{t:g}/safety_field",
                    sc.safety_field(t).values)
        ms = workloads.MapSolve(ROOT, seed, size)
        for k, doc in enumerate(itertools.islice(ms.inputs, 6)):
            b, z = ms.run(doc)
            out.build(f"{pre}/map{k}", b)
            out.zone(f"{pre}/map{k}", z)
        for k, doc in enumerate(inputs.disk_docs(seed, size)):
            out.build(f"{pre}/disk{k}", scenario.Scenario(doc).build())
        fs = workloads.FluxSweep(ROOT, seed, size)
        for k, scale in enumerate(itertools.islice(fs.inputs, 2)):
            b, z, tr = fs.run(scale)
            out.build(f"{pre}/sweep{k}", b)
            out.zone(f"{pre}/sweep{k}", z)
            out.trajectory(f"{pre}/sweep{k}/trajectory", tr)
        sc = scenario.Scenario(inputs.load_doc(ROOT, "three_obstacles"))
        for k, fs in enumerate(FLUX_SCALES):
            b = sc.build(flux_scale=fs)
            out.build(f"{pre}/scale{k}", b)
            out.zone(f"{pre}/scale{k}", zone_of(sc, b))
            out.trajectory(f"{pre}/scale{k}/trajectory", cli._simulate(sc, b))
        ro = workloads.Rollout(ROOT, seed, size)
        for k, x in enumerate(itertools.islice(ro.inputs, 2)):
            out.text(f"{pre}/rollout{k}/inputs", x)
            t_double, t_single = ro.run(x)
            out.trajectory(f"{pre}/rollout{k}/double", t_double)
            out.trajectory(f"{pre}/rollout{k}/single", t_single)

    for seed in dynamic_seeds:
        dr = workloads.DynamicReplay(ROOT, seed, size)
        for k, doc in enumerate(itertools.islice(dr.inputs, 6)):
            out.dynamic(f"d{seed}/replay{k}", dr.run(doc))

    base = inputs.load_doc(ROOT, "moving_block")
    still = json.loads(json.dumps(base))
    still["motion"][0]["profile"] = {"kind": "constant", "speed": 0.0}
    runs = [(f"moving_block_T{T:g}", base, T) for T in MOVING_T]
    runs.append(("moving_block_still", still, 2.0))
    for name, doc, T in runs:
        sc = scenario.Scenario(doc)
        c = sc.sim_cfg
        out.dynamic(name, sim.run_dynamic(sc, c["dt_frame"], c["dt"], T))

    np.savez_compressed(path, **out.arrays)
    return len(out.arrays)


# -- compare ------------------------------------------------------------------

def _ordered(bits):
    """int64 float bit patterns mapped to uint64, monotone in the float."""
    bits = bits.astype(np.int64)
    neg = bits < 0
    u = bits.view(np.uint64)
    return np.where(neg, ~u, u | np.uint64(1 << 63))


def array_diff(a, b):
    """None when a and b hold the same bits, else a one-line description:
    the largest absolute difference, the largest in ulps (floats) and the
    share of entries that moved."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{list(a.shape)} vs {b.dtype}{list(b.shape)}"
    if a.dtype == np.float64:
        ia, ib = a.view(np.int64), b.view(np.int64)
        moved = ia != ib
        if not moved.any():
            return None
        oa, ob = _ordered(ia[moved]), _ordered(ib[moved])
        ulps = int(np.where(oa > ob, oa - ob, ob - oa).max())
        fin = np.isfinite(a[moved]) & np.isfinite(b[moved])
        gap = np.abs(a[moved][fin] - b[moved][fin])
        top = f"{gap.max():.3e}" if gap.size else "n/a"
        extra = "" if fin.all() else f", {int((~fin).sum())} not finite"
        return (f"max |a-b| {top}, max {ulps} ulps, {moved.mean():.2%} of "
                f"{moved.size} entries moved{extra}")
    moved = a != b
    if not np.any(moved):
        return None
    if a.dtype.kind in "iub" and a.ndim:
        top = int(np.abs(a.astype(np.int64) - b.astype(np.int64)).max())
        return (f"max |a-b| {top}, {np.mean(moved):.2%} of {moved.size} "
                f"entries moved")
    return "differs"


def compare(path_a, path_b):
    """(identical, lines): the verdict line first, then one per array that
    differs or is in one file only."""
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    only_a = [k for k in a if k not in b]
    only_b = [k for k in b if k not in a]
    diffs = [(k, array_diff(a[k], b[k])) for k in a if k in b]
    diffs = [(k, d) for k, d in diffs if d is not None]
    same = not (diffs or only_a or only_b)
    if same:
        head = f"IDENTICAL: {len(a)} arrays, every bit equal"
    else:
        head = (f"DIFFERENT: {len(diffs)} of {len(set(a) & set(b))} shared "
                f"arrays differ, {len(only_a)} only in A, {len(only_b)} only "
                f"in B")
    lines = [head] + [f"  {k}: {d}" for k, d in diffs]
    lines += [f"  {k}: only in A" for k in only_a]
    lines += [f"  {k}: only in B" for k in only_b]
    return same, lines


def _seeds(text):
    return [int(s) for s in text.split(",") if s]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dump", metavar="OUT.npz")
    mode.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"))
    p.add_argument("--seeds", type=_seeds, default=[12, 31])
    p.add_argument("--dynamic-seeds", type=_seeds, default=[12, 41])
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--omega", type=float, help="a numeric solver.omega for "
                   "every document")
    args = p.parse_args(argv)
    if args.dump:
        n = dump(args.dump, args.seeds, args.dynamic_seeds, args.size,
                 args.omega)
        print(f"wrote {n} arrays to {args.dump}")
        return 0
    same, lines = compare(*args.compare)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
