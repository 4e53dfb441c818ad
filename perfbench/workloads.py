"""The benchmark workloads and the checks run on their outputs.

Each workload has the same shape: its constructor does the set-up (input
generation, and for rollout the prebuilt fields), `setup_inputs` lists the
documents it starts from, `inputs` yields one input per op, `run` is the
timed op and `check` inspects the op's outputs outside the timed region.
`reference` names the reference kernels (reference.py) that do the kind of
work its ops spend their time on.
Every call into riskfields goes through a module attribute
(`sim.integrate_single`, `safety.activation_zone`, ...), so the tracer can
wrap it where the caller looks it up.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

import inputs
from riskfields import backstep, elliptic, safety, sim
from riskfields.scenario import Scenario

DIVERGENCE_TOL = 0.05
TRACE_TOL = 1e-9
AUDIT_TOL = -1e-6


# -- output checks -----------------------------------------------------------

def check_build(build):
    """Problems with one build result; an empty list means it passed."""
    problems = []
    g, bd = build.grid, build.boundary
    h = build.sf.h
    if not (h.values[g.free] > 0.0).all():
        problems.append("h > 0 on the free mask")
    hopf = elliptic.hopf_margins(h, bd)
    if not (hopf < 0.0).all():
        problems.append(f"hopf margins < 0 (max {hopf.max():.3e})")
    div = elliptic.check_divergence_identity(h, elliptic.ForcingSpec(), bd)
    if not div <= DIVERGENCE_TOL:
        problems.append(f"divergence identity {div:.3e} > {DIVERGENCE_TOL}")
    ci, cj = bd.cells[:, 0], bd.cells[:, 1]
    want = -bd.flux[:, None] * bd.normals
    got = np.stack([build.gf.v.x.values[ci, cj],
                    build.gf.v.y.values[ci, cj]], axis=1)
    err = float(np.abs(got - want).max()) if bd.n else 0.0
    if not err <= TRACE_TOL:
        problems.append(f"v reproduces -beta n_hat at the nodes "
                        f"(max error {err:.3e})")
    return problems


def check_trajectory(traj):
    problems = []
    low = float(traj.audit.min())
    if not low >= AUDIT_TOL:
        problems.append(f"audit >= {AUDIT_TOL} (min {low:.3e})")
    if traj.termination == sim.DEGENERATE:
        problems.append("termination is degenerate")
    return problems


def disk_oracle_err(doc, build):
    """max |h - (R^2 - r^2)| over the free cells of a bare disk document."""
    g = build.grid
    c = np.asarray(doc["domain"]["center"], dtype=float)
    r2 = ((g.free_centers() - c) ** 2).sum(axis=1)
    exact = doc["domain"]["radius"] ** 2 - r2
    return float(np.abs(build.sf.h.values[g.free] - exact).max())


def measure_disk_oracle(seed, size):
    """Median disk_oracle_err over the run's bare disk documents, solved and
    checked outside the timed region; returns (error, problems)."""
    errs, problems = [], []
    for doc in inputs.disk_docs(seed, size):
        b = Scenario(doc).build()
        errs.append(disk_oracle_err(doc, b))
        problems += check_build(b)
    return statistics.median(errs), problems


@dataclass
class Checked:
    """Problems found in one op's outputs, and the outputs the runner counts
    (builds for the repeated-geometry share, trajectories for steps)."""
    problems: list
    builds: list
    trajectories: list


def check_outputs(builds, trajectories):
    problems = [p for b in builds for p in check_build(b)]
    problems += [p for t in trajectories for p in check_trajectory(t)]
    return Checked(problems, list(builds), list(trajectories))


# -- workloads ---------------------------------------------------------------

class MapSolve:
    """`solve` / `zones` traffic: a fresh box map per op."""

    name = "map_solve"
    reference = ("sweeps",)     # elliptic solves are ~0.9 of an op

    def __init__(self, root, seed, size):
        self.setup_inputs = []
        self.inputs = inputs.map_solve_docs(seed, size)
        # Ops come in rounds of one map per size; runs end on a round
        # boundary so every run times the same mix of sizes.
        self.round_len = len(inputs.SIZES[size]["map_sizes"])

    def run(self, doc):
        sc = Scenario(doc)
        b = sc.build()
        zone = safety.activation_zone(b.grid, sc.controller(b), b.sf, b.gf,
                                      b.filter_cfg)
        return b, zone

    def check(self, doc, out):
        return check_outputs([out[0]], [])


class FluxSweep:
    """`riskfields sweep --workers 1`: one geometry, a new flux scale for
    obstacle 0 per op, each followed by zones and a rollout."""

    name = "flux_sweep"
    reference = ("sweeps", "points")    # about half build, half rollout

    def __init__(self, root, seed, size):
        self.doc, self.inputs = inputs.flux_sweep_inputs(seed, size)
        self.setup_inputs = [self.doc]

    def run(self, scale):
        sc = Scenario(self.doc)
        b = sc.build(flux_scale={sc.sweep_obstacle: scale})
        ctrl = sc.controller(b)
        zone = safety.activation_zone(b.grid, ctrl, b.sf, b.gf, b.filter_cfg)
        c = sc.sim_cfg
        traj = sim.integrate_single(c["y0"], ctrl, b.sf, b.gf, b.filter_cfg,
                                    c["dt"], c["T"], goal=c.get("goal"))
        return b, zone, traj

    def check(self, scale, out):
        b, _, traj = out
        return check_outputs([b], [traj])


class Rollout:
    """Filtered rollouts on fields built once in set-up: the double
    integrator on single_obstacle, the single integrator on semantic_room."""

    name = "rollout"
    reference = ("points",)     # per-step sampling and filters only

    def __init__(self, root, seed, size):
        ddoc = inputs.load_doc(root, "single_obstacle")
        sdoc = inputs.load_doc(root, "semantic_room")
        self.double = Scenario(ddoc)
        self.double_build = self.double.build()
        self.single = Scenario(sdoc)
        self.single_build = self.single.build()
        self.setup_inputs = [ddoc, sdoc]
        self.inputs = inputs.rollout_starts(seed, ddoc, sdoc, size)

    def run(self, x):
        b = self.double_build
        bcfg = b.backstep_cfg

        def accel_nom(y, ydot):
            return bcfg.mu * (bcfg.k_nom_v(y) - ydot)

        dx = x["double"]
        t_double = sim.integrate_double(
            backstep.ExtendedState(dx["y0"], dx["ydot0"]), accel_nom, b.sf,
            b.gf, bcfg, dx["dt"], dx["T"],
            goal=self.double.sim_cfg.get("goal"))
        b = self.single_build
        sx = x["single"]
        t_single = sim.integrate_single(
            sx["y0"], self.single.controller(b), b.sf, b.gf, b.filter_cfg,
            sx["dt"], sx["T"], goal=self.single.sim_cfg.get("goal"))
        return t_double, t_single

    def check(self, x, out):
        return check_outputs([], out)


class DynamicReplay:
    """`riskfields dynamic` on a perturbed moving_block: every frame is a
    fresh build of a moving mask, then dh/dt and the dynamic filter."""

    name = "dynamic_replay"
    reference = ("sweeps",)     # per-frame builds are ~0.8 of an op

    def __init__(self, root, seed, size):
        base = inputs.load_doc(root, "moving_block")
        self.setup_inputs = [base]
        self.inputs = inputs.dynamic_docs(seed, base, size)

    def run(self, doc):
        sc = Scenario(doc)
        c = sc.sim_cfg
        return sim.run_dynamic(sc, c["dt_frame"], c["dt"], c["T"])

    def check(self, doc, res):
        return check_outputs([f.build for f in res.frames], [res.trajectory])


WORKLOADS = {w.name: w for w in (MapSolve, FluxSweep, Rollout, DynamicReplay)}
