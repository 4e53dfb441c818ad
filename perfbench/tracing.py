"""Per-layer tracing from the benchmark's own code.

`Tracer.install()` replaces riskfields' public functions with timing
wrappers at the module attribute their callers look up (for example
`riskfields.sim.filter_control`, which `integrate_single` calls, and
`riskfields.scenario.extract_boundary`, which `Scenario.build` calls).
Nothing under `src/` changes.  Outside an op the wrappers only forward.

Coarse calls (a build stage, a solve, a rollout) are recorded as spans:
name, start, end, parent span and op id.  Hot per-step calls (sampling, the
filters) are only aggregated per op: call count, total and self time, where
self time is a call's duration minus that of its traced children.  Spans
stay in memory and are written out by `dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

import numpy as np

import riskfields.backstep
import riskfields.elliptic
import riskfields.grid
import riskfields.riskmap
import riskfields.safety
import riskfields.scenario
import riskfields.sim


def _count(key, value):
    def hook(counts, args, result):
        counts[key] = counts.get(key, 0) + value(result)
    return hook


def _active(k_index):
    """Counts filter calls that changed the nominal input."""
    def hook(counts, args, result):
        if not np.array_equal(result, args[k_index]):
            counts["filter_active"] = counts.get("filter_active", 0) + 1
    return hook


def _stats_hook(prefix):
    def hook(counts, args, result):
        counts[prefix + "_iters"] = (counts.get(prefix + "_iters", 0)
                                     + result.stats.iterations)
        counts[prefix + "_unknowns"] = (counts.get(prefix + "_unknowns", 0)
                                        + result.stats.unknowns)
    return hook


_S = riskfields.scenario.Scenario
# (owner, attribute, span name, leaf, result hook).  A function looked up in
# two modules is wrapped in both, under one name.
TARGETS = [
    (_S, "build", "scenario.build", False, None),
    (_S, "rasterize", "scenario.rasterize", False, None),
    (_S, "node_features", "scenario.features", False, None),
    (_S, "obstacle_components", "scenario.obstacle_components", False, None),
    (riskfields.scenario, "extract_boundary", "grid.extract_boundary", False,
     _count("boundary_nodes", lambda b: b.n)),
    (riskfields.riskmap, "assign_flux", "riskmap.assign_flux", False, None),
    (riskfields.riskmap, "smooth_flux", "riskmap.smooth_flux", False, None),
    (riskfields.elliptic, "solve_poisson", "elliptic.solve_poisson", False,
     _stats_hook("poisson")),
    (riskfields.elliptic, "solve_guidance", "elliptic.solve_guidance", False,
     None),
    (riskfields.elliptic, "solve_laplace_component",
     "elliptic.solve_laplace_component", False, _stats_hook("laplace")),
    (riskfields.elliptic, "nearest_node_map", "grid.nearest_node_map", False,
     None),
    (riskfields.grid, "gradient_field", "grid.gradient_field", False, None),
    (riskfields.safety, "activation_zone", "safety.activation_zone", False,
     None),
    (riskfields.sim, "activation_zone", "safety.activation_zone", False, None),
    (riskfields.sim, "integrate_single", "sim.integrate_single", False, None),
    (riskfields.sim, "integrate_double", "sim.integrate_double", False, None),
    (riskfields.sim, "run_dynamic", "sim.run_dynamic", False, None),
    (riskfields.sim, "time_derivative", "sim.time_derivative", False, None),
    (riskfields.safety, "sample_scalar", "grid.sample_scalar", True, None),
    (riskfields.safety, "sample_vector", "grid.sample_vector", True, None),
    (riskfields.safety, "sample_gradient", "grid.sample_gradient", True, None),
    (riskfields.sim, "filter_control", "safety.filter_control", True,
     _active(1)),
    (riskfields.sim, "filter_control_dynamic", "safety.filter_control_dynamic",
     True, _active(2)),
    (riskfields.sim, "activation", "safety.activation", True, None),
    (riskfields.sim, "activation_dynamic", "safety.activation_dynamic", True,
     None),
    (riskfields.backstep, "filter_accel", "backstep.filter_accel", True, None),
    (riskfields.backstep, "k_v_jacobian", "backstep.k_v_jacobian", True, None),
    (riskfields.backstep, "h_B", "backstep.h_B", True, None),
    (riskfields.backstep, "hdot_B", "backstep.hdot_B", True, None),
]

INTEGRATORS = ("sim.integrate_single", "sim.integrate_double",
               "sim.run_dynamic")
# Work a dynamic run does per frame rather than per step.
NOT_STEPPING = ("scenario.build", "sim.time_derivative",
                "safety.activation_zone")
SAMPLES = ("grid.sample_scalar", "grid.sample_vector", "grid.sample_gradient")
FILTERS = ("safety.filter_control", "safety.filter_control_dynamic")


class Tracer:
    """Wraps the TARGETS and records spans and per-op aggregates between
    begin() and end(); outside an op the wrappers only forward."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans = []      # (name, start, end, parent index, op id)
        self.ops = []        # one record per traced op
        self._stack = []     # [child time, span index or None] per open call
        self._op = None
        self._saved = []

    # -- wrapping ------------------------------------------------------------

    def install(self):
        for owner, attr, name, leaf, hook in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, leaf, hook))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def _wrap(self, fn, name, leaf, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if self._op is None:
                return fn(*args, **kw)
            frame = [0.0, None]
            if not leaf:
                frame[1] = self._open_span()
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                self._close(frame, name, t0, t1)
            if hook is not None:
                hook(self._op["counts"], args, result)
            return result
        return wrapper

    def _open_span(self):
        parent = next(f[1] for f in reversed(self._stack) if f[1] is not None)
        self.spans.append([None, 0.0, 0.0, parent, self._op["op"]])
        return len(self.spans) - 1

    def _close(self, frame, name, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        self._stack[-1][0] += dur
        agg = self._op["calls"].setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[0]
        if frame[1] is not None:
            self.spans[frame[1]][:3] = [name, t0 - self.t0, t1 - self.t0]

    # -- ops -----------------------------------------------------------------

    def begin(self, op_id):
        self._op = {"op": op_id, "calls": {}, "counts": {}}
        self.spans.append(["op", perf_counter() - self.t0, 0.0, None, op_id])
        self._stack = [[0.0, len(self.spans) - 1]]

    def end(self, seconds):
        root = self.spans[self._stack[0][1]]
        root[2] = root[1] + seconds
        self._op["seconds"] = seconds
        self.ops.append(self._op)
        self._op = None
        self._stack = []
        return self.ops[-1]

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump(dict(meta, spans=self.spans, ops=self.ops), fh)


# -- per-layer metrics -------------------------------------------------------

def _self_ms(op, names):
    return 1e3 * sum(op["calls"].get(n, (0, 0.0, 0.0))[2] for n in names)


def _totals(ops, names):
    calls = sum(op["calls"].get(n, (0,))[0] for op in ops for n in names)
    secs = sum(op["calls"].get(n, (0, 0.0))[1] for op in ops for n in names)
    return calls, secs


def _ratio(a, b):
    return a / b if b else 0.0


def _median_ms(ops, names):
    return statistics.median(_self_ms(op, names) for op in ops) if ops else 0.0


def _stepping_seconds(tracer):
    """Integrator time less the per-frame work a dynamic run nests in it."""
    total = 0.0
    for i, (name, t0, t1, parent, _) in enumerate(tracer.spans):
        if name in INTEGRATORS:
            total += t1 - t0
        elif name in NOT_STEPPING and parent is not None \
                and tracer.spans[parent][0] in INTEGRATORS:
            total -= t1 - t0
    return total


def layer_metrics(tracer, overhead):
    """Every per-layer metric over the traced ops, as {name: (value, unit)}.

    Each op record carries `steps`, `steps_double` (those of the double
    integrator) and `ghost` (trajectory samples that read h <= 0), added by
    the runner after its checks.
    """
    ops = tracer.ops
    n_ops = len(ops)
    steps = sum(op["steps"] for op in ops)
    steps_double = sum(op["steps_double"] for op in ops)
    counts = {}
    for op in ops:
        for k, v in op["counts"].items():
            counts[k] = counts.get(k, 0) + v
    poisson_n, _ = _totals(ops, ["elliptic.solve_poisson"])
    laplace_n, _ = _totals(ops, ["elliptic.solve_laplace_component"])
    boundary_n, _ = _totals(ops, ["grid.extract_boundary"])
    sample_n, sample_s = _totals(ops, SAMPLES)
    filter_n, filter_s = _totals(ops, FILTERS)
    accel_n, accel_s = _totals(ops, ["backstep.filter_accel"])
    jac_n, _ = _totals(ops, ["backstep.k_v_jacobian"])
    elliptic_names = ["elliptic.solve_poisson", "elliptic.solve_guidance",
                      "elliptic.solve_laplace_component"]
    elliptic_s = 1e-3 * sum(_self_ms(op, elliptic_names) for op in ops)
    op_s = sum(op["seconds"] for op in ops)
    m = {
        "elliptic.poisson_ms": (_median_ms(ops, ["elliptic.solve_poisson"]),
                                "ms"),
        "elliptic.laplace_ms": (_median_ms(ops, elliptic_names[1:]), "ms"),
        "elliptic.poisson_iters": (
            _ratio(counts.get("poisson_iters", 0), poisson_n), "count"),
        "elliptic.laplace_iters": (
            _ratio(counts.get("laplace_iters", 0), laplace_n), "count"),
        "elliptic.unknowns": (
            _ratio(counts.get("poisson_unknowns", 0), poisson_n), "count"),
        "elliptic.share": (_ratio(elliptic_s, op_s), "ratio"),
        "grid.gradient_ms": (_median_ms(ops, ["grid.gradient_field"]), "ms"),
        "grid.nearest_node_ms": (_median_ms(ops, ["grid.nearest_node_map"]),
                                 "ms"),
        "grid.extract_boundary_ms": (
            _median_ms(ops, ["grid.extract_boundary"]), "ms"),
        "grid.boundary_nodes": (
            _ratio(counts.get("boundary_nodes", 0), boundary_n), "count"),
        "scenario.rasterize_ms": (_median_ms(ops, ["scenario.rasterize"]),
                                  "ms"),
        "scenario.features_ms": (_median_ms(ops, ["scenario.features"]),
                                 "ms"),
        "riskmap.flux_ms": (_median_ms(ops, ["riskmap.assign_flux",
                                             "riskmap.smooth_flux"]), "ms"),
        "safety.zone_ms": (_median_ms(ops, ["safety.activation_zone"]), "ms"),
        "grid.sample_us": (1e6 * _ratio(sample_s, sample_n), "us"),
        "grid.samples_per_step": (_ratio(sample_n, steps), "1/step"),
        "safety.filter_us": (1e6 * _ratio(filter_s, filter_n), "us"),
        "safety.filter_calls_per_step": (_ratio(filter_n, steps), "1/step"),
        "safety.filter_active_ratio": (
            _ratio(counts.get("filter_active", 0), filter_n), "ratio"),
        "backstep.filter_accel_us": (1e6 * _ratio(accel_s, accel_n), "us"),
        "backstep.jacobian_calls_per_step": (_ratio(jac_n, steps_double),
                                             "1/step"),
        "sim.us_per_step": (1e6 * _ratio(_stepping_seconds(tracer), steps),
                            "us"),
        "sim.steps": (_ratio(steps, n_ops), "count"),
        "sim.time_derivative_ms": (_median_ms(ops, ["sim.time_derivative"]),
                                   "ms"),
        "sim.ghost_band_samples": (
            _ratio(sum(op["ghost"] for op in ops), n_ops), "count"),
        "trace.overhead": (overhead, "ratio"),
    }
    return m
