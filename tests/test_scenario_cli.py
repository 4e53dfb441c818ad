"""Scenario documents, the build chain, and the command-line surface."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskfields import cli, elliptic, safety, scenario
from riskfields.cli import main
from riskfields.errors import MalformedDocument, NonConvergence
from riskfields.grid import FieldSampler
from riskfields.scenario import Scenario, load_scenario

from conftest import SCENARIOS, flux_sweep_doc


def load_doc(name):
    with open(SCENARIOS / f"{name}.yaml") as fh:
        return yaml.safe_load(fh)


def minimal_doc(**over):
    doc = {
        "name": "tiny",
        "grid": {"nx": 24, "ny": 24, "d": 0.1},
        "obstacles": [{"kind": "disk", "center": [1.2, 1.2], "radius": 0.25,
                       "label": "wall", "prob": 1.0}],
        "nominal": {"kind": "goal", "mu": 1.0, "goal": [2.0, 2.0]},
    }
    doc.update(over)
    return doc


# -- document validation -----------------------------------------------------------

def test_document_must_be_mapping():
    with pytest.raises(MalformedDocument):
        Scenario(["not", "a", "mapping"])


def test_missing_required_sections():
    with pytest.raises(MalformedDocument):
        Scenario({"name": "x", "nominal": {"kind": "goal", "goal": [0, 0]}})
    with pytest.raises(MalformedDocument):
        Scenario({"name": "x", "grid": {"nx": 8, "ny": 8, "d": 0.1}})


def test_unknown_enums_rejected():
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(domain={"kind": "hexagon"}))
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(risk={"feature": "smell"}))
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(risk={"assign": {"kind": "cubic"}}))
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(solver={"method": "multigrid"}))
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(nominal={"kind": "random"}))


def test_obstacle_validation():
    doc = minimal_doc()
    doc["obstacles"][0]["kind"] = "blob"
    with pytest.raises(MalformedDocument):
        Scenario(doc)
    doc = minimal_doc()
    doc["obstacles"][0]["label"] = "dragon"  # not in the priority table
    with pytest.raises(MalformedDocument):
        Scenario(doc)


def test_goal_nominal_requires_goal():
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(nominal={"kind": "goal", "mu": 1.0}))


def test_sim_section_requires_core_keys():
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(sim={"y0": [1.0, 1.0], "dt": 0.01}))  # no T


def _replaced(name, path, value, doc=None):
    """Shipped document name, or doc, with the value at path, a list of
    keys and list indices, replaced (mappings on the way made as needed)."""
    doc = load_doc(name) if doc is None else doc
    node = doc
    for key in path[:-1]:
        if isinstance(key, str):
            node = node.setdefault(key, {})
        else:
            node = node[key]
    node[path[-1]] = value
    return doc


_PIECEWISE = {"kind": "piecewise", "times": [0.0, 1.0], "speeds": [0.0, 0.5]}


@pytest.mark.parametrize("path, value, match", [
    (["filter"], None, "filter"),
    (["solver"], None, "solver"),
    (["domain"], None, "domain"),
    (["grid"], None, "grid"),
    (["nominal"], None, "nominal"),
    (["sim"], None, "sim"),
    (["motion", 0, "profile"], None, r"motion\[0\]\.profile"),
    (["risk", "priorities"], [1], "risk.priorities"),
    (["risk", "priorities"], None, "risk.priorities"),
    (["obstacles"], [1], r"obstacles\[0\]"),
    (["obstacles"], "abc", "obstacles: expected a list"),
    (["motion"], [1], r"motion\[0\]"),
    (["motion"], "ab", "motion: expected a list"),
    (["motion", 0, "profile"], dict(_PIECEWISE, times="ab"),
     r"motion\[0\]\.profile\.times"),
    (["motion", 0, "profile"], dict(_PIECEWISE, times=[0.0, "a"]),
     r"motion\[0\]\.profile\.times"),
    (["motion", 0, "profile"], dict(_PIECEWISE, times=[1, 0]),
     r"motion\[0\]\.profile: times must start at 0"),
    (["motion", 0, "profile"], dict(_PIECEWISE, times=[], speeds=[]),
     r"motion\[0\]\.profile: times must start at 0"),
    (["motion", 0, "profile"], dict(_PIECEWISE, speeds=[0.0]),
     r"motion\[0\]\.profile: times and speeds"),
    (["motion", 0, "profile"], {"kind": "constant", "speed": -1.0},
     r"motion\[0\]\.profile: speeds must be nonnegative"),
    (["obstacles", 0, "radius"], True, r"obstacles\[0\]\.radius: expected"),
    (["risk", "flux", "beta_min"], 7.0, "beta_min 7.0 exceeds beta_max 6.0"),
    (["risk", "flux", "beta_max"], math.inf, "risk.flux.beta_max"),
    (["risk", "assign", "v_ref"], -1.0, "risk.assign.v_ref"),
    (["risk", "assign", "alpha"], math.nan, "risk.assign.alpha"),
    (["grid", "d"], 1e-300, "grid.d: 1e-300 squared is not normal"),
    (["grid", "d"], 1e200, "grid.d: 1e.200 squared is not normal"),
])
def test_null_or_mistyped_sections_are_malformed(path, value, match):
    doc = _replaced("moving_block", path, value)
    with pytest.raises(MalformedDocument, match=match):
        Scenario(doc).build()


@pytest.mark.parametrize("label", [["chair"], {"chair": 1}, ["a", ["b"]],
                                   {"a": {"b": 1}}])
def test_unhashable_obstacle_label_is_malformed(label):
    doc = _replaced("three_obstacles", ["obstacles", 0, "label"], label)
    with pytest.raises(MalformedDocument,
                       match=r"obstacles\[0\]\.label: .* not in the priority"):
        Scenario(doc)


def _shrunk(name):
    """Shipped document name on a lattice of 24 cells across, same extent."""
    doc = load_doc(name)
    g = doc["grid"]
    g["d"] *= g["nx"] / 24
    g["ny"] = round(g["ny"] * 24 / g["nx"])
    g["nx"] = 24
    return doc


def _key_paths(node, pre=()):
    """Every key and list index path of a document, outermost first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield pre + (k,)
        yield from _key_paths(v, pre + (k,))


_FUZZ_PATHS = [(name, path) for name in ("three_obstacles", "moving_block")
               for path in _key_paths(_shrunk(name))]
_TINY = st.floats(min_value=-1e-300, max_value=1e-300)
_FUZZ_VALUES = st.one_of(
    st.none(), st.text(max_size=4), st.booleans(), _TINY,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(_TINY | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), _TINY | st.none(), max_size=2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_PATHS), _FUZZ_VALUES)
@example(("three_obstacles", ("obstacles", 0, "label")), ["chair"])
@example(("three_obstacles", ("obstacles", 0, "label")), {"chair": 1})
def test_mutated_documents_build_or_are_malformed(where, value):
    """One key of a shipped document, on a small lattice, replaced by a
    value of the wrong type or range: the document builds, or raises
    MalformedDocument.  A solver tolerance or omega near 0 is well formed
    but cannot be met, so there NonConvergence is the answer."""
    name, path = where
    doc = _replaced(name, path, value, _shrunk(name))
    allowed = (MalformedDocument,) if path[0] != "solver" \
        else (MalformedDocument, NonConvergence)
    try:
        Scenario(doc).build()
    except allowed:
        pass


def test_cli_rejects_an_unhashable_label_with_failed_marker(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(_replaced(
        "three_obstacles", ["obstacles", 0, "label"], ["a"])))
    out = tmp_path / "bad_out"
    assert run_cli("solve", "--scenario", str(bad), "--out", str(out)) == 2
    text = (out / "FAILED.txt").read_text()
    assert text.startswith("MalformedDocument") \
        and "obstacles[0].label" in text
    assert not (out / "manifest.json").exists()


def test_cli_dynamic_rejects_a_bad_profile_with_failed_marker(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(_replaced(
        "moving_block", ["motion", 0, "profile"],
        dict(_PIECEWISE, times=[1, 0]))))
    out = tmp_path / "bad_out"
    assert run_cli("dynamic", "--scenario", str(bad), "--out", str(out)) == 2
    text = (out / "FAILED.txt").read_text()
    assert text.startswith("MalformedDocument") \
        and "motion[0].profile" in text
    assert not (out / "manifest.json").exists()


_NONFINITE_PROFILES = {
    "piecewise.times": lambda x: dict(_PIECEWISE, times=[0.0, x, 1.0],
                                      speeds=[0.0, 0.5, 0.5]),
    "piecewise.speeds": lambda x: dict(_PIECEWISE, speeds=[0.0, x]),
    "trapezoid.v_max": lambda x: {"kind": "trapezoid", "v_max": x,
                                  "t_rise": 1.0, "t_fall": 1.0},
    "trapezoid.t_hold": lambda x: {"kind": "trapezoid", "v_max": 0.5,
                                   "t_rise": 1.0, "t_hold": x,
                                   "t_fall": 1.0},
    "constant.speed": lambda x: {"kind": "constant", "speed": x},
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("profile", sorted(_NONFINITE_PROFILES))
def test_nonfinite_profile_times_and_speeds_are_malformed(profile, value):
    # NaN passes the order and sign checks: such a block left the map
    doc = _replaced("moving_block", ["motion", 0, "profile"],
                    _NONFINITE_PROFILES[profile](value))
    with pytest.raises(MalformedDocument, match=r"motion\[0\]\.profile: "
                       "times and speeds must be finite"):
        Scenario(doc)


def test_cli_dynamic_rejects_a_nan_profile_with_failed_marker(tmp_path):
    bad = tmp_path / "nan.yaml"
    bad.write_text(yaml.safe_dump(_replaced(
        "moving_block", ["motion", 0, "profile"],
        {"kind": "constant", "speed": math.nan})))
    out = tmp_path / "nan_out"
    assert run_cli("dynamic", "--scenario", str(bad), "--out", str(out)) == 2
    assert (out / "FAILED.txt").read_text().startswith(
        "MalformedDocument: motion[0].profile: times and speeds must be "
        "finite")
    assert not (out / "manifest.json").exists()


def test_motion_validation():
    doc = minimal_doc(motion=[{"obstacle": 3, "heading": [1, 0],
                               "profile": {"kind": "constant", "speed": 0.1}}])
    with pytest.raises(MalformedDocument):
        Scenario(doc)
    doc = minimal_doc(motion=[{"obstacle": 0, "heading": [1, 0],
                               "profile": {"kind": "warp"}}])
    with pytest.raises(MalformedDocument):
        Scenario(doc)


def test_sweep_obstacle_range_checked():
    with pytest.raises(MalformedDocument):
        Scenario(minimal_doc(sweep_obstacle=5))


def _bad_obstacle_index(text):
    """A shipped document with one obstacle index replaced by a non-integer
    (sweep_obstacle: a, obstacle: 0.7)."""
    key, value = text.split(": ")
    if key == "sweep_obstacle":
        doc = load_doc("three_obstacles")
        doc["sweep_obstacle"] = value
    else:
        doc = load_doc("moving_block")
        doc["motion"][0]["obstacle"] = float(value)
    return doc


def test_cli_rejects_bad_backstep_with_failed_marker(tmp_path):
    doc = load_doc("single_obstacle")
    doc["backstep"]["mu"] = -1.0
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    out = tmp_path / "bad_out"
    rc = run_cli("simulate", "--scenario", str(bad), "--out", str(out))
    assert rc == 2
    text = (out / "FAILED.txt").read_text()
    assert text.startswith("MalformedDocument") and "backstep.mu" in text
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("text", ["sweep_obstacle: a", "obstacle: 0.7"])
def test_obstacle_index_must_be_an_integer(text):
    with pytest.raises(MalformedDocument, match="expected an integer"):
        Scenario(_bad_obstacle_index(text))


def test_risk_block_must_be_mapping():
    with pytest.raises(MalformedDocument, match="risk: expected a mapping"):
        Scenario(minimal_doc(risk=None))


def test_risk_assign_must_be_mapping():
    with pytest.raises(MalformedDocument, match="risk.assign: expected"):
        Scenario(minimal_doc(risk={"assign": "identity"}))


def test_risk_flux_must_be_mapping():
    with pytest.raises(MalformedDocument, match="risk.flux: expected"):
        Scenario(minimal_doc(risk={"flux": [1.0, 6.0]}))


@pytest.mark.parametrize("window", ["a", 2.7, 3.0, 4, -1, -3, True, None])
def test_smooth_window_rejected_at_parse(window):
    with pytest.raises(MalformedDocument, match="risk.smooth_window"):
        Scenario(minimal_doc(risk={"smooth_window": window}))


@pytest.mark.parametrize("window", [0, 1, 3, 7])
def test_smooth_window_accepted(window):
    assert Scenario(minimal_doc(
        risk={"smooth_window": window})).smooth_window == window


@pytest.mark.parametrize("nx", ["1e12", 1e12, 64.0, 2, -5, True, None])
def test_grid_size_must_be_an_integer_of_at_least_3(nx):
    with pytest.raises(MalformedDocument, match="grid.nx"):
        Scenario(minimal_doc(grid={"nx": nx, "ny": 24, "d": 0.1}))


def test_grid_cell_count_capped():
    # 2^22 cells parse; one more row does not (and nothing is allocated)
    Scenario(minimal_doc(grid={"nx": 2048, "ny": 2048, "d": 0.1}))
    with pytest.raises(MalformedDocument, match="exceeds 4194304"):
        Scenario(minimal_doc(grid={"nx": 2048, "ny": 2049, "d": 0.1}))


def _with_prob(prob):
    doc = minimal_doc()
    doc["obstacles"][0]["prob"] = prob
    return doc


@pytest.mark.parametrize("prob", [3.0, -1, 1.0000001, float("nan"),
                                  float("inf"), "high",
                                  {"from": 1.5, "to": 0.2},
                                  {"from": 0.2, "to": -0.1},
                                  {"from": 0.2, "to": float("nan")},
                                  {"from": 0.2}])
def test_prob_outside_unit_interval_rejected_at_parse(prob):
    with pytest.raises(MalformedDocument, match=r"obstacles\[0\]\.prob"):
        Scenario(_with_prob(prob))


def test_prob_ramp_axis_must_be_x_or_y():
    with pytest.raises(MalformedDocument, match="prob.axis"):
        Scenario(_with_prob({"axis": "z", "from": 0.2, "to": 0.8}))


def test_prob_ramp_builds_along_its_axis():
    sc = Scenario(_with_prob({"axis": "y", "from": 0.0, "to": 1.0}))
    g = sc.rasterize()
    m = sc.obstacle_masks()[0]
    ii, jj = np.nonzero(m)
    p = g.prob[ii, jj]
    assert p.min() == 0.0 and p.max() == 1.0
    assert np.all(np.diff(p[np.argsort(jj, kind="stable")]) >= 0.0)


def _off_lattice_ramp(doc):
    """doc with a ramp-prob disk appended far outside its lattice."""
    doc["obstacles"].append({"kind": "disk", "center": [90.0, 90.0],
                             "radius": 0.2,
                             "prob": {"axis": "x", "from": 0.2, "to": 0.8}})
    return doc


def test_ramp_prob_obstacle_off_the_lattice_paints_nothing():
    sc = Scenario(_off_lattice_ramp(minimal_doc()))
    b = sc.build()
    ref = Scenario(minimal_doc()).build()
    assert not sc.obstacle_masks()[1].any()
    for got, want in ((b.grid.state, ref.grid.state),
                      (b.grid.prob, ref.grid.prob),
                      (b.sf.h.values, ref.sf.h.values)):
        assert np.array_equal(got, want, equal_nan=True)


def test_cli_solves_with_an_off_lattice_ramp_obstacle(tmp_path):
    path = tmp_path / "off.yaml"
    path.write_text(yaml.safe_dump(_off_lattice_ramp(
        load_doc("single_obstacle"))))
    out = tmp_path / "out"
    assert run_cli("solve", "--scenario", str(path), "--out", str(out)) == 0
    assert (out / "manifest.json").exists()


def _disk(**kw):
    return dict({"kind": "disk", "center": [1.2, 1.2], "radius": 0.25}, **kw)


def _rect(**kw):
    return dict({"kind": "rect", "min": [0.5, 0.5], "max": [0.9, 0.8]}, **kw)


def _polyline(**kw):
    return dict({"kind": "polyline", "points": [[0.5, 0.5], [1.5, 0.5]]},
                **kw)


def _cells(cells):
    return {"kind": "cells", "cells": cells}


@pytest.mark.parametrize("ob, match", [
    ({"kind": "disk", "radius": 0.2}, "missing required key 'center'"),
    (_disk(center=[1.0]), r"obstacles\[0\]\.center: expected \[x, y\]"),
    (_disk(center="middle"), r"obstacles\[0\]\.center"),
    ({"kind": "disk", "center": [1.2, 1.2]}, "missing required key 'radius'"),
    (_disk(radius=-0.1), r"obstacles\[0\]\.radius: must be positive"),
    (_disk(radius=float("nan")), r"obstacles\[0\]\.radius"),
    (_disk(radius="big"), r"obstacles\[0\]\.radius: expected a number"),
    ({"kind": "rect", "max": [1.0, 1.0]}, "missing required key 'min'"),
    (_rect(min="a"), r"obstacles\[0\]\.min: expected \[x, y\]"),
    (_rect(max=[1.0, 2.0, 3.0]), r"obstacles\[0\]\.max: expected \[x, y\]"),
    (_rect(min=[1.0, 0.5]), r"obstacles\[0\]: min .* exceeds max"),
    (_rect(min=[0.5, 0.85]), r"obstacles\[0\]: min .* exceeds max"),
    ({"kind": "polyline"}, "missing required key 'points'"),
    (_polyline(points=[[0.5, 0.5]]), r"obstacles\[0\]\.points: need at least"),
    (_polyline(points=[[0.5], [1.0, 1.0]]), r"obstacles\[0\]\.points"),
    (_polyline(points=5), r"obstacles\[0\]\.points"),
    (_polyline(thickness=0.0), r"obstacles\[0\]\.thickness"),
    (_polyline(thickness="wide"), r"obstacles\[0\]\.thickness"),
    ({"kind": "cells"}, "missing required key 'cells'"),
    (_cells(7), r"obstacles\[0\]\.cells"),
    (_cells([[4, 4], [4, 4.5]]), r"obstacles\[0\]\.cells\[1\]"),
    (_cells([[4]]), r"obstacles\[0\]\.cells\[0\]"),
    (_cells(["ab"]), r"obstacles\[0\]\.cells\[0\]"),
    (_cells([[True, 2]]), r"obstacles\[0\]\.cells\[0\]"),
    (_disk(speed="fast"), r"obstacles\[0\]\.speed"),
])
def test_obstacle_geometry_rejected_at_parse(ob, match):
    doc = minimal_doc(obstacles=[dict(ob, label="wall", prob=1.0)])
    with pytest.raises(MalformedDocument, match=match):
        Scenario(doc)


@pytest.mark.parametrize("ob", [_disk(), _rect(), _rect(max=[0.5, 0.5]),
                                _polyline(), _polyline(thickness=0.3),
                                _cells([[4, 4], [-3, 50]]), _disk(speed=0.4)])
def test_obstacle_geometry_accepted(ob):
    Scenario(minimal_doc(obstacles=[dict(ob, label="wall", prob=1.0)])).build()


def _nonfinite_doc(key, v):
    """minimal_doc with the coordinate pair at key holding v."""
    return minimal_doc(**{
        "obstacles.center": {"obstacles": [_disk(center=[v, 1.2])]},
        "obstacles.min": {"obstacles": [_rect(min=[0.5, v])]},
        "obstacles.max": {"obstacles": [_rect(max=[v, 0.8])]},
        "obstacles.points": {"obstacles": [
            _polyline(points=[[0.5, 0.5], [v, 0.5]])]},
        "grid.origin": {"grid": {"nx": 24, "ny": 24, "d": 0.1,
                                 "origin": [v, 0.0]}},
        "domain.center": {"domain": {"kind": "disk", "center": [1.2, v],
                                     "radius": 1.0}},
        "nominal.goal": {"nominal": {"kind": "goal", "goal": [v, 2.0]}},
        "sim.y0": {"sim": {"y0": [0.5, v], "dt": 0.01, "T": 1.0}},
    }[key])


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("key", ["obstacles.center", "obstacles.min",
                                 "obstacles.max", "obstacles.points",
                                 "grid.origin", "domain.center",
                                 "nominal.goal", "sim.y0"])
def test_nonfinite_coordinates_rejected_at_parse(key, value):
    assert Scenario(_nonfinite_doc(key, 0.6))
    with pytest.raises(MalformedDocument, match="coordinates must be finite"):
        Scenario(_nonfinite_doc(key, value))


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), "x"])
@pytest.mark.parametrize("key", ["mu", "sigma_s", "eta_c"])
def test_backstep_block_rejected_at_parse(key, value):
    assert Scenario(minimal_doc(backstep={key: 0.5})).backstep[key] == 0.5
    with pytest.raises(MalformedDocument, match=f"backstep.{key}"):
        Scenario(minimal_doc(backstep={key: value}))


def test_backstep_block_must_be_a_mapping():
    assert Scenario(minimal_doc(backstep=None)).backstep is None
    assert Scenario(minimal_doc(backstep={})).backstep == {
        "mu": 1.0, "sigma_s": 0.1, "eta_c": 1e-8}
    with pytest.raises(MalformedDocument, match="backstep"):
        Scenario(minimal_doc(backstep=[1.0]))


@pytest.mark.parametrize("iters", ["a", -1, 2.5, True])
def test_solver_max_iters_must_be_a_nonnegative_integer(iters):
    with pytest.raises(MalformedDocument, match="solver.max_iters"):
        Scenario(minimal_doc(solver={"max_iters": iters}))


@pytest.mark.parametrize("omega", ["x", 0, 2, 2.5, -1.0, float("nan"),
                                   None])
def test_solver_omega_must_be_auto_or_in_0_2(omega):
    with pytest.raises(MalformedDocument, match="solver.omega"):
        Scenario(minimal_doc(solver={"omega": omega}))


@pytest.mark.parametrize("solver", [{"omega": "auto"}, {"omega": 1},
                                    {"omega": 1.5, "max_iters": 40}])
def test_solver_settings_accepted(solver):
    Scenario(minimal_doc(solver=solver))


def test_label_ids_follow_declaration_order():
    sc = Scenario(minimal_doc(
        risk={"priorities": {"wall": 1.0, "chair": 3.0, "person": 6.0}}))
    assert sc.label_ids == {"wall": 1, "chair": 2, "person": 3}
    assert sc.label_priorities == {1: 1.0, 2: 3.0, 3: 6.0}
    # wall is appended automatically when the table omits it
    sc2 = Scenario(minimal_doc(
        risk={"priorities": {"chair": 3.0, "person": 6.0}}))
    assert sc2.label_ids == {"chair": 1, "person": 2, "wall": 3}
    assert sc2.label_priorities[3] == 1.0


# -- rasterization --------------------------------------------------------------------

def test_rasterize_box_and_disk():
    g = Scenario(minimal_doc()).rasterize()
    assert not g.free[0, :].any() and not g.free[:, -1].any()
    assert not g.free[12, 12]  # obstacle core
    assert g.free[3, 3]
    sc = load_scenario(str(SCENARIOS / "disk_oracle.yaml"))
    gd = sc.rasterize()
    c = sc.domain_center
    for (i, j) in ((50, 50), (75, 50)):
        p = gd.cell_center(i, j)
        assert gd.free[i, j] == (np.hypot(*(p - c)) < sc.domain_radius)
    assert not gd.free[0, 0]


def test_rasterize_prob_ramp_and_labels():
    sc = load_scenario(str(SCENARIOS / "uncertain_wall.yaml"))
    g = sc.rasterize()
    m = sc.obstacle_masks()[0]
    assert g.prob[m].min() >= 0.2 - 1e-12
    assert g.prob[m].max() <= 1.0
    ii, jj = np.nonzero(m)
    col = ii == ii[0]
    p = g.prob[ii[col], jj[col]]
    assert (np.diff(p) >= -1e-12).all()  # ramps upward along y
    assert np.ptp(p) > 0.5
    # wall perimeter keeps the wall label, the obstacle has it too (label maps
    # to "wall" here so both share the id)
    assert g.label[0, 0] == sc.label_ids["wall"]


def test_rasterize_vel_channel():
    sc = load_scenario(str(SCENARIOS / "moving_block.yaml"))
    g = sc.rasterize(t=3.5)  # hold phase of the trapezoid
    m = sc.obstacle_masks(t=3.5)[0]
    v = g.vel[m]
    assert np.allclose(v, [0.6, 0.0])
    assert np.allclose(g.vel[~m & ~g.free], 0.0)
    assert sc.speed_at(3.5) == pytest.approx(0.6)
    assert sc.speed_at(0.0) == 0.0


def test_node_features_probability_and_speed():
    sc = load_scenario(str(SCENARIOS / "uncertain_wall.yaml"))
    g = sc.rasterize()
    from riskfields.grid import extract_boundary
    b = extract_boundary(g)
    feats = sc.node_features(g, b)
    assert len(feats) == b.n
    assert all(f.kind == "probability" and 0.0 <= f.value <= 1.0
               for f in feats)
    mb = load_scenario(str(SCENARIOS / "moving_block.yaml"))
    gm = mb.rasterize(t=3.5)
    bm = extract_boundary(gm)
    speeds = [f.value for f in mb.node_features(gm, bm)]
    assert max(speeds) == pytest.approx(0.6)  # block nodes see the block speed
    assert min(speeds) == 0.0                 # wall nodes see nothing moving


def test_node_features_label_majority_tie_breaks_low():
    doc = minimal_doc(risk={"feature": "label",
                            "priorities": {"a": 2.0, "b": 5.0, "wall": 1.0}})
    doc["obstacles"] = [
        {"kind": "cells", "cells": [[4, 4]], "label": "a", "prob": 1.0},
        {"kind": "cells", "cells": [[5, 5]], "label": "b", "prob": 1.0},
    ]
    sc = Scenario(doc)
    g = sc.rasterize()
    from riskfields.grid import extract_boundary
    b = extract_boundary(g)
    feats = sc.node_features(g, b)
    k = b.cells.tolist().index([5, 4])  # touches one 'a' and one 'b' neighbor
    assert k is not None
    assert feats[k].value == sc.label_ids["a"]  # tie goes to the smaller id
    k2 = b.cells.tolist().index([3, 4])  # touches only 'a'
    assert feats[k2].value == sc.label_ids["a"]


# -- build chain ----------------------------------------------------------------------

def test_build_report_contents(single_build):
    _, res = single_build
    rep = res.report
    assert rep["stages"] == ["discretize", "risk", "poisson", "laplace",
                             "filter"]
    assert rep["nodes"] == res.boundary.n
    assert rep["components"] == res.boundary.components()
    fl = rep["flux"]
    assert fl["min"] <= fl["mean"] <= fl["max"]
    assert rep["poisson"]["converged"] is True
    assert len(rep["laplace"]) == 2
    assert rep["poisson"] == dataclasses.asdict(res.sf.h.stats)
    assert rep["laplace"] == [dataclasses.asdict(res.gf.v.x.stats),
                              dataclasses.asdict(res.gf.v.y.stats)]
    assert set(rep["timings_ms"]) == {"rasterize", "boundary", "risk",
                                      "solve", "filter"}
    assert all(v >= 0.0 for v in rep["timings_ms"].values())


def test_build_deterministic(single_build):
    sc, res = single_build
    again = sc.build()
    assert np.array_equal(res.sf.h.values[res.grid.free],
                          again.sf.h.values[again.grid.free])
    assert np.array_equal(res.gf.v.x.values[res.grid.free],
                          again.gf.v.x.values[again.grid.free])
    assert np.array_equal(res.boundary.flux, again.boundary.flux)


# -- geometry reuse ---------------------------------------------------------------

def _bits(a):
    return a.view(np.int64) if a.dtype == float else a


def _same_arrays(a, b):
    assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _assert_same_build(sc, a, b):
    """Every field, stat, boundary array and the zone, bit for bit."""
    for fa, fb in ((a.sf.h, b.sf.h), (a.sf.grad.x, b.sf.grad.x),
                   (a.sf.grad.y, b.sf.grad.y), (a.gf.v.x, b.gf.v.x),
                   (a.gf.v.y, b.gf.v.y)):
        _same_arrays(fa.values, fb.values)
        assert fa.stats == fb.stats
    for name in ("cells", "pos", "normals", "arcw", "comp", "flux"):
        _same_arrays(getattr(a.boundary, name), getattr(b.boundary, name))
    assert a.boundary.chains.keys() == b.boundary.chains.keys()
    for c, chain in a.boundary.chains.items():
        other = b.boundary.chains[c]
        assert (chain is None) == (other is None)
        if chain is not None:
            _same_arrays(chain, other)
    for key in ("nodes", "components", "flux", "poisson", "laplace"):
        assert a.report[key] == b.report[key]
    za, zb = (safety.activation_zone(x.grid, sc.controller(x), x.sf, x.gf,
                                     x.filter_cfg) for x in (a, b))
    _same_arrays(za.a.values, zb.a.values)
    _same_arrays(za.active, zb.active)
    _same_arrays(za.active_restricted, zb.active_restricted)
    assert za.segments == zb.segments


def _cells_doc(**over):
    """minimal_doc with a cells obstacle, whose mask does not move with d
    or origin."""
    over.setdefault("obstacles", [
        dict(_cells([[10, 10], [10, 11], [11, 10]]), label="wall", prob=0.6)])
    return minimal_doc(**over)


def test_reused_geometry_matches_a_solved_build():
    sc = Scenario(load_doc("three_obstacles"))
    scenario._SOLVED.clear()
    assert sc.build().report["geometry"] == "solved"
    hit = sc.build(flux_scale={0: 2.5})
    assert hit.report["geometry"] == "reused"
    scenario._SOLVED.clear()
    cold = sc.build(flux_scale={0: 2.5})
    assert cold.report["geometry"] == "solved"
    _assert_same_build(sc, hit, cold)
    # the guidance still moves with the flux
    assert not np.array_equal(hit.gf.v.x.values, sc.build().gf.v.x.values)


def _geometry_arrays(b):
    """The arrays a build can take from the geometry memo, by name."""
    out = {"h": b.sf.h.values, "gx": b.sf.grad.x.values,
           "gy": b.sf.grad.y.values}
    out.update((n, getattr(b.boundary, n))
               for n in ("cells", "normals", "arcw", "comp"))
    out.update((f"chain{c}", a) for c, a in b.boundary.chains.items()
               if a is not None)
    return out


def test_reused_geometry_is_a_fresh_copy_on_the_new_grid():
    sc = Scenario(load_doc("three_obstacles"))
    scenario._SOLVED.clear()
    last = sc.build()
    keep = {n: a.copy() for n, a in _geometry_arrays(last).items()}
    stats = dataclasses.replace(last.sf.h.stats)
    for _ in range(2):      # mutate a solved build, then a reused one
        for a in _geometry_arrays(last).values():
            a[...] = 3
        last.sf.h.stats.iterations = -1
        last = sc.build()
        assert last.report["geometry"] == "reused"
        got = _geometry_arrays(last)
        assert got.keys() == keep.keys()
        for name, want in keep.items():
            _same_arrays(got[name], want)
        assert last.sf.h.stats == stats
        assert last.report["poisson"] == dataclasses.asdict(stats)
        for f in (last.sf.h, last.sf.grad.x, last.sf.grad.y, last.boundary,
                  last.gf.v):
            assert f.grid is last.grid
        assert last.sf.h.boundary is last.boundary


@pytest.mark.parametrize("change", [
    {"obstacles": [dict(_cells([[10, 10], [10, 11]]), label="wall",
                        prob=0.6)]},
    {"grid": {"nx": 24, "ny": 24, "d": 0.11}},
    {"grid": {"nx": 24, "ny": 24, "d": 0.1, "origin": [0.5, 0.0]}},
    {"solver": {"omega": 1.8}},
    {"solver": {"tol": 1e-9}},
    {"solver": {"max_iters": 4000}},
])
def test_geometry_key_covers_mask_lattice_and_solver(change):
    scenario._SOLVED.clear()
    Scenario(_cells_doc()).build()
    same = Scenario(_cells_doc(risk={"flux": {"beta_min": 2.0}}))
    assert same.build().report["geometry"] == "reused"
    assert same.safety_field().stats == same.build().sf.h.stats
    assert Scenario(_cells_doc(**change)).build().report["geometry"] \
        == "solved"


def _solved_entries():
    """_SOLVED as {key: the stored entry's id}."""
    return {k: id(v) for k, v in scenario._SOLVED.items()}


def test_failed_builds_are_not_stored():
    scenario._SOLVED.clear()
    with pytest.raises(NonConvergence):
        Scenario(_cells_doc(solver={"max_iters": 1})).build()
    # fails at parse time, before any solve, on the backstep block
    with pytest.raises(MalformedDocument):
        Scenario(_cells_doc(backstep={"mu": -1.0})).build()
    assert not scenario._SOLVED
    Scenario(_cells_doc()).build()
    before = _solved_entries()
    with pytest.raises(NonConvergence):
        Scenario(_cells_doc(solver={"max_iters": 1})).build()
    assert _solved_entries() == before


def _stored_geometries():
    """The geometries of _SOLVED, and its keys by kind: "shape", "h" and
    the component (None for v0) of each guidance pair."""
    return ({k[0] for k in scenario._SOLVED},
            sorted(k[1] if len(k) == 2 else str(k[2])
                   for k in scenario._SOLVED))


def test_geometry_memo_holds_one_entry():
    scenario._SOLVED.clear()
    Scenario(_cells_doc()).build()
    geometries, kinds = _stored_geometries()
    assert len(geometries) == 1 and kinds == ["None", "h", "shape"]
    Scenario(minimal_doc()).build()
    Scenario(minimal_doc()).build()
    geometries, kinds = _stored_geometries()
    assert len(geometries) == 1 and kinds == ["None", "h", "shape"]
    G, = geometries
    assert G[0] == Scenario(minimal_doc()).rasterize().free.tobytes()


def test_flux_scale_scalar_and_dict(three_build):
    sc, base = three_build
    doubled = sc.build(flux_scale=2.0)
    assert np.allclose(doubled.boundary.flux, 2.0 * base.boundary.flux)
    only0 = sc.build(flux_scale={0: 3.0})
    owners = sc.obstacle_components(base.grid, base.boundary,
                                    sc.obstacle_masks())
    comps0 = owners[0]
    assert comps0
    pick = np.isin(base.boundary.comp, list(comps0))
    assert np.allclose(only0.boundary.flux[pick],
                       3.0 * base.boundary.flux[pick])
    assert np.array_equal(only0.boundary.flux[~pick],
                          base.boundary.flux[~pick])


# -- flux scales by superposition -------------------------------------------------

def _touching_doc():
    """Two rects that overlap into one blob: one boundary component, owned
    by both obstacles."""
    return minimal_doc(obstacles=[
        {"kind": "rect", "min": [0.8, 0.8], "max": [1.3, 1.2],
         "label": "wall", "prob": 0.9},
        {"kind": "rect", "min": [1.2, 1.1], "max": [1.6, 1.6],
         "label": "wall", "prob": 0.4},
        {"kind": "disk", "center": [0.6, 1.8], "radius": 0.2,
         "label": "wall", "prob": 0.7}])


def _assert_superposed_equals_direct(sc, b):
    direct = elliptic.solve_guidance(b.grid, b.boundary, sc.solver_cfg)
    for got, want in ((b.gf.v.x, direct.x), (b.gf.v.y, direct.y)):
        fin = np.isfinite(want.values)
        assert np.array_equal(np.isfinite(got.values), fin)
        scale = np.abs(want.values[fin]).max()
        assert np.abs(got.values[fin] - want.values[fin]).max() \
            <= 1e-10 * scale
    bd = b.boundary
    ci, cj = bd.cells[:, 0], bd.cells[:, 1]
    got = np.stack([b.gf.v.x.values[ci, cj], b.gf.v.y.values[ci, cj]], 1)
    assert np.abs(got + bd.flux[:, None] * bd.normals).max() <= 1e-9


@pytest.mark.parametrize("case", ["three0", "three02", "three_scalar",
                                  "sweep12", "sweep41", "touching"])
def test_superposed_guidance_equals_a_direct_solve(case):
    if case.startswith("three"):
        doc = load_doc("three_obstacles")
        fs = {"three0": {0: 3.0}, "three02": {0: 0.5, 2: 2.0},
              "three_scalar": 2.5}[case]
    elif case == "touching":
        doc, fs = _touching_doc(), {0: 2.0, 1: 3.0, 2: 0.5}
    else:
        doc, fs = flux_sweep_doc(int(case[5:]))
    sc = Scenario(doc)
    b = sc.build(flux_scale=fs)
    terms = b.report["guidance"]["terms"]
    assert terms[0]["component"] is None
    if isinstance(fs, dict):
        assert terms[0]["coefficient"] == 1.0 and len(terms) > 1
    else:
        assert [t["coefficient"] for t in terms] == [fs]
    if case == "touching":
        # the shared component's factor is the product of both scales
        owners = sc.obstacle_components(b.grid, b.boundary,
                                        sc.obstacle_masks())
        shared, = owners[0] & owners[1]
        coef = {t["component"]: t["coefficient"] for t in terms[1:]}
        assert coef[shared] == 2.0 * 3.0 - 1.0
        assert len(coef) == 2 and 0.5 - 1.0 in coef.values()
    _assert_superposed_equals_direct(sc, b)


def test_superposed_stats_bound_the_residual(three_build):
    sc, _ = three_build
    b = sc.build(flux_scale={0: 0.5, 2: 2.0})
    terms = b.report["guidance"]["terms"]
    for axis, field in enumerate((b.gf.v.x, b.gf.v.y)):
        st = field.stats
        stats = [t["stats"][axis] for t in terms]
        assert st.residual == sum(abs(t["coefficient"]) * s["residual"]
                                  for t, s in zip(terms, stats))
        assert st.target == sum(abs(t["coefficient"]) * s["target"]
                                for t, s in zip(terms, stats))
        assert st.iterations == sum(s["iterations"] for s in stats)
        assert st.converged and st.residual != stats[0]["residual"]
        assert b.report["laplace"][axis] == dataclasses.asdict(st)


@pytest.mark.parametrize("one", [{0: 1.0}, {1: 1.0}, 1.0, {}])
def test_flux_scale_of_one_is_the_unscaled_build(three_build, one):
    sc, _ = three_build
    base = sc.build()
    _assert_same_build(sc, sc.build(flux_scale=one), base)


def _count_systems(monkeypatch):
    counts = []
    sweep = elliptic._sweep_solve

    def counted(grid, systems, cfg):
        counts.append(len(systems))
        return sweep(grid, systems, cfg)

    monkeypatch.setattr(elliptic, "_sweep_solve", counted)
    return counts


def test_flux_sweep_solve_counts(monkeypatch):
    counts = _count_systems(monkeypatch)
    scenario._SOLVED.clear()
    sc = Scenario(load_doc("three_obstacles"))

    def solved(fs=None, over=None):
        counts.clear()
        s = sc if over is None else Scenario(over)
        b = s.build(flux_scale=fs)
        return sum(counts), b.report["guidance"]

    n, guide = solved({0: 2.0})         # h, v0 and obstacle 0's pair
    assert n == 5 and guide["v0"] == "solved"
    n, guide = solved({0: 3.0})         # a second scale of obstacle 0
    assert n == 0 and guide["v0"] == "reused"
    assert [t["basis"] for t in guide["terms"]] == ["reused", "reused"]
    n, guide = solved({0: 3.0, 1: 2.0})     # a new obstacle: one pair
    assert n == 2
    assert sorted(t["basis"] for t in guide["terms"]) \
        == ["reused", "reused", "solved"]
    assert solved({1: 0.7})[0] == 0
    assert solved()[0] == 0             # a repeat build
    assert solved(2.5)[0] == 0
    doc = load_doc("three_obstacles")
    doc["obstacles"][0]["prob"] = 0.5   # same mask, a new beta0
    n, guide = solved(over=doc)
    assert n == 2 and guide["v0"] == "solved"
    room = load_doc("semantic_room")
    solved(over=room)
    room["obstacles"][0]["label"] = "person"
    n, guide = solved(over=room)
    assert n == 2 and guide["v0"] == "solved"
    assert solved(over=room)[0] == 0


def test_handed_out_guidance_is_a_copy(three_build):
    sc, _ = three_build
    for fs in (None, {0: 2.0}):
        first = sc.build(flux_scale=fs)
        keep = [f.values.copy() for f in (first.gf.v.x, first.gf.v.y)]
        stats = dataclasses.replace(first.gf.v.x.stats)
        first.gf.v.x.values[...] = 3.0
        first.gf.v.y.values[...] = 3.0
        first.gf.v.x.stats.iterations = -1
        again = sc.build(flux_scale=fs)
        for f, want in zip((again.gf.v.x, again.gf.v.y), keep):
            _same_arrays(f.values, want)
        assert again.gf.v.x.stats == stats


def test_failed_basis_solve_leaves_the_memo(monkeypatch):
    scenario._SOLVED.clear()
    sc = Scenario(load_doc("three_obstacles"))
    sc.build()
    before = _solved_entries()
    # h, the shape and v0, no basis pair
    assert [k[2] for k in before if len(k) == 3] == [None]
    sweep = elliptic._sweep_solve

    def one_sweep(grid, systems, cfg):
        return sweep(grid, systems, dataclasses.replace(cfg, max_iters=1))

    monkeypatch.setattr(elliptic, "_sweep_solve", one_sweep)
    with pytest.raises(NonConvergence):
        sc.build(flux_scale={0: 2.0})
    assert _solved_entries() == before
    monkeypatch.setattr(elliptic, "_sweep_solve", sweep)
    counts = _count_systems(monkeypatch)
    assert sc.build(flux_scale={0: 2.0}).report["guidance"]["terms"][1][
        "basis"] == "solved"
    assert counts == [2]


@pytest.mark.parametrize("fs", [None, {0: 2.0}])
def test_stacked_frame_picks_up_a_pending_guidance(monkeypatch, fs):
    counts = _count_systems(monkeypatch)
    scenario._SOLVED.clear()
    sc = Scenario(load_doc("three_obstacles"))
    first, second = sc._build_frames([0.0, 0.0], fs)
    # one stack: h, v0 and, when scaled, obstacle 0's pair, each once
    assert counts == [3 if fs is None else 5]
    assert first.report["guidance"]["v0"] == "solved"
    assert second.report["geometry"] == "reused"
    assert {t["basis"] for t in second.report["guidance"]["terms"]} \
        == {"reused"}
    scenario._SOLVED.clear()
    alone = sc.build(flux_scale=fs)
    for b in (first, second):
        for got, want in ((b.gf.v.x, alone.gf.v.x), (b.gf.v.y, alone.gf.v.y)):
            _same_arrays(got.values, want.values)
            assert got.stats == want.stats


def test_stacked_frame_reads_a_stored_later_geometry(monkeypatch):
    """_SOLVED holds frame 1's geometry and frame 0 needs another: the plan
    keeps both, so frame 1 solves nothing, where builds made one at a time
    would re-solve it after frame 0 replaced _SOLVED."""
    sc = Scenario(load_doc("moving_block"))
    cold = []
    for t in (0.0, 0.2):
        scenario._SOLVED.clear()
        cold.append(sc.build(t))
    assert not np.array_equal(cold[0].grid.free, cold[1].grid.free)
    counts = _count_systems(monkeypatch)
    frames = list(sc._build_frames([0.0, 0.2]))
    assert counts == [3]        # frame 0's h and v0, not 6
    assert frames[0].report["geometry"] == "solved"
    assert frames[1].report["geometry"] == "reused"
    assert frames[1].report["guidance"]["v0"] == "reused"
    for got, want in zip(frames, cold):
        _assert_same_build(sc, got, want)


def test_a_scalar_scale_keeps_the_stored_basis_pairs(monkeypatch):
    counts = _count_systems(monkeypatch)
    scenario._SOLVED.clear()
    sc = Scenario(load_doc("three_obstacles"))
    sc.build(flux_scale={0: 2.0})
    sc.build(flux_scale=2.5)        # reads v0 alone
    counts.clear()
    b = sc.build(flux_scale={0: 3.0})
    assert sum(counts) == 0
    assert {t["basis"] for t in b.report["guidance"]["terms"]} == {"reused"}


@pytest.mark.parametrize("fs, match", [
    (math.nan, "flux_scale"), (math.inf, "flux_scale"), (0.0, "flux_scale"),
    (-1.0, "flux_scale"), ("a", "flux_scale"), ({0: math.nan}, r"\[0\]"),
    ({0: -2.0}, r"\[0\]"), ({0: 0}, r"\[0\]"), ({7: 2.0}, "no obstacle 7"),
    ({3: 2.0}, "no obstacle 3"), ({-1: 2.0}, "key"), ({0.0: 2.0}, "key"),
    ({True: 2.0}, "key"), ({"0": 2.0}, "key")])
def test_bad_flux_scales_rejected_before_any_work(monkeypatch, fs, match):
    sc = Scenario(load_doc("three_obstacles"))

    def never(*args, **kw):
        raise AssertionError("rasterized")

    monkeypatch.setattr(sc, "rasterize", never)
    with pytest.raises(MalformedDocument, match=match):
        sc.build(flux_scale=fs)


def test_backstep_wiring(single_build):
    sc, res = single_build
    bcfg = res.backstep_cfg
    assert bcfg is not None
    assert bcfg.mu == 1.0
    assert bcfg.gamma == res.filter_cfg.gamma
    y = np.array([0.4, 1.5])
    assert np.allclose(bcfg.nominal(y),
                       -sc.nominal_mu * (y - sc.nominal_goal))


def test_controller_kinds(single_build, semantic_build):
    sc, res = single_build
    k = sc.controller(res)
    assert hasattr(k, "goal")
    sa, ra = semantic_build
    ka = sa.controller(ra)
    assert not hasattr(ka, "goal")
    y = np.array([2.4, 0.9])
    assert np.allclose(ka(y), -sa.nominal_mu * ra.sf.grad_at(y))


# -- command line -----------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_solve_disk(tmp_path):
    out = tmp_path / "solve"
    scenario._SOLVED.clear()
    rc = run_cli("solve", "--scenario",
                 str(SCENARIOS / "disk_oracle.yaml"), "--out", str(out),
                 "--dump-fields")
    assert rc == 0
    report = json.loads((out / "build_report.json").read_text())
    assert report["geometry"] == "solved"
    assert report["divergence_residual"] < 0.05
    assert 0.005 < report["disk_oracle_max_err"] < 0.03  # measured 2.14e-2
    for f in ("h.csv", "vx.csv", "vy.csv", "manifest.json"):
        assert (out / f).exists()
    man = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256(
        (SCENARIOS / "disk_oracle.yaml").read_bytes()).hexdigest()
    assert man["scenario_sha256"] == digest
    assert "seed" not in man
    assert "scipy_version" not in man
    assert man["pyyaml_version"] == yaml.__version__
    assert man["outputs"] == sorted(man["outputs"])
    h = np.loadtxt(out / "h.csv", delimiter=",")
    assert h.shape == (101, 101)
    # a second solve of the same mask reuses h, with its stats
    assert run_cli("solve", "--scenario", str(SCENARIOS / "disk_oracle.yaml"),
                   "--out", str(tmp_path / "again")) == 0
    again = json.loads((tmp_path / "again" / "build_report.json").read_text())
    assert again["geometry"] == "reused"
    for key in ("poisson", "laplace", "divergence_residual",
                "disk_oracle_max_err"):
        assert again[key] == report[key]


def test_cli_runs_without_scipy(tmp_path):
    """riskfields loads no scipy module: solve runs with scipy unimportable."""
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        from riskfields.cli import main
        argv = ["solve", "--scenario", {str(SCENARIOS / "disk_oracle.yaml")!r},
                "--out", {str(tmp_path / "out")!r}]
        assert main(argv) == 0
        held = [k for k, v in sys.modules.items()
                if k.startswith("scipy") and v is not None]
        assert not held, held
        """)
    src = str(SCENARIOS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_zones(tmp_path, single_build):
    out = tmp_path / "zones"
    rc = run_cli("zones", "--scenario",
                 str(SCENARIOS / "single_obstacle.yaml"), "--out", str(out))
    assert rc == 0
    summary = json.loads((out / "zone_summary.json").read_text())
    assert summary["cells_active_restricted"] <= summary["cells_active"]
    assert summary["area"] == pytest.approx(
        summary["cells_active"] * 0.05 ** 2)
    sign = np.loadtxt(out / "zone_sign.csv", delimiter=",", dtype=int)
    assert (sign == -1).sum() == summary["cells_active"]
    lines = (out / "zone_contours.csv").read_text().splitlines()
    assert len({int(l.split(",")[0]) for l in lines}) == summary["polylines"]


def test_cli_simulate_single(tmp_path):
    out = tmp_path / "sim"
    rc = run_cli("simulate", "--scenario",
                 str(SCENARIOS / "disk_oracle.yaml"), "--out", str(out))
    assert rc == 0
    summary = json.loads((out / "sim_summary.json").read_text())
    assert summary["termination"] == "goal_reached"
    assert summary["min_h"] > 0
    assert summary["audit_min"] >= -1e-9
    audit = (out / "audit.csv").read_text().splitlines()
    assert audit[0] == "t,constraint"
    assert len(audit) == summary["samples"] + 1
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("t,x,y,unom_x")
    assert traj[-1].endswith(",goal_reached")


def _trajectory_csv(path):
    rows = path.read_text().splitlines()
    names = rows[0].split(",")
    vals = np.array([[float(x) for x in r.split(",")[:-1]] for r in rows[1:]])
    return {n: vals[:, k] for k, n in enumerate(names[:-1])}


def _assert_filter_summary(summary, traj):
    """filter_active, max_correction and end as read off trajectory.csv."""
    dx = traj["u_x"] - traj["unom_x"]
    dy = traj["u_y"] - traj["unom_y"]
    assert summary["filter_active"] == int(((dx != 0) | (dy != 0)).sum())
    assert summary["max_correction"] == float(np.hypot(dx, dy).max())
    assert summary["end"] == {"t": traj["t"][-1],
                              "y": [traj["x"][-1], traj["y"][-1]]}


def _free_square_distance(p, grid):
    """The distance from p to the union of every free cell square."""
    ii, jj = np.nonzero(grid.free)
    c = grid.origin + grid.d * np.column_stack([ii, jj])
    gap = np.maximum(np.abs(c - p) - 0.5 * grid.d, 0.0)
    return float(np.hypot(*gap.T).min())


def test_cli_simulate_reports_filter_activity(tmp_path, single_build):
    out = tmp_path / "sim"
    rc = run_cli("simulate", "--scenario",
                 str(SCENARIOS / "single_obstacle.yaml"), "--out", str(out))
    assert rc == 0
    summary = json.loads((out / "sim_summary.json").read_text())
    traj = _trajectory_csv(out / "trajectory.csv")
    _assert_filter_summary(summary, traj)
    # the run goes round the obstacle: the filter acts on part of it
    assert 0 < summary["filter_active"] < summary["samples"]
    assert summary["max_correction"] > 0.1
    # samples whose nearest cell centre is occupied, and the largest of
    # their distances to the free cell squares: 0.61 d
    assert summary["inside_occupied"] == 266
    assert summary["max_depth"] == pytest.approx(0.030355855188486068,
                                                 rel=1e-12)
    # samples where the filtered input breaks the condition on grad h,
    # which the filter enforces on the guidance v instead
    assert summary["grad_h_negative"] == 458
    assert "k_v_safe_negative" not in summary
    assert summary["termination"] == "goal_reached"
    # the same numbers sample by sample off trajectory.csv
    _, b = single_build
    g, fs = b.grid, FieldSampler(b.sf, b.gf)
    depths, negative = [], 0
    for x, y, ux, uy in zip(traj["x"], traj["y"], traj["u_x"], traj["u_y"]):
        i, j = (int(math.floor((c - o) / g.d + 0.5))
                for c, o in zip((x, y), g.origin))
        if not g.free[i, j]:
            depths.append(_free_square_distance((x, y), g))
        h, _, _, hx, hy, _ = fs.at(x, y)
        negative += hx * ux + hy * uy + b.filter_cfg.gamma * h < 0.0
    assert len(depths) == 266 and max(depths) == summary["max_depth"]
    assert negative == 458
    goal = load_doc("single_obstacle")["nominal"]["goal"]
    assert math.dist(summary["end"]["y"], goal) < 0.05


def test_cli_simulate_double(tmp_path):
    doc = load_doc("single_obstacle")
    doc["sim"]["ydot0"] = [2.55, 0.25]  # near k_v(y0): inside the shrunken set
    doc["sim"]["T"] = 3.0
    spath = tmp_path / "double.yaml"
    spath.write_text(yaml.safe_dump(doc))
    out = tmp_path / "simd"
    rc = run_cli("simulate", "--scenario", str(spath), "--out", str(out))
    assert rc == 0
    head = (out / "trajectory.csv").read_text().splitlines()[0]
    assert head == "t,x,y,vx,vy,unom_x,unom_y,u_x,u_y,h,h_B,a,flags"
    summary = json.loads((out / "sim_summary.json").read_text())
    assert summary["min_h"] > 0
    # h_B is a valid barrier: k_v_safe keeps grad h . k_v_safe + gamma h
    # positive at every sample, while the velocity itself may break it
    assert summary["k_v_safe_negative"] == 0
    # pinned: the count moves with any change to the filter's J ydot
    assert summary["grad_h_negative"] == 292
    assert summary["inside_occupied"] == 0 and summary["max_depth"] == 0.0


def test_cli_dynamic(tmp_path):
    out = tmp_path / "dyn"
    rc = run_cli("dynamic", "--scenario",
                 str(SCENARIOS / "moving_block.yaml"), "--out", str(out),
                 "--frames", "3")
    assert rc == 0
    frames = (out / "frames.csv").read_text().splitlines()
    assert frames[0] == "t,speed,zone_cells,zone_cells_restricted"
    assert len(frames) == 4
    summary = json.loads((out / "dynamic_summary.json").read_text())
    assert summary["frames"] == 3
    assert summary["termination"] == "time_limit"
    traj = _trajectory_csv(out / "trajectory.csv")
    _assert_filter_summary(summary, traj)
    assert summary["end"]["t"] == pytest.approx(0.6)
    # sample i lies in a cell of frame min(i // 50, 2), dt_frame / dt = 50
    sc = Scenario(load_doc("moving_block"))
    grids = [sc.rasterize(k * 0.2) for k in range(3)]
    inside = 0
    for i, p in enumerate(zip(traj["x"], traj["y"])):
        g = grids[min(i // 50, 2)]
        cell = tuple(int(math.floor((c - o) / g.d + 0.5))
                     for c, o in zip(p, g.origin))
        inside += int(not g.free[cell])
    assert summary["inside_occupied"] == inside == 0
    assert summary["max_depth"] == 0.0 and summary["grad_h_negative"] == 0


def test_cli_dynamic_requires_dt_frame(tmp_path):
    out = tmp_path / "dyn_bad"
    rc = run_cli("dynamic", "--scenario",
                 str(SCENARIOS / "disk_oracle.yaml"), "--out", str(out))
    assert rc == 2
    assert (out / "FAILED.txt").exists()
    assert not (out / "manifest.json").exists()


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep"
    rc = run_cli("sweep", "--scenario",
                 str(SCENARIOS / "three_obstacles.yaml"), "--out", str(out),
                 "--scales", "1,2")
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("scale,gamma,zone_cells_restricted,zone_cells,"
                        "min_h,min_clearance,path_length,termination")
    assert len(lines) == 3
    rows = [l.split(",") for l in lines[1:]]
    assert [float(r[0]) for r in rows] == [1.0, 2.0]
    # flux up, caution up: the restricted zone grows with the scale
    assert int(rows[1][2]) > int(rows[0][2])
    assert all(np.isfinite(float(r[5])) for r in rows)
    # the second job reuses the first one's geometry, to the same row
    scenario._SOLVED.clear()
    rc = run_cli("sweep", "--scenario",
                 str(SCENARIOS / "three_obstacles.yaml"), "--out", str(out),
                 "--scales", "1,1")
    assert rc == 0
    again = (out / "sweep.csv").read_text().splitlines()
    assert len(again) == 3 and again[1] == again[2] == lines[1]


def test_cli_sweep_workers_write_the_same_csv(tmp_path):
    csv = []
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}"
        scenario._SOLVED.clear()
        assert run_cli("sweep", "--scenario",
                       str(SCENARIOS / "three_obstacles.yaml"), "--out",
                       str(out), "--scales", "1,2,3",
                       "--workers", workers) == 0
        csv.append((out / "sweep.csv").read_bytes())
    assert csv[0] == csv[1]


def test_sweep_worker_starts_from_the_parents_store(monkeypatch):
    path = str(SCENARIOS / "three_obstacles.yaml")
    scenario._SOLVED.clear()
    cli._sweep_one((path, 2.0, 1.0))        # the job the parent runs
    parent = dict(scenario._SOLVED)
    scenario._SOLVED.clear()
    cli._start_worker(parent)
    counts = _count_systems(monkeypatch)
    reports = []
    build = Scenario.build

    def logged(self, *args, **kw):
        res = build(self, *args, **kw)
        reports.append(res.report)
        return res

    monkeypatch.setattr(Scenario, "build", logged)
    cli._sweep_one((path, 3.0, 0.5))
    assert sum(counts) == 0
    report, = reports
    assert report["geometry"] == "reused"
    assert report["guidance"]["v0"] == "reused"


class _PoolStub:
    """ProcessPoolExecutor that records max_workers and runs in-process."""

    made = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, pools", [("64", [2]), ("2", [2]),
                                            ("1", [])])
def test_sweep_forks_no_more_workers_than_jobs(tmp_path, monkeypatch,
                                               workers, pools):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _PoolStub)
    monkeypatch.setattr(_PoolStub, "made", [])
    rc = run_cli("sweep", "--scenario",
                 str(SCENARIOS / "three_obstacles.yaml"), "--out",
                 str(tmp_path / "sweep"), "--scales", "1,2,3",
                 "--workers", workers)
    assert rc == 0 and _PoolStub.made == pools


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_sweep_rejects_workers_below_1(tmp_path, monkeypatch, workers):
    jobs = []
    monkeypatch.setattr(cli, "_sweep_one", jobs.append)
    out = tmp_path / "sweep_bad"
    rc = run_cli("sweep", "--scenario",
                 str(SCENARIOS / "three_obstacles.yaml"), "--out", str(out),
                 "--workers", workers)
    assert rc == 2 and not jobs
    assert (out / "FAILED.txt").read_text().startswith(
        "RiskFieldsError: --workers")


def test_depths_match_every_free_square(three_build, monkeypatch):
    _, b = three_build
    g = b.grid
    rng = np.random.default_rng(5)
    lo, hi = g.origin, g.origin + g.d * (np.array([g.nx, g.ny]) - 1)
    y = rng.uniform(lo, hi, (2000, 2))
    i, j = np.floor((y - g.origin) / g.d + 0.5).astype(int).T
    y = y[~g.free[i, j]]        # points in occupied cell squares
    want = [_free_square_distance(p, g) for p in y]
    assert len(want) > 100 and 0 < max(want) < 10 * g.d
    for block in (cli._CLEARANCE_BLOCK, 1000, 1):
        monkeypatch.setattr(cli, "_CLEARANCE_BLOCK", block)
        assert cli._depths(y, g).tolist() == want


def test_min_clearance_matches_per_sample_loop(three_build, monkeypatch):
    sc, b = three_build
    g = b.grid
    rng = np.random.default_rng(4)
    free = g.free_centers()
    y = (free[rng.choice(len(free), 600)]
         + rng.uniform(-0.5, 0.5, (600, 2)) * g.d)
    y[0] = y[300] = np.nan          # the loop's min skips a NaN sample
    traj = types.SimpleNamespace(y=y)
    for idx, mask in enumerate(sc.obstacle_masks()):
        ii, jj = np.nonzero(mask & ~g.free)
        centers = g.origin + g.d * np.column_stack([ii, jj]).astype(float)
        want = np.inf
        for p in y:
            want = min(want, float(np.min(np.hypot(*(centers - p).T))))
        assert np.isfinite(want)
        # one block, a few with a ragged last one, one sample per block
        for block in (cli._CLEARANCE_BLOCK, 7 * len(ii) + 3, 1):
            monkeypatch.setattr(cli, "_CLEARANCE_BLOCK", block)
            assert cli._min_clearance(traj, b, sc, idx) == want


@pytest.mark.parametrize("command, sim_over", [
    ("simulate", {"dt": 0.5}),                       # above the CFL bound
    ("dynamic", {"dt": 0.003, "dt_frame": 0.2}),     # 0.003 does not divide 0.2
    ("dynamic", {"dt_frame": 0.3, "T": 1.0}),        # 0.3 does not divide T
])
def test_cli_time_step_errors_write_failed_marker(tmp_path, command,
                                                 sim_over):
    doc = load_doc("moving_block" if command == "dynamic"
                   else "single_obstacle")
    doc["sim"].update(sim_over)
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    rc = run_cli(command, "--scenario", str(path), "--out", str(out))
    assert rc == 2
    assert (out / "FAILED.txt").read_text().startswith("InvalidTimeStep")
    assert not (out / "manifest.json").exists()


def test_cli_degenerate_start_writes_failed_marker(tmp_path):
    # eta_v = 1e3 makes every a < 0 vanishing, and a < 0 at this start: the
    # first record degenerates, so the run would hold no sample
    doc = load_doc("single_obstacle")
    doc["filter"] = {"gamma": 1.0, "eta_v": 1000.0}
    doc["sim"]["y0"] = [1.25, 1.65]
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    rc = run_cli("simulate", "--scenario", str(path), "--out", str(out))
    assert rc == 2
    assert (out / "FAILED.txt").read_text().startswith(
        "StartUnsafe: the filter degenerates at the start: a=")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("gammas", ["nan", "inf", "1,-2", "a"])
def test_cli_sweep_rejects_bad_gammas(tmp_path, gammas):
    out = tmp_path / "sweep_bad"
    rc = run_cli("sweep", "--scenario",
                 str(SCENARIOS / "single_obstacle.yaml"), "--out", str(out),
                 "--scales", "1", "--gammas", gammas)
    assert rc == 2
    assert "--gammas" in (out / "FAILED.txt").read_text()


@pytest.mark.parametrize("scales", ["a", "1,0", "nan", "2,-1", "1,,2"])
def test_cli_sweep_rejects_bad_scales_before_any_job(tmp_path, monkeypatch,
                                                     scales):
    jobs = []
    monkeypatch.setattr(cli, "_sweep_one", jobs.append)
    out = tmp_path / "sweep_bad"
    rc = run_cli("sweep", "--scenario",
                 str(SCENARIOS / "three_obstacles.yaml"), "--out", str(out),
                 "--scales", scales, "--gammas", "1")
    assert rc == 2 and not jobs
    assert (out / "FAILED.txt").read_text().startswith(
        "RiskFieldsError: --scales")


def test_sweep_job_gamma_goes_through_filter_validation():
    # the job builds a new FilterConfig, whose own check rejects gamma = 0
    with pytest.raises(ValueError, match="gamma"):
        cli._sweep_one((str(SCENARIOS / "three_obstacles.yaml"), 1.0, 0.0))


@pytest.mark.parametrize("method", ["dense_direct", "gauss_seidel"])
def test_removed_solver_methods_rejected_with_failed_marker(tmp_path,
                                                            method):
    with pytest.raises(MalformedDocument, match=f"'{method}' was removed"):
        Scenario(minimal_doc(solver={"method": method}))
    doc = load_doc("single_obstacle")
    doc["solver"]["method"] = method
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    out = tmp_path / "bad_out"
    rc = run_cli("solve", "--scenario", str(bad), "--out", str(out))
    assert rc == 2
    text = (out / "FAILED.txt").read_text()
    assert text.startswith("MalformedDocument") and method in text
    assert not (out / "manifest.json").exists()


def test_nonfinite_filter_parameters_rejected_at_parse():
    for value in (float("nan"), float("inf")):
        with pytest.raises(MalformedDocument):
            Scenario(minimal_doc(filter={"gamma": value}))
        with pytest.raises(MalformedDocument):
            Scenario(minimal_doc(backstep={"mu": value})).build()


@pytest.mark.parametrize("text", ["nx: 1e12", "omega: x", "max_iters: a",
                                  "prob: 3.0", "axis: z"])
def test_cli_rejects_bad_values_with_failed_marker(tmp_path, text):
    doc = load_doc("single_obstacle")
    key, value = text.split(": ")
    if key == "nx":
        doc["grid"]["nx"] = value
    elif key in ("omega", "max_iters"):
        doc["solver"][key] = value
    elif key == "prob":
        doc["obstacles"][0]["prob"] = float(value)
    else:
        doc["obstacles"][0]["prob"] = {"axis": value, "from": 0.2, "to": 0.8}
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    out = tmp_path / "bad_out"
    rc = run_cli("solve", "--scenario", str(bad), "--out", str(out))
    assert rc == 2
    assert (out / "FAILED.txt").read_text().startswith("MalformedDocument")
    assert not (out / "manifest.json").exists()


def test_cli_rejects_nonfinite_coordinates_with_failed_marker(tmp_path):
    doc = load_doc("single_obstacle")
    doc["obstacles"][0]["center"] = [float("nan"), 1.6]
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    out = tmp_path / "bad_out"
    rc = run_cli("solve", "--scenario", str(bad), "--out", str(out))
    assert rc == 2
    text = (out / "FAILED.txt").read_text()
    assert text.startswith("MalformedDocument") and "center" in text
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("text", ["sweep_obstacle: a", "obstacle: 0.7"])
def test_cli_rejects_non_integer_obstacle_index(tmp_path, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(_bad_obstacle_index(text)))
    out = tmp_path / "bad_out"
    rc = run_cli("zones", "--scenario", str(bad), "--out", str(out))
    assert rc == 2
    assert (out / "FAILED.txt").read_text().startswith("MalformedDocument")
    assert not (out / "manifest.json").exists()


def test_cli_manifest_records_the_parsed_arguments(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["some-host-program", "--flag"])
    out = tmp_path / "solve"
    argv = ["solve", "--scenario", str(SCENARIOS / "single_obstacle.yaml"),
            "--out", str(out)]
    assert main(argv) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == " ".join(argv)


def test_cli_rejects_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: {nx: 8}\n")
    out = tmp_path / "bad_out"
    rc = run_cli("solve", "--scenario", str(bad), "--out", str(out))
    assert rc == 2
    assert "grid" in (out / "FAILED.txt").read_text()


@pytest.mark.parametrize("case", ["missing", "syntax", "binary", "directory"])
def test_cli_rejects_an_unreadable_document(tmp_path, case):
    path = tmp_path / "doc.yaml"
    if case == "syntax":
        path.write_text("grid: {nx: 24\nny: [\n")
    elif case == "binary":
        path.write_bytes(b"\xff\xfe\x00garbage")
    elif case == "directory":
        path.mkdir()
    out = tmp_path / "out"
    assert run_cli("solve", "--scenario", str(path), "--out", str(out)) == 2
    text = (out / "FAILED.txt").read_text()
    assert text.startswith("MalformedDocument") and str(path) in text
    assert not (out / "manifest.json").exists()
