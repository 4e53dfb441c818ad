"""Scenario documents, the build chain, and the command-line surface."""

import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest
import scipy
import yaml

from riskfields.cli import main
from riskfields.errors import MalformedDocument
from riskfields.scenario import Scenario, load_scenario

from conftest import SCENARIOS


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
    m = sc._masks[0]
    ii, jj = np.nonzero(m)
    p = g.prob[ii, jj]
    assert p.min() == 0.0 and p.max() == 1.0
    assert np.all(np.diff(p[np.argsort(jj, kind="stable")]) >= 0.0)


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
    m = sc._masks[0]
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
    m = sc._masks[0]
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
    k = b.node_at_cell(5, 4)  # touches one 'a' and one 'b' neighbor
    assert k is not None
    assert feats[k].value == sc.label_ids["a"]  # tie goes to the smaller id
    k2 = b.node_at_cell(3, 4)  # touches only 'a'
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


def test_flux_scale_scalar_and_dict(three_build):
    sc, base = three_build
    doubled = sc.build(flux_scale=2.0)
    assert np.allclose(doubled.boundary.flux, 2.0 * base.boundary.flux)
    only0 = sc.build(flux_scale={0: 3.0})
    owners = sc.obstacle_components(base.grid, base.boundary)
    comps0 = owners[0]
    assert comps0
    pick = np.isin(base.boundary.comp, list(comps0))
    assert np.allclose(only0.boundary.flux[pick],
                       3.0 * base.boundary.flux[pick])
    assert np.array_equal(only0.boundary.flux[~pick],
                          base.boundary.flux[~pick])


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
    rc = run_cli("solve", "--scenario",
                 str(SCENARIOS / "disk_oracle.yaml"), "--out", str(out),
                 "--dump-fields")
    assert rc == 0
    report = json.loads((out / "build_report.json").read_text())
    assert report["divergence_residual"] < 0.05
    assert 0.005 < report["disk_oracle_max_err"] < 0.03  # measured 2.14e-2
    for f in ("h.csv", "vx.csv", "vy.csv", "manifest.json"):
        assert (out / f).exists()
    man = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256(
        (SCENARIOS / "disk_oracle.yaml").read_bytes()).hexdigest()
    assert man["scenario_sha256"] == digest
    assert "seed" not in man
    assert man["scipy_version"] == scipy.__version__
    assert man["pyyaml_version"] == yaml.__version__
    assert man["outputs"] == sorted(man["outputs"])
    h = np.loadtxt(out / "h.csv", delimiter=",")
    assert h.shape == (101, 101)


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


@pytest.mark.parametrize("gammas", ["nan", "inf", "1,-2"])
def test_cli_sweep_rejects_bad_gammas(tmp_path, gammas):
    out = tmp_path / "sweep_bad"
    rc = run_cli("sweep", "--scenario",
                 str(SCENARIOS / "single_obstacle.yaml"), "--out", str(out),
                 "--scales", "1", "--gammas", gammas)
    assert rc == 2
    assert "--gammas" in (out / "FAILED.txt").read_text()


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


def test_cli_rejects_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: {nx: 8}\n")
    out = tmp_path / "bad_out"
    rc = run_cli("solve", "--scenario", str(bad), "--out", str(out))
    assert rc == 2
    assert "grid" in (out / "FAILED.txt").read_text()
