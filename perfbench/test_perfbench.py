"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the benchmark at --size tiny, so they take about a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run

run.check_tree()

import inputs  # noqa: E402
import workloads  # noqa: E402
from riskfields.grid import ScalarField, VectorField  # noqa: E402
from riskfields.safety import GuidanceFieldBundle  # noqa: E402
from riskfields.scenario import Scenario  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "3",
              "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _corrupt(build):
    """The same build with its guidance field v sign-flipped."""
    v = build.gf.v
    flipped = VectorField(ScalarField(v.grid, -v.x.values),
                          ScalarField(v.grid, -v.y.values))
    return dataclasses.replace(
        build, gf=GuidanceFieldBundle(flipped, build.boundary))


def test_sign_flipped_guidance_counts_as_a_failed_op():
    doc = next(inputs.map_solve_docs(0, "tiny"))
    good = Scenario(doc).build()
    assert workloads.check_build(good) == []
    bad = _corrupt(good)
    assert any("-beta n_hat" in p for p in workloads.check_build(bad))

    class Corrupted:
        inputs = iter([doc])
        reference = ("sweeps",)

        def run(self, x):
            return bad

        def check(self, x, out):
            return workloads.check_outputs([out], [])

    res = run.run_loop(SimpleNamespace(seconds=1e-9), Corrupted(), None)
    assert res["attempted"] == 1
    assert len(res["failures"]) == 1
    assert res["ms"] == ([], [])


def _first(it, n=4):
    return [next(it) for _ in range(n)]


def _streams(seed):
    root = run.ROOT
    ddoc = inputs.load_doc(root, "single_obstacle")
    sdoc = inputs.load_doc(root, "semantic_room")
    mdoc = inputs.load_doc(root, "moving_block")
    sweep_doc, scales = inputs.flux_sweep_inputs(seed)
    return {
        "map_solve": _first(inputs.map_solve_docs(seed)),
        "flux_sweep": [sweep_doc] + _first(scales),
        "rollout": _first(inputs.rollout_starts(seed, ddoc, sdoc)),
        "dynamic_replay": _first(inputs.dynamic_docs(seed, mdoc)),
        "disk": inputs.disk_docs(seed),
    }


def test_same_seed_same_input_digest():
    a, b, c = _streams(5), _streams(5), _streams(6)
    for name in a:
        assert inputs.digest(a[name]) == inputs.digest(b[name]), name
        assert inputs.digest(a[name]) != inputs.digest(c[name]), name


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench("--workload", "map_solve", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


def test_relative_cost_divides_by_the_reference_times_around_the_op():
    # Four ops, with refs[k] measured before op k: the host turns twice as
    # slow while op 2 runs.
    refs = [10.0, 10.0, 10.0, 20.0, 20.0]
    passed = [(0, 500.0, False), (1, 500.0, True), (2, 750.0, False),
              (3, 1000.0, True)]
    untraced, traced = run.relative_costs(passed, refs)
    assert untraced == [50.0, 50.0]
    assert traced == [50.0, 50.0]
