"""Shared fixtures and the acceptance-summary hook.

Scenario builds cost a few hundred ms each, so they are session scoped.
Fixtures hand back (scenario, build) so tests can reach both the parsed
document and the realized fields.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from riskfields.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def build_scenario(name, **kw):
    sc = load_scenario(str(SCENARIOS / f"{name}.yaml"))
    return sc, sc.build(**kw)


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", SCENARIOS.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flux_sweep_doc(seed):
    """The benchmark's flux_sweep document and first scale for a seed."""
    doc, scales = perfbench_module("inputs").flux_sweep_inputs(seed)
    return doc, {0: next(scales)}


@pytest.fixture(scope="session")
def disk_build():
    return build_scenario("disk_oracle")


@pytest.fixture(scope="session")
def single_build():
    return build_scenario("single_obstacle")


@pytest.fixture(scope="session")
def three_build():
    return build_scenario("three_obstacles")


@pytest.fixture(scope="session")
def uncertain_build():
    return build_scenario("uncertain_wall")


@pytest.fixture(scope="session")
def semantic_build():
    return build_scenario("semantic_room")


# -- acceptance reporting -----------------------------------------------------
# One line per acceptance criterion at the end of the run.  An expected
# failure (strict xfail) still prints FAIL so nobody mistakes it for a pass.

_CRIT = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_results = {}


def pytest_runtest_logreport(report):
    m = _CRIT.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call":
        if hasattr(report, "wasxfail"):
            _results[num] = "FAIL (expected: known discretization limit)"
        elif report.passed:
            _results[num] = "PASS"
        elif report.failed:
            _results[num] = "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        _results[num] = "FAIL (setup)" if report.failed else "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        terminalreporter.write_line(f"criterion {num}: {_results[num]}")
