"""The benchmark tracer's hold on the package: perfbench/tracing.py wraps
functions by (owner, attribute), so a rename or a deletion in src/ fails
here, not only in the slow `python -m pytest perfbench` run."""

from conftest import perfbench_module


def test_every_tracer_target_resolves():
    targets = perfbench_module("tracing").TARGETS
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
