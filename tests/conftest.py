"""Shared pytest configuration.

Prints the acceptance checklist (one line per criterion) at the end of the
run so the pass/fail status of each criterion is visible even when all
tests pass. Also provides ``null_builds``, which counts the Monte-Carlo null
builds.
"""

import inspect
import sys

import pytest

NULL_BUILDERS = ("calibrate_threshold", "calibrate_td_threshold", "_pipeline_null_ks")


@pytest.fixture
def null_builds(monkeypatch):
    """Wrap the three null builders in ``verdict``; the returned dict maps
    each builder's name to the ``workers`` value of every call it got."""
    from tailprobe import verdict

    calls = {name: [] for name in NULL_BUILDERS}
    for name in NULL_BUILDERS:
        fn = getattr(verdict, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[_name].append(bound.arguments["workers"])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verdict, name, counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
