import re

import pytest
from hypothesis import settings

from skeinkit import _sweep_py
from skeinkit.diagram import catalog_lookup
from skeinkit.errors import BudgetError
from skeinkit.jones import reduced_colored

# every property test draws the same examples on every run, so a failure
# reproduces; the sweeps' run time varies too much for a deadline
settings.register_profile("skeinkit", derandomize=True, deadline=None)
settings.load_profile("skeinkit")


@pytest.fixture(scope="session")
def colored():
    """Memoized reduced colored invariant of a catalog entry.

    Several modules need the same handful of (knot, color) values; the
    higher colors are the expensive part of the whole suite, so compute
    each exactly once per run.
    """
    cache = {}

    def get(name, n):
        key = (name, n)
        if key not in cache:
            cache[key] = reduced_colored(catalog_lookup(name), n)
        return cache[key]

    return get


@pytest.fixture
def sweep_trips(monkeypatch):
    """The BudgetErrors that leave the sweep kernel's ``run`` itself, each
    as (budget, called with a floor, called with an identity)."""
    sweep = _sweep_py.run
    tripped = []

    def watched(*args, **kwargs):
        try:
            return sweep(*args, **kwargs)
        except BudgetError as exc:
            tripped.append((exc.budget, kwargs.get("floor") is not None,
                            bool(kwargs.get("identity"))))
            raise

    monkeypatch.setattr(_sweep_py, "run", watched)
    return tripped


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per numbered acceptance criterion."""
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          nodeid)
            if m and getattr(rep, "when", "call") == "call":
                results[int(m.group(1))] = status
    if not results:
        return
    try:
        import test_acceptance as acc
    except ImportError:
        return
    tw = terminalreporter
    tw.write_sep("-", "acceptance criteria")
    for k in sorted(acc.CRITERIA):
        if k not in results:
            continue
        ok = results[k] == "passed"
        note = acc.SOFT_NOTES.get(k)
        word = "PASS" if ok else "FAIL"
        line = f"[{word}] criterion {k:2d}: {acc.CRITERIA[k]}"
        if note:
            line += f"  [soft miss: {note}]"
        tw.write_line(line, green=ok, red=not ok)
