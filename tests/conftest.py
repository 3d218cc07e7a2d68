"""Shared fixtures plus the acceptance checklist reporter.

The acceptance tests record one line each through the `acceptance`
fixture; after the run a summary block prints every criterion with its
measured numbers so a reviewer can read the pass/fail state without
digging through pytest output.  Every test must leave no worker process
running, and the session must leave the checkout's files as it found
them.
"""

import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from stobeam.grid import build_grid, build_grams
from stobeam.operators import from_bands, tension_bands


def build_T(lam, t, g):
    """The dense weak tractive matrix T(t) of `tension_bands`, exactly
    symmetric: the oracle that the banded and profile routes are held to."""
    return from_bands(tension_bands(lam, t, g))


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


_ROOT = Path(__file__).resolve().parents[1]


def _checkout_files():
    """path -> (size, mtime) of every file of the checkout outside .git/,
    .pytest_cache/ and __pycache__/."""
    found = {}
    for top, dirs, files in os.walk(_ROOT):
        dirs[:] = [d for d in dirs
                   if d not in (".git", ".pytest_cache", "__pycache__")]
        for name in files:
            path = os.path.join(top, name)
            st = os.lstat(path)
            found[os.path.relpath(path, _ROOT)] = st.st_size, st.st_mtime_ns
    return found


@pytest.fixture(scope="session", autouse=True)
def checkout_unchanged():
    """No test writes into the repository: every file of the checkout has
    the same size and mtime after the session as before it, and none is
    added or removed."""
    before = _checkout_files()
    yield
    after = _checkout_files()
    changed = sorted(p for p in before.keys() | after.keys()
                     if before.get(p) != after.get(p))
    assert not changed, f"the tests changed files of the checkout: {changed}"


@pytest.fixture(scope="session")
def grid16():
    return build_grid(1.0, 16)


@pytest.fixture(scope="session")
def g16(grid16):
    return build_grams(grid16, 1.0)


_CRITERIA = {
    1: "skew-adjointness of the stiff generator",
    2: "graph-norm identity",
    3: "tractive operator norm bound",
    4: "evolution family axioms and generator consistency",
    5: "propagator growth bound",
    6: "Picard vs Cayley cross-validation",
    7: "adjoint propagator duality",
    8: "energy conservation of the free flow",
    9: "noise trace condition",
    10: "Monte Carlo vs quadrature covariance",
    11: "weak-solution residual convergence",
    12: "nonhomogeneous slope shift",
    13: "byte-level reproducibility",
}

_recorded = {}


def _record(num: int, detail: str, ok: bool) -> None:
    _recorded[num] = (detail, bool(ok))


@pytest.fixture
def acceptance():
    """Callable (criterion number, detail string, passed flag)."""
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _recorded:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        if num in _recorded:
            detail, ok = _recorded[num]
            tag = "PASS" if ok else "FAIL"
        else:
            detail, tag = "", "NOT RUN"
        line = f"[{num:2d}] {tag:7s} {_CRITERIA[num]}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)
