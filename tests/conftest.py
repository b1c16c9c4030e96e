"""Shared fixtures: reference parameter set and the heavy Monte Carlo runs
reused across acceptance criteria.

The heavy runs use two workers; replicate_sfs aggregates do not depend on
the worker count (test_replicate_sfs_equals_per_field_welford)."""

from __future__ import annotations

import math

import pytest

from rescue_sfs.montecarlo import replicate_sfs
from rescue_sfs.params import ModelParams

REF = ModelParams(
    b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500
)
T_MULT = 1.25  # 1 / lambda0
T_N = T_MULT * math.log(500)

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ref_agg_10k():
    """Reference-set run at desk scale (serves criteria 5 and 7)."""
    return replicate_sfs(
        REF,
        T_N,
        replicates=10_000,
        seed=20111,
        i_max=20,
        workers=2,
    )


@pytest.fixture(scope="session")
def ref_agg_50k():
    """Reference-set run at paper scale (serves criteria 7 and 8)."""
    return replicate_sfs(
        REF,
        T_N,
        replicates=50_000,
        seed=20222,
        i_max=121,
        windows=(0.6, 1.0, 2.0, 4.0, 6.0),
        workers=2,
    )
