"""The package API the benchmark drives directly.

bench/traced.py re-creates replicate_sfs one replicate at a time out of
SfsAggregate, simulator.run/extract_sfs/dense_sfs/window_counts and the
SimOutcome/SfsRecord fields; a change to any of them that the benchmark
does not follow shows up here as an error or a digest mismatch.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from rescue_sfs import montecarlo
from rescue_sfs.params import ModelParams

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import traced
        import workloads

        yield checks, traced, workloads
    finally:
        sys.path.remove(str(BENCH))


def test_traced_block_matches_replicate_sfs(bench):
    checks, traced, workloads = bench
    params = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=40
    )
    t_obs = 1.25 * math.log(40)
    windows = (0.5, 2.0)
    spec = workloads.SimSpec(t_obs, None, 10, windows, 20, "sbar", 5)
    agg, traced_ns = traced.traced_block(
        spec, {"params": params}, 7, 20, traced.Spans(), traced.SimTrace()
    )
    assert agg is not None and traced_ns > 0
    untraced = montecarlo.replicate_sfs(params, t_obs, 20, 7, i_max=10, windows=windows)
    assert checks.aggregate_problems(agg, 20) == []
    assert checks.aggregate_digest(agg) == checks.aggregate_digest(untraced)
