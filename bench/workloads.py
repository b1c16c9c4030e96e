"""The benchmark workloads, untraced.

Each workload is a closed loop in one process (one client, workers=1): the
next experiment starts when the previous one returns, until ``seconds`` have
passed.  Experiment b of a run with seed s uses the master seed
``block_seed(s, b)``, so a seed fixes the inputs whatever the speed; a
faster commit only runs more of them.  The reported ``ops_per_s`` is the
median over experiments of operations per second, each scaled to nominal
machine speed by a calibration kernel of the same kind of work, timed just
before and after it (see calibrate.py); the raw median is printed and
recorded beside it.

- ref_sfs: replicate_sfs at configs/reference.cfg, i_max=121, windows
  0.6,1,2,4,6.  About 3.7k events per replicate; the simulator's per-event
  cost dominates.
- clone_sfs: replicate_sfs from one resistant founder, t=2, i_max=10.
  About 7.5 events per replicate, so per-replicate overhead in montecarlo
  (seeding, Random construction, Welford updates) dominates.
- theory_curves: the gate and figure curves at the reference set plus one
  near-critical shape curve; only theory works.

The CLI is not an untraced workload: a fresh-interpreter `rescue-sfs
simulate` call mixes about 1.3 s of package import, whose speed drifts
independently of the calibration kernel, with the simulation, and no
normalisation brought its run-to-run spread under 20%.  Every traced run
times one in-process CLI call instead (traced.py), and set-up time covers
the import on every workload.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass, replace

import calibrate
import checks
from rescue_sfs import montecarlo as mc
from rescue_sfs import theory as th
from rescue_sfs.params import derive
from rescue_sfs.simulator import PopulationCapError

REF_I_MAX = 121
REF_WINDOWS = (0.6, 1.0, 2.0, 4.0, 6.0)
NEAR_CRITICAL_RHO = 0.99


def block_seed(seed: int, block: int) -> int:
    """Master seed of experiment ``block`` in a run with seed ``seed``."""
    return (seed << 20) + block


@dataclass(frozen=True)
class SimSpec:
    """One replicate experiment and its statistical gate."""

    t_obs: float
    initial: tuple[int, int] | None
    i_max: int
    windows: tuple[float, ...]
    block: int  # replicates per replicate_sfs call
    gate_kind: str  # the SFS component gated against theory
    gate_i: int  # gate over i = 1..gate_i


def sim_spec(workload: str, ctx: dict) -> SimSpec:
    if workload == "clone_sfs":
        return SimSpec(2.0, (0, 1), 10, (), 2048, "s", 10)
    return SimSpec(ctx["t_obs"], None, REF_I_MAX, REF_WINDOWS, 32, "sbar", 20)


def gate_theory(spec: SimSpec, ctx: dict) -> list[float]:
    """Exact expectations the gated component is compared against."""
    p = ctx["params"]
    idx = range(1, spec.gate_i + 1)
    if spec.initial == (0, 1):
        return [th.single_clone_sfs(i, spec.t_obs, p.b1, p.d1, p.omega).value for i in idx]
    t = spec.t_obs / math.log(p.n_init)
    return [th.resistant_origin_mean_exact(i, t, p).value for i in idx]


class Clock:
    """Experiment rates, raw and scaled by the calibration kernel of the
    given kind timed before and after each experiment."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.nominal = calibrate.NOMINAL_S[kernel]
        self.cal = calibrate.measure(kernel)
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.cals: list[float] = []

    def record(self, ops: int, seconds: float) -> None:
        cal_next = calibrate.measure(self.kernel)
        cal = (self.cal + cal_next) / 2.0
        self.raw.append(ops / seconds)
        self.scaled.append(ops / seconds * cal / self.nominal)
        self.cals.append(cal)
        self.cal = cal_next

    def skip(self) -> None:
        self.cal = calibrate.measure(self.kernel)

    def ops_per_s(self) -> float:
        return statistics.median(self.scaled) if self.scaled else 0.0

    def summary(self, what: str) -> str:
        if not self.scaled:
            return f"{what} = 0 (no experiment succeeded)"
        speed = self.nominal / statistics.median(self.cals)
        return (
            f"{what} = {self.ops_per_s():.6g} 1/s at nominal speed "
            f"({_spread_note(self.scaled, '1/s')}); raw {statistics.median(self.raw):.6g} 1/s "
            f"at measured speed x{speed:.3f} of nominal ({self.kernel} kernel)"
        )


def _spread_note(samples, unit: str) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"median of n={len(samples)}, q1={q1:.6g} q3={q3:.6g} {unit}"


def _result(attempted, failed, problems, clock: Clock, lines, digest: str) -> dict:
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems and failed == 0,
        "problems": problems[:20],
        "lines": lines,
        "metrics": {
            "ops_per_s": {
                "value": clock.ops_per_s(),
                "unit": "1/s",
                "note": _spread_note(clock.scaled, "1/s"),
            }
        },
        "raw_ops_per_s": statistics.median(clock.raw) if clock.raw else 0.0,
        "digest": digest,
    }


# ---------------------------------------------------------------------------
# ref_sfs / clone_sfs
# ---------------------------------------------------------------------------


def run_sim(workload: str, ctx: dict, seed: int, seconds: float) -> dict:
    spec = sim_spec(workload, ctx)
    p = ctx["params"]
    total = None
    call_ms, problems = [], []
    attempted = failed = 0
    digest = ""
    clock = Clock("interpreter")
    deadline = time.perf_counter() + seconds
    b = 0
    while b == 0 or time.perf_counter() < deadline:
        attempted += spec.block
        t0 = time.perf_counter()
        try:
            agg = mc.replicate_sfs(
                p,
                spec.t_obs,
                spec.block,
                block_seed(seed, b),
                initial=spec.initial,
                i_max=spec.i_max,
                windows=spec.windows,
                workers=1,
            )
        except (PopulationCapError, th.QuadratureError) as exc:
            failed += spec.block
            problems.append(f"call {b}: {exc!r}")
            clock.skip()
            b += 1
            continue
        dt = time.perf_counter() - t0
        if b == 0:
            digest = checks.aggregate_digest(agg)
        bad = checks.aggregate_problems(agg, spec.block)
        if bad:
            failed += spec.block
            problems += [f"call {b}: {m}" for m in bad]
            clock.skip()
        else:
            clock.record(spec.block, dt)
            call_ms.append(dt * 1e3)
            if total is None:
                total = agg
            else:
                total.merge(agg)
        b += 1

    lines = []
    if total is not None:
        merged = attempted - failed
        problems += [f"merged: {m}" for m in checks.aggregate_problems(total, merged)]
        gate_problems, gate_line = checks.gate(total.stats(spec.gate_kind), gate_theory(spec, ctx))
        lines.append(f"{spec.gate_kind} {gate_line}")
        if gate_problems:
            problems += gate_problems
            failed = attempted
    pct, tail = checks.tail_percentile(call_ms) if call_ms else (0.0, 0.0)
    lines += [
        clock.summary("replicates_per_s") + f"; {spec.block} replicates per replicate_sfs call",
        f"call time p50 = {statistics.median(call_ms) if call_ms else 0:.4g} ms, "
        f"p{pct:g} = {tail:.4g} ms over {len(call_ms)} calls",
        f"digest {digest} (aggregate of call 0, master seed {block_seed(seed, 0)})",
    ]
    return _result(attempted, failed, problems, clock, lines, digest)


# ---------------------------------------------------------------------------
# theory_curves
# ---------------------------------------------------------------------------


def theory_curves(ctx: dict) -> list[tuple[str, list, object, bool]]:
    """(name, indices, function, takes tol) for every curve the gates and
    figures use, at the reference set, plus I at a near-critical rho."""
    p, dp = ctx["params"], ctx["dp"]
    t = ctx["t_obs"] / math.log(p.n_init)
    tol = th.DEFAULT_TOL
    rho_near = derive(replace(p, d1=NEAR_CRITICAL_RHO * p.b1)).rho
    i_grid = list(range(1, REF_I_MAX + 1))
    x_grid = [round(0.6 + 0.1 * k, 1) for k in range(55)]  # 0.6 .. 6.0
    return [
        ("exact_mean", i_grid, lambda i: th.resistant_origin_mean_exact(i, t, p, tol), True),
        ("P", i_grid, lambda i: th.resistant_origin_main_term(i, t, p, tol), True),
        ("Q", i_grid, lambda i: th.sensitive_origin_main_term(i, t, p, tol), True),
        ("thm1", i_grid, lambda i: th.sfs_small_asymptotic(i, t, p), False),
        ("I", i_grid, lambda i: th.shape_integral(i, dp.rho), False),
        ("K", x_grid, lambda x: th.window_weight_resistant(x, dp, tol), True),
        ("L", x_grid, lambda x: th.window_weight_sensitive(x, dp, tol), True),
        ("Kslope", x_grid, lambda x: th.window_weight_resistant_slope(x, dp, tol), True),
        ("window_exact", x_grid, lambda x: th.resistant_origin_window_exact(x, t, p, tol), True),
        (
            "window_sensitive",
            x_grid,
            lambda x: th.sensitive_origin_window_main(x, t, p, tol),
            True,
        ),
        ("I_near_critical", i_grid, lambda i: th.shape_integral(i, rho_near), False),
    ]


def evaluate_curve(fn, indices) -> tuple[list, list[str]]:
    """TheoryValues of one curve (None where the call raised) and problems."""
    values, problems = [], []
    for idx in indices:
        try:
            values.append(fn(idx))
        except (th.QuadratureError, ValueError, OverflowError, ZeroDivisionError) as exc:
            values.append(None)
            problems.append(f"{idx}: {exc!r}")
    return values, problems


def curve_summary(curves, results) -> tuple[int, list[str], str, float]:
    """(failed values, problems, digest, max error bound over tol) of one pass;
    ``results`` maps curve name to its evaluate_curve output."""
    failed = 0
    problems: list[str] = []
    h = hashlib.sha256()
    err_over_tol = 0.0
    for name, _indices, _fn, takes_tol in curves:
        values, raised = results[name]
        floats = [v.value if v is not None else math.nan for v in values]
        bad = checks.bad_values(floats)
        failed += len(bad)
        problems += [f"{name} {m}" for m in raised]
        if bad:
            problems.append(f"{name}: {len(bad)} values not finite and positive, e.g. {bad[0]!r}")
        h.update(f"{name}:{','.join(repr(v) for v in floats)}\n".encode())
        if takes_tol:
            bounds = [v.abs_error_bound for v in values if v is not None]
            if bounds:
                err_over_tol = max(err_over_tol, max(bounds) / th.DEFAULT_TOL)
    return failed, problems, h.hexdigest(), err_over_tol


def run_theory(ctx: dict, seed: int, seconds: float) -> dict:
    curves = theory_curves(ctx)
    order = list(curves)
    shuffle = random.Random(seed).shuffle
    per_pass = sum(len(c[1]) for c in curves)
    problems = []
    attempted = failed = 0
    digest = ""
    err_over_tol = 0.0
    clock = Clock("quadrature")
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        shuffle(order)  # the seed only orders the curves; values do not depend on it
        results = {}
        t0 = time.perf_counter()
        for name, indices, fn, _ in order:
            results[name] = evaluate_curve(fn, indices)
        dt = time.perf_counter() - t0
        attempted += per_pass
        bad_values, bad, pass_digest, err_over_tol = curve_summary(curves, results)
        if k == 0:
            digest = pass_digest
        elif pass_digest != digest:
            bad.append(f"pass {k}: values differ from pass 0")
            bad_values = per_pass
        failed += bad_values
        problems += bad
        clock.record(per_pass, dt)
        k += 1
    lines = [
        clock.summary("values_per_s") + f"; {per_pass} values per pass",
        f"err_over_tol_max = {err_over_tol:.6g} (largest abs_error_bound / tol={th.DEFAULT_TOL:g}; "
        "recorded, not gated)",
        f"digest {digest} (all values of one pass)",
    ]
    return _result(attempted, failed, problems, clock, lines, digest)


def run(workload: str, ctx: dict, seed: int, seconds: float) -> dict:
    if workload == "theory_curves":
        return run_theory(ctx, seed, seconds)
    return run_sim(workload, ctx, seed, seconds)
