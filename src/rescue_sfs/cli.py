"""Command-line entry point: simulate / theory / gw / compare / figures.

Every command resolves its configuration (config file plus overrides),
writes CSV outputs under --out-dir, and finishes with a manifest.json
listing each output file with its SHA-256 digest; re-running with the same
config and seed reproduces identical digests.

Only the commands that build arrays load numpy: the Monte Carlo runs import
``montecarlo`` on first use and fig2 imports numpy for its histogram, so
``theory``, ``gw`` and fig7 run on the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from random import Random

import rescue_sfs
from rescue_sfs import gw_trees, simulator, theory
from rescue_sfs.params import (
    CONFIG_SCHEMA,
    ConfigError,
    DerivedParams,
    ModelParams,
    ParameterError,
    RunConfig,
    derive,
    derive_from_gamma_n,
    load_config,
    log_time,
    observation_time,
)

# below this many replicates the SEM behind compare's z-score gate is itself
# noisy: at 25 replicates |z| <= 3 fails on about 5% of seeds for an exact
# simulator
_Z_GATE_MIN_REPLICATES = 200


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_columns(path: str, header: list[str], *columns) -> None:
    """Write equal-length columns side by side; a bare int (the replicate
    count) fills its whole column."""
    n = max(len(c) for c in columns if not isinstance(c, int))
    _write_csv(path, header, zip(*([c] * n if isinstance(c, int) else c for c in columns)))


class _OutputSet:
    """Tracks files written by one command; removes them all on failure."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.paths: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.paths:
            try:
                os.unlink(p)
            except FileNotFoundError:
                pass

    def manifest_entries(self) -> list[dict]:
        return [{"path": p, "sha256": _sha256(p)} for p in self.paths if os.path.exists(p)]


def _run(args: argparse.Namespace) -> int:
    """Resolve the config (the file's values with the flags that were
    given on top) and run one command; a failing command leaves none of its
    outputs behind, a finished one gets a manifest."""
    started = time.time()
    overrides = {key: getattr(args, key) for key in CONFIG_SCHEMA if getattr(args, key) is not None}
    cfg = load_config(args.config, overrides)
    outputs = _OutputSet(args.out_dir)
    try:
        rc = args.func(args, cfg, outputs)
    except Exception:
        outputs.cleanup()
        raise
    manifest = {
        "command": f"figures:{args.which}" if args.command == "figures" else args.command,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "version": rescue_sfs.__version__,
        "started": started,
        "finished": time.time(),
        "outputs": outputs.manifest_entries(),
    }
    with open(os.path.join(outputs.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out-dir", default="out", help="output directory")
    for key, kind in CONFIG_SCHEMA.items():
        flag = f"--{key.replace('_', '-')}"
        parser.add_argument(flag, type=kind, dest=key, help=f"override config key {key}")


def _replicates(args, cfg: RunConfig, i_max: int, windows=(), on_record=None):
    """The configured Monte Carlo run, aggregated over i = 1..i_max and
    the given window lower edges, on --workers processes or one per core."""
    from rescue_sfs import montecarlo

    workers = args.workers if args.workers is not None else os.cpu_count() or 1
    return montecarlo.replicate_sfs(
        cfg.params,
        observation_time(cfg.observation, cfg.params),
        cfg.replicates,
        cfg.seed,
        i_max=i_max,
        windows=windows,
        workers=workers,
        on_record=on_record,
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig, outputs: _OutputSet) -> int:
    windows = _parse_grid(args.windows) if args.windows else ()
    with open(outputs.path("per_replicate.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "i", "s", "sbar", "sunder"])

        def write_record(r: int, record: simulator.SfsRecord) -> None:
            writer.writerows(
                [r, i, m, record.s_resistant_origin.get(i, 0), record.s_sensitive_origin.get(i, 0)]
                for i, m in sorted(record.s.items())
            )

        agg = _replicates(args, cfg, args.i_max, windows, on_record=write_record)
    s, sbar, sunder = (agg.stats(kind) for kind in ("s", "sbar", "sunder"))
    _write_columns(
        outputs.path("aggregate.csv"),
        ["i", "mean_S", "mean_Sbar", "mean_Sunder", "ci_lo", "ci_hi", "replicates"],
        range(1, agg.i_max + 1),
        s.mean,
        sbar.mean,
        sunder.mean,
        s.mean - s.ci_halfwidth,
        s.mean + s.ci_halfwidth,
        agg.replicates,
    )
    if windows:
        s, sbar, sunder = (agg.window_stats(kind) for kind in ("s", "sbar", "sunder"))
        _write_columns(
            outputs.path("windows.csv"),
            ["x", "mean_S_window", "mean_Sbar_window", "mean_Sunder_window", "ci_halfwidth", "replicates"],
            agg.windows,
            s.mean,
            sbar.mean,
            sunder.mean,
            s.ci_halfwidth,
            agg.replicates,
        )
    config_echo = outputs.path("config_resolved.json")
    with open(config_echo, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg) | {"t_obs": agg.t_obs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if not vals:
        raise ConfigError(f"empty grid {text!r}")
    if any(math.isnan(v) for v in vals):
        raise ConfigError(f"grid {text!r} holds nan")
    return vals


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def _tol(args: argparse.Namespace) -> float:
    if not 0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
    return args.tol


def _samples(args: argparse.Namespace, default: int) -> int:
    """--samples, or the command's default when it is not given."""
    return default if args.samples is None else _at_least_one("--samples", args.samples)


def _parse_irange(text: str) -> list[int]:
    lo, _, hi = text.partition(":")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"bad i-range {text!r} (want LO:HI)") from exc
    if lo_i < 1:
        raise ConfigError(f"i-range {text!r} starts below 1")
    if hi_i < lo_i:
        raise ConfigError(f"empty i-range {text!r}")
    return list(range(lo_i, hi_i + 1))


@dataclass(frozen=True)
class _TheoryInputs:
    """What a theory row reads besides its index."""

    params: ModelParams
    dp: DerivedParams
    t: float  # log-time multiplier
    t_abs: float
    tol: float
    i: int  # carrier count for hi
    u: float  # clone age for kappa


def _theory_inputs(
    cfg: RunConfig, tol: float = theory.DEFAULT_TOL, i: int = 1, u: float = 1.0
) -> _TheoryInputs:
    """The inputs of the formula table at a run config."""
    params = cfg.params
    t, t_abs = log_time(cfg.observation, params), observation_time(cfg.observation, params)
    return _TheoryInputs(params, derive(params), t, t_abs, tol, i, u)


def _value(tv: theory.TheoryValue, asymptotic="") -> tuple:
    """The (exact, asymptotic, error_bound) columns of one theory row."""
    return tv.value, asymptotic, tv.abs_error_bound


def _asymptote(tv: theory.TheoryValue) -> tuple:
    """Columns of a row whose formula is itself the asymptote."""
    return _value(tv, tv.value)


# formula id -> (index kind, row columns of one index).  Index kinds: "i"
# runs over --i-range, "x" over --x-grid, "windows" over the consecutive
# --x-grid windows (x1, x2) with the last one open, "none" is one row at 0.
_FORMULAS = {
    "I": ("i", lambda i, c: _value(theory.shape_integral(i, c.dp.rho))),
    "hi": (
        "x",
        lambda x, c: _value(
            theory.shape_integral_truncated(c.i, x, c.dp.rho),
            theory.shape_integral(c.i, c.dp.rho).value,
        ),
    ),
    "kappa": ("i", lambda i, c: (theory.clone_size_pmf(i, c.u, c.params.b1, c.params.d1), "", 0.0)),
    "K": ("x", lambda x, c: _value(theory.window_weight_resistant(x, c.dp, c.tol))),
    "L": ("x", lambda x, c: _value(theory.window_weight_sensitive(x, c.dp, c.tol))),
    "Kslope": ("x", lambda x, c: _value(theory.window_weight_resistant_slope(x, c.dp, c.tol))),
    "thm1": ("i", lambda i, c: _asymptote(theory.sfs_small_asymptotic(i, c.t, c.params))),
    "thm2": (
        "windows",
        lambda w, c: _asymptote(theory.sfs_window_asymptotic(*w, c.t, c.params, c.tol)),
    ),
    "P": (
        "i",
        lambda i, c: _value(
            theory.resistant_origin_main_term(i, c.t, c.params, c.tol),
            theory.sfs_small_asymptotic(i, c.t, c.params).value,
        ),
    ),
    "Q": ("i", lambda i, c: _value(theory.sensitive_origin_main_term(i, c.t, c.params, c.tol))),
    # the exact comparators of compare's z-score gates
    "exact-sbar": ("i", lambda i, c: _value(theory.resistant_origin_mean_exact(i, c.t, c.params, c.tol))),
    "exact-sbar-window": (
        "x",
        lambda x, c: _value(theory.resistant_origin_window_exact(x, c.t, c.params, c.tol)),
    ),
    "gn": ("i", lambda g, c: (gw_trees.geometric_pmf(c.dp.x_n, g), "", 0.0)),
    "tn": ("x", lambda x, c: (theory.appearance_time_pdf(c.dp, x), "", 0.0)),
    "tilde-gn": ("i", lambda g, c: (gw_trees.any_mark_pmf(c.dp.p_n, c.dp.p_tilde_n, g), "", 0.0)),
    "tilde-tn": ("x", lambda x, c: (theory.appearance_time_pdf_any(c.dp, x), "", 0.0)),
    "anc-count": ("none", lambda _, c: (*theory.ancestral_count_mean(c.params), 0.0)),
    "anc-one": ("none", lambda _, c: (*theory.prob_one_ancestral(c.dp), 0.0)),
    "anc-multi": ("none", lambda _, c: (*theory.multi_ancestral_mean(c.dp), 0.0)),
    "clone-sfs": (
        "i",
        lambda i, c: _value(
            theory.single_clone_sfs(i, c.t_abs, c.params.b1, c.params.d1, c.params.omega),
            theory.single_clone_sfs_asymptotic(i, c.t_abs, c.params.b1, c.params.d1, c.params.omega),
        ),
    ),
}

FORMULA_IDS = tuple(_FORMULAS)


def _theory_rows(args, cfg: RunConfig):
    """(header, rows) for one formula id over the requested range."""
    fid = args.formula
    i_list = _parse_irange(args.i_range) if args.i_range else None
    x_list = _parse_grid(args.x_grid) if args.x_grid else None
    if fid not in _FORMULAS:
        raise ConfigError(f"unknown formula id {fid!r}; valid ids: {', '.join(FORMULA_IDS)}")
    kind = _FORMULAS[fid][0]
    if kind == "none":
        indices, points = [0], [None]
    elif kind == "i":
        if not i_list:
            raise ConfigError(f"formula {fid!r} needs --i-range")
        indices = points = i_list
    else:
        if not x_list:
            raise ConfigError(f"formula {fid!r} needs --x-grid")
        indices = points = x_list
        if kind == "windows":
            if len(x_list) < 2:
                raise ConfigError(f"{fid} needs an --x-grid with at least two points")
            points = list(zip(x_list, x_list[1:] + [math.inf]))
    columns = _evaluate(fid, points, _theory_inputs(cfg, _tol(args), args.i, args.u))
    rows = [(index, *cols, fid) for index, cols in zip(indices, columns)]
    return ["index_or_x", "exact", "asymptotic", "error_bound", "formula_id"], rows


def _evaluate(fid: str, points, inputs: _TheoryInputs, what: str = "") -> list[tuple]:
    """The (exact, asymptotic, error_bound) columns of formula fid at each
    point, for theory, compare and figures alike; a failing call is a config
    error about `what` (by default the formula)."""
    row = _FORMULAS[fid][1]
    with _theory_domain(what or f"formula {fid!r}"):
        return [row(point, inputs) for point in points]


def _exact(fid: str, points, inputs: _TheoryInputs, what: str = "") -> list:
    """The exact column of formula fid at each point."""
    return [cols[0] for cols in _evaluate(fid, points, inputs, what)]


@contextlib.contextmanager
def _theory_domain(what: str):
    """Report a theory call or tree law outside its domain, a value too large
    for a float, or a quadrature that cannot meet its tol as a config error."""
    try:
        yield
    except OverflowError as exc:  # its text is an errno tuple or "math range error"
        raise ConfigError(f"{what}: a value passes the float range") from exc
    except (ValueError, theory.QuadratureError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def cmd_theory(args: argparse.Namespace, cfg: RunConfig, outputs: _OutputSet) -> int:
    header, rows = _theory_rows(args, cfg)
    _write_csv(outputs.path(f"theory_{args.formula.replace('-', '_')}.csv"), header, rows)
    return 0


# ---------------------------------------------------------------------------
# gw
# ---------------------------------------------------------------------------


def cmd_gw(args: argparse.Namespace, cfg: RunConfig, outputs: _OutputSet) -> int:
    dp = derive(cfg.params)
    p = args.p if args.p is not None else dp.p_n
    beta = args.beta if args.beta is not None else dp.beta_n
    g_max = _at_least_one("--g-max", args.g_max)
    with _theory_domain("tree law"):
        law = gw_trees.GwLaw(p=p, beta=beta)
    if args.root_excluded and p == 0:
        raise ConfigError("--root-excluded with p = 0: the root never divides, so no tree has a mark")
    # any_mark_pmf is the law of root-included trees; root-excluded trees
    # with at least one mark follow another law, which the package lacks
    if args.root_excluded and args.condition == gw_trees.CONDITION_AT_LEAST_ONE:
        raise ConfigError(
            "--condition at-least-one-mark with --root-excluded: no theory law for root-excluded "
            "trees with at least one mark"
        )
    rng = Random(cfg.seed)
    samples = []
    for _ in range(_samples(args, 10_000)):
        s = gw_trees.sample_conditioned(law, args.condition, rng, root_excluded=args.root_excluded)
        g = s.generation if args.root_excluded else s.generation + 1
        samples.append(g)
    if args.condition == gw_trees.CONDITION_EXACTLY_ONE:
        pmf = partial(gw_trees.geometric_pmf, law.x)
    else:
        pmf = partial(gw_trees.any_mark_pmf, law.p, gw_trees.p_tilde(1.0 - law.beta, law.p))
    rows = gw_trees.pmf_table(samples, pmf, g_max=g_max)
    _write_csv(outputs.path("gw_pmf.csv"), ["g", "pmf_theory", "pmf_empirical", "count"], rows)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace, cfg: RunConfig, outputs: _OutputSet) -> int:
    inputs = _theory_inputs(cfg, _tol(args))
    if not 0 <= args.threshold < math.inf:
        raise ConfigError(f"--threshold must be finite and >= 0, got {args.threshold}")
    # theory before the simulation, so that parameters the theory cannot
    # evaluate fail at once
    if args.what == "small-i":
        tvals = _exact("exact-sbar", range(1, args.i_max + 1), inputs, "exact mean")
        stats = _replicates(args, cfg, args.i_max).stats("sbar")
        what = "sbar vs exact mean"
    else:
        windows = _parse_grid(args.windows or "0.6,1,2,4,6")
        if args.mode == "z-score":
            # tight gate: the exact finite-N window expectation
            tvals = _exact("exact-sbar-window", windows, inputs, "window theory")
            what = "sbar windows vs exact"
        else:
            scale = theory.window_scale(cfg.params)
            tvals = [scale * k for k in _exact("K", windows, inputs, "window theory")]
            what = "sbar windows vs asymptotic"
        stats = _replicates(args, cfg, 1, windows).window_stats("sbar")
    if args.mode == "z-score" and cfg.replicates < _Z_GATE_MIN_REPLICATES:
        print(
            f"warning: the z-score gate runs on {cfg.replicates} replicates, fewer than "
            f"{_Z_GATE_MIN_REPLICATES}; its SEM is too noisy for a failure to say much",
            file=sys.stderr,
        )
    from rescue_sfs import montecarlo

    report = montecarlo.compare(
        stats,
        tvals,
        mode=args.mode,
        threshold=args.threshold,
        metadata={"what": what, "replicates": cfg.replicates},
    )
    with open(outputs.path("report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_csv(
        outputs.path("report.csv"),
        ["index", "empirical_mean", "empirical_sem", "theory", "z", "rel_gap", "passed"],
        report.rows(),
    )
    if not report.all_passed:
        zero_sem = ", ".join(f"{x:g}" for x in report.indices[report.empirical_sem == 0])
        print(
            f"gate FAILED: {report.pass_fraction:.1%} of indices passed "
            f"({args.mode} <= {args.threshold})"
            + (f"; SEM is 0 at index {zero_sem}" if zero_sem else ""),
            file=sys.stderr,
        )
        return 1
    print(f"gate passed: all {report.indices.size} indices within threshold")
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def cmd_figures(args: argparse.Namespace, cfg: RunConfig, outputs: _OutputSet) -> int:
    _FIGURE_BUILDERS[args.which](args, cfg, outputs)
    return 0


def _fig2(args, cfg: RunConfig, outputs: _OutputSet) -> None:
    """Founder generation and appearance-time laws at two resistance levels."""
    import numpy as np

    samples = _samples(args, 100_000)
    base = _theory_inputs(cfg)
    rows_g = []
    rows_t = []
    for gamma_n in (0.2, 0.002):
        dp = derive_from_gamma_n(1.0, 2.0, cfg.params.b1, cfg.params.d1, gamma_n)
        inputs = dataclasses.replace(base, dp=dp)
        law = gw_trees.GwLaw(p=dp.p_n, beta=dp.beta_n)
        rng = Random(cfg.seed)
        gens = []
        times = []
        for _ in range(samples):
            s = gw_trees.sample_conditioned(
                law, gw_trees.CONDITION_EXACTLY_ONE, rng, root_excluded=True, delta0=dp.delta0
            )
            gens.append(s.generation)
            times.append(s.lifetime)
        table = gw_trees.pmf_table(gens, lambda g: _exact("gn", [g], inputs)[0])
        rows_g += [(gamma_n, *row) for row in table]
        hist, edges = np.histogram(times, bins=60, range=(0.0, max(times)))
        widths = np.diff(edges)
        mids = [0.5 * (edges[k] + edges[k + 1]) for k in range(len(hist))]
        pdf = _exact("tn", mids, inputs)
        for k, count in enumerate(hist):
            rows_t.append((gamma_n, mids[k], pdf[k], count / (samples * widths[k]), int(count)))
    _write_csv(outputs.path("fig2_gn.csv"), ["gamma_n", "g", "pmf_theory", "pmf_empirical", "count"], rows_g)
    _write_csv(
        outputs.path("fig2_tn.csv"),
        ["gamma_n", "t", "pdf_theory", "pdf_empirical", "count"],
        rows_t,
    )


def _fig3(args, cfg: RunConfig, outputs: _OutputSet) -> None:
    """Small-i expected SFS: empirical S and Sbar vs the fixed-i asymptote."""
    thm1 = _exact("thm1", range(1, 122), _theory_inputs(cfg), "thm1")
    agg = _replicates(args, cfg, 121)
    s = agg.stats("s")
    _write_columns(
        outputs.path("fig3.csv"),
        ["i", "mean_S", "mean_Sbar", "ci_halfwidth", "thm1", "replicates"],
        range(1, 122),
        s.mean,
        agg.stats("sbar").mean,
        s.ci_halfwidth,
        thm1,
        agg.replicates,
    )


def _fig4(args, cfg: RunConfig, outputs: _OutputSet) -> None:
    """Large-i expected SFS around the typical clone size scale."""
    agg = _replicates(args, cfg, 700)
    _write_columns(
        outputs.path("fig4.csv"),
        ["i", "mean_S", "mean_Sbar", "mean_Sunder", "replicates"],
        range(200, 701),
        *(agg.stats(kind).mean[199:] for kind in ("s", "sbar", "sunder")),
        agg.replicates,
    )


def _window_figure(args, cfg: RunConfig, outputs: _OutputSet, kind: str, name: str, fid: str):
    xs = [round(0.1 * k, 1) for k in range(1, 71)]
    stats = _replicates(args, cfg, 1, xs).window_stats(kind)
    scale = theory.window_scale(cfg.params)
    _write_columns(
        outputs.path(name),
        ["x", "empirical_mean", "ci_halfwidth", "theory", "replicates"],
        xs,
        stats.mean,
        stats.ci_halfwidth,
        [scale * w for w in _exact(fid, xs, _theory_inputs(cfg))],
        stats.count,
    )


def _fig7(args, cfg: RunConfig, outputs: _OutputSet) -> None:
    """K and L on [0.6, 6] for four (b0, lambda0) combinations."""
    base = _theory_inputs(cfg)
    rows = []
    xs = [round(0.6 + 0.05 * k, 2) for k in range(109)]
    for b0 in (1.2, 2.2):
        for lam0 in (0.8, 0.3):
            dp = derive_from_gamma_n(b0, b0 + lam0, cfg.params.b1, cfg.params.d1, cfg.params.gamma_n)
            inputs = dataclasses.replace(base, dp=dp)
            rows += [(b0, lam0, *cols) for cols in zip(xs, _exact("K", xs, inputs), _exact("L", xs, inputs))]
    _write_csv(outputs.path("fig7.csv"), ["b0", "lambda0", "x", "K", "L"], rows)


_FIGURE_BUILDERS = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    # sensitive-origin window counts vs the hitch-hiking weight L
    "fig5": lambda *a: _window_figure(*a, "sunder", "fig5.csv", "L"),
    # resistant-origin window counts vs the weight K
    "fig6": lambda *a: _window_figure(*a, "sbar", "fig6.csv", "K"),
    "fig7": _fig7,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescue-sfs",
        description="Site frequency spectrum of neutral mutations under rescue dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run replicates and write SFS CSVs")
    _add_common(p_sim)
    p_sim.add_argument("--i-max", type=int, default=130, dest="i_max")
    p_sim.add_argument("--windows", default=None, help="comma-separated window lower edges")
    p_sim.set_defaults(func=cmd_simulate)

    p_th = sub.add_parser("theory", help="emit a theory curve as CSV")
    _add_common(p_th)
    p_th.add_argument("--formula", required=True, help=f"one of {', '.join(FORMULA_IDS)}")
    p_th.add_argument("--i-range", default=None, dest="i_range", help="LO:HI inclusive")
    p_th.add_argument("--x-grid", default=None, dest="x_grid", help="comma-separated x values")
    p_th.add_argument("--i", type=int, default=1, help="carrier count for hi (default 1)")
    p_th.add_argument("--u", type=float, default=1.0, help="clone age for kappa (default 1)")
    p_th.set_defaults(func=cmd_theory)

    p_gw = sub.add_parser("gw", help="sample conditioned trees, dump generation pmf table")
    _add_common(p_gw)
    p_gw.add_argument("--p", type=float, default=None, help="division probability (default: p_n)")
    p_gw.add_argument("--beta", type=float, default=None, help="mark probability (default: beta_n)")
    p_gw.add_argument(
        "--condition",
        default=gw_trees.CONDITION_EXACTLY_ONE,
        choices=[gw_trees.CONDITION_EXACTLY_ONE, gw_trees.CONDITION_AT_LEAST_ONE],
    )
    p_gw.add_argument("--root-excluded", action="store_true", dest="root_excluded")
    p_gw.add_argument("--samples", type=int, help="tree samples (default 10000)")
    p_gw.add_argument("--g-max", type=int, default=12, dest="g_max")
    p_gw.set_defaults(func=cmd_gw)

    p_cmp = sub.add_parser("compare", help="Monte Carlo vs theory gate")
    _add_common(p_cmp)
    p_cmp.add_argument("--what", choices=("small-i", "windows"), default="small-i")
    p_cmp.add_argument("--i-max", type=int, default=20, dest="i_max")
    p_cmp.add_argument("--windows", default=None)
    p_cmp.add_argument("--mode", choices=("z-score", "relative"), default="z-score")
    p_cmp.add_argument("--threshold", type=float, default=3.0)
    p_cmp.set_defaults(func=cmd_compare)

    p_fig = sub.add_parser("figures", help="emit plot-ready CSVs for one figure")
    _add_common(p_fig)
    p_fig.add_argument("--which", required=True, choices=tuple(_FIGURE_BUILDERS))
    p_fig.add_argument("--samples", type=int, help="tree samples for fig2 (default 100000)")
    p_fig.set_defaults(func=cmd_figures)

    for p in (p_sim, p_cmp, p_fig):
        p.add_argument("--workers", type=int, default=None, help="worker processes (default: cores)")
    for p in (p_th, p_cmp):
        p.add_argument("--tol", type=float, default=theory.DEFAULT_TOL, help="quadrature tolerance")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    # a cap hit names its replicate and seed; the parameters grow a
    # population past the simulator's cap before the observation time.  A
    # rejection limit means the tree law's acceptance probability is too
    # small to sample, a tree size error that its trees outgrow max_nodes
    except (
        ConfigError,
        ParameterError,
        simulator.PopulationCapError,
        gw_trees.RejectionLimitError,
        gw_trees.TreeSizeError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
