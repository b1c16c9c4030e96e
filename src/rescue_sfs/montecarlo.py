"""Replicate orchestration, mergeable statistics, goodness-of-fit tests,
and theory-vs-empirics comparison reports.

Replicates are reproducible and worker-count independent: replicate r of a
run with master seed s uses the generator seeded by seed_for_replicate(s, r)
(a numpy SeedSequence spawn; a chunk hashes its seeds in one vectorised
pass, replicate_seeds), chunk accumulators cover fixed contiguous replicate
ranges, and chunks merge in index order.
"""

from __future__ import annotations

import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import Callable, Sequence

import numpy as np

from rescue_sfs import simulator
from rescue_sfs.gw_trees import geometric_pmf
from rescue_sfs.params import ModelParams

DEFAULT_CHUNK = 256

SCALAR_FIELDS = ("ancestral_count", "z1_final", "total_mutations")


class IndexMismatchError(ValueError):
    """Empirical and theoretical index sets differ."""


class DegenerateSampleError(ValueError):
    """A goodness-of-fit sample is degenerate (all values equal)."""


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), all of it in
# 32-bit words: every step masks to 32 bits, so the same code runs on
# Python ints and elementwise on uint64 arrays, where a product of two
# words fits and a wrapped difference keeps its low 32 bits
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, init: int, mult: int, k: int):
    """Hash one word as the hash's call number k (from 0), whose running
    constant starts at ``init`` and advances by ``mult`` once per call: it
    is init * mult**k before the call."""
    hash_const = init * pow(mult, k, 1 << 32) & _MASK32
    value = (value ^ hash_const) & _MASK32
    value = (value * (hash_const * mult & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _child_states(master_seed: int, replicates: np.ndarray) -> list[np.ndarray]:
    """The four words of ``SeedSequence(master_seed, spawn_key=(r,))
    .generate_state(4)``, elementwise over a uint64 array of replicates r."""
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"requires master seed >= 0, got {master_seed}")
    # a child pads its seed's words with zeros to the pool size, as the
    # master's hash runs on with zeros, so it starts from the master's pool;
    # mixing w words takes 4 * max(4, w) hashmix calls
    pool = [int(word) for word in np.random.SeedSequence(master_seed).pool]
    k = 4 * max(4, (master_seed.bit_length() + 31) // 32)
    # the spawn key's words: an index of 2**32 or more takes two
    low, high = replicates & _MASK32, replicates >> 32
    pool = [_mix(p, _hashmix(low, _INIT_A, _MULT_A, k + j)) for j, p in enumerate(pool)]
    if high.any():
        wide = [_mix(p, _hashmix(high, _INIT_A, _MULT_A, k + 4 + j)) for j, p in enumerate(pool)]
        pool = [np.where(high > 0, w, p) for w, p in zip(wide, pool)]
    return [_hashmix(p, _INIT_B, _MULT_B, j) for j, p in enumerate(pool)]


def replicate_seeds(master_seed: int, start: int, stop: int) -> list[int]:
    """``seed_for_replicate(master_seed, r)`` for r in range(start, stop),
    hashed in one vectorised pass over the indices."""
    if not 0 <= start <= stop <= 1 << 64:
        raise ValueError(f"replicate indices must lie in [0, 2**64), got range({start}, {stop})")
    state = _child_states(master_seed, np.arange(start, stop, dtype=np.uint64))
    buf = np.stack(state, axis=1).astype(">u4").tobytes()
    return [int.from_bytes(buf[k : k + 16], "big") for k in range(0, len(buf), 16)]


def seed_for_replicate(master_seed: int, replicate: int) -> int:
    """Documented split function: 128-bit child seed for one replicate.

    Child r is numpy ``SeedSequence(master_seed, spawn_key=(r,))``; the
    four generated 32-bit words are packed big-endian into one integer.
    Requires master_seed >= 0 and 0 <= replicate < 2**64.
    """
    replicate = operator.index(replicate)
    return replicate_seeds(master_seed, replicate, replicate + 1)[0]


# ---------------------------------------------------------------------------
# Mergeable accumulators
# ---------------------------------------------------------------------------


@dataclass
class VectorStat:
    """Welford accumulator over fixed-length vectors, mergeable pairwise."""

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def zeros(cls, length: int) -> "VectorStat":
        return cls(0, np.zeros(length), np.zeros(length))

    def update(self, x: np.ndarray) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def merge(self, other: "VectorStat") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.n / n)
        self.m2 = self.m2 + other.m2 + delta**2 * (self.n * other.n / n)
        self.n = n

    def variance(self) -> np.ndarray:
        if self.n < 2:
            return np.full_like(self.mean, np.nan)
        return self.m2 / (self.n - 1)

    def sem(self) -> np.ndarray:
        return np.sqrt(self.variance() / self.n)


@dataclass(frozen=True)
class ReplicateStats:
    """Per-index sample statistics of one Monte Carlo experiment."""

    indices: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    count: int
    ci_halfwidth: np.ndarray

    @classmethod
    def from_vector_stat(cls, indices: Sequence[float], stat: VectorStat) -> "ReplicateStats":
        idx = np.asarray(indices, dtype=float)
        var = stat.variance()
        ci = 1.96 * np.sqrt(var / stat.n) if stat.n > 1 else np.full_like(var, np.nan)
        return cls(idx, stat.mean.copy(), var, stat.n, ci)

    def sem(self) -> np.ndarray:
        return np.sqrt(self.variance / self.count)


# ---------------------------------------------------------------------------
# Replicate orchestration
# ---------------------------------------------------------------------------


@dataclass
class SfsAggregate:
    """Merged per-index, per-window, and scalar statistics over replicates.

    Index grids: SFS vectors run over i = 1..i_max; window vectors follow
    the configured ``windows`` lower edges, each window being the open
    interval (x e^(lambda1 t_obs), infinity); scalars follow SCALAR_FIELDS.
    """

    params: ModelParams
    t_obs: float
    initial: tuple[int, int]
    seed: int
    i_max: int
    windows: tuple[float, ...]
    replicates: int = 0
    s: VectorStat = field(init=False)
    sbar: VectorStat = field(init=False)
    sunder: VectorStat = field(init=False)
    window_s: VectorStat = field(init=False)
    window_sbar: VectorStat = field(init=False)
    window_sunder: VectorStat = field(init=False)
    scalars: VectorStat = field(init=False)

    def __post_init__(self) -> None:
        self.s = VectorStat.zeros(self.i_max)
        self.sbar = VectorStat.zeros(self.i_max)
        self.sunder = VectorStat.zeros(self.i_max)
        nw = len(self.windows)
        self.window_s = VectorStat.zeros(nw)
        self.window_sbar = VectorStat.zeros(nw)
        self.window_sunder = VectorStat.zeros(nw)
        self.scalars = VectorStat.zeros(len(SCALAR_FIELDS))

    def merge(self, other: "SfsAggregate") -> None:
        self.replicates += other.replicates
        self.s.merge(other.s)
        self.sbar.merge(other.sbar)
        self.sunder.merge(other.sunder)
        self.window_s.merge(other.window_s)
        self.window_sbar.merge(other.window_sbar)
        self.window_sunder.merge(other.window_sunder)
        self.scalars.merge(other.scalars)

    def stats(self, kind: str) -> ReplicateStats:
        """ReplicateStats for one of s/sbar/sunder over i = 1..i_max."""
        stat = {"s": self.s, "sbar": self.sbar, "sunder": self.sunder}[kind]
        return ReplicateStats.from_vector_stat(np.arange(1, self.i_max + 1), stat)

    def window_stats(self, kind: str) -> ReplicateStats:
        stat = {"s": self.window_s, "sbar": self.window_sbar, "sunder": self.window_sunder}[kind]
        return ReplicateStats.from_vector_stat(np.asarray(self.windows, dtype=float), stat)

    def scalar_stat(self, name: str) -> tuple[float, float]:
        """(mean, standard error) of one scalar field."""
        k = SCALAR_FIELDS.index(name)
        return float(self.scalars.mean[k]), float(self.scalars.sem()[k])


def _run_chunk(
    start: int, stop: int, *, params: ModelParams, t_obs: float, initial: tuple[int, int],
    master_seed: int, i_max: int, windows: tuple[float, ...], keep: bool,
) -> tuple[SfsAggregate, list[simulator.SfsRecord]]:
    """Aggregate of replicates start..stop-1, plus their records in
    replicate order when ``keep`` is set (else an empty list).

    Each replicate's row (s | sbar | sunder | window s | window sbar |
    window sunder | scalars) is written into one array and added to one
    Welford accumulator; its update is elementwise, so splitting it into the
    aggregate's statistics afterwards gives them bit for bit what separate
    accumulators would hold.  Without windows the window statistics stay
    empty (n = 0)."""
    lambda1 = params.b1 - params.d1
    agg = SfsAggregate(params, t_obs, initial, master_seed, i_max, windows)
    fields = ("s", "sbar", "sunder")
    if windows:
        fields += ("window_s", "window_sbar", "window_sunder")
    fields += ("scalars",)
    stat = VectorStat.zeros(sum(getattr(agg, name).mean.size for name in fields))
    row = np.empty(stat.mean.size)
    s, sbar, sunder = row[:i_max], row[i_max : 2 * i_max], row[2 * i_max : 3 * i_max]
    origin_parts = row[i_max : 3 * i_max]
    # column k holds window k's (s, sbar, sunder)
    window_part = row[3 * i_max : 3 * (i_max + len(agg.windows))].reshape(3, -1)
    records = []
    for r, rep_seed in enumerate(replicate_seeds(master_seed, start, stop), start):
        try:
            record, founders, z1_final = simulator.sample_sfs(
                params, t_obs, initial=initial, rng=Random(rep_seed)
            )
        except simulator.PopulationCapError as exc:
            raise simulator.PopulationCapError(
                f"replicate {r} (seed_for_replicate({master_seed}, {r}) = {rep_seed}): {exc}"
            ) from exc
        origin_parts.fill(0.0)
        # slot i of a dense spectrum lands at offset + i
        simulator.dense_into(record.s_resistant_origin, i_max, row, i_max - 1)
        simulator.dense_into(record.s_sensitive_origin, i_max, row, 2 * i_max - 1)
        np.add(sbar, sunder, out=s)
        for k, x in enumerate(agg.windows):
            wc = simulator.window_counts(record, x, math.inf, lambda1)
            window_part[:, k] = wc.total, wc.resistant_origin, wc.sensitive_origin
        row[-3] = founders
        row[-2] = z1_final
        row[-1] = record.total_mutations()
        stat.update(row)
        if keep:
            records.append(record)
    lo = 0
    for name in fields:
        hi = lo + getattr(agg, name).mean.size
        setattr(agg, name, VectorStat(stat.n, stat.mean[lo:hi].copy(), stat.m2[lo:hi].copy()))
        lo = hi
    agg.replicates = stat.n
    return agg, records


def replicate_sfs(
    params: ModelParams,
    t_obs: float,
    replicates: int,
    seed: int,
    initial: tuple[int, int] | None = None,
    i_max: int = 130,
    windows: Sequence[float] = (),
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    on_record: Callable[[int, simulator.SfsRecord], None] | None = None,
) -> SfsAggregate:
    """Aggregate ``replicates`` independent runs.

    Deterministic given (params, t_obs, replicates, seed, i_max, windows,
    chunk_size) regardless of ``workers``: chunks cover fixed contiguous
    replicate ranges and merge in order.  A single chunk runs in-process,
    and no more workers start than there are chunks.  ``on_record(r,
    record)`` is called in this process for every replicate r, in
    replicate order, with that replicate's SfsRecord.
    """
    if replicates < 2:
        raise ValueError(f"requires replicates >= 2, got {replicates}")
    if chunk_size < 1:
        raise ValueError(f"requires chunk_size >= 1, got {chunk_size}")
    windows = tuple(windows)
    if not all(0 < x < math.inf for x in windows):
        raise ValueError(f"requires finite window edges > 0, got {windows}")
    if initial is None:
        initial = (params.n_init, 0)
    run_chunk = partial(
        _run_chunk, params=params, t_obs=t_obs, initial=initial, master_seed=seed, i_max=i_max,
        windows=windows, keep=on_record is not None,
    )
    starts = range(0, replicates, chunk_size)
    stops = [min(start + chunk_size, replicates) for start in starts]
    total = SfsAggregate(params, t_obs, initial, seed, i_max, windows)
    workers = min(workers, len(starts))
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool:
        results = (pool.map if workers > 1 else map)(run_chunk, starts, stops)
        for start, (agg, records) in zip(starts, results):
            total.merge(agg)
            for r, record in enumerate(records, start):
                on_record(r, record)
    return total


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GofResult:
    statistic: float
    pvalue: float
    dof: int
    bins: int


def gof_discrete(
    samples: Sequence[int], pmf: Callable[[int], float], min_expected: float = 5.0
) -> GofResult:
    """Chi-square test of integer samples (support 1, 2, ...) against a pmf,
    pooling the tail so every bin's expected count is >= min_expected."""
    data = np.asarray(samples, dtype=np.int64)
    if data.size < 2 or data.min() == data.max():
        raise DegenerateSampleError("need a non-degenerate sample")
    if data.min() < 1:
        raise ValueError("samples must be >= 1")
    n = data.size
    g_top = int(data.max())
    counts = np.bincount(data, minlength=g_top + 1)
    probs = np.array([pmf(g) for g in range(1, g_top + 1)])
    # choose the last unpooled bin: expected in every kept bin and in the
    # pooled tail must reach min_expected
    cut = 0
    for g in range(1, g_top + 1):
        if n * probs[g - 1] < min_expected:
            break
        cut = g
    while cut > 0 and n * (1.0 - probs[:cut].sum()) < min_expected:
        cut -= 1
    if cut < 1:
        raise DegenerateSampleError("sample too small for a pooled chi-square test")
    obs = np.append(counts[1 : cut + 1], counts[cut + 1 :].sum()).astype(float)
    exp = np.append(n * probs[:cut], n * (1.0 - probs[:cut].sum()))
    from scipy.special import chdtrc

    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.size - 1
    return GofResult(stat, float(chdtrc(dof, stat)), dof, obs.size)


def gof_geometric(samples: Sequence[int], x: float, min_expected: float = 5.0) -> GofResult:
    """Chi-square test against gw_trees.geometric_pmf(x, .)."""
    if not 0 < x < 1:
        raise ValueError(f"requires 0 < x < 1, got {x}")
    return gof_discrete(samples, lambda g: geometric_pmf(x, g), min_expected)


def gof_exponential(samples: Sequence[float], rate: float) -> GofResult:
    """One-sample Kolmogorov-Smirnov test against Exponential(rate)."""
    data = np.asarray(samples, dtype=float)
    if data.size < 2 or data.min() == data.max():
        raise DegenerateSampleError("need a non-degenerate sample")
    if rate <= 0:
        raise ValueError(f"requires rate > 0, got {rate}")
    # scipy (and the process pool) are imported by the call that uses them,
    # so importing the package loads numpy and the standard library only:
    # scipy.stats alone costs about 0.5 s and 20 MB to load
    from scipy.stats import kstest

    res = kstest(data, "expon", args=(0.0, 1.0 / rate))
    return GofResult(float(res.statistic), float(res.pvalue), data.size, 0)


def gof_pooled_counts(
    observed: Sequence[float], expected: Sequence[float], min_expected: float = 5.0
) -> GofResult:
    """Chi-square on categorical counts, pooling low-expectation cells into
    the largest cell (used for the transition-rate table)."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape:
        raise IndexMismatchError("observed and expected shapes differ")
    big = int(np.argmax(exp))
    small = (exp < min_expected) & (np.arange(exp.size) != big)
    keep = ~small
    o = obs[keep].copy()
    e = exp[keep].copy()
    big_pos = int(np.flatnonzero(np.flatnonzero(keep) == big)[0])
    o[big_pos] += obs[small].sum()
    e[big_pos] += exp[small].sum()
    from scipy.special import chdtrc

    stat = float(((o - e) ** 2 / e).sum())
    dof = o.size - 1
    return GofResult(stat, float(chdtrc(dof, stat)), dof, o.size)


# ---------------------------------------------------------------------------
# Comparison reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Per-index empirics-vs-theory comparison with a pass/fail gate."""

    indices: np.ndarray
    empirical_mean: np.ndarray
    empirical_sem: np.ndarray
    theory: np.ndarray
    z_scores: np.ndarray
    rel_gaps: np.ndarray
    passed: np.ndarray
    mode: str
    threshold: float
    metadata: dict

    @property
    def pass_fraction(self) -> float:
        return float(np.mean(self.passed))

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))

    def rows(self):
        for k in range(self.indices.size):
            yield (
                float(self.indices[k]),
                float(self.empirical_mean[k]),
                float(self.empirical_sem[k]),
                float(self.theory[k]),
                float(self.z_scores[k]),
                float(self.rel_gaps[k]),
                bool(self.passed[k]),
            )

    def to_json_dict(self) -> dict:
        """Strict-JSON form: a value with no JSON number (the infinite z of
        a zero SEM, the infinite rel_gap of a zero theory value) is null."""
        keys = ("index", "empirical_mean", "empirical_sem", "theory", "z", "rel_gap")
        return {
            "mode": self.mode,
            "threshold": self.threshold,
            "pass_fraction": self.pass_fraction,
            "all_passed": self.all_passed,
            "metadata": self.metadata,
            "rows": [
                {k: x if math.isfinite(x) else None for k, x in zip(keys, r)} | {"passed": r[6]}
                for r in self.rows()
            ],
        }


def compare(
    stats: ReplicateStats,
    theory: Sequence[float],
    mode: str = "z-score",
    threshold: float = 3.0,
    metadata: dict | None = None,
) -> ComparisonReport:
    """Compare per-index empirical means against theory values.

    ``theory`` is a sequence aligned with the stats indices.  ``mode`` is
    ``z-score`` (|mean - theory| <= threshold * SEM) or ``relative``
    (|mean - theory| <= threshold * |theory|).
    """
    if mode not in ("z-score", "relative"):
        raise ValueError(f"unknown mode {mode!r}")
    tvals = np.asarray(theory, dtype=float)
    if tvals.size != stats.indices.size:
        raise IndexMismatchError(f"theory has {tvals.size} entries, empirics {stats.indices.size}")
    sem = stats.sem()
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sem > 0, (stats.mean - tvals) / sem, np.inf * np.sign(stats.mean - tvals))
        z = np.where(stats.mean == tvals, 0.0, z)
        rel = np.where(tvals != 0, np.abs(stats.mean - tvals) / np.abs(tvals), np.inf)
        rel = np.where(stats.mean == tvals, 0.0, rel)
    passed = np.abs(z) <= threshold if mode == "z-score" else rel <= threshold
    return ComparisonReport(
        indices=stats.indices.copy(),
        empirical_mean=stats.mean.copy(),
        empirical_sem=sem,
        theory=tvals,
        z_scores=z,
        rel_gaps=rel,
        passed=passed,
        mode=mode,
        threshold=threshold,
        metadata=metadata or {},
    )
