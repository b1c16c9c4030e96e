"""Replicate orchestration, exact mergeable statistics and theory-vs-empirics
comparison reports.

Replicates are reproducible and worker-count independent: replicate r of a
run with master seed s is keyed by ``Random(seed_for_replicate(s, r))
.getrandbits(64)``, the key ``simulator.run`` draws from that generator
(seed_for_replicate is numpy's SeedSequence spawn, hashed here in one
vectorised pass per span, replicate_seeds).  A span of at least
_VECTOR_KEYS replicates computes the same keys vectorised, running
CPython's Mersenne Twister seeding elementwise (_mt_keys); a shorter span
builds one Random per replicate.  The statistics of the rows (laid out as
``simulator.ROW_FIELDS``) are exact integer sums (VectorStat), so no chunk,
span, order or worker count changes a bit.
"""

from __future__ import annotations

import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from random import Random
from typing import Callable, Sequence

# simulator before numpy: compiled without a bytecode cache on top of
# numpy's memory, simulator.py raised a short process's peak RSS by about 2 MB
from rescue_sfs import simulator  # isort: skip
import numpy as np

from rescue_sfs.params import ModelParams, checked_index

# scheduling only: a span samples as many whole chunks of DEFAULT_CHUNK
# replicates as fit in _SPAN_FLOATS floats of rows (about 2 MB)
DEFAULT_CHUNK = 256
_SPAN_FLOATS = 1 << 18


class IndexMismatchError(ValueError):
    """Empirical and theoretical index sets differ."""


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


def _master_pool(words: list[int]) -> list[int]:
    """``SeedSequence(seed).pool`` of a seed with these 32-bit words (least
    significant first): hash the first four, padded with zeros, cross-mix
    them, then mix in each further word; 4 * max(4, len(words)) calls."""
    pool = [_hashmix(words[j] if j < len(words) else 0, _INIT_A, _MULT_A, j) for j in range(4)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _INIT_A, _MULT_A, k))
                k += 1
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, _INIT_A, _MULT_A, k))
            k += 1
    return pool


def _child_states(master_seed: int, start: int, stop: int) -> list[np.ndarray]:
    """The four words of ``SeedSequence(master_seed, spawn_key=(r,))
    .generate_state(4)``, elementwise over r in range(start, stop), as
    uint64 arrays."""
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"requires master seed >= 0, got {master_seed}")
    if not 0 <= start <= stop <= 1 << 64:
        raise ValueError(f"replicate indices must lie in [0, 2**64), got range({start}, {stop})")
    replicates = np.arange(start, stop, dtype=np.uint64)
    # a child pads its seed's words with zeros to the pool size, as the
    # master's hash runs on with zeros, so it starts from the master's pool
    shifts = range(0, master_seed.bit_length(), 32)
    words = [master_seed >> shift & _MASK32 for shift in shifts] or [0]
    pool = _master_pool(words)
    k = 4 * max(4, len(words))
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
    buf = np.stack(_child_states(master_seed, start, stop), axis=1).astype(">u4").tobytes()
    return [int.from_bytes(buf[k : k + 16], "big") for k in range(0, len(buf), 16)]


def seed_for_replicate(master_seed: int, replicate: int) -> int:
    """Documented split function: 128-bit child seed for one replicate.

    Child r is numpy ``SeedSequence(master_seed, spawn_key=(r,))``; the
    four generated 32-bit words are packed big-endian into one integer.
    Requires master_seed >= 0 and 0 <= replicate < 2**64.
    """
    replicate = operator.index(replicate)
    return replicate_seeds(master_seed, replicate, replicate + 1)[0]


# CPython's Random(seed) (Modules/_randommodule.c; MT19937, Matsumoto and
# Nishimura 1998): init_by_array runs the seed's 32-bit words, least
# significant first and leading zero words dropped, through two loops over
# the table init_genrand(19650218); getrandbits(64) is out0 | out1 << 32,
# the tempered outputs 0 and 1 of the first twist.  Every step is masked
# to 32 bits, so uint32 arrays run the chain for many seeds at once.
_MT_N = 624
_MT_MULT_1, _MT_MULT_2 = 1664525, 1566083941
_MT_MATRIX_A = 0x9908B0DF
# spans of at least this many keys run _mt_keys: its fixed cost (about 7.5k
# ufunc calls) makes it slower than one Random per key on fewer keys, and
# the two cost the same at about 768 (numpy 2.4, x86-64)
_VECTOR_KEYS = 768


@cache
def _mt_table() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(T_i, i) for i < 624 as 0-d uint32 arrays (numpy applies those faster
    than scalars), T being init_genrand(19650218), the table init_by_array
    starts from."""
    table = [19650218]
    for i in range(1, _MT_N):
        table.append((1812433253 * (table[-1] ^ table[-1] >> 30) + i) & _MASK32)
    return tuple((np.array(t, np.uint32), np.array(i, np.uint32)) for i, t in enumerate(table))


def _mt_temper(y: np.ndarray) -> np.ndarray:
    """MT19937's tempering of its output words."""
    y = y ^ y >> 11
    y = y ^ y << 7 & 0x9D2C5680
    y = y ^ y << 15 & 0xEFC60000
    return y ^ y >> 18


def _mt_keys(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``Random(seed).getrandbits(64)`` elementwise, as uint64, for the seeds
    whose CPython keys are the columns of a (4, R) uint32 array (words least
    significant first, zero-padded) with ``lengths`` (1..4) words each.

    Loop 1 writes A_i = (T_i ^ f(A_(i-1)) m1) + key[j] + j, j = (i - 1) %
    length, for i = 1..623 from A_0 = T_0, then mt[1] once more from mt[0] =
    A_623; loop 2 writes C_i = (A_i ^ f(C_(i-1)) m2) - i for i = 2..623 from
    C_1 = that mt[1], then mt[1] again from mt[0] = C_623; f(x) = x ^ x >>
    30.  The first twist reads only mt[0] = 2**31, mt[1], mt[2], mt[397] and
    mt[398].  Loop 1 runs once, keeping A_1 and A_623; loop 2 then runs in
    lockstep with loop 1 recomputed, as the two rows of one array, so memory
    stays O(R)."""
    table = _mt_table()
    cols = np.arange(words.shape[1])
    # every length divides 12, so loop 1's addends repeat with period 12
    adds = []
    for s in range(12):
        j = (s % lengths).astype(np.uint32)
        adds.append(words[j, cols] + j)
    shift, m1 = np.array(30, np.uint32), np.array(_MT_MULT_1, np.uint32)
    a = np.full(words.shape[1], table[0][0])
    f = np.empty_like(a)
    for i in range(1, _MT_N):
        np.right_shift(a, shift, out=f)
        f ^= a
        f *= m1
        f ^= table[i][0]
        np.add(f, adds[(i - 1) % 12], out=a)
        if i == 1:
            a1 = a.copy()
    c1 = (a1 ^ (a ^ a >> 30) * m1) + adds[(_MT_N - 1) % 12]
    # loop 1 recomputed in row 0 and loop 2 in row 1 of two buffers: step i
    # reads buffer i % 2 and writes the other
    bufs = np.stack([a1, c1]), np.empty((2, a.size), np.uint32)
    views = [(buf, buf[0], buf[1]) for buf in bufs]
    # a full array: numpy multiplies it faster than a broadcast column
    mult = np.repeat(np.array([[_MT_MULT_1], [_MT_MULT_2]], np.uint32), a.size, axis=1)
    kept = {}
    for i in range(2, _MT_N):
        rows, (out, a, c) = bufs[i % 2], views[1 - i % 2]
        np.right_shift(rows, shift, out=out)
        out ^= rows
        out *= mult
        t, index = table[i]
        a ^= t
        a += adds[(i - 1) % 12]
        c ^= a
        c -= index
        if i in (2, 397, 398):
            kept[i] = c.copy()
    c = bufs[_MT_N % 2][1]
    mt1 = (c1 ^ (c ^ c >> 30) * _MT_MULT_2) - 1
    y0 = mt1 & 0x7FFFFFFF | 0x80000000
    y1 = mt1 & 0x80000000 | kept[2] & 0x7FFFFFFF
    out0 = kept[397] ^ y0 >> 1 ^ (y0 & 1) * _MT_MATRIX_A
    out1 = kept[398] ^ y1 >> 1 ^ (y1 & 1) * _MT_MATRIX_A
    return _mt_temper(out0).astype(np.uint64) | _mt_temper(out1).astype(np.uint64) << 32


def _replicate_keys(master_seed: int, start: int, stop: int) -> list[int]:
    """``Random(seed_for_replicate(master_seed, r)).getrandbits(64)`` for r
    in range(start, stop): one Random per key, or for at least
    ``_VECTOR_KEYS`` keys the same keys from ``_mt_keys``, bit for bit."""
    if stop - start < _VECTOR_KEYS:
        return [Random(seed).getrandbits(64) for seed in replicate_seeds(master_seed, start, stop)]
    # the seed packs the state's words big-endian: its key reverses them
    words = np.stack(_child_states(master_seed, start, stop)[::-1]).astype(np.uint32)
    lengths = np.ones(stop - start, np.int64)
    for k in range(1, 4):
        lengths[words[k] != 0] = k + 1
    return _mt_keys(words, lengths).tolist()


# ---------------------------------------------------------------------------
# Mergeable accumulators
# ---------------------------------------------------------------------------


@dataclass
class VectorStat:
    """Exact power sums of integer vectors: the count n and, per entry, the
    sum and the sum of squares as Python ints (object arrays), which merge
    alike in any order.  The mean sum_x/n and the variance (n sum_x2 -
    sum_x^2)/(n(n-1)) are each one correctly rounded int / int."""

    n: int
    sum_x: np.ndarray
    sum_x2: np.ndarray

    @classmethod
    def zeros(cls, length: int) -> "VectorStat":
        return cls(0, np.zeros(length, dtype=object), np.zeros(length, dtype=object))

    def update(self, x) -> None:
        """Add one row; a non-integer entry, nan or inf raises ValueError."""
        row = np.asarray(x).tolist()
        if not all(isinstance(v, int) or isinstance(v, float) and v.is_integer() for v in row):
            raise ValueError(f"requires integer entries, got {row}")
        ints = np.array([int(v) for v in row], dtype=object)
        self.merge(VectorStat(1, ints, ints * ints))

    def merge(self, other: "VectorStat") -> None:
        self.n += other.n
        self.sum_x, self.sum_x2 = self.sum_x + other.sum_x, self.sum_x2 + other.sum_x2

    @property
    def mean(self) -> np.ndarray:
        return _ratio(self.sum_x, self.n)

    def variance(self) -> np.ndarray:
        n = self.n
        return _ratio(n * self.sum_x2 - self.sum_x * self.sum_x, n * (n - 1))


def _ratio(num: np.ndarray, den: int) -> np.ndarray:
    """Python ints over a Python int, each correctly rounded; nan if den is 0."""
    return (num / den).astype(float) if den else np.full(num.shape, np.nan)


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
        var = stat.variance()
        ci = 1.96 * np.sqrt(var / stat.n)
        return cls(np.asarray(indices, dtype=float), stat.mean, var, stat.n, ci)

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
    interval (x e^(lambda1 t_obs), infinity); the statistics and scalars
    are ``simulator.ROW_FIELDS`` and ``SCALAR_FIELDS``.
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
        widths = simulator.row_widths(self.i_max, len(self.windows))
        for name, width in zip(simulator.ROW_FIELDS, widths):
            setattr(self, name, VectorStat.zeros(width))

    def merge(self, other: "SfsAggregate") -> None:
        """Add another run's replicates of the same experiment; the seeds may
        differ.  A different experiment raises ValueError and changes
        nothing."""
        for name in ("params", "t_obs", "initial", "i_max", "windows"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if name in ("initial", "windows"):
                mine, theirs = tuple(mine), tuple(theirs)
            if mine != theirs:
                raise ValueError(f"cannot merge aggregates with different {name}: {mine!r} != {theirs!r}")
        self.replicates += other.replicates
        for name in simulator.ROW_FIELDS:
            getattr(self, name).merge(getattr(other, name))

    def stats(self, kind: str) -> ReplicateStats:
        """ReplicateStats for one of s/sbar/sunder over i = 1..i_max."""
        stat = {k: getattr(self, k) for k in simulator.ROW_FIELDS[:3]}[kind]
        return ReplicateStats.from_vector_stat(np.arange(1, self.i_max + 1), stat)

    def window_stats(self, kind: str) -> ReplicateStats:
        stat = {k: getattr(self, "window_" + k) for k in simulator.ROW_FIELDS[:3]}[kind]
        return ReplicateStats.from_vector_stat(np.asarray(self.windows, dtype=float), stat)

    def scalar_stat(self, name: str) -> tuple[float, float]:
        """(mean, standard error) of one scalar field."""
        k = simulator.SCALAR_FIELDS.index(name)
        stats = ReplicateStats.from_vector_stat(range(len(simulator.SCALAR_FIELDS)), self.scalars)
        return float(stats.mean[k]), float(stats.sem()[k])


def _run_span(
    start: int, stop: int, *, params: ModelParams, t_obs: float, initial: tuple[int, int],
    master_seed: int, i_max: int, windows: tuple[float, ...], keep: bool,
) -> tuple[VectorStat, list[simulator.SfsRecord]]:
    """The exact sums of the rows of replicates start..stop-1, plus their
    records in replicate order when ``keep`` is set (else an empty list).

    The rows' integer counts sum in int64 while max|x|^2 times the rows is
    below 2^63, which bounds every sum, and in Python ints otherwise."""
    keys = _replicate_keys(master_seed, start, stop)
    try:
        rows, records = simulator.sample_chunk(
            params, t_obs, initial, keys, i_max=i_max, windows=windows, keep=keep
        )
    except simulator.PopulationCapError as exc:
        r = start + exc.replicate
        seed, key = seed_for_replicate(master_seed, r), keys[exc.replicate]
        raise simulator.PopulationCapError(
            f"replicate {r} (seed_for_replicate({master_seed}, {r}) = {seed}), key {key}: {exc}"
        ) from exc
    ints = rows.astype(np.int64)
    if int(np.abs(ints).max()) ** 2 * len(ints) >= 1 << 63:
        ints = ints.astype(object)
    sums = (ints.sum(axis=0), (ints * ints).sum(axis=0))
    return VectorStat(len(ints), *(part.astype(object) for part in sums)), records


def replicate_sfs(
    params: ModelParams,
    t_obs: float,
    replicates: int,
    seed: int,
    initial: tuple[int, int] | None = None,
    i_max: int = 130,
    windows: Sequence[float] = (),
    workers: int = 1,
    on_record: Callable[[int, simulator.SfsRecord], None] | None = None,
) -> SfsAggregate:
    """Aggregate ``replicates`` independent runs.

    Deterministic given (params, t_obs, replicates, seed, initial, i_max,
    windows), whatever ``workers``: the spans' exact row sums add up to the
    run's, split once into the aggregate's statistics (without windows those
    stay empty, n = 0).  A span, sampled in one ``sample_chunk`` call, is a
    run of whole chunks of DEFAULT_CHUNK replicates with at most
    ``_SPAN_FLOATS`` floats of rows (one chunk when ``on_record`` is set).
    A single span runs in-process, and no more workers start than spans.
    ``on_record(r, record)`` is called in this process for every replicate
    r, in replicate order, with that replicate's SfsRecord.
    """
    checked_index(replicates, "replicates", 2)
    if workers < 1:
        raise ValueError(f"requires workers >= 1, got {workers}")
    if operator.index(seed) < 0:
        raise ValueError(f"requires master seed >= 0, got {seed}")
    initial, windows = simulator.checked_args(params, t_obs, initial, i_max, windows)
    run_span = partial(
        _run_span, params=params, t_obs=t_obs, initial=initial, master_seed=seed,
        i_max=i_max, windows=windows, keep=on_record is not None,
    )
    widths = simulator.row_widths(i_max, len(windows))
    per_span = 1 if on_record else max(1, _SPAN_FLOATS // (sum(widths) * DEFAULT_CHUNK))
    span = min(per_span, -(-replicates // (DEFAULT_CHUNK * workers))) * DEFAULT_CHUNK
    starts = range(0, replicates, span)
    stops = [min(start + span, replicates) for start in starts]
    row = VectorStat.zeros(sum(widths))
    workers = min(workers, len(starts))
    pool = nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool:
        results = (pool.map if workers > 1 else map)(run_span, starts, stops)
        for start, (stat, records) in zip(starts, results):
            row.merge(stat)
            for r, record in enumerate(records, start):
                on_record(r, record)
    total = SfsAggregate(params, t_obs, initial, seed, i_max, windows, replicates=row.n)
    edges = np.cumsum(widths)[:-1]
    parts = zip(simulator.ROW_FIELDS, np.split(row.sum_x, edges), np.split(row.sum_x2, edges))
    for name, sum_x, sum_x2 in parts:
        if sum_x.size:
            setattr(total, name, VectorStat(row.n, sum_x, sum_x2))
    return total


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
        cols = (
            self.indices, self.empirical_mean, self.empirical_sem, self.theory, self.z_scores, self.rel_gaps
        )
        return zip(*(col.tolist() for col in cols), self.passed.tolist())

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
