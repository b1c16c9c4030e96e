"""Exact simulation of the two-type branching process with genealogy and
per-edge neutral mutation counts.

Divisions are simulated at the mechanism level: a sensitive division picks
two daughters, each independently resistant with probability gamma_n and
each receiving an independent neutral-mutation count of mean omega/2.
The process is a Markov branching process (Harris 1963): every cell lives
an independent Exp(b+d) lifetime and then divides or dies, so cells can be
simulated one lifetime at a time, in any order, with no global event clock.

Only the sensitive cells with a resistant descendant can be seen in a row,
so the sensitive cells are simulated as the reduced tree of the marked
Galton-Watson tree (O'Connell 1995; Lyons & Peres 2016), the marks being
resistant daughters.  Lifetimes are independent of the discrete genealogy,
so the tree is reduced without regard to time: a sensitive cell is kept if
its untruncated progeny ever holds a resistant cell, which has probability
h = 1 - g, g = 2 (d0/c0) / (1 + x_n), c0 = b0 + d0.  A kept cell always
divides, at the end of its Exp(c0) lifetime if that comes before t_obs, and
its two daughters are drawn together from the pairs of {resistant,
kept sensitive, dropped sensitive}, with weights gamma_n, (1 - gamma_n) h
and (1 - gamma_n) g, other than two dropped ones.  Dropped cells are never
simulated.  Cut at t_obs, the reduced tree holds every resistant founder
born before t_obs with its whole ancestry, so the rows have the law of the
full process; the full-genealogy twin of ``run`` is a test oracle.

Every random number is keyed by the cell it belongs to.  A replicate has a
64-bit key K; a root and a daughter get 64-bit ids hashed from K and from
their mother's id (SplitMix64, Steele, Lea & Flood 2014), and each of a
cell's uniforms is hashed from its id (a counter-based stream, Salmon et
al. 2011).  A replicate's realization therefore does not depend on the order
its cells are simulated in:

- ``run`` simulates one replicate depth first and keeps its genealogy, the
  reduced sensitive tree and every resistant cell, with mutations stored as
  counts on its edges; ``extract_sfs`` then counts living resistant
  descendants per edge in one bottom-up pass.
- ``sample_chunk`` simulates a chunk of replicates breadth first with numpy,
  in blocks whose genealogies stay within a node budget, in ``run``'s two
  phases: the kept sensitive cells, which seed resistant clones, then the
  clones.  Each cell is an entry of a cell table made of the rounds' own
  arrays.  Every draw but a lifetime, a root's keep test included, compares
  a word with an integer threshold, exactly as ``run`` compares a uniform
  with a probability.  A row holds a replicate's dense spectrum,
  window counts, founder count, final resistant count and total mutation
  count; for the same key it equals what ``extract_sfs(run(...))`` gives,
  bit for bit, so ``run`` is its inspectable twin.

A lifetime is defined by ``_plog``, one fixed sequence of IEEE operations
that a Python float and a numpy array evaluate to the same bits.  numpy's
own ``log`` is about ten times faster on an array but can differ from it in
the last bit, so ``sample_chunk`` takes numpy's and checks every end
against a floating-point filter (Shewchuk 1997): a row sees a time only
through its comparison with t_obs, and a block in which an end lies too
close to t_obs for numpy's ``log`` to decide is simulated again with
``_plog``.  Like ``_plog``, ``_uniform`` is one evaluation for a Python int
and a np.uint64 array.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from random import Random

from rescue_sfs.params import ModelParams, ParameterError, checked_index, derive

SENSITIVE = 0
RESISTANT = 1

STATUS_ALIVE = 0
STATUS_DEAD = 1
STATUS_DIVIDED = 2


class PopulationCapError(RuntimeError):
    """The genealogy exceeded the configured safety cap.  ``replicate`` is
    the position, within its chunk, of the replicate that exceeded it."""

    def __init__(self, message: str, replicate: int | None = None) -> None:
        super().__init__(message)
        self.replicate = replicate


@dataclass
class SimOutcome:
    """Genealogy forest of one run plus run-level counters.

    Node arrays are parallel; parents always precede children.  ``status``
    is the node's state at the observation time.  An edge's origin is its
    mother's type: ``cell_type[parent[idx]]``.  ``run``'s forest holds every
    root, the reduced sensitive tree and every resistant cell; a sensitive
    node's status says only whether it divided, since a dropped cell is
    never simulated.  ``event_counts`` counts the simulated events in the
    five classes of the process's rate table (sensitive divisions with no,
    one and two resistant daughters in classes 0, 2 and 3, resistant
    divisions in 2, resistant deaths in 4; the reduced tree has no
    sensitive death, so class 1 stays 0).
    """

    params: ModelParams
    t_obs: float
    parent: list[int]
    cell_type: list[int]
    edge_mutations: list[int]
    status: list[int]
    n_roots: int
    z1_final: int
    event_counts: list[int]
    ancestral: list[tuple[float, int, int]]  # (birth time, generation, root id)

    @property
    def n_nodes(self) -> int:
        return len(self.parent)


@dataclass
class SfsRecord:
    """Sparse site frequency spectrum split by origin.

    ``s_resistant_origin[i]`` and ``s_sensitive_origin[i]`` count mutations
    carried by exactly i living resistant cells that were born at resistant
    and at sensitive divisions; only nonzero counts are stored.
    """

    s_resistant_origin: dict[int, int]
    s_sensitive_origin: dict[int, int]
    t_obs: float

    @property
    def s(self) -> dict[int, int]:
        """The total spectrum, s_resistant_origin + s_sensitive_origin index-wise."""
        s = dict(self.s_resistant_origin)
        for i, m in self.s_sensitive_origin.items():
            s[i] = s.get(i, 0) + m
        return s

    def total_mutations(self) -> int:
        return sum(self.s_resistant_origin.values()) + sum(self.s_sensitive_origin.values())


@dataclass(frozen=True)
class WindowCounts:
    """Mutation counts inside one open carrier-count window."""

    resistant_origin: int
    sensitive_origin: int

    @property
    def total(self) -> int:
        return self.resistant_origin + self.sensitive_origin


# one replicate's row, as ``sample_chunk`` returns it: the statistics in
# column order, the last of them the SCALAR_FIELDS
ROW_FIELDS = ("s", "sbar", "sunder", "window_s", "window_sbar", "window_sunder", "scalars")
SCALAR_FIELDS = ("ancestral_count", "z1_final", "total_mutations")


def row_widths(i_max: int, n_windows: int) -> tuple[int, ...]:
    """The ROW_FIELDS' widths in a row over i = 1..i_max and n_windows windows."""
    return (i_max,) * 3 + (n_windows,) * 3 + (len(SCALAR_FIELDS),)


# ---------------------------------------------------------------------------
# Cell-keyed draws
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # the SplitMix64 increment G
_ROOT = 0x5851F42D4C957F2D  # xored into the replicate key before roots are numbered
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# a cell x draws its lifetime uniform from x itself and the rest from
# _mix64(x + k G): daughters k = 1, 2, divide-or-die (kept-or-dropped for a
# sensitive root) 3, mutation count 4, a kept sensitive cell's daughter pair 5
_DIVIDE, _MUTATION, _PAIR = (k * _GOLDEN & _M64 for k in (3, 4, 5))
_TWO_M53 = 2.0**-53
# ``sample_chunk`` runs its keys in blocks of at most _BLOCK_NODES genealogy
# nodes together (it aims at half that, some 30 reference replicates) and
# advances about _BATCH cells at a time, which bounds the arrays a batch
# allocates.  No result depends on these numbers
_BLOCK_NODES = 1 << 18
_BATCH = 4096
# ``_sample_block`` walks a block with numpy's log, whose last bit may differ
# from ``_plog``'s, and walks it again with ``_plog`` if a cell's end lies
# within _NEAR t_obs of t_obs.  With eps = 2^-52, ulp(y) <= eps |y|.  While
# every comparison with t_obs has agreed, both walks run the same cells on
# the same words, and a cell's two ends differ by the errors of its own and
# its ancestors' lifetimes L: np.log's, at most K eps L with K = _LOG_ULPS
# (measured: at most 1 ulp), and the division's, eps L; plus eps t_obs for
# each sum born + L (exact at a root, born 0).  The lifetimes add up to the
# end, at most t_obs (1 + 2^-32) where it matters, so over a lineage of R
# rounds, each generation a round of its own, the ends differ by at most
# (K + 1) eps t_obs + (R - 1) eps t_obs, with room to spare within (K + 2R)
# 2^-52 t_obs.  A cell whose fast end lies farther than that from t_obs makes
# the same comparison in both walks.  _NEAR = 2^-32 covers K + 2R <= 2^20:
# a walk of more than _FAST_ROUNDS rounds takes ``_plog``, and the margin is
# at least _TINY = 2^-1022, since a subnormal's ulp is 2^-1074, not eps |y|
_LOG_ULPS = 1 << 10
_NEAR = 2.0**-32
_FAST_ROUNDS = ((1 << 20) - _LOG_ULPS) // 2
_TINY = 2.0**-1022

# fdlibm e_log.c (Sun Microsystems 1993): ln 2 split in two and the minimax
# coefficients of log(1+f) = f - f^2/2 + s R(s^2), s = f/(2+f)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LG1, _LG2, _LG3 = 6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01
_LG4, _LG5 = 2.222219843214978396e-01, 1.818357216161805012e-01
_LG6, _LG7 = 1.531383769920937332e-01, 1.479819860511658591e-01
_SQRT_HALF = 0.7071067811865476


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer H of a 64-bit integer."""
    z = (z ^ (z >> 30)) * _MUL1 & _M64
    z = (z ^ (z >> 27)) * _MUL2 & _M64
    return z ^ (z >> 31)


@functools.cache
def _operands(dtype: str, *values) -> tuple:
    """``values`` as read-only 0-d numpy arrays of ``dtype``, built once: a
    ufunc takes one of its other operand's dtype faster than a Python number
    or a numpy scalar, which it converts on every call, with the same result."""
    import numpy as np

    arrays = tuple(np.array(v, dtype) for v in values)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _mix64_array(z):
    """``_mix64`` over a np.uint64 array, in place (the products wrap)."""
    s30, mul1, s27, mul2, s31 = _operands("u8", 30, _MUL1, 27, _MUL2, 31)
    z ^= z >> s30
    z *= mul1
    z ^= z >> s27
    z *= mul2
    z ^= z >> s31
    return z


def _uniform(z, shift=11, unit=_TWO_M53):
    """The uniform on [0, 1) of a 64-bit word, a Python int or a np.uint64
    array (a plain or a 0-d np.uint64 shift keeps it uint64): its top 53
    bits over 2^53, the unit 2^-53 a float or a 0-d float64 array."""
    return (z >> shift) * unit


def _plog(x, frexp=math.frexp):
    """log(x) for x > 0 by fdlibm's kernel, within one ulp.

    x = m 2^k with m in [sqrt(1/2), sqrt(2)), then log x = k ln 2 + log(1 +
    f), f = m - 1.  After ``frexp`` it is a fixed sequence of IEEE + - * /,
    with no branch, so a Python float (``frexp=math.frexp``) and a numpy
    float64 array (``frexp=numpy.frexp``) get the same bits.  Its steps are
    augmented assignments: in place on arrays, rebinding on floats."""
    m, k = frexp(x)
    low = m < _SQRT_HALF
    m *= 1.0 + low  # doubling is exact
    k -= low
    f = m - 1.0  # exact: m lies within a factor 2 of 1
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    # r = z (LG1 + w (LG3 + w (LG5 + w LG7))) + w (LG2 + w (LG4 + w LG6)), and
    # then log x = k ln2_hi - ((hfsq - (s (hfsq + r) + k ln2_lo)) - f)
    r, q = w * _LG7, w * _LG6
    for a, b in ((_LG5, _LG4), (_LG3, _LG2)):
        r += a
        r *= w
        q += b
        q *= w
    r += _LG1
    r *= z
    r += q
    hfsq = 0.5 * f
    hfsq *= f
    r += hfsq
    r *= s
    r += k * _LN2_LO
    hfsq -= r
    hfsq -= f
    return k * _LN2_HI - hfsq


@functools.lru_cache(maxsize=64)
def _mutation_cdf(law: str, omega: float) -> tuple[float, ...]:
    """Cumulative probabilities of the per-daughter mutation count (mean
    omega/2) for inverse-CDF sampling: the count is the first k with
    u < cdf[k], bisect_right(cdf, u).  The last entry is inf, so that k always
    exists; it takes the Poisson tail beyond a term below 1e-18."""
    mean = omega / 2.0
    if mean == 0.0:
        return (math.inf,)
    if law == "bernoulli":
        return (1.0 - mean, math.inf)
    cdf = []
    total = 0.0
    k = 0
    while True:
        term = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        total += term
        cdf.append(total)
        k += 1
        if k > mean and term < 1e-18:
            break
    cdf[-1] = math.inf
    return tuple(cdf)


# ``sample_chunk`` compares a word w with a probability c as integers:
# _uniform(w) = floor(w / 2^11) 2^-53 and c 2^53 is exact (a power-of-two
# scaling), so _uniform(w) < c exactly when the integer floor(w / 2^11) is
# below c 2^53, that is below ceil(c 2^53), that is when w < W = ceil(c 2^53)
# 2^11.  A double c < 1 is at most 1 - 2^-53, so W <= 2^64 - 2^11; an entry
# c >= 1 (inf, or 1 at d1 = 0) holds for every word and is left out, so
# bisect_right(cdf, _uniform(w)) counts the thresholds W <= w, if cdf is sorted
def _thresholds(cdf) -> list[int]:
    """The words W with _uniform(w) < c exactly when w < W, for each c < 1 of a cdf."""
    return [math.ceil(c * 2.0**53) << 11 for c in cdf if c < 1.0]


@functools.lru_cache(maxsize=64)
def _mutation_table(law: str, omega: float):
    """(thresholds, guide) of ``_mutation_cdf``: its ``_thresholds`` as a
    np.uint64 array, and a guide table (Chen & Asau 1974) whose entry j is
    the count of every word with top 16 bits j, or where a threshold splits
    those words a marker above every count, the guide dtype's maximum."""
    import numpy as np

    thresholds = np.array(_thresholds(_mutation_cdf(law, omega)), dtype=np.uint64)
    first = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
    lo, hi = (thresholds.searchsorted(w, "right") for w in (first, first + np.uint64(2**48 - 1)))
    dtype = np.min_scalar_type(thresholds.size + 1)
    guide = np.where(lo == hi, lo, np.iinfo(dtype).max).astype(dtype)
    thresholds.flags.writeable = guide.flags.writeable = False
    return thresholds, guide


def _mutation_counts(words, thresholds, guide):
    """bisect_right(cdf, _uniform(w)) for each w of a np.uint64 array: the
    guide's entry (indexed by intp, faster than by np.uint64), and where
    that is the marker a search of the thresholds."""
    (shift,) = _operands("u8", 48)
    (bound,) = _operands(guide.dtype.str, thresholds.size)
    counts = guide[(words >> shift).view("i8")]
    marked = (counts > bound).nonzero()[0]
    if marked.size:
        counts[marked] = thresholds.searchsorted(words[marked], "right")
    return counts


# the largest omega simulated: _mutation_cdf tabulates the Poisson law of
# mean omega/2 term by term to past its mean, about 10.9k entries (a few ms
# to build) at this bound, but 10^6 entries and half a second at omega = 2e6
_MAX_OMEGA = 2e4

# the kinds of a kept sensitive cell's daughters: a recorded daughter's kind
# is its cell type; the daughter pairs are (first, second), all but two
# dropped daughters, in the order of the pair table
_DROPPED = 2
_PAIRS = tuple(
    (a, b)
    for a in (RESISTANT, SENSITIVE, _DROPPED)
    for b in (RESISTANT, SENSITIVE, _DROPPED)
    if a != _DROPPED or b != _DROPPED
)


def _reduced_tree(params: ModelParams) -> tuple[float, tuple[float, ...]]:
    """(h, pair cdf) of the reduced sensitive tree: h is the probability that
    a sensitive cell's untruncated progeny ever holds a resistant cell, and
    a kept cell's daughter pair is _PAIRS[bisect_right(cdf, u)]."""
    dp = derive(params)
    gamma_n = dp.gamma_n
    # h = 1 - g = (x_n - lambda0/delta0) / (1 + x_n), with x_n = (lambda0/delta0)
    # sqrt(1 + a) as derive has it, so the difference is (lambda0/delta0) a /
    # (1 + sqrt(1 + a)), free of the cancellation of 1 - g at small gamma_n
    a = 4.0 * dp.b0 * dp.d0 * gamma_n * (2.0 - gamma_n) / dp.lambda0**2
    h = dp.lambda0 / dp.delta0 * a / ((1.0 + math.sqrt(1.0 + a)) * (1.0 + dp.x_n))
    return h, _pair_cdf(gamma_n, h, 2.0 * (dp.d0 / dp.delta0) / (1.0 + dp.x_n))


@functools.lru_cache(maxsize=64)
def _pair_cdf(gamma_n: float, h: float, g: float) -> tuple[float, ...]:
    """Cumulative probabilities of _PAIRS, the last entry inf, like
    ``_mutation_cdf``'s: each daughter resistant with weight gamma_n, kept
    sensitive with (1 - gamma_n) h and dropped with (1 - gamma_n) g, given
    that not both are dropped.  At h = 0 no cell is kept and the table is
    never read."""
    if h == 0.0:
        return (math.inf,) * len(_PAIRS)
    weight = {RESISTANT: gamma_n, SENSITIVE: (1.0 - gamma_n) * h, _DROPPED: (1.0 - gamma_n) * g}
    # 1 - ((1 - gamma_n) g)^2 as the product of its two factors, 1 - (1 -
    # gamma_n) g = h + gamma_n g with nothing cancelled
    norm = (h + gamma_n * g) * (1.0 + (1.0 - gamma_n) * g)
    cdf = []
    total = 0.0
    for a, b in _PAIRS:
        total += weight[a] * weight[b] / norm
        cdf.append(total)
    cdf[-1] = math.inf
    return tuple(cdf)


def checked_args(
    params: ModelParams, t_obs: float, initial: tuple[int, int] | None, i_max: int = 1, windows=()
) -> tuple[tuple[int, int], tuple[float, ...]]:
    """The checked starting (sensitive, resistant) population and window
    edges of runs to ``t_obs`` with rows over i = 1..i_max; ``initial``
    defaults to (n_init, 0).  An omega above ``_MAX_OMEGA``, or a window
    whose carrier edge x e^(lambda1 t_obs) passes the float range, raises
    ParameterError."""
    if params.omega > _MAX_OMEGA:
        raise ParameterError(f"simulation requires omega <= {_MAX_OMEGA:g}, got omega={params.omega}")
    if not 0 <= t_obs < math.inf:
        raise ValueError(f"requires finite t_obs >= 0, got {t_obs}")
    checked_index(i_max, "i_max", 1)
    windows = tuple(windows)
    if not all(0 < x < math.inf for x in windows):
        raise ValueError(f"requires finite window edges > 0, got {windows}")
    try:  # math.exp raises OverflowError past the float range, a product gives inf
        if windows and max(windows) * math.exp((params.b1 - params.d1) * t_obs) == math.inf:
            raise OverflowError
    except OverflowError:
        raise ParameterError(f"window edge {max(windows):g} e^(lambda1 t_obs) passes the float range") from None
    if initial is None:
        initial = (params.n_init, 0)
    n0_init, n1_init = (checked_index(n, "initial population") for n in initial)
    if n0_init < 0 or n1_init < 0 or n0_init + n1_init == 0:
        raise ValueError(f"initial population must be nonnegative and nonempty, got {initial}")
    return (n0_init, n1_init), windows


def _cap_error(max_cells: int, t_obs: float, replicate: int | None = None) -> PopulationCapError:
    return PopulationCapError(
        f"genealogy exceeded max_cells={max_cells} before t_obs={t_obs:.4f}", replicate
    )


def run(
    params: ModelParams,
    t_obs: float,
    initial: tuple[int, int] | None = None,
    *,
    rng: Random,
    max_cells: int = 5_000_000,
) -> SimOutcome:
    """Simulate the process exactly up to ``t_obs``, one cell at a time.

    ``rng`` supplies one number, the replicate key ``rng.getrandbits(64)``;
    every draw after it is keyed by its cell (see the module docstring), so
    ``sample_chunk`` on that key gives this run's spectrum.  ``initial`` is
    the starting (sensitive, resistant) population; it defaults to (n_init,
    0).  Cells come off a LIFO stack, the kept sensitive cells first and
    then the resistant cells they produced.  A sensitive root is kept with
    probability h; a kept cell born at time s divides at s + Exp(b0+d0)
    unless that reaches ``t_obs``, and its daughters come as one draw from
    the pair table, a dropped daughter unrecorded.  A resistant cell born
    at s dies or divides at s + Exp(b1+d1); one whose lifetime reaches
    ``t_obs`` is alive, otherwise it divides with probability b1/(b1+d1).
    Daughters get their mutation count at birth.  The genealogy counts its
    roots and two nodes per division, a dropped daughter included; raises
    PopulationCapError once that exceeds ``max_cells``.
    """
    (n0_init, n1_init), _ = checked_args(params, t_obs, initial)
    key = rng.getrandbits(64) ^ _ROOT

    c0 = params.b0 + params.d0
    c1 = params.b1 + params.d1
    divide1 = params.b1 / c1
    h, pairs = _reduced_tree(params)
    cdf = _mutation_cdf(params.mutation_law, params.omega)
    mix, uniform, plog = _mix64, _uniform, _plog
    n_roots = n0_init + n1_init
    ids = [mix(key + (k + 1) * _GOLDEN & _M64) for k in range(n_roots)]

    parent = [-1] * n_roots
    cell_type = [SENSITIVE] * n0_init + [RESISTANT] * n1_init
    edge_mutations = [0] * n_roots
    # every node enters alive; a cell that dies or divides before t_obs is
    # marked when it comes off its stack
    status = [STATUS_ALIVE] * n_roots
    # pending kept sensitive cells are (node, id, birth time, generation,
    # root id), so that the resistant founders they produce can be labelled;
    # pending resistant cells are (node, id, birth time)
    stack0 = [
        (k, ids[k], 0.0, 0, k)
        for k in range(n0_init)
        if uniform(mix(ids[k] + _DIVIDE & _M64)) < h
    ]
    stack1 = [(k, ids[k], 0.0) for k in range(n0_init, n_roots)]
    pop0, push0 = stack0.pop, stack0.append
    pop1, push1 = stack1.pop, stack1.append
    event_counts = [0, 0, 0, 0, 0]
    ancestral: list[tuple[float, int, int]] = []
    z1 = dropped = 0

    while stack0:
        mother, x, born, g, rid = pop0()
        t = born - plog(1.0 - uniform(x)) / c0
        if t >= t_obs:
            continue
        status[mother] = STATUS_DIVIDED
        g += 1
        kinds = _PAIRS[bisect_right(pairs, uniform(mix(x + _PAIR & _M64)))]
        for d, kind in zip((_GOLDEN, 2 * _GOLDEN), kinds):
            if kind == _DROPPED:
                dropped += 1
                continue
            y = mix(x + d & _M64)
            child = len(parent)
            parent.append(mother)
            cell_type.append(kind)
            edge_mutations.append(bisect_right(cdf, uniform(mix(y + _MUTATION & _M64))))
            status.append(STATUS_ALIVE)
            if kind == RESISTANT:
                push1((child, y, t))
                ancestral.append((t, g, rid))
            else:
                push0((child, y, t, g, rid))
        event_counts[(0, 2, 3)[kinds.count(RESISTANT)]] += 1
        if len(parent) + dropped > max_cells:
            raise _cap_error(max_cells, t_obs)

    # every node made from here on is a daughter of a resistant division
    first_resistant_daughter = len(parent)
    while stack1:
        mother, x, born = pop1()
        t = born - plog(1.0 - uniform(x)) / c1
        if t >= t_obs:
            z1 += 1
            continue
        if uniform(mix(x + _DIVIDE & _M64)) >= divide1:
            status[mother] = STATUS_DEAD
            event_counts[4] += 1
            continue
        status[mother] = STATUS_DIVIDED
        for d in (_GOLDEN, 2 * _GOLDEN):
            y = mix(x + d & _M64)
            push1((len(parent), y, t))
            parent.append(mother)
            edge_mutations.append(bisect_right(cdf, uniform(mix(y + _MUTATION & _M64))))
            status.append(STATUS_ALIVE)
        if len(parent) + dropped > max_cells:
            raise _cap_error(max_cells, t_obs)

    n_resistant_daughters = len(parent) - first_resistant_daughter
    event_counts[2] += n_resistant_daughters // 2
    cell_type += [RESISTANT] * n_resistant_daughters
    ancestral.sort()
    return SimOutcome(
        params=params,
        t_obs=t_obs,
        parent=parent,
        cell_type=cell_type,
        edge_mutations=edge_mutations,
        status=status,
        n_roots=n_roots,
        z1_final=z1,
        event_counts=event_counts,
        ancestral=ancestral,
    )


def sample_chunk(
    params: ModelParams,
    t_obs: float,
    initial: tuple[int, int] | None,
    keys: list[int],
    *,
    i_max: int,
    windows: tuple[float, ...] = (),
    keep: bool = False,
    max_cells: int = 5_000_000,
):
    """The rows of one chunk of replicates, replicate j keyed by ``keys[j]``,
    and their records when ``keep`` is set (else an empty list).  A key is
    an integer in [0, 2^64); any other raises ValueError naming its position.

    Row j holds replicate j's ROW_FIELDS as floats, in that order and with
    the widths ``row_widths`` gives: its dense s, s_resistant_origin and
    s_sensitive_origin over i = 1..i_max; for each window edge x the
    mutations with carrier count above x e^(lambda1 t_obs) (all windows'
    totals, then resistant, then sensitive origin); and its founder count,
    final resistant count and total mutation count.  For any key these are
    the values ``extract_sfs``, ``dense_sfs``, ``window_counts``,
    ``len(ancestral)`` and ``z1_final`` give for ``run`` on a generator
    whose ``getrandbits(64)`` is that key, and record j equals that
    ``extract_sfs`` record.

    Draws are keyed by cell, so neither the blocks, their phases and batches
    (see ``_sample_block``) nor the chunk change a replicate's values.  The
    keys run in blocks, in order, so the memory a chunk takes does not
    grow with the chunk: a block's replicates hold at most ``_BLOCK_NODES``
    genealogy nodes together, or ``max_cells`` if that is smaller, where a
    replicate's nodes are its roots, every one kept or not, and two per
    division, as ``run`` counts them.  A block is sized to fill about half
    of that, first as if each root had 8 nodes, then from the nodes per
    replicate of the block before; a block whose replicates exceed it is
    dropped after the batch that shows it and run again in halves.  One
    replicate may take up to ``max_cells`` nodes by itself, so one that
    takes more ends up alone and raises PopulationCapError, which names its
    position in ``replicate``; it is the lowest such replicate, and ``run``
    on its key raises too.
    """
    initial, windows = checked_args(params, t_obs, initial, i_max, windows)
    import numpy as np

    keys = _key_words(keys)
    budget = min(max_cells, _BLOCK_NODES)
    # blocks aim at half the budget: first at 8 nodes per root, then at the
    # nodes per replicate of the block before, so a block of several
    # replicates never holds more roots than the budget
    size = budget // (16 * sum(initial))
    rows = [np.empty((0, sum(row_widths(i_max, len(windows)))))]
    records = []
    first = 0
    while first < len(keys):
        block = keys[first : first + max(size, 1)]
        limit = max_cells if len(block) == 1 else budget
        result = _sample_block(params, t_obs, initial, block, i_max, windows, keep, limit)
        if result is None:
            if len(block) == 1:
                raise _cap_error(max_cells, t_obs, first)
            size = len(block) // 2
            continue
        rows.append(result[0])
        records += result[1]
        first += len(block)
        size = budget * len(block) // (2 * result[2])
    return np.concatenate(rows), records


def _key_words(keys):
    """``keys`` as a np.uint64 array, or a ValueError naming the position of the first
    that is not an integer in [0, 2^64), which numpy would truncate or overflow on."""
    import numpy as np

    keys = list(keys)
    if not set(map(type, keys)) <= {int} or min(keys, default=0) < 0 or max(keys, default=0) > _M64:
        for j, key in enumerate(keys):
            if checked_index(key, f"key at position {j}", 0) > _M64:
                raise ValueError(f"requires key at position {j} < 2^64, got {key}")
    return np.array(keys, dtype=np.uint64)


def _sample_block(params, t_obs, initial, keys, i_max, windows, keep, limit):
    """The rows, records and genealogy node count of one block of keys; or
    None, checked after every batch, if the block's replicates exceed
    ``limit`` nodes together.

    A round takes a batch of about ``_BATCH`` cells off the front of the
    phase's first-in first-out queue, the kept sensitive cells' and then
    the resistant cells', and their dividing cells' daughters join the back
    of their own type's queue, a dropped one none.  A kept sensitive cell
    draws its lifetime and, if it divides, its daughter pair; a resistant
    cell its lifetime and divide-or-die.  Every other draw compares a word
    with an integer (``_thresholds``): a root is kept below h's threshold (h
    < 1), and a resistant cell divides at or below the top word W - 1 of its
    threshold W, or 2^64 - 1 at d1 = 0.  The founders are counted once, in
    the resistant queue when the sensitive phase ends, as it then holds
    exactly the resistant roots and the founders.  A round's numpy calls are
    small, so their constant operands are 0-d arrays (``_operands``).

    Every cell of a batch draws its mutation count and becomes an entry of
    a cell table (mother's entry, group 2 replicate + origin, whether it is
    a resistant cell alive at ``t_obs``, edge's mutation count) after
    entries 0..reps - 1, each replicate's sentinel, its roots' mother; each
    column is the rounds' arrays in the smallest type the cap allows,
    joined when the walk ends.  Counting walks the batches back, adding
    each entry's carrier count into its mother's: the sentinels end with
    the final resistant counts, and the entries with carriers and mutations
    under no sentinel fill the rows.

    The block is walked with numpy's ``log`` and, only if that walk cannot
    vouch for its rows, again with ``_plog``: a row sees a time only
    through t < t_obs, and a cell's two ends differ by less than the margin
    max(_NEAR t_obs, _TINY), so the walks agree unless an end lies within
    the margin of t_obs or the walk takes more than _FAST_ROUNDS rounds.
    """
    import numpy as np

    n0_init, n_roots = initial[0], sum(initial)
    u64 = np.uint64
    reps = len(keys)
    # the rounds' constant operands, 0-d arrays of their operands' dtypes
    divide_top = np.array(min(_thresholds([params.b1 / (params.b1 + params.d1)]), default=1 << 64) - 1, u64)
    (shift,), (unit, one) = _operands("u8", 11), _operands("f8", _TWO_M53, 1.0)
    c0, c1, end = (np.array(v, np.float64) for v in (params.b0 + params.d0, params.b1 + params.d1, t_obs))
    bit = np.array(1, np.intp)
    h, pairs = _reduced_tree(params)
    pairs = np.array(_thresholds(pairs), dtype=u64)
    kinds = np.array(_PAIRS).T  # by a pair's index, its two daughters' kinds
    by_kind = [np.array(k, kinds.dtype) for k in (SENSITIVE, RESISTANT)]
    mutations = _mutation_table(params.mutation_law, params.omega)
    # the block's nodes are its roots and two per division, a dropped daughter
    # included, as run counts them; the walk stops at the batch past limit
    max_divisions = max((limit - reps * n_roots) // 2, 0)
    # what a kept sensitive cell and a resistant cell hash at once
    sensitive_offsets = np.array([[_GOLDEN], [2 * _GOLDEN & _M64], [_PAIR], [_MUTATION]], dtype=u64)
    resistant_offsets = np.array([[_DIVIDE], [_MUTATION]], dtype=u64)
    # the table's columns in the smallest types the cap allows: a division
    # queues each daughter at most once, and a batch may take up to 2 _BATCH
    # divisions past max_divisions
    entries = reps * (n_roots + 1) + 2 * (max_divisions + 2 * _BATCH)
    types = [np.min_scalar_type(entries), np.min_scalar_type(2 * reps), bool, mutations[1].dtype]

    x = np.repeat(keys ^ u64(_ROOT), n_roots)
    x = _mix64_array(x + np.tile(np.arange(1, n_roots + 1, dtype=u64) * u64(_GOLDEN), reps))
    # only the kept sensitive roots are queued, each under its replicate's sentinel
    sensitive_root = np.tile(np.arange(n_roots) < n0_init, reps)
    (h_word,) = _thresholds([h])
    kept = _mix64_array(x + u64(_DIVIDE)) < u64(h_word)
    roots = [
        (x[cells], np.zeros(cells.size), cells // n_roots, 2 * (cells // n_roots))
        for cells in ((sensitive_root & kept).nonzero()[0], (~sensitive_root).nonzero()[0])
    ]

    def walk(log, margin):
        # the founder counts, cell table, batch bounds and divisions with
        # lifetimes by ``log``; None past max_divisions, False if a margin is
        # set and the walk cannot vouch for its rows.  A queue entry holds
        # cells' ids, birth times, mothers and groups; their type is the queue's
        sensitive, resistant = deque(), deque()
        # the table's columns as the rounds' arrays, the sentinels' first
        table = [[np.zeros(reps, dtype)] for dtype in types]
        # each batch's first entry (bounds[-1] in round len(bounds)), and the table's end
        bounds = [reps]
        divisions = 0

        def enqueue(queue, *columns):
            for lo in range(0, columns[0].size, _BATCH):
                queue.append([part[lo : lo + _BATCH] for part in columns])

        def batches(queue):
            # until the queue is empty or the block divides too often
            while queue and divisions <= max_divisions:
                parts, size = [], 0
                while queue and size < _BATCH:
                    parts.append(queue.popleft())
                    size += parts[-1][0].size
                yield parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]
                bounds.append(bounds[-1] + size)

        def unsure(t):
            # whether an end t by ``log`` may fall on the other side of t_obs than ``_plog``'s
            return margin is not None and (
                len(bounds) > _FAST_ROUNDS or np.minimum.reduce(np.abs(t - end)) <= margin
            )

        def tabulate(mother, group, leaf, words):
            # the batch's cells into the table
            counts = _mutation_counts(words, *mutations)
            for column, values, dtype in zip(table, (mother, group, leaf, counts), types):
                column.append(values.astype(dtype, copy=False))

        for queue, columns in zip((sensitive, resistant), roots):
            enqueue(queue, *columns)

        # the sensitive phase, over the reduced tree: a kept cell divides if
        # its lifetime ends before t_obs, and draws its daughters' kinds as
        # one pair.  Each daughter joins its kind's queue, a dropped one none;
        # a sensitive cell's group is even, so its daughters' too
        for x, born, mother, group in batches(sensitive):
            t = born - log(one - _uniform(x, shift, unit)) / c0
            if unsure(t):
                return False
            y = _mix64_array(x + sensitive_offsets)
            tabulate(mother, group, np.zeros(x.size, bool), y[3])
            dividing = (t < end).nonzero()[0]
            divisions += dividing.size
            kind = kinds[:, pairs.searchsorted(y[2, dividing], "right")]
            for queue, k in zip((sensitive, resistant), by_kind):
                daughter, cell = (kind == k).nonzero()
                cell = dividing[cell]
                enqueue(queue, y[daughter, cell], t[cell], bounds[-1] + cell, group[cell])

        founders = np.full(reps, -initial[1])
        for *_, group in resistant:
            founders += np.bincount(group >> bit, minlength=reps)

        # the resistant phase: a resistant cell alive at t_obs is a leaf,
        # and its daughters are of resistant origin
        for x, born, mother, group in batches(resistant):
            t = born - log(one - _uniform(x, shift, unit)) / c1
            if unsure(t):
                return False
            words = _mix64_array(x + resistant_offsets)
            tabulate(mother, group, t >= end, words[1])
            dividing = ((t < end) & (words[0] <= divide_top)).nonzero()[0]
            divisions += dividing.size
            t, mother, group = t[dividing], bounds[-1] + dividing, group[dividing] | bit
            for ids in _mix64_array(x[dividing] + sensitive_offsets[:2]):
                enqueue(resistant, ids, t, mother, group)
        if divisions > max_divisions:
            return None
        return founders, [np.concatenate(column) for column in table], bounds, divisions

    result = walk(np.log, max(_NEAR * t_obs, _TINY))
    if result is False:
        result = walk(functools.partial(_plog, frexp=np.frexp), None)
    if result is None:
        return None
    founders, (mother, group, leaf, muts), bounds, divisions = result
    del result
    # carrier counts, signed so that sums with intp stay integers: a leaf
    # carries itself, then the batches, last first, add their counts into
    # their mothers', which lie in earlier batches or are sentinels
    carried = leaf.astype(np.min_scalar_type(-max(limit, n_roots)))
    for first, last in zip(bounds[-2::-1], bounds[:0:-1]):
        lo = int(np.minimum.reduce(mother[first:last]))
        counts = np.subtract(mother[first:last], lo, dtype=np.intp)
        counts = np.bincount(counts, carried[first:last], first - lo)
        np.add(carried[lo:first], counts, out=carried[lo:first], casting="unsafe")
    widths = row_widths(i_max, len(windows))
    rows = np.empty((reps, sum(widths)))
    row = dict(zip(ROW_FIELDS, np.split(rows, np.cumsum(widths)[:-1], axis=1)))
    scalars = row["scalars"]
    scalars[:, 0], scalars[:, 1] = founders, carried[:reps]
    # a root's edge, under a sentinel, carries no mutations
    used = ((carried > 0) & (muts > 0) & (mother >= reps)).nonzero()[0]
    carried, m, group = carried[used], muts[used], group[used]
    del mother, leaf, muts, used

    def tally(keys, weights, length):
        # bincount gives int64 zeros for no keys, whatever the weights
        return np.bincount(keys, weights, length).astype(np.float64, copy=False)

    small = carried <= i_max
    cells = group[small].astype(np.intp) * (i_max + 1) + carried[small]
    dense = tally(cells, m[small], 2 * reps * (i_max + 1)).reshape(reps, 2, i_max + 1)
    row["sbar"][...], row["sunder"][...] = dense[:, 1, 1:], dense[:, 0, 1:]
    for k, edge in enumerate(windows):
        above = carried > edge * math.exp((params.b1 - params.d1) * t_obs)
        counts = tally(group[above], m[above], 2 * reps).reshape(reps, 2)
        row["window_sbar"][:, k], row["window_sunder"][:, k] = counts[:, 1], counts[:, 0]
    for total in ("", "window_"):
        np.add(row[total + "sbar"], row[total + "sunder"], out=row[total + "s"])
    scalars[:, 2] = tally(group >> 1, m, reps)

    records = []
    if keep:
        spectra = [({}, {}) for _ in range(reps)]  # (sensitive, resistant) origin
        for g, i, count in zip(group.tolist(), carried.tolist(), m.tolist()):
            bucket = spectra[g >> 1][g & 1]
            bucket[i] = bucket.get(i, 0) + count
        records = [
            SfsRecord(dict(sorted(res.items())), dict(sorted(sen.items())), t_obs)
            for sen, res in spectra
        ]
    return rows, records, reps * n_roots + 2 * divisions


def extract_sfs(outcome: SimOutcome) -> SfsRecord:
    """Site frequency spectrum of the living resistant population.

    One bottom-up pass accumulates, for every genealogy edge, the number of
    living resistant descendants per edge (inclusive); an edge carrying
    m > 0 mutations adds m to the bucket of its descendant count, split by
    the type of the dividing mother.  Edges with zero living resistant
    descendants are discarded.
    """
    parent = outcome.parent
    status = outcome.status
    cell_type = outcome.cell_type
    muts = outcome.edge_mutations
    n = len(parent)
    desc = [0] * n
    s_res: dict[int, int] = {}
    s_sen: dict[int, int] = {}
    for idx in range(n - 1, -1, -1):
        c = desc[idx]
        if status[idx] == STATUS_ALIVE and cell_type[idx] == RESISTANT:
            c += 1
            desc[idx] = c
        if c:
            p = parent[idx]
            if p >= 0:
                desc[p] += c
            m = muts[idx]
            if m:
                # roots carry no mutations, so p >= 0 here
                bucket = s_res if cell_type[p] == RESISTANT else s_sen
                bucket[c] = bucket.get(c, 0) + m
    return SfsRecord(
        s_resistant_origin=s_res,
        s_sensitive_origin=s_sen,
        t_obs=outcome.t_obs,
    )


def window_counts(
    record: SfsRecord, x1: float, x2: float, lambda1: float
) -> WindowCounts:
    """Mutation counts with carrier number in the open window
    (x1 e^(lambda1 t_obs), x2 e^(lambda1 t_obs)); x2 may be inf."""
    if not 0 < x1 < x2:
        raise ValueError(f"requires 0 < x1 < x2, got x1={x1}, x2={x2}")
    scale = math.exp(lambda1 * record.t_obs)
    lo = x1 * scale
    hi = x2 * scale if x2 != math.inf else math.inf
    spectra = (record.s_resistant_origin, record.s_sensitive_origin)
    return WindowCounts(*(sum(m for i, m in s.items() if lo < i < hi) for s in spectra))


def dense_sfs(record: SfsRecord, i_max: int) -> tuple[list[int], list[int], list[int]]:
    """Dense (s, s_resistant_origin, s_sensitive_origin) vectors over
    1..i_max as length-(i_max+1) lists with slot 0 unused."""
    sr = [0] * (i_max + 1)
    ss = [0] * (i_max + 1)
    for dense, spectrum in ((sr, record.s_resistant_origin), (ss, record.s_sensitive_origin)):
        for i, m in spectrum.items():
            if i <= i_max:
                dense[i] = m
    return [a + b for a, b in zip(sr, ss)], sr, ss
