"""Test-only oracles: the full-genealogy lifetime simulator ``full_run``
and the event-driven Gillespie simulator, which the reduced-tree simulator
``run`` and the chunk sampler are checked against in distribution; the
exact marked Galton-Watson tree recursions (the leaf-count pmf u_n, the
joint law v_{g,n} of a leaf's generation and the leaf count, and the
Catalan sums) that the generation laws of ``rescue_sfs.gw_trees`` are
checked against; a direct sampler of the exactly-one-mark tree the
rejection sampler is checked against; a naive per-cell mutation-set SFS
algorithm; a hand-built genealogy mirroring the worked one-root example
(seven living resistant cells; spectrum S1=3, S3=1, S7=2); the one- and
two-sample chi-square and Kolmogorov-Smirnov goodness-of-fit tests
(p-values from scipy.special.chdtrc and scipy.stats.kstest) that the
statistical checks use; and the import list of a module's source that the
dependency checks read.

``full_run`` simulates every cell, each sensitive one included, one
lifetime at a time with cell-keyed draws; its forests are pinned.  ``gillespie`` (Gillespie 1977)
draws every event of the whole population in time order.  The
mechanism-level divisions of both induce the aggregate transition rates of
the five-row table

    (z0, z1) -> (z0+1, z1)    at (1-gamma_n)^2 b0 z0
    (z0, z1) -> (z0-1, z1)    at d0 z0
    (z0, z1) -> (z0,   z1+1)  at 2 gamma_n (1-gamma_n) b0 z0 + b1 z1
    (z0, z1) -> (z0-1, z1+2)  at gamma_n^2 b0 z0
    (z0, z1) -> (z0,   z1-1)  at d1 z1

and ``gillespie`` can verify each event against it.
"""

from __future__ import annotations

import ast
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Sequence

import numpy as np
from scipy.special import chdtrc
from scipy.stats import kstest

from rescue_sfs.gw_trees import GwLaw, geometric_pmf
from rescue_sfs.montecarlo import IndexMismatchError
from rescue_sfs.params import ModelParams
from rescue_sfs.simulator import (
    _DIVIDE,
    _GOLDEN,
    _M64,
    _MUTATION,
    _PAIR,
    _ROOT,
    RESISTANT,
    SENSITIVE,
    STATUS_ALIVE,
    STATUS_DEAD,
    STATUS_DIVIDED,
    PopulationCapError,
    SimOutcome,
    _cap_error,
    _mix64,
    _mutation_cdf,
    _plog,
    _uniform,
    checked_args,
)


@dataclass
class OracleOutcome(SimOutcome):
    """A full-genealogy run (``full_run`` or ``gillespie``): the SimOutcome
    of every cell, the final sensitive count ``z0_final`` and, with
    ``gillespie``'s ``track_rates``, the per-event expected class
    probabilities summed over the run."""

    z0_final: int
    expected_class_weights: list[float] | None = None


def full_run(
    params: ModelParams,
    t_obs: float,
    initial: tuple[int, int] | None = None,
    *,
    rng: Random,
    max_cells: int = 5_000_000,
) -> OracleOutcome:
    """Simulate the process exactly up to ``t_obs``, one cell at a time, every
    sensitive cell included.

    ``rng`` supplies one number, the replicate key ``rng.getrandbits(64)``;
    every draw after it is keyed by its cell.  ``initial`` is the starting
    (sensitive, resistant) population; it defaults to (n_init, 0).  Cells
    come off a LIFO stack, sensitive cells first and then the resistant
    cells they produced.  Each cell born at time s dies or divides at s +
    Exp(b+d); a cell whose lifetime reaches ``t_obs`` is alive, otherwise it
    divides with probability b/(b+d) and dies otherwise.  Daughters get
    their type (resistant with probability gamma_n, by the uniform at
    offset ``_PAIR``) and mutation count at birth.  Raises PopulationCapError once
    the genealogy exceeds ``max_cells`` nodes.
    """
    (n0_init, n1_init), _ = checked_args(params, t_obs, initial)
    key = rng.getrandbits(64) ^ _ROOT

    c0 = params.b0 + params.d0
    c1 = params.b1 + params.d1
    divide0 = params.b0 / c0
    divide1 = params.b1 / c1
    gamma_n = params.gamma_n
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
    # pending sensitive cells are (node, id, birth time, generation, root
    # id), so that the resistant founders they produce can be labelled;
    # pending resistant cells are (node, id, birth time)
    stack0 = [(k, ids[k], 0.0, 0, k) for k in range(n0_init)]
    stack1 = [(k, ids[k], 0.0) for k in range(n0_init, n_roots)]
    pop0, push0 = stack0.pop, stack0.append
    pop1, push1 = stack1.pop, stack1.append
    event_counts = [0, 0, 0, 0, 0]
    ancestral: list[tuple[float, int, int]] = []
    z0 = z1 = 0

    while stack0:
        mother, x, born, g, rid = pop0()
        t = born - plog(1.0 - uniform(x)) / c0
        if t >= t_obs:
            z0 += 1
            continue
        if uniform(mix(x + _DIVIDE & _M64)) >= divide0:
            status[mother] = STATUS_DEAD
            event_counts[1] += 1
            continue
        status[mother] = STATUS_DIVIDED
        g += 1
        flips = 0
        for d in (_GOLDEN, 2 * _GOLDEN):
            y = mix(x + d & _M64)
            child = len(parent)
            parent.append(mother)
            edge_mutations.append(bisect_right(cdf, uniform(mix(y + _MUTATION & _M64))))
            status.append(STATUS_ALIVE)
            if uniform(mix(y + _PAIR & _M64)) < gamma_n:
                flips += 1
                cell_type.append(RESISTANT)
                push1((child, y, t))
                ancestral.append((t, g, rid))
            else:
                cell_type.append(SENSITIVE)
                push0((child, y, t, g, rid))
        event_counts[(0, 2, 3)[flips]] += 1
        if len(parent) > max_cells:
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
        if len(parent) > max_cells:
            raise _cap_error(max_cells, t_obs)

    n_resistant_daughters = len(parent) - first_resistant_daughter
    event_counts[2] += n_resistant_daughters // 2
    cell_type += [RESISTANT] * n_resistant_daughters
    ancestral.sort()
    return OracleOutcome(
        params=params,
        t_obs=t_obs,
        parent=parent,
        cell_type=cell_type,
        edge_mutations=edge_mutations,
        status=status,
        n_roots=n_roots,
        z0_final=z0,
        z1_final=z1,
        event_counts=event_counts,
        ancestral=ancestral,
    )


def alive_counts(outcome: SimOutcome) -> tuple[int, int]:
    """(sensitive, resistant) alive counts recomputed from the forest."""
    return _alive_counts(outcome.status, outcome.cell_type)


def _alive_counts(status: list[int], cell_type: list[int]) -> tuple[int, int]:
    alive = [typ for st, typ in zip(status, cell_type) if st == STATUS_ALIVE]
    return alive.count(SENSITIVE), alive.count(RESISTANT)


def gillespie(
    params: ModelParams,
    t_obs: float,
    initial: tuple[int, int] | None = None,
    *,
    rng: Random,
    max_cells: int = 5_000_000,
    track_rates: bool = False,
    debug_checks: bool = False,
) -> OracleOutcome:
    """Simulate the process exactly up to ``t_obs``, event by event, drawing
    every random number from ``rng``: the reference oracle for ``run``,
    which samples the same law.

    ``initial`` is the starting (sensitive, resistant) population; it
    defaults to (n_init, 0).  ``track_rates`` accumulates the per-event
    expected class probabilities of the five-row transition table (the
    chi-square oracle for rate faithfulness).  ``debug_checks`` checks the
    alive lists against the forest after every event and at the end.
    """
    (n0_init, n1_init), _ = checked_args(params, t_obs, initial)

    b0, d0, b1, d1 = params.b0, params.d0, params.b1, params.d1
    gamma_n = params.gamma_n
    c0 = b0 + d0
    c1 = b1 + d1
    cdf = _mutation_cdf(params.mutation_law, params.omega)
    rand = rng.random
    expo = rng.expovariate

    n_roots = n0_init + n1_init
    parent = [-1] * n_roots
    cell_type = [SENSITIVE] * n0_init + [RESISTANT] * n1_init
    edge_mutations = [0] * n_roots
    status = [STATUS_ALIVE] * n_roots
    # alive sensitive cells carry (node, generation, root id) to label the
    # resistant founders they produce; alive resistant cells are node ids
    alive0 = [(k, 0, k) for k in range(n0_init)]
    alive1 = list(range(n0_init, n_roots))

    event_counts = [0, 0, 0, 0, 0]
    expected = [0.0, 0.0, 0.0, 0.0, 0.0] if track_rates else None
    ancestral: list[tuple[float, int, int]] = []

    t = 0.0
    while True:
        n0 = len(alive0)
        n1 = len(alive1)
        total = c0 * n0 + c1 * n1
        if total <= 0.0:
            break
        t += expo(total)
        if t >= t_obs:
            break
        if track_rates:
            sdiv = b0 * n0
            expected[0] += (1.0 - gamma_n) ** 2 * sdiv / total
            expected[1] += d0 * n0 / total
            expected[2] += (2.0 * gamma_n * (1.0 - gamma_n) * sdiv + b1 * n1) / total
            expected[3] += gamma_n**2 * sdiv / total
            expected[4] += d1 * n1 / total
        u = rand() * total
        if u < c0 * n0:
            if u < b0 * n0:
                # sensitive division
                j = int(rand() * n0)
                mother, g, rid = alive0[j]
                alive0[j] = alive0[-1]
                alive0.pop()
                status[mother] = STATUS_DIVIDED
                g += 1
                flips = 0
                for _ in (0, 1):
                    resistant = rand() < gamma_n
                    child = len(parent)
                    parent.append(mother)
                    edge_mutations.append(bisect_right(cdf, rand()))
                    status.append(STATUS_ALIVE)
                    if resistant:
                        flips += 1
                        cell_type.append(RESISTANT)
                        alive1.append(child)
                        ancestral.append((t, g, rid))
                    else:
                        cell_type.append(SENSITIVE)
                        alive0.append((child, g, rid))
                event_counts[(0, 2, 3)[flips]] += 1
            else:
                # sensitive death
                j = int(rand() * n0)
                status[alive0[j][0]] = STATUS_DEAD
                alive0[j] = alive0[-1]
                alive0.pop()
                event_counts[1] += 1
        else:
            if u < c0 * n0 + b1 * n1:
                # resistant division
                j = int(rand() * n1)
                mother = alive1[j]
                alive1[j] = alive1[-1]
                alive1.pop()
                status[mother] = STATUS_DIVIDED
                for _ in (0, 1):
                    child = len(parent)
                    parent.append(mother)
                    cell_type.append(RESISTANT)
                    edge_mutations.append(bisect_right(cdf, rand()))
                    status.append(STATUS_ALIVE)
                    alive1.append(child)
                event_counts[2] += 1
            else:
                # resistant death
                j = int(rand() * n1)
                status[alive1[j]] = STATUS_DEAD
                alive1[j] = alive1[-1]
                alive1.pop()
                event_counts[4] += 1
        if len(parent) > max_cells:
            raise PopulationCapError(
                f"genealogy exceeded max_cells={max_cells} at t={t:.4f} "
                f"(z0={len(alive0)}, z1={len(alive1)})"
            )
        if debug_checks and _alive_counts(status, cell_type) != (len(alive0), len(alive1)):
            raise AssertionError("alive lists inconsistent with status array")

    outcome = OracleOutcome(
        params=params,
        t_obs=t_obs,
        parent=parent,
        cell_type=cell_type,
        edge_mutations=edge_mutations,
        status=status,
        n_roots=n_roots,
        z0_final=len(alive0),
        z1_final=len(alive1),
        event_counts=event_counts,
        expected_class_weights=expected,
        ancestral=ancestral,
    )
    if debug_checks:
        z0, z1 = alive_counts(outcome)
        if (z0, z1) != (outcome.z0_final, outcome.z1_final):
            raise AssertionError(
                f"forest/trajectory mismatch: forest ({z0},{z1}) vs tracked "
                f"({outcome.z0_final},{outcome.z1_final})"
            )
    return outcome


def event_class_probabilities(params: ModelParams, z0: int, z1: int) -> list[float]:
    """Instantaneous probabilities of the five transition classes."""
    gn = params.gamma_n
    rates = [
        (1.0 - gn) ** 2 * params.b0 * z0,
        params.d0 * z0,
        2.0 * gn * (1.0 - gn) * params.b0 * z0 + params.b1 * z1,
        gn**2 * params.b0 * z0,
        params.d1 * z1,
    ]
    total = sum(rates)
    if total <= 0:
        raise ValueError("empty population has no events")
    return [r / total for r in rates]


# ---------------------------------------------------------------------------
# Marked Galton-Watson tree recursions
# ---------------------------------------------------------------------------
#
# The joint pmfs u_n / v_{g,n} follow the node-count convention of the
# underlying recursions, in which a single-node tree's leaf sits at g = 1;
# i.e. their g equals the gw_trees edge generation + 1.


def catalan_sequence(n_max: int) -> list[int]:
    """First ``n_max`` terms of the convolution sequence a_1 = 1,
    a_n = sum_{i<n} a_i a_{n-i} (the Catalan numbers shifted by one).

    Exact arbitrary-precision integers; quadratic time, so intended for
    moderate ``n_max`` (the closed-form helpers below cover large n).
    """
    if n_max < 1:
        raise ValueError(f"requires n_max >= 1, got {n_max}")
    if n_max > 20000:
        raise OverflowError(
            f"n_max={n_max} would require ~{n_max}-digit integers; use the "
            "log-space helpers for large n"
        )
    seq = [0] * (n_max + 1)
    seq[1] = 1
    for n in range(2, n_max + 1):
        seq[n] = sum(seq[i] * seq[n - i] for i in range(1, n))
    return seq[1:]


def _log_catalan(n: float) -> float:
    # log of the n-th sequence term a_n = C_{n-1} = (2n-2)! / (n! (n-1)!)
    return math.lgamma(2 * n - 1) - math.lgamma(n + 1) - math.lgamma(n)


_CATALAN_MAX_TERMS = 100_000
_CATALAN_TOL = 1e-12


def catalan_series_sum(p: float):
    """Partial sum of sum_n a_n p^n (1-p)^n with a certified tail bound.

    The term ratio is bounded by r = 4 p (1-p) < 1, so the tail after a
    term ``t`` is below ``t * r / (1 - r)``.  Returns (sum, tail_bound) once
    the bound is below 1e-12, and raises ValueError where _CATALAN_MAX_TERMS
    terms do not get there (p near 1/2).  The limit is p for every p < 1/2.
    """
    if not 0 < p < 0.5:
        raise ValueError(f"requires 0 < p < 1/2, got p={p}")
    r = 4.0 * p * (1.0 - p)
    log_w = math.log(p * (1.0 - p))
    total = 0.0
    for n in range(1, _CATALAN_MAX_TERMS + 1):
        term = math.exp(_log_catalan(n) + n * log_w)
        total += term
        bound = term * r / (1.0 - r)
        if bound < _CATALAN_TOL:
            return total, bound
    raise ValueError(
        f"p={p}: tail bound {bound:g} after {_CATALAN_MAX_TERMS} terms exceeds tol {_CATALAN_TOL:g}"
    )


def leaf_count_pmf_array(law: GwLaw, n_max: int) -> np.ndarray:
    """Vector of leaf-count probabilities; entry [n] is
    u_n = P(the tree has exactly n leaves) = a_n (1-p)^n p^(n-1), entry [0] is 0."""
    p = law.p
    out = np.zeros(n_max + 1)
    if p == 0.0:
        out[1] = 1.0
        return out
    n = np.arange(1, n_max + 1, dtype=float)
    log_a = np.array([_log_catalan(k) for k in n.tolist()])
    out[1:] = np.exp(log_a + n * math.log1p(-p) + (n - 1) * math.log(p))
    return out


def joint_gen_leafcount_array(law: GwLaw, g_max: int, n_max: int) -> np.ndarray:
    """Matrix v[g, n] = P(generation of a uniform leaf = g, leaf count = n).

    Node-count generation convention (v[1, 1] = 1 - p).  Rows 1..g_max,
    columns 0..n_max; index 0 rows/columns are zero padding.  Computed via
    the scaled convolution recursion c_g = w * c_{g-1} with
    w_n = a_n (p (1-p))^n, which keeps everything in floats.
    """
    if g_max < 1:
        raise ValueError(f"requires g_max >= 1, got {g_max}")
    p = law.p
    v = np.zeros((g_max + 1, n_max + 1))
    v[1, 1] = 1.0 - p
    if g_max == 1 or p == 0.0:
        return v
    u = leaf_count_pmf_array(law, n_max)
    w = p * u  # w_n = a_n (p(1-p))^n
    c = np.zeros(n_max + 1)
    if n_max >= 2:
        c[2:] = p * (1.0 - p) * w[1:-1]  # c_2[n] = p(1-p) w_{n-1}
    n_idx = np.arange(n_max + 1, dtype=float)
    n_idx[0] = 1.0  # avoid division by zero in the padding slot
    for g in range(2, g_max + 1):
        if g > 2:
            c = np.convolve(w, c)[: n_max + 1]
        row = (2 ** (g - 1)) * c / (n_idx * p)
        row[:g] = 0.0  # v_{g,n} = 0 for n < g
        v[g] = row
    return v


def _mark_damping(beta: float, n_max: int) -> np.ndarray:
    """Vector n (1-beta)^(n-1) with entry [n]; degenerates cleanly at beta=1."""
    n = np.arange(n_max + 1, dtype=float)
    if beta == 1.0:
        damp = np.zeros(n_max + 1)
        damp[1] = 1.0
        return damp
    return n * np.exp(np.maximum(n - 1, 0.0) * math.log1p(-beta))


def weighted_leaf_sums(law: GwLaw, g: int | None, cutoff: int) -> float:
    """Partial sums of n (1-beta)^(n-1) against u_n or v_{g,n}.

    With ``g=None`` the limit (cutoff to infinity) is (1-p)/x; with ``g``
    given it is (1-x)^(g-1) (1-p).
    """
    if cutoff < 1:
        raise ValueError(f"requires cutoff >= 1, got {cutoff}")
    damp = _mark_damping(law.beta, cutoff)
    if g is None:
        u = leaf_count_pmf_array(law, cutoff)
        return float(np.dot(damp, u))
    v = joint_gen_leafcount_array(law, g, cutoff)
    return float(np.dot(damp, v[g]))


def exact_v_tables(p: Fraction, n_max: int):
    """(recursive v, closed-form v) tables over 1 <= g <= n <= n_max."""
    cat = catalan_sequence(n_max)
    u = [Fraction(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        u[n] = cat[n - 1] * (1 - p) ** n * p ** (n - 1)
    v_rec = [[Fraction(0)] * (n_max + 1) for _ in range(n_max + 1)]
    v_rec[1][1] = 1 - p
    for g in range(2, n_max + 1):
        for n in range(g, n_max + 1):
            acc = Fraction(0)
            for i in range(1, n):
                acc += Fraction(n - i, n) * v_rec[g - 1][n - i] * u[i]
            v_rec[g][n] = 2 * p * acc
    # gamma_{2,n} = cat_{n-1}; gamma_{g,n} = sum_i cat_i gamma_{g-1,n-i}
    gam = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for n in range(2, n_max + 1):
        gam[2][n] = cat[n - 2]
    for g in range(3, n_max + 1):
        for n in range(g, n_max + 1):
            gam[g][n] = sum(cat[i - 1] * gam[g - 1][n - i] for i in range(1, n - g + 2))
    v_closed = [[Fraction(0)] * (n_max + 1) for _ in range(n_max + 1)]
    v_closed[1][1] = 1 - p
    for g in range(2, n_max + 1):
        for n in range(g, n_max + 1):
            v_closed[g][n] = (
                Fraction(2 ** (g - 1), n) * (1 - p) ** n * p ** (n - 1) * gam[g][n]
            )
    return v_rec, v_closed


class DirectOneMarkSampler:
    """Importance-style direct sampler of the exactly-one-mark tree.

    Size-biased construction: draw the leaf count n from the pmf
    proportional to n beta (1-beta)^(n-1) u_n, draw a tree conditioned on
    n leaves by recursive splitting with weights u_i u_{n-i}, and mark one
    uniformly chosen leaf.  Distributionally identical to rejection
    sampling on exactly one mark; used to validate the rejection sampler.
    """

    def __init__(self, law: GwLaw, root_excluded: bool = True, tail_tol: float = 1e-12):
        self.law = law
        self.root_excluded = root_excluded
        n_max = 2000
        u = leaf_count_pmf_array(law, n_max)
        weights = _mark_damping(law.beta, n_max) * u
        if root_excluded:
            weights[1] = 0.0  # a 1-leaf tree has the root marked
        total = weights.sum()
        if total <= 0:
            raise ValueError("degenerate law: exactly-one-mark has zero probability")
        tail = weights[-1] / max(total, 1e-300)
        if tail > tail_tol:
            raise ValueError("leaf-count pmf not converged at the cutoff; lower p or beta")
        self._u = u
        self._n_cdf = np.cumsum(weights / total)

    def sample(self, rng: Random) -> tuple[int, int]:
        """Return (generation of the marked leaf, leaf count)."""
        n = int(np.searchsorted(self._n_cdf, rng.random(), side="right"))
        n = max(1, min(n, len(self._n_cdf) - 1))
        n_leaves = n
        k = rng.randrange(n)  # index of the marked leaf among n leaves
        u = self._u
        depth = 0
        while n > 1:
            # split n leaves into (i, n-i) with probability u_i u_{n-i} / c_n
            w = u[1:n] * u[n - 1 : 0 : -1]
            cdf = np.cumsum(w)
            i = 1 + int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            i = min(i, n - 1)
            depth += 1
            if k < i:
                n = i
            else:
                k -= i
                n = n - i
        return depth, n_leaves


def naive_sfs(outcome: SimOutcome):
    """Independent SFS oracle: every cell inherits its ancestors' mutation
    sets top-down (one id per mutated edge); carriers are counted per id,
    and an edge's origin is its mother's type.

    Returns (s, s_resistant_origin, s_sensitive_origin) dicts.
    """
    n = outcome.n_nodes
    sets: list[frozenset] = [frozenset()] * n
    for idx in range(n):
        p = outcome.parent[idx]
        inherited = sets[p] if p >= 0 else frozenset()
        if outcome.edge_mutations[idx] > 0:
            sets[idx] = inherited | {idx}
        else:
            sets[idx] = inherited
    carriers: Counter = Counter()
    for idx in range(n):
        if outcome.status[idx] == STATUS_ALIVE and outcome.cell_type[idx] == RESISTANT:
            for edge in sets[idx]:
                carriers[edge] += 1
    s: Counter = Counter()
    s_res: Counter = Counter()
    s_sen: Counter = Counter()
    for edge, count in carriers.items():
        m = outcome.edge_mutations[edge]
        s[count] += m
        if outcome.cell_type[outcome.parent[edge]] == RESISTANT:
            s_res[count] += m
        else:
            s_sen[count] += m
    return dict(s), dict(s_res), dict(s_sen)


def carried_copy_total(outcome: SimOutcome) -> int:
    """Total mutation copies over living resistant cells (= sum_i i * S_i)."""
    n = outcome.n_nodes
    totals = [0] * n
    for idx in range(n):
        p = outcome.parent[idx]
        totals[idx] = (totals[p] if p >= 0 else 0) + outcome.edge_mutations[idx]
    return sum(
        totals[idx]
        for idx in range(n)
        if outcome.status[idx] == STATUS_ALIVE and outcome.cell_type[idx] == RESISTANT
    )


def build_single_root_example(params: ModelParams) -> SimOutcome:
    """One sensitive root whose progeny ends with 7 living resistant cells.

    Edge mutations: the root's first division puts two mutations on daughter
    A (carried by all 7) and one on daughter B (no resistant descendants);
    one resistant-division mutation ends up carried by 3 cells and three by
    exactly one cell each; two more sit on lineages with no living
    resistant descendants.
    """
    S, R = SENSITIVE, RESISTANT
    AL, DE, DV = STATUS_ALIVE, STATUS_DEAD, STATUS_DIVIDED
    #          parent type muts status
    rows = [
        (-1, S, 0, DV),  # 0 root
        (0, S, 2, DV),  # 1 A, mutations {1,2}
        (0, S, 1, DV),  # 2 B, {3}
        (2, S, 1, AL),  # 3 B1, {5}
        (2, S, 1, AL),  # 4 B2, {6}
        (1, R, 0, DV),  # 5 A1, the ancestral resistant cell
        (1, S, 1, DE),  # 6 A2, {10}
        (5, R, 1, DV),  # 7 C, {4}
        (5, R, 0, DV),  # 8 D
        (7, R, 1, AL),  # 9 C1, {7}
        (7, R, 0, DV),  # 10 C2
        (10, R, 1, AL),  # 11 C2a, {8}
        (10, R, 0, AL),  # 12 C2b
        (8, R, 1, AL),  # 13 D1, {9}
        (8, R, 0, DV),  # 14 D2
        (14, R, 0, AL),  # 15 D2a
        (14, R, 0, DV),  # 16 D2b
        (16, R, 0, AL),  # 17
        (16, R, 0, AL),  # 18
    ]
    return SimOutcome(
        params=params,
        t_obs=1.0,
        parent=[r[0] for r in rows],
        cell_type=[r[1] for r in rows],
        edge_mutations=[r[2] for r in rows],
        status=[r[3] for r in rows],
        n_roots=1,
        z1_final=7,
        event_counts=[0, 0, 0, 0, 0],
        ancestral=[(0.0, 2, 0)],
    )


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


class DegenerateSampleError(ValueError):
    """A goodness-of-fit sample is degenerate (all values equal)."""


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
    stat = float(((o - e) ** 2 / e).sum())
    dof = o.size - 1
    return GofResult(stat, float(chdtrc(dof, stat)), dof, o.size)


def gof_two_samples(
    a: Sequence[int], b: Sequence[int], min_expected: float = 5.0
) -> GofResult:
    """Chi-square test that two samples of integers >= 0 come from one law:
    the 2 x k table of their counts, adjacent values pooled from the
    smallest up until each pooled cell's expected count in both samples is
    at least min_expected (a short last group joins the one before)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    size = int(max(a.max(initial=0), b.max(initial=0))) + 1
    counts = np.stack((np.bincount(a, minlength=size), np.bincount(b, minlength=size)))
    need = min_expected * (a.size + b.size) / min(a.size, b.size)
    groups, run = [], np.zeros(2)
    for column in counts.T:
        run = run + column
        if run.sum() >= need:
            groups.append(run)
            run = np.zeros(2)
    if groups and run.sum():
        groups[-1] = groups[-1] + run
    if len(groups) < 2:
        raise DegenerateSampleError("samples too small or constant for a pooled chi-square test")
    obs = np.array(groups).T
    exp = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.shape[1] - 1
    return GofResult(stat, float(chdtrc(dof, stat)), dof, obs.shape[1])


def imported_modules(module) -> list[str]:
    """The modules that a module's source imports, at module level and
    inside every function ("" for a relative ``from . import``)."""
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    return modules
