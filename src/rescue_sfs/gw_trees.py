"""Subcritical binary Galton-Watson trees with independently marked leaves.

Each node of the tree divides into two with probability ``p < 1/2`` or
becomes a leaf with probability ``1 - p``; once the (almost surely finite)
tree is built, every leaf is marked independently with probability ``beta``.
Marked leaves model resistance events in the progeny of one sensitive cell;
the quantity ``x = sqrt(1 - 4 p (1-p) (1-beta))`` is the geometric
parameter of the generation of a marked leaf conditioned on exactly one
mark.

Conventions: a leaf's *generation* is its edge distance to the root (the
root has generation 0).  The joint pmfs ``u_n`` / ``v_{g,n}`` follow the
node-count convention of the underlying recursions, in which a single-node
tree's leaf sits at g = 1; i.e. their ``g`` equals edge generation + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

DEFAULT_CUTOFF = 2000

CONDITION_EXACTLY_ONE = "exactly-one-mark"
CONDITION_AT_LEAST_ONE = "at-least-one-mark"
_CONDITIONS = (CONDITION_EXACTLY_ONE, CONDITION_AT_LEAST_ONE)


class TreeSizeError(RuntimeError):
    """A sampled tree exceeded the configured node cap."""


class RejectionLimitError(RuntimeError):
    """Rejection sampling exceeded its attempt budget."""


@dataclass(frozen=True)
class GwLaw:
    """Division probability p and leaf-mark probability beta."""

    p: float
    beta: float

    def __post_init__(self) -> None:
        if not 0 <= self.p < 0.5:
            raise ValueError(f"requires 0 <= p < 1/2, got p={self.p}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"requires 0 < beta <= 1, got beta={self.beta}")

    @property
    def x(self) -> float:
        return math.sqrt(1.0 - 4.0 * self.p * (1.0 - self.p) * (1.0 - self.beta))


# ---------------------------------------------------------------------------
# Exact combinatorics
# ---------------------------------------------------------------------------


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


def _log_catalan(n):
    # log of the n-th sequence term a_n = C_{n-1} = (2n-2)! / (n! (n-1)!), n
    # an int or an array
    from scipy.special import gammaln

    return gammaln(2 * n - 1) - gammaln(n + 1) - gammaln(n)


def catalan_series_sum(p: float, tol: float = 1e-12, max_terms: int = 100_000):
    """Partial sum of sum_n a_n p^n (1-p)^n with a certified tail bound.

    The term ratio is bounded by r = 4 p (1-p) < 1, so the tail after a
    term ``t`` is below ``t * r / (1 - r)``.  Returns (sum, tail_bound).
    The limit is p for every p < 1/2.
    """
    if not 0 < p < 0.5:
        raise ValueError(f"requires 0 < p < 1/2, got p={p}")
    r = 4.0 * p * (1.0 - p)
    log_w = math.log(p * (1.0 - p))
    total = 0.0
    bound = math.inf
    for n in range(1, max_terms + 1):
        term = math.exp(_log_catalan(n) + n * log_w)
        total += term
        bound = term * r / (1.0 - r)
        if bound < tol:
            return total, bound
    return total, bound


def leaf_count_pmf_array(law: GwLaw, n_max: int) -> np.ndarray:
    """Vector of leaf-count probabilities; entry [n] is
    u_n = P(the tree has exactly n leaves) = a_n (1-p)^n p^(n-1), entry [0] is 0."""
    p = law.p
    out = np.zeros(n_max + 1)
    if p == 0.0:
        out[1] = 1.0
        return out
    n = np.arange(1, n_max + 1, dtype=float)
    out[1:] = np.exp(_log_catalan(n) + n * math.log1p(-p) + (n - 1) * math.log(p))
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


def p_tilde(y: float, p: float) -> float:
    """Unique root in [0, 1/2] of X(1-X) = y p (1-p).

    p_tilde(y)/p is the probability generating function of the leaf count,
    and p_tilde(1 - beta) = (1 - x)/2.
    """
    if not 0 <= y <= 1:
        raise ValueError(f"requires 0 <= y <= 1, got y={y}")
    if not 0 <= p < 0.5:
        raise ValueError(f"requires 0 <= p < 1/2, got p={p}")
    return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * y * p * (1.0 - p)))


def _mark_damping(beta: float, n_max: int) -> np.ndarray:
    """Vector n (1-beta)^(n-1) with entry [n]; degenerates cleanly at beta=1."""
    n = np.arange(n_max + 1, dtype=float)
    if beta == 1.0:
        damp = np.zeros(n_max + 1)
        damp[1] = 1.0
        return damp
    return n * np.exp(np.maximum(n - 1, 0.0) * math.log1p(-beta))


def weighted_leaf_sums(law: GwLaw, g: int | None = None, cutoff: int = DEFAULT_CUTOFF) -> float:
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


def geometric_pmf(x: float, g: int) -> float:
    """Generation law of the marked leaf given exactly one mark: the
    geometric pmf x (1-x)^(g-1), g >= 1."""
    if g < 1:
        raise ValueError(f"requires g >= 1, got {g}")
    return x * (1.0 - x) ** (g - 1)


# relative gap |p - pt| / p at or below which any_mark_pmf sums its divided
# differences: the quotient loses about 2e-16 / gap of relative accuracy to
# cancellation, so above the band it stays within about 2e-13 and is kept,
# which leaves the law's outputs there bit for bit
_DIVIDED_DIFFERENCE_BAND = 1e-3


def _divided_power_difference(p: float, pt: float, m: int) -> float:
    # (p^m - pt^m)/(p - pt) as sum_{k<m} p^k pt^(m-1-k): no cancellation, and
    # its limit m p^(m-1) at pt = p (0^0 = 1, so p = pt = 0 gives [m == 1])
    return sum(p**k * pt ** (m - 1 - k) for k in range(m))


def any_mark_pmf(p: float, pt: float, g: int) -> float:
    """Generation law of a uniformly chosen marked leaf given >= 1 mark, in
    p and pt = p_tilde(1-beta):
    2^(g-1)/(p-pt) * [ (p^g - pt^g)/g - 2 (p^(g+1) - pt^(g+1))/(g+1) ].

    Where |p - pt| <= 1e-3 p (p = 0 and beta -> 0 included) each divided
    difference (p^m - pt^m)/(p - pt) is summed instead, so the law tends to
    (2p)^(g-1) (1-2p) as beta -> 0 and is 1 at g = 1 for p = 0.
    """
    if g < 1:
        raise ValueError(f"requires g >= 1, got {g}")
    if abs(p - pt) <= _DIVIDED_DIFFERENCE_BAND * p:
        return 2.0 ** (g - 1) * (
            _divided_power_difference(p, pt, g) / g
            - 2.0 * _divided_power_difference(p, pt, g + 1) / (g + 1)
        )
    return (
        2.0 ** (g - 1)
        / (p - pt)
        * ((p**g - pt**g) / g - 2.0 * (p ** (g + 1) - pt ** (g + 1)) / (g + 1))
    )


def gen_pmf_one_mark(law: GwLaw, g: int) -> float:
    """geometric_pmf at the law's x (edge generations, root-conditioned tree)."""
    return geometric_pmf(law.x, g)


def gen_pmf_atleast_one_mark(law: GwLaw, g: int) -> float:
    """any_mark_pmf at the law's p and p_tilde(1-beta)."""
    return any_mark_pmf(law.p, p_tilde(1.0 - law.beta, law.p), g)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass
class GwTree:
    """A sampled finite binary tree with marked leaves.

    ``generation`` is the edge distance to the root; internal nodes carry
    ``marked=False``.
    """

    generation: list[int]
    is_leaf: list[bool]
    marked: list[bool]

    @property
    def n_nodes(self) -> int:
        return len(self.generation)

    @property
    def n_leaves(self) -> int:
        return sum(self.is_leaf)

    @property
    def mark_count(self) -> int:
        return sum(self.marked)

    def leaf_generations(self) -> list[int]:
        return [g for g, leaf in zip(self.generation, self.is_leaf) if leaf]

    def marked_generations(self) -> list[int]:
        return [g for g, m in zip(self.generation, self.marked) if m]


def _root_division_prob(law: GwLaw) -> float:
    # division probability conditioned on the root not being a marked leaf
    return law.p / (1.0 - (1.0 - law.p) * law.beta)


def sample_tree(
    law: GwLaw,
    rng: Random,
    root_excluded: bool = False,
    max_nodes: int = 1_000_000,
) -> GwTree:
    """Sample one marked tree.

    With ``root_excluded`` the root is conditioned to not be a marked leaf
    (it divides with probability p / (1 - (1-p) beta), otherwise it is an
    unmarked leaf); all other nodes follow the unconditioned law.
    """
    p, beta = law.p, law.beta
    p_root = _root_division_prob(law) if root_excluded else p
    rand = rng.random
    generation = [0]
    is_leaf = [False]
    marked = [False]
    stack = [0]
    while stack:
        v = stack.pop()
        p_div = p_root if v == 0 else p
        if rand() < p_div:
            g = generation[v] + 1
            for _ in range(2):
                generation.append(g)
                is_leaf.append(False)
                marked.append(False)
                stack.append(len(generation) - 1)
            if len(generation) > max_nodes:
                raise TreeSizeError(f"tree exceeded max_nodes={max_nodes}")
        else:
            is_leaf[v] = True
            if not (v == 0 and root_excluded):
                marked[v] = rand() < beta
    return GwTree(generation, is_leaf, marked)


@dataclass
class ConditionedSample:
    """An accepted conditioned tree plus the chosen marked leaf's data."""

    tree: GwTree
    generation: int
    lifetime: float | None
    mark_count: int


def sample_conditioned(
    law: GwLaw,
    condition: str,
    rng: Random,
    root_excluded: bool = True,
    delta0: float | None = None,
    max_attempts: int = 1_000_000,
    max_nodes: int = 1_000_000,
) -> ConditionedSample:
    """Rejection-sample a tree satisfying a mark condition.

    Returns the tree, the edge generation of a uniformly chosen marked
    leaf, and (when ``delta0`` is given) the appearance time of that leaf:
    the sum of ``generation`` independent Exp(delta0) lifetimes.
    """
    if condition not in _CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; valid: {_CONDITIONS}")
    exactly_one = condition == CONDITION_EXACTLY_ONE
    for _ in range(max_attempts):
        tree = sample_tree(law, rng, root_excluded=root_excluded, max_nodes=max_nodes)
        marks = tree.mark_count
        if (marks == 1) if exactly_one else (marks >= 1):
            gens = tree.marked_generations()
            generation = gens[rng.randrange(len(gens))]
            lifetime = None
            if delta0 is not None:
                expo = rng.expovariate
                lifetime = sum(expo(delta0) for _ in range(generation))
            return ConditionedSample(tree, generation, lifetime, marks)
    raise RejectionLimitError(
        f"no accepted tree in {max_attempts} attempts for condition {condition!r}; "
        f"estimated acceptance probability < {1.0 / max_attempts:.2e}"
    )


def pmf_table(
    samples: list[int], pmf, g_max: int | None = None
) -> list[tuple[int, float, float, int]]:
    """Rows (g, pmf_theory, pmf_empirical, count) for a generation sample."""
    if not samples:
        raise ValueError("empty sample")
    top = max(samples)
    if g_max is None:
        g_max = top
    counts = [0] * (max(g_max, top) + 1)
    for g in samples:
        counts[g] += 1
    n = len(samples)
    rows = []
    for g in range(min(samples), g_max + 1):
        rows.append((g, float(pmf(g)), counts[g] / n, counts[g]))
    return rows
