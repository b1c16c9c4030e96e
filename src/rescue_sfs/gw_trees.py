"""Subcritical binary Galton-Watson trees with independently marked leaves.

Each node of the tree divides into two with probability ``p < 1/2`` or
becomes a leaf with probability ``1 - p``; once the (almost surely finite)
tree is built, every leaf is marked independently with probability ``beta``.
Marked leaves model resistance events in the progeny of one sensitive cell;
the quantity ``x = sqrt(1 - 4 p (1-p) (1-beta))`` is the geometric
parameter of the generation of a marked leaf conditioned on exactly one
mark.

A leaf's *generation* is its edge distance to the root (the root has
generation 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from rescue_sfs.params import checked_index

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


def geometric_pmf(x: float, g: int) -> float:
    """Generation law of the marked leaf given exactly one mark: the
    geometric pmf x (1-x)^(g-1), g >= 1."""
    if not 0 < x <= 1:
        raise ValueError(f"requires 0 < x <= 1, got x={x}")
    return x * (1.0 - x) ** (checked_index(g, "g", 1) - 1)


def _divided_power_difference(p: float, pt: float, m: int) -> float:
    # (p^m - pt^m)/(p - pt) as sum_{k<m} p^k pt^(m-1-k): no cancellation, and
    # its limit m p^(m-1) at pt = p (0^0 = 1, so p = pt = 0 gives [m == 1])
    return sum(p**k * pt ** (m - 1 - k) for k in range(m))


def any_mark_pmf(p: float, pt: float, g: int) -> float:
    """Generation law of a uniformly chosen marked leaf given >= 1 mark, in
    p and pt = p_tilde(1-beta):
    2^(g-1)/(p-pt) * [ (p^g - pt^g)/g - 2 (p^(g+1) - pt^(g+1))/(g+1) ],
    with each divided difference (p^m - pt^m)/(p - pt) summed, so that it
    tends to (2p)^(g-1) (1-2p) as beta -> 0 and is 1 at g = 1 for p = 0.
    """
    if not (0 <= p < 0.5 and 0 <= pt < 0.5):
        raise ValueError(f"requires 0 <= p, pt < 1/2, got p={p}, pt={pt}")
    g = checked_index(g, "g", 1)
    return 2.0 ** (g - 1) * (
        _divided_power_difference(p, pt, g) / g
        - 2.0 * _divided_power_difference(p, pt, g + 1) / (g + 1)
    )


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
        tree = sample_tree(law, rng, root_excluded=root_excluded)
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
    """Rows (g, pmf_theory, pmf_empirical, count) for a generation sample,
    from g = 1, the start of every generation law's support, to g_max
    (default: the largest sample)."""
    if not samples:
        raise ValueError("empty sample")
    if min(samples) < 1:
        raise ValueError(f"generations start at 1, got {min(samples)}")
    top = max(samples)
    if g_max is None:
        g_max = top
    counts = [0] * (max(g_max, top) + 1)
    for g in samples:
        counts[g] += 1
    n = len(samples)
    return [(g, float(pmf(g)), counts[g] / n, counts[g]) for g in range(1, g_max + 1)]
