import math
from collections import Counter
from fractions import Fraction
from random import Random

import mpmath
import numpy as np
import pytest

from helpers import (
    DirectOneMarkSampler,
    catalan_sequence,
    catalan_series_sum,
    exact_v_tables,
    gof_discrete,
    gof_geometric,
    imported_modules,
    joint_gen_leafcount_array,
    leaf_count_pmf_array,
    weighted_leaf_sums,
)
from rescue_sfs import gw_trees as gw
from rescue_sfs import params

LAW = gw.GwLaw(p=4 / 15, beta=3 / 11)  # b0=1, d0=2, gamma_n=0.2
X = LAW.x
PT = gw.p_tilde(1 - LAW.beta, LAW.p)


def test_gw_trees_imports_no_numpy():
    # the laws and the sampler are standard library only, at module level
    # and inside every function, so `rescue-sfs gw` runs without numpy; the
    # one module they read from the package, params, is standard library too
    modules = imported_modules(gw)
    assert [m for m in modules if m.split(".")[0] in ("numpy", "rescue_sfs")] == ["rescue_sfs.params"]
    assert [m for m in imported_modules(params) if m.split(".")[0] in ("numpy", "rescue_sfs")] == []


def test_law_validation():
    with pytest.raises(ValueError):
        gw.GwLaw(p=0.5, beta=0.3)
    with pytest.raises(ValueError):
        gw.GwLaw(p=0.3, beta=0.0)
    assert gw.GwLaw(p=0.0, beta=0.3).x == pytest.approx(1.0)
    for y, p in ((1.5, 0.3), (-0.1, 0.3), (0.5, 0.5), (0.5, -0.1)):
        with pytest.raises(ValueError, match="requires 0 <="):
            gw.p_tilde(y, p)
    with pytest.raises(ValueError, match="unknown condition 'two-marks'"):
        gw.sample_conditioned(LAW, "two-marks", Random(0))


def test_catalan_sequence():
    assert catalan_sequence(5) == [1, 1, 2, 5, 14]
    assert catalan_sequence(2)[1] == 1  # a_2 = a_1 * a_1
    with pytest.raises(ValueError):
        catalan_sequence(0)
    with pytest.raises(OverflowError):
        catalan_sequence(50_000)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
def test_catalan_series_identity(p):
    total, bound = catalan_series_sum(p)
    assert bound < 1e-12
    assert abs(total - p) < 1e-10


@pytest.mark.parametrize("p", [0.1, 0.4, 0.45, 0.49])
def test_catalan_series_meets_its_tolerance(p):
    total, bound = catalan_series_sum(p)
    assert abs(total - p) <= bound < 1e-12


def test_catalan_series_fails_loudly_near_one_half():
    # 100000 terms leave a tail bound of 7.5e-4 at p = 0.499; it used to be
    # returned as if it were the sum's accuracy
    with pytest.raises(ValueError, match=r"p=0\.499: tail bound 0\.000747.* tol 1e-12"):
        catalan_series_sum(0.499)


def test_leaf_count_pmf():
    assert leaf_count_pmf_array(LAW, 1)[1] == pytest.approx(1 - LAW.p, rel=1e-14)
    law = gw.GwLaw(p=0.25, beta=0.5)
    u = leaf_count_pmf_array(law, 40)
    assert u[2] == pytest.approx(0.140625, rel=1e-12)
    # matches the exact integer form for moderate n
    cat = catalan_sequence(40)
    for n in (3, 10, 40):
        exact = cat[n - 1] * (1 - law.p) ** n * law.p ** (n - 1)
        assert u[n] == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
def test_leaf_count_normalization(p):
    law = gw.GwLaw(p=p, beta=0.5)
    u = leaf_count_pmf_array(law, 2000)
    assert abs(u.sum() - 1.0) < 1e-10


def test_joint_gen_leafcount_base_cases():
    v = joint_gen_leafcount_array(LAW, 5, 3)
    assert v[1, 1] == pytest.approx(1 - LAW.p, rel=1e-14)
    assert v[1, 2] == 0.0
    assert v[2, 2] == pytest.approx(LAW.p * (1 - LAW.p) ** 2, rel=1e-12)
    assert v[5, 3] == 0.0  # n < g


@pytest.mark.parametrize("g", range(1, 11))
def test_joint_gen_leafcount_marginal(g):
    v = joint_gen_leafcount_array(LAW, g, 2000)
    closed = (2 * LAW.p) ** (g - 1) * (1.0 / g - 2.0 * LAW.p / (g + 1))
    assert abs(v[g].sum() - closed) < 1e-10


def test_p_tilde():
    assert gw.p_tilde(1.0, 0.3) == pytest.approx(0.3, rel=1e-14)
    assert gw.p_tilde(0.0, 0.3) == 0.0
    # generating function identity F(y) = p_tilde(y)/p against partial sums
    law = gw.GwLaw(p=0.3, beta=0.5)
    u = leaf_count_pmf_array(law, 2000)
    y = 0.7
    partial = sum(u[n] * y**n for n in range(1, 2001))
    assert abs(partial - gw.p_tilde(y, 0.3) / 0.3) < 1e-10
    # p_tilde(1 - beta) = (1 - x)/2
    assert PT == pytest.approx((1 - X) / 2, rel=1e-13)


def test_weighted_leaf_sums_limits():
    total = weighted_leaf_sums(LAW, g=None, cutoff=2000)
    assert abs(total - (1 - LAW.p) / X) < 1e-8
    assert total == pytest.approx(1.116880, abs=1e-6)
    assert weighted_leaf_sums(LAW, g=1, cutoff=1) == pytest.approx(1 - LAW.p, rel=1e-14)
    for g in range(1, 11):
        partial = weighted_leaf_sums(LAW, g=g, cutoff=2000)
        assert abs(partial - (1 - X) ** (g - 1) * (1 - LAW.p)) < 1e-8


@pytest.mark.parametrize("p,beta", [(0.2, 0.1), (0.35, 0.5), (0.45, 0.2), (0.45, 0.9)])
def test_gen_pmf_is_ratio_of_weighted_sums(p, beta):
    law = gw.GwLaw(p=p, beta=beta)
    denom = weighted_leaf_sums(law, g=None, cutoff=2000)
    for g in range(1, 11):
        ratio = weighted_leaf_sums(law, g=g, cutoff=2000) / denom
        assert abs(ratio - gw.geometric_pmf(law.x, g)) < 1e-8


def test_gen_pmf_one_mark():
    assert gw.geometric_pmf(X, 1) == pytest.approx(X)
    assert gw.geometric_pmf(X, 2) == pytest.approx(0.225479, abs=1e-6)
    assert sum(gw.geometric_pmf(X, g) for g in range(1, 400)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_gen_pmf_atleast_one_mark_normalization():
    total = sum(gw.any_mark_pmf(LAW.p, PT, g) for g in range(1, 501))
    assert abs(total - 1.0) < 1e-8


def test_gen_pmf_atleast_one_mark_beta_to_one():
    # with every leaf marked the conditioning is void: the pmf reduces to the
    # unconditioned leaf-generation marginal sum_n v_{g,n}
    law = gw.GwLaw(p=4 / 15, beta=1 - 1e-12)
    pt = gw.p_tilde(1 - law.beta, law.p)
    for g in range(1, 8):
        marginal = (2 * law.p) ** (g - 1) * (1.0 / g - 2.0 * law.p / (g + 1))
        assert gw.any_mark_pmf(law.p, pt, g) == pytest.approx(marginal, rel=1e-6)


def _any_mark_exact(p, pt, g):
    # 50-digit law on the float inputs: the quotient, or its limit
    # (2p)^(g-1) (1-2p) at pt = p
    with mpmath.workdps(50):
        p, pt = mpmath.mpf(p), mpmath.mpf(pt)
        if p == pt:
            return (2 * p) ** (g - 1) * (1 - 2 * p)
        bracket = (p**g - pt**g) / g - 2 * (p ** (g + 1) - pt ** (g + 1)) / (g + 1)
        return 2 ** (g - 1) / (p - pt) * bracket


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3736, 0.45, 0.49, 0.499])
def test_any_mark_pmf_matches_mpmath(p):
    # pt from beta in [1e-9, 1], pt = p (beta -> 0) and pt on both sides of
    # |p - pt| = 1e-3 p, where the law used to switch from the quotient to
    # the divided-difference sums
    pts = [gw.p_tilde(1.0 - beta, p) for beta in (1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0)]
    pts += [p, p * (1 - 0.999e-3), p * (1 - 1.001e-3)]
    for pt in pts:
        for g in range(1, 41):
            want = _any_mark_exact(p, pt, g)
            got = gw.any_mark_pmf(p, pt, g)
            bound = (g + 1) * 2.0**-53 / (1 - 2 * max(p, pt))
            with mpmath.workdps(50):
                assert abs(got - want) <= bound * abs(want), (pt, g, got, float(want))


# ---------------------------------------------------------------------------
# exact-rational cross-check of the two v recursions
# ---------------------------------------------------------------------------


def test_exact_rational_recursion_small():
    v_rec, v_closed = exact_v_tables(Fraction(1, 4), 12)
    for g in range(1, 13):
        for n in range(1, 13):
            assert v_rec[g][n] == v_closed[g][n]
    # and the float pipeline agrees with the exact values
    law = gw.GwLaw(p=0.25, beta=0.5)
    v = joint_gen_leafcount_array(law, 12, 12)
    for g in range(1, 13):
        for n in range(g, 13):
            assert v[g][n] == pytest.approx(float(v_rec[g][n]), rel=1e-10, abs=1e-300)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sample_tree_trivial():
    rng = Random(1)
    tree = gw.sample_tree(gw.GwLaw(p=0.0, beta=0.5), rng)
    assert tree.n_nodes == 1 and tree.n_leaves == 1
    assert tree.generation == [0]


def test_sample_tree_size_cap():
    rng = Random(2)
    with pytest.raises(gw.TreeSizeError):
        for _ in range(2000):
            gw.sample_tree(gw.GwLaw(p=0.49, beta=0.5), rng, max_nodes=15)


def test_sample_tree_leaf_count_law():
    rng = Random(3)
    law = gw.GwLaw(p=0.25, beta=0.5)
    counts = [gw.sample_tree(law, rng).n_leaves for _ in range(100_000)]
    u = leaf_count_pmf_array(law, max(counts))
    res = gof_discrete(counts, lambda n: u[n])
    assert res.pvalue > 0.001


def test_sample_tree_mark_binomial_given_leaves():
    rng = Random(4)
    law = gw.GwLaw(p=0.3, beta=0.4)
    marks_given_3 = []
    for _ in range(60_000):
        tree = gw.sample_tree(law, rng)
        if tree.n_leaves == 3:
            marks_given_3.append(tree.mark_count)
    counts = Counter(marks_given_3)
    n = len(marks_given_3)
    for k in range(4):
        expected = math.comb(3, k) * law.beta**k * (1 - law.beta) ** (3 - k)
        assert counts[k] / n == pytest.approx(expected, abs=4 * math.sqrt(expected / n) + 1e-3)


def test_sample_tree_leaf_generation_marginal():
    # node-count generation of a uniformly chosen leaf follows
    # (2p)^(g-1) (1/g - 2p/(g+1))
    rng = Random(5)
    law = gw.GwLaw(p=0.3, beta=0.4)
    samples = []
    for _ in range(50_000):
        tree = gw.sample_tree(law, rng)
        gens = tree.leaf_generations()
        samples.append(gens[rng.randrange(len(gens))] + 1)
    res = gof_discrete(
        samples, lambda g: (2 * law.p) ** (g - 1) * (1.0 / g - 2.0 * law.p / (g + 1))
    )
    assert res.pvalue > 0.001


def test_sample_conditioned_exactly_one_generation_law():
    rng = Random(6)
    samples = [
        gw.sample_conditioned(LAW, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=True).generation
        for _ in range(40_000)
    ]
    assert gof_geometric(samples, X).pvalue > 0.001
    # without root conditioning the geometric law holds for node generations
    rng = Random(7)
    samples = [
        gw.sample_conditioned(LAW, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=False).generation
        + 1
        for _ in range(40_000)
    ]
    assert gof_geometric(samples, X).pvalue > 0.001


def test_sample_conditioned_accepted_leafcount_law():
    # leaf count of accepted exactly-one-mark trees is proportional to
    # n beta (1-beta)^(n-1) u_n
    rng = Random(8)
    law = gw.GwLaw(p=0.3, beta=0.3)
    counts = [
        gw.sample_conditioned(law, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=False)
        .tree.n_leaves
        for _ in range(30_000)
    ]
    u = leaf_count_pmf_array(law, 4000)
    n = np.arange(4001.0)
    weights = n * (1 - law.beta) ** np.maximum(n - 1, 0) * u
    weights /= weights.sum()
    res = gof_discrete(counts, lambda k: float(weights[k]))
    assert res.pvalue > 0.001


def test_sample_conditioned_at_least_one_matches_closed_form():
    # the closed form is the node-count generation law of the unconditioned
    # tree given at least one mark
    rng = Random(9)
    samples = [
        gw.sample_conditioned(LAW, gw.CONDITION_AT_LEAST_ONE, rng, root_excluded=False).generation
        + 1
        for _ in range(40_000)
    ]
    res = gof_discrete(samples, lambda g: gw.any_mark_pmf(LAW.p, PT, g))
    assert res.pvalue > 0.001


def test_sample_conditioned_lifetime_is_generation_sum():
    rng = Random(10)
    s = gw.sample_conditioned(
        LAW, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=True, delta0=3.0
    )
    assert s.lifetime is not None and s.lifetime > 0
    assert s.mark_count == 1


def test_sample_conditioned_beta_one():
    # with every leaf marked, exactly-one forces the single-leaf tree when the
    # root may be marked, and is unattainable under root exclusion (the root
    # then divides with probability one, giving at least two marks)
    law = gw.GwLaw(p=0.3, beta=1.0)
    rng = Random(11)
    for _ in range(50):
        s = gw.sample_conditioned(law, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=False)
        assert s.tree.n_nodes == 1 and s.generation == 0
    with pytest.raises(gw.RejectionLimitError, match="acceptance"):
        gw.sample_conditioned(
            law, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=True, max_attempts=200
        )


def test_rejection_limit_reports_acceptance():
    law = gw.GwLaw(p=0.1, beta=1e-9)
    rng = Random(12)
    with pytest.raises(gw.RejectionLimitError):
        gw.sample_conditioned(law, gw.CONDITION_EXACTLY_ONE, rng, max_attempts=50)


def two_sample_chi2_pvalue(a, b, min_combined=10):
    """Equal-size two-sample multinomial chi-square with tail pooling."""
    from scipy.stats import chi2 as chi2_dist

    top = max(max(a), max(b))
    ca = np.bincount(a, minlength=top + 1).astype(float)
    cb = np.bincount(b, minlength=top + 1).astype(float)
    keep = ca + cb > 0
    ca, cb = ca[keep], cb[keep]
    # pool the tail until every bin has enough combined mass
    while ca.size > 2 and ca[-1] + cb[-1] < min_combined:
        ca[-2] += ca[-1]
        cb[-2] += cb[-1]
        ca, cb = ca[:-1], cb[:-1]
    r = math.sqrt(cb.sum() / ca.sum())
    stat = float(((r * ca - cb / r) ** 2 / (ca + cb)).sum())
    return float(chi2_dist.sf(stat, ca.size - 1))


def test_direct_sampler_matches_rejection():
    rng = Random(13)
    sampler = DirectOneMarkSampler(LAW, root_excluded=True)
    direct = [sampler.sample(rng)[0] for _ in range(40_000)]
    assert gof_geometric(direct, X).pvalue > 0.001
    # leaf-count law agrees with the rejection sampler's accepted trees
    rng = Random(14)
    direct_n = [sampler.sample(rng)[1] for _ in range(20_000)]
    rng = Random(15)
    rejected_n = [
        gw.sample_conditioned(LAW, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=True)
        .tree.n_leaves
        for _ in range(20_000)
    ]
    assert two_sample_chi2_pvalue(direct_n, rejected_n) > 0.001


def test_pmf_table():
    rows = gw.pmf_table([1, 1, 2, 3], lambda g: gw.geometric_pmf(X, g), g_max=3)
    assert [r[0] for r in rows] == [1, 2, 3]
    assert [r[3] for r in rows] == [2, 1, 1]
    assert rows[0][2] == pytest.approx(0.5)
    # the rows start at g = 1 whatever the smallest sample: here g = 1 and 2
    # carry 0.75 of the law
    rows = gw.pmf_table([3], lambda g: gw.geometric_pmf(0.5, g), g_max=5)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
    assert [r[3] for r in rows] == [0, 0, 1, 0, 0]
    assert rows[0][1] + rows[1][1] == 0.75
    with pytest.raises(ValueError):
        gw.pmf_table([], lambda g: 0.5)
    with pytest.raises(ValueError):
        gw.pmf_table([0, 1], lambda g: 0.5)
