"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured quantities (also echoed in the terminal summary).

The heavy reference-set Monte Carlo runs are session fixtures shared across
criteria (10^4 replicates for the small-i gates, 5*10^4 for the paper-scale
window and shape checks).
"""

import math
import time
from fractions import Fraction
from random import Random

import numpy as np

from conftest import REF, T_MULT, T_N, record_criterion
from helpers import (
    build_single_root_example,
    catalan_series_sum,
    exact_v_tables,
    full_run,
    gillespie,
    gof_exponential,
    gof_geometric,
    gof_pooled_counts,
    naive_sfs,
    weighted_leaf_sums,
)
from rescue_sfs import gw_trees as gw
from rescue_sfs import montecarlo as mc
from rescue_sfs import simulator as sim
from rescue_sfs import theory as th
from rescue_sfs.params import ModelParams, derive, derive_from_gamma_n

FIG_DP = derive_from_gamma_n(1.0, 2.0, 1.2, 0.5, 0.2)
FIG_LAW = gw.GwLaw(p=FIG_DP.p_n, beta=FIG_DP.beta_n)
REF_DP = derive(REF)


class stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_01_gw_series_identities():
    with stopwatch() as sw:
        law = FIG_LAW
        x = law.x
        total = weighted_leaf_sums(law, g=None, cutoff=2000)
        limit = (1.0 - law.p) / x
        gap0 = abs(total - limit)
        gaps = []
        for g in range(1, 11):
            partial = weighted_leaf_sums(law, g=g, cutoff=2000)
            gaps.append(abs(partial - (1.0 - x) ** (g - 1) * (1.0 - law.p)))
    ok = (
        gap0 <= 1e-8
        and abs(limit - 1.116880) < 1e-6
        and all(g <= 1e-8 for g in gaps)
        and sw.elapsed < 1.0
    )
    record_criterion(
        "01",
        ok,
        f"leaf-weight sums: |sum-(1-p)/x|={gap0:.2e}, max generation gap="
        f"{max(gaps):.2e} (tol 1e-8), {sw.elapsed:.2f}s",
    )
    assert ok


def test_criterion_02_catalan_and_exact_recursion():
    with stopwatch() as sw:
        series_gaps = {}
        for p in (0.1, 0.25, 0.4):
            total, bound = catalan_series_sum(p)
            series_gaps[p] = abs(total - p)
        v_rec, v_closed = exact_v_tables(Fraction(1, 4), 60)
        rational_equal = all(
            v_rec[g][n] == v_closed[g][n] for n in range(1, 61) for g in range(1, n + 1)
        )
    ok = all(gap < 1e-10 for gap in series_gaps.values()) and rational_equal and sw.elapsed < 10.0
    record_criterion(
        "02",
        ok,
        f"series defects {['%.1e' % g for g in series_gaps.values()]} (tol 1e-10); "
        f"exact-rational recursion == closed form for n<=60: {rational_equal}; "
        f"{sw.elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_founder_laws_monte_carlo():
    with stopwatch() as sw:
        rng = Random(20303)
        gens = []
        times = []
        for _ in range(100_000):
            s = gw.sample_conditioned(
                FIG_LAW, gw.CONDITION_EXACTLY_ONE, rng, root_excluded=True, delta0=3.0
            )
            gens.append(s.generation)
            times.append(s.lifetime)
        g_res = gof_geometric(gens, 0.656591)
        t_res = gof_exponential(times, 1.969773)
    ok = g_res.pvalue > 0.001 and t_res.pvalue > 0.001 and sw.elapsed < 60.0
    record_criterion(
        "03",
        ok,
        f"generation chi2 p={g_res.pvalue:.3f} vs geometric(0.656591); appearance-time "
        f"KS p={t_res.pvalue:.3f} vs Exp(1.969773); 1e5 samples, {sw.elapsed:.1f}s",
    )
    assert ok


def test_criterion_04_founder_count_probabilities():
    with stopwatch() as sw:
        rng = Random(20404)
        n_one = 100_000
        ones = sum(
            gw.sample_tree(FIG_LAW, rng, root_excluded=True).mark_count == 1
            for _ in range(n_one)
        )
        freq = ones / n_one
        se_one = math.sqrt(freq * (1.0 - freq) / n_one)
        exact_one = th.prob_one_ancestral(FIG_DP).exact

        n_multi = 1_000_000
        total = 0.0
        total_sq = 0.0
        for _ in range(n_multi):
            marks = gw.sample_tree(FIG_LAW, rng, root_excluded=True).mark_count
            if marks >= 2:
                total += marks
                total_sq += marks * marks
        mean_multi = total / n_multi
        var_multi = total_sq / n_multi - mean_multi**2
        se_multi = math.sqrt(var_multi / n_multi)
        exact_multi = th.multi_ancestral_mean(FIG_DP).exact
    ok = (
        abs(freq - 0.130752) <= 3 * se_one
        and abs(freq - exact_one) <= 3 * se_one
        and abs(mean_multi - 0.155033) <= 3 * se_multi
        and abs(mean_multi - exact_multi) <= 3 * se_multi
        and sw.elapsed < 120.0
    )
    record_criterion(
        "04",
        ok,
        f"P(one founder): mc={freq:.6f} exact={exact_one:.6f} (3SE={3*se_one:.6f}); "
        f"multi-founder mean: mc={mean_multi:.6f} exact={exact_multi:.6f} "
        f"(3SE={3*se_multi:.6f}); {sw.elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_expected_founder_total(ref_agg_10k):
    with stopwatch() as sw:
        mean, sem = ref_agg_10k.scalar_stat("ancestral_count")
        exact = th.ancestral_count_mean(REF).exact
    ok = abs(mean - exact) <= 3 * sem and abs(exact - 5.523) < 1e-3 and sw.elapsed < 300.0
    record_criterion(
        "05",
        ok,
        f"ancestral-resistant count: mc={mean:.4f} exact={exact:.4f} "
        f"(3SE={3*sem:.4f}); 1e4 replicates",
    )
    assert ok


def test_criterion_06_single_clone_sfs():
    with stopwatch() as sw:
        agg = mc.replicate_sfs(
            REF,
            2.0,
            replicates=100_000,
            seed=20606,
            initial=(0, 1),
            i_max=10,
            workers=2,
        )
        stats = agg.stats("s")
        theory_vals = [
            th.single_clone_sfs(i, 2.0, REF.b1, REF.d1, REF.omega).value for i in range(1, 11)
        ]
        report = mc.compare(stats, theory_vals, mode="z-score", threshold=3.0)
    ok = report.all_passed and sw.elapsed < 300.0
    zmax = float(np.max(np.abs(report.z_scores)))
    record_criterion(
        "06",
        ok,
        f"single-clone SFS i in [1,10] at t=2: max |z|={zmax:.2f} (gate 3.0), "
        f"1e5 replicates, {sw.elapsed:.0f}s",
    )
    assert ok


def test_criterion_07_finite_n_small_i(ref_agg_10k, ref_agg_50k):
    with stopwatch() as sw:
        i_grid = range(1, 21)
        stats = ref_agg_10k.stats("sbar")
        exact = [th.resistant_origin_mean_exact(i, T_MULT, REF).value for i in i_grid]
        main = [th.resistant_origin_main_term(i, T_MULT, REF).value for i in i_grid]
        report_exact = mc.compare(stats, exact, mode="z-score", threshold=3.0)
        report_main = mc.compare(stats, main, mode="z-score", threshold=3.0)
        # the multi-founder remainder is O(N^(1-2a+l1*t)) against the main
        # term's O(N^(1-a+l1*t)): relatively N^(-0.9) with constant ~10, so
        # below 6% here, but resolvable at 1e4 replicates (z vs main ~ +4);
        # the measured gap carries Monte Carlo noise of up to 3 SEM on top
        main_arr = np.asarray(main)
        remainder_rel = np.maximum(
            np.abs(stats.mean - main_arr) - 3.0 * stats.sem(), 0.0
        ) / main_arr

        under = ref_agg_10k.stats("sunder")
        q_vals = np.asarray(
            [th.sensitive_origin_main_term(i, T_MULT, REF).value for i in i_grid]
        )
        r_bound = th.sensitive_origin_remainder_bound(REF)
        under_sem = under.sem()
        under_ok = bool(
            np.all(under.mean >= q_vals - 3 * under_sem)
            and np.all(under.mean <= q_vals + r_bound + 3 * under_sem)
        )

        # paper-scale shape reproduction
        s50 = ref_agg_50k.stats("s")
        sbar50 = ref_agg_50k.stats("sbar")
        head = slice(0, 20)
        decreasing = bool(np.all(np.diff(s50.mean[head]) < 0))
        split_gap = np.abs(s50.mean[head] - sbar50.mean[head])
        indistinguishable = bool(
            np.all(split_gap <= np.maximum(s50.ci_halfwidth[head], 0.05 * s50.mean[head]))
        )
        thm1 = np.asarray(
            [th.sfs_small_asymptotic(i, T_MULT, REF).value for i in i_grid]
        )
        asym_gap = np.abs(s50.mean[head] - thm1)
        shape_ok = bool(
            np.all(asym_gap <= np.maximum(0.08 * thm1, 4.0 * s50.sem()[head]))
        )
    ok = (
        report_exact.pass_fraction >= 0.95
        and bool(np.all(remainder_rel <= 0.06))
        and under_ok
        and decreasing
        and indistinguishable
        and shape_ok
    )
    record_criterion(
        "07",
        ok,
        f"Sbar vs exact finite-N mean: {report_exact.pass_fraction:.0%} of i in [1,20] "
        f"at |z|<=3 (gate 95%); vs single-founder main term alone: "
        f"{report_main.pass_fraction:.0%} pass, noise-adjusted remainder/main <= "
        f"{float(remainder_rel.max()):.3f} (gate 0.06); Sunder within "
        f"[Q-3SE, Q+{r_bound:.3f}+3SE]: {under_ok}; paper-scale shape "
        f"(decreasing={decreasing}, S~Sbar={indistinguishable}, asympt={shape_ok})",
    )
    assert ok


def test_criterion_08_window_sfs_and_sign(ref_agg_50k):
    with stopwatch() as sw:
        xs = (0.6, 1.0, 2.0, 4.0, 6.0)
        scale = REF.b0 * REF.gamma * REF.omega * REF_DP.lambda1 * REF.n_init ** (1.0 - REF.alpha)
        k_theory = [scale * th.window_weight_resistant(x, REF_DP).value for x in xs]
        l_theory = [scale * th.window_weight_sensitive(x, REF_DP).value for x in xs]
        rep_k = mc.compare(
            ref_agg_50k.window_stats("sbar"), k_theory, mode="relative", threshold=0.20
        )
        rep_l = mc.compare(
            ref_agg_50k.window_stats("sunder"), l_theory, mode="relative", threshold=0.20
        )
        grid = [0.6 + 0.1 * k for k in range(55)]
        k_vals = [th.window_weight_resistant(x, REF_DP).value for x in grid]
        l_vals = [th.window_weight_sensitive(x, REF_DP).value for x in grid]
        monotone = all(v > 0 for v in k_vals + l_vals) and all(
            a > b for a, b in zip(k_vals, k_vals[1:])
        ) and all(a > b for a, b in zip(l_vals, l_vals[1:]))
        h = 1e-4
        slope_ok = True
        for x in (0.6, 1.0, 3.0, 6.0):
            slope = th.window_weight_resistant_slope(x, REF_DP).value
            fd = (
                th.window_weight_resistant(x - h, REF_DP).value
                - th.window_weight_resistant(x + h, REF_DP).value
            ) / (2 * h)
            slope_ok = slope_ok and abs(slope - fd) <= 1e-5 * abs(slope) + 1e-9
    ok = rep_k.all_passed and rep_l.all_passed and monotone and slope_ok
    record_criterion(
        "08",
        ok,
        f"windows (x,inf) x in {xs} at 5e4 replicates: resistant-origin max rel gap "
        f"{float(np.max(rep_k.rel_gaps)):.3f}, hitch-hiking max rel gap "
        f"{float(np.max(rep_l.rel_gaps)):.3f} (gate 0.20); weights positive+decreasing: "
        f"{monotone}; slope vs finite differences: {slope_ok}",
    )
    assert ok


def test_criterion_08_resistant_origin_windows_against_the_exact_count(ref_agg_50k):
    # criterion 8's resistant-origin windows against the exact finite-N
    # count rather than the large-N weight, on the same replicates: a
    # z-gate, which a relative gap under 0.20 cannot give
    xs = (0.6, 1.0, 2.0, 4.0, 6.0)
    exact = [th.resistant_origin_window_exact(x, T_MULT, REF).value for x in xs]
    rep = mc.compare(ref_agg_50k.window_stats("sbar"), exact, mode="z-score", threshold=4.0)
    zs = ", ".join(f"{z:+.2f}" for z in rep.z_scores)
    record_criterion(
        "08",
        rep.all_passed,
        f"resistant-origin windows (x,inf) x in {xs} vs the exact finite-N count: "
        f"z = {zs} (gate |z| <= 4)",
    )
    assert rep.all_passed


def test_criterion_09_rate_table_and_decay():
    with stopwatch() as sw:
        rng = Random(20909)
        obs = np.zeros(5)
        exp = np.zeros(5)
        while obs.sum() < 1_000_000:
            out = gillespie(REF, T_N, rng=rng, track_rates=True)
            obs += out.event_counts
            exp += out.expected_class_weights
        gof = gof_pooled_counts(obs, exp)

        decay_params = ModelParams(
            b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=0.0, gamma=0.0, alpha=0.9, n_init=100
        )
        rng = Random(20910)
        finals = [full_run(decay_params, 1.0, rng=rng).z0_final for _ in range(10_000)]
        mean = float(np.mean(finals))
        sem = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
        expected = 100 * math.exp(-0.8)
        decay_ok = abs(mean - expected) <= 3 * sem
    ok = gof.pvalue > 0.001 and decay_ok and sw.elapsed < 120.0
    record_criterion(
        "09",
        ok,
        f"event classes over {int(obs.sum())} events: chi2 p={gof.pvalue:.3f} "
        f"({gof.bins} pooled bins); gamma_n=0 decay mc={mean:.3f} vs {expected:.3f} "
        f"(3SE={3*sem:.3f}); {sw.elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_brute_force_oracle():
    with stopwatch() as sw:
        small = ModelParams(
            b0=1.0, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.3, alpha=1.0, n_init=8
        )
        rng = Random(21010)
        checked = 0
        attempts = 0
        mismatches = 0
        while checked < 500 and attempts < 5000:
            attempts += 1
            out = sim.run(small, 2.5, rng=rng)
            if out.n_nodes > 200:
                continue
            rec = sim.extract_sfs(out)
            s, sres, ssen = naive_sfs(out)
            if (
                rec.s != s
                or rec.s_resistant_origin != sres
                or rec.s_sensitive_origin != ssen
            ):
                mismatches += 1
            checked += 1
        fixture = sim.extract_sfs(build_single_root_example(small))
        fixture_ok = fixture.s == {1: 3, 3: 1, 7: 2}
    ok = checked == 500 and mismatches == 0 and fixture_ok and sw.elapsed < 30.0
    record_criterion(
        "10",
        ok,
        f"{checked} capped runs (<=200 cells): {mismatches} mismatches vs naive "
        f"mutation-set oracle; worked example gives S1=3, S3=1, S7=2: {fixture_ok}; "
        f"{sw.elapsed:.1f}s",
    )
    assert ok
