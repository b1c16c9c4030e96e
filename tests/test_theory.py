import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from rescue_sfs import gw_trees as gw
from rescue_sfs import theory as th
from rescue_sfs.params import ModelParams, derive, derive_from_gamma_n

REF = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500)
DP = derive(REF)
T = 1.25
RHO = 0.5 / 1.2
FIG_DP = derive_from_gamma_n(1.0, 2.0, 1.2, 0.5, 0.2)  # b0=1, d0=2, gamma_n=0.2


def test_theory_value_invariants():
    tv = th.TheoryValue(1.0, 0.0)
    assert float(tv) == 1.0
    with pytest.raises(ValueError):
        th.TheoryValue(1.0, -1e-3)


NAN = math.nan


# NaN fails every comparison, so a domain check written as x < lo lets it
# through; shape_integral_truncated and single_clone_sfs then looped forever
# (the series' tail test is never true), and the rest returned NaN, the
# quadratures with a NaN bound they called certified
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize(
    "call",
    [
        lambda: th.shape_integral_truncated(1, NAN, RHO),
        lambda: th.single_clone_sfs(1, NAN, 1.2, 0.5, 2.0),
        lambda: th.clone_size_pmf(1, NAN, 1.2, 0.5),
        lambda: th.clone_extinction_prob(NAN, 1.2, 0.5),
        lambda: th.appearance_time_pdf(DP, NAN),
        lambda: th.appearance_time_pdf_any(DP, NAN),
        lambda: th.window_weight_resistant(NAN, DP),
        lambda: th.window_weight_sensitive(NAN, DP),
        lambda: th.window_weight_resistant_slope(NAN, DP),
        lambda: th.resistant_origin_mean_exact(1, NAN, REF),
        lambda: th.resistant_origin_main_term(1, NAN, REF),
        lambda: th.sfs_small_asymptotic(1, NAN, REF),
        lambda: th.quad_semi_infinite(lambda s: NAN, 1e-10, lambda s: 0.0, s_max=1.0),
        lambda: th._quad_finite(1.0, lambda s: NAN, 1.0, 1e-10),
        lambda: th.TheoryValue(1.0, NAN),
    ],
    ids=[
        "hi",
        "clone-sfs",
        "kappa",
        "extinction",
        "tn",
        "tilde-tn",
        "K",
        "L",
        "Kslope",
        "exact-mean",
        "P",
        "thm1",
        "quad-semi-infinite",
        "quad-finite",
        "theory-value",
    ],
)
def test_nan_inputs_fail_loudly(call):
    with pytest.raises((ValueError, th.QuadratureError)):
        call()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quad_semi_infinite_exponential():
    tv = th.quad_semi_infinite(
        lambda s: math.exp(-s), tol=1e-10, tail_bound=lambda s: math.exp(-s), s_max=25.0
    )
    assert tv.value == pytest.approx(1.0, abs=1e-10)


def test_quad_semi_infinite_closed_form():
    # (1 + 2*1.2 s) e^{-0.8 s} integrates to 1/0.8 + 2.4/0.64 = 5
    tv = th.quad_semi_infinite(
        lambda s: (1 + 2.4 * s) * math.exp(-0.8 * s),
        tol=1e-9,
        tail_bound=lambda s: math.exp(-0.8 * s) * ((1 + 2.4 * s) / 0.8 + 2.4 / 0.64),
        s_max=50.0,
    )
    assert tv.value == pytest.approx(5.0, abs=1e-9)


def test_quad_semi_infinite_reports_unreachable_tolerance():
    # the tail past s_max exceeds the requested tolerance
    with pytest.raises(th.QuadratureError, match="achieved"):
        th.quad_semi_infinite(
            lambda s: math.exp(-s), tol=1e-12, tail_bound=lambda s: math.exp(-s), s_max=5.0
        )


# ---------------------------------------------------------------------------
# shape integrals
# ---------------------------------------------------------------------------


def test_shape_integral_values():
    assert th.shape_integral(1, 0.0).value == pytest.approx(0.5, rel=1e-15)
    tv = th.shape_integral(1, RHO)
    assert tv.value == pytest.approx(0.588968, abs=1e-5)
    assert tv.abs_error_bound < 1e-11
    assert tv.value == pytest.approx(quad(lambda y: (1 - y) / (1 - RHO * y), 0, 1)[0], abs=1e-9)


def test_shape_integral_monotone_and_bounded():
    vals = [th.shape_integral(i, RHO).value for i in range(1, 30)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    for i in (1, 5, 20):
        assert th.shape_integral(i, RHO).value <= 1.0 / ((1 - RHO) * i * (i + 1)) + 1e-12


def test_shape_integral_truncated():
    for i in (1, 4):
        assert th.shape_integral_truncated(i, 1.0, RHO).value == 0.0
    assert th.shape_integral_truncated(1, math.inf, RHO).value == pytest.approx(
        th.shape_integral(1, RHO).value, rel=1e-12
    )
    x = math.exp(0.7 * 2)
    up = (x - 1) / (x - RHO)
    oracle = quad(lambda y: (1 - y) / (1 - RHO * y), 0, up)[0]
    assert th.shape_integral_truncated(1, x, RHO).value == pytest.approx(oracle, abs=1e-8)
    # nondecreasing in x
    xs = [1.0, 1.5, 2.0, 5.0, 50.0]
    vals = [th.shape_integral_truncated(3, x, RHO).value for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (th.shape_integral, (0, RHO), "i >= 1"),
        (th.shape_integral, (1, 1.0), "rho < 1"),
        (th.shape_integral, (1, RHO, 0.0), "tol > 0"),
        (th.shape_integral_truncated, (1, 0.5, RHO), "x >= 1"),
        (th.shape_integral_truncated, (1, 2.0, RHO, 0.0), "tol > 0"),
    ],
)
def test_shape_integral_rejects_bad_arguments(fn, args, match):
    # at tol = 0 the series would never stop
    with pytest.raises(ValueError, match=match):
        fn(*args)


def _shape_exact(i, x, rho):
    """h_i(x) to 50 digits: with Y = (x-1)/(x-rho) and
    M_i = Int_0^Y y^(i-1)/(1-rho y) dy = Y^i 2F1(1, i; i+1; rho Y)/i,
    h_i = (Y^i/i - (1-rho) M_i)/rho."""
    with mpmath.workdps(50):
        rho = mpmath.mpf(rho)
        y = mpmath.mpf(1) if x == math.inf else (mpmath.mpf(x) - 1) / (mpmath.mpf(x) - rho)
        if rho == 0:
            return y**i / i - y ** (i + 1) / (i + 1)
        m = y**i * mpmath.hyp2f1(1, i, i + 1, rho * y) / i
        return (y**i / i - (1 - rho) * m) / rho


@pytest.mark.parametrize("rho", [0.0, 0.417, 0.9, 0.99, 0.9999, 0.99999])
def test_shape_integral_bounds_hold(rho):
    for i in (1, 2, 5, 40, 121):
        for x in (1.5, 10.0, 1e3, math.inf):
            if x == math.inf:
                tv = th.shape_integral(i, rho)
                assert th.shape_integral_truncated(i, x, rho) == tv
            else:
                tv = th.shape_integral_truncated(i, x, rho)
            with mpmath.workdps(50):
                err = abs(mpmath.mpf(tv.value) - _shape_exact(i, x, rho))
            assert err <= tv.abs_error_bound <= 1e-12, (i, x, float(err), tv.abs_error_bound)


def _timed(fn, arg_list):
    """fn's values over arg_list and the seconds they took."""
    t0 = time.perf_counter()
    values = [fn(*args) for args in arg_list]
    return values, time.perf_counter() - t0


# Near rho = 1 the series needs O(1/(1-rho)) terms.  The limits below are
# about 100 times the time the i-step recurrence takes on a 2-core machine.


def test_shape_integral_cost_near_critical():
    curve, seconds = _timed(th.shape_integral, [(i, 0.99999) for i in range(1, 122)])
    assert seconds < 0.5
    assert all(a.value > b.value > 0 for a, b in zip(curve, curve[1:]))


def test_shape_integral_truncated_cost_near_critical():
    xs = [1.5 * 10.0**k for k in range(10)]
    vals, seconds = _timed(th.shape_integral_truncated, [(5, x, 0.99999) for x in xs])
    assert seconds < 0.1
    assert all(0 < a.value <= b.value for a, b in zip(vals, vals[1:]))


def test_resistant_origin_main_term_cost_near_critical():
    # d1/b1 = 0.999 observed at t = 400 (growth e^(lambda1 t_N) about 20):
    # each quadrature node evaluates h_i where rho Y is near 1
    params = dataclasses.replace(REF, d1=0.999 * REF.b1)
    vals, seconds = _timed(th.resistant_origin_main_term, [(i, 400.0, params) for i in (1, 20)])
    assert seconds < 0.5
    assert all(math.isfinite(v.value) and v.value > 0 for v in vals)


# ---------------------------------------------------------------------------
# clone size laws
# ---------------------------------------------------------------------------


def test_clone_size_pmf_founder():
    assert th.clone_size_pmf(1, 0.0, 1.2, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_clone_size_pmf_normalization_with_extinction():
    ssum = sum(th.clone_size_pmf(i, 1.0, 1.2, 0.5) for i in range(1, 2001))
    ext = th.clone_extinction_prob(1.0, 1.2, 0.5)
    assert abs(ssum + ext - 1.0) < 1e-10


def test_clone_size_pmf_decreasing_past_mode():
    vals = [th.clone_size_pmf(i, 1.5, 1.2, 0.5) for i in range(1, 200)]
    mode = int(np.argmax(vals))
    tail = vals[mode:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_single_clone_sfs():
    assert th.single_clone_sfs(1, 0.0, 1.2, 0.5, 2.0).value == 0.0
    assert th.single_clone_sfs(3, 2.0, 1.2, 0.5, 0.0).value == 0.0
    v = th.single_clone_sfs(1, 2.0, 1.2, 0.5, 2.0)
    assert v.value == pytest.approx(4.61068, abs=1e-4)
    # asymptotic form overestimates the truncated integral mildly
    asym = th.single_clone_sfs_asymptotic(1, 2.0, 1.2, 0.5, 2.0)
    assert asym > v.value


# ---------------------------------------------------------------------------
# founder laws
# ---------------------------------------------------------------------------


def test_generation_pmf_matches_tree_module():
    law = gw.GwLaw(p=FIG_DP.p_n, beta=FIG_DP.beta_n)
    for g in range(1, 15):
        assert th.generation_pmf(FIG_DP, g) == pytest.approx(
            gw.gen_pmf_one_mark(law, g), rel=1e-12
        )
        assert th.generation_pmf_any(FIG_DP, g) == pytest.approx(
            gw.gen_pmf_atleast_one_mark(law, g), rel=1e-9
        )
    assert law.x == pytest.approx(FIG_DP.x_n, rel=1e-12)


def test_generation_pmf_head():
    assert th.generation_pmf(FIG_DP, 1) == pytest.approx(FIG_DP.x_n, rel=1e-15)


def test_appearance_time_pdf():
    rate = FIG_DP.delta0 * FIG_DP.x_n
    assert 1.0 / rate == pytest.approx(0.507671, abs=5e-6)  # mean of the law
    assert th.appearance_time_pdf(FIG_DP, 0.0) == pytest.approx(rate, rel=1e-13)
    val = quad(lambda t: th.appearance_time_pdf(FIG_DP, t), 0, 50)[0]
    assert val == pytest.approx(1.0, abs=1e-9)


def test_any_founder_laws_normalize():
    assert sum(th.generation_pmf_any(FIG_DP, g) for g in range(1, 501)) == pytest.approx(
        1.0, abs=1e-8
    )
    val, _ = quad(lambda t: th.appearance_time_pdf_any(FIG_DP, t), 0, 100, limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_any_founder_time_pdf_taylor_branch():
    # the closed form and the small-t series agree across the switch at
    # eps = 0.1; the points lie close enough that the pdf itself moves by
    # about 6e-11 between them
    eps_t = 0.1 / (2 * FIG_DP.delta0 * (FIG_DP.p_n - FIG_DP.p_tilde_n))
    below = th.appearance_time_pdf_any(FIG_DP, eps_t * (1 - 1e-10))
    above = th.appearance_time_pdf_any(FIG_DP, eps_t * (1 + 1e-10))
    assert below == pytest.approx(above, rel=1e-9)
    limit = FIG_DP.delta0 * (1 - FIG_DP.p_n - FIG_DP.p_tilde_n)
    assert th.appearance_time_pdf_any(FIG_DP, 0.0) == pytest.approx(limit, rel=1e-12)


def _appearance_time_pdf_any_exact(dp, t):
    # 50-digit closed form on the float inputs p_n, p_tilde_n, delta0 and t
    with mpmath.workdps(50):
        p, pt, d0, t = (mpmath.mpf(v) for v in (dp.p_n, dp.p_tilde_n, dp.delta0, t))
        e = -mpmath.expm1(-2 * t * d0 * (p - pt))
        bracket = e * (1 + 1 / (t * d0)) - 2 * (p - pt * (1 - e))
        return mpmath.exp(-t * d0 * (1 - 2 * p)) * bracket / (2 * t * (p - pt))


@pytest.mark.parametrize("gamma", [1.0, 1e-3, 1e-6])
def test_any_founder_time_pdf_matches_mpmath(gamma):
    # the closed form cancels for small t delta0 (p - pt); at gamma = 1 and
    # 1e-3 it used to be off by up to 1.5e-10 relative
    dp = derive(dataclasses.replace(REF, gamma=gamma))
    for k in range(-90, 14):
        t = 10 ** (k / 10)
        want = _appearance_time_pdf_any_exact(dp, t)
        assert th.appearance_time_pdf_any(dp, t) == pytest.approx(float(want), rel=1e-13)


def _generation_pmf_any_exact(b0, d0, gamma_n, g):
    # 50-digit any-founder law: the closed form for beta_n > 0, its limit
    # (2p)^(g-1) (1-2p) at beta_n = 0
    with mpmath.workdps(50):
        b0, d0, gn = mpmath.mpf(b0), mpmath.mpf(d0), mpmath.mpf(gamma_n)
        p = (1 - gn) * b0 / (b0 + d0)
        lam = d0 - b0
        x = lam / (b0 + d0) * mpmath.sqrt(1 + 4 * b0 * d0 * gn * (2 - gn) / lam**2)
        pt = (1 - x) / 2
        if gn == 0:
            return (2 * p) ** (g - 1) * (1 - 2 * p)
        bracket = (p**g - pt**g) / g - 2 * (p ** (g + 1) - pt ** (g + 1)) / (g + 1)
        return 2 ** (g - 1) / (p - pt) * bracket


@pytest.mark.parametrize("gamma", [0.0, 1e-12, 1e-6])
def test_any_founder_generation_law_as_beta_vanishes(gamma):
    # p_n - p_tilde_n is 0 or nearly so: the quotient form would be rounding
    # noise (gamma = 0) or good to about 5e-9 (gamma = 1e-6)
    params = dataclasses.replace(REF, gamma=gamma)
    dp = derive(params)
    for g in range(1, 51):
        want = _generation_pmf_any_exact(dp.b0, dp.d0, params.gamma_n, g)
        assert th.generation_pmf_any(dp, g) == pytest.approx(float(want), rel=1e-12)


# ---------------------------------------------------------------------------
# founder counts
# ---------------------------------------------------------------------------


def test_prob_one_ancestral_value():
    pv = th.prob_one_ancestral(FIG_DP)
    assert pv.exact == pytest.approx(0.130755, abs=1e-6)
    assert pv.exact == pytest.approx(0.130752, abs=1e-5)


def test_multi_ancestral_value():
    pv = th.multi_ancestral_mean(FIG_DP)
    assert pv.exact == pytest.approx(0.154959, abs=1e-6)


def test_ancestral_count_reference():
    pv = th.ancestral_count_mean(REF)
    assert pv.exact == pytest.approx(5.523, abs=1e-3)
    assert pv.asymptotic == pytest.approx(5.585, abs=1e-3)
    zero = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.0, alpha=0.9, n_init=500
    )
    assert th.ancestral_count_mean(zero).exact == 0.0


def test_founder_asymptotics_sharpen_with_n():
    ratios_one = []
    ratios_multi = []
    for n in (10**3, 10**5, 10**7):
        p = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=n)
        dp = derive(p)
        one = th.prob_one_ancestral(dp)
        multi = th.multi_ancestral_mean(dp)
        ratios_one.append(abs(one.exact / one.asymptotic - 1.0))
        ratios_multi.append(abs(multi.exact / multi.asymptotic - 1.0))
    assert ratios_one[0] > ratios_one[1] > ratios_one[2]
    assert ratios_multi[0] > ratios_multi[1] > ratios_multi[2]
    assert ratios_one[-1] < 1e-3 and ratios_multi[-1] < 1e-3


# ---------------------------------------------------------------------------
# window weights
# ---------------------------------------------------------------------------


def test_window_weight_sensitive_small_x_limit():
    expected = (1 / 1.2) * (1 / 0.8 + 2 * 1.2 / 0.64)
    assert expected == pytest.approx(4.16667, abs=1e-5)
    assert th.window_weight_sensitive(1e-9, DP).value == pytest.approx(expected, rel=1e-6)


def test_window_weights_positive_decreasing():
    xs = [0.6 + 0.2 * k for k in range(28)]
    for fn in (
        th.window_weight_resistant,
        th.window_weight_sensitive,
        th.window_weight_resistant_slope,
    ):
        vals = [fn(x, DP).value for x in xs]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_window_weights_vanish_at_infinity():
    for fn in (th.window_weight_resistant, th.window_weight_sensitive):
        assert fn(60.0, DP).value < 1e-12


def test_slope_matches_finite_differences():
    h = 1e-4
    for x in (0.6, 1.0, 3.0, 6.0):
        slope = th.window_weight_resistant_slope(x, DP).value
        fd = (
            th.window_weight_resistant(x - h, DP).value
            - th.window_weight_resistant(x + h, DP).value
        ) / (2 * h)
        assert abs(slope - fd) <= 1e-5 * abs(slope) + 1e-9


# ---------------------------------------------------------------------------
# asymptotic SFS
# ---------------------------------------------------------------------------


def test_sfs_small_asymptotic_reference_value():
    v = th.sfs_small_asymptotic(1, T, REF)
    assert v.value == pytest.approx(806.75, abs=0.05)
    zero = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=0.0, gamma=1.0, alpha=0.9, n_init=500
    )
    assert th.sfs_small_asymptotic(1, T, zero).value == 0.0


def test_sfs_small_asymptotic_ratio_free_of_scale():
    for i in (1, 3, 7):
        r_ref = th.sfs_small_asymptotic(i, T, REF).value / th.sfs_small_asymptotic(
            i + 1, T, REF
        ).value
        other = ModelParams(
            b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=4000
        )
        r_other = th.sfs_small_asymptotic(i, 0.7, other).value / th.sfs_small_asymptotic(
            i + 1, 0.7, other
        ).value
        expected = th.shape_integral(i, RHO).value / th.shape_integral(i + 1, RHO).value
        assert r_ref == pytest.approx(expected, rel=1e-9)
        assert r_other == pytest.approx(expected, rel=1e-9)


def test_sfs_window_asymptotic():
    with pytest.raises(ValueError):
        th.sfs_window_asymptotic(2.0, 1.0, T, REF)
    a = th.sfs_window_asymptotic(0.6, 1.0, T, REF)
    b = th.sfs_window_asymptotic(1.0, 2.5, T, REF)
    c = th.sfs_window_asymptotic(0.6, 2.5, T, REF)
    assert a.value + b.value == pytest.approx(c.value, abs=a.abs_error_bound + b.abs_error_bound + c.abs_error_bound + 1e-12)
    # half-open window equals the J = K + L weight at the lower edge
    scale = 1.2 * 1.0 * 2.0 * 0.7 * 500**0.1
    j = th.window_weight_resistant(0.6, DP).value + th.window_weight_sensitive(0.6, DP).value
    assert th.sfs_window_asymptotic(0.6, math.inf, T, REF).value == pytest.approx(
        scale * j, rel=1e-9
    )
    # split consistency: resistant-origin part plus hitch-hiking part
    k_part = scale * (
        th.window_weight_resistant(0.6, DP).value - th.window_weight_resistant(2.5, DP).value
    )
    l_part = scale * (
        th.window_weight_sensitive(0.6, DP).value - th.window_weight_sensitive(2.5, DP).value
    )
    assert c.value == pytest.approx(k_part + l_part, rel=1e-9)


# ---------------------------------------------------------------------------
# finite-N integrals
# ---------------------------------------------------------------------------


def test_resistant_origin_main_term_zero_cases():
    zero = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=0.0, gamma=1.0, alpha=0.9, n_init=500
    )
    assert th.resistant_origin_main_term(1, T, zero).value == 0.0
    assert th.sensitive_origin_main_term(1, T, zero).value == 0.0


NEAR_CRITICAL = dataclasses.replace(REF, d1=0.999 * REF.b1)


@pytest.mark.parametrize(
    "params, t, i",
    [pytest.param(REF, T, i, id=str(i)) for i in (1, 20, 121)]
    + [
        pytest.param(NEAR_CRITICAL, t, i, id=f"near-critical-t{t:g}-{i}")
        for t in (T, 400.0)
        for i in (1, 20, 121)
    ],
)
def test_resistant_origin_main_term_bound_holds(params, t, i):
    # P against the s-integral it is defined by, taken over the 50-digit h_i
    dp = derive(params)
    t_n = t * math.log(params.n_init)
    rate = dp.lambda1 + dp.x_n * dp.delta0
    pref = (
        params.n_init ** (1 + dp.lambda1 * t - params.alpha)
        * dp.delta0
        * (1 - dp.x_n)
        * params.gamma
        * params.omega
        / (1 - dp.gamma_n)
    )

    tv = th.resistant_origin_main_term(i, t, params)
    with mpmath.workdps(30):
        exact = mpmath.quad(
            lambda s: _shape_exact(i, mpmath.exp(dp.lambda1 * (t_n - s)), dp.rho)
            * mpmath.exp(-rate * s),
            [0, t_n],
        )
        assert abs(tv.value - pref * exact) <= tv.abs_error_bound


def test_resistant_origin_main_term_bound_meets_tol():
    # the policy _quad_finite enforces: the bound is within tol, or within
    # 1e-8 relative where tol is out of reach; at the reference set the
    # default tol itself is met
    for i in range(1, 122):
        assert th.resistant_origin_main_term(i, T, REF).abs_error_bound <= th.DEFAULT_TOL, i
        tv = th.resistant_origin_main_term(i, T, REF, tol=1e-12)
        assert tv.abs_error_bound <= max(1e-12, 1e-8 * abs(tv.value)), i


def test_resistant_origin_main_term_sums_no_shape_series(monkeypatch):
    # the swapped integral has a closed-form integrand: no quadrature node
    # evaluates h_i
    calls = []
    shape = th._shape

    def counting_shape(*args):
        calls.append(args)
        return shape(*args)

    monkeypatch.setattr(th, "_shape", counting_shape)
    for params, t in ((REF, T), (NEAR_CRITICAL, 400.0)):
        assert th.resistant_origin_main_term(7, t, params).value > 0
    assert calls == []


def test_resistant_origin_main_term_converges_to_asymptote():
    lim = th.shape_integral(1, RHO).value * 2 * 1.2 * 1.0 * 2.0 / 1.5
    gaps = []
    for n in (10**3, 10**5, 10**7):
        p = ModelParams(
            b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=n
        )
        val = th.resistant_origin_main_term(1, T, p).value
        ratio = val / (n ** (1 + 0.7 * T - 0.9)) / lim
        gaps.append(abs(ratio - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02


def test_exact_mean_exceeds_main_term_by_bounded_remainder():
    # the multi-founder remainder is positive and O(N^(-alpha)) relative
    for i in (1, 5, 20):
        main = th.resistant_origin_main_term(i, T, REF).value
        exact = th.resistant_origin_mean_exact(i, T, REF).value
        assert exact > main
        assert exact - main <= th.resistant_origin_remainder_bound(T, REF)
        assert (exact - main) / main < 0.06


def test_sensitive_origin_bound_dominates():
    bound = th.sensitive_origin_main_bound(REF)
    for i in (1, 2, 5, 20, 100, 400):
        assert 0.0 <= th.sensitive_origin_main_term(i, T, REF).value <= bound


def test_remainder_bounds_positive():
    assert th.resistant_origin_remainder_bound(T, REF) > 0
    assert th.sensitive_origin_remainder_bound(REF) > 0


def test_positivity_of_everything():
    assert th.shape_integral(3, RHO).value >= 0
    assert th.shape_integral_truncated(3, 2.0, RHO).value >= 0
    assert th.clone_size_pmf(3, 0.7, 1.2, 0.5) >= 0
    assert th.window_weight_resistant(1.0, DP).value >= 0
    assert th.window_weight_sensitive(1.0, DP).value >= 0
    assert th.window_weight_resistant_slope(1.0, DP).value >= 0
    assert th.sfs_small_asymptotic(2, T, REF).value >= 0
    assert th.sfs_window_asymptotic(1.0, 2.0, T, REF).value >= 0
    assert th.resistant_origin_main_term(2, T, REF).value >= 0
    assert th.sensitive_origin_main_term(2, T, REF).value >= 0


def test_window_sums_match_per_index_sums():
    # the collapsed-tail window quadratures equal brute-force sums of the
    # per-index integrals over the open window (small scale so the
    # per-index geometric decay makes the brute sum converge quickly)
    small = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=20
    )
    t_n = T * math.log(20)
    scale = math.exp(0.7 * t_n)
    for x in (0.8, 2.0):
        lo = math.floor(x * scale) + 1
        brute_q = sum(
            th.sensitive_origin_main_term(i, T, small, tol=1e-10).value
            for i in range(lo, lo + 700)
        )
        window_q = th.sensitive_origin_window_main(x, T, small).value
        assert window_q == pytest.approx(brute_q, rel=1e-5)
        brute_e = sum(
            th.resistant_origin_mean_exact(i, T, small, tol=1e-10).value
            for i in range(lo, lo + 700)
        )
        window_e = th.resistant_origin_window_exact(x, T, small).value
        assert window_e == pytest.approx(brute_e, rel=1e-5)


# pinned values of the five founder integrals at the reference set
FOUNDER_INTEGRALS = {
    ("P", 1): 772.6884874883111,
    ("P", 5): 62.759915178871786,
    ("Q", 1): 0.3324204307809116,
    ("Q", 7): 0.1551156604979159,
    ("Q", 121): 0.024599970367448248,
    ("exact_mean", 1): 801.9028586891723,
    ("exact_mean", 7): 36.15083645103381,
    ("exact_mean", 121): 0.13824770618923427,
    ("window_sensitive", 0.6): 3.6756998508541687,
    ("window_sensitive", 2.0): 0.8067137888806878,
    ("window_sensitive", 6.0): 0.03162633316747549,
    ("window_exact", 0.6): 9.477134095707001,
    ("window_exact", 2.0): 0.9128346510978265,
    ("window_exact", 6.0): 0.017289712132718748,
}


def test_founder_integrals_pinned():
    fns = {
        "P": th.resistant_origin_main_term,
        "Q": th.sensitive_origin_main_term,
        "exact_mean": th.resistant_origin_mean_exact,
        "window_sensitive": th.sensitive_origin_window_main,
        "window_exact": th.resistant_origin_window_exact,
    }
    for (name, idx), want in FOUNDER_INTEGRALS.items():
        assert fns[name](idx, T, REF).value == pytest.approx(want, rel=1e-13, abs=0.0), (name, idx)


def test_window_sums_decreasing_in_x():
    q_vals = [th.sensitive_origin_window_main(x, T, REF).value for x in (0.6, 1.0, 2.0, 6.0)]
    e_vals = [th.resistant_origin_window_exact(x, T, REF).value for x in (0.6, 1.0, 2.0, 6.0)]
    assert all(a > b > 0 for a, b in zip(q_vals, q_vals[1:]))
    assert all(a > b > 0 for a, b in zip(e_vals, e_vals[1:]))


def test_expected_resistant_population():
    # exact two-type first-moment ODE solution
    assert th.expected_resistant_population(0.0, REF) == 0.0
    v = th.expected_resistant_population(2.0, REF)
    assert v > 0
    zero = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.0, alpha=0.9, n_init=500
    )
    assert th.expected_resistant_population(2.0, zero) == 0.0
