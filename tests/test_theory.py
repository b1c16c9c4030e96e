import dataclasses
import hashlib
import heapq
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from helpers import imported_modules
from rescue_sfs import gw_trees as gw
from rescue_sfs import theory as th
from rescue_sfs.params import ModelParams, ParameterError, derive, derive_from_gamma_n

REF = ModelParams(b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=1.0, alpha=0.9, n_init=500)
DP = derive(REF)
T = 1.25
RHO = 0.5 / 1.2
FIG_DP = derive_from_gamma_n(1.0, 2.0, 1.2, 0.5, 0.2)  # b0=1, d0=2, gamma_n=0.2


def test_theory_imports_only_params():
    # each founder generation law has one owner, gw_trees, whose kernels the
    # CLI calls directly: theory reads the package's params and nothing else
    modules = imported_modules(th)
    assert [m for m in modules if m.split(".")[0] == "rescue_sfs"] == ["rescue_sfs.params"]


def test_theory_value_invariants():
    tv = th.TheoryValue(1.0, 0.0)
    assert float(tv) == 1.0
    with pytest.raises(ValueError):
        th.TheoryValue(1.0, -1e-3)


NAN = math.nan


def _panel(point):
    """The panel integrand of a point function: its values at the rule's
    nodes on [a, b]."""
    return lambda a, b: [point(s) for s in th._nodes(a, b)]


# a quadrature tolerance that is not above 0: 0 and -1 used to fall back to
# the 1e-8 relative floor, NaN to fail as a QuadratureError
TOLS = (NAN, 0.0, -1.0)
# (b0, d0, b1, d1) outside ModelParams' domain
BAD_RATES = {
    (2.0, 1.2, 1.2, 0.5): "b0-above-d0",
    (1.2, 2.0, 0.5, 1.2): "d1-above-b1",
    (0.0, 2.0, 1.2, 0.5): "b0-zero",
    (1.2, 2.0, 1.2, -0.1): "d1-negative",
    (NAN, 2.0, 1.2, 0.5): "b0-nan",
    (1.2, math.inf, 1.2, 0.5): "d0-inf",
}


# an index must be of an integer type: a float such as 2.5 would get a value
# between those at 2 and 3 (the exact mean one with a certified bound), so
# 2.0 is refused too
INDEXED = {
    "I": lambda i: th.shape_integral(i, RHO),
    "clone-sfs": lambda i: th.single_clone_sfs(i, 2.0, 1.2, 0.5, 2.0),
    "kappa": lambda i: th.clone_size_pmf(i, 1.0, 1.2, 0.5),
    "thm1": lambda i: th.sfs_small_asymptotic(i, T, REF),
    "P": lambda i: th.resistant_origin_main_term(i, T, REF),
    "Q": lambda i: th.sensitive_origin_main_term(i, T, REF),
    "exact-mean": lambda i: th.resistant_origin_mean_exact(i, T, REF),
    "gn": lambda g: gw.geometric_pmf(0.5, g),
    "tilde-gn": lambda g: gw.any_mark_pmf(0.3, 0.2, g),
}
NON_INTEGERS = (2.5, 2.0)


# NaN fails every comparison, so a domain check written as x < lo lets it
# through; shape_integral_truncated and single_clone_sfs then looped forever
# (the series' tail test is never true), and the rest returned NaN, the
# quadratures with a NaN bound they called certified.  The law functions
# also check their rates: geometric_pmf(1.5, 2) returned -0.75 and
# single_clone_sfs(omega=nan) failed on its own NaN error bound
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
        lambda: th._integrate(1.0, _panel(lambda s: NAN), 1.0, 1e-10, lambda value, err: 0.0),
        lambda: th._integrate(
            1.0, _panel(lambda s: NAN), 1.0, 1e-10, th._relative_rounding(lambda total: 1.0)
        ),
        lambda: th.TheoryValue(1.0, NAN),
        lambda: gw.geometric_pmf(0.5, NAN),
        lambda: gw.any_mark_pmf(0.3, 0.2, NAN),
        lambda: th.expected_resistant_population(NAN, REF),
        lambda: th.single_clone_sfs_asymptotic(1, NAN, 1.2, 0.5, 2.0),
        lambda: th.resistant_origin_remainder_bound(NAN, REF),
        lambda: gw.geometric_pmf(1.5, 2),
        lambda: gw.geometric_pmf(NAN, 2),
        lambda: gw.any_mark_pmf(0.7, 0.2, 2),
        lambda: gw.any_mark_pmf(0.3, NAN, 2),
        lambda: th.clone_size_pmf(2, 1.0, NAN, 0.5),
        lambda: th.clone_extinction_prob(1.0, NAN, 0.5),
        lambda: th.single_clone_sfs_asymptotic(1, 1.0, 1.2, 0.5, NAN),
        lambda: th.single_clone_sfs(1, 1.0, 1.2, 0.5, NAN),
        lambda: th.single_clone_sfs(1, 1.0, 1.2, 0.5, -1.0),
        lambda: th.single_clone_sfs(1, 1.0, math.inf, 0.0, 2.0),
        lambda: th.single_clone_sfs(1, 1.0, 1.2, 0.5, math.inf),
        lambda: th.resistant_origin_window_exact(0.0, T, REF),
        *(lambda tol=tol: th.window_weight_resistant(1.0, DP, tol) for tol in TOLS),
        *(lambda tol=tol: th.resistant_origin_mean_exact(1, T, REF, tol) for tol in TOLS),
        *(lambda tol=tol: th.sfs_window_asymptotic(0.6, 1.0, T, REF, tol) for tol in TOLS),
        # derive_from_gamma_n checks the rates as ModelParams does: with
        # b0 > d0 it gave x_n = -0.63 and appearance_time_pdf then -15.3
        *(lambda rates=rates: derive_from_gamma_n(*rates, 0.2) for rates in BAD_RATES),
        *(lambda f=f, i=i: f(i) for f in INDEXED.values() for i in NON_INTEGERS),
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
        "gn",
        "tilde-gn",
        "resistant-population",
        "clone-sfs-asymptotic",
        "remainder-bound",
        "gn-x-above-1",
        "gn-x-nan",
        "tilde-gn-p-above-half",
        "tilde-gn-pt-nan",
        "kappa-b1-nan",
        "extinction-b1-nan",
        "clone-sfs-asymptotic-omega-nan",
        "clone-sfs-omega-nan",
        "clone-sfs-omega-negative",
        "clone-sfs-b1-inf",
        "clone-sfs-omega-inf",
        "window-exact-x-0",
        *(f"{name}-tol{tol}" for name in ("K", "exact-mean", "thm2") for tol in TOLS),
        *(f"derive-{name}" for name in BAD_RATES.values()),
        *(f"{name}-i{i}" for name in INDEXED for i in NON_INTEGERS),
    ],
)
def test_nan_inputs_fail_loudly(call):
    with pytest.raises((ValueError, th.QuadratureError)):
        call()


# every law with a time argument: (name of the argument, call at that time,
# whether 0 is refused too).  The rule has one owner, params.check_time, so
# each refusal is a ParameterError that names the argument; the rule was once
# restated in each law, with a bare ValueError
TIMED = {
    "kappa": ("u", lambda u: th.clone_size_pmf(1, u, 1.2, 0.5), False),
    "extinction": ("u", lambda u: th.clone_extinction_prob(u, 1.2, 0.5), False),
    "clone-sfs": ("t", lambda t: th.single_clone_sfs(1, t, 1.2, 0.5, 2.0), False),
    "clone-sfs-asymptotic": ("t", lambda t: th.single_clone_sfs_asymptotic(1, t, 1.2, 0.5, 2.0), False),
    "tn": ("t", lambda t: th.appearance_time_pdf(DP, t), False),
    "tilde-tn": ("t", lambda t: th.appearance_time_pdf_any(DP, t), False),
    "resistant-population": ("t_abs", lambda t: th.expected_resistant_population(t, REF), False),
    "thm1": ("t", lambda t: th.sfs_small_asymptotic(1, t, REF), True),
    "P": ("t", lambda t: th.resistant_origin_main_term(1, t, REF), True),
    "Q": ("t", lambda t: th.sensitive_origin_main_term(1, t, REF), True),
    "exact-mean": ("t", lambda t: th.resistant_origin_mean_exact(1, t, REF), True),
    "remainder-bound": ("t", lambda t: th.resistant_origin_remainder_bound(t, REF), True),
    # thm2 took t and never read it: a NaN t gave a value
    "thm2": ("t", lambda t: th.sfs_window_asymptotic(0.6, 1.0, t, REF), True),
}


@pytest.mark.parametrize(
    "name, t",
    [(name, t) for name, (_, _, strict) in TIMED.items() for t in (-1.0, NAN) + ((0.0,) if strict else ())],
)
def test_time_arguments_refused_by_their_owner(name, t):
    arg, call, strict = TIMED[name]
    with pytest.raises(ParameterError, match=f"requires {arg} {'>' if strict else '>='} 0, got {t}"):
        call(t)


ZERO_OMEGA = dataclasses.replace(REF, omega=0.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: th.single_clone_sfs(2.5, 1.0, 1.2, 0.5, 0.0), ParameterError, "requires an integer i, got 2.5"),
        (lambda: th.sfs_small_asymptotic(0, T, ZERO_OMEGA), ParameterError, "requires i >= 1, got 0"),
        (lambda: th.resistant_origin_mean_exact(1, T, ZERO_OMEGA, tol=-1), ValueError, "requires tol > 0, got -1"),
        (lambda: th.resistant_origin_main_term(1, T, ZERO_OMEGA, tol=NAN), ValueError, "requires tol > 0, got nan"),
        (lambda: th.sfs_window_asymptotic(0.6, 1.0, T, ZERO_OMEGA, tol=-1), ValueError, "requires tol > 0, got "),
    ],
    ids=["clone-sfs-i", "thm1-i", "exact-mean-tol", "P-tol", "thm2-tol"],
)
def test_zero_omega_checks_every_argument_first(call, error, message):
    # at omega = 0 these laws once returned 0 before checking the index or
    # the tol; the zero result now comes after every check
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: th.sfs_window_asymptotic(2.0, 1.0, T, REF),
        lambda: th.sfs_window_asymptotic(NAN, 1.0, T, REF),
        lambda: th.window_weight_resistant(-1.0, DP),
        lambda: th.window_weight_sensitive(0.0, DP),
        lambda: th.resistant_origin_window_exact(0.0, T, REF),
        lambda: th.sensitive_origin_window_main(NAN, T, REF),
    ],
    ids=["thm2-reversed", "thm2-nan", "K", "L", "window-exact", "window-sensitive"],
)
def test_window_edges_refused_by_their_owner(call):
    with pytest.raises(ParameterError, match="requires 0 < x1 < x2, got x1="):
        call()


@pytest.mark.parametrize("name", INDEXED)
def test_numpy_integer_index_same_bits(name):
    want = INDEXED[name](3)
    assert INDEXED[name](np.int64(3)) == want


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_gauss_kronrod_rule_table():
    # K61 integrates x^k over [-1, 1] exactly up to degree 3 * 30 + 1 = 91,
    # its 30-point Gauss part up to degree 59
    x, wk, wg = th._GK_X, th._GK_WK, th._GK_WG
    xg = x[1::2]
    assert len(x) == len(wk) == 61 and len(xg) == len(wg) == 30
    for k in range(92):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * v**k for w, v in zip(wk, x)) - exact) <= 1e-15, k
        if k <= 59:
            assert abs(math.fsum(w * v**k for w, v in zip(wg, xg)) - exact) <= 1e-15, k
    # numpy's Gauss weights are off by up to 2.4e-15, the table's are the
    # nearest doubles, so only the nodes are compared
    nodes, _ = np.polynomial.legendre.leggauss(30)
    assert np.max(np.abs(np.array(xg) - nodes)) <= 1e-15
    assert all(w > 0 for w in wk + wg)
    assert math.fsum(wk) == pytest.approx(2.0, abs=1e-15)
    assert math.fsum(wg) == pytest.approx(2.0, abs=1e-15)


def test_gauss_kronrod_edge_cases():
    calls = []
    f = _panel(lambda s: calls.append(s) or 1.0)
    assert th._gauss_kronrod(f, 0.5, 0.5, 1e-10, 1e-11) == (0.0, 0.0)
    assert calls == []
    # a NaN integrand stops after the first panel
    value, err = th._gauss_kronrod(_panel(lambda s: calls.append(s) or NAN), 0.0, 1.0, 1e-10, 1e-11)
    assert len(calls) == 61 and math.isnan(value) and math.isnan(err)
    # a kink needs many panels; the estimate still bounds the error
    value, err = th._gauss_kronrod(_panel(lambda s: abs(s - 0.3)), 0.0, 1.0, 1e-12, 1e-12)
    assert abs(value - 0.29) <= err <= 1e-12


def _heap_gauss_kronrod(f, a, b, epsabs, epsrel):
    """_gauss_kronrod without its first-panel return: every integral goes
    through the heap and the closing fsum, one panel or many."""
    if a == b:
        return 0.0, 0.0
    value, err = th._gk61(f, a, b)
    panels = [(-err, a, b, value)]
    while err > max(epsabs, epsrel * abs(value)) and len(panels) < th._GK_LIMIT:
        neg_e, lo, hi, v = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        v1, e1 = th._gk61(f, lo, mid)
        v2, e2 = th._gk61(f, mid, hi)
        heapq.heappush(panels, (-e1, lo, mid, v1))
        heapq.heappush(panels, (-e2, mid, hi, v2))
        value += v1 + v2 - v
        err += e1 + e2 + neg_e
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


@pytest.mark.parametrize(
    "point, a, b",
    [
        (math.exp, 0.0, 1.0),  # converges on the first panel
        (lambda s: -math.sin(s), 0.0, 2.0),
        (lambda s: abs(s - 0.3), 0.0, 1.0),  # a kink: many panels
        (lambda s: -0.0, 1.0, 0.0),  # value -0.0 on a reversed panel
        (lambda s: -1e-300, 0.0, 1e-30),  # value -0.0 by underflow
        (lambda s: NAN, 0.0, 1.0),
    ],
    ids=["exp", "sin", "kink", "minus-zero-reversed", "minus-zero-underflow", "nan"],
)
def test_gauss_kronrod_first_panel_return(point, a, b):
    # a first panel that meets tol, or whose estimate is NaN, returns what
    # the heap path returned, bit for bit: the fsum over one panel turns a
    # value of -0.0 into 0.0
    f = _panel(point)
    got = th._gauss_kronrod(f, a, b, 1e-12, 1e-12)
    assert repr(got) == repr(_heap_gauss_kronrod(f, a, b, 1e-12, 1e-12))
    if point(0.5) == 0.0:
        assert repr(got) == repr((0.0, 0.0))
    if math.isnan(point(0.5)):
        assert math.isnan(got[0]) and math.isnan(got[1])


def test_quad_semi_infinite_exponential():
    # Int_0^inf e^-s = 1, truncated at 25 with the exact tail as extra
    tv = th._integrate(
        1.0, _panel(lambda s: math.exp(-s)), 25.0, 1e-10, lambda value, err: math.exp(-25.0)
    )
    assert tv.value == pytest.approx(1.0, abs=1e-10)


def test_quad_semi_infinite_closed_form():
    # (1 + 2*1.2 s) e^{-0.8 s} integrates to 1/0.8 + 2.4/0.64 = 5
    tail = math.exp(-0.8 * 50.0) * ((1 + 2.4 * 50.0) / 0.8 + 2.4 / 0.64)
    tv = th._integrate(
        1.0, _panel(lambda s: (1 + 2.4 * s) * math.exp(-0.8 * s)), 50.0, 1e-9, lambda value, err: tail
    )
    assert tv.value == pytest.approx(5.0, abs=1e-9)


def test_quad_semi_infinite_reports_unreachable_tolerance():
    # the tail past s_max exceeds the requested tolerance
    with pytest.raises(th.QuadratureError, match="achieved"):
        th._integrate(
            1.0, _panel(lambda s: math.exp(-s)), 5.0, 1e-12, lambda value, err: math.exp(-5.0)
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
        (th.shape_integral_truncated, (1, 0.5, RHO), "x >= 1"),
    ],
)
def test_shape_integral_rejects_bad_arguments(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)


def _shape_exact(i, x, rho):
    """h_i(x) to 50 digits: with Y = (x-1)/(x-rho) and
    M_i = Int_0^Y y^(i-1)/(1-rho y) dy = Y^i 2F1(1, i; i+1; rho Y)/i,
    h_i = (Y^i/i - (1-rho) M_i)/rho.  The difference loses about -log10(rho)
    digits to cancellation, so it is taken with that many digits more."""
    with mpmath.workdps(50 + (math.ceil(-math.log10(rho)) if rho > 0 else 0)):
        rho = mpmath.mpf(rho)
        y = mpmath.mpf(1) if x == math.inf else (mpmath.mpf(x) - 1) / (mpmath.mpf(x) - rho)
        if rho == 0:
            return y**i / i - y ** (i + 1) / (i + 1)
        m = y**i * mpmath.hyp2f1(1, i, i + 1, rho * y) / i
        return (y**i / i - (1 - rho) * m) / rho


# rho = 1e-300 to 1e-3 once failed: the series reported its tail alone as
# its bound, and the tail was far below the rounding of the terms it summed.
# At x = 1 + 1e-7, Y^121 is far below the smallest double: a value that
# underflows to 0 once had the bound 0
@pytest.mark.parametrize(
    "rho", [0.0, 1e-300, 1e-30, 1e-10, 1e-6, 1e-3, 0.417, 0.9, 0.99, 0.9999, 0.99999]
)
def test_shape_integral_bounds_hold(rho):
    for i in (1, 2, 5, 40, 121):
        for x in (1.0000001, 1.5, 10.0, 1e3, math.inf):
            if x == math.inf:
                tv = th.shape_integral(i, rho)
                assert th.shape_integral_truncated(i, x, rho) == tv
            else:
                tv = th.shape_integral_truncated(i, x, rho)
            with mpmath.workdps(50):
                err = abs(mpmath.mpf(tv.value) - _shape_exact(i, x, rho))
            assert err <= tv.abs_error_bound <= 1e-12, (i, x, float(err), tv.abs_error_bound)


@pytest.mark.parametrize("d1", [0.0, 1.2e-6], ids=["d1=0", "d1/b1=1e-6"])
def test_scaled_shape_bounds_hold(d1):
    # thm1 and clone-sfs multiply I(i) or h_i(e^(lambda1 t)) by a scale whose
    # rounding no bound held: thm1 failed at every one of these points at
    # d1 = 0, by up to 19.7 times its bound, and at some at d1/b1 = 1e-6.
    # The 50-digit references take the rates, lambda1 and rho as given.
    params = dataclasses.replace(REF, d1=d1)
    dp = derive(params)
    mp = mpmath.mpf
    for t in (1.0, 1.25, 2.0):
        with mpmath.workdps(50):
            scale = (
                2 * mp(params.b0) * mp(params.gamma) * mp(params.omega)
                / (mp(dp.lambda0) + mp(dp.lambda1))
                * mp(params.n_init) ** (mp(dp.lambda1) * t + 1 - mp(params.alpha))
            )
            growth = mpmath.exp(mp(dp.lambda1) * t)
        for i in range(1, 121, 7):
            thm1 = th.sfs_small_asymptotic(i, t, params)
            clone = th.single_clone_sfs(i, t, params.b1, params.d1, params.omega)
            with mpmath.workdps(50):
                cases = {
                    "thm1": (thm1, scale * _shape_exact(i, math.inf, dp.rho)),
                    "clone-sfs": (clone, params.omega * growth * _shape_exact(i, growth, dp.rho)),
                }
                for name, (tv, want) in cases.items():
                    err = abs(mp(tv.value) - want)
                    assert err <= tv.abs_error_bound, (name, t, i, float(err), tv.abs_error_bound)


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


@pytest.mark.parametrize(
    "law",
    [
        lambda b1, d1: th.clone_size_pmf(2, 1.0, b1, d1),
        lambda b1, d1: th.single_clone_sfs(2, 1.0, b1, d1, 2.0),
    ],
    ids=["kappa", "clone-sfs"],
)
@pytest.mark.parametrize("d1", [0.5, 0.6])
def test_clone_laws_check_their_rates_through_params(law, d1):
    # the clone laws share ModelParams' rule and its message
    with pytest.raises(ParameterError, match=r"requires finite b1 > d1 \(resistant cells supercritical\)"):
        law(0.5, d1)


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
    # the founder laws at DerivedParams' x_n and p_tilde_n equal the tree
    # laws at GwLaw's x and p_tilde(1 - beta)
    law = gw.GwLaw(p=FIG_DP.p_n, beta=FIG_DP.beta_n)
    pt = gw.p_tilde(1.0 - law.beta, law.p)
    for g in range(1, 15):
        assert gw.geometric_pmf(FIG_DP.x_n, g) == pytest.approx(
            gw.geometric_pmf(law.x, g), rel=1e-12
        )
        assert gw.any_mark_pmf(FIG_DP.p_n, FIG_DP.p_tilde_n, g) == pytest.approx(
            gw.any_mark_pmf(law.p, pt, g), rel=1e-9
        )
    assert law.x == pytest.approx(FIG_DP.x_n, rel=1e-12)


def test_appearance_time_pdf():
    rate = FIG_DP.delta0 * FIG_DP.x_n
    assert 1.0 / rate == pytest.approx(0.507671, abs=5e-6)  # mean of the law
    assert th.appearance_time_pdf(FIG_DP, 0.0) == pytest.approx(rate, rel=1e-13)
    val = quad(lambda t: th.appearance_time_pdf(FIG_DP, t), 0, 50)[0]
    assert val == pytest.approx(1.0, abs=1e-9)


def test_any_founder_laws_normalize():
    total = sum(gw.any_mark_pmf(FIG_DP.p_n, FIG_DP.p_tilde_n, g) for g in range(1, 501))
    assert total == pytest.approx(1.0, abs=1e-8)
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
        assert gw.any_mark_pmf(dp.p_n, dp.p_tilde_n, g) == pytest.approx(float(want), rel=1e-12)


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
    # no mutations, no windowed ones: 0 exactly, no quadrature run
    zero = dataclasses.replace(REF, omega=0.0)
    assert th.sfs_window_asymptotic(0.6, 1.0, T, zero) == th.TheoryValue(0.0, 0.0)


# ---------------------------------------------------------------------------
# finite-N integrals
# ---------------------------------------------------------------------------


def test_resistant_origin_main_term_zero_cases():
    zero = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=0.0, gamma=1.0, alpha=0.9, n_init=500
    )
    assert th.resistant_origin_main_term(1, T, zero).value == 0.0
    assert th.sensitive_origin_main_term(1, T, zero).value == 0.0


@pytest.mark.parametrize(
    "name, arg",
    [("P", 3), ("Q", 3), ("exact_mean", 3), ("window_sensitive", 0.6), ("window_exact", 0.6)],
)
def test_founder_integrals_vanish_at_n_1(name, arg):
    # t_N = t ln N = 0: an empty range, 0 exactly (Q and the sensitive
    # window count once divided by its zero weight bound)
    one = dataclasses.replace(REF, gamma=0.5, n_init=1)
    assert FOUNDER_FNS[name](arg, 1.25, one) == th.TheoryValue(0.0, 0.0)


NEAR_CRITICAL = dataclasses.replace(REF, d1=0.999 * REF.b1)


@pytest.mark.parametrize(
    "params, t, i",
    [pytest.param(REF, T, i, id=str(i)) for i in (1, 2, 20, 121)]
    + [
        pytest.param(NEAR_CRITICAL, t, i, id=f"near-critical-t{t:g}-{i}")
        for t in (T, 400.0)
        for i in (1, 2, 20, 121)
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
    # the policy _integrate enforces: the bound is within tol, or within
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


FOUNDER_FNS = {
    "P": th.resistant_origin_main_term,
    "Q": th.sensitive_origin_main_term,
    "exact_mean": th.resistant_origin_mean_exact,
    "window_sensitive": th.sensitive_origin_window_main,
    "window_exact": th.resistant_origin_window_exact,
}


def test_founder_integrals_pinned():
    for (name, idx), want in FOUNDER_INTEGRALS.items():
        value = FOUNDER_FNS[name](idx, T, REF).value
        assert value == pytest.approx(want, rel=1e-13, abs=0.0), (name, idx)


I_GRID = range(1, 122)
X_GRID = [round(0.6 + 0.1 * k, 1) for k in range(55)]  # 0.6 .. 6.0
# sha256 over each founder-integral curve at T, i = 1..121 or x in X_GRID:
# the repr of every value, and of every (value, bound) pair for P, Q and
# the exact mean, pinned while each quadrature node still computed every
# factor of its integrand itself
CURVE_DIGESTS = {
    ("reference", "P"): "9d7dba3417f270390a882cd23d7b13c7b84e9824f03de7b0d00398565da7534c",
    ("reference", "Q"): "291e278ffabc4abc78d79515d3b8f015daa3c0d0b9c532868f22eedc40511aeb",
    ("reference", "exact_mean"): "f5d1f0d12d2652dea803089ddc1234f7dc81f2dcd06a3d6533b3f85e0e062256",
    ("reference", "window_sensitive"): "f8cd1f2820231e63a742addd665e3a60e1f4a0bf179b37f2e6052f7ef0a38a30",
    ("reference", "window_exact"): "d69b0773e899587cbaab910381b4aa0cacfe35eff19126e1f6e7318a2b5dabcd",
    ("near-critical", "P"): "8443270e19220054fff7644ff9cb490f7688cf8e8c6f3feb9788d0be131a5fcd",
    ("near-critical", "Q"): "ae1fabda17206d86cac7b4c57278a694cdcfdd3ffba3eb877d27eb9b814e1ba4",
    ("near-critical", "exact_mean"): "d99f956639fd3e271ff3bf86e5be0b1ea3bfc57bb386bb93ed2e5f6b1382264f",
    ("near-critical", "window_sensitive"): "4c4fc75901fda0a1b22f07d4c7ba4901ed8f82bd4592f98cbdb45e91307833f9",
    ("near-critical", "window_exact"): "1d754aa325ff5ebaf006d8127404be20d882b2553f0c508da628d6864715e7a8",
}


def test_founder_curves_pinned():
    digests = {}
    for pid, params in (("reference", REF), ("near-critical", NEAR_CRITICAL)):
        for name, fn in FOUNDER_FNS.items():
            window = name.startswith("window")
            h = hashlib.sha256()
            for arg in X_GRID if window else I_GRID:
                tv = fn(arg, T, params)
                h.update(repr(tv.value if window else (tv.value, tv.abs_error_bound)).encode())
            digests[pid, name] = h.hexdigest()
    assert digests == CURVE_DIGESTS


# sha256 over the repr of every (value, bound) pair of the other curves the
# benchmark's theory_curves pass computes, at T, i = 1..121 or x in X_GRID:
# the window weights K, L and Kslope, thm1, I at each set's rho and at
# d1/b1 = 0.99, and both window counts with their bounds, pinned before
# derive kept its result and before a converged first panel skipped the heap
VALUE_BOUND_DIGESTS = {
    ("reference", "K"): "0289a3f64620a7c8dfb1f3c2337951a6b30a370f23050d2669b151d60c86d01d",
    ("reference", "L"): "a2ee322de5987bd17d846283b020bc4a0ff786f8757589acb4369da578889dea",
    ("reference", "Kslope"): "7093d8b6edad8885d4624f9efa2a085507f449b888b0e71dbbef5cc291b37700",
    ("reference", "thm1"): "5f084a6cc966bb204cb43cc705573a7fe02723078d00a081748fc945d291e1f6",
    ("reference", "I"): "683cf328a88865063bd9d19b75f815eada2cf4d5b1521ecc39a863bea8b45d04",
    ("reference", "window_exact"): "a6df5873ed342b76f1623d6d62b9ed5b86f51ad6935ccdbdd647a4f8bce49854",
    ("reference", "window_sensitive"): "bc428b7e84bd93668e34610cd400942134fa4b0eb104d34a435c13fe93861a68",
    ("near-critical", "K"): "c51a61572f72e561a2175fe24cc6bce4554f22927e712427987d637c4dcc7f6f",
    ("near-critical", "L"): "e8eb0e0c99cfd934e44d0bb8c1d3201f508243a7abd21019db715aa40ccb8cf8",
    ("near-critical", "Kslope"): "c43206bedeca48b4a8f0147a34e15184384509cbb90756b3ecf3bae249368c28",
    ("near-critical", "thm1"): "a6657cadea0ef3eb114efecb24f754a747b245b897c9b98df1f63128113a143a",
    ("near-critical", "I"): "4911a3eef8a2e3c3545cf95705088921ffab82661a7035b71a4608ae3b38394e",
    ("near-critical", "window_exact"): "3b7ef14041de713a5a862af926b871bd16f41dc134b2de3670cba31af8211322",
    ("near-critical", "window_sensitive"): "a778d97f57588423802897433e6ddda9564e00e6d6c40eb8361ea25aa876fb64",
    ("d1/b1=0.99", "I"): "107cbe48c803acf5fe0b65c4fe9c60ad66af5603509a64dbd7bba433afd3359f",
}


def test_theory_curves_pinned():
    def digest(fn, grid):
        h = hashlib.sha256()
        for arg in grid:
            tv = fn(arg)
            h.update(repr((tv.value, tv.abs_error_bound)).encode())
        return h.hexdigest()

    digests = {}
    for pid, params in (("reference", REF), ("near-critical", NEAR_CRITICAL)):
        dp = derive(params)
        for name, fn in _WEIGHT_FNS.items():
            digests[pid, name] = digest(lambda x: fn(x, dp), X_GRID)
        digests[pid, "thm1"] = digest(lambda i: th.sfs_small_asymptotic(i, T, params), I_GRID)
        digests[pid, "I"] = digest(lambda i: th.shape_integral(i, dp.rho), I_GRID)
        for name in ("window_exact", "window_sensitive"):
            digests[pid, name] = digest(lambda x: FOUNDER_FNS[name](x, T, params), X_GRID)
    rho = derive(dataclasses.replace(REF, d1=0.99 * REF.b1)).rho
    digests["d1/b1=0.99", "I"] = digest(lambda i: th.shape_integral(i, rho), I_GRID)
    assert digests == VALUE_BOUND_DIGESTS


def test_values_do_not_depend_on_table_state():
    # the node tables are bounded caches, and what they hold when a value is
    # asked for changes nothing: forward, then after clearing every table,
    # in reverse, then interleaved over both parameter sets
    tables = [f for f in vars(th).values() if hasattr(f, "cache_clear")]
    assert len(tables) >= 4
    assert all(isinstance(f.cache_info().maxsize, int) for f in tables)
    calls = [
        (params, name, arg)
        for params in (REF, NEAR_CRITICAL)
        for name in (*FOUNDER_FNS, *_WEIGHT_FNS)
        for arg in ((1, 2, 7, 60, 121) if name in ("P", "Q", "exact_mean") else (0.6, 1.3, 6.0))
    ]

    def value(params, name, arg):
        if name in _WEIGHT_FNS:
            return _WEIGHT_FNS[name](arg, derive(params))
        return FOUNDER_FNS[name](arg, T, params)

    def values(order):
        return {c: repr(value(*c)) for c in order}

    forward = values(calls)
    for f in tables:
        f.cache_clear()
    assert values(calls[::-1]) == forward
    assert values(calls[::2] + calls[1::2]) == forward


def _weight_exact(name, x, dp):
    """K, L or Kslope to 30 digits on the float rates, integrated over
    w = e^(lambda1 s) in [1, inf) (the code integrates over s)."""
    with mpmath.workdps(30):
        b0, b1, lam0, lam1 = (mpmath.mpf(v) for v in (dp.b0, dp.b1, dp.lambda0, dp.lambda1))
        a = mpmath.mpf(x) * lam1 / b1
        r = (lam0 + lam1) / lam1
        if name == "K":
            f = lambda w: 2 / (lam0 + lam1) * (1 - w**-r) * mpmath.exp(-a * w)
        elif name == "Kslope":
            f = lambda w: 2 * lam1 / (b1 * (lam0 + lam1)) * (1 - w**-r) * w * mpmath.exp(-a * w)
        else:
            f = lambda w: (1 + 2 * b0 * mpmath.log(w) / lam1) * w**-r * mpmath.exp(-a * w) / b1
        # breakpoints where w^-r and e^(-a w) turn
        pts = [1, 1 + 1 / r, 2] + [2.0**k / a for k in range(-4, 7) if 2.0**k / a > 2]
        return mpmath.quad(lambda w: f(w) / lam1, pts + [mpmath.inf])


def _founder_integral_exact(name, arg, params, t):
    """exact_mean, Q and the two window counts to 30 digits, from their
    s-integrals over the clone-size law on the float rates and rho, with
    t_N = t ln N exact."""
    dp = derive(params)
    with mpmath.workdps(30):
        b0, b1, lam0, lam1, d0, gn, xn, rho = (
            mpmath.mpf(v)
            for v in (dp.b0, dp.b1, dp.lambda0, dp.lambda1, dp.delta0, dp.gamma_n, dp.x_n, dp.rho)
        )
        n, omega = mpmath.mpf(params.n_init), mpmath.mpf(params.omega)
        t_n = mpmath.mpf(t) * mpmath.log(n)
        if name in ("exact_mean", "Q"):
            size = lambda y: (1 - rho) ** 2 * y * (1 - y) ** (arg - 1) / (1 - rho * y) ** (arg + 1)
        else:
            m = math.floor(arg * math.exp(dp.lambda1 * t * math.log(params.n_init)))
            size = lambda y: (1 - rho) * ((1 - y) / (1 - rho * y)) ** m / (1 - rho * y)
        if name in ("exact_mean", "window_exact"):
            lt0 = lam0 + 2 * gn * b0
            pref = omega * b1 * 2 * gn * b0 * n / (lam1 + lt0)
            g = lambda s: pref * (mpmath.exp(lam1 * s) - mpmath.exp(-lt0 * s))
        else:
            pref = n * gn * (1 - xn) * d0 * omega / (2 * (1 - gn))
            g = lambda s: pref * (1 + s * d0 * (1 - xn)) * mpmath.exp(-s * d0 * xn)
        f = lambda s: g(s) * size(mpmath.exp(-lam1 * (t_n - s)))
        return mpmath.quad(f, mpmath.linspace(0, t_n, 9))


_WEIGHT_FNS = {
    "K": th.window_weight_resistant,
    "L": th.window_weight_sensitive,
    "Kslope": th.window_weight_resistant_slope,
}


# window counts at large window edges m = floor(x e^(lambda1 t_N)): m =
# 1.9e10 at x = 0.6 with N = 1e5, t = 3, and 1.2e9 at x = 0.6 with d1 = 0.05,
# N = 500, t = 3.  Their rounding bound once grew as m (11 + 4 z_max) u, to
# 3.4e-4, 2.2e-4 and 7.9e-6, and they raised QuadratureError
LARGE_WINDOWS = {
    "n1e5-t3": (dataclasses.replace(REF, n_init=100_000), 3.0),
    "d1-0.05-t3": (dataclasses.replace(REF, d1=0.05), 3.0),
}
BOUND_CASES = [
    pytest.param(params, t, name, id=f"{name}-{pid}")
    for pid, params, t in (("reference", REF, T), ("near-critical", NEAR_CRITICAL, T))
    for name in ["exact_mean", "Q", "window_exact", "window_sensitive", *_WEIGHT_FNS]
] + [
    pytest.param(params, t, name, id=f"{name}-{pid}")
    for pid, (params, t) in LARGE_WINDOWS.items()
    for name in ("window_exact", "window_sensitive")
]


@pytest.mark.parametrize("params, t, name", BOUND_CASES)
def test_quadrature_values_hold_their_bounds(params, t, name):
    # every quadrature-backed value (P has its own test above) against a
    # 30-digit reference, the rates and rho taken as given, at the default
    # tol.  Near critical, K and Kslope are about 1e6, where 1e-10 is out of
    # reach of a double and the bound is held to 1e-8 of the value instead
    dp = derive(params)
    if name in FOUNDER_FNS:
        args = (1, 2, 20, 121) if name in ("exact_mean", "Q") else (0.6, 1.0, 6.0)
        for arg in args:
            tv = FOUNDER_FNS[name](arg, t, params)
            want = _founder_integral_exact(name, arg, params, t)
            err = abs(mpmath.mpf(tv.value) - want)
            assert err <= tv.abs_error_bound, (arg, float(err), tv.abs_error_bound)
        return
    for x in (0.6, 1.0, 6.0):
        tv = _WEIGHT_FNS[name](x, dp)
        err = abs(mpmath.mpf(tv.value) - _weight_exact(name, x, dp))
        assert err <= tv.abs_error_bound, (x, float(err), tv.abs_error_bound)


def test_window_counts_vanish_at_infinite_edge():
    # the window (inf, inf) is empty, as sfs_window_asymptotic has it
    for fn in (th.resistant_origin_window_exact, th.sensitive_origin_window_main):
        assert fn(math.inf, T, REF) == th.TheoryValue(0.0, 0.0)


def test_window_sums_decreasing_in_x():
    q_vals = [th.sensitive_origin_window_main(x, T, REF).value for x in (0.6, 1.0, 2.0, 6.0)]
    e_vals = [th.resistant_origin_window_exact(x, T, REF).value for x in (0.6, 1.0, 2.0, 6.0)]
    assert all(a > b > 0 for a, b in zip(q_vals, q_vals[1:]))
    assert all(a > b > 0 for a, b in zip(e_vals, e_vals[1:]))


def test_expected_resistant_population():
    # exact two-type first-moment ODE solution, 2 gamma_n b0 N (e^(lambda1 t)
    # - e^(-lt0 t)) / (lambda1 + lt0), against 40 digits on the rates as
    # given: evaluated as that difference of exponentials it is off by 5e-5
    # relative at t = 1e-12
    assert th.expected_resistant_population(0.0, REF) == 0.0
    lt0 = DP.lambda0 + 2.0 * DP.gamma_n * DP.b0
    with mpmath.workdps(40):
        lam1, lt0 = mpmath.mpf(DP.lambda1), mpmath.mpf(lt0)
        pref = 2 * mpmath.mpf(DP.gamma_n) * DP.b0 * REF.n_init / (lam1 + lt0)
        for t in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1.25 * math.log(500)):
            want = pref * (mpmath.exp(lam1 * t) - mpmath.exp(-lt0 * t))
            got = th.expected_resistant_population(t, REF)
            assert abs(got - want) <= 8 * th._U * want, t
    zero = ModelParams(
        b0=1.2, d0=2.0, b1=1.2, d1=0.5, omega=2.0, gamma=0.0, alpha=0.9, n_init=500
    )
    assert th.expected_resistant_population(2.0, zero) == 0.0
