"""Closed forms, pmfs/pdfs, and controlled-accuracy integrals for the
expected site frequency spectrum under rescue dynamics.

Index conventions: ``i`` counts resistant carriers of a mutation; ``t`` is
the log-time multiplier (observation at t * ln N); ``x`` parameterizes
windows of carrier counts around x * e^(lambda1 * t_N).

Every numerically evaluated quantity is returned as a TheoryValue carrying
a certified absolute error bound (series tail, rounding bound of a
recurrence, or quadrature estimate plus truncation tail).

Domain checks and quadrature acceptance are written so that NaN fails
them (``not x > 0``, ``not bound <= tol``): NaN fails every comparison, so
``x <= 0`` would let it through to a wrong value or an endless series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from rescue_sfs.gw_trees import any_mark_pmf, geometric_pmf
from rescue_sfs.params import DerivedParams, ModelParams, derive

DEFAULT_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Requested tolerance could not be certified."""


@dataclass(frozen=True)
class TheoryValue:
    """A numeric result with a certified absolute error bound."""

    value: float
    abs_error_bound: float = 0.0

    def __post_init__(self) -> None:
        if not self.abs_error_bound >= 0:
            raise ValueError("abs_error_bound must be >= 0")

    def __float__(self) -> float:
        return self.value


class PairedValue(NamedTuple):
    """An exact finite-N value paired with its large-N asymptote."""

    exact: float
    asymptotic: float


# ---------------------------------------------------------------------------
# Quadrature plumbing
# ---------------------------------------------------------------------------


def quad_semi_infinite(
    integrand: Callable[[float], float],
    tol: float,
    tail_bound: Callable[[float], float],
    s_max: float,
) -> TheoryValue:
    """Integrate a nonnegative-decaying integrand on (0, inf).

    ``tail_bound(s)`` must bound the integral of |integrand| over (s, inf);
    adaptive Gauss-Kronrod handles [0, s_max] to tol/2, and the certified
    bound is its error estimate plus ``tail_bound(s_max)``.
    """
    from scipy.integrate import quad

    tail = tail_bound(s_max)
    value, err = quad(integrand, 0.0, s_max, epsabs=tol / 2, epsrel=1e-11, limit=400)
    bound = err + tail
    if not bound <= tol:
        raise QuadratureError(f"requested tol {tol:g}, achieved bound {bound:g}")
    return TheoryValue(value, bound)


def _quad_finite(
    scale: float,
    integrand: Callable[[float], float],
    hi: float,
    tol: float,
    rounding: Callable[[float, float], float] | None = None,
    epsrel: float = 1e-11,
) -> TheoryValue:
    """scale * Int_0^hi integrand.  The integral's bound is quad's error
    estimate, plus ``rounding(value, err)`` for the integrand's own error
    when given; it is asked to meet tol / max(scale, 1), and this raises
    where it exceeds both that and 1e-8 |value|."""
    from scipy.integrate import quad

    tol = tol / max(scale, 1.0)
    value, err = quad(integrand, 0.0, hi, epsabs=tol, epsrel=epsrel, limit=400)
    if rounding is not None:
        err += rounding(value, err)
    if not err <= max(tol, abs(value) * 1e-8):
        raise QuadratureError(f"requested tol {tol:g}, achieved bound {err:g}")
    return TheoryValue(scale * value, scale * err)


# ---------------------------------------------------------------------------
# Shape integrals of the single-clone SFS
# ---------------------------------------------------------------------------


SHAPE_TOL = 1e-12
_U = 2.0**-53  # unit roundoff of a double
_SERIES_TERMS = 64  # the series is kept wherever it converges in max(i, 64) terms


def _shape(i: int, x: float, rho: float, tol: float) -> tuple[float, float]:
    """(value, absolute error bound) of h_i(x) = Int_0^Y (1-y) y^(i-1) / (1-rho y) dy
    with Y = (x-1)/(x-rho), Y = 1 at x = inf, for shape_integral and
    shape_integral_truncated (resistant_origin_main_term integrates h_i in
    closed form instead).  Arguments are not checked.

    Where the series in rho converges within max(i, _SERIES_TERMS) terms it
    is summed term by term with its geometric tail bound.  Past that (rho Y
    near 1, O(1/(1 - rho Y)) terms) the value comes in i - 1 steps from
    M_a = Int_0^Y y^(a-1) / (1-rho y) dy = sum_k rho^k Y^(a+k) / (a+k):
    M_1 = -log1p(-rho Y)/rho, M_(a+1) = (M_a - Y^a/a)/rho and
    h_i = (Y^i/i - (1-rho) M_i)/rho, wherever its rounding bound certifies tol.
    """
    complete = x == math.inf
    y = 1.0 if complete else (x - 1.0) / (x - rho)
    if y <= 0.0:
        return 0.0, 0.0
    y_i = y**i
    if rho == 0.0:
        # one closed-form term, so the bound is its rounding (with that of Y)
        if complete:
            value = 1.0 / (i * (i + 1))
            return value, _U * value
        return y_i * (1.0 / i - y / (i + 1)), 10.0 * _U * y_i
    r = rho * y
    n = max(i, _SERIES_TERMS)
    if complete:
        long_series = rho**n / ((i + n) * (i + n + 1) * (1.0 - rho)) >= tol
    else:
        long_series = y_i * r**n / ((i + n) * (1.0 - r)) >= tol
    if long_series:
        m1 = -math.log1p(-r) / rho
        # Rounding bound, u = 2^-53, libm log1p within 1 ulp.  The error e_1
        # of M_1 is at most u (3.01 M_1 + 2.03 r/((1-r) rho)), the second
        # part from rounding r = rho Y.  A step gives |e_(a+1)| <= g (|e_a| +
        # 1.01u Y^a) + 2.02u M_(a+1) with g = (1 + 2.02u)/rho, so with Y <= 1
        # and M_a <= M_1, |e_i| <= g^(i-1) (|e_1| + (i-1)(1.01u + 2.02u M_1))
        # <= err_m.  The last line adds 1.02u Y^i for Y^i/i, (1-rho)(1.01 err_m
        # + 2.02u M_1) for (1-rho) M_i and 2.02u |h_i| <= 2.02u Y^i for the
        # subtraction and division, all over rho; rounding Y moves h_i by at
        # most 3.2u Y^i, since |dh_i/dY| <= Y^(i-1).
        err_m = rho ** (1 - i) * _U * ((3 * i + 3) * m1 + 2 * i + 3.0 * r / ((1.0 - r) * rho))
        bound = 1.1 * (6.1 * _U * y_i + (1.0 - rho) * (1.1 * err_m + 2.1 * _U * m1)) / rho
        if bound <= tol:
            m = m1
            y_a = 1.0
            for a in range(1, i):
                y_a *= y
                m = (m - y_a / a) / rho
            return (y_a * y / i - (1.0 - rho) * m) / rho, bound
    total = 0.0
    k = 0
    if complete:
        # term_k = rho^k / ((i+k)(i+k+1))
        rk = 1.0
        while True:
            total += rk / ((i + k) * (i + k + 1))
            rk *= rho
            k += 1
            tail = rk / ((i + k) * (i + k + 1) * (1.0 - rho))
            if tail < tol:
                return total, tail
    # term_k = rho^k [ Y^(i+k)/(i+k) - Y^(i+k+1)/(i+k+1) ]
    rk = y_i
    while True:
        total += rk * (1.0 / (i + k) - y / (i + k + 1))
        rk *= r
        k += 1
        tail = rk / ((i + k) * (1.0 - r))
        if tail < tol:
            return total, tail


def _check_shape_args(i: int, rho: float, tol: float) -> None:
    if not i >= 1:
        raise ValueError(f"requires i >= 1, got {i}")
    if not 0 <= rho < 1:
        raise ValueError(f"requires 0 <= rho < 1, got {rho}")
    if not tol > 0:
        raise ValueError(f"requires tol > 0, got {tol}")


def shape_integral(i: int, rho: float, tol: float = SHAPE_TOL) -> TheoryValue:
    """Integral of (1-y) y^(i-1) / (1 - rho y) over [0, 1].

    The limiting per-founder SFS shape factor I(i): the series
    sum_k rho^k / ((i+k)(i+k+1)) with a certified geometric tail bound, or
    near rho = 1 the log1p-seeded recurrence of ``_shape`` with a certified
    rounding bound.
    """
    _check_shape_args(i, rho, tol)
    value, bound = _shape(i, math.inf, rho, tol)
    return TheoryValue(value, bound)


def shape_integral_truncated(i: int, x: float, rho: float, tol: float = SHAPE_TOL) -> TheoryValue:
    """Integral of (1-y) y^(i-1) / (1 - rho y) over [0, (x-1)/(x-rho)].

    Defined for x >= 1 (zero at x = 1); tends to shape_integral(i, rho) as
    x -> inf.  Series in rho with the upper limit's powers, or the
    recurrence of ``_shape`` where rho (x-1)/(x-rho) is near 1.
    """
    _check_shape_args(i, rho, tol)
    if x == math.inf:
        return shape_integral(i, rho, tol)
    if not x >= 1.0:
        raise ValueError(f"requires x >= 1, got {x}")
    value, bound = _shape(i, x, rho, tol)
    return TheoryValue(value, bound)


def _size_pmf(i: int, b1: float, d1: float) -> Callable[[float], float]:
    """y -> P(clone size = i) at scale y = e^(-lambda1 u), y not checked."""
    if not i >= 1:
        raise ValueError(f"requires i >= 1, got {i}")
    rho = d1 / b1
    c = ((b1 - d1) / b1) ** 2
    if i == 1:
        return lambda y: c * y / (1.0 - rho * y) ** 2
    a, b = i - 1, i + 1
    return lambda y: c * y * math.exp(a * math.log1p(-y) - b * math.log1p(-rho * y))


def clone_size_pmf(i: int, u: float, b1: float, d1: float) -> float:
    """Classical linear birth-death size law from one founder (Harris form):
    P(clone of age u has size i) at scale y = e^(-lambda1 u) is

    (lambda1/b1)^2 y (1-y)^(i-1) / (1 - (d1/b1) y)^(i+1).
    """
    if not u >= 0:
        raise ValueError(f"requires u >= 0, got {u}")
    return _size_pmf(i, b1, d1)(math.exp(-(b1 - d1) * u))


def clone_extinction_prob(u: float, b1: float, d1: float) -> float:
    """P(the clone of one founder is extinct by age u)."""
    if not u >= 0:
        raise ValueError(f"requires u >= 0, got {u}")
    lam1 = b1 - d1
    e = math.exp(-lam1 * u)
    return d1 * (1.0 - e) / (b1 - d1 * e)


def single_clone_sfs(
    i: int, t: float, b1: float, d1: float, omega: float, tol: float = SHAPE_TOL
) -> TheoryValue:
    """Expected number of mutations carried by exactly i cells at time t in
    a clone grown from one founder: omega e^(lambda1 t) h_i(e^(lambda1 t))."""
    if not t >= 0:
        raise ValueError(f"requires t >= 0, got {t}")
    if omega == 0.0 or t == 0.0:
        return TheoryValue(0.0, 0.0)
    lam1 = b1 - d1
    growth = math.exp(lam1 * t)
    h = shape_integral_truncated(i, growth, d1 / b1, tol)
    return TheoryValue(omega * growth * h.value, omega * growth * h.abs_error_bound)


def single_clone_sfs_asymptotic(i: int, t: float, b1: float, d1: float, omega: float) -> float:
    """Large-time form omega e^(lambda1 t) I(i)."""
    return omega * math.exp((b1 - d1) * t) * shape_integral(i, d1 / b1).value


# ---------------------------------------------------------------------------
# Founder generation / appearance-time laws
# ---------------------------------------------------------------------------


def generation_pmf(dp: DerivedParams, g: int) -> float:
    """Generation of the founder given exactly one founder: geometric(x_n)."""
    return geometric_pmf(dp.x_n, g)


def appearance_time_pdf(dp: DerivedParams, t: float) -> float:
    """Appearance time of the founder given exactly one founder:
    exponential with rate delta0 * x_n."""
    if not t >= 0:
        raise ValueError(f"requires t >= 0, got {t}")
    rate = dp.delta0 * dp.x_n
    return rate * math.exp(-rate * t)


def generation_pmf_any(dp: DerivedParams, g: int) -> float:
    """Generation of a uniformly chosen founder given at least one founder:
    the closed form in p = p_n and pt = p_tilde_n = (1-x_n)/2."""
    return any_mark_pmf(dp.p_n, dp.p_tilde_n, g)


def appearance_time_pdf_any(dp: DerivedParams, t: float) -> float:
    """Appearance time of a uniformly chosen founder given at least one.

    Gamma mixture of generation_pmf_any: with eps = 2 t delta0 (p - pt),
    E = 1 - e^-eps and phi = (eps - E) / eps^2, it is
    delta0 e^(-t delta0 (1 - 2p)) [(E/eps)(1 - 2pt) - 2(p - pt) phi].
    Both E/eps and phi cancel as eps -> 0, so below eps = 0.1 phi comes
    from its series sum_k (-eps)^k / (k+2)! and E/eps = 1 - eps phi.
    """
    if not t >= 0:
        raise ValueError(f"requires t >= 0, got {t}")
    p, pt, d0 = dp.p_n, dp.p_tilde_n, dp.delta0
    eps = 2.0 * t * d0 * (p - pt)
    if eps < 0.1:
        # Horner form phi = (1 - eps/3 (1 - eps/4 (1 - ...))) / 2 to the
        # eps^9 / 11! term: the first term dropped is below 1e-18 of phi
        nested = 1.0
        for k in range(11, 2, -1):
            nested = 1.0 - eps * nested / k
        phi = nested / 2.0
        e_over_eps = 1.0 - eps * phi
    else:
        e_over_eps = -math.expm1(-eps) / eps
        phi = (1.0 - e_over_eps) / eps
    bracket = e_over_eps * (1.0 - 2.0 * pt) - 2.0 * (p - pt) * phi
    return math.exp(-t * d0 * (1.0 - 2.0 * p)) * d0 * bracket


# ---------------------------------------------------------------------------
# Founder counts
# ---------------------------------------------------------------------------


def prob_one_ancestral(dp: DerivedParams) -> PairedValue:
    """P(exactly one ancestral resistant cell in one root's progeny)."""
    x, gn = dp.x_n, dp.gamma_n
    exact = gn * (1.0 - x) / (x * (1.0 - gn))
    asym = 2.0 * dp.b0 * gn / dp.lambda0
    return PairedValue(exact, asym)


def multi_ancestral_mean(dp: DerivedParams) -> PairedValue:
    """Expected number of ancestral resistant cells in one root's progeny,
    counting only progenies with two or more of them: sum_{k>=2} k P(A_k)."""
    p, x, b, gn = dp.p_n, dp.x_n, dp.beta_n, dp.gamma_n
    exact = b / (1.0 - gn) * ((1.0 - p) / (1.0 - 2.0 * p) - (1.0 - p) / x)
    asym = 2.0 * dp.b0 * dp.delta0**2 / dp.lambda0**3 * gn**2
    return PairedValue(exact, asym)


def ancestral_count_mean(params: ModelParams) -> PairedValue:
    """Expected total number of ancestral resistant cells over the run."""
    gn = params.gamma_n
    lam0 = params.d0 - params.b0
    exact = 2.0 * params.b0 * gn * params.n_init / (lam0 + 2.0 * gn * params.b0)
    asym = 2.0 * params.b0 * params.gamma / lam0 * params.n_init ** (1.0 - params.alpha)
    return PairedValue(exact, asym)


# ---------------------------------------------------------------------------
# Window weight functions (large-family SFS)
# ---------------------------------------------------------------------------


def _double_exp_smax(a: float, lam1: float, exponent_target: float = 45.0) -> float:
    # s beyond which the factor e^(-a e^(lambda1 s)) is below e^-45
    return max(1.0, math.log(exponent_target / a) / lam1)


def window_weight_resistant(x: float, dp: DerivedParams, tol: float = DEFAULT_TOL) -> TheoryValue:
    """Weight of resistant-origin mutations carried by more than
    x e^(lambda1 t_N) cells:

    (2/(lambda0+lambda1)) Int_0^inf (1 - e^(-(lambda0+lambda1)s)) e^(lambda1 s)
    e^(-x (lambda1/b1) e^(lambda1 s)) ds.

    Positive and strictly decreasing in x (sign-normalized magnitude).
    """
    if not x > 0:
        raise ValueError(f"requires x > 0, got {x}")
    lam0, lam1 = dp.lambda0, dp.lambda1
    a = x * lam1 / dp.b1
    pref = 2.0 / (lam0 + lam1)

    def f(s: float) -> float:
        return pref * (1.0 - math.exp(-(lam0 + lam1) * s)) * math.exp(lam1 * s - a * math.exp(lam1 * s))

    def tail(s: float) -> float:
        # integrand <= pref e^(lam1 s) e^(-a e^(lam1 s)); exact tail integral
        return pref * math.exp(-a * math.exp(lam1 * s)) / (a * lam1)

    return quad_semi_infinite(f, tol, tail_bound=tail, s_max=_double_exp_smax(a, lam1))


def window_weight_sensitive(x: float, dp: DerivedParams, tol: float = DEFAULT_TOL) -> TheoryValue:
    """Weight of sensitive-origin (hitch-hiking) mutations carried by more
    than x e^(lambda1 t_N) cells:

    (1/b1) Int_0^inf (1 + 2 b0 s) e^(-lambda0 s) e^(-x (lambda1/b1) e^(lambda1 s)) ds.
    """
    if not x > 0:
        raise ValueError(f"requires x > 0, got {x}")
    b0, b1 = dp.b0, dp.b1
    lam0, lam1 = dp.lambda0, dp.lambda1
    a = x * lam1 / b1

    def f(s: float) -> float:
        return (1.0 + 2.0 * b0 * s) * math.exp(-lam0 * s - a * math.exp(lam1 * s)) / b1

    def tail(s: float) -> float:
        damp = math.exp(-a * math.exp(lam1 * s))
        # Int_s^inf (1+2 b0 u) e^(-lam0 u) du in closed form
        rest = math.exp(-lam0 * s) * ((1.0 + 2.0 * b0 * s) / lam0 + 2.0 * b0 / lam0**2)
        return damp * rest / b1

    return quad_semi_infinite(f, tol, tail_bound=tail, s_max=_double_exp_smax(a, lam1))


def window_weight_resistant_slope(
    x: float, dp: DerivedParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Magnitude of the x-derivative of window_weight_resistant:

    (2 lambda1/(b1 (lambda0+lambda1))) Int_0^inf (1 - e^(-(lambda0+lambda1)s))
    e^(2 lambda1 s) e^(-x (lambda1/b1) e^(lambda1 s)) ds.
    """
    if not x > 0:
        raise ValueError(f"requires x > 0, got {x}")
    lam0, lam1 = dp.lambda0, dp.lambda1
    a = x * lam1 / dp.b1
    pref = 2.0 * lam1 / (dp.b1 * (lam0 + lam1))

    def f(s: float) -> float:
        return pref * (1.0 - math.exp(-(lam0 + lam1) * s)) * math.exp(
            2.0 * lam1 * s - a * math.exp(lam1 * s)
        )

    def tail(s: float) -> float:
        # Int w e^(-a w) dw / lam1 over w >= e^(lam1 s), in closed form
        w = math.exp(lam1 * s)
        return pref * (w / a + 1.0 / a**2) * math.exp(-a * w) / lam1

    return quad_semi_infinite(f, tol, tail_bound=tail, s_max=_double_exp_smax(a, lam1))


# ---------------------------------------------------------------------------
# Asymptotic SFS (large-N equivalents)
# ---------------------------------------------------------------------------


def sfs_small_asymptotic(i: int, t: float, params: ModelParams) -> TheoryValue:
    """Large-N equivalent of E[S_i(t ln N)] for fixed i:

    I(i) * 2 b0 gamma omega / (lambda0 + lambda1) * N^(lambda1 t + 1 - alpha).
    """
    if not t > 0:
        raise ValueError(f"requires t > 0, got {t}")
    if params.omega == 0.0:
        return TheoryValue(0.0, 0.0)
    dp = derive(params)
    shape = shape_integral(i, dp.rho)
    scale = (
        2.0
        * params.b0
        * params.gamma
        * params.omega
        / (dp.lambda0 + dp.lambda1)
        * params.n_init ** (dp.lambda1 * t + 1.0 - params.alpha)
    )
    return TheoryValue(shape.value * scale, shape.abs_error_bound * scale)


def window_scale(params: ModelParams) -> float:
    """b0 gamma omega lambda1 N^(1-alpha): the large-N scale that turns the
    window weights K, L into expected window counts."""
    lam1 = params.b1 - params.d1
    return params.b0 * params.gamma * params.omega * lam1 * params.n_init ** (1.0 - params.alpha)


def sfs_window_asymptotic(
    x1: float, x2: float, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Large-N equivalent of the expected number of mutations carried by a
    number of cells in (x1 e^(lambda1 t_N), x2 e^(lambda1 t_N)):

    b0 gamma omega lambda1 (J(x1) - J(x2)) N^(1-alpha),  J = K + L.
    """
    if not 0 < x1 < x2:
        raise ValueError(f"requires 0 < x1 < x2, got x1={x1}, x2={x2}")
    if params.omega == 0.0:
        return TheoryValue(0.0, 0.0)
    dp = derive(params)

    def j_value(x: float) -> TheoryValue:
        if x == math.inf:
            return TheoryValue(0.0, 0.0)
        k = window_weight_resistant(x, dp, tol)
        l = window_weight_sensitive(x, dp, tol)
        return TheoryValue(k.value + l.value, k.abs_error_bound + l.abs_error_bound)

    j1 = j_value(x1)
    j2 = j_value(x2)
    scale = window_scale(params)
    return TheoryValue(
        scale * (j1.value - j2.value),
        scale * (j1.abs_error_bound + j2.abs_error_bound),
    )


# ---------------------------------------------------------------------------
# Exact finite-N integrals (single-founder main terms)
# ---------------------------------------------------------------------------


def resistant_origin_main_term(
    i: int, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Single-founder part of E[resistant-origin S_i(t ln N)]:

    pref Int_0^(t_N) h_i(e^(lambda1 (t_N-s))) e^(-r s) ds,  r = lambda1 + x_n delta0,
    pref = N^(1+lambda1 t-alpha) delta0 (1-x_n) gamma omega / (1-gamma_n).

    y <= Y(e^(lambda1 (t_N-s))) exactly when s <= t_N - ln X(y)/lambda1,
    X(y) = (1-rho y)/(1-y), so swapping the order of integration and putting
    X = e^u leaves one quadrature with a closed-form integrand:

    pref (1-rho)/r Int_0^(lambda1 t_N) ((e^u-1)/(e^u-rho))^(i-1) (e^u-rho)^(-2)
      (1 - e^((r/lambda1) u - r t_N)) du.
    """
    if not i >= 1:
        raise ValueError(f"requires i >= 1, got {i}")
    if not t > 0:
        raise ValueError(f"requires t > 0, got {t}")
    if params.omega == 0.0:
        return TheoryValue(0.0, 0.0)
    dp = derive(params)
    t_n = t * math.log(params.n_init)
    lam1 = dp.lambda1
    rate = lam1 + dp.x_n * dp.delta0
    c = 1.0 - dp.rho
    slope = rate / lam1
    rt_n = rate * t_n

    def f(u: float) -> float:
        em1 = math.expm1(u)
        d = em1 + c  # e^u - rho
        return (em1 / d) ** (i - 1) / (d * d) * -math.expm1(slope * u - rt_n)

    pref = (
        params.n_init ** (1.0 + lam1 * t - params.alpha)
        * dp.delta0
        * (1.0 - dp.x_n)
        * params.gamma
        * params.omega
        / (1.0 - dp.gamma_n)
    )
    hi = lam1 * t_n
    # w >= Int_0^hi B(u) e^(slope u - r t_N) du with B(u) = ((e^u-1)/(e^u-rho))^(i-1)
    # (e^u-rho)^(-2): below hi/2 the exponential is at most e^(-r t_N/2) and
    # Int_0^hi B du <= 1/(i (1-rho)); above it B <= (e^(hi/2)-rho)^(-2)
    w = math.exp(-rt_n / 2.0) / (i * c) + 1.0 / (slope * (math.expm1(hi / 2.0) + c) ** 2)

    def rounding(value: float, err: float) -> float:
        # u = 2^-53, libm within 1 ulp, the rates and rho taken as given.
        # Relative: 6u per factor of the base em1/d and 13u for the rest of f,
        # 3u (ln N + lambda1 t_N) from the exponent of N in pref and 13u for
        # the rest of pref (1-rho)/r times the integral.  Absolute: slope u - r t_N is off by at
        # most 4.1u r t_N and t_N by 2u t_N, which moves the integral by at
        # most 6.1u r t_N w.
        rel = 6 * i + 20 + 3.0 * (math.log(params.n_init) + hi)
        return 1.1 * _U * (rel * (value + err) + 6.1 * rt_n * w)

    return _quad_finite(pref * c / rate, f, hi, tol, rounding, epsrel=1e-13)


def _sensitive_founder_integral(
    t: float, params: ModelParams, tol: float, size: Callable[[float], float]
) -> TheoryValue:
    """Mutations of single founders born at sensitive divisions, carried by
    a clone of ``size`` (pmf or tail at scale y = e^(-lambda1 u)):

    N gamma_n (1-x_n) delta0 omega / (2 (1-gamma_n)) Int_0^(t_N)
      size(e^(-lambda1 (t_N-s))) (1 + s delta0 (1-x_n)) e^(-s delta0 x_n) ds.
    """
    if not t > 0:
        raise ValueError(f"requires t > 0, got {t}")
    if params.omega == 0.0:
        return TheoryValue(0.0, 0.0)
    dp = derive(params)
    t_n = t * math.log(params.n_init)
    lam1 = dp.lambda1
    x = dp.x_n
    d0 = dp.delta0

    def f(s: float) -> float:
        y = math.exp(-lam1 * (t_n - s))
        return size(y) * (1.0 + s * d0 * (1.0 - x)) * math.exp(-s * d0 * x)

    pref = params.n_init * dp.gamma_n * (1.0 - x) * d0 * params.omega / (2.0 * (1.0 - dp.gamma_n))
    return _quad_finite(pref, f, t_n, tol)


def _resistant_division_integral(
    t: float, params: ModelParams, tol: float, size: Callable[[float], float]
) -> TheoryValue:
    """Mutations born at resistant divisions, all founders included: they
    appear at rate omega b1 E[Z1(s)], each carried by one fresh clone of
    ``size`` (pmf or tail at scale y = e^(-lambda1 u)) aged t_N - s:

        omega b1 Int_0^(t_N) E[Z1(s)] size(e^(-lambda1 (t_N - s))) ds,

    with E[Z1(s)] = 2 gamma_n b0 N (e^(lambda1 s) - e^(-lt0 s)) / (lambda1 + lt0)
    and lt0 = lambda0 + 2 gamma_n b0 the sensitive population's decay rate.
    """
    if not t > 0:
        raise ValueError(f"requires t > 0, got {t}")
    if params.omega == 0.0:
        return TheoryValue(0.0, 0.0)
    dp = derive(params)
    t_n = t * math.log(params.n_init)
    lam1 = dp.lambda1
    lt0 = dp.lambda0 + 2.0 * dp.gamma_n * dp.b0

    def f(s: float) -> float:
        y = math.exp(-lam1 * (t_n - s))
        return (math.exp(lam1 * s) - math.exp(-lt0 * s)) * size(y)

    pref = params.omega * dp.b1 * 2.0 * dp.gamma_n * dp.b0 * params.n_init / (lam1 + lt0)
    return _quad_finite(pref, f, t_n, tol)


def _size_tail(x: float, t: float, params: ModelParams) -> Callable[[float], float]:
    """y -> P(clone size > m) at scale y = e^(-lambda1 u), for the window
    edge m = floor(x e^(lambda1 t_N)): the closed geometric tail
    (lambda1/b1) q^m / (1 - rho y) with q = (1-y)/(1-rho y); at m = 0 this
    is the survival probability 1 - extinction mass."""
    if not x > 0:
        raise ValueError(f"requires x > 0, got {x}")
    b1, d1 = params.b1, params.d1
    rho = d1 / b1
    lam1 = b1 - d1
    m = math.floor(x * math.exp(lam1 * (t * math.log(params.n_init))))
    c = lam1 / b1
    if m == 0:
        return lambda y: c / (1.0 - rho * y)

    def tail(y: float) -> float:
        q = (1.0 - y) / (1.0 - rho * y)
        if q <= 0.0:
            return 0.0
        return c / (1.0 - rho * y) * math.exp(m * math.log(q))

    return tail


def sensitive_origin_main_term(
    i: int, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Single-founder part of E[sensitive-origin S_i(t ln N)]: the founder
    integral with the clone-size pmf kappa_i."""
    return _sensitive_founder_integral(t, params, tol, _size_pmf(i, params.b1, params.d1))


def sensitive_origin_window_main(
    x: float, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Single-founder part of E[sensitive-origin window count over
    (x e^(lambda1 t_N), inf)]: the sum of the per-index main terms over the
    open window, collapsed to one quadrature via the geometric tail of the
    clone-size law."""
    return _sensitive_founder_integral(t, params, tol, _size_tail(x, t, params))


def resistant_origin_window_exact(
    x: float, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Exact E[resistant-origin window count over (x e^(lambda1 t_N), inf)]:
    the window sum of resistant_origin_mean_exact collapsed to one
    quadrature via the clone-size tail."""
    return _resistant_division_integral(t, params, tol, _size_tail(x, t, params))


def resistant_origin_mean_exact(
    i: int, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Exact E[resistant-origin S_i(t ln N)], all founders included: the
    resistant-division integral with the clone-size pmf kappa_i.  This is
    the single-founder main term plus the multi-founder remainder, so it is
    the tight Monte Carlo comparator."""
    return _resistant_division_integral(t, params, tol, _size_pmf(i, params.b1, params.d1))


def expected_resistant_population(t_abs: float, params: ModelParams) -> float:
    """Exact E[Z1(t)] from (N, 0) at absolute time t."""
    dp = derive(params)
    lt0 = dp.lambda0 + 2.0 * dp.gamma_n * dp.b0
    lam1 = dp.lambda1
    return (
        2.0
        * dp.gamma_n
        * dp.b0
        * params.n_init
        * (math.exp(lam1 * t_abs) - math.exp(-lt0 * t_abs))
        / (lam1 + lt0)
    )


# ---------------------------------------------------------------------------
# Remainder order bounds (upper bounds only; exact values are out of reach)
# ---------------------------------------------------------------------------


def resistant_origin_remainder_bound(t: float, params: ModelParams) -> float:
    """Upper bound on the multi-founder remainder of E[resistant-origin S_i]:

    omega (b1/lambda1) N^(1+lambda1 t) sum_{k>=2} k P(A_k), uniform in i.
    """
    dp = derive(params)
    multi = multi_ancestral_mean(dp).exact
    return (
        params.omega
        * dp.b1
        / dp.lambda1
        * params.n_init ** (1.0 + dp.lambda1 * t)
        * multi
    )


def sensitive_origin_remainder_bound(params: ModelParams) -> float:
    """Upper bound on the multi-founder remainder of E[sensitive-origin S_i]:

    N omega gamma_n / (2 (1-gamma_n)) * (2 p/(1-2p) - (1-x)/x), uniform in i.
    """
    dp = derive(params)
    p, x = dp.p_n, dp.x_n
    return (
        params.n_init
        * params.omega
        * dp.gamma_n
        / (2.0 * (1.0 - dp.gamma_n))
        * (2.0 * p / (1.0 - 2.0 * p) - (1.0 - x) / x)
    )


def sensitive_origin_main_bound(params: ModelParams) -> float:
    """Uniform-in-i upper bound on the single-founder sensitive-origin term:

    N gamma_n delta0 omega / (2 (1-gamma_n)) * (1/(delta0 x) + 1/(delta0 x^2)).
    """
    dp = derive(params)
    x = dp.x_n
    return (
        params.n_init
        * dp.gamma_n
        * dp.delta0
        * params.omega
        / (2.0 * (1.0 - dp.gamma_n))
        * (1.0 / (dp.delta0 * x) + 1.0 / (dp.delta0 * x**2))
    )
