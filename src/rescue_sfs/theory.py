"""Closed forms, pmfs/pdfs, and controlled-accuracy integrals for the
expected site frequency spectrum under rescue dynamics.

Index conventions: ``i`` counts resistant carriers of a mutation; ``t`` is
the log-time multiplier (observation at t * ln N); ``x`` parameterizes
windows of carrier counts around x * e^(lambda1 * t_N).

Every numerically evaluated quantity is returned as a TheoryValue carrying
a certified absolute error bound (series tail, rounding bound of a
recurrence, or quadrature estimate plus truncation tail or the integrand's
rounding bound).

Domain checks and quadrature acceptance are written so that NaN fails
them (``not x > 0``, ``not bound <= tol``): NaN fails every comparison, so
``x <= 0`` would let it through to a wrong value or an endless series.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

from rescue_sfs.params import DerivedParams, ModelParams, checked_index, derive

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


# Gauss-Kronrod G30/K61 rule on [-1, 1] (the rule of QUADPACK's qk61,
# Piessens et al. 1983): the 31 nonnegative abscissae in decreasing order,
# where entries 1, 3, ..., 29 (from 0) are the Gauss-Legendre nodes and the
# rest the Kronrod nodes; the Kronrod weights in the same order; and the
# Gauss weights of entries 1, 3, ..., 29.  The Kronrod nodes are the roots of
# the Stieltjes polynomial E_31, solved from Int P_30 E_31 x^k = 0 (k <= 30)
# at 120 digits, and the weights come from the moment equations (Laurie
# 1997); each literal is the double nearest to its 120-digit value.  The
# same construction at n = 10 gives qk21's table bit for bit.
_XGK = (
    0.9994844100504906, 0.99689348407464951, 0.99163099687040457,
    0.98366812327974718, 0.97311632250112623, 0.96002186496830755,
    0.94437444474856003, 0.92620004742927431, 0.90557330769990785,
    0.88256053579205274, 0.85720523354606115, 0.82956576238276836,
    0.79972783582183904, 0.76777743210482619, 0.73379006245322675,
    0.69785049479331585, 0.66006106412662691, 0.62052618298924289,
    0.57934523582636166, 0.53662414814201986, 0.49248046786177857,
    0.44703376953808915, 0.4004012548303944, 0.35270472553087812,
    0.30407320227362505, 0.25463692616788985, 0.20452511668230988,
    0.15386991360858354, 0.10280693796673702, 0.051471842555317698,
    0.0,
)
_WGK = (
    0.0013890136986770077, 0.003890461127099884, 0.0066307039159312926,
    0.0092732796595177639, 0.011823015253496341, 0.014369729507045804,
    0.016920889189053271, 0.019414141193942382, 0.021828035821609193,
    0.0241911620780806, 0.026509954882333101, 0.028754048765041292,
    0.030907257562387762, 0.032981447057483723, 0.034979338028060025,
    0.03688236465182123, 0.038678945624727595, 0.040374538951535956,
    0.041969810215164244, 0.043452539701356069, 0.044814800133162663,
    0.04605923827100699, 0.047185546569299151, 0.048185861757087133,
    0.049055434555029781, 0.04979568342707421, 0.050405921402782349,
    0.05088179589874961, 0.051221547849258774, 0.051426128537459023,
    0.051494729429451568,
)
_WG = (
    0.007968192496166605, 0.018466468311090958, 0.028784707883323369,
    0.03879919256962705, 0.048402672830594053, 0.057493156217619065,
    0.065974229882180491, 0.073755974737705204, 0.080755895229420213,
    0.086899787201082976, 0.092122522237786122, 0.096368737174644253,
    0.099593420586795267, 0.1017623897484055, 0.10285265289355884,
)

# the full rule over its 61 nodes, left to right: the Gauss nodes are the
# odd positions
_GK_X = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_GK_WK = _WGK[:-1] + _WGK[::-1]
_GK_WG = _WG + _WG[::-1]
_U = 2.0**-53  # unit roundoff of a double
_EPS = 2.0 * _U  # machine epsilon
_TINY = 2.0**-1022  # smallest normal double
_ETA = 2.0**-1074  # smallest subnormal double: twice the error of a result that underflows
_GK_LIMIT = 400  # most panels one integral is split into
_TABLE_SIZE = 256  # panels each node table keeps, least recently used dropped

# An integrand is a panel function: f(a, b) gives its values at _nodes(a, b).
# Its factors free of the index i or window edge m sit in bounded lru_cache
# tables keyed by the panel and every float they use, so a curve over i or x
# computes them once per panel, and each value only applies its power.  A
# table does the point formula's IEEE operations in the same order, so no
# value or bound depends on what a table held.
_Panel = Callable[[float, float], Sequence[float]]


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _nodes(a: float, b: float) -> tuple[float, ...]:
    """The rule's 61 abscissae on [a, b], left to right."""
    return tuple(0.5 * (a + b) + 0.5 * (b - a) * x for x in _GK_X)


def _gk61(f: _Panel, a: float, b: float) -> tuple[float, float]:
    """(value, error estimate) of Int_a^b f by the 61-point rule, from the
    values fv = f(a, b) at _nodes(a, b).

    The estimate is QUADPACK's: |K - G| scaled to resasc min(1, (200 |K - G|
    / resasc)^1.5), where resasc is the rule's mean absolute deviation of f
    from its mean, and never below 50 eps resabs, the rule applied to |f|.
    """
    h = 0.5 * (b - a)
    fv = f(a, b)
    k = math.fsum(map(operator.mul, _GK_WK, fv))
    g = math.fsum(map(operator.mul, _GK_WG, fv[1::2]))
    half = 0.5 * k
    dh = abs(h)
    deviation = map(abs, map(operator.sub, fv, repeat(half)))
    resasc = dh * math.fsum(map(operator.mul, _GK_WK, deviation))
    # the rule on |f| is K itself where f >= 0
    resabs = dh * (k if min(fv) >= 0.0 else math.fsum(map(operator.mul, _GK_WK, map(abs, fv))))
    err = abs((k - g) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return k * h, err


def _gauss_kronrod(
    f: _Panel, a: float, b: float, epsabs: float, epsrel: float
) -> tuple[float, float]:
    """(value, error estimate) of Int_a^b f by globally adaptive G30/K61.

    The panel with the largest error estimate is halved until the summed
    estimate is at most max(epsabs, epsrel |value|) or there are _GK_LIMIT
    panels; both sums are then taken again with math.fsum.  A NaN estimate
    stops at once (NaN fails the comparison), so the caller's acceptance
    test sees it.  A first panel that already stops the loop returns at
    once, as value + 0.0 and err: the sums over one panel, fsum([-0.0])
    being 0.0.
    """
    if a == b:
        return 0.0, 0.0
    value, err = _gk61(f, a, b)
    if not err > max(epsabs, epsrel * abs(value)):
        return value + 0.0, err
    panels = [(-err, a, b, value)]
    while err > max(epsabs, epsrel * abs(value)) and len(panels) < _GK_LIMIT:
        neg_e, lo, hi, v = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk61(f, lo, mid)
        v2, e2 = _gk61(f, mid, hi)
        heapq.heappush(panels, (-e1, lo, mid, v1))
        heapq.heappush(panels, (-e2, mid, hi, v2))
        value += v1 + v2 - v
        err += e1 + e2 + neg_e
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


def _integrate(
    scale: float,
    f: _Panel,
    hi: float,
    tol: float,
    extra: Callable[[float, float], float],
    epsrel: float = 1e-11,
) -> TheoryValue:
    """scale * Int_0^hi f, for every quadrature of this module.  The
    integral's bound is the Gauss-Kronrod error estimate plus
    ``extra(value, err)``: the tail past hi where the integral runs to
    infinity, else the integrand's own rounding bound.  It is asked to meet
    tol / max(scale, 1), and this raises where it exceeds both that and
    1e-8 |value|, as a large value in doubles cannot meet an absolute tol.
    An empty range (hi = 0, as at N = 1) gives 0 exactly."""
    if not tol > 0:
        raise ValueError(f"requires tol > 0, got {tol}")
    if hi == 0.0:
        return TheoryValue(0.0, 0.0)
    tol = tol / max(scale, 1.0)
    value, err = _gauss_kronrod(f, 0.0, hi, tol, epsrel)
    err += extra(value, err)
    if not err <= max(tol, abs(value) * 1e-8):
        raise QuadratureError(f"requested tol {tol:g}, achieved bound {err:g}")
    return TheoryValue(scale * value, scale * err)


def _relative_rounding(rel: Callable[[float], float]) -> Callable[[float, float], float]:
    """``extra`` for _integrate where f >= 0 and its rounding moves the
    integral by at most rel(total) u total, u = 2^-53, where total = value +
    err bounds Int |f|; 1.1 covers the second-order terms."""
    return lambda value, err: 1.1 * rel(value + err) * _U * (value + err)


# ---------------------------------------------------------------------------
# Shape integrals of the single-clone SFS
# ---------------------------------------------------------------------------


SHAPE_TOL = 1e-12
_SERIES_TERMS = 64  # the series is kept wherever it converges in max(i, 64) terms


def _shape(i: int, x: float, rho: float) -> tuple[float, float]:
    """(value, absolute error bound) of h_i(x) = Int_0^Y (1-y) y^(i-1) / (1-rho y) dy
    with Y = (x-1)/(x-rho), Y = 1 at x = inf, for shape_integral and
    shape_integral_truncated (resistant_origin_main_term integrates h_i in
    closed form instead).  Arguments are not checked.

    Where the series in rho converges within max(i, _SERIES_TERMS) terms it
    is summed term by term, and its bound is its geometric tail plus the
    rounding of the terms it summed; at rho = 0 that is one term, the closed
    form.  Past that (rho Y near 1, O(1/(1 - rho Y)) terms) the value comes
    in i - 1 steps from M_a = Int_0^Y y^(a-1) / (1-rho y) dy = sum_k rho^k
    Y^(a+k) / (a+k): M_1 = -log1p(-rho Y)/rho, M_(a+1) = (M_a - Y^a/a)/rho
    and h_i = (Y^i/i - (1-rho) M_i)/rho, wherever its rounding bound
    certifies SHAPE_TOL.
    """
    complete = x == math.inf
    y = 1.0 if complete else (x - 1.0) / (x - rho)
    if y <= 0.0:
        return 0.0, 0.0
    y_i = y**i
    r = rho * y
    n = max(i, _SERIES_TERMS)
    if complete:
        long_series = rho**n / ((i + n) * (i + n + 1) * (1.0 - rho)) >= SHAPE_TOL
    else:
        long_series = y_i * r**n / ((i + n) * (1.0 - r)) >= SHAPE_TOL
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
        if bound <= SHAPE_TOL:
            m = m1
            y_a = 1.0
            for a in range(1, i):
                y_a *= y
                m = (m - y_a / a) / rho
            return (y_a * y / i - (1.0 - rho) * m) / rho, bound
    # The series' bound is its tail plus its rounding, u = 2^-53, rho and x
    # taken as given.  Summing n terms from 0 rounds term k in n - max(k, 1)
    # additions (recursive summation: Higham 2002, Accuracy and Stability of
    # Numerical Algorithms, 4.2), and the tail is rounded too.
    total = 0.0
    k = 0
    if complete:
        # term_k = rho^k / ((i+k)(i+k+1)), within (k + 2) u, so within (n + 2) u
        # of its share of the sum; the tail within (n + 4) u
        rk = 1.0
        while True:
            total += rk / ((i + k) * (i + k + 1))
            rk *= rho
            k += 1
            tail = rk / ((i + k) * (i + k + 1) * (1.0 - rho))
            if tail < SHAPE_TOL:
                return total, tail + 1.1 * (k + 4) * _U * (total + tail)
    # term_k = rho^k [ Y^(i+k)/(i+k) - Y^(i+k+1)/(i+k+1) ] = R_k (a_k - b_k):
    # R_k = Y^i r^k within (2k + 2) u (the power within 1 ulp, k products, r's
    # rounding), a_k - b_k within 2u (a_k + b_k) + u (a_k - b_k) <= 4.1u a_k, so
    # term k is within (2n + 2) u of its share plus 4.1u R_k a_k, which sum to
    # at most 4.1u Y^i / (i (1 - r)); the tail within (2n + 5) u + u/(1 - r).
    # Y, within 3u, moves h_i by at most 3.2u Y^i, as dh_i/dY <= Y^(i-1), and
    # each of the 3n + 4 products and quotients may underflow by _ETA/2.
    rk = y_i
    while True:
        total += rk * (1.0 / (i + k) - y / (i + k + 1))
        rk *= r
        k += 1
        tail = rk / ((i + k) * (1.0 - r))
        if tail < SHAPE_TOL:
            rounding = (2 * k + 5) * (total + tail) + (4.1 * y_i / i + tail) / (1.0 - r) + 3.2 * y_i
            return total, tail + 1.1 * _U * rounding + (3 * k + 4) * _ETA


def shape_integral(i: int, rho: float) -> TheoryValue:
    """Integral of (1-y) y^(i-1) / (1 - rho y) over [0, 1], with a bound of
    at most SHAPE_TOL plus the rounding term.

    The limiting per-founder SFS shape factor I(i): the series sum_k rho^k /
    ((i+k)(i+k+1)), or near rho = 1 the log1p-seeded recurrence of
    ``_shape``, each with a certified bound.  The series stops once its tail
    is below SHAPE_TOL and reports that tail plus the rounding of the terms
    it summed, so its bound may exceed SHAPE_TOL by that rounding term; the
    recurrence is used only where its whole bound is within SHAPE_TOL.
    """
    return shape_integral_truncated(i, math.inf, rho)


def shape_integral_truncated(i: int, x: float, rho: float) -> TheoryValue:
    """Integral of (1-y) y^(i-1) / (1 - rho y) over [0, (x-1)/(x-rho)], with
    a bound of at most SHAPE_TOL plus the rounding term.

    Defined for x >= 1 (zero at x = 1); shape_integral(i, rho) at x = inf.
    Series in rho with the upper limit's powers, whose bound is its tail,
    below SHAPE_TOL, plus the rounding of the terms it summed, or the
    recurrence of ``_shape`` where rho (x-1)/(x-rho) is near 1, whose whole
    bound is within SHAPE_TOL.
    """
    i = checked_index(i, "i", 1)
    if not 0 <= rho < 1:
        raise ValueError(f"requires 0 <= rho < 1, got {rho}")
    if not x >= 1.0:
        raise ValueError(f"requires x >= 1, got {x}")
    return TheoryValue(*_shape(i, x, rho))


# A size law below, P(clone size = i) or P(clone size > m) at the clone's
# scaled age z = lambda1 u, y = e^-z, is (law, n, rel): law ("pmf" or
# "tail") names its factors (f, d, g, y <= 1/2) at z = lambda1 (t_N - s)
# in _founder_rows, where the law is f q^n / d (q^n: see _q_factors), and
# rel(z_max, share) bounds its relative rounding error in units of u = 2^-53
# for z up to z_max (share: see _size_tail), z within 2u, rho taken as given,
# libm calls within 1 ulp (2u) and the other steps within u each.
_SizeLaw = tuple[str, int, Callable[[float, float], float]]


def _q_factors(z: float, rho: float, c: float) -> tuple[float, float, float, bool]:
    """(y, 1 - rho y, g, y <= 1/2) at y = e^-z, given c = 1 - rho, where q =
    (1-y)/(1-rho y) and q^n = e^(n g) if y <= 1/2, else g^n.

    Where y <= 1/2, g = log1p(-y) - log1p(-rho y), as q near 1 rounded to a
    double would lose (n/2)u.  With e^-z within (2 + 2z)u, the two log1p, at
    most 2y, are within (8 + 4z) y u and (10 + 4z) y u (y's error over
    1 - y >= 1/2, rho y's rounding, 1 ulp), so n g is within n y (22 + 8z) u
    with its own two roundings, q^n within n y (22 + 8z) + 2 units and
    1 - rho y within 4 + 2z.  Where y > 1/2, 1 - y = -expm1(-z) is within
    4u, as z/(e^z - 1) <= 1, and 1 - rho y = (1 - rho) + rho (1 - y), a sum
    of positives, within 6u, so g = q is within 11u and q^n within 11n + 2.
    So 1 - rho y is within 6 + 2z units and q^n within n e + 2, with
    e <= min(11 + 4z, (22 + 8z) y)."""
    y = math.exp(-z)
    if y <= 0.5:
        return y, 1.0 - rho * y, math.log1p(-y) - math.log1p(-rho * y), True
    omy = -math.expm1(-z)  # 1 - y
    d = c + rho * omy  # 1 - rho y
    return y, d, omy / d, False


def _z1_shape(lam1: float, k: float, s: float) -> float:
    """e^(lambda1 s) (1 - e^(-k s)) with k = lambda1 + lt0: E[Z1(s)]'s
    difference of exponentials e^(lambda1 s) - e^(-lt0 s) (see
    _founder_integral), without its cancellation at small s."""
    return math.exp(lam1 * s) * -math.expm1(-k * s)


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _founder_rows(
    law: str, lam1: float, t_n: float, rho: float, weights: tuple, a: float, b: float
) -> tuple:
    """Rows (f, d, g, small, w1[, w2]) of _founder_integral at the nodes s of
    [a, b].  First a size law's factors from _q_factors: f = (1 - rho)^2 y
    and d = (1 - rho y)^2 for the pmf, f = (1 - rho)/(1 - rho y) and d = 1
    (exact) for the tail.  Then the weights: w1 = _z1_shape(lambda1, k, s)
    for weights = (k,), or w1 = 1 + s delta0 (1-x_n) and w2 = e^(-s delta0
    x_n) for weights = (delta0, x_n)."""
    c = 1.0 - rho
    out = []
    for s in _nodes(a, b):
        y, d, g, small = _q_factors(lam1 * (t_n - s), rho, c)
        row = (c * c * y, d * d, g, small) if law == "pmf" else (c / d, 1.0, g, small)
        if len(weights) == 1:
            row += (_z1_shape(lam1, weights[0], s),)
        else:
            d0, x = weights
            row += (1.0 + s * d0 * (1.0 - x), math.exp(-s * d0 * x))
        out.append(row)
    return tuple(out)


def _size_pmf(i: int) -> _SizeLaw:
    """P(clone size = i) and its rounding bound: (1 - rho)^2 (3u), e^-z,
    q^(i-1), (1 - rho y)^2 and three products or quotients."""
    n = checked_index(i, "i", 1) - 1
    rel = lambda z_max, share: n * (11.0 + 4.0 * z_max) + 23.0 + 6.0 * z_max  # noqa: E731
    return "pmf", n, rel


def _check_clone(b1: float, d1: float, omega: float = 0.0) -> None:
    # a supercritical resistant clone with finite rates, ModelParams' rule
    if not 0 <= d1 < b1 < math.inf:
        raise ValueError(f"requires finite 0 <= d1 < b1, got b1={b1}, d1={d1}")
    if not 0 <= omega < math.inf:
        raise ValueError(f"requires finite omega >= 0, got omega={omega}")


def clone_size_pmf(i: int, u: float, b1: float, d1: float) -> float:
    """Classical linear birth-death size law from one founder (Harris form):
    P(clone of age u has size i) at scale y = e^(-lambda1 u) is

    (lambda1/b1)^2 y (1-y)^(i-1) / (1 - (d1/b1) y)^(i+1).
    """
    if not u >= 0:
        raise ValueError(f"requires u >= 0, got {u}")
    _check_clone(b1, d1)
    i = checked_index(i, "i", 1)
    rho = d1 / b1
    c = 1.0 - rho  # lambda1 / b1
    y, d, g, small = _q_factors((b1 - d1) * u, rho, c)
    return c * c * y * (math.exp((i - 1) * g) if small else g ** (i - 1)) / (d * d)


def clone_extinction_prob(u: float, b1: float, d1: float) -> float:
    """P(the clone of one founder is extinct by age u)."""
    if not u >= 0:
        raise ValueError(f"requires u >= 0, got {u}")
    _check_clone(b1, d1)
    lam1 = b1 - d1
    e = math.exp(-lam1 * u)
    return d1 * (1.0 - e) / (b1 - d1 * e)


def single_clone_sfs(i: int, t: float, b1: float, d1: float, omega: float) -> TheoryValue:
    """Expected number of mutations carried by exactly i cells at time t in
    a clone grown from one founder: omega e^(lambda1 t) h_i(e^(lambda1 t))."""
    if not t >= 0:
        raise ValueError(f"requires t >= 0, got {t}")
    _check_clone(b1, d1, omega)
    if omega == 0.0:  # omega e^(lambda1 t) would be 0 * inf where growth overflows
        return TheoryValue(0.0, 0.0)
    lam1 = b1 - d1
    rho = d1 / b1
    growth = math.exp(lam1 * t)
    h = shape_integral_truncated(i, growth, rho)
    value = omega * growth * h.value
    # Rounding, u = 2^-53, lambda1 and rho taken as given: 2u for the products
    # and (2 + lambda1 t) u relative for x = e^(lambda1 t), which moves x h_i(x)
    # by that times x h_i + x^2 dh_i/dx <= x h_i + Y^(i-1) / (x - rho), x >= 1
    y = 1.0 - (1.0 - rho) / (growth - rho)  # Y
    spread = (2.0 + lam1 * t) * (value + omega * y ** (i - 1) / (growth - rho))
    return TheoryValue(value, omega * growth * h.abs_error_bound + 1.1 * _U * (2.0 * value + spread))


def single_clone_sfs_asymptotic(i: int, t: float, b1: float, d1: float, omega: float) -> float:
    """Large-time form omega e^(lambda1 t) I(i)."""
    if not t >= 0:
        raise ValueError(f"requires t >= 0, got {t}")
    _check_clone(b1, d1, omega)
    return omega * math.exp((b1 - d1) * t) * shape_integral(i, d1 / b1).value


# ---------------------------------------------------------------------------
# Founder appearance-time laws
# ---------------------------------------------------------------------------


def appearance_time_pdf(dp: DerivedParams, t: float) -> float:
    """Appearance time of the founder given exactly one founder:
    exponential with rate delta0 * x_n."""
    if not t >= 0:
        raise ValueError(f"requires t >= 0, got {t}")
    rate = dp.delta0 * dp.x_n
    return rate * math.exp(-rate * t)


def appearance_time_pdf_any(dp: DerivedParams, t: float) -> float:
    """Appearance time of a uniformly chosen founder given at least one.

    Gamma mixture of the generation law gw_trees.any_mark_pmf(p_n,
    p_tilde_n, .): with eps = 2 t delta0 (p - pt),
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


def _window_cut(x: float, dp: DerivedParams) -> tuple[float, float]:
    """(a, s_max) of the window weights at edge x: a = x lambda1/b1, and
    s_max past which their factor e^(-a e^(lambda1 s)) is below e^-45.

    Each weight integrates over [0, s_max] with its tail past s_max as the
    extra bound, asked for tol/2, so that J = K + L, which
    sfs_window_asymptotic takes at each edge, meets tol."""
    if not x > 0:
        raise ValueError(f"requires x > 0, got {x}")
    a = x * dp.lambda1 / dp.b1
    return a, max(1.0, math.log(45.0 / a) / dp.lambda1)


def window_weight_resistant(x: float, dp: DerivedParams, tol: float = DEFAULT_TOL) -> TheoryValue:
    """Weight of resistant-origin mutations carried by more than
    x e^(lambda1 t_N) cells:

    (2/(lambda0+lambda1)) Int_0^inf (1 - e^(-(lambda0+lambda1)s)) e^(lambda1 s)
    e^(-x (lambda1/b1) e^(lambda1 s)) ds.

    Positive and strictly decreasing in x (sign-normalized magnitude).
    """
    return _resistant_weight(x, dp, tol, slope=False)


def window_weight_resistant_slope(
    x: float, dp: DerivedParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Magnitude of the x-derivative of window_weight_resistant:

    (2 lambda1/(b1 (lambda0+lambda1))) Int_0^inf (1 - e^(-(lambda0+lambda1)s))
    e^(2 lambda1 s) e^(-x (lambda1/b1) e^(lambda1 s)) ds.
    """
    return _resistant_weight(x, dp, tol, slope=True)


def _resistant_weight(x: float, dp: DerivedParams, tol: float, slope: bool) -> TheoryValue:
    if x == math.inf:  # no mutation has more than infinitely many carriers
        return TheoryValue(0.0, 0.0)
    a, s_max = _window_cut(x, dp)
    lam0, lam1 = dp.lambda0, dp.lambda1
    if slope:
        pref = 2.0 * lam1 / (dp.b1 * (lam0 + lam1))
        # Int w e^(-a w) dw / lam1 over w >= e^(lam1 s_max), in closed form
        w = math.exp(lam1 * s_max)
        tail = pref * (w / a + 1.0 / a**2) * math.exp(-a * w) / lam1
    else:
        pref = 2.0 / (lam0 + lam1)
        # integrand <= pref e^(lam1 s) e^(-a e^(lam1 s)); exact tail integral
        tail = pref * math.exp(-a * math.exp(lam1 * s_max)) / (a * lam1)
    # the factor e^(lambda1 s) or e^(2 lambda1 s): doubling is exact, so
    # 2 (lambda1 s) is (2 lambda1) s bit for bit
    times = 2.0 if slope else 1.0

    def f(lo: float, hi: float) -> list[float]:
        return [
            pref * k1 * math.exp(times * ls - a * e1)
            for k1, e1, ls, _, _ in _window_rows(dp.b0, lam0, lam1, lo, hi)
        ]

    return _integrate(1.0, f, s_max, tol / 2, lambda value, err: tail)


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _window_rows(b0: float, lam0: float, lam1: float, a: float, b: float) -> tuple[tuple, ...]:
    """(1 - e^(-(lambda0+lambda1) s), e^(lambda1 s), lambda1 s, -lambda0 s,
    1 + 2 b0 s) at the nodes s of [a, b]: the x-free factors of K, Kslope
    and L, which share the panel [0, s_max] at each window edge x."""
    return tuple(
        (1.0 - math.exp(-(lam0 + lam1) * s), math.exp(lam1 * s), lam1 * s, -lam0 * s, 1.0 + 2.0 * b0 * s)
        for s in _nodes(a, b)
    )


def window_weight_sensitive(x: float, dp: DerivedParams, tol: float = DEFAULT_TOL) -> TheoryValue:
    """Weight of sensitive-origin (hitch-hiking) mutations carried by more
    than x e^(lambda1 t_N) cells:

    (1/b1) Int_0^inf (1 + 2 b0 s) e^(-lambda0 s) e^(-x (lambda1/b1) e^(lambda1 s)) ds.
    """
    if x == math.inf:
        return TheoryValue(0.0, 0.0)
    a, s_max = _window_cut(x, dp)
    b0, b1 = dp.b0, dp.b1
    lam0, lam1 = dp.lambda0, dp.lambda1

    def f(lo: float, hi: float) -> list[float]:
        return [
            l1 * math.exp(nl0 - a * e1) / b1
            for _, e1, _, nl0, l1 in _window_rows(b0, lam0, lam1, lo, hi)
        ]

    # Int_s_max^inf (1+2 b0 u) e^(-lam0 u) du in closed form
    rest = math.exp(-lam0 * s_max) * ((1.0 + 2.0 * b0 * s_max) / lam0 + 2.0 * b0 / lam0**2)
    tail = math.exp(-a * math.exp(lam1 * s_max)) * rest / b1
    return _integrate(1.0, f, s_max, tol / 2, lambda value, err: tail)


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
    # Rounding, u = 2^-53, the rates taken as given: the exponent lambda1 t +
    # 1 - alpha <= lambda1 t + 1 within (2 + 3 lambda1 t) u, times ln N for
    # the power, itself within 2u, and 6u for the sum, quotient and products
    value = shape.value * scale
    rel = 8.0 + (2.0 + 3.0 * dp.lambda1 * t) * math.log(params.n_init)
    return TheoryValue(value, shape.abs_error_bound * scale + 1.1 * _U * rel * value)


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
    i = checked_index(i, "i", 1)
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
    n = i - 1

    def f(lo: float, hi: float) -> list[float]:
        return [q**n / dd * e for q, dd, e in _main_factors(c, slope, rt_n, lo, hi)]

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

    return _integrate(pref * c / rate, f, hi, tol, rounding, epsrel=1e-13)


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _main_factors(c: float, slope: float, rt_n: float, a: float, b: float) -> tuple[tuple, ...]:
    """((e^u - 1)/(e^u - rho), (e^u - rho)^2, 1 - e^(slope u - r t_N)) at the
    nodes u of [a, b], given c = 1 - rho: the i-free factors of P's integrand."""
    out = []
    for u in _nodes(a, b):
        em1 = math.expm1(u)
        d = em1 + c  # e^u - rho
        out.append((em1 / d, d * d, -math.expm1(slope * u - rt_n)))
    return tuple(out)


def _founder_integral(
    t: float, params: ModelParams, tol: float, size: _SizeLaw, division: bool
) -> TheoryValue:
    """Mutations carried by a clone of ``size`` (pmf or tail law and its
    rounding bound, see above).  With ``division``, those born at resistant
    divisions, all founders included, at rate omega b1 E[Z1(s)], each carried
    by one fresh clone aged t_N - s: omega b1 Int_0^(t_N) E[Z1(s)]
    size(lambda1 (t_N - s)) ds, with E[Z1(s)] = 2 gamma_n b0 N (e^(lambda1 s)
    - e^(-lt0 s)) / (lambda1 + lt0) and lt0 = lambda0 + 2 gamma_n b0 the
    sensitive population's decay rate.  Else those of single founders born
    at sensitive divisions: N gamma_n (1-x_n) delta0 omega / (2 (1-gamma_n))
    Int_0^(t_N) size(lambda1 (t_N-s)) (1 + s delta0 (1-x_n)) e^(-s delta0 x_n) ds.
    """
    if not t > 0:
        raise ValueError(f"requires t > 0, got {t}")
    if params.omega == 0.0:
        return TheoryValue(0.0, 0.0)
    dp = derive(params)
    t_n = t * math.log(params.n_init)
    lam1, rho, x, d0 = dp.lambda1, dp.rho, dp.x_n, dp.delta0
    # the rates, rho and t_N taken as given: the law's rounding plus rel1 +
    # rel2 units; w_tot >= Int_0^(t_N) w1 w2 for the weights (w1, w2)
    if division:
        k = lam1 + (dp.lambda0 + 2.0 * dp.gamma_n * dp.b0)  # lambda1 + lt0
        pref = params.omega * dp.b1 * 2.0 * dp.gamma_n * dp.b0 * params.n_init / k
        weights = (k,)
        # 2u + u lambda1 s for e^(lambda1 s), 7u for the expm1 (k within
        # 4u), 2u for the products and 12u for pref times the integral
        rel1, rel2, w_tot = lam1 * t_n, 23.0, math.exp(lam1 * t_n) / lam1
    else:
        pref = params.n_init * dp.gamma_n * (1.0 - x) * d0 * params.omega / (2.0 * (1.0 - dp.gamma_n))
        weights = (d0, x)
        # 4u for the linear factor, 2u + 2u s delta0 x_n for the
        # exponential, 2u for the products and 9u for pref times the integral
        rel1, rel2, w_tot = 17.0, 2.0 * d0 * x * t_n, t_n * (1.0 + d0 * t_n)
    law, n, law_rel = size

    def f(lo: float, hi: float) -> list[float]:
        rows = _founder_rows(law, lam1, t_n, rho, weights, lo, hi)
        if division:
            return [q * (math.exp(n * g) if small else g**n) / d * w for q, d, g, small, w in rows]
        return [
            q * (math.exp(n * g) if small else g**n) / d * w1 * w2
            for q, d, g, small, w1, w2 in rows
        ]

    z_max = lam1 * t_n
    extra = _relative_rounding(lambda total: law_rel(z_max, total / w_tot) + rel1 + rel2)
    return _integrate(pref, f, t_n, tol, extra)


def _size_tail(x: float, t: float, params: ModelParams) -> _SizeLaw:
    """P(clone size > m), for the window edge m = floor(x e^(lambda1 t_N)):
    the closed geometric tail (1 - rho) q^m / (1 - rho y); at m = 0 this is
    the survival probability 1 - extinction mass.  With its rounding bound:
    1 - rho (u), 1 - rho y, q^m and two quotients or products."""
    if not x > 0:
        raise ValueError(f"requires x > 0, got {x}")
    b1, d1 = params.b1, params.d1
    c = 1.0 - d1 / b1  # lambda1 / b1
    m = math.floor(x * math.exp((b1 - d1) * (t * math.log(params.n_init))))

    def rel(z_max: float, share: float) -> float:
        # q^m's m e units, e <= (22 + 8 z_max) y (see _q_factors), grow with
        # m, but q^m is negligible where m y is large.  As -log q >= c y, with
        # X = -m log q, q^m is within q^m (e^(kappa X) - 1), kappa = (22 +
        # 8 z_max) u / c.  For L >= 2 and kappa L <= 0.09 that is at most
        # 1.1 kappa L q^m where X <= L, and at most kappa X e^(-X/2) <=
        # kappa L e^(-L/2) past it.  The integrand is the weight times c q^m
        # / (1 - rho y) <= the weight, so over the integral, at most 1.1 kappa
        # L total + kappa L e^(-L/2) w_tot (see _founder_integral), which at
        # L = max(2, -2 ln share), share = total / w_tot, is 2.1 kappa L
        # total: 2 L (22 + 8 z_max) / c units in place of m (11 + 4 z_max).
        k = (22.0 + 8.0 * z_max) / c
        cut = max(2.0, -2.0 * math.log(share)) if share > 0.0 else math.inf  # L
        via_log = 2.0 * cut * k if cut * k * _U <= 0.09 else math.inf
        return min(m * (11.0 + 4.0 * z_max), via_log) + 11.0 + 2.0 * z_max

    return "tail", m, rel


def sensitive_origin_main_term(
    i: int, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Single-founder part of E[sensitive-origin S_i(t ln N)]: the founder
    integral with the clone-size pmf kappa_i."""
    return _founder_integral(t, params, tol, _size_pmf(i), False)


def sensitive_origin_window_main(
    x: float, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Single-founder part of E[sensitive-origin window count over
    (x e^(lambda1 t_N), inf)]: the sum of the per-index main terms over the
    open window, collapsed to one quadrature via the geometric tail of the
    clone-size law.  The window (inf, inf) is empty: 0 at x = inf."""
    if x == math.inf:
        return TheoryValue(0.0, 0.0)
    return _founder_integral(t, params, tol, _size_tail(x, t, params), False)


def resistant_origin_window_exact(
    x: float, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Exact E[resistant-origin window count over (x e^(lambda1 t_N), inf)]:
    the window sum of resistant_origin_mean_exact collapsed to one
    quadrature via the clone-size tail.  The window (inf, inf) is empty: 0
    at x = inf."""
    if x == math.inf:
        return TheoryValue(0.0, 0.0)
    return _founder_integral(t, params, tol, _size_tail(x, t, params), True)


def resistant_origin_mean_exact(
    i: int, t: float, params: ModelParams, tol: float = DEFAULT_TOL
) -> TheoryValue:
    """Exact E[resistant-origin S_i(t ln N)], all founders included: the
    resistant-division integral with the clone-size pmf kappa_i.  This is
    the single-founder main term plus the multi-founder remainder, so it is
    the tight Monte Carlo comparator."""
    return _founder_integral(t, params, tol, _size_pmf(i), True)


def expected_resistant_population(t_abs: float, params: ModelParams) -> float:
    """Exact E[Z1(t)] from (N, 0) at absolute time t."""
    if not t_abs >= 0:
        raise ValueError(f"requires t_abs >= 0, got {t_abs}")
    dp = derive(params)
    k = dp.lambda1 + (dp.lambda0 + 2.0 * dp.gamma_n * dp.b0)  # lambda1 + lt0
    return 2.0 * dp.gamma_n * dp.b0 * params.n_init * _z1_shape(dp.lambda1, k, t_abs) / k


# ---------------------------------------------------------------------------
# Remainder order bounds (uniform-in-i upper bounds, for gates with no exact comparator yet)
# ---------------------------------------------------------------------------


def resistant_origin_remainder_bound(t: float, params: ModelParams) -> float:
    """Upper bound on the multi-founder remainder of E[resistant-origin S_i]:

    omega (b1/lambda1) N^(1+lambda1 t) sum_{k>=2} k P(A_k), uniform in i.
    """
    if not t > 0:
        raise ValueError(f"requires t > 0, got {t}")
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
