"""Self-contained special functions: log-gamma, the regularized upper
incomplete gamma and chi-squared survival in log space, and the
standard-normal CDF/quantile pair.

Everything here is implemented from scratch (no scipy) and validated in the
test suite against exact closed forms, brute-force quadrature and frozen
mpmath values. There is one incomplete-gamma kernel, and it returns ln Q, so
deep tails stay finite; a caller that wants Q itself takes its exp. ln Gamma
is the standard library's `math.lgamma`. The kernel follows the classic
split: power series for x < a + 1, continued fraction (modified Lentz)
otherwise. Near x = a both loops need about 9 sqrt(a) terms, so the iteration
bound grows with sqrt(a). For large a the prefactor x^a e^-x / Gamma(a) is
taken as a (ln(1 + t) - t) + ln(a / 2 pi) / 2 minus the Stirling remainder
of ln Gamma(a), with t = x / a - 1, instead of from three terms of size
a ln a that cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Convergence policy shared by the series and continued-fraction loops:
# stop once the running term contributes less than TERM_RATIO of the sum,
# give up loudly after MAX_ITER + 10 sqrt(a) iterations.
TERM_RATIO = 1e-16
MAX_ITER = 500

_SQRT2 = math.sqrt(2.0)

# From this shape on, the prefactor is taken in the Stirling form (see the
# module docstring); its four-term remainder series is exact to 2e-15 there.
_STIRLING_A = 20.0


class ConvergenceError(ArithmeticError):
    """An iterative kernel failed to converge within its iteration bound."""


@dataclass(frozen=True)
class ChiSquare:
    """Chi-squared distribution with a positive integer number of df."""

    df: int

    def __post_init__(self) -> None:
        if not isinstance(self.df, int) or isinstance(self.df, bool):
            raise ValueError(f"df must be an integer, got {self.df!r}")
        if self.df < 1:
            raise ValueError(f"df must be >= 1, got {self.df}")


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _log_prefactor(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)) for x > 0."""
    if a < _STIRLING_A:
        return -x + a * math.log(x) - math.lgamma(a)
    t = (x - a) / a
    if abs(t) < 0.5:
        # ln(1 + t) - t = r (2 y (1/3 + y/5 + y^2/7 + ...) - t) with r = t / (2 + t)
        # and y = r^2 < 1/9, so 16 terms suffice and nothing cancels near t = 0.
        r = t / (2.0 + t)
        y = r * r
        acc = 0.0
        for k in range(33, 1, -2):
            acc = acc * y + 1.0 / k
        log1pmx = r * (2.0 * y * acc - t)
    elif t > 0.0:
        log1pmx = math.log1p(t) - t
    else:
        log1pmx = math.log(x) - math.log(a) - t
    inv2 = 1.0 / (a * a)
    stirling_tail = (1.0 / 12 - inv2 * (1.0 / 360 - inv2 * (1.0 / 1260 - inv2 / 1680))) / a
    return a * log1pmx + 0.5 * math.log(a / (2.0 * math.pi)) - stirling_tail


def _lower_series(a: float, x: float, max_iter: int) -> float:
    """Series sum s with P(a, x) = exp(_log_prefactor(a, x)) * s (x < a + 1)."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(max_iter):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * TERM_RATIO:
            return total
    raise ConvergenceError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _upper_cf_factor(a: float, x: float, max_iter: int) -> float:
    """Continued-fraction factor h with Q(a, x) = exp(_log_prefactor(a, x)) * h.

    Modified Lentz iteration (x >= a + 1 region).
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h_next = h * delta
        # h_next == h means the term fell below half an ulp of the sum.
        if abs(delta - 1.0) < TERM_RATIO or h_next == h:
            return h_next
        h = h_next
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge (a={a}, x={x})"
    )


def log_reg_gamma_upper(a: float, x: float) -> float:
    """ln Q(a, x), Q(a, x) = Gamma(a, x) / Gamma(a), finite however deep the tail."""
    if not (a > 0.0) or math.isnan(a) or math.isinf(a):
        raise ValueError(f"shape parameter must be > 0, got {a!r}")
    if not (x >= 0.0) or math.isnan(x):
        raise ValueError(f"argument must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return -math.inf
    max_iter = MAX_ITER + int(10.0 * math.sqrt(a))
    log_pref = _log_prefactor(a, x)
    if x < a + 1.0:
        # Q is bounded away from 0 here, so log1p of the series result is exact
        # enough.
        return math.log1p(-math.exp(log_pref) * _lower_series(a, x, max_iter))
    return log_pref + math.log(_upper_cf_factor(a, x, max_iter))


def log_chisq_survival(dist: ChiSquare, x: float) -> float:
    """ln Pr(X > x) for X ~ chi-squared with dist.df degrees of freedom."""
    if not (x >= 0.0) or math.isnan(x):
        raise ValueError(f"chi-squared statistic must be >= 0, got {x!r}")
    return log_reg_gamma_upper(dist.df / 2.0, x / 2.0)


def normal_cdf(z: float) -> float:
    """Standard-normal CDF via the complementary error function."""
    if math.isnan(z):
        raise ValueError("normal_cdf argument must not be NaN")
    return 0.5 * math.erfc(-z / _SQRT2)


# Acklam's rational approximation to the standard-normal quantile
# (|error| < 1.15e-9), evaluated on (0, 1/2] and refined below by one Halley step.
_ACKLAM_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_P_LOW = 0.02425


def _acklam(q: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if q < _ACKLAM_P_LOW:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
            ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    u = q - 0.5
    r = u * u
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * u / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF on the open interval (0, 1).

    Rational initial guess (Acklam) plus one Halley refinement against
    normal_cdf, giving ~1e-15 absolute error in the central range and a
    round-trip through normal_cdf well inside 1e-9. The upper half is taken
    by symmetry, -normal_quantile(1 - q), where 1 - q is exact (Sterbenz)
    and the refinement does not cancel.
    """
    if math.isnan(q) or not (0.0 < q < 1.0):
        raise ValueError(f"normal_quantile requires 0 < q < 1, got {q!r}")
    if q > 0.5:
        return -normal_quantile(1.0 - q)
    z = _acklam(q)
    # Halley step: e = Phi(z) - q, u = e / phi(z), z <- z - u / (1 + z u / 2).
    # Skipped where exp(z^2 / 2) would overflow; the initial guess is already
    # within 1.15e-9 there.
    if z * z < 1400.0:
        e = normal_cdf(z) - q
        u = e * math.sqrt(2.0 * math.pi) * math.exp(z * z / 2.0)
        z = z - u / (1.0 + z * u / 2.0)
    return z
