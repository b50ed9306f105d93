"""Special functions: the regularized upper incomplete gamma and chi-squared
survival in log space, and the standard-normal two-sided tail and quantile.

There is no scipy dependency. ln Gamma is the standard library's
`math.lgamma`, the normal tail is `math.erfc`, and the normal quantile is
`statistics.NormalDist.inv_cdf` (Wichura's AS 241). The incomplete-gamma
kernel is implemented here and validated in the test suite against exact
closed forms, brute-force quadrature and frozen mpmath values. It returns
ln Q, so deep tails stay finite; a caller that wants Q itself takes its exp.
The kernel follows the classic split: power series for x < a + 1, continued
fraction (Lentz) otherwise, whose denominators all stay >= b / 2, so none
needs a guard. Both loops stop once a step's increment leaves their result
unchanged; the continued fraction takes its factor less 1 as its own quotient,
which reaches 0 where rounding holds the factor an ulp off 1 (large x). Near
x = a the loops need about 9 sqrt(a) steps, so the iteration bound grows with
sqrt(a). For large a the prefactor x^a e^-x / Gamma(a) is
a (ln(1 + t) - t) + ln(a / 2 pi) / 2 less the Stirling remainder of ln Gamma(a),
t = x / a - 1, not three terms of size a ln a that cancel.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

# Convergence policy: the series sum and the continued fraction's h are final once
# a step leaves them unchanged; both give up loudly after MAX_ITER + 10 sqrt(a) steps.
MAX_ITER = 500

_SQRT2 = math.sqrt(2.0)

# From this shape on, the prefactor is taken in the Stirling form (see the
# module docstring); its four-term remainder series is exact to 2e-15 there.
_STIRLING_A = 20.0


class ConvergenceError(ArithmeticError):
    """An iterative kernel failed to converge within its iteration bound."""


def _checked_make(cls, fields):
    """`_make`, and so `_replace`, of a checked value type: through its checking `__new__`."""
    return cls(*fields)


def _checked_int(v, what: str, low: float = 1, high: float = math.inf) -> int:
    """v as the int operator.index makes of it (numpy's integers too) if it lies in [low, high);
    else ValueError(f"{what}, got {v!r}"), as for a bool, float or str."""
    try:
        if not isinstance(v, bool) and low <= (i := operator.index(v)) < high:
            return i
    except TypeError:
        pass
    raise ValueError(f"{what}, got {v!r}")


def _checked_real(v, what: str, low: float = -math.inf, high: float = math.inf) -> float:
    """float(v) for an int or float (numpy's float64 too) in (low, high);
    else ValueError(f"{what}, got {v!r}"), as for a bool, str, None or NaN."""
    if not isinstance(v, bool) and isinstance(v, (int, float)) and low < v < high:
        return float(v)
    raise ValueError(f"{what}, got {v!r}")


class ChiSquare(NamedTuple("ChiSquare", [("df", int)])):
    """Chi-squared distribution with a positive integer number of df."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, df: int) -> ChiSquare:
        df = _checked_int(df, "df must be an integer", -math.inf)
        if df < 1:
            raise ValueError(f"df must be >= 1, got {df}")
        return tuple.__new__(cls, (df,))


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
        if total + term == total:
            return total
        total += term
    raise ConvergenceError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _upper_cf_factor(a: float, x: float, max_iter: int) -> float:
    """Continued-fraction factor h, Q(a, x) = exp(_log_prefactor(a, x)) * h for x >= a + 1, by
    Lentz's iteration: b_i = x - a + 2i + 1 and a_i = -i (i - a) give b_i b_(i-1) - 4i (i - a)
    = (x - a)^2 + 4ix - 1 >= 0, so each denominator stays >= b_i / 2 >= 1/2 (c starts at inf)."""
    b = x + 1.0 - a
    c = math.inf
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        ad = an * d
        d = 1.0 / (ad + b)
        q = an / c
        c = b + q
        # c d - 1 is (q - ad) d; so taken, it reaches 0 where rounding holds c d an ulp off 1
        if h + h * ((q - ad) * d) == h:
            return h
        h *= c * d
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge (a={a}, x={x})"
    )


def log_reg_gamma_upper(a: float, x: float) -> float:
    """ln Q(a, x), Q(a, x) = Gamma(a, x) / Gamma(a), finite however deep the tail."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"shape parameter must be > 0, got {a!r}")
    if not x >= 0.0:
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
    if not x >= 0.0:
        raise ValueError(f"chi-squared statistic must be >= 0, got {x!r}")
    return log_reg_gamma_upper(dist.df / 2.0, x / 2.0)


def _two_sided_tail(z: float) -> tuple[float, float]:
    """2 Phi(-|z|) = erfc(|z| / sqrt 2) and its log, which keeps its digits near z = 0,
    where it is log1p(-erf), and stays finite where the tail underflows: below 2^-1021
    it is the kernel's ln Q(1/2, z^2 / 2). Where z^2 overflows, so does the log: refused."""
    if math.isinf(z * z):
        raise OverflowError(f"the S-value at z = {z!r} overflows: z^2 is past the largest double")
    p = math.erfc(abs(z) / _SQRT2)
    if p > 0.9:
        return p, math.log1p(-math.erf(abs(z) / _SQRT2))
    return p, math.log(p) if p >= 2.0 ** -1021 else log_reg_gamma_upper(0.5, z * z / 2.0)


@functools.cache
def _standard_normal():
    """NormalDist(), built on first use: importing `statistics` is slow."""
    from statistics import NormalDist

    return NormalDist()


def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF on the open interval (0, 1).

    `statistics.NormalDist.inv_cdf`: Wichura's AS 241 (Applied Statistics 37
    (1988) 477-484), a few ulps from exact on all of (0, 1), subnormal q
    included. `statistics` is imported on the first call.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"normal_quantile requires 0 < q < 1, got {q!r}")
    return _standard_normal().inv_cdf(q)
