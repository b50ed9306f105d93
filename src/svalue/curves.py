"""P-value and S-value functions of a hypothesized parameter value.

For a normal (Wald-type) point estimate m with standard error se, each
candidate value mu1 gets the one-sided P-value for "mu >= mu1" (the lower
tail of m - mu1, sometimes marketed as "severity"), its complement for
"mu <= mu1" with the matching surprisal, and the two-sided P-/S-value pair.
The one-sided P-value depends on mu1 alone, not on any null mu0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .specfun import _SQRT2, _checked_int, _checked_make, _checked_real, _two_sided_tail
from .units import InfoUnit, SValue


class EstimateSpec(NamedTuple("EstimateSpec", [("estimate", float), ("std_error", float)])):
    """A point estimate with its standard error."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, estimate: float, std_error: float) -> EstimateSpec:
        estimate = _checked_real(estimate, "estimate must be finite")
        std_error = _checked_real(std_error, "std_error must be positive and finite", 0.0)
        return tuple.__new__(cls, (estimate, std_error))


class CurvePoint(NamedTuple):
    mu1: float
    p_ge: float  # P-value for mu >= mu1; strictly decreasing in mu1
    p_le: float  # P-value for mu <= mu1; p_ge + p_le = 1
    s_le: SValue  # information against mu <= mu1
    p_two: float  # two-sided P at mu1; peaks at 1 when mu1 = estimate
    s_two: SValue


def curve_point(spec: EstimateSpec, mu1: float, unit: InfoUnit = InfoUnit.BITS) -> CurvePoint:
    """The one-sided and two-sided P-/S-values at one hypothesized value mu1."""
    mu1 = _checked_real(mu1, "mu1 must be finite")
    return _point(spec.estimate, spec.std_error, mu1, unit.nats_per_unit, unit)


def _point(estimate: float, std_error: float, mu1: float, k: float, unit: InfoUnit) -> CurvePoint:
    """curve_point at mu1, with k = unit.nats_per_unit; an overflowing z-score names mu1."""
    t = (estimate - mu1) / std_error
    if math.isinf(t):
        raise OverflowError(f"the z-score (estimate - mu1) / std_error overflows at mu1 = {mu1!r}")
    p_two, log_p_two = _two_sided_tail(t)  # 2 Phi(-|t|); its log stays finite on underflow
    p_near = 0.5 * math.erfc(-abs(t) / _SQRT2)  # Phi(|t|): the one-sided P on the estimate's side
    p_ge, p_le = (p_near, 0.5 * p_two) if t >= 0.0 else (0.5 * p_two, p_near)
    # p_le below 2^-1022 is p_two / 2, so its log is the kernel's log of p_two less ln 2
    log_p_le = math.log(p_le) if p_le >= 2.0 ** -1022 else log_p_two - math.log(2.0)
    # Both logs are of a P <= 1, so each S = -ln P / k is a float >= 0 (+ 0.0 turns -0.0
    # into 0.0) and passes SValue's checks by construction: build the tuples directly.
    return tuple.__new__(CurvePoint, (
        mu1, p_ge, p_le, tuple.__new__(SValue, (-log_p_le / k + 0.0, unit)),
        p_two, tuple.__new__(SValue, (-log_p_two / k + 0.0, unit))))


def curve(
    spec: EstimateSpec,
    from_: float,
    to: float,
    steps: int,
    unit: InfoUnit = InfoUnit.BITS,
) -> list[CurvePoint]:
    """Tabulate the P-/S-value functions on a closed, equally spaced grid."""
    steps = _checked_int(steps, "steps must be an integer >= 2", 2)
    from_, to = (_checked_real(v, "grid endpoints must be finite") for v in (from_, to))
    if not (from_ < to):
        raise ValueError(f"grid requires from < to, got [{from_}, {to}]")
    width = to - from_
    if math.isinf(width):
        raise ValueError(f"grid width to - from overflows, got [{from_}, {to}]")
    n = steps - 1
    # the grid point from_ + width * i / n, or (width / n) * i where width * i overflows
    grid = [from_ + (x / n if (x := width * i) < math.inf else width / n * i) for i in range(n)]
    estimate, std_error, k = spec.estimate, spec.std_error, unit.nats_per_unit
    return [_point(estimate, std_error, mu1, k, unit) for mu1 in grid + [to]]
