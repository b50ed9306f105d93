"""P-value and S-value functions of a hypothesized parameter value.

For a normal (Wald-type) point estimate m with standard error se, each
candidate value mu1 gets the one-sided P-value for "mu >= mu1" (the lower
tail of m - mu1, sometimes marketed as "severity"), its complement for
"mu <= mu1" with the matching surprisal, and the two-sided P-/S-value pair.
The one-sided P-value depends on mu1 alone, not on any null mu0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import normal_cdf
from .units import InfoUnit, SValue


@dataclass(frozen=True)
class EstimateSpec:
    """A point estimate with its standard error."""

    estimate: float
    std_error: float

    def __post_init__(self) -> None:
        if math.isnan(self.estimate) or math.isinf(self.estimate):
            raise ValueError(f"estimate must be finite, got {self.estimate!r}")
        if not (self.std_error > 0.0) or math.isinf(self.std_error):
            raise ValueError(f"std_error must be positive and finite, got {self.std_error!r}")


@dataclass(frozen=True)
class CurvePoint:
    mu1: float
    p_ge: float  # P-value for mu >= mu1; strictly decreasing in mu1
    p_le: float  # P-value for mu <= mu1; p_ge + p_le = 1
    s_le: SValue  # information against mu <= mu1
    p_two: float  # two-sided P at mu1; peaks at 1 when mu1 = estimate
    s_two: SValue


def curve_point(spec: EstimateSpec, mu1: float, unit: InfoUnit = InfoUnit.BITS) -> CurvePoint:
    """The one-sided and two-sided P-/S-values at one hypothesized value mu1."""
    t = (spec.estimate - mu1) / spec.std_error
    k = unit.nats_per_unit
    p_le = normal_cdf(-t)
    p_two = 2.0 * normal_cdf(-abs(t))
    return CurvePoint(
        mu1=mu1,
        p_ge=normal_cdf(t),
        p_le=p_le,
        s_le=SValue(-math.log(p_le) / k, unit),
        p_two=p_two,
        s_two=SValue(-math.log(p_two) / k, unit),
    )


def curve(
    spec: EstimateSpec,
    from_: float,
    to: float,
    steps: int,
    unit: InfoUnit = InfoUnit.BITS,
) -> list[CurvePoint]:
    """Tabulate the P-/S-value functions on a closed, equally spaced grid."""
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    from_, to = float(from_), float(to)
    if math.isnan(from_) or math.isnan(to) or math.isinf(from_) or math.isinf(to):
        raise ValueError("grid endpoints must be finite")
    if not (from_ < to):
        raise ValueError(f"grid requires from < to, got [{from_}, {to}]")
    width = to - from_
    return [
        curve_point(spec, to if i == steps - 1 else from_ + width * i / (steps - 1), unit)
        for i in range(steps)
    ]
