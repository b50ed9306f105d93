"""Likelihood and Bayes-factor calibrations of an observed P-value.

`calibration_report` is the one entry point. It gives the maximum-likelihood
ratio for the one-df normal test, the deviance 2 ln(MLR) and the AIC change
2 ln(MLR) - 2d, and the sharp Bayes-factor lower bound b = -e * p * ln(p)
with its companion odds bound 1/b and conditional Type-1 error rate
1 / (1 + 1/b). The bound only exists for p < 1/e.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .specfun import normal_quantile
from .units import PValue

BF_BOUND_MAX_P = 1.0 / math.e  # 0.3679; -p*ln(p) peaks here at 1/e


class CalibrationReport(NamedTuple):
    """All calibrations of one P-value; inapplicable fields are None + a note."""

    p: float
    df_d: int
    mlr: float | None  # exp(z^2 / 2) for the 1-df normal test; always >= 1
    deviance: float | None  # 2 ln(mlr) = z^2
    aic_delta: float | None  # 2 ln(mlr) - 2d
    bf_lower_bound: float | None  # lower bound b on the Bayes factor, in (0, 1]
    odds_increase_bound: float | None  # 1/b, upper bound on the posterior odds increase
    conditional_type1: float | None  # 1 / (1 + 1/b), or b / (1 + b) where 1/b overflows
    notes: tuple[str, ...] = ()


def calibration_report(p: PValue, d: int = 1) -> CalibrationReport:
    """Assemble every applicable calibration for one P-value.

    MLR fields are populated only for d = 1 (the normal-test case), where an MLR that
    overflows raises OverflowError; Bayes-factor fields only for p < 1/e, and 1/b only
    where it is finite. Anything inapplicable is None with an explanatory note.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"restriction dimension d must be a positive integer, got {d!r}")
    if p.value == 1.0:
        raise ValueError("calibration_report requires p < 1")
    notes: list[str] = []
    mlr = deviance = aic_delta = None
    if d == 1:
        try:  # exp overflows below p ~ 1e-310; at 5e-324, p / 2 underflows and the quantile raises
            z = -normal_quantile(p.value / 2.0)  # = Phi^-1(1 - p/2), tail-safe form
            mlr = math.exp(z * z / 2.0)
        except (ValueError, OverflowError):
            raise OverflowError(f"the MLR exp(z^2 / 2) overflows at p = {p.value!r}") from None
        deviance = 2.0 * math.log(mlr)
        aic_delta = deviance - 2.0 * d
    else:
        notes.append(
            f"MLR fields omitted: the normal-test MLR is implemented for d = 1 only (got d = {d})"
        )
    b = odds = cond = None
    if p.value < BF_BOUND_MAX_P:
        ep = math.e * p.value  # subnormal below p ~ 8.2e-309, so there ln p takes e first
        b = -ep * math.log(p.value) if ep >= 2.0**-1022 else p.value * (-math.e * math.log(p.value))
        odds = 1.0 / b
        cond = 1.0 / (1.0 + odds)
        if math.isinf(odds):  # b is subnormal below p ~ 1e-308; 1 / (1 + 1/b) would read 0
            odds, cond = None, b / (1.0 + b)
            notes.append(f"odds_increase_bound omitted: 1/b overflows at p = {p.value!r}")
    else:
        notes.append(
            f"Bayes-factor fields omitted: the bound -e*p*ln(p) requires p < 1/e "
            f"= {BF_BOUND_MAX_P:.4f} (got p = {p.value})"
        )
    return CalibrationReport(
        p=p.value,
        df_d=d,
        mlr=mlr,
        deviance=deviance,
        aic_delta=aic_delta,
        bf_lower_bound=b,
        odds_increase_bound=odds,
        conditional_type1=cond,
        notes=tuple(notes),
    )
