"""Calibration tests: MLR, deviance/AIC, and the Bayes-factor lower bound.

Every number comes from `calibration_report`, the one calibration entry point.
"""

import math
import random

import pytest

from svalue.calibrate import BF_BOUND_MAX_P, CalibrationReport, calibration_report
from svalue.units import PValue


def cal(p, d=1):
    return calibration_report(PValue(p), d)


class TestMlrNormal1df:
    def test_anchor_p05(self):
        # exp(z^2/2) with z = Phi^-1(0.975); mpmath 40 digits
        assert cal(0.05).mlr == pytest.approx(6.825935561925903, rel=1e-10, abs=0)

    def test_exact_two_sigma(self):
        # p chosen so the two-sided deviate is exactly 2; MLR = e^2
        p = 0.04550026389635842
        assert cal(p).mlr == pytest.approx(math.exp(2.0), rel=1e-9, abs=0)

    def test_rounded_two_sigma(self):
        assert cal(0.0455).mlr == pytest.approx(7.389, abs=1e-3)

    def test_no_evidence_limit(self):
        assert cal(1.0 - 1e-12).mlr == pytest.approx(1.0, abs=1e-9)
        assert cal(0.8).mlr > 1.0

    @pytest.mark.numpy
    def test_always_at_least_one(self):
        import numpy as np
        rng = np.random.default_rng(31)
        for p in rng.uniform(1e-10, 1.0 - 1e-10, size=300):
            assert cal(float(p)).mlr >= 1.0

    @pytest.mark.parametrize("d", [1, 3])
    def test_p_equal_one(self, d):
        # z = -Phi^-1(1/2) = 0: no evidence, so the MLR is 1; d = 3 has no MLR fields
        rep = cal(1.0, d)
        mlr = (1.0, 0.0, -2.0) if d == 1 else (None, None, None)
        assert (rep.mlr, rep.deviance, rep.aic_delta) == mlr
        assert (rep.bf_lower_bound, rep.odds_increase_bound, rep.conditional_type1) == (None,) * 3
        assert rep.notes[-1] == ("Bayes-factor fields omitted: the bound -e*p*ln(p) requires "
                                 "p < 1/e = 0.3679 (got p = 1.0)")


class TestDevianceAndAic:
    def test_no_evidence(self):
        rep = cal(math.nextafter(1.0, 0.0))  # z^2/2 ~ 1e-32, so the MLR rounds to 1
        assert (rep.mlr, rep.deviance, rep.aic_delta) == (1.0, 0.0, -2.0)

    def test_p05_values(self):
        rep = cal(0.05)
        # z^2 at z = 1.95996...
        assert rep.deviance == pytest.approx(3.841458820694124, rel=1e-10, abs=0)
        assert rep.aic_delta == pytest.approx(1.841458820694124, rel=1e-9, abs=0)

    def test_mlr_e(self):
        rep = cal(math.erfc(1.0))  # two-sided deviate sqrt(2), so MLR = e
        assert rep.deviance == pytest.approx(2.0, rel=1e-14, abs=0)
        assert rep.aic_delta == pytest.approx(0.0, abs=1e-14)

    def test_deviance_equals_squared_sigma(self):
        from svalue.specfun import normal_quantile

        for p in (0.001, 0.01, 0.05, 0.1, 0.2):
            z = -normal_quantile(p / 2.0)
            assert cal(p).deviance == pytest.approx(z * z, abs=1e-10)


class TestBayesFactorBound:
    def test_anchor_p05(self):
        rep = cal(0.05)
        # mpmath
        assert rep.bf_lower_bound == pytest.approx(0.40716223010650577, rel=1e-12, abs=0)
        assert rep.odds_increase_bound == pytest.approx(2.456023486604883, rel=1e-12, abs=0)
        assert rep.conditional_type1 == pytest.approx(0.2893498854611016, rel=1e-12, abs=0)

    def test_p10(self):
        rep = cal(0.10)
        # mpmath
        assert rep.bf_lower_bound == pytest.approx(0.6259075216766395, rel=1e-12, abs=0)
        assert rep.odds_increase_bound == pytest.approx(1.5976801130640935, rel=1e-12, abs=0)

    def test_boundary_limit(self):
        rep = cal(BF_BOUND_MAX_P - 1e-9)
        assert rep.bf_lower_bound > 1.0 - 1e-6
        assert rep.odds_increase_bound == pytest.approx(1.0, abs=1e-5)
        assert rep.conditional_type1 == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.numpy
    def test_bound_below_one_on_valid_region(self):
        import numpy as np
        rng = np.random.default_rng(33)
        for p in rng.uniform(1e-12, BF_BOUND_MAX_P, size=500):
            assert cal(float(p)).bf_lower_bound < 1.0

    @pytest.mark.numpy
    def test_conditional_type1_range_and_monotonicity(self):
        import numpy as np
        grid = np.linspace(1e-6, BF_BOUND_MAX_P - 1e-6, 200)
        vals = [cal(float(p)).conditional_type1 for p in grid]
        assert all(0.0 < v < 0.5 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_odds_bound_below_mlr(self):
        for p in (0.001, 0.01, 0.05, 0.1, 0.2):
            rep = cal(p)
            assert rep.odds_increase_bound < rep.mlr


class TestCalibrationReport:
    def test_full_report(self):
        rep = calibration_report(PValue(0.05), 1)
        assert rep.mlr == pytest.approx(6.825935561925903, rel=1e-10, abs=0)
        assert rep.deviance == pytest.approx(2.0 * math.log(rep.mlr), rel=1e-14, abs=0)
        assert rep.aic_delta == pytest.approx(rep.deviance - 2.0, rel=1e-12, abs=0)
        assert rep.odds_increase_bound == pytest.approx(2.456023486604883, rel=1e-12, abs=0)
        assert rep.conditional_type1 == pytest.approx(
            1.0 / (1.0 + rep.odds_increase_bound), rel=1e-14, abs=0
        )
        assert rep.notes == ()

    def test_large_p_drops_bf_fields(self):
        for p in (0.5, BF_BOUND_MAX_P):  # the bound needs p < 1/e strictly
            rep = calibration_report(PValue(p), 1)
            assert rep.bf_lower_bound is None
            assert rep.odds_increase_bound is None
            assert rep.conditional_type1 is None
            assert rep.mlr is not None
            assert any("1/e" in n for n in rep.notes)

    def test_higher_dimension_drops_mlr_fields(self):
        rep = calibration_report(PValue(0.05), 2)
        assert rep.mlr is None
        assert rep.deviance is None
        assert rep.aic_delta is None
        assert rep.bf_lower_bound is not None
        assert any("d = 1" in n for n in rep.notes)

    def test_overflowing_odds_bound_is_none_with_note(self):
        # b is subnormal at p = 1e-320, so 1/b overflows and the type-1 rate is b / (1 + b),
        # which rounds to b. mpmath 1.3.0, 50 digits, from the double nearest 1e-320; b is
        # p * (-e ln p), so it rounds once, to the double nearest this literal.
        rep = calibration_report(PValue(1e-320), 2)
        assert rep.odds_increase_bound is None
        assert rep.conditional_type1 == rep.bf_lower_bound
        assert rep.conditional_type1 == 2.002881801662105319e-317
        assert rep.notes[-1] == "odds_increase_bound omitted: 1/b overflows at p = 1e-320"

    @pytest.mark.parametrize("d", [1, 2])
    def test_report_equals_its_record_rebuilt_through_the_constructor(self, d):
        rnd = random.Random(f"calibration-record/{d}")
        low = -300 if d == 1 else -323  # the d = 1 MLR overflows below p ~ 1e-310
        for _ in range(400):
            rep = calibration_report(PValue(10.0 ** (low * rnd.random())), d)
            assert type(rep) is CalibrationReport and repr(rep) == repr(CalibrationReport(*rep))

    def test_both_absent(self):
        rep = calibration_report(PValue(0.5), 3)
        assert rep.mlr is None and rep.bf_lower_bound is None
        assert len(rep.notes) == 2

    def test_domain(self):
        for d in (0, 1.5, True):
            with pytest.raises(ValueError, match="positive integer"):
                calibration_report(PValue(0.05), d)
