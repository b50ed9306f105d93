"""Calibration tests: MLR, deviance/AIC, and the Bayes-factor lower bound."""

import math

import numpy as np
import pytest

from svalue.calibrate import (
    BF_BOUND_MAX_P,
    bayes_factor_bound,
    calibration_report,
    deviance_and_aic,
    mlr_normal_1df,
)
from svalue.units import PValue


class TestMlrNormal1df:
    def test_anchor_p05(self):
        # exp(z^2/2) with z = Phi^-1(0.975); mpmath 40 digits
        assert mlr_normal_1df(PValue(0.05)) == pytest.approx(6.825935561925903, rel=1e-10, abs=0)

    def test_exact_two_sigma(self):
        # p chosen so the two-sided deviate is exactly 2; MLR = e^2
        p = 0.04550026389635842
        assert mlr_normal_1df(PValue(p)) == pytest.approx(math.exp(2.0), rel=1e-9, abs=0)

    def test_rounded_two_sigma(self):
        assert mlr_normal_1df(PValue(0.0455)) == pytest.approx(7.389, abs=1e-3)

    def test_no_evidence_limit(self):
        assert mlr_normal_1df(PValue(1.0 - 1e-12)) == pytest.approx(1.0, abs=1e-9)
        assert mlr_normal_1df(PValue(0.8)) > 1.0

    def test_always_at_least_one(self):
        rng = np.random.default_rng(31)
        for p in rng.uniform(1e-10, 1.0 - 1e-10, size=300):
            assert mlr_normal_1df(PValue(float(p))) >= 1.0

    def test_rejects_p_equal_one(self):
        with pytest.raises(ValueError):
            mlr_normal_1df(PValue(1.0))


class TestDevianceAndAic:
    def test_no_evidence(self):
        assert deviance_and_aic(1.0, 1) == (0.0, -2.0)

    def test_p05_values(self):
        dev, aic = deviance_and_aic(6.825935561925903, 1)
        assert dev == pytest.approx(3.841458820694124, rel=1e-10, abs=0)  # z^2 at z=1.95996...
        assert aic == pytest.approx(1.841458820694124, rel=1e-9, abs=0)

    def test_mlr_e(self):
        dev, aic = deviance_and_aic(math.e, 1)
        assert dev == pytest.approx(2.0, rel=1e-14, abs=0)
        assert aic == pytest.approx(0.0, abs=1e-14)

    def test_dimension_scales_aic(self):
        _, aic3 = deviance_and_aic(math.e, 3)
        assert aic3 == pytest.approx(-4.0, abs=1e-14)

    def test_deviance_equals_squared_sigma(self):
        from svalue.specfun import normal_quantile

        for p in (0.001, 0.01, 0.05, 0.1, 0.2):
            z = -normal_quantile(p / 2.0)
            dev, _ = deviance_and_aic(mlr_normal_1df(PValue(p)), 1)
            assert dev == pytest.approx(z * z, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            deviance_and_aic(0.99, 1)
        with pytest.raises(ValueError):
            deviance_and_aic(2.0, 0)
        with pytest.raises(ValueError):
            deviance_and_aic(2.0, 1.5)


class TestBayesFactorBound:
    def test_anchor_p05(self):
        b, odds, cond = bayes_factor_bound(PValue(0.05))
        assert b == pytest.approx(0.40716223010650577, rel=1e-12, abs=0)  # mpmath
        assert odds == pytest.approx(2.456023486604883, rel=1e-12, abs=0)
        assert cond == pytest.approx(0.2893498854611016, rel=1e-12, abs=0)

    def test_p10(self):
        b, odds, _ = bayes_factor_bound(PValue(0.10))
        assert b == pytest.approx(0.6259075216766395, rel=1e-12, abs=0)  # mpmath
        assert odds == pytest.approx(1.5976801130640935, rel=1e-12, abs=0)

    def test_boundary_limit(self):
        b, odds, cond = bayes_factor_bound(PValue(BF_BOUND_MAX_P - 1e-9))
        assert b > 1.0 - 1e-6
        assert odds == pytest.approx(1.0, abs=1e-5)
        assert cond == pytest.approx(0.5, abs=1e-5)

    def test_bound_below_one_on_valid_region(self):
        rng = np.random.default_rng(33)
        for p in rng.uniform(1e-12, BF_BOUND_MAX_P, size=500):
            assert bayes_factor_bound(PValue(float(p))).b < 1.0

    def test_conditional_type1_range_and_monotonicity(self):
        grid = np.linspace(1e-6, BF_BOUND_MAX_P - 1e-6, 200)
        vals = [bayes_factor_bound(PValue(float(p))).conditional_type1 for p in grid]
        assert all(0.0 < v < 0.5 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_odds_bound_below_mlr(self):
        for p in (0.001, 0.01, 0.05, 0.1, 0.2):
            assert bayes_factor_bound(PValue(p)).odds_increase_bound < mlr_normal_1df(PValue(p))

    @pytest.mark.parametrize("p", [0.368, 0.5, 1.0])
    def test_out_of_region_rejected(self, p):
        with pytest.raises(ValueError, match="1/e"):
            bayes_factor_bound(PValue(p))

    def test_exact_boundary_rejected(self):
        with pytest.raises(ValueError):
            bayes_factor_bound(PValue(BF_BOUND_MAX_P))


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
        rep = calibration_report(PValue(0.5), 1)
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

    def test_both_absent(self):
        rep = calibration_report(PValue(0.5), 3)
        assert rep.mlr is None and rep.bf_lower_bound is None
        assert len(rep.notes) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            calibration_report(PValue(1.0), 1)
        with pytest.raises(ValueError):
            calibration_report(PValue(0.05), 0)
