"""Evidence-combination tests: worked values, invariants, noise accounting."""

import math

import numpy as np
import pytest

from svalue.combine import (
    SchemaError,
    StudyResult,
    compare_methods,
    pooled_homogeneity_test,
    s_summation_test,
    studies_from_csv,
    z_squared_test,
)
from svalue.specfun import normal_cdf
from svalue.units import PValue

from oracles import chisq_survival_closed_form_even


def p_studies(*ps):
    return [StudyResult.from_p(f"s{i}", p) for i, p in enumerate(ps)]


def effect_studies(*pairs):
    return [StudyResult.from_effect(f"s{i}", est, se) for i, (est, se) in enumerate(pairs)]


class TestStudyResult:
    def test_exactly_one_evidence_form(self):
        with pytest.raises(ValueError):
            StudyResult(id="x")
        with pytest.raises(ValueError):
            StudyResult(id="x", p=PValue(0.2), estimate=1.0, std_error=0.5)
        with pytest.raises(ValueError):
            StudyResult(id="x", estimate=1.0)  # missing std_error

    def test_std_error_positive(self):
        with pytest.raises(ValueError):
            StudyResult.from_effect("x", 1.0, 0.0)
        with pytest.raises(ValueError):
            StudyResult.from_effect("x", 1.0, -0.3)


class TestSSummation:
    def test_single_study_is_identity(self):
        for p in (0.9, 0.5, 0.05, 1e-3, 1e-8):
            rep = s_summation_test(p_studies(p))
            assert rep.p_summary == pytest.approx(p, rel=1e-12, abs=0)
            assert rep.df == 2
            assert rep.s_summary.value == pytest.approx(-math.log(p), rel=1e-11, abs=0)

    def test_two_study_worked_example(self):
        rep = s_summation_test(p_studies(0.05, 0.05))
        assert rep.s_plus.value == pytest.approx(5.991464547107982, rel=1e-12, abs=0)
        oracle = chisq_survival_closed_form_even(4, 2.0 * rep.s_plus.value)
        assert oracle == pytest.approx(0.017478661367769955, rel=1e-12, abs=0)  # mpmath
        assert rep.p_summary == pytest.approx(oracle, rel=1e-12, abs=0)
        assert rep.s_summary.value == pytest.approx(4.046774492478399, rel=1e-10, abs=0)
        assert rep.df == 4
        assert rep.expected_noise_nats == 2.0
        assert rep.shrinkage_nats == pytest.approx(
            rep.s_plus.value - rep.s_summary.value, abs=1e-15
        )

    def test_no_information(self):
        rep = s_summation_test(p_studies(1.0, 1.0, 1.0))
        assert rep.s_plus.value == 0.0
        assert rep.p_summary == 1.0
        assert rep.s_summary.value == 0.0

    def test_underflow_keeps_summary_finite(self):
        rep = s_summation_test(p_studies(*([1e-20] * 20)))
        assert rep.p_summary < 1e-300
        assert math.isfinite(rep.s_summary.value)
        assert rep.s_summary.value > 800.0
        assert rep.shrinkage_nats > 0.0

    def test_many_studies_at_the_null(self):
        # 5000 studies at p = e^-1: 2 s_plus = 10000 on 10000 df, so s_summary is
        # -ln Q(5000, 5000); mpmath 1.3.0, 50 digits
        rep = s_summation_test(p_studies(*([math.exp(-1.0)] * 5000)))
        assert rep.s_plus.value == 5000.0
        assert rep.s_summary.value == pytest.approx(
            0.6969155399835635427499172458938962781758151554215, rel=1e-13, abs=0
        )

    def test_order_invariance(self):
        a = s_summation_test(p_studies(0.01, 0.2, 0.7))
        b = s_summation_test(p_studies(0.7, 0.01, 0.2))
        assert a.p_summary == b.p_summary
        assert a.s_plus == b.s_plus
        assert a.s_summary == b.s_summary

    def test_rejects_empty_and_effect_form(self):
        with pytest.raises(ValueError):
            s_summation_test([])
        with pytest.raises(ValueError):
            s_summation_test(effect_studies((0.3, 0.1)))

    def test_noise_nat_accounting_monte_carlo(self):
        # Under uniform nulls: E[s_plus] = K, E[s_summary] = 1, so the mean
        # shrinkage is K - 1 nats.
        k, reps = 3, 50_000
        u = 1.0 - np.random.default_rng(909).random((reps, k))
        s_plus = np.empty(reps)
        s_sum = np.empty(reps)
        for i in range(reps):
            rep = s_summation_test(p_studies(*u[i]))
            s_plus[i] = rep.s_plus.value
            s_sum[i] = rep.s_summary.value

        def within(sample, target):
            se = sample.std(ddof=1) / math.sqrt(reps)
            return abs(sample.mean() - target) < 3.0 * se

        assert within(s_plus, k)
        assert within(s_sum, 1.0)
        assert within(s_plus - s_sum, k - 1.0)


class TestZSquared:
    def test_single_z_matches_two_sided_normal(self):
        for z in (0.5, 1.0, 2.0, 3.0):
            rep = z_squared_test([z])
            assert rep.p_summary == pytest.approx(2.0 * (1.0 - normal_cdf(z)), rel=1e-10, abs=0)
            assert rep.df == 1

    def test_anchor_value(self):
        rep = z_squared_test([1.959963984540054])
        assert rep.p_summary == pytest.approx(0.05, rel=1e-10, abs=0)

    def test_zero_scores(self):
        rep = z_squared_test([0.0, 0.0])
        assert rep.statistic == 0.0
        assert rep.p_summary == 1.0
        assert rep.s_summary.value == 0.0

    def test_mixed_signs(self):
        rep = z_squared_test([1.5, -2.0])
        assert rep.statistic == pytest.approx(6.25, rel=1e-14, abs=0)
        assert rep.p_summary == pytest.approx(math.exp(-3.125), rel=1e-12, abs=0)
        assert rep.df == 2

    def test_many_unit_scores(self):
        # statistic 1e5 on 1e5 df: s_summary is -ln Q(50000, 50000); mpmath 1.3.0,
        # 50 digits
        rep = z_squared_test([1.0] * 100_000)
        assert rep.s_summary.value == pytest.approx(
            0.69433730468638594078355012274172555528268757681283, rel=1e-13, abs=0
        )

    def test_df_caveat_is_reported(self):
        assert "cross-study" in z_squared_test([1.0]).df_caveat

    def test_order_invariance_and_errors(self):
        assert z_squared_test([1.0, -2.0, 0.5]) == z_squared_test([0.5, 1.0, -2.0])
        with pytest.raises(ValueError):
            z_squared_test([])
        with pytest.raises(ValueError):
            z_squared_test([1.0, math.inf])


class TestPooled:
    def test_single_study_passes_through(self):
        rep = pooled_homogeneity_test(effect_studies((0.3, 0.1)), 0.0)
        assert rep.pooled_estimate == pytest.approx(0.3, rel=1e-14, abs=0)
        assert rep.z == pytest.approx(3.0, rel=1e-12, abs=0)
        assert rep.df == 1

    def test_hand_arithmetic_example(self):
        # weights 100 and 25: estimate 42.5/125, se 125^-1/2
        rep = pooled_homogeneity_test(effect_studies((0.3, 0.1), (0.5, 0.2)), 0.0)
        assert rep.pooled_estimate == pytest.approx(0.34, rel=1e-12, abs=0)
        assert rep.pooled_se == pytest.approx(0.08944271909999159, rel=1e-12, abs=0)
        assert rep.z == pytest.approx(3.8013155617496427, rel=1e-12, abs=0)

    def test_perfect_cancellation(self):
        rep = pooled_homogeneity_test(effect_studies((0.5, 0.1), (-0.5, 0.1)), 0.0)
        assert rep.pooled_estimate == 0.0
        assert rep.z == 0.0
        assert rep.p_two_sided == 1.0
        assert rep.s_summary.value == 0.0

    def test_null_value_shifts(self):
        rep = pooled_homogeneity_test(effect_studies((0.3, 0.1)), 0.3)
        assert rep.z == 0.0

    def test_order_invariance(self):
        a = pooled_homogeneity_test(effect_studies((0.1, 0.2), (0.4, 0.5), (-0.2, 0.3)))
        b = pooled_homogeneity_test(effect_studies((0.4, 0.5), (-0.2, 0.3), (0.1, 0.2)))
        assert a == b

    def test_errors(self):
        with pytest.raises(ValueError):
            pooled_homogeneity_test([])
        with pytest.raises(ValueError):
            pooled_homogeneity_test(p_studies(0.05))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scale_free_weights(self, scale):
        # unscaled: z = 0.34 / (1.25 ** -0.5)
        studies = effect_studies((0.3 * scale, scale), (0.5 * scale, 2 * scale))
        rep = pooled_homogeneity_test(studies)
        assert rep.z == pytest.approx(0.38013155617496425, rel=1e-15, abs=0)
        assert rep.s_summary.value == pytest.approx(0.351193192766297, rel=1e-15, abs=0)
        assert rep.pooled_se / scale == pytest.approx(0.8944271909999159, rel=1e-15, abs=0)

    def test_extreme_z_stays_finite(self):
        rep = pooled_homogeneity_test(effect_studies((5.0, 0.1)), 0.0)  # z = 50
        assert rep.p_two_sided == 0.0  # underflows
        assert math.isfinite(rep.s_summary.value)
        assert rep.s_summary.value > 1000.0


class TestCompareMethods:
    def test_single_study_agreement(self):
        cmp_ = compare_methods(effect_studies((0.3, 0.1)), 0.0)
        assert abs(cmp_.s_summation_nats - cmp_.pooled_nats) < 1e-9

    def test_homogeneous_truth_favors_pooling(self):
        cmp_ = compare_methods(effect_studies((0.3, 0.1), (0.3, 0.1)), 0.0)
        assert cmp_.pooled.z == pytest.approx(4.242640687119286, rel=1e-12, abs=0)
        assert cmp_.pooled_nats > cmp_.s_summation_nats
        assert cmp_.difference_nats > 0.0

    def test_opposed_effects_favor_s_summation(self):
        cmp_ = compare_methods(effect_studies((0.6, 0.1), (-0.6, 0.1)), 0.0)
        assert cmp_.pooled.z == 0.0
        assert cmp_.s_summation_nats > cmp_.pooled_nats

    def test_per_study_p_values_are_two_sided(self):
        cmp_ = compare_methods(effect_studies((0.3, 0.1), (0.3, 0.1)), 0.0)
        # each study sits at z = 3
        assert cmp_.s_summation.s_plus.value == pytest.approx(
            -2.0 * math.log(2.0 * normal_cdf(-3.0)), rel=1e-12, abs=0
        )
        # the S-summation half is s_summation_test on those P-values, to the bit
        rng = np.random.default_rng(41)
        ses = rng.uniform(0.05, 2.0, size=1000)
        studies = effect_studies(*zip(rng.normal(0.1, 1.0, size=1000) * ses, ses))
        cmp_ = compare_methods(studies)
        as_p = [
            StudyResult.from_p(st.id, 2 * normal_cdf(-abs(st.estimate / st.std_error)))
            for st in studies
        ]
        assert cmp_.s_summation == s_summation_test(as_p)


class TestCsvIngestion:
    def test_p_form(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,p\na,0.05\nb,0.2\n", encoding="utf-8")
        studies = studies_from_csv(f)
        assert [st.id for st in studies] == ["a", "b"]
        assert studies[0].p.value == 0.05

    def test_effect_form(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("id,estimate,std_error\na,0.3,0.1\nb,-0.5,0.25\n", encoding="utf-8")
        studies = studies_from_csv(f)
        assert studies[1].estimate == -0.5
        assert studies[1].std_error == 0.25

    def test_header_case_and_blank_lines_tolerated(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("ID,P\na,0.5\n\n", encoding="utf-8")
        assert len(studies_from_csv(f)) == 1

    @pytest.mark.parametrize(
        "body",
        [
            "study,pvalue\na,0.05\n",  # wrong column names
            "id,p\na\n",  # missing field
            "id,p\na,zero\n",  # non-numeric
            "id,p\na,0\n",  # p out of domain
            "",  # empty file
            "id,p\n",  # header only
        ],
    )
    def test_schema_errors(self, tmp_path, body):
        f = tmp_path / "bad.csv"
        f.write_text(body, encoding="utf-8")
        with pytest.raises(SchemaError):
            studies_from_csv(f)

    def test_schema_error_names_expected_columns(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="id,estimate,std_error"):
            studies_from_csv(f)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            studies_from_csv(tmp_path / "nope.csv")
