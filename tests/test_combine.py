"""Evidence-combination tests: worked values, invariants, noise accounting."""

import copy
import csv
import math
import pickle
import random
import re
from array import array
from collections.abc import Sequence

import pytest

from svalue import combine
from svalue.combine import (
    Z_SQUARED_DF_CAVEAT,
    SchemaError,
    Study,
    StudyTable,
    compare_methods,
    pooled_homogeneity_test,
    s_summation_test,
    studies_from_csv,
    z_squared_test,
)
from svalue.units import PValue

from oracles import chisq_survival_closed_form_even, phi, studies_from_csv_by_rows


def ids(k):
    return [f"s{i}" for i in range(k)]


def p_studies(*ps):
    return StudyTable.from_columns(ids(len(ps)), ps)


def effect_studies(*pairs):
    return StudyTable.from_columns(ids(len(pairs)), [e for e, _ in pairs], [se for _, se in pairs])


def write_studies(path, header, rows):
    """A study CSV with ids s0, s1, ... and each value written by repr (exact round trip)."""
    lines = [header] + [",".join([f"s{i}", *map(repr, row)]) for i, row in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestStudyResult:
    """StudyTable.from_columns checks the result each study reports, as the CSV reader does."""

    def test_exactly_one_evidence_form(self):
        for columns in ((), ([0.2], [1.0], [0.5])):
            with pytest.raises(TypeError, match="either p or estimate, std_error"):
                StudyTable.from_columns(["x"], *columns)

    def test_std_error_positive(self):
        for se in (0.0, -0.3, math.nan, math.inf):
            with pytest.raises(ValueError, match="^study 'x' std_error must be a positive finite"):
                StudyTable.from_columns(["x"], [1.0], [se])

    @pytest.mark.parametrize("estimate", [math.nan, math.inf, -math.inf])
    def test_estimate_finite(self, estimate):
        with pytest.raises(ValueError, match="^study 'x' estimate must be finite$"):
            StudyTable.from_columns(["x"], [estimate], [1.0])

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_p_in_unit_interval(self, p):
        message = re.escape(f"P-value must lie in the half-open interval (0, 1], got {p!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            StudyTable.from_columns(["a", "x"], [0.5, p])

    @pytest.mark.parametrize("columns", [([],), ([], [])])
    def test_empty_input_rejected(self, columns):
        with pytest.raises(ValueError, match="^a StudyTable needs at least one study$"):
            StudyTable.from_columns([], *columns)

    @pytest.mark.parametrize("columns", [([0.5],), ([0.1, 0.2], [1.0]), ([0.1], [1.0, 2.0])])
    def test_unequal_lengths_rejected(self, columns):
        with pytest.raises(ValueError, match="^2 ids but columns of"):
            StudyTable.from_columns(["a", "b"], *columns)

    @pytest.mark.parametrize("ids, message", [
        ("ab", "^from_columns takes a sequence of str ids, not str$"),
        (b"ab", "^from_columns takes a sequence of str ids, not bytes$"),
        ([1, None], "^study ids must be str, got 1$"),
        (["a", None], "^study ids must be str, got None$"),
        (("a", b"b"), "^study ids must be str, got b'b'$"),
    ])
    def test_ids_must_be_str(self, ids, message):
        with pytest.raises(TypeError, match=message):
            StudyTable.from_columns(ids, [0.1, 0.2])


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

    @pytest.mark.numpy
    def test_order_invariance(self):
        import numpy as np
        a = s_summation_test(p_studies(0.01, 0.2, 0.7))
        b = s_summation_test(p_studies(0.7, 0.01, 0.2))
        assert a.p_summary == b.p_summary
        assert a.s_plus == b.s_plus
        assert a.s_summary == b.s_summary
        # the surprisals are summed exactly rounded, so any order gives the same bits
        rng = np.random.default_rng(97)
        ps = 1.0 - rng.random(10_000)
        shuffled = p_studies(*ps[rng.permutation(len(ps))])
        assert s_summation_test(p_studies(*ps)) == s_summation_test(shuffled)

    def test_rejects_empty_and_effect_form(self):
        with pytest.raises(ValueError):
            p_studies()
        with pytest.raises(SchemaError):
            s_summation_test(effect_studies((0.3, 0.1)))

    @pytest.mark.numpy
    def test_noise_nat_accounting_monte_carlo(self):
        import numpy as np
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
            assert rep.p_summary == pytest.approx(2.0 * (1.0 - phi(z)), rel=1e-10, abs=0)
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

    def test_caveat_is_reported_in_notes(self):
        assert z_squared_test([1.0]).notes == (Z_SQUARED_DF_CAVEAT,)
        assert "cross-study" in Z_SQUARED_DF_CAVEAT

    def test_order_invariance_and_errors(self):
        assert z_squared_test([1.0, -2.0, 0.5]) == z_squared_test([0.5, 1.0, -2.0])
        with pytest.raises(ValueError):
            z_squared_test([])
        with pytest.raises(ValueError):
            z_squared_test([1.0, math.inf])

    @pytest.mark.parametrize("z_scores", [[1e300, 1.0], [1e154] * 3])
    def test_overflowing_sum_raises(self, z_scores):
        with pytest.raises(OverflowError, match="sum of squared z-scores overflows"):
            z_squared_test(z_scores)


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
            effect_studies()
        with pytest.raises(SchemaError):
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

    def test_overflowing_z_raises(self):
        with pytest.raises(OverflowError):
            pooled_homogeneity_test(effect_studies((1e308, 1e-308), (1.0, 1.0)))

    def test_overflowing_z_squared_raises(self):
        with pytest.raises(OverflowError, match=r"^the S-value at z = 1e\+200 overflows"):
            pooled_homogeneity_test(effect_studies((1e200, 1.0)))

    @pytest.mark.parametrize("test", [pooled_homogeneity_test, compare_methods])
    def test_overflowing_pooled_z_is_named(self, test):
        # each study's z is 1.7e308, finite; the pooled z, 1.7e308 sqrt 3, is not
        message = "the pooled z-score (pooled estimate - null) / pooled se overflows"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            test(effect_studies(*[(1.7e308, 1.0)] * 3))

    @pytest.mark.parametrize("test", [pooled_homogeneity_test, compare_methods])
    @pytest.mark.parametrize("null", [math.nan, math.inf, -math.inf])
    def test_non_finite_null_rejected(self, test, null):
        with pytest.raises(ValueError, match="null value must be finite"):
            test(effect_studies((0.3, 0.1), (0.5, 0.2)), null)


class TestCompareMethods:
    def test_single_study_agreement(self):
        cmp_ = compare_methods(effect_studies((0.3, 0.1)), 0.0)
        assert abs(cmp_.s_summation_nats - cmp_.pooled.s_summary.value) < 1e-9

    @pytest.mark.parametrize("estimate", [1e-8, 1e-6, 0.3, -2.5, 40.0])
    def test_single_study_s_plus_is_the_pooled_s_to_the_bit(self, estimate):
        # both take the study's two-sided tail from one kernel, so they agree to the bit
        cmp_ = compare_methods(effect_studies((estimate, 1.0)))
        assert cmp_.s_summation.s_plus.value == cmp_.pooled.s_summary.value
        assert cmp_.pooled.p_two_sided == math.erfc(abs(estimate) / math.sqrt(2.0))

    def test_homogeneous_truth_favors_pooling(self):
        cmp_ = compare_methods(effect_studies((0.3, 0.1), (0.3, 0.1)), 0.0)
        assert cmp_.pooled.z == pytest.approx(4.242640687119286, rel=1e-12, abs=0)
        assert cmp_.pooled.s_summary.value > cmp_.s_summation_nats
        assert cmp_.difference_nats > 0.0

    def test_opposed_effects_favor_s_summation(self):
        cmp_ = compare_methods(effect_studies((0.6, 0.1), (-0.6, 0.1)), 0.0)
        assert cmp_.pooled.z == 0.0
        assert cmp_.s_summation_nats > cmp_.pooled.s_summary.value

    @pytest.mark.numpy
    def test_per_study_p_values_are_two_sided(self):
        import numpy as np
        cmp_ = compare_methods(effect_studies((0.3, 0.1), (0.3, 0.1)), 0.0)
        # each study sits at z = 3
        assert cmp_.s_summation.s_plus.value == pytest.approx(
            -2.0 * math.log(2.0 * phi(-3.0)), rel=1e-12, abs=0
        )
        # the S-summation half is s_summation_test on those P-values, to the bit
        rng = np.random.default_rng(41)
        ses = rng.uniform(0.05, 2.0, size=1000)
        studies = effect_studies(*zip(rng.normal(0.1, 1.0, size=1000) * ses, ses))
        cmp_ = compare_methods(studies)
        as_p = p_studies(*(2 * phi(-abs(st.estimate / st.std_error)) for st in studies))
        assert cmp_.s_summation == s_summation_test(as_p)

    @pytest.mark.numpy
    def test_order_invariance(self):
        import numpy as np
        rng = np.random.default_rng(98)
        ses = rng.uniform(0.05, 2.0, size=10_000)
        pairs = list(zip(rng.normal(0.1, 1.0, size=10_000) * ses, ses))
        shuffled = effect_studies(*(pairs[i] for i in rng.permutation(len(pairs))))
        assert compare_methods(effect_studies(*pairs)) == compare_methods(shuffled)

    def test_overflowing_study_z_names_the_study(self):
        # the pooled z is 1e300, finite; study a's own z is 1e310
        studies = StudyTable.from_columns(["a", "b"], [1e300, 0.0], [1e-10, 1e-20])
        with pytest.raises(OverflowError, match=r"^study 'a': the z-score .* overflows$"):
            compare_methods(studies)

    def test_overflowing_study_z_squared_names_the_study(self):
        # the pooled z is 0; each study's z is finite, but the first one's square overflows
        studies = effect_studies((1.4e154, 1.0), (-1.4e154, 1.0))
        message = "study 's0': the S-value at z = 1.4e+154 overflows: z^2 is past the largest double"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            compare_methods(studies)

    @pytest.mark.parametrize("rows, message", [
        ([(1e200, 1.0)], "the S-value at z = 1e+200 overflows"),  # the pooled z's square
        # the pooled z is 0, but the two studies' 2 s_k sum past the largest double
        ([(1.3e154, 1.0), (-1.3e154, 1.0)], "the S-summation statistic 2 s_plus overflows"),
    ])
    def test_overflowing_s_value_is_refused(self, rows, message):
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}"):
            compare_methods(effect_studies(*rows))


def effect_columns(rnd, k, scale=1.0):
    """Seeded estimates and std errors of K studies, each std error in (1/e, e) times scale."""
    se = [math.exp(rnd.uniform(-1.0, 1.0)) * scale for _ in range(k)]
    delta = rnd.choice([0.0, 0.3, 3.0])  # the true z of every study, before its noise
    return [(delta + rnd.gauss(0.0, 1.0)) * s for s in se], se


class TestCombineIdentities:
    """Identities that tie the routes to each other; every sum in them is an fsum."""

    @pytest.mark.parametrize("seed", range(20))
    def test_records_do_not_depend_on_study_order(self, seed):
        rnd = random.Random(f"order/{seed}")
        k = rnd.randint(1, 1000)
        ps = [1.0 - rnd.random() for _ in range(k)]
        estimates, std_errors = effect_columns(rnd, k, rnd.choice([1e-200, 1.0, 1e200]))
        order = rnd.sample(range(k), k)

        def records(ps, estimates, std_errors):
            effects = StudyTable.from_columns(ids(k), estimates, std_errors)
            return (s_summation_test(StudyTable.from_columns(ids(k), ps)),
                    z_squared_test([e / se for e, se in zip(estimates, std_errors)]),
                    pooled_homogeneity_test(effects), compare_methods(effects))

        shuffled = ([col[i] for i in order] for col in (ps, estimates, std_errors))
        assert records(ps, estimates, std_errors) == records(*shuffled)

    def test_z2_statistic_is_pooled_z_squared_plus_cochran_q(self):
        # sum z_k^2 = z_pooled^2 + Q, with Q = sum w (e - pooled estimate)^2 and w = 1 / se^2,
        # Cochran's heterogeneity statistic on K - 1 df
        worst = 0.0
        for i in range(200):
            rnd = random.Random(f"partition/{i}")
            k = (2, 1000)[i] if i < 2 else round(math.exp(rnd.uniform(math.log(2), math.log(1000))))
            estimates, std_errors = effect_columns(rnd, k)
            if i % 4 == 0:  # estimates near 1e150, z^2 near 1e300
                estimates = [e * 1e150 for e in estimates]
            pooled = pooled_homogeneity_test(StudyTable.from_columns(ids(k), estimates, std_errors))
            q = math.fsum(1.0 / se**2 * (e - pooled.pooled_estimate) ** 2
                          for e, se in zip(estimates, std_errors))
            z2 = z_squared_test([e / se for e, se in zip(estimates, std_errors)]).statistic
            worst = max(worst, abs(z2 - (pooled.z**2 + q)) / z2)
        assert worst <= 2e-15


class TestCsvIngestion:
    def test_p_form(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,p\na,0.05\nb,0.2\n", encoding="utf-8")
        studies = studies_from_csv(f)
        assert list(studies) == [Study("a", 0.05), Study("b", 0.2)]

    def test_effect_form(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("id,estimate,std_error\na,0.3,0.1\nb,-0.5,0.25\n", encoding="utf-8")
        assert list(studies_from_csv(f)) == [Study("a", None, 0.3, 0.1),
                                             Study("b", None, -0.5, 0.25)]

    @pytest.mark.parametrize("body", ["id,p\na,0.05\n", "id,estimate,std_error\na,0.3,0.1\n"])
    def test_utf8_byte_order_mark_accepted(self, tmp_path, body):
        # spreadsheet tools export CSV with a leading BOM
        f = tmp_path / "bom.csv"
        f.write_text(body, encoding="utf-8-sig")
        assert studies_from_csv(f).ids == ("a",)

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

    @pytest.mark.parametrize("body,line", [
        ("id,p\n{big},0.5\n", 2),  # oversized field in a data row
        ("{big},p\na,0.5\n", 1),  # oversized field in the header
    ])
    def test_oversized_field_is_schema_error(self, tmp_path, body, line):
        limit = csv.field_size_limit()
        f = tmp_path / "big.csv"
        f.write_text(body.format(big="a" * (limit + 1)), encoding="utf-8")
        expected = rf"^line {line}: field larger than field limit \({limit}\)$"
        with pytest.raises(SchemaError, match=expected):
            studies_from_csv(f)

    @pytest.mark.parametrize("body,message", [
        ('id,p\n"a\nb",0.5\nc,zero\n', "line 4: could not convert string to float: 'zero'"),
        ('id,p\n"a\nb",0.5\nc,0.5,9\n', "line 4: expected 2 fields, got 3"),
        ('id,estimate,std_error\n"a\nb",0.3,0.1\n\nc,0.3,0\n',
         "line 5: study 'c' std_error must be a positive finite number"),
        ('id,p\n"a\nb",0.5\n , \nc,zero\n', "line 5: could not convert string to float: 'zero'"),
    ], ids=["value", "field-count", "effect-after-blank-line", "value-after-blank-cells"])
    def test_error_names_physical_line_after_multiline_field(self, tmp_path, body, message):
        f = tmp_path / "multi.csv"
        f.write_text(body, encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            studies_from_csv(f)

    ROWS = b"".join(b"s%d,0.5\n" % i for i in range(100_000))  # about 1.1 MB, 17 blocks

    @pytest.mark.parametrize("data, line, byte, reason", [
        (b"id,p\n" + ROWS + b"x\xff,0.2\n", 100_002, "0xff", "invalid start byte"),
        (b"\xef\xbb\xbfid,p\r" + ROWS.replace(b"\n", b"\r") + b"x,0.2\rx\xe9,0.2\r",
         100_003, "0xe9", "invalid continuation byte"),
        (b'id,p\n"a\nb",0.5\n' + ROWS + b"x,0.2\xc3", 100_004, "0xc3", "unexpected end of data"),
        (b"id,p\xa0\n" + ROWS, 1, "0xa0", "invalid start byte"),
    ], ids=["bulk-block", "bom-and-cr", "row-loop", "header"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, data, line, byte, reason):
        f = tmp_path / "latin.csv"
        f.write_bytes(data)
        message = f"line {line}: byte {byte} is not UTF-8 ({reason})"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            studies_from_csv(f)

    @pytest.mark.parametrize("body", [
        "id,p\n,\na,0.5\n , \n , , \nb,0.25\n,\n",
        "id,estimate,std_error\n,,\na,0.3,0.1\n , , \n,\nb,-0.5,0.25\n",
    ], ids=["p", "effect"])
    def test_rows_of_blank_cells_are_skipped(self, tmp_path, body):
        f = tmp_path / "blank.csv"
        f.write_text(body, encoding="utf-8")
        assert [st.id for st in studies_from_csv(f)] == ["a", "b"]

    def test_one_empty_cell_is_a_value_error(self, tmp_path):
        f = tmp_path / "empty-cell.csv"
        f.write_text("id,p\na,0.5\nb,\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"^line 3: could not convert string to float: ''$"):
            studies_from_csv(f)

    def test_schema_error_names_expected_columns(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="id,estimate,std_error"):
            studies_from_csv(f)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            studies_from_csv(tmp_path / "nope.csv")


def plain_lines(form, seed, estimate=None):
    """Seeded plain rows, each line ended by a newline, that fill two full blocks of the
    reader and at least 2000 characters more; every estimate is `estimate` if one is given."""
    rnd, lines, chars = random.Random(f"{form}/{seed}"), [], 0
    while chars <= 2 * combine._BLOCK_CHARS + 2000:
        if form == "p":
            line = f"s{len(lines)},{1.0 - rnd.random()!r}\n"
        else:
            se = math.exp(rnd.uniform(-3.0, 3.0))
            line = f"s{len(lines)},{estimate or rnd.gauss(0.0, 1.0) * se!r},{se!r}\n"
        lines.append(line)
        chars += len(line)
    return lines


def block_starts(lines):
    """The indices of the lines that start a block after the header: readlines stops once
    its lines pass the size hint."""
    starts, chars = [0], 0
    for i, line in enumerate(lines):
        chars += len(line)
        if chars > combine._BLOCK_CHARS:
            starts.append(i + 1)
            chars = 0
    return starts


def read_both(path):
    """The table or the SchemaError text that the library reader and the row-loop reference
    give for `path`, checked to be the same."""
    results = []
    for read in (studies_from_csv, studies_from_csv_by_rows):
        try:
            table = read(path)
            results.append((table.ids, [bytes(col) for col in table.columns]))
        except SchemaError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    return results[0]


HEADERS = {"p": "id,p", "effect": "id,estimate,std_error"}
LIMIT = csv.field_size_limit()
IRREGULAR = {  # one line that the block reader must leave to the csv row loop
    "p": {
        "blank-line": "\n",
        "blank-cells": " , \n",
        "quoted-id": '"x,\ny",0.5\n',
        "quoted-plain-id": '"x ""y""",0.5\n',  # csv reads the id x "y"
        "field-over-limit": "x" * (LIMIT + 1) + ",0.5\n",
        "line-over-limit": "x" * (LIMIT - 1) + ",0.5\n",
        "p-zero": "x,0\n",
        "p-nan": "x,nan\n",
        "p-underflows": "x,1e-400\n",
        "not-a-number": "x,zero\n",
        "nul-in-p": "x,0.5\0\n",
        "three-fields": "x,0.5,9\n",
        "one-field": "x\n",
    },
    "effect": {
        "blank-cells": ",,\n",
        "quoted-id": '"x,\ny",0.3,0.1\n',
        "quoted-plain-id": '"x ""y""",0.3,0.1\n',
        "se-zero": "x,0.3,0\n",
        "estimate-inf": "x,inf,1\n",
        "two-fields": "x,0.3\n",
    },
}


class TestCsvBlocks:
    """studies_from_csv reads blocks of plain rows in bulk; what it reads equals the csv row
    loop's reading of the whole file, table or error, wherever the first irregular line is."""

    @pytest.mark.parametrize("form, kind", [(f, k) for f in IRREGULAR for k in IRREGULAR[f]])
    @pytest.mark.parametrize("where", ["block-start", "mid-block", "last-line"])
    def test_irregular_line_after_two_blocks(self, tmp_path, form, kind, where):
        lines = plain_lines(form, kind)
        at = block_starts(lines)[2] + (where == "mid-block") * 7
        if where == "last-line":
            lines = lines[:at]
        lines.insert(at, IRREGULAR[form][kind])
        path = tmp_path / "s.csv"
        path.write_text(HEADERS[form] + "\n" + "".join(lines), encoding="utf-8", newline="")
        read_both(path)

    @pytest.mark.parametrize("form", ["p", "effect"])
    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("kind", ["plain", "blank-cells", "quoted-id"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_line_endings(self, tmp_path, form, end, kind, final_newline):
        lines = plain_lines(form, end)
        if kind != "plain":
            lines.insert(block_starts(lines)[2], IRREGULAR[form][kind])
        text = (HEADERS[form] + "\n" + "".join(lines)).replace("\n", end)
        path = tmp_path / "s.csv"
        path.write_text(text if final_newline else text.removesuffix(end), encoding="utf-8",
                        newline="")
        ids_, _ = read_both(path)
        assert len(ids_) == len(lines) - (kind == "blank-cells")

    @pytest.mark.parametrize("estimate", [1e308, -1e308])
    def test_estimates_whose_plain_sum_overflows(self, tmp_path, estimate):
        lines = plain_lines("effect", "huge", estimate=estimate)
        path = tmp_path / "s.csv"
        path.write_text("id,estimate,std_error\n" + "".join(lines), encoding="utf-8")
        ids_, (estimates, _) = read_both(path)
        assert len(ids_) == len(lines) and set(array("d", estimates)) == {estimate}

    def test_error_names_the_physical_line_after_bulk_blocks(self, tmp_path):
        lines = plain_lines("p", "lines")
        lines.insert(block_starts(lines)[2] + 3, '"x\ny",0.5\n')
        lines.append("x,zero\n")
        path = tmp_path / "s.csv"
        path.write_text("id,p\n" + "".join(lines), encoding="utf-8")
        line = len(lines) + 2  # the header, and the quoted id's second line
        assert read_both(path) == f"line {line}: could not convert string to float: 'zero'"

    @pytest.mark.parametrize("body, ids", [
        ("id,p\n a ,0.05\nb , 0.2\n", ("a", "b")),
        ('id,p\n"q",0.5\n a ,0.05\n', ("q", "a")),
        (" ID , P \n a ,0.05\nb , 0.2\n", ("a", "b")),
    ], ids=["bulk-block", "after-irregular-line", "header"])
    def test_ids_and_header_names_are_stripped(self, tmp_path, body, ids):
        path = tmp_path / "s.csv"
        path.write_text(body, encoding="utf-8")
        assert read_both(path)[0] == ids

    # csv reads a line that holds NUL as the block reader's split does
    @pytest.mark.parametrize("form, line", [("p", ""), ("effect", ""), ("p", "x\0y,0.5\n")],
                             ids=["p", "effect", "p-nul-in-id"])
    def test_plain_file_builds_no_csv_rows_past_the_header(self, tmp_path, monkeypatch, form,
                                                           line):
        lines = plain_lines(form, "count")
        if line:
            lines.insert(block_starts(lines)[1] + 7, line)
        path = tmp_path / "s.csv"
        path.write_text(HEADERS[form] + "\n" + "".join(lines), encoding="utf-8")
        ids_, _ = read_both(path)
        assert ids_.count("x\0y") == bool(line)
        rows, csv_reader = [], csv.reader

        class CountingReader:
            def __init__(self, lines):
                self.reader = csv_reader(lines)

            def __iter__(self):
                return self

            def __next__(self):
                rows.append(next(self.reader))
                return rows[-1]

            @property
            def line_num(self):
                return self.reader.line_num

        monkeypatch.setattr(combine.csv, "reader", CountingReader)
        assert len(studies_from_csv(path)) == len(lines)
        assert rows == [HEADERS[form].split(",")]


class TestStudyTable:
    """A StudyTable holds read-only columns; it has a length and iterates as Study rows."""

    @pytest.mark.parametrize("body, by_hand", [
        ("id,p\na,0.05\nb,0.2\nc,1\n", [Study("a", 0.05), Study("b", 0.2), Study("c", 1.0)]),
        ("id,estimate,std_error\na,0.3,0.1\nb,-0.5,0.25\nc,0,2\n",
         [Study("a", None, 0.3, 0.1), Study("b", None, -0.5, 0.25), Study("c", None, 0.0, 2.0)]),
    ], ids=["p", "effect"])
    def test_sequence_behaviour(self, tmp_path, body, by_hand):
        f = tmp_path / "t.csv"
        f.write_text(body, encoding="utf-8")
        table = studies_from_csv(f)
        assert isinstance(table, StudyTable) and not isinstance(table, Sequence)
        assert len(table) == 3
        assert list(table) == by_hand and list(table) == by_hand  # each pass starts afresh
        assert by_hand[2] in table and Study("z", 0.5) not in table
        with pytest.raises(TypeError):
            table[0]

    @pytest.mark.parametrize("columns", [
        ([0.5, 1e-300, 1.0],),
        ([0.3, -1e300, 0.0], [0.1, 1e-300, 2.0]),
    ], ids=["p", "effect"])
    def test_iteration_gives_the_indexed_rows(self, columns):
        table = StudyTable.from_columns(["a", "b", "c"], *columns)
        rows = list(table)
        if len(columns) == 1:
            assert rows == [Study(id_, p) for id_, p in zip(table.ids, *columns)]
        else:
            assert rows == [Study(id_, None, e, se) for id_, e, se in zip(table.ids, *columns)]
        assert all(type(row) is Study for row in rows)

    def test_read_only(self, tmp_path):
        table = studies_from_csv(write_studies(tmp_path / "p.csv", "id,p", [(0.5,), (0.25,)]))
        with pytest.raises(TypeError):
            table.columns[0][0] = 0.125
        with pytest.raises(AttributeError):
            table.ids = ("x", "y")
        with pytest.raises(AttributeError):
            del table.columns
        assert table.ids == ("s0", "s1") and list(table.columns[0]) == [0.5, 0.25]
        with pytest.raises(TypeError):
            StudyTable.from_columns(["a"], [0.5]).columns[0][0] = 0.125

    @pytest.mark.parametrize("ids, columns", [
        (("a",), ([0.0],)),  # a list column, and a P-value that from_columns would refuse
        (("a", "b"), ([0.5],)),  # one value for two ids
        (("a", "b"), (memoryview(array("d", [0.5])).toreadonly(),)),
        (("a",), (memoryview(array("d", [0.5])),)),  # writable
        (("a",), (memoryview(array("f", [0.5])).toreadonly(),)),
        (("a",), ()),
        ((), (memoryview(array("d")).toreadonly(),)),
        # builder-shaped columns whose P-values from_columns would refuse
        (("a", "b"), (memoryview(array("d", [math.nan, 2.0])).toreadonly(),)),
        # the columns of a table that the builders made
        (("a",), StudyTable.from_columns(["a"], [0.5]).columns),
    ])
    def test_bare_constructor_takes_only_builder_columns(self, ids, columns):
        with pytest.raises(TypeError, match="studies_from_csv or StudyTable.from_columns$"):
            StudyTable(ids, columns)
        with pytest.raises(TypeError, match="studies_from_csv or StudyTable.from_columns$"):
            StudyTable(ids=ids, columns=columns)

    @pytest.mark.parametrize("header, rows", [
        ("id,p", [(0.5,), (1e-300,), (1.0,)]),
        ("id,estimate,std_error", [(0.3, 0.1), (-1e300, 1e-300), (0.0, 2.0)]),
    ], ids=["p", "effect"])
    def test_from_columns_round_trips(self, tmp_path, header, rows):
        table = studies_from_csv(write_studies(tmp_path / "t.csv", header, rows))
        rebuilt = StudyTable.from_columns(table.ids, *table.columns)
        assert list(rebuilt) == list(table)
        assert rebuilt.ids == table.ids and rebuilt.columns == table.columns

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
        lambda t: pickle.loads(pickle.dumps(t, protocol=0)),
    ], ids=["copy", "deepcopy", "pickle", "pickle-0"])
    @pytest.mark.parametrize("columns", [
        ([0.5, 1e-300, 1.0],),
        ([0.3, -1e300, 0.0], [0.1, 1e-300, 2.0]),
    ], ids=["p", "effect"])
    def test_copies_and_pickles_as_a_checked_table(self, monkeypatch, copier, columns):
        table = StudyTable.from_columns(["a", "b", "c"], *columns)
        checked, check = [], combine._check_studies
        monkeypatch.setattr(combine, "_check_studies",
                            lambda ids, cols: checked.append(ids) or check(ids, cols))
        twin = copier(table)
        assert type(twin) is StudyTable and twin is not table
        assert checked == [("a", "b", "c")]  # rebuilt through from_columns' check
        assert twin.ids == table.ids and twin.columns == table.columns
        assert [list(col) for col in twin.columns] == [list(col) for col in columns]
        with pytest.raises(AttributeError, match="read-only"):
            twin.ids = ("x", "y", "z")
        with pytest.raises(TypeError):
            twin.columns[0][0] = 0.125

    def test_reading_and_combining_build_no_study_objects(self, tmp_path, monkeypatch):
        built = []

        def counting_new(cls, *args, new=Study.__new__):
            built.append(cls.__name__)
            return new(cls, *args)

        def counting_check(cls, *args, new=PValue.__new__):
            built.append(cls.__name__)
            return new(cls, *args)

        monkeypatch.setattr(Study, "__new__", counting_new)
        monkeypatch.setattr(PValue, "__new__", counting_check)
        p_file = write_studies(tmp_path / "p.csv", "id,p", [(0.5,), (0.01,), (1.0,)])
        e_file = write_studies(tmp_path / "e.csv", "id,estimate,std_error", [(0.3, 0.1), (-1, 2)])
        s_summation_test(studies_from_csv(p_file))
        effects = studies_from_csv(e_file)
        pooled_homogeneity_test(effects)
        compare_methods(effects)
        s_summation_test(StudyTable.from_columns(["a", "b"], [0.5, 0.01]))
        assert built == []
        list(studies_from_csv(p_file))  # rows are built on access, with no P-value check
        assert built == ["Study"] * 3

    def test_wrong_form_names_route_and_columns(self, tmp_path):
        p_table = studies_from_csv(write_studies(tmp_path / "p.csv", "id,p", [(0.5,), (0.25,)]))
        e_table = StudyTable.from_columns(["a"], [0.3], [0.1])
        for route, table, need, have in [
            (s_summation_test, e_table, "id,p", "id,estimate,std_error"),
            (pooled_homogeneity_test, p_table, "id,estimate,std_error", "id,p"),
            (compare_methods, p_table, "id,estimate,std_error", "id,p"),
        ]:
            message = f"{route.__name__} needs columns {need}; the studies carry {have}"
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                route(table)

    @pytest.mark.parametrize("route", [s_summation_test, pooled_homogeneity_test, compare_methods])
    @pytest.mark.parametrize("studies", [[Study("a", 0.5)], [], (0.5,)],
                             ids=["rows", "empty", "tuple"])
    def test_non_table_is_type_error(self, route, studies):
        message = f"^{route.__name__} takes a StudyTable, not .*StudyTable.from_columns$"
        with pytest.raises(TypeError, match=message):
            route(studies)
