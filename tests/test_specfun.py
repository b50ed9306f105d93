"""Special-function kernels against exact closed forms and quadrature."""

import math
import random
import re

import pytest

from svalue import specfun
from svalue.specfun import (
    ChiSquare,
    ConvergenceError,
    _two_sided_tail,
    log_chisq_survival,
    log_reg_gamma_upper,
    normal_quantile,
)

from oracles import chisq_survival_by_quadrature, chisq_survival_closed_form_even, phi


# ln Q(a, x) near x = a for large a: mpmath 1.3.0 at 90 digits (gammainc, lower
# form below x = a), rounded to 50. The loops need ~9 sqrt(a) terms here, and
# the prefactor's terms of size a ln a cancel.
LOG_Q_LARGE_A = {
    (5000.0, 4950.0): -0.27506851136580695489409594415954911338669486601301,
    (5000.0, 5000.0): -0.6969155399835635427499172458938962781758151554215,
    (5000.0, 5050.0): -1.4312276067625471021089698977333386075932800159778,
    (50000.0, 49500.0): -0.012556823600440990854522806155618353398457729492105,
    (50000.0, 50000.0): -0.69433730468638594078355012274172555528268757681283,
    (50000.0, 50500.0): -4.3529463642126476337034854082797605644361497199061,
    (500000.0, 495000.0): -6.5001711800879502791582936914541105221957188967102e-13,
    (500000.0, 500000.0): -0.69352337770643015067220255111095705432555967457573,
    (500000.0, 505000.0): -27.728796160458735457243163067354704730275768083671,
    (5000000.0, 4950000.0): -8.8644602711023137375954374079585345125211493113489e-112,
    (5000000.0, 5000000.0): -0.69326612924193497002132127157116366712252285730637,
    (5000000.0, 5050000.0): -252.37398669756333412691426001330303498708753294806,
}

# ln Q(a, x) past x = 2^54, where the continued fraction's b += 2 no longer
# changes b: mpmath 1.3.0 at 60 digits (log of the upper gammainc), rounded to 25.
LOG_Q_HUGE_X = {
    (0.5, 2.4e16): -24000000000000019.43078006,
    (1.5, 2.4e16): -23999999999999981.02080265,
    (50.0, 2.4e16): -23999999999998296.44106291,
    (1e4, 2.4e16): -23999999999704969.13207408,
    (0.5, 2.0**54): -18014398509482003.28733882,
    (1.5, 2.0**54): -18014398509481965.16424389,
    (50.0, 2.0**54): -18014398509480294.49830418,
    (1e4, 2.0**54): -18014398509189821.66994182,
    (0.5, 1e20): -100000000000000000023.5982,
    (1.5, 1e20): -99999999999999999976.85337,
    (50.0, 1e20): -99999999999999997888.03235,
    (1e4, 1e20): -99999999999999621628.7506,
    (0.5, 1e300): -1.00000000000000005250476e300,
    (1.5, 1e300): -1.00000000000000005250476e300,
    (50.0, 1e300): -1.00000000000000005250476e300,
    (1e4, 1e300): -1.00000000000000005250476e300,
}

# ln Q(a, x) just past x = a + 1, where the continued fraction's first factors are
# far from 1, so updating h by h + h (factor - 1) there loses digits (3.8e-12 at
# a = 1e6), and at the edges of its region: a near 0, deep tails at small and large a,
# and x = a + 1 at small and large a. Lentz's iteration has no guard against a zero
# denominator; each one stays >= b_i / 2 (see _upper_cf_factor). mpmath 1.3.0 at 90
# digits (log of the upper gammainc), rounded to 30.
LOG_Q_CF_START = {
    (100.0, 101.0): -0.804964705538389347482342019227,
    (1000.0, 1001.5): -0.740460833484264798232381823438,
    (7305.0, 7309.11): -0.73548492038887682779679288678,
    (50000.0, 50010.0): -0.730699924588464815036200178912,
    (1000000.0, 1000002.0): -0.695010643579944110703756664823,
    (1e-300, 1.0): -692.292459857215750791203379313,
    (3.5, 1e10): -9999999943.63634627724593212436,
    (20.0, 21.0): -0.956428657651069417964457775834,
    (1e6, 1e6 + 1): -0.694211592329349803551824297526,
    (1e12, 1e13): -6697414907022.88598965051391833,
}


class TestRegGammaUpper:
    def test_at_zero(self):
        assert math.exp(log_reg_gamma_upper(1.0, 0.0)) == 1.0
        assert math.exp(log_reg_gamma_upper(7.3, 0.0)) == 1.0

    def test_exponential_case(self):
        # Q(1, x) = exp(-x)
        q = math.exp(log_reg_gamma_upper(1.0, 2.0))
        assert q == pytest.approx(math.exp(-2.0), rel=1e-12, abs=0)

    def test_integer_shape_closed_form(self):
        # Q(2, 3) = (1 + 3) e^-3
        q = math.exp(log_reg_gamma_upper(2.0, 3.0))
        assert q == pytest.approx(4.0 * math.exp(-3.0), rel=1e-12, abs=0)

    def test_integer_shape_poisson_sum(self):
        for a in (1, 2, 3, 5, 10):
            for x in (0.1, 0.9, 2.0, 7.5, 30.0):
                term, acc = 1.0, 1.0
                for j in range(1, a):
                    term *= x / j
                    acc += term
                assert math.exp(log_reg_gamma_upper(float(a), x)) == pytest.approx(
                    math.exp(-x) * acc, rel=1e-12, abs=0
                )

    @pytest.mark.numpy
    def test_decreasing_in_x(self):
        import numpy as np
        rng = np.random.default_rng(11)
        for a in (0.5, 1.5, 4.0, 20.0):
            xs = np.sort(rng.uniform(0.0, 60.0, size=50))
            vals = [math.exp(log_reg_gamma_upper(a, float(x))) for x in xs]
            assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_property_sweep(self):
        # Over a in [0.5, 1e8] and x near a, within a factor 1e3 of a, and up to 1e300:
        # ln Q is finite (no ConvergenceError), <= 0, decreasing in x and increasing in a.
        # Past x >> a a step of 1e-6 in a moves ln Q by less than an ulp, so the
        # monotonicity holds to 2 ulps.
        rng = random.Random(22)
        for k in range(1000):
            a = math.exp(rng.uniform(math.log(0.5), math.log(1e8)))
            strata = (a + 3.0 * math.sqrt(a) * rng.uniform(-1.0, 1.0),
                      a * 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 300.0))
            x = max(0.0, strata[k % 3])
            log_q = log_reg_gamma_upper(a, x)
            slack = 2.0 * math.ulp(log_q)
            assert math.isfinite(log_q) and log_q <= 0.0, (a, x)
            assert log_reg_gamma_upper(a, x * (1.0 + 1e-6)) <= log_q + slack, (a, x)
            assert log_reg_gamma_upper(a * (1.0 + 1e-6), x) >= log_q - slack, (a, x)

    def test_limits(self):
        assert math.exp(log_reg_gamma_upper(3.0, 1e4)) < 1e-200
        assert math.exp(log_reg_gamma_upper(3.0, 1e-12)) == pytest.approx(1.0, abs=1e-10)
        assert log_reg_gamma_upper(3.0, math.inf) == -math.inf

    def test_log_version_deep_tail(self):
        # mpmath (40 digits): log Q(2, 1500)
        assert log_reg_gamma_upper(2.0, 1500.0) == pytest.approx(
            -1492.6861131683665, rel=1e-13, abs=0
        )

    @pytest.mark.parametrize("a,x", sorted(LOG_Q_LARGE_A))
    def test_large_shape_matches_mpmath(self, a, x):
        assert log_reg_gamma_upper(a, x) == pytest.approx(LOG_Q_LARGE_A[(a, x)], rel=1e-13, abs=0)

    @pytest.mark.parametrize("a,x", sorted(LOG_Q_HUGE_X))
    def test_huge_x_matches_mpmath(self, a, x):
        assert log_reg_gamma_upper(a, x) == pytest.approx(LOG_Q_HUGE_X[(a, x)], rel=1e-15, abs=0)

    @pytest.mark.parametrize("a,x", sorted(LOG_Q_CF_START))
    def test_continued_fraction_start_matches_mpmath(self, a, x):
        assert log_reg_gamma_upper(a, x) == pytest.approx(LOG_Q_CF_START[(a, x)], rel=1e-14, abs=0)

    @pytest.mark.parametrize("x", [2.4e16, 2.0**54, 1e20, 1e300, 1.7e308])
    def test_huge_x_exponential_case(self, x):
        # ln Q(1, x) = -x
        assert log_reg_gamma_upper(1.0, x) == pytest.approx(-x, rel=1e-15, abs=0)

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan)])
    def test_domain(self, a, x):
        with pytest.raises(ValueError):
            log_reg_gamma_upper(a, x)

    @pytest.mark.parametrize("a, x, message", [
        (2.0, 1.0, "incomplete gamma series did not converge (a=2.0, x=1.0)"),  # x < a + 1
        (2.0, 5.0, "incomplete gamma continued fraction did not converge (a=2.0, x=5.0)"),
    ])
    def test_a_kernel_that_does_not_converge_says_so(self, monkeypatch, a, x, message):
        monkeypatch.setattr(specfun, "MAX_ITER", -10**9)  # no iteration at all
        with pytest.raises(ConvergenceError, match=re.escape(message) + "$"):
            log_reg_gamma_upper(a, x)


class TestChiSquare:
    def test_survival_at_zero(self):
        assert math.exp(log_chisq_survival(ChiSquare(2), 0.0)) == 1.0

    def test_two_df_exponential(self):
        x = -2.0 * math.log(0.05)
        p = math.exp(log_chisq_survival(ChiSquare(2), x))
        assert p == pytest.approx(0.05, rel=1e-12, abs=0)

    def test_four_df_closed_form_anchor(self):
        # (1 + x/2) exp(-x/2) at x = 11.983
        x = 11.983
        expected = (1.0 + x / 2.0) * math.exp(-x / 2.0)
        assert expected == pytest.approx(0.017478130338748097, rel=1e-12, abs=0)  # mpmath
        p = math.exp(log_chisq_survival(ChiSquare(4), x))
        assert p == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("df", [2, 4, 8, 20])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 10.0, 50.0])
    def test_even_df_matches_closed_form(self, df, x):
        assert math.exp(log_chisq_survival(ChiSquare(df), x)) == pytest.approx(
            chisq_survival_closed_form_even(df, x), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("df", [1, 3, 5])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 10.0, 50.0])
    def test_odd_df_matches_quadrature(self, df, x):
        assert math.exp(log_chisq_survival(ChiSquare(df), x)) == pytest.approx(
            chisq_survival_by_quadrature(df, x), abs=1e-8
        )

    def test_log_survival_underflow_regime(self):
        logp = log_chisq_survival(ChiSquare(4), 3000.0)
        assert math.isfinite(logp)
        assert logp == pytest.approx(-1492.6861131683665, rel=1e-13, abs=0)  # mpmath

    def test_negative_statistic_rejected(self):
        with pytest.raises(ValueError):
            log_chisq_survival(ChiSquare(2), -1.0)


# ln 2 Phi(-|z|) = ln erfc(|z| / sqrt 2) by mpmath 1.3.0: the first nine at 60 digits,
# rounded to 40, from near z = 0, where ln P needs the digits of 1 - P; the rest at 50
# digits, rounded to 25. The two 37.519... straddle the switch from log(erfc) to the
# kernel, where erfc = 2^-1021.
LOG_TWO_SIDED = {
    1e-8: -7.978845639859642380451474582296130324393e-9,
    1e-6: -7.978848791127878391623273146523656722987e-7,
    1e-4: -7.979163921548350146456454301554039565620e-5,
    0.01: -0.008010712884424786199729312068219689861236,
    0.4: -0.3722868686296313390240941000231863210457,
    1.0: -1.147874464449318196353550951774352453472,
    5.0: -14.37185121342878042666647267043854903699,
    37.5: -706.9758421369472457566959413358022647627,
    40.0: -803.9152948331938428571896007971517596321,
    -8.0: -34.3202899793546045860869,
    37.0: -688.337438396330648291455,
    37.5193793471445: -707.7032713517041869416965,
    37.51937934714451: -707.703271351704453722033,
    -40.0: -803.9152948331938428571896,
    1e3: -500007.1335476316243644968,
    1e8: -5000000000000018.646472097,
}


class TestTwoSidedTail:
    @pytest.mark.parametrize("z", sorted(LOG_TWO_SIDED))
    def test_log_matches_mpmath(self, z):
        p, log_p = _two_sided_tail(z)
        assert log_p == pytest.approx(LOG_TWO_SIDED[z], rel=1e-15, abs=0)
        assert p == math.erfc(abs(z) / math.sqrt(2.0))  # 0.0 at |z| = 40


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_anchors(self):
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    # Phi^-1 at the double q (mpmath 1.3.0 at 50 digits, sqrt(2) erfinv(2q - 1)).
    # Near q = 1 the double matters: at 1 - 1e-12, half an ulp of q moves z by ~8e-6.
    @pytest.mark.parametrize("q, z", [
        (0.6, "0.2533471031357997413246886917717454089496"),
        (0.975, "1.959963984540053855604430649826643177289"),
        (0.999, "3.090232306167813277758202332560201571727"),
        (1 - 1e-6, "4.753424308817087765688097030681644974475"),
        (1 - 1e-12, "7.034486910047835205692400568554849465713"),
    ])
    def test_upper_half_matches_mpmath(self, q, z):
        assert normal_quantile(q) == pytest.approx(float(z), rel=1e-14, abs=0)

    # Next to q = 1/2, where z is tiny, and at subnormal q (mpmath 1.3.0: the
    # erfinv form above; below 1e-300 a 60-digit root of ln Phi(z) = ln q).
    @pytest.mark.parametrize("q, z", [
        (0.4999999, "-2.50662827470310651349781558790643486177e-7"),
        (0.4999, "-2.506628300880074923888500767004841497067e-4"),
        (0.5000001, "2.50662827331164830116188841284051839232e-7"),
        (1e-310, "-37.6630603319495237318909804982480223234"),
        (1e-320, "-38.26912534303265101818100635964230833465"),
        (5e-324, "-38.46740561714434625078436216846152368242"),
    ])
    def test_center_and_subnormal_match_mpmath(self, q, z):
        # abs=0: approx's default abs=1e-12 would pin z = 2.5e-7 to rel 4e-6 only.
        assert normal_quantile(q) == pytest.approx(float(z), rel=1e-14, abs=0)

    @pytest.mark.numpy
    def test_round_trip_through_cdf(self):
        import numpy as np
        qs = np.concatenate(
            [
                10.0 ** np.arange(-10, -1, 0.5),
                np.linspace(0.05, 0.95, 19),
                1.0 - 10.0 ** np.arange(-10, -1, 0.5),
            ]
        )
        for q in qs:
            assert phi(normal_quantile(float(q))) == pytest.approx(float(q), abs=1e-9)

    def test_inverse_round_trip(self):
        # above z ~ 5 the double spacing of q near 1 exceeds 1e-9 in z, so the
        # deep upper tail is exercised through the (fully representable) lower
        # tail instead
        for z in (-8.0, -6.0, -2.5, -0.3, 0.0, 0.7, 3.1, 5.0):
            assert normal_quantile(phi(z)) == pytest.approx(z, abs=1e-9)

    @pytest.mark.numpy
    def test_monotone(self):
        import numpy as np
        qs = np.sort(np.random.default_rng(9).uniform(1e-8, 1 - 1e-8, size=200))
        vals = [normal_quantile(float(q)) for q in qs]
        assert all(u < v for u, v in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)
