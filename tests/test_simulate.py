"""Monte Carlo harness tests: determinism, calibration bands, dominance, KS."""

import math
import random
import tracemalloc

import pytest

from svalue.simulate import (
    CHUNK,
    RngSpec,
    _chunk_group,
    _pool,
    binomial_upper_tail_pvalues,
    distribution_report,
    evalue_check,
    exact_rejection_probability,
    simulate_exact_binomial,
    simulate_uniform_p,
)

from oracles import binomial_tail_by_enumeration

np = pytest.importorskip("numpy")
pytestmark = pytest.mark.numpy

LOG2E = 1.4426950408889634


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(42, 3).generator().random(1000)
        b = RngSpec(42, 3).generator().random(1000)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngSpec(42, 0).generator().random(1000)
        b = RngSpec(42, 1).generator().random(1000)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -2), (1.5, 0), (0, True)])
    def test_validation(self, seed, stream):
        with pytest.raises(ValueError):
            RngSpec(seed, stream)


class TestSimulateUniformP:
    def test_deterministic_summary(self):
        a = simulate_uniform_p(20_000, RngSpec(42), [0.01, 0.05])
        b = simulate_uniform_p(20_000, RngSpec(42), [0.01, 0.05])
        assert a == b

    def test_mean_information_bands(self):
        n = 100_000
        s = simulate_uniform_p(n, RngSpec(42), [0.05])
        band = 3.0 / math.sqrt(n)  # exponential(1) has unit standard deviation
        assert abs(s.mean_s_nats - 1.0) < band
        assert abs(s.mean_s_bits - LOG2E) < band * LOG2E

    def test_bits_nats_ratio_is_exact_on_same_sample(self):
        s = simulate_uniform_p(5_000, RngSpec(1), [0.5])
        assert s.mean_s_bits / s.mean_s_nats == pytest.approx(LOG2E, rel=1e-12, abs=0)

    def test_type1_calibration(self):
        n = 100_000
        s = simulate_uniform_p(n, RngSpec(42), [0.01, 0.05, 0.1, 0.5])
        for alpha, rate in s.empirical_type1.items():
            assert abs(rate - alpha) < 3.0 * math.sqrt(alpha * (1 - alpha) / n)

    def test_low_n_flag(self):
        assert simulate_uniform_p(10, RngSpec(0), [0.5]).low_n
        assert not simulate_uniform_p(2_000, RngSpec(0), [0.5]).low_n

    def test_single_replicate_contract(self):
        s = simulate_uniform_p(1, RngSpec(0), [0.5])
        assert s.n == 1
        assert s.low_n
        assert s.se_of_mean is None

    def test_duplicate_alphas_count_once(self):
        # 3 of these 10 draws fall at or below 0.05, a violation at that level
        s = simulate_uniform_p(10, RngSpec(20), [0.05, 0.05])
        assert s.empirical_type1 == {0.05: 0.3}
        assert s.dominance_violations == 1

    @pytest.mark.parametrize("n", [CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_chunks_match_a_single_pass(self, n):
        alphas = [0.01, 0.05, 0.5]
        p = 1.0 - RngSpec(11, 4).generator().random(n)
        s = -np.log(p)
        got = simulate_uniform_p(n, RngSpec(11, 4), alphas)
        assert got.mean_s_nats == pytest.approx(float(s.mean()), rel=1e-15, abs=0)
        assert got.se_of_mean == pytest.approx(float(s.std(ddof=1)) / math.sqrt(n), rel=1e-15, abs=0)
        assert got.empirical_type1 == {a: np.count_nonzero(p <= a) / n for a in alphas}
        if n == CHUNK:  # one chunk: numpy's own mean and std, bit for bit
            assert (got.mean_s_nats, got.se_of_mean) == (
                float(s.mean()), float(s.std(ddof=1) / math.sqrt(n)))

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_uniform_p(0, RngSpec(0), [0.5])
        with pytest.raises(ValueError):
            simulate_uniform_p(100, RngSpec(0), [0.0])
        with pytest.raises(ValueError):
            simulate_uniform_p(100, RngSpec(0), [1.0])


class TestPooling:
    def test_group_order_does_not_matter(self):
        # uniform chunks of uneven sizes beside outcome groups of equal P-values
        alphas = [0.01, 0.05, 0.5]
        gen = RngSpec(3, 1).generator()
        groups = [_chunk_group(1.0 - gen.random(size), alphas) for size in (CHUNK, 1000, 7, CHUNK, 1)]
        for k, p in ((5, 1.0), (40, 0.3), (1, 1e-300), (999, 0.04)):
            s = -math.log(p)
            groups.append((k, k * s, s, 0.0, [k if p <= a else 0 for a in alphas]))
        want = _pool(groups, alphas)
        assert want.n == 2 * CHUNK + 1008 + 1045
        assert _pool(groups[::-1], alphas) == want
        shuffler = random.Random(5)
        for _ in range(20):
            shuffler.shuffle(groups)
            assert _pool(groups, alphas) == want


class TestBinomialTails:
    def test_enumerated_table_for_ten_fair_trials(self):
        tails = binomial_upper_tail_pvalues(10, 0.5)
        assert tails[0] == 1.0
        assert tails[10] == 1.0 / 1024.0
        assert tails[9] == 11.0 / 1024.0
        assert tails[8] == 7.0 / 128.0

    def test_single_trial(self):
        assert binomial_upper_tail_pvalues(1, 0.5) == [1.0, 0.5]

    @pytest.mark.parametrize("theta0", [0.05, 0.5, 0.77])
    def test_comb_recurrence_is_bit_identical(self, theta0):
        trials = 1000
        pmf = [math.comb(trials, x) * theta0**x * (1.0 - theta0) ** (trials - x)
               for x in range(trials + 1)]
        want = [0.0] * (trials + 1)
        acc = 0.0
        for x in range(trials, 0, -1):
            acc += pmf[x]
            want[x] = min(acc, 1.0)
        want[0] = 1.0
        assert binomial_upper_tail_pvalues(trials, theta0) == want

    def test_matches_fraction_enumeration_for_uneven_theta(self):
        trials = 12
        tails = binomial_upper_tail_pvalues(trials, 0.3)
        for x in range(trials + 1):
            assert tails[x] == pytest.approx(
                binomial_tail_by_enumeration(trials, x, 3, 10), rel=1e-13, abs=0
            )

    def test_exact_rejection_probability_anchor(self):
        # only x in {9, 10} reach p <= 0.05, so the rejection region has
        # probability 11/1024 exactly
        assert abs(exact_rejection_probability(10, 0.5, 0.05) - 11.0 / 1024.0) <= 1e-15

    def test_single_trial_cannot_reject_at_5_percent(self):
        assert exact_rejection_probability(1, 0.5, 0.05) == 0.0

    def test_conservative_validity_by_enumeration(self):
        # Pr(P <= alpha) <= alpha for every alpha: exact stochastic dominance,
        # no simulation involved.
        alphas = np.linspace(0.001, 0.999, 199)
        for trials in (1, 5, 10, 50):
            for theta in (0.3, 0.5, 0.7):
                for alpha in alphas:
                    assert exact_rejection_probability(trials, theta, float(alpha)) <= alpha + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_upper_tail_pvalues(0, 0.5)
        with pytest.raises(ValueError):
            binomial_upper_tail_pvalues(10, 0.0)
        with pytest.raises(ValueError):
            binomial_upper_tail_pvalues(10, 1.0)


class TestSimulateExactBinomial:
    def test_no_dominance_violations_across_trial_counts(self):
        for i, trials in enumerate((1, 5, 10, 50)):
            s = simulate_exact_binomial(100_000, trials, 0.5, RngSpec(42, 10 + i), [0.01, 0.05, 0.1])
            assert s.dominance_violations == 0

    def test_mean_information_reads_as_minimum(self):
        s = simulate_exact_binomial(100_000, 10, 0.5, RngSpec(42, 20), [0.05])
        assert s.mean_s_nats < 1.0  # conservative: strictly below the uniform mean
        assert s.mean_s_nats > 0.0

    def test_deterministic(self):
        a = simulate_exact_binomial(10_000, 10, 0.5, RngSpec(5), [0.05])
        b = simulate_exact_binomial(10_000, 10, 0.5, RngSpec(5), [0.05])
        assert a == b

    def test_rejection_rate_matches_exact_enumeration(self):
        n = 100_000
        s = simulate_exact_binomial(n, 10, 0.5, RngSpec(42, 21), [0.05])
        exact = 11.0 / 1024.0
        rate = s.empirical_type1[0.05]
        assert abs(rate - exact) < 3.0 * math.sqrt(exact * (1 - exact) / n)

    def test_histogram_matches_the_expanded_draws(self):
        # the summary of one drawn outcome histogram equals the statistics of
        # the n P-values it stands for
        n, trials, theta0, rng = 5000, 12, 0.3, RngSpec(8, 1)
        alphas = [0.01, 0.05, 0.1]
        tails = np.asarray(binomial_upper_tail_pvalues(trials, theta0))
        counts = rng.generator().multinomial(n, tails - np.append(tails[1:], 0.0))
        p = np.repeat(tails, counts)
        s = -np.log(p)
        got = simulate_exact_binomial(n, trials, theta0, rng, alphas)
        assert got.mean_s_nats == pytest.approx(float(s.mean()), rel=1e-15, abs=0)
        assert got.se_of_mean == pytest.approx(float(s.std(ddof=1)) / math.sqrt(n), rel=1e-15, abs=0)
        assert got.empirical_type1 == {a: np.count_nonzero(p <= a) / n for a in alphas}

    def test_unreachable_outcomes_keep_the_mean_finite(self):
        # the upper tails of the largest outcomes underflow to 0.0
        assert binomial_upper_tail_pvalues(1000, 0.05)[-1] == 0.0
        s = simulate_exact_binomial(100_000, 1000, 0.05, RngSpec(4), [0.05])
        assert math.isfinite(s.mean_s_nats) and math.isfinite(s.se_of_mean)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_exact_binomial(0, 10, 0.5, RngSpec(0), [0.05])


class TestEvalueCheck:
    def test_uniform_generator_sits_at_one(self):
        chk = evalue_check(100_000, RngSpec(42, 30), "uniform")
        assert abs(chk.mean_e_condition - 1.0) < 3.0 * chk.se_of_mean
        assert chk.passed
        assert not chk.low_n

    def test_single_fair_trial_two_point_enumeration(self):
        # P is 1 or 1/2 with equal probability, so E[-ln P] = ln(2)/2
        chk = evalue_check(100_000, RngSpec(42, 31), "binomial", trials=1, theta0=0.5)
        expected = math.log(2.0) / 2.0
        assert abs(chk.mean_e_condition - expected) < 3.0 * chk.se_of_mean
        assert chk.passed

    def test_low_n_flagged_not_failed(self):
        chk = evalue_check(500, RngSpec(3), "uniform")
        assert chk.low_n
        assert isinstance(chk.passed, bool)

    def test_single_replicate_has_no_standard_error(self):
        chk = evalue_check(1, RngSpec(0), "uniform")
        assert chk.se_of_mean is None
        assert chk.passed == (chk.mean_e_condition <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="replicate count must be a positive integer, got 0"):
            evalue_check(0, RngSpec(0), "uniform")
        with pytest.raises(ValueError, match="binomial generator requires trials and theta0"):
            evalue_check(1000, RngSpec(0), "binomial")
        with pytest.raises(ValueError, match="unknown generator 'poisson'; expected uniform or"):
            evalue_check(1000, RngSpec(0), "poisson")

    def test_same_draws_as_the_simulations(self):
        rng = RngSpec(9, 2)
        for chk, sim in (
            (evalue_check(5000, rng, "uniform"), simulate_uniform_p(5000, rng, [])),
            (evalue_check(5000, rng, "binomial", 12, 0.3),
             simulate_exact_binomial(5000, 12, 0.3, rng, [])),
        ):
            assert (chk.mean_e_condition, chk.se_of_mean) == (sim.mean_s_nats, sim.se_of_mean)


class TestDistributionReport:
    def test_perfect_exponential_quantiles(self):
        n = 1000
        samples = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n)
        rep = distribution_report(samples, "exponential_1")
        assert rep.ks_statistic <= 0.5 / n + 1e-12
        assert rep.passed

    def test_surprisal_of_uniform_p_is_exponential(self):
        p = 1.0 - RngSpec(42, 40).generator().random(10_000)
        rep = distribution_report(-np.log(p), "exponential_1")
        assert rep.passed

    def test_uniform_data_against_exponential_fails(self):
        data = RngSpec(7).generator().random(10_000)
        rep = distribution_report(data, "exponential_1")
        assert not rep.passed
        assert rep.ks_statistic > 0.3

    def test_uniform_reference(self):
        data = RngSpec(9).generator().random(10_000)
        assert distribution_report(data, "uniform_01").passed

    @pytest.mark.parametrize("n", [CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("reference", ["exponential_1", "uniform_01"])
    def test_chunks_match_the_whole_array_formula(self, n, reference):
        data = -np.log(1.0 - RngSpec(n).generator().random(n))
        x = np.sort(data)
        if reference == "exponential_1":
            cdf = -np.expm1(-np.clip(x, 0.0, None))
        else:
            cdf = np.clip(x, 0.0, 1.0)
        i = np.arange(1, n + 1)
        want = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
        assert distribution_report(data, reference).ks_statistic == want

    def test_critical_value(self):
        rep = distribution_report(np.linspace(0.001, 0.999, 100), "uniform_01")
        assert rep.critical_value == pytest.approx(1.63 / 10.0, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution_report(np.linspace(0.01, 0.99, 99), "uniform_01")
        with pytest.raises(ValueError):
            distribution_report(np.linspace(0.01, 0.99, 200), "gaussian")
        with pytest.raises(ValueError):
            distribution_report(np.full(200, math.nan), "uniform_01")


class TestMemory:
    """Peak traced allocation per draw: no path may hold n values again."""

    N = 2_000_000

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("call", [
        lambda n: simulate_uniform_p(n, RngSpec(1)),
        lambda n: simulate_exact_binomial(n, 100, 0.3, RngSpec(1)),
        lambda n: evalue_check(n, RngSpec(1)),
        lambda n: evalue_check(n, RngSpec(1), "binomial", 100, 0.3),
    ], ids=["uniform", "binomial", "evalue_uniform", "evalue_binomial"])
    def test_simulations_stay_under_one_byte_per_draw(self, call):
        assert self.peak_bytes(lambda: call(self.N)) < self.N

    def test_ks_report_holds_one_sorted_copy(self):
        data = RngSpec(2).generator().random(self.N)
        assert self.peak_bytes(lambda: distribution_report(data, "uniform_01")) < 12 * self.N
