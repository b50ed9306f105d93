"""Monte Carlo harness tests: determinism, calibration bands, dominance, KS."""

import math
import random
import re
import sys
import threading
import time
import tracemalloc

import pytest

from svalue import simulate
from svalue.simulate import (
    CHUNK,
    LOW_N,
    THREAD_CHUNKS,
    RngSpec,
    _check_alphas,
    _pool,
    _uniform_groups,
    binomial_upper_tail_pvalues,
    distribution_report,
    evalue_check,
    simulate_exact_binomial,
    simulate_uniform_p,
)

from oracles import binomial_tail_by_enumeration, binomial_tails_exact

np = pytest.importorskip("numpy")
pytestmark = pytest.mark.numpy

LOG2E = 1.4426950408889634


def force_cpus(monkeypatch, cpus):
    """Make the simulations see `cpus` CPUs (raising=False: not every OS has the call)."""
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class LingeringThread(threading.Thread):
    """A thread that stays alive 0.2 s after its target returns, so only a join waits for it."""

    def run(self):
        super().run()
        time.sleep(0.2)


def linger_threads(monkeypatch):
    """Make `simulate` start LingeringThreads, on 2 CPUs: 32 chunks give one helper thread."""
    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(threading, "Thread", LingeringThread)


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(42, 3).generator().random(1000)
        b = RngSpec(42, 3).generator().random(1000)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngSpec(42, 0).generator().random(1000)
        b = RngSpec(42, 1).generator().random(1000)
        assert not np.array_equal(a, b)

    def test_a_stream_is_pcg64_seeded_by_seed_and_stream(self):
        assert RngSpec(5, 6).generator().random(3).tolist() == [
            0.2551469362614829, 0.05932341707181432, 0.13323398113429685]


class TestCheckAlphas:
    def test_distinct_levels_in_first_seen_order(self):
        assert _check_alphas([0.1, 0.05, np.float64(0.05), 0.1, 0.01]) == [0.1, 0.05, 0.01]
        assert [type(a) for a in _check_alphas([np.float64(0.05)])] == [float]

    @pytest.mark.parametrize("alpha, shown", [(1.0, "1.0"), (math.nan, "nan"), ("0.05", "'0.05'")])
    def test_a_level_outside_the_unit_interval_is_named(self, alpha, shown):
        message = f"alpha levels must lie in (0, 1), got {shown}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            _check_alphas([0.05, alpha])


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

    def test_chunk_group_matches_the_two_pass_reference(self):
        # the reference negates ln p, sums, subtracts the mean, squares and sums; the chunk
        # group sums ln p and adds the mean instead, which negation makes exact, bit for bit
        alphas = [0.01, 0.05, 0.5]
        sizes = [1, 2, 3, CHUNK - 1, CHUNK, *random.Random(8).sample(range(4, CHUNK - 1), 20)]
        for stream, size in enumerate(sizes):
            rng = RngSpec(13, stream)
            p = 1.0 - rng.generator().random(size)
            s = np.negative(np.log(p))
            total = float(s.sum())
            mean = total / size
            want = (size, total, mean, float(np.square(s - mean).sum()),
                    [int(np.count_nonzero(p <= a)) for a in alphas])
            assert _uniform_groups(rng, size, 0, 1, alphas) == [want]

    def test_advance_reaches_a_chunk_of_the_stream(self):
        # each double takes one 64-bit output, so a run drawn after advance(j * CHUNK)
        # is that slice of one pass over the stream
        n, j = 5 * CHUNK + 3, 3
        whole = RngSpec(6, 2).generator().random(n)
        gen = RngSpec(6, 2).generator()
        gen.bit_generator.advance(j * CHUNK)
        assert np.array_equal(gen.random(n - j * CHUNK), whole[j * CHUNK:])

    @pytest.mark.parametrize("n", [16 * CHUNK - 1, 32 * CHUNK + 7, 48 * CHUNK + 1])
    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch, n):
        # at most 1, 2 and 3 runs at these n; a short switch interval interleaves the threads
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 8):
                force_cpus(monkeypatch, cpus)
                got.append((simulate_uniform_p(n, RngSpec(12, 5), [0.01, 0.05, 0.5]),
                            evalue_check(n, RngSpec(12, 5))))
        finally:
            sys.setswitchinterval(interval)
        assert all(g == got[0] for g in got)

    def test_every_thread_is_joined_before_the_call_returns(self, monkeypatch):
        linger_threads(monkeypatch)
        before = threading.active_count()
        simulate_uniform_p(32 * CHUNK, RngSpec(1))
        assert threading.active_count() == before

    def test_a_failing_thread_fails_the_call_and_leaves_no_thread(self, monkeypatch):
        # the helper thread owns chunks 16 .. 31
        linger_threads(monkeypatch)
        calls = []

        def uniform_groups(*args):
            calls.append(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                raise ArithmeticError("helper failed")
            return _uniform_groups(*args)

        monkeypatch.setattr(simulate, "_uniform_groups", uniform_groups)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="helper failed"):
            simulate_uniform_p(32 * CHUNK, RngSpec(1))
        assert threading.active_count() == before
        assert len(set(calls)) == 2

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
        groups = [g for stream, size in enumerate((CHUNK, 1000, 7, CHUNK, 1))
                  for g in _uniform_groups(RngSpec(3, stream), size, 0, 1, alphas)]
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

    @pytest.mark.parametrize("n, notes", [
        (1, (f"n = 1 is below {LOW_N}; summary statistics are unreliable",
             "se_of_mean is undefined at n = 1")),
        (LOW_N - 1, (f"n = {LOW_N - 1} is below {LOW_N}; summary statistics are unreliable",)),
        (LOW_N, ()),
    ])
    def test_records_carry_the_low_n_notes(self, n, notes):
        assert simulate_uniform_p(n, RngSpec(0), [0.5]).notes == notes
        assert simulate_exact_binomial(n, 10, 0.5, RngSpec(0), [0.5]).notes == notes
        assert evalue_check(n, RngSpec(0), "uniform").notes == notes
        assert evalue_check(n, RngSpec(0), "binomial", 10, 0.5).notes == notes


def rejection_probability(tails, alpha):
    """Exact Pr(P <= alpha): the P-value falls in x, so this is the first tail at or below alpha."""
    return next((t for t in tails if t <= alpha), 0.0)


class TestBinomialTails:
    def test_enumerated_table_for_ten_fair_trials(self):
        tails = binomial_upper_tail_pvalues(10, 0.5)
        assert tails[0] == 1.0
        assert tails[10] == pytest.approx(1.0 / 1024.0, rel=2e-15, abs=0)
        assert tails[9] == pytest.approx(11.0 / 1024.0, rel=2e-15, abs=0)
        assert tails[8] == pytest.approx(7.0 / 128.0, rel=2e-15, abs=0)

    def test_single_trial(self):
        assert binomial_upper_tail_pvalues(1, 0.5) == [1.0, 0.5]

    @pytest.mark.parametrize("theta0", [0.05, 0.3, 0.5, 0.77])
    def test_matches_exact_rational_tails_at_1000_and_2000_trials(self, theta0):
        # 2000 trials once overflowed converting comb(2000, x) to float
        for trials in (1000, 2000):
            tails = binomial_upper_tail_pvalues(trials, theta0)
            want = binomial_tails_exact(trials, theta0)
            assert tails[0] == 1.0
            for got, w in zip(tails, want):
                if w >= sys.float_info.min:
                    assert got == pytest.approx(w, rel=1e-12, abs=0)
                else:  # below the least normal double, e.g. 0.0 at (1000, 0.05)
                    assert abs(got - w) <= sys.float_info.min

    def test_former_overflow_input(self):
        # mpmath 1.3.0 at 50 digits; comb(1100, x) was an int too large to convert to float
        assert binomial_upper_tail_pvalues(1100, 0.5)[550] == pytest.approx(
            0.5120258288841159052248456, rel=1e-12, abs=0)

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
        tails = binomial_upper_tail_pvalues(10, 0.5)
        assert abs(rejection_probability(tails, 0.05) - 11.0 / 1024.0) <= 1e-15

    def test_single_trial_cannot_reject_at_5_percent(self):
        assert rejection_probability(binomial_upper_tail_pvalues(1, 0.5), 0.05) == 0.0

    def test_conservative_validity_by_enumeration(self):
        # Pr(P <= alpha) <= alpha for every alpha: exact stochastic dominance,
        # no simulation involved.
        alphas = np.linspace(0.001, 0.999, 199)
        for trials in range(1, 51):
            for theta in (0.3, 0.5, 0.7):
                tails = binomial_upper_tail_pvalues(trials, theta)
                for alpha in alphas:
                    assert rejection_probability(tails, float(alpha)) <= alpha + 1e-12

    @pytest.mark.parametrize("trials", [1, 2, 3, 10, 50, 100, 1000, 2000, 5000])
    def test_tails_start_at_one_stay_in_the_unit_interval_and_never_rise(self, trials):
        # the running sum's rounding can pass the total, so the cap at 1 binds at
        # (50, 0.7), (100, 0.5), (100, 0.999), (1000, 0.7), (1000, 0.999) and (5000, 0.3)
        for theta0 in (1e-12, 1e-3, 0.3, 0.5, 0.7, 0.999, 1 - 1e-12):
            tails = binomial_upper_tail_pvalues(trials, theta0)
            assert len(tails) == trials + 1
            assert tails[0] == 1.0
            assert all(0.0 <= t <= 1.0 for t in tails)
            assert all(a >= b for a, b in zip(tails, tails[1:]))

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

    NB_FULL = 16 * CHUNK  # from this n on, the report uses CHUNK buckets of F

    @staticmethod
    def bucket_case(n, kind):
        """n samples of a kind that strains the bucket bound (nb = min(CHUNK, n // 16))."""
        gen = RngSpec(n).generator()
        nb = min(CHUNK, n // 16)
        return {
            "equal": lambda: np.full(n, 0.75),
            "edges": lambda: gen.integers(0, nb + 1, n) / nb,  # k / nb, with 0 and 1
            "outside": lambda: gen.choice([-np.inf, -2.0, -0.0, 0.5, 1.0, 3.0, np.inf], n),
            "half": lambda: gen.random(n) * 0.5,  # U(0, 1/2), far from uniform_01
            "uniform": lambda: gen.random(n),  # U(0, 1), far from exponential_1
        }[kind]()

    @pytest.mark.parametrize("n, variant", [  # None: draws; int: draws rounded; str: bucket_case
        (CHUNK + 1, None), (2 * CHUNK + 3, None), (3 * THREAD_CHUNKS * CHUNK + 3, None),
        (3 * THREAD_CHUNKS * CHUNK + 3, 3),  # rounded: ties straddle the edges of runs
        (100, None), (NB_FULL - 1, None), (NB_FULL + 1, None),
        (100, "equal"), (3 * THREAD_CHUNKS * CHUNK + 3, "equal"), (2 * CHUNK + 3, "edges"),
        (NB_FULL + 1, "edges"), (1000, "outside"), (3 * THREAD_CHUNKS * CHUNK + 3, "outside"),
        (2 * CHUNK + 3, "half"), (2 * CHUNK + 3, "uniform"),
    ], ids=[str(CHUNK + 1), str(2 * CHUNK + 3), "3_blocks", "3_blocks_tied", "100",
            "below_full_buckets", "above_full_buckets", "100_equal", "3_blocks_equal", "edges",
            "edges_full_buckets", "outside", "3_blocks_outside", "half", "uniform"])
    @pytest.mark.parametrize("reference", ["exponential_1", "uniform_01"])
    def test_chunks_match_the_whole_array_formula(self, monkeypatch, n, reference, variant):
        if isinstance(variant, str):
            data = self.bucket_case(n, variant)
        else:
            data = -np.log(1.0 - RngSpec(n).generator().random(n))
            if variant is not None:
                data = np.round(data, variant)
        x = np.sort(data)
        if reference == "exponential_1":
            cdf = -np.expm1(-np.clip(x, 0.0, None))
        else:
            cdf = np.clip(x, 0.0, 1.0)
        i = np.arange(1, n + 1)
        want = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
        given = data.copy()
        for cpus in (1, 2, 3, 8):  # the largest n splits into 1, 2, 3 and 3 runs
            force_cpus(monkeypatch, cpus)
            assert distribution_report(data, reference).ks_statistic == want
        assert np.array_equal(data, given)  # the report reads it in place

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("where", ["first", "middle", "edge", "last", "several"])
    def test_nan_is_refused_in_every_block(self, monkeypatch, cpus, where):
        n = cpus * THREAD_CHUNKS * CHUNK + 3  # cpus runs of chunks, the second near n // cpus
        force_cpus(monkeypatch, cpus)
        data = RngSpec(3).generator().random(n)
        data[{"first": [0], "middle": [n // 2 + 1], "edge": [n // cpus], "last": [n - 1],
              "several": [5, 7, n // 2]}[where]] = math.nan
        with pytest.raises(ValueError, match="samples must not contain NaN"):
            distribution_report(data, "uniform_01")

    def test_every_thread_is_joined_before_the_call_returns(self, monkeypatch):
        linger_threads(monkeypatch)
        data = RngSpec(1).generator().random(32 * CHUNK)
        before = threading.active_count()
        distribution_report(data, "uniform_01")
        assert threading.active_count() == before

    def test_a_failing_thread_fails_the_call_and_leaves_no_thread(self, monkeypatch):
        # the helper thread owns the second run of chunks in each pass
        linger_threads(monkeypatch)
        calls = []
        ks_chunks = simulate._ks_chunks

        def failing_chunks(data, first, last, cdf, nb):
            calls.append(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                raise ArithmeticError("helper failed")
            return ks_chunks(data, first, last, cdf, nb)

        monkeypatch.setattr(simulate, "_ks_chunks", failing_chunks)
        data = RngSpec(1).generator().random(32 * CHUNK)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="helper failed"):
            distribution_report(data, "uniform_01")
        assert threading.active_count() == before
        assert len(set(calls)) == 2

    def test_critical_value(self):
        rep = distribution_report(np.linspace(0.001, 0.999, 100), "uniform_01")
        assert rep.critical_value == pytest.approx(1.63 / 10.0, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution_report(np.linspace(0.01, 0.99, 99), "uniform_01")
        with pytest.raises(ValueError, match="in 1-D"):
            distribution_report(np.full((100, 2), 0.5), "uniform_01")
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

    def test_each_thread_holds_one_chunk_buffer(self, monkeypatch):
        force_cpus(monkeypatch, 8)  # 64 chunks: four runs of 16
        n = 4 * THREAD_CHUNKS * CHUNK
        assert self.peak_bytes(lambda: simulate_uniform_p(n, RngSpec(1))) < n

    def test_ks_report_holds_no_copy_of_its_samples(self, monkeypatch):
        force_cpus(monkeypatch, 8)  # 64 chunks: four runs of 16
        n = 4 * THREAD_CHUNKS * CHUNK
        data = RngSpec(2).generator().random(n)
        assert self.peak_bytes(lambda: distribution_report(data, "uniform_01")) < 3 * n
