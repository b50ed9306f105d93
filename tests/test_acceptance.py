"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them live)."""

import math

import pytest

from svalue.calibrate import calibration_report
from svalue.combine import StudyTable, s_summation_test
from svalue.curves import EstimateSpec, curve, curve_point
from svalue.simulate import (
    RngSpec,
    binomial_upper_tail_pvalues,
    distribution_report,
    simulate_exact_binomial,
    simulate_uniform_p,
)
from svalue.specfun import ChiSquare, log_chisq_survival, normal_quantile
from svalue.units import InfoUnit, PValue, SValue, convert, two_sided_to_sigma

from oracles import chisq_survival_by_quadrature, chisq_survival_closed_form_even, phi

SEED = 42
N_SIM = 100_000
N_COMBINE = 50_000


def check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dit_bit_ratio():
    got = convert(SValue(1.0, InfoUnit.DITS), InfoUnit.BITS).value
    err = abs(got - math.log2(10.0))
    check(1, err < 1e-12, f"1 dit = {got} bits, |err vs log2(10)| = {err:.2e}")


def test_criterion_02_sigma_translation():
    got = two_sided_to_sigma(PValue(0.05))
    check(2, abs(got - 1.645) <= 0.0005, f"sigma(0.05) = {got:.6f} (target 1.645 +/- 0.0005)")


@pytest.mark.numpy
def test_criterion_03_mean_information_under_uniformity():
    import numpy as np

    s = simulate_uniform_p(N_SIM, RngSpec(SEED), [0.05])
    band = 3.0 / math.sqrt(N_SIM)
    ok_nats = abs(s.mean_s_nats - 1.0) < band
    ok_bits = abs(s.mean_s_bits - 1.443) < band * 1.443
    # same stream as the summary, per the documented RNG contract
    p = 1.0 - RngSpec(SEED).generator().random(N_SIM)
    ks = distribution_report(-np.log(p), "exponential_1")
    check(
        3,
        ok_nats and ok_bits and ks.passed,
        f"mean {s.mean_s_nats:.5f} nats / {s.mean_s_bits:.5f} bits "
        f"(bands +/-{band:.5f} nats), KS D = {ks.ks_statistic:.5f} "
        f"< {ks.critical_value:.5f}",
    )


@pytest.mark.numpy
def test_criterion_04_type1_calibration():
    s = simulate_uniform_p(N_SIM, RngSpec(SEED), [0.01, 0.05, 0.1])
    diffs = []
    ok = True
    for alpha, rate in s.empirical_type1.items():
        band = 3.0 * math.sqrt(alpha * (1.0 - alpha) / N_SIM)
        ok = ok and abs(rate - alpha) < band
        diffs.append(f"alpha={alpha}: {rate:.5f}")
    check(4, ok, "; ".join(diffs))


@pytest.mark.numpy
def test_criterion_05_conservative_validity():
    s = simulate_exact_binomial(N_SIM, 10, 0.5, RngSpec(SEED, 2), [0.01, 0.05, 0.1])
    # the P-value falls as x grows, so Pr(P <= 0.05) is the first tail at or below 0.05
    exact = next(t for t in binomial_upper_tail_pvalues(10, 0.5) if t <= 0.05)
    enum_err = abs(exact - 11.0 / 1024.0)
    check(
        5,
        s.dominance_violations == 0 and enum_err <= 1e-15,
        f"dominance violations = {s.dominance_violations}, "
        f"enumerated Pr(P<=0.05) = {exact} (|err| = {enum_err:.1e})",
    )


@pytest.mark.numpy
def test_criterion_06_fisher_identity_and_shrinkage():
    import numpy as np

    ok = True
    details = []
    for p in (0.9, 0.05, 1e-6):
        rep = s_summation_test(StudyTable.from_columns(["only"], [p]))
        ok = ok and abs(rep.p_summary / p - 1.0) <= 1e-12
    details.append("K=1 identity <= 1e-12")
    for k in (2, 5):
        u = 1.0 - RngSpec(202, k).generator().random((N_COMBINE, k))
        s_plus = np.empty(N_COMBINE)
        shrink = np.empty(N_COMBINE)
        for i in range(N_COMBINE):
            rep = s_summation_test(StudyTable.from_columns([str(j) for j in range(k)], u[i]))
            s_plus[i] = rep.s_plus.value
            shrink[i] = rep.shrinkage_nats
        se_plus = s_plus.std(ddof=1) / math.sqrt(N_COMBINE)
        se_shrink = shrink.std(ddof=1) / math.sqrt(N_COMBINE)
        ok_k = abs(s_plus.mean() - k) < 3.0 * se_plus and abs(
            shrink.mean() - (k - 1.0)
        ) < 3.0 * se_shrink
        ok = ok and ok_k
        details.append(
            f"K={k}: mean s_plus {s_plus.mean():.4f} (target {k}), "
            f"mean shrinkage {shrink.mean():.4f} (target {k - 1})"
        )
    check(6, ok, "; ".join(details))


def test_criterion_07_two_study_worked_combination():
    rep = s_summation_test(StudyTable.from_columns(["a", "b"], [0.05, 0.05]))
    oracle = chisq_survival_closed_form_even(4, 2.0 * rep.s_plus.value)
    check(
        7,
        abs(rep.p_summary - oracle) <= 1e-5,
        f"p_summary = {rep.p_summary:.10f} vs closed-form chi2_4 oracle {oracle:.10f}",
    )


def test_criterion_08_calibration_anchors():
    rep = calibration_report(PValue(0.05), 1)
    ok_mlr = abs(rep.mlr - 6.83) <= 0.005
    ok_odds = abs(rep.odds_increase_bound - 2.46) <= 0.005
    rebuilt = 1.0 / (1.0 + rep.odds_increase_bound)
    ok_cond = abs(rep.conditional_type1 - rebuilt) <= 1e-12
    check(
        8,
        ok_mlr and ok_odds and ok_cond,
        f"MLR = {rep.mlr:.4f} (6.83 +/- 0.005), 1/b = {rep.odds_increase_bound:.4f} "
        f"(2.46 +/- 0.005), conditional T1 consistent to 1e-12",
    )


def test_criterion_09_special_function_oracles():
    worst_even = 0.0
    for df in (2, 4, 8, 20):
        for x in (0.1, 1.0, 5.0, 10.0, 50.0):
            oracle = chisq_survival_closed_form_even(df, x)
            p = math.exp(log_chisq_survival(ChiSquare(df), x))
            worst_even = max(worst_even, abs(p / oracle - 1.0))
    worst_odd = 0.0
    for df in (1, 3, 5):
        for x in (0.1, 1.0, 5.0, 10.0, 50.0):
            oracle = chisq_survival_by_quadrature(df, x)
            p = math.exp(log_chisq_survival(ChiSquare(df), x))
            worst_odd = max(worst_odd, abs(p - oracle))
    worst_rt = 0.0
    tails = [10.0 ** (k / 2) for k in range(-20, -2)]
    for q in [*tails, *(0.05 * k for k in range(1, 20)), *(1.0 - t for t in tails)]:
        worst_rt = max(worst_rt, abs(phi(normal_quantile(q)) - q))
    check(
        9,
        worst_even < 1e-12 and worst_odd < 1e-8 and worst_rt <= 1e-9,
        f"even-df closed form rel err {worst_even:.2e} (< 1e-12), "
        f"quadrature abs err {worst_odd:.2e} (< 1e-8), "
        f"quantile round-trip {worst_rt:.2e} (<= 1e-9)",
    )


def test_criterion_10_curve_properties():
    spec = EstimateSpec(1.2, 0.5)
    grid = [spec.estimate - 3.0 + 6.0 * i / 999 for i in range(1000)]
    pl = [curve_point(spec, m).p_ge for m in grid]
    su = [curve_point(spec, m).s_le.value for m in grid]
    strict = all(a > b for a, b in zip(pl, pl[1:])) and all(
        a > b for a, b in zip(su, su[1:])
    )
    comp_ok = all(
        abs(pt.p_ge + pt.p_le - 1.0) <= 1e-12
        for pt in curve(spec, spec.estimate - 3.0, spec.estimate + 3.0, 101)
    )
    p_ge = curve_point(spec, 1.0).p_ge
    s_le = curve_point(spec, 1.0).s_le.value
    worked = abs(p_ge - 0.6554) <= 1e-4 and abs(s_le - 1.537) <= 0.001
    check(
        10,
        strict and comp_ok and worked,
        f"joint strict monotonicity over 1000 points: {strict}, complement <= 1e-12: "
        f"{comp_ok}, worked point p_ge = {p_ge:.5f}, s_le = {s_le:.5f} bits",
    )
