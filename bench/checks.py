"""Correctness gate, run after the timed passes.

Kept results are compared with independent oracles: mpmath for chi-squared
survival, normal tails and quantiles; the closed form of the even-df
chi-squared tail for S-summation; exact rational arithmetic for binomial
tails; a second KS implementation; and the library itself for CLI output.
Each check states its tolerance. A mismatch is returned as
(layer, message) and counts as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

import mpmath

from workloads import run_method, study_rows

mpmath.mp.dps = 40

REL_CHISQ = 1e-9  # P of a combined test, relative (surprisal absolute below 1 nat)
REL_EXACT = 1e-12  # quantities with no iteration: sums, normal tails, bounds
REL_QUANTILE = 1e-8  # normal quantile; Acklam's start is 1.15e-9 relative without refinement
ABS_CURVE_SUM = 1e-14  # |p_ge + p_le - 1|
MC_SE = 4.0  # Monte Carlo means within 4 standard errors


def check(wl, req) -> list:
    """Check one kept result; return its mismatches as (layer, message)."""
    if wl.name == "cli_session":
        import svalue

        return check_cli(svalue, req)
    if req.kind == "combine":
        return check_combine(req)
    if req.kind == "curve":
        return check_curve(req)
    if req.kind == "calibrate":
        return check_calibrate(req)
    return check_simulation(req, wl)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _close_s(a: float, b: float) -> bool:
    """Surprisals agree when the P-values they stand for agree to REL_CHISQ."""
    return abs(a - b) <= REL_CHISQ * max(abs(a), abs(b), 1.0)


def _norm_sf_log(z: float) -> mpmath.mpf:
    """ln Pr(Z > z) in high precision."""
    return mpmath.log(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2)


def _norm_isf(p: float, guess: float) -> float:
    """z with Pr(Z > z) = p, by Newton's method in log space from `guess`."""
    target = mpmath.log(mpmath.mpf(p))
    z = mpmath.mpf(guess)
    for _ in range(60):
        f = _norm_sf_log(z) - target
        # d/dz ln sf(z) = -phi(z) / sf(z)
        dens = mpmath.npdf(z) / mpmath.exp(_norm_sf_log(z))
        step = f / dens
        z += step
        if abs(step) < mpmath.mpf(10) ** -30 * max(1, abs(z)):
            break
    return float(z)


def _chisq_log_sf(df: int, x: float) -> mpmath.mpf:
    """ln Pr(chi2_df > x) = ln Q(df / 2, x / 2)."""
    a, h = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
    try:
        return mpmath.log(mpmath.gammainc(a, h, mpmath.inf, regularized=True))
    except mpmath.libmp.NoConvergence:
        pass
    # Finite sums for integer and half-integer shape (DLMF 8.4.10, 8.4.11).
    n, half = divmod(df, 2)
    term = mpmath.sqrt(h) / mpmath.gamma(1.5) if half else mpmath.mpf(1)
    total = mpmath.mpf(0)
    for i in range(n):
        total += term
        term *= h / (i + 1.5 if half else i + 1)
    lead = mpmath.erfc(mpmath.sqrt(h)) if half else 0
    return mpmath.log(lead + mpmath.exp(-h) * total)


def _even_df_log_sf(k: int, s: float) -> float:
    """ln Pr(chi2_{2k} > 2s) = -s + ln sum_{i<k} s^i / i!, by log-sum-exp."""
    if s == 0.0:
        return 0.0
    terms = [i * math.log(s) - math.lgamma(i + 1) for i in range(k)]
    top = max(terms)
    return -s + top + math.log(math.fsum(math.exp(t - top) for t in terms))


# -- study_batch ----------------------------------------------------------------

def _check_chisq(layer, what, df, x, s_summary, bad):
    oracle = -float(_chisq_log_sf(df, x))
    if not _close_s(s_summary, oracle):
        bad.append((layer, f"{what}: s_summary {s_summary!r} vs mpmath {oracle!r} (df={df})"))


def check_combine(req) -> list:
    spec, rep = req.spec, req.result
    bad: list = []
    rows = study_rows(spec["rows_seed"], spec["tag"], spec["method"], spec["k"], spec["null"])
    method, k = spec["method"], spec["k"]
    if method == "s-sum":
        s_plus = math.fsum(-math.log(p) for _, p in rows)
        if not _close(rep.s_plus.value, s_plus, REL_EXACT):
            bad.append(("combine", f"s-sum s_plus {rep.s_plus.value!r} vs {s_plus!r}"))
        _check_chisq("combine", "s-sum", 2 * k, 2 * rep.s_plus.value, rep.s_summary.value, bad)
        closed = -_even_df_log_sf(k, rep.s_plus.value)
        if not _close_s(rep.s_summary.value, closed):
            bad.append(("combine", f"s-sum s_summary {rep.s_summary.value!r} "
                                   f"vs closed form {closed!r}"))
        return bad
    z = [est / se for _, est, se in rows]
    if method == "z2":
        stat = math.fsum(v * v for v in z)
        if not _close(rep.statistic, stat, REL_EXACT):
            bad.append(("combine", f"z2 statistic {rep.statistic!r} vs {stat!r}"))
        _check_chisq("combine", "z2", k, rep.statistic, rep.s_summary.value, bad)
        return bad
    pooled = rep if method == "pooled" else rep.pooled
    w = [1.0 / (se * se) for _, _, se in rows]
    est = math.fsum(wi * e for wi, (_, e, _) in zip(w, rows)) / math.fsum(w)
    zp = est * math.sqrt(math.fsum(w))
    if not _close(pooled.z, zp, 1e-10):
        bad.append(("combine", f"pooled z {pooled.z!r} vs {zp!r}"))
    s_two = -float(_norm_sf_log(abs(pooled.z)) + mpmath.log(2))
    if not _close(pooled.s_summary.value, s_two, REL_EXACT * 10):
        bad.append(("combine", f"pooled s_summary {pooled.s_summary.value!r} vs mpmath {s_two!r}"))
    if method == "compare":
        fisher = rep.s_summation
        s_plus = math.fsum(-math.log(math.erfc(abs(v) / math.sqrt(2.0))) for v in z)
        if not _close(fisher.s_plus.value, s_plus, 1e-10):
            bad.append(("combine", f"compare s_plus {fisher.s_plus.value!r} vs {s_plus!r}"))
        _check_chisq("combine", "compare", fisher.df, 2 * fisher.s_plus.value,
                     fisher.s_summary.value, bad)
    return bad


def check_curve(req) -> list:
    spec, points = req.spec, req.result
    bad: list = []
    base = {"bits": 2.0, "nats": math.e, "dits": 10.0}[spec["unit"]]
    if len(points) != spec["steps"]:
        return [("curves", f"curve has {len(points)} points, expected {spec['steps']}")]
    prev = math.inf
    for pt in points:
        if abs(pt.p_ge + pt.p_le - 1.0) > ABS_CURVE_SUM:
            bad.append(("curves", f"p_ge + p_le = {pt.p_ge + pt.p_le!r} at mu1={pt.mu1!r}"))
            break
        if pt.p_ge > prev:
            bad.append(("curves", f"p_ge rises at mu1={pt.mu1!r}"))
            break
        prev = pt.p_ge
    rnd = random.Random(repr(spec))
    for pt in rnd.sample(points, min(16, len(points))):
        t = (spec["estimate"] - pt.mu1) / spec["se"]
        p_le = float(mpmath.ncdf(-mpmath.mpf(t)))
        if p_le > 1e-300 and not _close(pt.p_le, p_le, REL_EXACT):
            bad.append(("curves", f"p_le {pt.p_le!r} vs mpmath {p_le!r} at t={t!r}"))
        s_le = -math.log(pt.p_le) / math.log(base)
        if not _close(pt.s_le.value, s_le, REL_EXACT):
            bad.append(("curves", f"s_le {pt.s_le.value!r} vs {s_le!r}"))
    return bad


def check_calibrate(req) -> list:
    spec, batch = req.spec, req.result
    bad: list = []
    base = {"bits": 2.0, "nats": math.e, "dits": 10.0}
    rnd = random.Random(repr(spec["ps"][:4]))
    picks = [i for i, v in enumerate(batch.values) if v is not None]
    for i in rnd.sample(picks, min(16, len(picks))):
        p = spec["ps"][i]
        rep, s, s_other, sigma = batch.values[i]
        z_true = _norm_isf(p / 2, math.sqrt(2 * math.log(rep.mlr)))
        z_rep = math.sqrt(2.0 * math.log(rep.mlr))
        if not _close(z_rep, z_true, REL_QUANTILE):
            bad.append(("calibrate", f"sqrt(2 ln mlr) {z_rep!r} vs mpmath {z_true!r} at p={p!r}"))
        if not _close(rep.deviance, 2.0 * math.log(rep.mlr), REL_EXACT):
            bad.append(("calibrate", f"deviance {rep.deviance!r} != 2 ln mlr at p={p!r}"))
        if p < 1 / math.e:
            b = float(-mpmath.e * p * mpmath.log(p))
            if not _close(rep.bf_lower_bound, b, REL_EXACT):
                bad.append(("calibrate", f"bf bound {rep.bf_lower_bound!r} vs {b!r} at p={p!r}"))
        want = float(-mpmath.log(p) / mpmath.log(base[spec["unit"]]))
        if not _close(s.value, want, REL_EXACT):
            bad.append(("units", f"surprisal {s.value!r} vs {want!r} at p={p!r}"))
        want = float(-mpmath.log(p) / mpmath.log(base[spec["other"]]))
        if not _close(s_other.value, want, REL_EXACT):
            bad.append(("units", f"converted surprisal {s_other.value!r} vs {want!r} at p={p!r}"))
        sig_true = _norm_isf(p, sigma)
        if not _close(sigma, sig_true, REL_QUANTILE):
            bad.append(("units", f"sigma {sigma!r} vs mpmath {sig_true!r} at p={p!r}"))
    return bad


def check_anchors(svalue) -> list:
    """The p = 0.05 anchors: sigma 1.645, MLR 6.83, 1/b 2.46, 4.32 bits."""
    bad: list = []
    p = svalue.PValue(0.05)
    rep = svalue.calibration_report(p, 1)
    z = _norm_isf(0.025, 1.96)
    sig = _norm_isf(0.05, 1.645)
    anchors = (
        ("calibrate", "mlr", rep.mlr, math.exp(z * z / 2)),
        ("calibrate", "1/b", rep.odds_increase_bound,
         float(1 / (-mpmath.e * mpmath.mpf("0.05") * mpmath.log(mpmath.mpf("0.05"))))),
        ("units", "sigma", svalue.two_sided_to_sigma(p), sig),
        ("units", "bits", svalue.surprisal(p, svalue.InfoUnit.BITS).value,
         float(-mpmath.log(mpmath.mpf(0.05), 2))),
    )
    for layer, what, got, want in anchors:
        if not _close(got, want, REL_QUANTILE):
            bad.append((layer, f"p=0.05 anchor {what} {got!r} vs {want!r}"))
    return bad


# -- monte_carlo ----------------------------------------------------------------

def check_simulation(req, wl) -> list:
    spec, res, kind = req.spec, req.result, req.kind
    bad: list = []
    rerun = req.prepare()()
    if repr(rerun) != repr(res):
        bad.append(("simulate", f"{kind} rerun with seed {spec['seed']} "
                                f"stream {spec['stream']} differs"))
    if kind == "uniform":
        if abs(res.mean_s_nats - 1.0) > MC_SE * res.se_of_mean:
            bad.append(("simulate", f"uniform mean surprisal {res.mean_s_nats!r} "
                                    f"not within {MC_SE} SE ({res.se_of_mean!r}) of 1 nat"))
    elif kind == "binomial":
        if res.dominance_violations != 0:
            bad.append(("simulate", f"exact binomial has {res.dominance_violations} "
                                    "dominance violations"))
        if res.mean_s_nats > 1.0 + MC_SE * res.se_of_mean:
            bad.append(("simulate", f"exact binomial mean surprisal {res.mean_s_nats!r} "
                                    "above 1 nat"))
        if spec["trials"] <= 100:
            bad += _check_tails(wl.sim, spec["trials"], spec["theta0"])
    elif kind == "evalue":
        if not res.passed:
            bad.append(("simulate", f"e-value check failed: {res!r}"))
        if spec["trials"] is None and abs(res.mean_e_condition - 1.0) > MC_SE * res.se_of_mean:
            bad.append(("simulate", f"uniform e-value mean {res.mean_e_condition!r} not near 1"))
    else:
        bad += _check_ks(wl, spec, res)
    return bad


def _check_tails(sim, trials: int, theta0: float) -> list:
    got = sim.binomial_upper_tail_pvalues(trials, theta0)
    th = Fraction(theta0)
    pmf = [math.comb(trials, x) * th**x * (1 - th) ** (trials - x) for x in range(trials + 1)]
    acc = Fraction(0)
    for x in range(trials, 0, -1):
        acc += pmf[x]
        want = float(acc)
        if want > 1e-300 and not _close(got[x], min(want, 1.0), REL_EXACT):
            return [("simulate", f"binomial tail P(X >= {x}) {got[x]!r} vs exact {want!r} "
                                 f"(trials={trials}, theta0={theta0!r})")]
    return []


def _check_ks(wl, spec: dict, res) -> list:
    np = wl.np
    data = np.sort(wl.ks_samples(spec))
    n = data.size
    cdf = -np.expm1(-data) if spec["ref"] == "exponential_1" else data
    above = np.searchsorted(data, data, side="right") / n - cdf
    below = cdf - np.searchsorted(data, data, side="left") / n
    d_stat = float(max(above.max(), below.max()))
    if abs(res.ks_statistic - d_stat) > 1e-12:
        return [("simulate", f"KS statistic {res.ks_statistic!r} vs {d_stat!r}")]
    if res.n != n or not _close(res.critical_value, 1.63 / math.sqrt(n), REL_EXACT):
        return [("simulate", f"KS critical value {res.critical_value!r} at n={n}")]
    return []


# -- cli_session ------------------------------------------------------------------

def _flatten(value, prefix=""):
    out = {}
    for k, v in value.items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def _fmt_table(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.4g}"
    return str(v)


def _opt(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def expected_cli(sv, argv: list) -> dict | list:
    """The library's answer to one CLI call, keyed like the CLI's output."""
    cmd = argv[0]
    if cmd == "convert":
        if "--p" in argv:
            p = sv.PValue(float(_opt(argv, "--p")))
            s = sv.surprisal(p, sv.InfoUnit.NATS)
        else:
            s = sv.SValue(float(_opt(argv, "--s")), sv.InfoUnit(_opt(argv, "--from-unit")))
            p = sv.from_surprisal(s)
        out = {"p": p.value}
        for u in ("bits", "nats", "dits"):
            out[f"s_{u}"] = sv.convert(s, sv.InfoUnit(u)).value
        out["coin_tosses"] = sv.coin_toss_gauge(p)
        out["sigma"] = None if p.value == 1.0 else sv.two_sided_to_sigma(p)
        return out
    if cmd == "calibrate":
        r = sv.calibration_report(sv.PValue(float(_opt(argv, "--p"))), int(_opt(argv, "--d", "1")))
        return {"p": r.p, "d": r.df_d, "mlr": r.mlr, "deviance": r.deviance,
                "aic_delta": r.aic_delta, "bf_lower_bound": r.bf_lower_bound,
                "odds_increase_bound": r.odds_increase_bound,
                "conditional_type1": r.conditional_type1}
    if cmd == "combine":
        method = _opt(argv, "--method")
        r = run_method(sv, method, sv.studies_from_csv(_opt(argv, "--input")))
        if method == "s-sum":
            return {"k": r.k, "s_plus_nats": r.s_plus.value, "df": r.df, "p_summary": r.p_summary,
                    "s_summary_nats": r.s_summary.value,
                    "expected_noise_nats": r.expected_noise_nats,
                    "shrinkage_nats": r.shrinkage_nats}
        if method == "z2":
            return {"k": r.k, "statistic": r.statistic, "df": r.df, "p_summary": r.p_summary,
                    "s_summary_nats": r.s_summary.value}
        pooled = r if method == "pooled" else r.pooled
        pooled_fields = {"pooled_estimate": pooled.pooled_estimate, "pooled_se": pooled.pooled_se,
                         "z": pooled.z, "s_summary_nats": pooled.s_summary.value, "df": pooled.df}
        if method == "pooled":
            return {"k": r.k, "p_two_sided": r.p_two_sided, **pooled_fields}
        f = r.s_summation
        out = {"k": f.k, "s_summation.s_plus_nats": f.s_plus.value, "s_summation.df": f.df,
               "s_summation.p_summary": f.p_summary,
               "s_summation.s_summary_nats": r.s_summation_nats,
               "pooled.p_summary": pooled.p_two_sided, "difference_nats": r.difference_nats}
        out.update({f"pooled.{k}": v for k, v in pooled_fields.items()})
        return out
    if cmd == "curve":
        spec = sv.EstimateSpec(float(_opt(argv, "--estimate")), float(_opt(argv, "--se")))
        pts = sv.curve(spec, float(_opt(argv, "--from")), float(_opt(argv, "--to")),
                       int(_opt(argv, "--steps")), sv.InfoUnit(_opt(argv, "--unit", "bits")))
        return [[pt.mu1, pt.p_ge, pt.p_le, pt.s_le.value, pt.p_two, pt.s_two.value] for pt in pts]
    rng = sv.RngSpec(int(_opt(argv, "--seed", "0")), int(_opt(argv, "--stream", "0")))
    if _opt(argv, "--generator", "uniform") == "uniform":
        r = sv.simulate_uniform_p(int(_opt(argv, "--n")), rng)
    else:
        r = sv.simulate_exact_binomial(int(_opt(argv, "--n")), int(_opt(argv, "--trials")),
                                       float(_opt(argv, "--theta0")), rng)
    out = {"n": r.n, "mean_s_nats": r.mean_s_nats, "mean_s_bits": r.mean_s_bits,
           "se_of_mean": r.se_of_mean, "dominance_violations": r.dominance_violations,
           "low_n": r.low_n}
    out.update({f"empirical_type1.{a!r}": v for a, v in r.empirical_type1.items()})
    return out


def check_cli(sv, req) -> list:
    """CLI stdout equals the library result: exactly for JSON and CSV, to the
    4 significant figures of the table format for tables."""
    argv, stdout = req.spec["argv"], req.result
    fmt = _opt(argv, "--format")
    want = expected_cli(sv, argv)
    if argv[0] == "curve":
        if fmt == "json":
            rows = [[r[c] for c in ("mu1", "p_ge", "p_le", "s_le", "p_two", "s_two")]
                    for r in json.loads(stdout)]
        else:
            rows = [[float(v) for v in r] for r in list(csv.reader(io.StringIO(stdout)))[1:]]
        if rows != want:
            return [("cli", f"curve output differs from library: {argv}")]
        return []
    if argv[0] == "simulate" or fmt == "json":
        got = _flatten(json.loads(stdout))
        same = all(got.get(k, object()) == v for k, v in want.items())
    elif fmt == "csv":
        header, row = list(csv.reader(io.StringIO(stdout)))
        got = dict(zip(header, row))
        same = all(got.get(k) == ("" if v is None else repr(v) if isinstance(v, float) else str(v))
                   for k, v in want.items())
    else:
        got = dict(line.split(None, 1) for line in stdout.splitlines())
        same = all(got.get(k) == _fmt_table(v) for k, v in want.items())
    return [] if same else [("cli", f"{argv[0]} {fmt} output differs from library: {argv}")]
