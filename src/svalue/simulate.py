"""Monte Carlo validation of P-value uniformity and conservativeness claims.

A valid (uniform) P-value turns into an exponentially distributed surprisal
with mean 1 nat = 1.443 bits, and the rule "reject if p <= alpha" rejects at
rate alpha. Exact discrete tests are only conservatively valid: their P-value
stochastically dominates the uniform, Pr(P <= alpha) <= alpha, and the mean
surprisal reads as minimum information. This module checks all of that by
simulation, plus the e-value condition E[-ln P] <= 1 and a one-sample
Kolmogorov-Smirnov fit report.

numpy, the `simulate` extra, is imported on first use, by `_numpy` alone, so
`import svalue` and the CLI's other subcommands never load it; without numpy,
the error reads "simulate needs numpy (pip install 'svalue[simulate]')".

No path holds n draws. Each generator hands over groups of P-values, each
with its count k, the sum S and mean m of -ln P, M2 (the sum of squared
deviations from m) and its hits at each alpha. One pooling step reports them:
n = sum k, mean = fsum(S) / n and M2 = fsum(M2) + fsum(k (m - mean)^2).
Uniform P-values are drawn in chunks of CHUNK, one group each, each thread
drawing its run of chunks into one reused buffer. The exact binomial draws its
outcome histogram in one multinomial, in O(trials) time and memory whatever n
is, and each drawn outcome is a group with M2 = 0. Its tails come from float
pmf ratios taken outward from the mode over their fsum, at every trial count
(within 1e-12 relative of rational tails up to 2000 trials). The KS report
reads its samples in place and sorts F of only those that can hold its largest
gap. One fan-out, `_on_threads`, runs the uniform chunks and both KS passes on
up to one thread per CPU, each with at least THREAD_CHUNKS chunks: the calling
thread and a ThreadPoolExecutor, imported only by a call that uses more than
one thread. Memory is O(CHUNK) per thread (under 1 byte per draw for the
simulations) plus the F values the KS report gathers.

Reproducibility contract: draws come from numpy's PCG64 bit generator seeded
with SeedSequence(entropy=seed, spawn_key=(stream,)). The same (seed, stream)
pair yields bit-identical results across runs and platforms. The pooled sums
are exactly rounded, so a summary does not depend on the order of its groups.
Chunk j is drawn after `advance(j * CHUNK)` (one 64-bit output per double), and
the KS report scans each gathered F at its exact rank i, with i / n one
division; so results do not depend on the thread count. Uniform results above
CHUNK draws may differ from a single pass over all draws in their last bit.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .specfun import _checked_int, _checked_make, _checked_real
from .units import InfoUnit

if TYPE_CHECKING:
    import numpy as np

LOW_N = 1000  # below this, summary statistics are flagged as unreliable
KS_CRITICAL_COEF = 1.63  # asymptotic one-sample KS critical value at the 1% level
CHUNK = 1 << 16  # values per uniform-draw and KS chunk; fixed, so reruns stay bit-identical
THREAD_CHUNKS = 16  # fewest chunks per thread; a uniform run holds ~9 CHUNK bytes: < 0.6 B/draw


def _numpy():
    """numpy, imported here alone, or the error the CLI prints when it is missing."""
    try:
        import numpy
    except ModuleNotFoundError:
        raise ModuleNotFoundError("simulate needs numpy (pip install 'svalue[simulate]')",
                                  name="numpy") from None
    return numpy


class RngSpec(NamedTuple("RngSpec", [("seed", int), ("stream", int)])):
    """Seed and substream index for a reproducible PCG64 stream."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, seed: int, stream: int = 0) -> RngSpec:
        seed, stream = (_checked_int(v, f"{name} must be an integer in [0, 2^64)", 0, 2**64)
                        for name, v in (("seed", seed), ("stream", stream)))
        return tuple.__new__(cls, (seed, stream))

    def generator(self) -> np.random.Generator:
        np = _numpy()
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))


class SimulationSummary(NamedTuple):
    n: int
    mean_s_nats: float
    mean_s_bits: float
    se_of_mean: float | None  # standard error of mean_s_nats; None when n = 1
    empirical_type1: dict[float, float]  # alpha -> rejection rate
    dominance_violations: int  # alphas with rate > alpha + 3 binomial SEs
    low_n: bool
    notes: tuple[str, ...] = ()


class EValueCheck(NamedTuple):
    n: int
    generator: str
    mean_e_condition: float  # sample mean of -ln P
    se_of_mean: float | None  # None when n = 1
    passed: bool  # mean - 3 SE does not exceed 1
    low_n: bool
    notes: tuple[str, ...] = ()


class DistributionReport(NamedTuple):
    n: int
    reference: str
    ks_statistic: float
    critical_value: float  # 1.63 / sqrt(n)
    passed: bool


def _check_alphas(alphas: Sequence[float]) -> list[float]:
    """The distinct alpha levels in first-seen order, as floats, each checked as given in (0, 1)."""
    return list(dict.fromkeys(_checked_real(a, "alpha levels must lie in (0, 1)", 0.0, 1.0)
                              for a in alphas))


def _uniform_groups(rng: RngSpec, n: int, first: int, last: int, alphas: list[float]) -> list:
    """Chunks first .. last - 1 of n uniform P-values as groups. Each chunk is drawn into one
    reused buffer and summarized there: its hits per alpha, then ln p in place, whose sum,
    mean and M2 are numpy's sum, mean and squared deviations, bit for bit."""
    np = _numpy()
    gen = rng.generator()
    gen.bit_generator.advance(first * CHUNK)  # one 64-bit output per double
    buf = np.empty(min(CHUNK, n - first * CHUNK))
    hit = np.empty(buf.size, dtype=bool)
    groups = []
    for j in range(first, last):
        p = buf[:min(CHUNK, n - j * CHUNK)]
        # 1 - U keeps the draw in (0, 1]; numpy's random() can return exactly 0.
        np.subtract(1.0, gen.random(out=p), out=p)
        hits = [int(np.count_nonzero(np.less_equal(p, a, out=hit[:p.size]))) for a in alphas]
        total = -float(np.log(p, out=p).sum())  # negation is exact: the sum of -ln p
        mean = total / p.size
        np.add(p, mean, out=p)  # ln p + mean = -(-ln p - mean) exactly, and squares alike
        groups.append((p.size, total, mean, float(np.square(p, out=p).sum()), hits))
    return groups


def _pool(groups: list[tuple], alphas: list[float]) -> SimulationSummary:
    """The one pooling step: summarize groups (count k, sum S of -ln p, mean m, M2 about m,
    hits per alpha) by exactly rounded sums, which do not depend on the groups' order."""
    counts, sums, means, m2s, hits = zip(*groups)
    n = sum(counts)
    mean_nats = math.fsum(sums) / n
    devs = [m - mean_nats for m in means]
    m2 = math.fsum(m2s) + math.fsum(k * (d * d) for k, d in zip(counts, devs))
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else None
    notes = [f"n = {n} is below {LOW_N}; summary statistics are unreliable"] if n < LOW_N else []
    if se is None:  # n = 1, which is also below LOW_N
        notes.append("se_of_mean is undefined at n = 1")
    rates = {a: h / n for a, h in zip(alphas, map(sum, zip(*hits)))}
    violations = sum(rate > a + 3.0 * math.sqrt(a * (1.0 - a) / n) for a, rate in rates.items())
    return SimulationSummary(
        n=n,
        mean_s_nats=mean_nats,
        mean_s_bits=mean_nats / InfoUnit.BITS.nats_per_unit,
        se_of_mean=se,
        empirical_type1=rates,
        dominance_violations=violations,
        low_n=n < LOW_N,
        notes=tuple(notes),
    )


def _runs(chunks: int) -> list[tuple[int, int]]:
    """Chunks 0 .. chunks - 1 in runs (first, last), one per CPU, each of >= THREAD_CHUNKS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = max(1, min(cpus or 1, chunks // THREAD_CHUNKS))
    return [(chunks * i // parts, chunks * (i + 1) // parts) for i in range(parts)]


def _on_threads(parts: int, run) -> list:
    """[run(0), .., run(parts - 1)]: run(0) on the calling thread, the others on a thread pool
    joined before this returns; the lowest failing run's exception is raised."""
    if parts == 1:
        return [run(0)]
    from concurrent.futures import ThreadPoolExecutor  # here, so one thread never loads it

    with ThreadPoolExecutor(parts - 1) as pool:
        rest = pool.map(run, range(1, parts))
        return [run(0), *rest]


def simulate_uniform_p(
    n: int, rng: RngSpec, alphas: Sequence[float] = (0.01, 0.05, 0.1)
) -> SimulationSummary:
    """Draw n uniform P-values and summarize their surprisal distribution.

    Under uniformity the mean surprisal targets 1 nat (1.443 bits) and the
    rejection rate at each alpha targets alpha itself.
    """
    alphas = _check_alphas(alphas)
    n = _checked_int(n, "replicate count must be a positive integer")
    runs = _runs(-(-n // CHUNK))
    groups = _on_threads(len(runs), lambda i: _uniform_groups(rng, n, *runs[i], alphas))
    return _pool([g for r in groups for g in r], alphas)


def binomial_upper_tail_pvalues(trials: int, theta0: float) -> list[float]:
    """Exact one-sided upper-tail P-values Pr(X >= x) for x = 0 .. trials.

    The pmf relative to its mode m = floor((trials + 1) theta0) is built
    outward from m by pmf(x + 1) / pmf(x) = (trials - x) / (x + 1) *
    theta0 / (1 - theta0), so no term exceeds ~1 and no big integer meets a
    float; the tails are a running sum from x = trials downward over the
    terms' fsum. No normal approximation anywhere.
    """
    trials = _checked_int(trials, "trials must be a positive integer")
    theta0 = _checked_real(theta0, "theta0 must lie in (0, 1)", 0.0, 1.0)
    mode = min(int((trials + 1) * theta0), trials)
    up, down = theta0 / (1.0 - theta0), (1.0 - theta0) / theta0
    pmf = [0.0] * (trials + 1)  # pmf(x) / pmf(mode); a far term may underflow to 0
    pmf[mode] = 1.0
    for x in range(mode, trials):
        pmf[x + 1] = pmf[x] * (trials - x) / (x + 1) * up
    for x in range(mode, 0, -1):
        pmf[x - 1] = pmf[x] * x / (trials - x + 1) * down
    total = math.fsum(pmf)
    tails = [min(acc / total, 1.0) for acc in accumulate(pmf[:0:-1])]  # x = trials .. 1
    return [1.0, *reversed(tails)]


def simulate_exact_binomial(
    n_reps: int,
    trials: int,
    theta0: float,
    rng: RngSpec,
    alphas: Sequence[float] = (0.01, 0.05, 0.1),
) -> SimulationSummary:
    """Simulate the exact one-sided binomial test under its own null.

    Checks conservative validity: at every alpha the empirical Pr(P <= alpha)
    must stay within 3 binomial standard errors of being <= alpha
    (dominance_violations counts the failures), and the mean surprisal is at
    most ~1 nat, read as minimum information against the null.
    """
    np = _numpy()
    alphas = _check_alphas(alphas)
    n_reps = _checked_int(n_reps, "replicate count must be a positive integer")
    tails = np.asarray(binomial_upper_tail_pvalues(trials, theta0))
    # The counts of n_reps iid outcomes are Multinomial(n_reps, pmf); the differences of
    # the tails telescope to 1, so the pmf passes numpy's sum check.
    counts = rng.generator().multinomial(n_reps, tails - np.append(tails[1:], 0.0))
    # An unreachable outcome's tail can underflow to 0, and 0 * inf is NaN.
    seen = counts > 0
    counts, p = counts[seen], tails[seen]
    # Each drawn outcome is a group of k equal P-values with mean s; (k * s) / k need not be s.
    return _pool([(k, k * s, s, 0.0, [k if px <= a else 0 for a in alphas])
                  for k, s, px in zip(counts.tolist(), (-np.log(p)).tolist(), p.tolist())],
                 alphas)


def evalue_check(
    n: int,
    rng: RngSpec,
    generator: str = "uniform",
    trials: int | None = None,
    theta0: float | None = None,
) -> EValueCheck:
    """Check the e-value condition: E[-ln P] <= 1 under the null generator.

    Equality holds for exactly uniform P; conservatively valid generators sit
    below 1. Passes when the sample mean minus 3 standard errors does not
    exceed 1. Small n is flagged, not failed.
    """
    if generator == "uniform":
        summary = simulate_uniform_p(n, rng, ())
    elif generator == "binomial":
        if trials is None or theta0 is None:
            raise ValueError("binomial generator requires trials and theta0")
        summary = simulate_exact_binomial(n, trials, theta0, rng, ())
        generator = f"binomial(trials={trials}, theta0={theta0})"
    else:
        raise ValueError(f"unknown generator {generator!r}; expected uniform or binomial")
    mean, se = summary.mean_s_nats, summary.se_of_mean
    margin = 0.0 if se is None else 3.0 * se
    return EValueCheck(
        n=summary.n,
        generator=generator,
        mean_e_condition=mean,
        se_of_mean=se,
        passed=mean - margin <= 1.0,
        low_n=summary.low_n,
        notes=summary.notes,
    )


def _ks_chunks(data: np.ndarray, first: int, last: int, cdf, nb: int):
    """F and bucket int(F nb), F = 1 in nb - 1, per chunk first .. last - 1, in reused buffers."""
    np = _numpy()
    f = np.empty(min(CHUNK, data.size - first * CHUNK))
    b = np.empty(f.size, dtype=np.intp)
    for start in range(first * CHUNK, min(last * CHUNK, data.size), CHUNK):
        fx = cdf(data[start:start + CHUNK], f[:min(CHUNK, data.size - start)])
        if np.isnan(fx.max()):  # the CDF keeps NaN, and max propagates it
            raise ValueError("samples must not contain NaN")
        j = np.multiply(fx, nb, out=b[:fx.size], casting="unsafe")  # truncates, as F >= 0
        yield fx, np.minimum(j, nb - 1, out=j)


def _ks_gather(data: np.ndarray, first: int, last: int, cdf, keep: np.ndarray, out) -> None:
    """F of the samples of chunks first .. last - 1 in kept buckets, in order, into out."""
    if out.size == min(last * CHUNK, data.size) - first * CHUNK:  # all kept: no bucket to find
        cdf(data[first * CHUNK:last * CHUNK], out)
    else:
        for fx, j in _ks_chunks(data, first, last, cdf, keep.size):
            at = keep[j].nonzero()[0]
            fx.take(at, out=out[:at.size], mode="clip")  # "raise" would copy out first
            out = out[at.size:]


def distribution_report(samples, reference: str) -> DistributionReport:
    """One-sample Kolmogorov-Smirnov fit report against a fixed reference CDF.

    reference is "exponential_1" or "uniform_01"; passes when the KS statistic
    stays under the asymptotic 1% critical value 1.63 / sqrt(n).

    The samples are read in place: F of only those in buckets of F that can hold the largest D
    (all n at worst) is gathered, sorted and scanned at its exact ranks by the whole-array
    formula, so D is the same double at any thread count, in O(nb + CHUNK) memory per thread.
    """
    np = _numpy()
    data = np.asarray(samples, dtype=float)
    n = data.size
    if n < 100 or data.ndim != 1:
        raise ValueError(f"distribution_report needs 100 or more samples in 1-D, got {data.shape}")
    if reference == "exponential_1":
        def cdf(x, out):
            np.clip(x, 0.0, None, out=out)
            return np.negative(np.expm1(np.negative(out, out=out), out=out), out=out)
    elif reference == "uniform_01":
        def cdf(x, out):
            return np.clip(x, 0.0, 1.0, out=out)
    else:
        raise ValueError(f"unknown reference {reference!r}; expected exponential_1 or uniform_01")
    nb = min(CHUNK, n // 16)
    runs = _runs(-(-n // CHUNK))
    per_run = _on_threads(len(runs), lambda r: sum(  # pass 1
        np.bincount(j, minlength=nb) for _, j in _ks_chunks(data, *runs[r], cdf, nb)))
    c = sum(per_run)
    end = np.cumsum(c)  # bucket j: ranks C + 1 .. end with C = end - c, F in [j, j + 1] / nb,
    # so D+ and D- in it lie in [top - 1 / nb, top]; each rounding is a few ulps of 1, << 1e-9
    top = np.maximum(end / n - np.arange(nb) / nb, np.arange(1, nb + 1) / nb - (end - c) / n)
    keep = (c > 0) & (top >= top[c > 0].max() - 1 / nb - 1e-9)
    at = np.cumsum([0] + [int(r[keep].sum()) for r in per_run])
    kept = np.empty(at[-1])
    _on_threads(len(runs), lambda r: _ks_gather(data, *runs[r], cdf, keep, kept[at[r]:at[r + 1]]))
    kept.sort()
    # kept bucket j's F at position p has rank shift + p + 1; shift grows past unkept samples
    shifts, new = np.unique(end[keep] - np.cumsum(c[keep]), return_index=True)
    bounds = [*(np.cumsum(c[keep]) - c[keep])[new].tolist(), kept.size]
    d_stat = 0.0
    for first, last, s in zip(bounds, bounds[1:], shifts.tolist()):
        for p in range(first, last, CHUNK):
            f = kept[p:min(p + CHUNK, last)]
            ramp = np.arange(s + p + 0.0, s + p + f.size + 1) / n  # (i - 1) / n and i / n
            d_stat = max(d_stat, float(np.max(ramp[1:] - f)), float(np.max(f - ramp[:-1])))
    critical = KS_CRITICAL_COEF / math.sqrt(n)
    return DistributionReport(
        n=n,
        reference=reference,
        ks_statistic=d_stat,
        critical_value=critical,
        passed=d_stat < critical,
    )
