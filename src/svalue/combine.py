"""Evidence combination across independent studies.

Three routes are provided:

* the S-summation test (Fisher's method in surprisal form): sum the per-study
  surprisals in nats and refer twice the sum to a chi-squared distribution on
  2K degrees of freedom, testing the conjunction of the study models;
* the Z-squared summation test on K degrees of freedom;
* the homogeneity-constrained pooled test (inverse-variance fixed-effect
  pooling), whose single shared effect imposes K - 1 cross-study constraints
  and therefore lands on 1 df.

Under the null each study contributes 1 "noise" nat on average, so the summed
surprisal carries K expected noise nats while the combined test's summary
surprisal averages only 1 nat; reports account for that shrinkage explicitly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

from .specfun import ChiSquare, log_chisq_survival, normal_cdf
from .units import InfoUnit, PValue, SValue

Z_SQUARED_DF_CAVEAT = (
    "df = K assumes no cross-study information was used to compute the "
    "z-scores; reduce df by the number of cross-study sharp constraints "
    "imposed when deriving them"
)


class SchemaError(ValueError):
    """A study CSV file does not match the expected column layout."""


@dataclass(frozen=True)
class StudyResult:
    """One study's evidence: either a P-value or an (estimate, std error) pair."""

    id: str
    p: PValue | None = None
    estimate: float | None = None
    std_error: float | None = None

    def __post_init__(self) -> None:
        has_effect = self.estimate is not None or self.std_error is not None
        if (self.p is not None) == has_effect:
            raise ValueError(
                f"study {self.id!r} must carry exactly one of a P-value or an "
                "(estimate, std_error) pair"
            )
        if has_effect:
            if self.estimate is None or self.std_error is None:
                raise ValueError(
                    f"study {self.id!r} effect form needs both estimate and std_error"
                )
            if math.isnan(self.estimate) or math.isinf(self.estimate):
                raise ValueError(f"study {self.id!r} estimate must be finite")
            if not (self.std_error > 0.0) or math.isinf(self.std_error):
                raise ValueError(
                    f"study {self.id!r} std_error must be a positive finite number"
                )

    @classmethod
    def from_p(cls, id: str, p: float) -> "StudyResult":
        return cls(id=id, p=PValue(p))

    @classmethod
    def from_effect(cls, id: str, estimate: float, std_error: float) -> "StudyResult":
        return cls(id=id, estimate=float(estimate), std_error=float(std_error))


@dataclass(frozen=True)
class CombinationReport:
    """S-summation result with noise-nat accounting."""

    k: int
    s_plus: SValue  # summed surprisal, nats
    df: int  # 2k
    p_summary: float  # may underflow to 0.0; s_summary stays finite
    s_summary: SValue  # nats
    expected_noise_nats: float  # k
    shrinkage_nats: float  # s_plus - s_summary


@dataclass(frozen=True)
class ZSquaredReport:
    k: int
    statistic: float
    df: int  # k, see Z_SQUARED_DF_CAVEAT
    p_summary: float
    s_summary: SValue
    notes: tuple[str, ...] = (Z_SQUARED_DF_CAVEAT,)


@dataclass(frozen=True)
class PooledReport:
    """Inverse-variance fixed-effect pooling under homogeneity (df = 1)."""

    k: int
    pooled_estimate: float
    pooled_se: float
    z: float
    p_two_sided: float
    s_summary: SValue
    df: int = 1


@dataclass(frozen=True)
class MethodComparison:
    """S-summation vs pooled test on the same effect-form studies."""

    s_summation: CombinationReport
    pooled: PooledReport
    s_summation_nats: float
    difference_nats: float  # pooled - s_summation


def _summary_from_chisq(df: int, x: float) -> tuple[float, float]:
    """(survival p, surprisal in nats) of a chi-squared statistic.

    The surprisal comes from the log-space kernel and stays finite; p = e^-s is
    for display and may underflow to 0.0.
    """
    s = -log_chisq_survival(ChiSquare(df), x)
    return math.exp(-s), s


def _two_sided_p(z: float) -> float:
    # erfc-based tail: no cancellation for large |z|.
    return 2.0 * normal_cdf(-abs(z))


def s_summation_test(studies: list[StudyResult]) -> CombinationReport:
    """Fisher-style combination of per-study P-values in surprisal form.

    Tests the conjunction of the study models: s_plus = sum of -ln(p_k), with
    2 * s_plus referred to chi-squared on 2K df.
    """
    if not studies:
        raise ValueError("s_summation_test requires at least one study")
    bad = [st.id for st in studies if st.p is None]
    if bad:
        raise ValueError(f"s_summation_test needs P-value evidence; studies {bad} carry effects")
    return _s_summation(len(studies), math.fsum(-math.log(st.p.value) for st in studies))


def _s_summation(k: int, s_plus: float) -> CombinationReport:
    """The S-summation report for K studies whose surprisals sum to s_plus nats."""
    p_summary, s_summary = _summary_from_chisq(2 * k, 2.0 * s_plus)
    return CombinationReport(
        k=k,
        s_plus=SValue(s_plus, InfoUnit.NATS),
        df=2 * k,
        p_summary=p_summary,
        s_summary=SValue(s_summary, InfoUnit.NATS),
        expected_noise_nats=float(k),
        shrinkage_nats=s_plus - s_summary,
    )


def z_squared_test(z_scores: list[float]) -> ZSquaredReport:
    """Sum of squared z-scores referred to chi-squared on K df.

    The K-df reference is only right when no cross-study information went into
    the z-scores (see Z_SQUARED_DF_CAVEAT, reported in notes).
    """
    if not z_scores:
        raise ValueError("z_squared_test requires at least one z-score")
    for z in z_scores:
        if math.isnan(z) or math.isinf(z):
            raise ValueError(f"z-scores must be finite, got {z!r}")
    k = len(z_scores)
    try:  # fsum returns inf for an infinite square and raises on a finite overflow
        statistic = math.fsum(z * z for z in z_scores)
        if math.isinf(statistic):
            raise OverflowError
    except OverflowError:
        raise OverflowError("the sum of squared z-scores overflows") from None
    p_summary, s_summary = _summary_from_chisq(k, statistic)
    return ZSquaredReport(
        k=k,
        statistic=statistic,
        df=k,
        p_summary=p_summary,
        s_summary=SValue(s_summary, InfoUnit.NATS),
    )


def pooled_homogeneity_test(
    studies: list[StudyResult], null_value: float = 0.0
) -> PooledReport:
    """Fixed-effect inverse-variance pooling, then a two-sided normal test.

    Assuming one common effect across the K studies imposes K - 1 constraints,
    so the pooled z-test has 1 df regardless of K.
    """
    if not studies:
        raise ValueError("pooled_homogeneity_test requires at least one study")
    if not math.isfinite(null_value):
        raise ValueError(f"null value must be finite, got {null_value!r}")
    bad = [st.id for st in studies if st.p is not None]
    if bad:
        raise ValueError(
            f"pooled_homogeneity_test needs effect-form evidence; studies {bad} carry P-values"
        )
    # Weights relative to the smallest std error neither underflow nor overflow.
    se_min = min(st.std_error for st in studies)
    weights = [(se_min / st.std_error) ** 2 for st in studies]
    total_w = math.fsum(weights)
    pooled_estimate = math.fsum(w * st.estimate for w, st in zip(weights, studies)) / total_w
    pooled_se = se_min / math.sqrt(total_w)
    z = (pooled_estimate - null_value) / pooled_se
    if math.isinf(z):
        raise OverflowError("the pooled z-score (estimate - null) / std_error overflows")
    _, s_nats = _summary_from_chisq(1, z * z)  # the two-sided normal tail
    return PooledReport(
        k=len(studies),
        pooled_estimate=pooled_estimate,
        pooled_se=pooled_se,
        z=z,
        p_two_sided=_two_sided_p(z),
        s_summary=SValue(s_nats, InfoUnit.NATS),
    )


def compare_methods(
    studies: list[StudyResult], null_value: float = 0.0
) -> MethodComparison:
    """Run the S-summation and pooled tests side by side on effect-form studies.

    Per-study P-values for the S-summation route are two-sided normal, from
    (estimate - null) / std_error.
    """
    pooled = pooled_homogeneity_test(studies, null_value)
    z_scores = [(st.estimate - null_value) / st.std_error for st in studies]
    for st, z in zip(studies, z_scores):
        if math.isinf(z):
            raise OverflowError(
                f"study {st.id!r}: the z-score (estimate - null) / std_error overflows"
            )
    fisher = _s_summation(len(studies), math.fsum(-math.log(_two_sided_p(z)) for z in z_scores))
    s_fisher = fisher.s_summary.value
    return MethodComparison(
        s_summation=fisher,
        pooled=pooled,
        s_summation_nats=s_fisher,
        difference_nats=pooled.s_summary.value - s_fisher,
    )


P_COLUMNS = ("id", "p")
EFFECT_COLUMNS = ("id", "estimate", "std_error")


def studies_from_csv(path: str | os.PathLike) -> list[StudyResult]:
    """Read a study table: header `id,p` or `id,estimate,std_error` (UTF-8, optional BOM).

    Raises SchemaError on any layout or value problem, naming the physical line
    where the offending record ends; I/O errors propagate.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(
                    f"empty study file; expected header {','.join(P_COLUMNS)} or "
                    f"{','.join(EFFECT_COLUMNS)}"
                )
            header = tuple(h.strip().lower() for h in header)
            if header == P_COLUMNS:
                p_form = True
            elif header == EFFECT_COLUMNS:
                p_form = False
            else:
                raise SchemaError(
                    f"unrecognized columns {list(header)}; expected "
                    f"{','.join(P_COLUMNS)} or {','.join(EFFECT_COLUMNS)}"
                )
            studies: list[StudyResult] = []
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise SchemaError(
                        f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    if p_form:
                        studies.append(StudyResult.from_p(row[0].strip(), float(row[1])))
                    else:
                        studies.append(
                            StudyResult.from_effect(row[0].strip(), float(row[1]), float(row[2]))
                        )
                except ValueError as exc:
                    raise SchemaError(f"line {reader.line_num}: {exc}") from None
        except csv.Error as exc:  # a malformed line, say a field over csv.field_size_limit
            raise SchemaError(f"line {reader.line_num}: {exc}") from None
    if not studies:
        raise SchemaError("study file contains a header but no data rows")
    return studies
