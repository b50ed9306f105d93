"""Evidence combination across independent studies.

Three routes are provided, each computed from the float columns of a StudyTable, which
`studies_from_csv` and `StudyTable.from_columns` check study by study:

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
from array import array
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .specfun import ChiSquare, _two_sided_tail, log_chisq_survival
from .units import InfoUnit, SValue, _check_p

Z_SQUARED_DF_CAVEAT = (
    "df = K assumes no cross-study information was used to compute the "
    "z-scores; reduce df by the number of cross-study sharp constraints "
    "imposed when deriving them"
)


class SchemaError(ValueError):
    """A study file or table does not have the columns that are expected of it."""


def _check_effect(id: str, estimate: float, std_error: float) -> None:
    """The one check of an effect-form study's estimate and std error."""
    if math.isnan(estimate) or math.isinf(estimate):
        raise ValueError(f"study {id!r} estimate must be finite")
    if not (std_error > 0.0) or math.isinf(std_error):
        raise ValueError(f"study {id!r} std_error must be a positive finite number")


class Study(NamedTuple):
    """One row of a StudyTable: an id and either p or (estimate, std_error); the other is None."""

    id: str
    p: float | None = None
    estimate: float | None = None
    std_error: float | None = None


P_COLUMNS = ("id", "p")
EFFECT_COLUMNS = ("id", "estimate", "std_error")


class StudyTable(Sequence):
    """Checked studies as read-only `ids` and float `columns`, (p,) or (estimate, std_error).

    `studies_from_csv` reads one from a file and `from_columns` builds one in memory. Indexing
    and iteration give Study rows, built without checking again; a slice gives a list."""

    __slots__ = ("ids", "columns")
    ids: Sequence[str]
    columns: tuple[Sequence[float], ...]

    def __init__(self, ids: Sequence[str], columns: tuple[Sequence[float], ...]) -> None:
        if not (ids and len(columns) in (1, 2) and all(  # O(1): the builders checked each study
                isinstance(c, memoryview) and c.readonly and c.format == "d"
                and len(c) == len(ids) for c in columns)):
            raise TypeError("build a StudyTable with studies_from_csv or StudyTable.from_columns")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"a StudyTable is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def from_columns(cls, ids: Sequence[str], *columns: Sequence[float]) -> StudyTable:
        """The studies `ids` with a p column or estimate and std_error columns, each study
        checked as `studies_from_csv` checks a row."""
        if len(columns) not in (1, 2):
            raise TypeError("from_columns takes ids and either p or estimate, std_error")
        ids, columns = tuple(ids), [array("d", col) for col in columns]
        if not ids:
            raise ValueError("a StudyTable needs at least one study")
        if any(len(col) != len(ids) for col in columns):
            raise ValueError(f"{len(ids)} ids but columns of {[len(c) for c in columns]} values")
        check = _check_effect if len(columns) == 2 else lambda id_, p: _check_p(p)
        for row in zip(ids, *columns):
            check(*row)
        return cls(ids, tuple(memoryview(col).toreadonly() for col in columns))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int | slice) -> Study | list[Study]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if len(self.columns) == 1:
            return Study(self.ids[i], self.columns[0][i])
        return Study(self.ids[i], None, self.columns[0][i], self.columns[1][i])

    def __iter__(self) -> Iterator[Study]:
        rows = zip(self.ids, *self.columns)
        if len(self.columns) == 1:
            return (Study(id_, p) for id_, p in rows)
        return (Study(id_, None, estimate, std_error) for id_, estimate, std_error in rows)


def _columns(studies: StudyTable, test: str, p_form: bool) -> tuple:
    """The table's (p,) column if p_form, else its (estimate, std_error) columns."""
    if not isinstance(studies, StudyTable):
        raise TypeError(f"{test} takes a StudyTable, not {type(studies).__name__}; build one "
                        "with StudyTable.from_columns")
    if len(studies.columns) != (1 if p_form else 2):
        need, have = (P_COLUMNS, EFFECT_COLUMNS) if p_form else (EFFECT_COLUMNS, P_COLUMNS)
        raise SchemaError(f"{test} needs columns {','.join(need)}; the studies carry "
                          f"{','.join(have)}")
    return studies.columns


class CombinationReport(NamedTuple):
    """S-summation result with noise-nat accounting."""

    k: int
    s_plus: SValue  # summed surprisal, nats
    df: int  # 2k
    p_summary: float  # may underflow to 0.0; s_summary stays finite
    s_summary: SValue  # nats
    expected_noise_nats: float  # k
    shrinkage_nats: float  # s_plus - s_summary


class ZSquaredReport(NamedTuple):
    k: int
    statistic: float
    df: int  # k, see Z_SQUARED_DF_CAVEAT
    p_summary: float
    s_summary: SValue
    notes: tuple[str, ...] = (Z_SQUARED_DF_CAVEAT,)


class PooledReport(NamedTuple):
    """Inverse-variance fixed-effect pooling under homogeneity (df = 1)."""

    k: int
    pooled_estimate: float
    pooled_se: float
    z: float
    p_two_sided: float
    s_summary: SValue
    df: int = 1


class MethodComparison(NamedTuple):
    """S-summation vs pooled test on the same effect-form studies."""

    s_summation: CombinationReport
    pooled: PooledReport
    s_summation_nats: float
    difference_nats: float  # pooled - s_summation


def _summary_from_chisq(df: int, terms: Iterable[float], name: str) -> tuple[float, float, float]:
    """(statistic, survival p, surprisal in nats) of the chi-squared statistic fsum(terms).

    A statistic that overflows is refused, naming it as `name`. The surprisal comes from
    the log-space kernel and stays finite; p = e^-s is for display and may underflow to 0.0.
    """
    try:  # fsum returns inf for an infinite term and raises on a finite overflow
        x = math.fsum(terms)
        if math.isinf(x):
            raise OverflowError
    except OverflowError:
        raise OverflowError(f"the {name} overflows") from None
    s = -log_chisq_survival(ChiSquare(df), x)
    return x, math.exp(-s), s


def s_summation_test(studies: StudyTable) -> CombinationReport:
    """Fisher-style combination of per-study P-values in surprisal form.

    Tests the conjunction of the study models: s_plus = sum of -ln(p_k), with
    2 * s_plus referred to chi-squared on 2K df.
    """
    (p,) = _columns(studies, "s_summation_test", p_form=True)
    return _s_summation(len(p), (-2.0 * math.log(v) for v in p))


def _s_summation(k: int, terms: Iterable[float]) -> CombinationReport:
    """The S-summation report for K studies from their 2 s_k, twice each surprisal in nats."""
    x, p_summary, s_summary = _summary_from_chisq(2 * k, terms, "S-summation statistic 2 s_plus")
    s_plus = x / 2.0  # exact: fsum rounds once, and halving is exact
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
    statistic, p_summary, s_summary = _summary_from_chisq(
        k, (z * z for z in z_scores), "sum of squared z-scores")
    return ZSquaredReport(
        k=k,
        statistic=statistic,
        df=k,
        p_summary=p_summary,
        s_summary=SValue(s_summary, InfoUnit.NATS),
    )


def pooled_homogeneity_test(studies: StudyTable, null_value: float = 0.0) -> PooledReport:
    """Fixed-effect inverse-variance pooling, then a two-sided normal test.

    Assuming one common effect across the K studies imposes K - 1 constraints,
    so the pooled z-test has 1 df regardless of K.
    """
    estimate, std_error = _columns(studies, "pooled_homogeneity_test", p_form=False)
    if not math.isfinite(null_value):
        raise ValueError(f"null value must be finite, got {null_value!r}")
    # Weights relative to the smallest std error neither underflow nor overflow.
    se_min = min(std_error)
    weights = [(se_min / se) ** 2 for se in std_error]
    total_w = math.fsum(weights)
    try:
        pooled_estimate = math.fsum(w * e for w, e in zip(weights, estimate)) / total_w
    except OverflowError:  # the weighted sum passes the largest double; the mean does not
        e_max = max(map(abs, estimate))
        scaled = math.fsum(w * (e / e_max) for w, e in zip(weights, estimate))
        pooled_estimate = scaled / total_w * e_max
    pooled_se = se_min / math.sqrt(total_w)
    z = (pooled_estimate - null_value) / pooled_se
    p_two_sided, log_p = _two_sided_tail(z)  # refuses a z whose square overflows
    return PooledReport(
        k=len(estimate),
        pooled_estimate=pooled_estimate,
        pooled_se=pooled_se,
        z=z,
        p_two_sided=p_two_sided,
        s_summary=SValue(-log_p, InfoUnit.NATS),
    )


def _study_z_scores(studies: StudyTable, null_value: float, test: str) -> list[float]:
    """Each study's (estimate - null) / std_error for `test`, naming a study whose z overflows."""
    estimate, std_error = _columns(studies, test, p_form=False)
    if not math.isfinite(null_value):
        raise ValueError(f"null value must be finite, got {null_value!r}")
    z_scores = [(e - null_value) / se for e, se in zip(estimate, std_error)]
    for i, z in enumerate(z_scores):
        if math.isinf(z):
            raise OverflowError(
                f"study {studies.ids[i]!r}: the z-score (estimate - null) / std_error overflows"
            )
    return z_scores


def compare_methods(studies: StudyTable, null_value: float = 0.0) -> MethodComparison:
    """Run the S-summation and pooled tests side by side on effect-form studies.

    Per-study P-values for the S-summation route are two-sided normal, from
    (estimate - null) / std_error; their surprisals stay finite where the P-values underflow.
    Each study's z is checked first, then the pooled z.
    """
    z_scores = _study_z_scores(studies, null_value, "compare_methods")
    pooled = pooled_homogeneity_test(studies, null_value)
    # a list, so a study's own refusal by _two_sided_tail is not renamed by the statistic's
    fisher = _s_summation(len(z_scores), [-2.0 * _two_sided_tail(z)[1] for z in z_scores])
    s_fisher = fisher.s_summary.value
    return MethodComparison(
        s_summation=fisher,
        pooled=pooled,
        s_summation_nats=s_fisher,
        difference_nats=pooled.s_summary.value - s_fisher,
    )


def studies_from_csv(path: str | os.PathLike) -> StudyTable:
    """Read a study table: header `id,p` or `id,estimate,std_error` (UTF-8, optional BOM).

    Rows are validated straight into columns; rows of blank cells are skipped.
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
            if header not in (P_COLUMNS, EFFECT_COLUMNS):
                raise SchemaError(
                    f"unrecognized columns {list(header)}; expected "
                    f"{','.join(P_COLUMNS)} or {','.join(EFFECT_COLUMNS)}"
                )
            p_form = header == P_COLUMNS
            ids, columns = [], [array("d") for _ in header[1:]]
            for row in reader:
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    id_ = row[0].strip()
                    if p_form:
                        columns[0].append(_check_p(float(row[1])))
                    else:
                        estimate, std_error = float(row[1]), float(row[2])
                        _check_effect(id_, estimate, std_error)
                        columns[0].append(estimate)
                        columns[1].append(std_error)
                except ValueError as exc:
                    if any(cell.strip() for cell in row):
                        raise SchemaError(f"line {reader.line_num}: {exc}") from None
                    continue  # a row of blank cells
                ids.append(id_)
        except csv.Error as exc:  # a malformed line, say a field over csv.field_size_limit
            raise SchemaError(f"line {reader.line_num}: {exc}") from None
    if not ids:
        raise SchemaError("study file contains a header but no data rows")
    return StudyTable(tuple(ids), tuple(memoryview(col).toreadonly() for col in columns))
