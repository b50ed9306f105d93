"""Independent oracles the test suite checks the library against.

Nothing in here touches svalue internals: the chi-squared survival oracles
are an even-df closed form (Poisson sum) and brute-force adaptive Simpson
quadrature of the density, with the half-integer gamma constants written out
exactly. The standard-normal CDF is the stdlib's erfc. High-precision scalar
anchors elsewhere in the suite were precomputed with mpmath at 40 digits and
frozen as literals. The one exception is `studies_from_csv_by_rows`, the study
file reader as a csv row loop alone: it shares the library's value checks, so
that its errors can be compared with the library reader's to the character.
"""

import csv
import math
from array import array

# Gamma(df/2) for the odd df the quadrature oracle covers; exact closed forms.
_GAMMA_HALF = {
    1: math.sqrt(math.pi),  # Gamma(1/2)
    3: math.sqrt(math.pi) / 2.0,  # Gamma(3/2)
    5: 3.0 * math.sqrt(math.pi) / 4.0,  # Gamma(5/2)
}


def phi(z: float) -> float:
    """Standard-normal CDF, 0.5 erfc(-z / sqrt 2)."""
    return 0.5 * math.erfc(-z / math.sqrt(2))


def chisq_survival_closed_form_even(df: int, x: float) -> float:
    """Survival of chi-squared with even df: exp(-x/2) * sum_{j<df/2} (x/2)^j / j!."""
    assert df >= 2 and df % 2 == 0
    half = x / 2.0
    term = 1.0
    acc = 1.0
    for j in range(1, df // 2):
        term *= half / j
        acc += term
    return math.exp(-half) * acc


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 60) -> float:
    """Recursive adaptive Simpson quadrature with Richardson correction."""

    def step(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        diff = left + right - whole
        if depth <= 0 or abs(diff) <= 15.0 * tol:
            return left + right + diff / 15.0
        return step(a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1) + step(
            m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return step(a, fa, m, fm, b, fb, whole, tol, max_depth)


def chisq_survival_by_quadrature(df: int, x: float, tol: float = 1e-10) -> float:
    """Brute-force chi-squared survival: integrate the density over [x, inf).

    Only odd df in {1, 3, 5}, where the normalizing constant is known exactly.
    The infinite tail is truncated where exp(-t/2) makes the remainder
    negligible against tol.
    """
    assert df in _GAMMA_HALF
    norm = 1.0 / (2.0 ** (df / 2.0) * _GAMMA_HALF[df])

    def density(t: float) -> float:
        return norm * t ** (df / 2.0 - 1.0) * math.exp(-t / 2.0)

    if x <= 0.0:
        return 1.0
    upper = x + 250.0
    # Split at a few interior points so the sharp decay cannot starve the
    # adaptive refinement near the left edge.
    knots = [x, x + 2.0, x + 10.0, x + 50.0, upper]
    return sum(
        _adaptive_simpson(density, lo, hi, tol / len(knots))
        for lo, hi in zip(knots, knots[1:])
    )


def binomial_tail_by_enumeration(trials: int, x: int, num: int, den: int) -> float:
    """Pr(X >= x) for X ~ Binomial(trials, num/den) as an exact fraction -> float."""
    from fractions import Fraction

    theta = Fraction(num, den)
    total = Fraction(0)
    for j in range(x, trials + 1):
        total += math.comb(trials, j) * theta**j * (1 - theta) ** (trials - j)
    return float(total)


def binomial_tails_exact(trials: int, theta0: float) -> list[float]:
    """Pr(X >= x) for x = 0 .. trials, X ~ Binomial(trials, theta0), with the double theta0
    = a/d taken exactly: the integer terms comb(trials, x) a^x (d - a)^(trials - x), each
    from the one above by an exact division, summed from x = trials down over d^trials."""
    a, d = theta0.as_integer_ratio()
    term, scale = a**trials, d**trials
    tails = [1.0] * (trials + 1)
    acc = 0
    for x in range(trials, 0, -1):
        acc += term
        tails[x] = acc / scale  # int / int is correctly rounded
        term = term * x * (d - a) // ((trials - x + 1) * a)
    return tails


def studies_from_csv_by_rows(path):
    """svalue.combine.studies_from_csv as one csv row loop over the whole file, with no
    block read: the library's reader must give the same table, or raise the same error."""
    from svalue.combine import EFFECT_COLUMNS, P_COLUMNS, SchemaError, _check_effect, _table
    from svalue.units import _check_p

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
    return _table(tuple(ids), columns)
