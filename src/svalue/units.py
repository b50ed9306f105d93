"""S-value core: validated P-values, information units, surprisal arithmetic, the
coin-toss gauge, the two-sided-P to one-sided-sigma translation, and their record."""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .specfun import _Checked, _checked_real, normal_quantile

_P_RANGE = "P-value must lie in the half-open interval (0, 1]"  # the one P-value message


class InfoUnit(enum.Enum):
    """Information unit fixed by the log base: 2 -> bits, e -> nats, 10 -> dits.

    The value is the unit's name; `nats_per_unit`, the natural log of the base, is a
    plain member attribute set when the member is made, so reading it is one lookup.
    """

    BITS = "bits", math.log(2.0)
    NATS = "nats", 1.0
    DITS = "dits", math.log(10.0)

    def __new__(cls, value: str, nats_per_unit: float) -> InfoUnit:
        unit = object.__new__(cls)
        unit._value_, unit.nats_per_unit = value, nats_per_unit
        return unit


class PValue(_Checked, NamedTuple("PValue", [("value", float)])):
    """A probability in the half-open interval (0, 1], stored as a float. Zero is refused: its
    surprisal is infinite and every downstream formula would stop being total."""

    __slots__ = ()

    def __new__(cls, value: float) -> PValue:
        if type(value) is float:  # nothing to convert: the range check alone
            return tuple.__new__(cls, (_check_p(value),))
        return tuple.__new__(cls, (_checked_real(value, _P_RANGE, 0.0, math.nextafter(1.0, 2.0)),))


def _check_p(v: float) -> float:
    """v itself if it lies in (0, 1]; the one P-value range check."""
    if not 0.0 < v <= 1.0:  # NaN fails it too
        raise ValueError(f"{_P_RANGE}, got {v!r}")
    return v


class SValue(_Checked, NamedTuple("SValue", [("value", float), ("unit", InfoUnit)])):
    """A finite, non-negative surprisal with an explicit information unit.

    The unit is carried rather than normalized away: reports quote bits, nats
    and dits side by side, and an explicit tag prevents silent scale errors.
    """

    __slots__ = ()

    def __new__(cls, value: float, unit: InfoUnit) -> SValue:
        # -5e-324 is the negative double nearest 0, so above it lie 0.0 and -0.0 but nothing < 0
        value = _checked_real(value, "S-value must be a finite number >= 0", -5e-324)
        if not isinstance(unit, InfoUnit):
            raise ValueError(f"unit must be an InfoUnit, got {unit!r}")
        return tuple.__new__(cls, (value + 0.0, unit))  # normalize -0.0


def surprisal(p: PValue, unit: InfoUnit = InfoUnit.BITS) -> SValue:
    """Surprisal -log_base(p) in the requested unit; 0 at p = 1."""
    # p is in (0, 1], so -ln p / k is a float >= 0 (+ 0.0 turns -0.0 into 0.0) and
    # passes SValue's checks by construction: build the tuple directly.
    return tuple.__new__(SValue, (-math.log(p.value) / unit.nats_per_unit + 0.0, unit))


def convert(s: SValue, target: InfoUnit) -> SValue:
    """Rescale a surprisal to another unit; OverflowError where it passes the largest double."""
    # s.value >= 0 times a positive ratio is >= 0; short of inf it passes SValue's checks
    value = s.value * (s.unit.nats_per_unit / target.nats_per_unit)
    if value == math.inf:
        raise OverflowError(f"S-value {s.value!r} {s.unit.value} overflows in {target.value}")
    return tuple.__new__(SValue, (value + 0.0, target))


def from_surprisal(s: SValue) -> PValue:
    """Invert surprisal: the P-value whose surprisal in s.unit equals s.value."""
    p = math.exp(-s.value * s.unit.nats_per_unit)
    if p == 0.0:
        raise ValueError(f"S-value {s.value!r} {s.unit.value} gives a P-value below the "
                         "smallest positive double")
    return PValue(p)


def coin_toss_gauge(p: PValue) -> int:
    """conversion_report's s_bits, nats rescaled, rounded half-to-even: "all heads in k tosses".

    The gauge coin is tested one-sidedly for loading toward heads, so the
    reading is one-sided even when p itself came from a two-sided test.
    """
    return round(convert(surprisal(p, InfoUnit.NATS), InfoUnit.BITS).value)


def two_sided_to_sigma(p: PValue) -> float:
    """Upper one-sided standard-normal cutoff whose exceedance probability is p.

    This is the physics-style translation of a two-sided P-value into a
    one-sided sigma (p = 0.05 -> 1.645). Undefined at p = 1, where the cutoff
    is -infinity.
    """
    if p.value == 1.0:
        raise ValueError("two_sided_to_sigma is undefined at p = 1 (sigma = -inf)")
    # Phi^-1(1 - p) computed as -Phi^-1(p) to keep precision for tiny p.
    return -normal_quantile(p.value) + 0.0


class ConversionReport(NamedTuple):
    """A P-value, its S-value in each unit, their coin-toss gauge and sigma (None at p = 1)."""

    p: float
    s_bits: float
    s_nats: float
    s_dits: float
    coin_tosses: int
    sigma: float | None
    notes: tuple[str, ...] = ()


def conversion_report(value: PValue | SValue) -> ConversionReport:
    """The conversion record of a P-value, or of an S-value through the P it stands for."""
    if isinstance(value, SValue):
        s, p = value, from_surprisal(value)
    else:
        p, s = value, surprisal(value, InfoUnit.NATS)
    s_bits, s_nats, s_dits = (convert(s, u).value for u in InfoUnit)
    row = (p.value, s_bits, s_nats, s_dits, round(s_bits))  # coin_tosses gauges s_bits
    if p.value == 1.0:
        note = "sigma is undefined at p = 1 (the one-sided cutoff is -infinity)"
        return ConversionReport(*row, None, (note,))
    return ConversionReport(*row, two_sided_to_sigma(p))
