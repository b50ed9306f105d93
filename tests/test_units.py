"""P-value/S-value types, unit conversions, and the gauge translations."""

import math
import pickle
import random
import re
import sys

import pytest

from svalue.units import (
    ConversionReport,
    InfoUnit,
    PValue,
    SValue,
    coin_toss_gauge,
    conversion_report,
    convert,
    from_surprisal,
    surprisal,
    two_sided_to_sigma,
)

ALL_UNITS = (InfoUnit.BITS, InfoUnit.NATS, InfoUnit.DITS)


class TestInfoUnit:
    def test_scales_are_exact_through_pickle_and_lookup(self):
        scales = {InfoUnit.BITS: math.log(2.0), InfoUnit.NATS: 1.0, InfoUnit.DITS: math.log(10.0)}
        assert [u.value for u in InfoUnit] == ["bits", "nats", "dits"]
        for unit, k in scales.items():
            for u in (unit, pickle.loads(pickle.dumps(unit)), InfoUnit(unit.value)):
                assert u is unit and u.nats_per_unit.hex() == k.hex()


class TestPValue:
    @pytest.mark.parametrize("good", [1.0, 0.5, 0.05, 1e-300, 1])
    def test_accepts_half_open_interval(self, good):
        assert PValue(good).value == float(good)


class TestSValue:
    def test_valid(self):
        s = SValue(2.5, InfoUnit.NATS)
        assert s.value == 2.5 and s.unit is InfoUnit.NATS

    @pytest.mark.parametrize("good", [0, 0.0, -0.0, 5e-324, 2.5, 10**308, sys.float_info.max],
                             ids=["0", "0.0", "-0.0", "5e-324", "2.5", "10**308", "max-double"])
    def test_accepts_every_finite_number_from_zero(self, good):
        value = SValue(good, InfoUnit.BITS).value
        assert type(value) is float and repr(value) == repr(float(good) + 0.0)

    def test_negative_zero_normalized(self):
        assert str(SValue(-0.0, InfoUnit.BITS).value) == "0.0"


class TestSurprisal:
    def test_certainty_is_zero_information(self):
        assert surprisal(PValue(1.0), InfoUnit.BITS).value == 0.0

    def test_fair_coin_is_one_bit(self):
        assert surprisal(PValue(0.5), InfoUnit.BITS).value == 1.0

    def test_p05_bits(self):
        # -log2(0.05), mpmath 40 digits
        assert surprisal(PValue(0.05), InfoUnit.BITS).value == pytest.approx(
            4.321928094887362, rel=1e-12, abs=0
        )

    def test_p05_nats(self):
        # -ln(0.05), mpmath 40 digits
        assert surprisal(PValue(0.05), InfoUnit.NATS).value == pytest.approx(
            2.995732273553991, rel=1e-12, abs=0
        )

    @pytest.mark.numpy
    def test_strictly_antitone(self):
        import numpy as np
        rng = np.random.default_rng(21)
        ps = np.sort(rng.uniform(1e-12, 1.0, size=300))
        for unit in ALL_UNITS:
            vals = [surprisal(PValue(float(p)), unit).value for p in ps]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.numpy
    def test_product_rule(self):
        import numpy as np
        rng = np.random.default_rng(22)
        for _ in range(300):
            p1, p2 = rng.uniform(1e-8, 1.0, size=2)
            for unit in ALL_UNITS:
                joint = surprisal(PValue(float(p1 * p2)), unit).value
                split = surprisal(PValue(float(p1)), unit).value + surprisal(
                    PValue(float(p2)), unit
                ).value
                assert joint == pytest.approx(split, rel=1e-10, abs=0)

    @pytest.mark.numpy
    def test_cross_unit_consistency(self):
        import numpy as np
        rng = np.random.default_rng(23)
        for p in rng.uniform(1e-10, 1.0, size=200):
            pv = PValue(float(p))
            assert surprisal(pv, InfoUnit.NATS).value == pytest.approx(
                surprisal(pv, InfoUnit.BITS).value * math.log(2.0), rel=1e-12, abs=0
            )


class TestConvert:
    def test_bit_to_nats(self):
        got = convert(SValue(1.0, InfoUnit.BITS), InfoUnit.NATS)
        assert got.unit is InfoUnit.NATS
        assert got.value == pytest.approx(math.log(2.0), rel=1e-12, abs=0)

    def test_dit_to_bits_is_log2_of_ten(self):
        got = convert(SValue(1.0, InfoUnit.DITS), InfoUnit.BITS)
        assert got.value == pytest.approx(math.log2(10.0), rel=2.5e-16, abs=0)

    def test_identity_conversion(self):
        s = SValue(2.5, InfoUnit.NATS)
        assert convert(s, InfoUnit.NATS) == s

    @pytest.mark.numpy
    def test_round_trip_all_unit_pairs(self):
        import numpy as np
        rng = np.random.default_rng(24)
        for v in rng.uniform(0.0, 100.0, size=50):
            for u in ALL_UNITS:
                for w in ALL_UNITS:
                    back = convert(convert(SValue(float(v), u), w), u)
                    assert back.unit is u
                    assert back.value == pytest.approx(float(v), rel=1e-12, abs=1e-15)


def test_unchecked_results_equal_checked_ones():
    # surprisal and convert skip SValue's checks; each result must be what SValue builds,
    # and convert refuses what would overflow, naming the S-value and both units
    rng = random.Random(25)
    ps = [1.0, 5e-324, 2.0 ** -1022, 1.0 - 2.0 ** -53]
    ps += [rng.randrange(1, 2 ** 52) * 5e-324 for _ in range(50)]  # subnormal
    ps += [10.0 ** -rng.uniform(0.0, 308.0) for _ in range(200)]
    for p in ps:
        for u in ALL_UNITS:
            s = surprisal(PValue(p), u)
            checked = [(s, SValue(s.value, u))]
            for w in ALL_UNITS:
                t = convert(s, w)
                checked.append((t, SValue(t.value, w)))
            for got, want in checked:
                assert type(got) is SValue and repr(got) == repr(want)
                assert math.copysign(1.0, got.value) == 1.0
    for v in (0.0, 1e307, 1e308, sys.float_info.max):
        for u in ALL_UNITS:
            for w in ALL_UNITS:
                if v * (u.nats_per_unit / w.nats_per_unit) == math.inf:  # no double holds it
                    message = f"S-value {v!r} {u.value} overflows in {w.value}"
                    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
                        convert(SValue(v, u), w)
                else:
                    t = convert(SValue(v, u), w)
                    assert type(t) is SValue and repr(t) == repr(SValue(t.value, w))


class TestFromSurprisal:
    def test_one_bit_is_a_coin_flip(self):
        assert from_surprisal(SValue(1.0, InfoUnit.BITS)).value == pytest.approx(0.5, rel=1e-12, abs=0)

    def test_zero_information_is_certainty(self):
        assert from_surprisal(SValue(0.0, InfoUnit.NATS)).value == 1.0

    def test_inverts_the_p05_example(self):
        assert from_surprisal(SValue(4.321928094887362, InfoUnit.BITS)).value == pytest.approx(
            0.05, rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("value, unit", [
        (746.0, InfoUnit.NATS), (2000.0, InfoUnit.BITS), (324.0, InfoUnit.DITS),
        (sys.float_info.max, InfoUnit.BITS),
    ])
    def test_past_the_smallest_p_names_the_s_value(self, value, unit):
        # e^-746 and smaller round to 0.0, a P-value the caller never gave
        message = f"S-value {value!r} {unit.value} gives a P-value below"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            from_surprisal(SValue(value, unit))

    def test_smallest_p_is_reached(self):
        assert from_surprisal(SValue(745.0, InfoUnit.NATS)).value == 5e-324

    @pytest.mark.numpy
    def test_round_trip_identity(self):
        import numpy as np
        rng = np.random.default_rng(25)
        for p in rng.uniform(1e-10, 1.0, size=200):
            for unit in ALL_UNITS:
                back = from_surprisal(surprisal(PValue(float(p)), unit))
                assert back.value == pytest.approx(float(p), rel=1e-12, abs=0)


class TestCoinTossGauge:
    @pytest.mark.parametrize("p,tosses", [(0.5, 1), (0.25, 2), (0.05, 4), (1.0, 0)])
    def test_examples(self, p, tosses):
        assert coin_toss_gauge(PValue(p)) == tosses

    def test_rounds_half_to_even(self):
        # an exact half rounds to the even count
        assert conversion_report(SValue(2.5, InfoUnit.BITS)).coin_tosses == 2
        assert conversion_report(SValue(3.5, InfoUnit.BITS)).coin_tosses == 4
        # the double 2.0**-3.5 is 3.4999999999999999014 bits (mpmath), just short of the half
        assert coin_toss_gauge(PValue(2.0**-3.5)) == 3

    def test_agrees_with_the_conversion_report(self):
        # the doubles within 40 ulps of 2^-(k + 1/2), where the bits lie nearest a half
        ps = set()
        for k in range(1070):
            lo = hi = 2.0 ** -(k + 0.5)
            ps.add(lo)
            for _ in range(40):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
                ps.update((lo, hi) if lo > 0.0 else (hi,))
        assert len(ps) == 86558
        assert [p for p in sorted(ps)
                if coin_toss_gauge(PValue(p)) != conversion_report(PValue(p)).coin_tosses] == []


class TestTwoSidedToSigma:
    def test_paper_gauge_point(self):
        assert two_sided_to_sigma(PValue(0.05)) == pytest.approx(1.6448536269514722, abs=1e-9)

    def test_median(self):
        assert two_sided_to_sigma(PValue(0.5)) == 0.0

    def test_particle_physics_scale(self):
        # Phi^-1(0.9973), mpmath 40 digits
        assert two_sided_to_sigma(PValue(0.0027)) == pytest.approx(2.782150453784607, abs=1e-9)

    def test_undefined_at_one(self):
        with pytest.raises(ValueError):
            two_sided_to_sigma(PValue(1.0))


class TestConversionReport:
    @pytest.mark.parametrize("value", [PValue(0.05), PValue(2.2e-308), SValue(2.5, InfoUnit.BITS),
                                       SValue(1.0, InfoUnit.DITS), SValue(700.0, InfoUnit.NATS)])
    def test_fields_come_from_the_unit_functions(self, value):
        rep = conversion_report(value)
        p = from_surprisal(value) if isinstance(value, SValue) else value
        s = value if isinstance(value, SValue) else surprisal(value, InfoUnit.NATS)
        assert rep == ConversionReport(p.value, *(convert(s, u).value for u in ALL_UNITS),
                                       round(rep.s_bits), two_sided_to_sigma(p))
        assert rep.notes == ()

    def test_coin_tosses_gauge_the_printed_bits(self):
        # 1074.81 bits, where the gauge of the rounded P, 5e-324, reads 1074
        rep = conversion_report(SValue(745, InfoUnit.NATS))
        assert rep.coin_tosses == 1075 and coin_toss_gauge(PValue(rep.p)) == 1074

    @pytest.mark.parametrize("value", [PValue(1.0), SValue(0.0, InfoUnit.DITS)])
    def test_sigma_is_none_with_a_note_at_p_one(self, value):
        rep = conversion_report(value)
        assert rep[:-1] == (1.0, 0.0, 0.0, 0.0, 0, None)
        assert rep.notes == ("sigma is undefined at p = 1 (the one-sided cutoff is -infinity)",)
