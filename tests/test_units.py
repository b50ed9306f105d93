"""P-value/S-value types, unit conversions, and the gauge translations."""

import math

import pytest

from svalue.units import (
    InfoUnit,
    PValue,
    SValue,
    coin_toss_gauge,
    convert,
    from_surprisal,
    surprisal,
    two_sided_to_sigma,
)

ALL_UNITS = (InfoUnit.BITS, InfoUnit.NATS, InfoUnit.DITS)


class TestPValue:
    @pytest.mark.parametrize("good", [1.0, 0.5, 0.05, 1e-300, 1])
    def test_accepts_half_open_interval(self, good):
        assert PValue(good).value == float(good)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0000001, 2.0, math.nan, math.inf, "0.5", None, True])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            PValue(bad)

    def test_zero_rejected_with_interval_in_message(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            PValue(0.0)


class TestSValue:
    def test_valid(self):
        s = SValue(2.5, InfoUnit.NATS)
        assert s.value == 2.5 and s.unit is InfoUnit.NATS

    @pytest.mark.parametrize("bad", [-0.1, math.nan, "1", None])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            SValue(bad, InfoUnit.BITS)

    def test_unit_must_be_info_unit(self):
        with pytest.raises(ValueError):
            SValue(1.0, "bits")

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
        assert got.value == pytest.approx(math.log2(10.0), abs=1e-12)

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
        (math.inf, InfoUnit.BITS),
    ])
    def test_past_the_smallest_p_names_the_s_value(self, value, unit):
        # e^-746 and smaller round to 0.0, a P-value the caller never gave
        with pytest.raises(ValueError, match=rf"^S-value {value!r} {unit.value} gives a P-value below"):
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
        assert coin_toss_gauge(PValue(2.0**-2.5)) == 2  # 2.5 bits -> 2
        assert coin_toss_gauge(PValue(2.0**-3.5)) == 4  # 3.5 bits -> 4


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
