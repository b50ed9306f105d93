"""P-/S-value curve tests: worked points, complement and symmetry identities."""

import math
import random
import re

import pytest

from svalue.curves import CurvePoint, EstimateSpec, curve, curve_point
from svalue.units import InfoUnit, SValue


class TestEstimateSpec:
    def test_valid(self):
        assert EstimateSpec(1.2, 0.5).std_error == 0.5


class TestCurvePointPGe:
    def test_at_the_estimate(self):
        assert curve_point(EstimateSpec(1.2, 0.5), 1.2).p_ge == 0.5

    def test_worked_point(self):
        # Phi(0.4), mpmath 40 digits
        assert curve_point(EstimateSpec(1.2, 0.5), 1.0).p_ge == pytest.approx(
            0.6554217416103242, abs=1e-9
        )

    def test_five_percent_point(self):
        assert curve_point(EstimateSpec(0.0, 1.0), 1.6448536269514722).p_ge == pytest.approx(
            0.05, abs=1e-9
        )

    @pytest.mark.numpy
    def test_strictly_decreasing_in_mu1(self):
        import numpy as np
        spec = EstimateSpec(0.3, 0.7)
        grid = np.linspace(-3.0, 3.0, 500)
        vals = [curve_point(spec, float(m)).p_ge for m in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCurvePointSLe:
    def test_worked_point(self):
        s = curve_point(EstimateSpec(1.2, 0.5), 1.0).s_le
        assert s.unit is InfoUnit.BITS
        assert s.value == pytest.approx(1.5370964191600501, abs=1e-9)  # mpmath

    def test_exactly_one_bit_at_the_estimate(self):
        assert curve_point(EstimateSpec(1.2, 0.5), 1.2).s_le.value == 1.0

    def test_unit_request(self):
        s = curve_point(EstimateSpec(1.2, 0.5), 1.0, InfoUnit.NATS).s_le
        assert s.value == pytest.approx(1.0654340491895766, abs=1e-9)

    @pytest.mark.numpy
    def test_grows_without_bound_as_mu1_decreases(self):
        import numpy as np
        spec = EstimateSpec(0.0, 1.0)
        grid = np.linspace(-8.0, 2.0, 300)
        vals = [curve_point(spec, float(m)).s_le.value for m in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("t, bits", [
        (38.0, 1048.200492472443126736412),  # p_le = Phi(-38) is subnormal
        (50.0, 1810.338981867789002477218),  # p_le = Phi(-50) underflows to 0.0
    ])
    def test_finite_where_p_le_underflows(self, t, bits):
        # S = -log2 Phi(-t); mpmath, 40 digits
        point = curve_point(EstimateSpec(0.0, 1.0), -t)
        assert point.p_le < 2.0 ** -1022
        assert point.s_le.value == pytest.approx(bits, rel=1e-15, abs=0)

    @pytest.mark.numpy
    def test_tracks_p_ge(self):
        import numpy as np
        # the two quantities rise and fall together across any grid
        spec = EstimateSpec(0.4, 0.3)
        grid = np.linspace(-1.0, 2.0, 200)
        pl = [curve_point(spec, float(m)).p_ge for m in grid]
        su = [curve_point(spec, float(m)).s_le.value for m in grid]
        order = np.argsort(pl)
        assert all(su[i] < su[j] for i, j in zip(order, order[1:]))


class TestCurve:
    def test_grid_contract(self):
        pts = curve(EstimateSpec(0.0, 1.0), 1.0, 2.0, 2)
        assert [pt.mu1 for pt in pts] == [1.0, 2.0]
        # from + width * i / (steps - 1), rounded once; width / 10 * i differs at 3 of these
        spec = EstimateSpec(0.3, 0.7)
        pts = curve(spec, 0.0, 1.0, 11, InfoUnit.NATS)
        assert [pt.mu1 for pt in pts] == [1.0 * i / 10 for i in range(10)] + [1.0]
        assert pts == [curve_point(spec, pt.mu1, InfoUnit.NATS) for pt in pts]

    def test_endpoints_exact_even_for_awkward_floats(self):
        pts = curve(EstimateSpec(0.0, 1.0), 0.1, 0.3, 3)
        assert pts[0].mu1 == 0.1
        assert pts[-1].mu1 == 0.3

    def test_peak_at_the_estimate(self):
        pts = curve(EstimateSpec(0.0, 1.0), -2.0, 2.0, 5)
        center = pts[2]
        assert center.mu1 == 0.0
        assert center.p_two == 1.0
        assert center.s_two.value == 0.0

    def test_worked_row(self):
        pts = curve(EstimateSpec(1.2, 0.5), 1.0, 1.4, 3)
        row = pts[0]
        assert row.p_ge == pytest.approx(0.6554217416103242, abs=1e-9)
        assert row.s_le.value == pytest.approx(1.5370964191600501, abs=1e-9)

    def test_complement_identity(self):
        for pt in curve(EstimateSpec(0.7, 0.25), -1.0, 2.5, 101):
            assert pt.p_ge + pt.p_le == pytest.approx(1.0, abs=1e-12)

    def test_two_sided_is_twice_the_smaller_tail(self):
        for pt in curve(EstimateSpec(0.7, 0.25), -1.0, 2.5, 101):
            assert pt.p_two == pytest.approx(2.0 * min(pt.p_ge, pt.p_le), abs=1e-12)

    def test_mirror_symmetry(self):
        m, se, steps = 0.7, 0.4, 41
        fwd = curve(EstimateSpec(m, se), -2.0, 2.0, steps)
        rev = curve(EstimateSpec(-m, se), -2.0, 2.0, steps)
        for i in range(steps):
            mirror = rev[steps - 1 - i]
            assert mirror.mu1 == pytest.approx(-fwd[i].mu1, abs=1e-12)
            assert mirror.p_ge == pytest.approx(fwd[i].p_le, abs=1e-12)
            assert mirror.p_le == pytest.approx(fwd[i].p_ge, abs=1e-12)

    def test_requested_unit_flows_through(self):
        pts = curve(EstimateSpec(0.0, 1.0), -1.0, 1.0, 3, InfoUnit.DITS)
        assert pts[1].s_le.unit is InfoUnit.DITS
        assert pts[1].s_le.value == pytest.approx(math.log10(2.0), rel=1e-12, abs=0)

    @pytest.mark.parametrize("frm,to,steps", [
        (1.0, 1.0, 5), (2.0, 1.0, 5), (0.0, 1.0, 1), (0.0, 1.0, 0),
        (math.nan, 1.0, 5), (0.0, math.nan, 5), (-math.inf, 1.0, 5), (0.0, math.inf, 5),
        (-1e308, 1e308, 3),  # finite endpoints whose width overflows
    ])
    def test_invalid_grids(self, frm, to, steps):
        with pytest.raises(ValueError, match="grid|steps"):
            curve(EstimateSpec(0.0, 1.0), frm, to, steps)

    @pytest.mark.parametrize("spec, frm, to, mu1", [
        # z itself overflows
        (EstimateSpec(1.7e308, 1.0), -1.7e308, 0.0, -1.7e308),
        (EstimateSpec(1e308, 1e-10), 0.0, 1.0, 0.0),
        # the first point's z^2, 1e308, is finite; the second point's z overflows
        (EstimateSpec(0.0, 1e-300), -1e-146, 1e10, 1e10),
        # the first point's z, 1.4e154, is finite and its z^2 is not; the second's z overflows
        (EstimateSpec(7e153, 0.5), 0.0, 1.7e308, 0.0),
    ])
    def test_overflowing_z_squared_names_mu1(self, spec, frm, to, mu1):
        message = re.escape(f"the S-value at mu1 = {mu1!r} overflows: the square of its z-score "
                            "(estimate - mu1) / std_error is past the largest double")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            curve(spec, frm, to, 2)
        with pytest.raises(OverflowError, match=f"^{message}$"):
            curve_point(spec, mu1)

    @pytest.mark.parametrize("mu1", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu1(self, mu1):
        with pytest.raises(ValueError, match=f"^mu1 must be finite, got {mu1!r}$"):
            curve_point(EstimateSpec(0.0, 1.0), mu1)

    def test_rows_are_curve_points(self):
        pts = curve(EstimateSpec(0.0, 1.0), -1.0, 1.0, 3)
        assert all(isinstance(pt, CurvePoint) for pt in pts)

    @pytest.mark.parametrize("unit", list(InfoUnit), ids=lambda u: u.value)
    def test_unchecked_points_equal_checked_ones(self, unit):
        # curve points skip SValue's checks; each must be what the checking constructors build
        rng = random.Random(23)
        for _ in range(20):
            spec = EstimateSpec(rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-3.0, 3.0))
            reach = spec.std_error * rng.uniform(39.0, 60.0)  # past |t| = 38, where Phi(-|t|) underflows
            pts = curve(spec, spec.estimate - reach, spec.estimate + reach * rng.random(), 301, unit)
            pts.append(curve_point(spec, spec.estimate, unit))
            for pt in pts:
                checked = CurvePoint(pt.mu1, pt.p_ge, pt.p_le, SValue(pt.s_le.value, unit),
                                     pt.p_two, SValue(pt.s_two.value, unit))
                assert repr(pt) == repr(checked)
                assert type(pt) is CurvePoint
                for s in (pt.s_le, pt.s_two):
                    assert type(s) is SValue and s.unit is unit and math.isfinite(s.value)
            assert abs(pts[0].mu1 - spec.estimate) / spec.std_error > 38.0
            s_two = pts[-1].s_two.value
            assert pts[-1].p_two == 1.0 and s_two == 0.0 and math.copysign(1.0, s_two) == 1.0
