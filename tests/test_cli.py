"""CLI contract tests: output schemas, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from svalue.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    def reject(const):
        raise AssertionError(f"non-strict JSON constant {const!r} in output")

    return json.loads(text, parse_constant=reject)


class TestConvert:
    def test_p_form_json(self, capsys):
        code, out, _ = run(capsys, "convert", "--p", "0.05", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["s_bits"] == pytest.approx(4.321928094887362, rel=1e-12, abs=0)
        assert payload["s_nats"] == pytest.approx(2.995732273553991, rel=1e-12, abs=0)
        assert payload["s_dits"] == pytest.approx(1.3010299956639813, rel=1e-12, abs=0)
        assert payload["coin_tosses"] == 4
        assert payload["sigma"] == pytest.approx(1.6448536269514722, abs=1e-9)

    def test_p_one_all_zero_with_null_sigma(self, capsys):
        code, out, _ = run(capsys, "convert", "--p", "1", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["s_bits"] == 0.0
        assert payload["coin_tosses"] == 0
        assert payload["sigma"] is None
        assert payload["notes"]

    def test_p_zero_is_domain_error(self, capsys):
        code, _, err = run(capsys, "convert", "--p", "0")
        assert code == 2
        assert "(0, 1]" in err

    def test_s_form_round_trips(self, capsys):
        code, out, _ = run(capsys, "convert", "--s", "1.0", "--from-unit", "dits",
                           "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["p"] == pytest.approx(0.1, rel=1e-12, abs=0)
        assert payload["s_bits"] == pytest.approx(math.log2(10.0), rel=1e-12, abs=0)

    @pytest.mark.parametrize("s, unit", [("746", "nats"), ("2000", "bits"), ("inf", "bits")])
    def test_s_past_the_smallest_p_names_the_s_value(self, capsys, s, unit):
        code, out, err = run(capsys, "convert", "--s", s, "--from-unit", unit)
        assert (code, out) == (2, "")
        assert err == (f"error: S-value {float(s)!r} {unit} gives a P-value below the "
                       "smallest positive double\n")

    def test_conflicting_flags(self, capsys):
        code, _, err = run(capsys, "convert", "--p", "0.5", "--s", "1.0")
        assert code == 2
        assert "exactly one" in err

    def test_table_format_rounds(self, capsys):
        code, out, _ = run(capsys, "convert", "--p", "0.05")
        assert code == 0
        assert "4.322" in out and "1.645" in out


@pytest.fixture
def p_csv(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("id,p\na,0.05\nb,0.05\n", encoding="utf-8")
    return str(f)


@pytest.fixture
def effect_csv(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text("id,estimate,std_error\na,0.3,0.1\nb,0.5,0.2\n", encoding="utf-8")
    return str(f)


class TestCombine:
    def test_s_sum(self, capsys, p_csv):
        code, out, _ = run(capsys, "combine", "--input", p_csv, "--method", "s-sum",
                           "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["k"] == 2
        assert payload["df"] == 4
        assert payload["p_summary"] == pytest.approx(0.017478661367769955, rel=1e-10, abs=0)
        assert payload["s_summary_nats"] == pytest.approx(4.046774492478399, rel=1e-10, abs=0)

    def test_k1_identity(self, capsys, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("id,p\nonly,0.01\n", encoding="utf-8")
        code, out, _ = run(capsys, "combine", "--input", str(f), "--format", "json")
        payload = strict_json(out)
        assert code == 0
        assert payload["p_summary"] == pytest.approx(0.01, rel=1e-12, abs=0)

    def test_schema_mismatch_names_columns(self, capsys, effect_csv):
        code, _, err = run(capsys, "combine", "--input", effect_csv, "--method", "s-sum")
        assert code == 2
        assert "id,p" in err

    def test_pooled(self, capsys, effect_csv):
        code, out, _ = run(capsys, "combine", "--input", effect_csv, "--method", "pooled",
                           "--format", "json")
        payload = strict_json(out)
        assert payload["pooled_estimate"] == pytest.approx(0.34, rel=1e-12, abs=0)
        assert payload["z"] == pytest.approx(3.8013155617496427, rel=1e-10, abs=0)
        assert payload["df"] == 1

    def test_z2(self, capsys, effect_csv):
        code, out, _ = run(capsys, "combine", "--input", effect_csv, "--method", "z2",
                           "--format", "json")
        payload = strict_json(out)
        assert payload["df"] == 2
        assert payload["statistic"] == pytest.approx(3.0**2 + 2.5**2, rel=1e-12, abs=0)
        assert payload["notes"]

    def test_compare(self, capsys, effect_csv):
        code, out, _ = run(capsys, "combine", "--input", effect_csv, "--method", "compare",
                           "--format", "json")
        payload = strict_json(out)
        assert {"s_summation", "pooled", "difference_nats"} <= payload.keys()

    @pytest.mark.parametrize("method", ["pooled", "z2"])
    def test_one_study_past_two_to_the_54(self, capsys, tmp_path, method):
        # the gamma kernel's continued fraction runs at x = z^2 / 2 = 2.056e16 > 2^54
        f = tmp_path / "far.csv"
        f.write_text("id,estimate,std_error\na,202800000.0,1\n", encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", method,
                             "--format", "json")
        assert (code, err) == (0, "")
        s_nats = strict_json(out)["s_summary_nats"]
        assert s_nats == pytest.approx(20563920000000019.35352218, rel=1e-15, abs=0)  # mpmath

    def test_compare_past_the_smallest_p(self, capsys, tmp_path):
        # study a's two-sided P underflows; its S is -ln erfc(40 / sqrt 2), study b's that at 0.5
        f = tmp_path / "far.csv"
        f.write_text("id,estimate,std_error\na,40,1\nb,0.5,1\n", encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", "compare",
                             "--format", "json")
        assert (code, err) == (0, "")
        s_plus = strict_json(out)["s_summation"]["s_plus_nats"]
        assert s_plus == pytest.approx(804.3980594142275161566521, rel=1e-15, abs=0)  # mpmath

    def test_missing_file_is_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "combine", "--input", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "I/O" in err

    def test_oversized_field_is_exit_2(self, capsys, tmp_path):
        limit = csv.field_size_limit()
        f = tmp_path / "big.csv"
        f.write_text(f"id,p\n{'a' * (limit + 1)},0.5\n", encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f))
        assert (code, out) == (2, "")
        assert err == f"error: line 2: field larger than field limit ({limit})\n"

    def test_value_error_names_physical_line(self, capsys, tmp_path):
        # the quoted id spans lines 2-3, so the bad row is line 4 (its third record)
        f = tmp_path / "multi.csv"
        f.write_text('id,p\n"a\nb",0.5\nc,zero\n', encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f))
        assert (code, out) == (2, "")
        assert err == "error: line 4: could not convert string to float: 'zero'\n"

    def test_pooled_on_p_form_is_schema_error(self, capsys, p_csv):
        code, _, err = run(capsys, "combine", "--input", p_csv, "--method", "pooled")
        assert code == 2
        assert "id,estimate,std_error" in err

    @pytest.mark.parametrize("method, route, form", [
        ("s-sum", "s_summation_test", "effect"),
        ("z2", "z_squared_test", "p"),
        ("pooled", "pooled_homogeneity_test", "p"),
        ("compare", "compare_methods", "p"),
    ])
    def test_wrong_form_names_route_and_columns(self, capsys, p_csv, effect_csv, method, route,
                                                form):
        p_cols, effect_cols = "id,p", "id,estimate,std_error"
        need, have = (p_cols, effect_cols) if form == "effect" else (effect_cols, p_cols)
        path = effect_csv if form == "effect" else p_csv
        code, out, err = run(capsys, "combine", "--input", path, "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: {route} needs columns {need}; the studies carry {have}\n"


class TestCalibrate:
    def test_full_report_json(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--p", "0.05", "--d", "1",
                           "--format", "json")
        payload = strict_json(out)
        assert payload["mlr"] == pytest.approx(6.825935561925903, rel=1e-9, abs=0)
        assert payload["odds_increase_bound"] == pytest.approx(2.456023486604883, rel=1e-9, abs=0)
        assert payload["notes"] == []

    def test_bf_fields_null_with_note(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--p", "0.5", "--format", "json")
        payload = strict_json(out)
        assert payload["bf_lower_bound"] is None
        assert any("1/e" in n for n in payload["notes"])

    def test_mlr_null_for_higher_dimension(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--p", "0.05", "--d", "3",
                           "--format", "json")
        payload = strict_json(out)
        assert payload["mlr"] is None
        assert payload["bf_lower_bound"] is not None

    def test_table_matches_reported_rounding(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--p", "0.05")
        assert "6.826" in out
        assert "2.456" in out

    def test_invalid_p(self, capsys):
        code, _, _ = run(capsys, "calibrate", "--p", "1.5")
        assert code == 2

    def test_infinite_bound_becomes_null_with_note(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--p", "1e-320", "--d", "2",
                           "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["odds_increase_bound"] is None
        # b / (1 + b) where 1/b overflows; the double nearest mpmath 1.3.0's value
        cond = payload["conditional_type1"]
        assert cond == 2.002881801662105319e-317
        assert payload["notes"][-1] == "odds_increase_bound omitted: 1/b overflows at p = 1e-320"
        code, out, _ = run(capsys, "calibrate", "--p", "1e-320", "--d", "2", "--format", "csv")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert (row["odds_increase_bound"], float(row["conditional_type1"])) == ("", cond)
        code, out, _ = run(capsys, "calibrate", "--p", "1e-320", "--d", "2")
        assert code == 0
        assert "odds_increase_bound  -\n" in out


class TestCurve:
    def test_grid_wider_than_the_largest_double_over_its_steps(self, capsys):
        # width * i overflows from i = 2, so those points step by width / 3 instead
        code, out, err = run(capsys, "curve", "--estimate", "0", "--se", "1e300", "--from", "0",
                             "--to", "1e308", "--steps", "4", "--format", "json")
        assert (code, err) == (0, "")
        rows = strict_json(out)
        assert [r["mu1"] for r in rows] == [0.0, 1e308 / 3, 1e308 / 3 * 2, 1e308]
        # -log2 erfc(|t| / sqrt 2) at t = -mu1 / 1e300; mpmath 1.3.0, 40 digits
        oracle = [0.0, 801497244938338.2605829719, 3205988979753278.093700918,
                  7213475204444843.937972447]
        for row, s_two in zip(rows, oracle):
            assert row["s_two"] == pytest.approx(s_two, rel=1e-15, abs=0)

    def test_one_sided_s_finite_where_p_le_underflows(self, capsys):
        code, out, err = run(capsys, "curve", "--estimate", "0", "--se", "1",
                             "--from", "-50", "--to", "50", "--steps", "3")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()))
        assert (rows[0]["mu1"], rows[0]["p_le"]) == ("-50.0", "0.0")
        assert float(rows[0]["s_le"]) == pytest.approx(1810.3389818677890025, rel=1e-15, abs=0)

    def test_csv_header_and_worked_row(self, capsys):
        code, out, _ = run(capsys, "curve", "--estimate", "1.2", "--se", "0.5",
                           "--from", "1.0", "--to", "1.4", "--steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu1,p_ge,p_le,s_le,p_two,s_two"
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == pytest.approx(0.6554217416103242, abs=1e-9)
        assert float(first[3]) == pytest.approx(1.5370964191600501, abs=1e-9)

    def test_peak_row_at_estimate(self, capsys):
        _, out, _ = run(capsys, "curve", "--estimate", "0", "--se", "1",
                        "--from", "-1", "--to", "1", "--steps", "3")
        center = out.strip().split("\n")[2].split(",")
        assert float(center[4]) == 1.0  # p_two
        assert float(center[5]) == 0.0  # s_two

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "curve", "--estimate", "0", "--se", "1",
                        "--from", "-1", "--to", "1", "--steps", "3",
                        "--format", "json", "--unit", "nats")
        rows = strict_json(out)
        assert len(rows) == 3
        assert rows[0]["unit"] == "nats"

    def test_s_two_past_the_smallest_p(self, capsys):
        code, out, err = run(capsys, "curve", "--estimate", "0", "--se", "1", "--from", "0",
                             "--to", "60", "--steps", "4", "--unit", "nats", "--format", "json")
        assert (code, err) == (0, "")
        rows = strict_json(out)
        assert [r["p_two"] for r in rows[2:]] == [0.0, 0.0]
        # mpmath: -ln erfc(t / sqrt 2) at t = 40 and 60
        assert rows[2]["s_two"] == pytest.approx(803.9152948331938428571896, rel=1e-15, abs=0)
        assert rows[3]["s_two"] == pytest.approx(1804.32041350000719339125, rel=1e-15, abs=0)

    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, "curve", "--estimate", "0", "--se", "1",
                         "--from", "0", "--to", "1", "--steps", "1")
        assert code == 2

    def test_full_precision_round_trip(self, capsys):
        _, out, _ = run(capsys, "curve", "--estimate", "1.2", "--se", "0.5",
                        "--from", "1.0", "--to", "1.4", "--steps", "3")
        val = out.strip().split("\n")[1].split(",")[1]
        from svalue.curves import EstimateSpec, curve_point

        assert float(val) == curve_point(EstimateSpec(1.2, 0.5), 1.0).p_ge


class TestSimulate:
    @pytest.mark.numpy
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--generator", "uniform", "--n", "20000",
                         "--seed", "42")
        _, out2, _ = run(capsys, "simulate", "--generator", "uniform", "--n", "20000",
                         "--seed", "42")
        assert out1 == out2

    @pytest.mark.numpy
    def test_json_is_strict_and_complete(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "5000", "--seed", "1",
                           "--alphas", "0.01,0.05")
        assert code == 0
        payload = strict_json(out)
        assert set(payload["empirical_type1"]) == {"0.01", "0.05"}
        assert payload["dominance_violations"] == 0
        assert not payload["low_n"]

    @pytest.mark.numpy
    def test_binomial_generator(self, capsys):
        code, out, _ = run(capsys, "simulate", "--generator", "binomial", "--n", "5000",
                           "--trials", "10", "--theta0", "0.5", "--seed", "7")
        payload = strict_json(out)
        assert payload["trials"] == 10
        assert payload["dominance_violations"] == 0

    def test_binomial_requires_trials(self, capsys):
        code, _, _ = run(capsys, "simulate", "--generator", "binomial", "--n", "100")
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ["--trials", "20", "--theta0", "0.3"],  # a uniform run would ignore both
        ["--theta0", "0.3"],
        ["--generator", "binomial", "--trials", "20"],
    ])
    def test_binomial_options_only_together_with_binomial(self, capsys, extra):
        code, out, err = run(capsys, "simulate", "--n", "2000", *extra)
        assert (code, out) == (2, "")
        assert err == ("error: --trials and --theta0 go with --generator binomial, "
                       "which needs both\n")

    def test_n_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "simulate", "--n", "0")
        assert code == 2

    @pytest.mark.numpy
    def test_low_n_noted(self, capsys):
        _, out, _ = run(capsys, "simulate", "--n", "50", "--seed", "3")
        payload = strict_json(out)
        assert payload["low_n"]
        assert payload["notes"]

    @pytest.mark.numpy
    def test_nan_standard_error_becomes_null_with_note(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "1", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["se_of_mean"] is None
        assert payload["notes"] == [
            "n = 1 is below 1000; summary statistics are unreliable",
            "se_of_mean is undefined at n = 1",
        ]


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["combine"])
        assert exc.value.code == 2


class TestArithmeticErrors:
    """Overflow and division by zero inside the numerics end in exit 2, not a traceback."""

    def test_calibrate_tiny_p(self, capsys):
        # at 5e-324, p / 2 underflows to 0 before the quantile; at 1e-320, exp overflows
        for p in ("5e-324", "1e-320"):
            code, out, err = run(capsys, "calibrate", "--p", p)
            assert (code, out) == (2, "")
            assert err == f"error: the MLR exp(z^2 / 2) overflows at p = {p}\n"

    @pytest.mark.numpy
    def test_binomial_many_trials(self, capsys):
        code, out, err = run(capsys, "simulate", "--generator", "binomial", "--n", "100",
                             "--trials", "2000", "--theta0", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_pooled_tiny_std_error(self, capsys, tmp_path):
        # scale-free weights: the same z and S as the unscaled (0.3, 1), (0.5, 2)
        f = tmp_path / "tiny.csv"
        f.write_text("id,estimate,std_error\na,3e-201,1e-200\nb,5e-201,2e-200\n", encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", "pooled",
                             "--format", "json")
        assert (code, err) == (0, "")
        rep = strict_json(out)
        assert rep["z"] == pytest.approx(0.38013155617496425, rel=1e-15, abs=0)
        assert rep["s_summary_nats"] == pytest.approx(0.351193192766297, rel=1e-15, abs=0)

    @pytest.mark.parametrize("method", ["pooled", "compare"])
    def test_pooled_weighted_sum_past_the_largest_double(self, capsys, tmp_path, method):
        # the weighted estimates sum to 3.4e308, past the largest double; their mean does not
        f = tmp_path / "big.csv"
        f.write_text("id,estimate,std_error\na,1.7e308,1e300\nb,1.7e308,1e300\n",
                     encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", method,
                             "--format", "json")
        assert (code, err) == (0, "")
        rep = strict_json(out)
        pooled = rep if method == "pooled" else rep["pooled"]
        assert pooled["pooled_estimate"] == 1.7e308
        # -ln erfc(z / sqrt 2) at z = 1.7e308 sqrt 2 / 1e300; mpmath 1.3.0, 50 digits
        assert pooled["s_summary_nats"] == pytest.approx(28900000000000014.40914585, rel=1e-15,
                                                         abs=0)

    @pytest.mark.parametrize("method, rows", [
        ("pooled", "a,1e308,1e-308\nb,1,1\n"),  # z = (estimate - null) / std_error
        ("z2", "a,1e300,1\nb,1,1\n"),  # the sum of z^2
    ])
    def test_overflowing_statistic(self, capsys, tmp_path, method, rows):
        f = tmp_path / "big.csv"
        f.write_text("id,estimate,std_error\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", method)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "overflows" in err

    @pytest.mark.parametrize("method, rows, message", [
        ("pooled", "a,1e200,1\n", "the S-value at z = 1e+200 overflows"),
        ("compare", "a,1e200,1\n", "the S-value at z = 1e+200 overflows"),
        ("compare", "a,1.3e154,1\nb,-1.3e154,1\n", "the S-summation statistic 2 s_plus overflows"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_overflowing_s_value(self, capsys, tmp_path, method, rows, message, fmt):
        f = tmp_path / "big.csv"
        f.write_text("id,estimate,std_error\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", method,
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_curve_z_squared_overflow(self, capsys):
        code, out, err = run(capsys, "curve", "--estimate", "0", "--se", "1e-300",
                             "--from", "-1", "--to", "1", "--steps", "3")
        assert (code, out) == (2, "")
        assert err == ("error: the S-value at z = 9.999999999999999e+299 overflows: "
                       "z^2 is past the largest double\n")

    @pytest.mark.parametrize("method", ["compare", "z2"])
    def test_overflowing_study_z_names_the_study(self, capsys, tmp_path, method):
        # the pooled z is 1e300, finite; study a's own z overflows
        f = tmp_path / "big.csv"
        f.write_text("id,estimate,std_error\na,1e300,1e-10\nb,0,1e-20\n", encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", method)
        assert (code, out) == (2, "")
        assert err == "error: study 'a': the z-score (estimate - null) / std_error overflows\n"

    @pytest.mark.parametrize("method", ["pooled", "compare", "z2"])
    @pytest.mark.parametrize("null", ["nan", "inf"])
    def test_non_finite_null(self, capsys, effect_csv, method, null):
        code, out, err = run(capsys, "combine", "--input", effect_csv, "--method", method,
                             "--null", null)
        assert (code, out) == (2, "")
        assert err == f"error: null value must be finite, got {null}\n"


class TestUnitOption:
    """Only curve takes --unit (TestCurve.test_json_format uses it)."""

    @pytest.mark.parametrize("argv", [
        ["convert", "--p", "0.05"],
        ["combine", "--input", "studies.csv"],
        ["calibrate", "--p", "0.05"],
        ["simulate", "--n", "100"],
    ])
    def test_rejected_outside_curve(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--unit", "nats"])
        assert exc.value.code == 2
        assert "--unit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["curve", "--estimate", "0", "--se", "1", "--from", "-1", "--to", "1", "--steps", "3",
         "--unit", "Bits"],
        ["convert", "--s", "1", "--from-unit", "Bits"],
    ], ids=["curve", "convert"])
    def test_unit_names_are_argparse_choices(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'Bits'" in capsys.readouterr().err


# Runs in a fresh interpreter, because this one has loaded svalue, and numpy too.
NUMPY_FREE_SCRIPT = """
import json, sys
import svalue
loaded = [m for m in sys.modules if m.startswith("svalue.")]
assert not loaded, f"import svalue loaded {loaded}"
assert "numpy" not in sys.modules, "import svalue loaded numpy"
import svalue.cli
assert "numpy" not in sys.modules, "import svalue.cli loaded numpy"
assert "statistics" not in sys.modules, "import svalue.cli loaded statistics"
sys.modules["numpy"] = None  # any later `import numpy` raises ModuleNotFoundError
for argv in json.loads(sys.argv[1]):
    code = svalue.cli.main(argv)
    assert code == 0, (argv, code)
try:
    svalue.cli.main(["simulate", "--n", "10"])
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("simulate ran without numpy; the block is not in effect")
"""


def test_non_simulate_subcommands_run_without_numpy(p_csv):
    argvs = [
        ["convert", "--p", "0.05"],
        ["calibrate", "--p", "0.01"],
        ["combine", "--input", p_csv, "--method", "s-sum"],
        ["curve", "--estimate", "1.2", "--se", "0.5", "--from", "1.0", "--to", "1.4",
         "--steps", "3"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# Exact stdout, stderr and exit code of every subcommand in every format.
# The expected text in cli_golden.json is keyed "<case>/<format>"; "{name}"
# arguments name the CSV inputs below, written to a temporary directory.
GOLDEN_INPUTS = {
    "p_csv": "id,p\na,0.05\nb,0.05\n",
    "effect_csv": "id,estimate,std_error\na,0.3,0.1\nb,0.5,0.2\n",
    "deep_csv": "id,p\na,1e-150\nb,1e-150\n",  # p_summary ~ 6.9e-298
}
GOLDEN_CASES = {
    "convert_p": ["convert", "--p", "0.05"],
    "convert_p1": ["convert", "--p", "1"],
    "convert_s": ["convert", "--s", "3.0", "--from-unit", "dits"],
    "calibrate": ["calibrate", "--p", "0.05"],
    "calibrate_d3": ["calibrate", "--p", "0.05", "--d", "3"],
    "calibrate_p_half": ["calibrate", "--p", "0.5"],
    "combine_s_sum": ["combine", "--input", "{p_csv}", "--method", "s-sum"],
    "combine_s_sum_deep": ["combine", "--input", "{deep_csv}", "--method", "s-sum"],
    "combine_z2": ["combine", "--input", "{effect_csv}", "--method", "z2"],
    "combine_pooled": ["combine", "--input", "{effect_csv}", "--method", "pooled"],
    "combine_compare": ["combine", "--input", "{effect_csv}", "--method", "compare"],
    "curve": ["curve", "--estimate", "1.2", "--se", "0.5", "--from", "1.0", "--to", "1.4",
              "--steps", "3"],
    "curve_nats": ["curve", "--estimate", "0", "--se", "1", "--from", "-2", "--to", "2",
                   "--steps", "5", "--unit", "nats"],
    "simulate_uniform": ["simulate", "--n", "2000", "--seed", "42", "--alphas", "0.01,0.05"],
    "simulate_binomial": ["simulate", "--generator", "binomial", "--n", "2000",
                          "--trials", "10", "--theta0", "0.5", "--seed", "7"],
    "simulate_low_n": ["simulate", "--n", "50", "--seed", "3"],
}
GOLDEN_FORMATS = ("json", "csv", "table")


@pytest.fixture(scope="module")
def golden():
    with open(Path(__file__).with_name("cli_golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def golden_inputs(tmp_path):
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    return {name: str(tmp_path / f"{name}.csv") for name in GOLDEN_INPUTS}


def test_golden_covers_every_case(golden):
    assert set(golden) == {f"{c}/{f}" for c in GOLDEN_CASES for f in GOLDEN_FORMATS}


@pytest.mark.parametrize("fmt", GOLDEN_FORMATS)
@pytest.mark.parametrize("case", [
    pytest.param(c, marks=pytest.mark.numpy) if c.startswith("simulate") else c
    for c in GOLDEN_CASES
])
def test_golden_output(capsys, golden, golden_inputs, case, fmt):
    argv = [a.format(**golden_inputs) for a in GOLDEN_CASES[case]]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert {"code": code, "out": out, "err": err} == golden[f"{case}/{fmt}"]
