"""CLI contract tests: output schemas, exit codes, determinism."""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from svalue.cli import main
from svalue.units import InfoUnit, PValue, SValue, conversion_report


# the whole error line of an S-value that would overflow names whose z-score it is
MU1_OVERFLOWS = ("the S-value at mu1 = {} overflows: the square of its z-score "
                 "(estimate - mu1) / std_error is past the largest double")
POOLED_OVERFLOWS = ("the pooled S-value overflows: the square of its z-score "
                    "(pooled estimate - null) / pooled se is past the largest double")
STUDY_OVERFLOWS = ("study {!r}: the S-value overflows: the square of its z-score "
                   "(estimate - null) / std_error is past the largest double")


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

    @pytest.mark.parametrize("argv", [
        ["--p", "0.05"], ["--p", "1"], ["--p", "2.2e-308"], ["--p", "5e-324"],
        ["--s", "2.5", "--from-unit", "bits"], ["--s", "1.0", "--from-unit", "dits"],
        *(["--s", str(s), "--from-unit", "nats"] for s in range(700, 746, 5)),
    ], ids="_".join)
    def test_coin_tosses_are_the_printed_s_in_bits_rounded(self, capsys, argv):
        code, out, _ = run(capsys, "convert", *argv, "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["coin_tosses"] == round(payload["s_bits"])
        if argv[1] == "745":  # 1074.81 bits, where the rounded P, 5e-324, gives 1074
            assert payload["coin_tosses"] == 1075

    def test_from_unit_with_p_is_refused(self, capsys):
        code, out, err = run(capsys, "convert", "--p", "0.05", "--from-unit", "nats",
                             "--format", "json")
        assert (code, out, err) == (2, "", "error: --from-unit goes with --s, not with --p\n")

    def test_s_without_from_unit_is_in_bits(self, capsys):
        code, out, _ = run(capsys, "convert", "--s", "3", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert (payload["s_bits"], payload["p"]) == (3.0, pytest.approx(0.125, rel=1e-15, abs=0))

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

    @pytest.mark.parametrize("s, unit", [("746", "nats"), ("2000", "bits"), ("1e308", "dits")])
    def test_s_past_the_smallest_p_names_the_s_value(self, capsys, s, unit):
        # 1e308 dits would overflow in bits; the P-value is refused before any rescale
        code, out, err = run(capsys, "convert", "--s", s, "--from-unit", unit)
        assert (code, out) == (2, "")
        assert err == (f"error: S-value {float(s)!r} {unit} gives a P-value below the "
                       "smallest positive double\n")

    @pytest.mark.parametrize("s", ["inf", "nan", "-0.5"])
    def test_s_outside_its_range_is_refused(self, capsys, s):
        code, out, err = run(capsys, "convert", "--s", s)
        assert (code, out) == (2, "")
        assert err == f"error: S-value must be a finite number >= 0, got {float(s)!r}\n"

    def test_conflicting_flags(self, capsys):
        code, _, err = run(capsys, "convert", "--p", "0.5", "--s", "1.0")
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize("argv", [
        ["--p", "0.5", "--s", "1.0", "--from-unit", "nats"], [], ["--from-unit", "nats"],
    ], ids=["both-with-unit", "neither", "neither-with-unit"])
    def test_exactly_one_of_p_or_s(self, capsys, argv):
        code, out, err = run(capsys, "convert", *argv, "--format", "json")
        assert (code, out, err) == (2, "", "error: give exactly one of --p or --s\n")

    def test_table_format_rounds(self, capsys):
        code, out, _ = run(capsys, "convert", "--p", "0.05")
        assert code == 0
        assert "4.322" in out and "1.645" in out


@pytest.fixture
def p_csv(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text(GOLDEN_INPUTS["p_csv"], encoding="utf-8")
    return str(f)


@pytest.fixture
def effect_csv(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text(GOLDEN_INPUTS["effect_csv"], encoding="utf-8")
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

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_null_with_s_sum_is_refused(self, capsys, p_csv, fmt):
        # s-sum combines P-values whose hypotheses are fixed: it has no null to set
        code, out, err = run(capsys, "combine", "--input", p_csv, "--method", "s-sum",
                             "--null", "0", "--format", fmt)
        assert (code, out, err) == (
            2, "", "error: --null goes with z2, pooled and compare, not with s-sum\n")


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

    def test_p_equal_one_answers(self, capsys):
        code, out, err = run(capsys, "calibrate", "--p", "1", "--format", "json")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert (payload["mlr"], payload["deviance"], payload["aic_delta"]) == (1.0, 0.0, -2.0)
        assert payload["bf_lower_bound"] is None and len(payload["notes"]) == 1

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
    """Overflow and division by zero inside the numerics end in exit 2, not a traceback; an
    input that once overflowed and no longer does gets its answer."""

    def test_calibrate_tiny_p(self, capsys):
        # at 5e-324, p / 2 underflows to 0 before the quantile; at 1e-320, exp overflows
        for p in ("5e-324", "1e-320"):
            code, out, err = run(capsys, "calibrate", "--p", p)
            assert (code, out) == (2, "")
            assert err == f"error: the MLR exp(z^2 / 2) overflows at p = {p}\n"

    @pytest.mark.numpy
    def test_binomial_many_trials(self, capsys):
        # from 1030 trials the tails once converted a too-large comb(trials, x) to float
        code, out, err = run(capsys, "simulate", "--generator", "binomial", "--n", "1000",
                             "--trials", "2000", "--theta0", "0.4", "--seed", "1",
                             "--format", "json")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert (payload["n"], payload["trials"]) == (1000, 2000)
        assert payload["dominance_violations"] == 0
        assert payload["mean_s_nats"] <= 1.0 + 3.0 * payload["se_of_mean"]

    def test_a_kernel_that_does_not_converge(self, capsys, tmp_path, monkeypatch):
        from svalue import specfun
        monkeypatch.setattr(specfun, "MAX_ITER", -10**9)  # no iteration at all
        f = tmp_path / "p.csv"
        f.write_text("id,p\na,0.05\nb,0.2\n", encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", "s-sum")
        assert (code, out) == (2, "")
        # ln Q(k, s_plus) with k = 2 studies and s_plus = -ln 0.05 - ln 0.2 = ln 100
        assert err == ("error: incomplete gamma continued fraction did not converge "
                       "(a=2.0, x=4.605170185988091)\n")

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
        ("z2", "a,1e154,1\nb,1e154,1\n"),  # the sum of z^2; each z^2 is finite
    ])
    def test_overflowing_statistic(self, capsys, tmp_path, method, rows):
        f = tmp_path / "big.csv"
        f.write_text("id,estimate,std_error\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, "combine", "--input", str(f), "--method", method)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "overflows" in err

    @pytest.mark.parametrize("argv, rows, message", [
        # a curve names the first mu1 whose z^2 overflows: at z = 1e300, then at infinite z
        (["curve", "--estimate=0", "--se=1e-300", "--from=-1", "--to=1", "--steps=3"], None,
         MU1_OVERFLOWS.format("-1.0")),
        (["curve", "--estimate=-1.7e308", "--se=1e-300", "--from=0", "--to=1", "--steps=2"], None,
         MU1_OVERFLOWS.format("0.0")),
        (["curve", "--estimate=1.7e308", "--se=1", "--from=-1.7e308", "--to=0", "--steps=2"], None,
         MU1_OVERFLOWS.format("-1.7e+308")),
        (["curve", "--estimate=1e308", "--se=1e-10", "--from=0", "--to=1", "--steps=2"], None,
         MU1_OVERFLOWS.format("0.0")),
        # pooled: the pooled z^2 at z = 1e200; from finite study z, a pooled z of 1.7e308 sqrt 3
        (["combine", "--method=pooled"], "a,1e200,1\n", POOLED_OVERFLOWS),
        (["combine", "--method=pooled"], "a,1.7e308,1\n" * 3, POOLED_OVERFLOWS),
        # z2 and compare name the first study whose z^2 overflows, before any pooled z
        (["combine", "--method=z2"], "a,1.4e154,1\n", STUDY_OVERFLOWS.format("a")),
        (["combine", "--method=compare"], "a,1.4e154,1\n", STUDY_OVERFLOWS.format("a")),
        (["combine", "--method=compare"], "a,1e200,1\n", STUDY_OVERFLOWS.format("a")),
        (["combine", "--method=compare"], "a,1.7e308,1\n" * 3, STUDY_OVERFLOWS.format("a")),
        (["combine", "--method=compare"], "a,1.4e154,1\nb,-1.4e154,1\n",  # the pooled z is 0
         STUDY_OVERFLOWS.format("a")),
        # study a's own z, 1e310, overflows; b's z is 0
        (["combine", "--method=z2"], "a,1e300,1e-10\nb,0,1e-20\n", STUDY_OVERFLOWS.format("a")),
        (["combine", "--method=compare"], "a,1e300,1e-10\nb,0,1e-20\n",
         STUDY_OVERFLOWS.format("a")),
        (["combine", "--method=z2"], "a,0,1\nb,1.4e154,1\n", STUDY_OVERFLOWS.format("b")),
        # compare: each study's z^2 is 1e308, finite; the pooled z^2, 4e308, is not
        (["combine", "--method=compare"], "a,1e154,1\n" * 4, POOLED_OVERFLOWS),
        # compare: the pooled z is 0 and each z^2 finite, but the 2 s_k sum past the largest double
        (["combine", "--method=compare"], "a,1.3e154,1\nb,-1.3e154,1\n",
         "the S-summation statistic 2 s_plus overflows"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_overflowing_s_value(self, capsys, tmp_path, argv, rows, message, fmt):
        if rows is not None:
            f = tmp_path / "big.csv"
            f.write_text("id,estimate,std_error\n" + rows, encoding="utf-8")
            argv = [*argv, f"--input={f}"]
        assert run(capsys, *argv, f"--format={fmt}") == (2, "", f"error: {message}\n")

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


@pytest.mark.parametrize("case", [c for c in GOLDEN_CASES if c.startswith("convert")])
def test_conversion_report_is_the_convert_record(golden, case):
    opts = dict(zip(GOLDEN_CASES[case][1::2], GOLDEN_CASES[case][2::2]))
    value = (PValue(float(opts["--p"])) if "--p" in opts
             else SValue(float(opts["--s"]), InfoUnit(opts["--from-unit"])))
    record = conversion_report(value)._asdict()
    printed = json.loads(golden[f"{case}/json"]["out"])
    assert list(record) == list(printed)
    assert {**record, "notes": list(record["notes"])} == printed


def test_non_simulate_subcommands_run_without_numpy(capsys, p_csv):
    # tests/conftest.py blocks numpy here, as it does for the golden cases above without
    # the marker; simulate needs numpy, which shows the block is in effect, and exits 2
    argvs = [
        ["convert", "--p", "0.05"],
        ["calibrate", "--p", "0.01"],
        ["combine", "--input", p_csv, "--method", "s-sum"],
        ["curve", "--estimate", "1.2", "--se", "0.5", "--from", "1.0", "--to", "1.4",
         "--steps", "3"],
    ]
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert run(capsys, "simulate", "--n", "10") == (
        2, "", "error: simulate needs numpy (pip install 'svalue[simulate]')\n")
