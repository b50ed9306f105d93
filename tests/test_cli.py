"""CLI contract tests: output schemas, exit codes, determinism."""

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

    def test_missing_file_is_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "combine", "--input", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "I/O" in err

    def test_pooled_on_p_form_is_schema_error(self, capsys, p_csv):
        code, _, err = run(capsys, "combine", "--input", p_csv, "--method", "pooled")
        assert code == 2
        assert "id,estimate,std_error" in err


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


class TestCurve:
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
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "simulate", "--generator", "uniform", "--n", "20000",
                         "--seed", "42")
        _, out2, _ = run(capsys, "simulate", "--generator", "uniform", "--n", "20000",
                         "--seed", "42")
        assert out1 == out2

    def test_json_is_strict_and_complete(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "5000", "--seed", "1",
                           "--alphas", "0.01,0.05")
        assert code == 0
        payload = strict_json(out)
        assert set(payload["empirical_type1"]) == {"0.01", "0.05"}
        assert payload["dominance_violations"] == 0
        assert not payload["low_n"]

    def test_binomial_generator(self, capsys):
        code, out, _ = run(capsys, "simulate", "--generator", "binomial", "--n", "5000",
                           "--trials", "10", "--theta0", "0.5", "--seed", "7")
        payload = strict_json(out)
        assert payload["trials"] == 10
        assert payload["dominance_violations"] == 0

    def test_binomial_requires_trials(self, capsys):
        code, _, _ = run(capsys, "simulate", "--generator", "binomial", "--n", "100")
        assert code == 2

    def test_n_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "simulate", "--n", "0")
        assert code == 2

    def test_low_n_noted(self, capsys):
        _, out, _ = run(capsys, "simulate", "--n", "50", "--seed", "3")
        payload = strict_json(out)
        assert payload["low_n"]
        assert payload["notes"]


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
        code, out, err = run(capsys, "calibrate", "--p", "1e-320")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

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


# Runs in a fresh interpreter, because this one has numpy loaded already.
NUMPY_FREE_SCRIPT = """
import json, sys
import svalue
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
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_output(capsys, golden, golden_inputs, case, fmt):
    argv = [a.format(**golden_inputs) for a in GOLDEN_CASES[case]]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert {"code": code, "out": out, "err": err} == golden[f"{case}/{fmt}"]
