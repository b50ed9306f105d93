"""The package surface: `svalue.__all__`, lazy name lookup, submodule access, and what
`import svalue.cli` and each CLI call load."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import svalue

SUBMODULES = ("calibrate", "combine", "curves", "simulate", "specfun", "units")
CONSTANTS = {"BF_BOUND_MAX_P": "svalue.calibrate"}  # exported names that are not defs


def test_star_import_binds_exactly_all_with_home_objects():
    ns = {}
    exec("from svalue import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(svalue.__all__)
    for name, obj in ns.items():
        home = CONSTANTS.get(name) or obj.__module__
        assert obj is getattr(importlib.import_module(home), name), name


def test_every_public_function_and_class_is_exported():
    defined = set(CONSTANTS)
    for m in SUBMODULES:
        mod = importlib.import_module(f"svalue.{m}")
        defined |= {
            name for name, obj in vars(mod).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        }
    assert defined == set(svalue.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_are_attributes(name):
    assert getattr(svalue, name) is importlib.import_module(f"svalue.{name}")


def test_unknown_names_raise_attribute_error_and_dir_lists_all():
    assert not hasattr(svalue, "nope")
    assert set(svalue.__all__) <= set(dir(svalue))


def test_a_name_patched_in_its_home_module_is_what_the_package_returns(monkeypatch):
    import svalue.units

    def fake(p, unit=None):
        return "patched"

    monkeypatch.setattr(svalue.units, "surprisal", fake)
    assert svalue.surprisal is fake
    monkeypatch.undo()
    assert svalue.surprisal is svalue.units.surprisal


@pytest.mark.numpy
def test_readme_library_example_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ns = {}
    exec(block, ns)
    assert ns["s"].value == pytest.approx(4.321928094887362, rel=1e-12)
    assert ns["rep"].p_summary == pytest.approx(0.017478661367769955, rel=1e-12)
    assert ns["sim"].mean_s_nats == pytest.approx(1.0, abs=0.02)


RECORD_FIELDS = {
    "ConversionReport": ("p", "s_bits", "s_nats", "s_dits", "coin_tosses", "sigma", "notes"),
    "CalibrationReport": ("p", "df_d", "mlr", "deviance", "aic_delta", "bf_lower_bound",
                          "odds_increase_bound", "conditional_type1", "notes"),
    "CombinationReport": ("k", "s_plus", "df", "p_summary", "s_summary",
                          "expected_noise_nats", "shrinkage_nats"),
    "ZSquaredReport": ("k", "statistic", "df", "p_summary", "s_summary", "notes"),
    "PooledReport": ("k", "pooled_estimate", "pooled_se", "z", "p_two_sided", "s_summary", "df"),
    "MethodComparison": ("s_summation", "pooled", "s_summation_nats", "difference_nats"),
    "CurvePoint": ("mu1", "p_ge", "p_le", "s_le", "p_two", "s_two"),
    "SimulationSummary": ("n", "mean_s_nats", "mean_s_bits", "se_of_mean", "empirical_type1",
                          "dominance_violations", "low_n", "notes"),
    "EValueCheck": ("n", "generator", "mean_e_condition", "se_of_mean", "passed", "low_n",
                    "notes"),
    "DistributionReport": ("n", "reference", "ks_statistic", "critical_value", "passed"),
}


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_result_records_are_read_only_named_tuples(name):
    cls = getattr(svalue, name)
    assert issubclass(cls, tuple) and cls._fields == RECORD_FIELDS[name]
    record = cls(*range(len(cls._fields)))
    assert record == tuple(range(len(cls._fields)))
    assert list(record._asdict()) == list(cls._fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# Run in a fresh interpreter, because this one has loaded svalue, numpy and the rest.
# -S keeps what a site hook imports out of the count; site-packages goes on the path by
# hand, so an `import numpy` inside a try would still load it.
FRESH_IMPORT_SCRIPT = """
import json, site, sys
sys.path.extend(site.getsitepackages())
import svalue
submodules = sorted(m for m in sys.modules if m.startswith("svalue."))
import svalue.cli
cli_submodules = sorted(m for m in sys.modules if m.startswith("svalue."))
heavy = {"numpy", "statistics", "dataclasses", "inspect"}
print(json.dumps({"submodules": submodules, "cli_submodules": cli_submodules,
                  "heavy": sorted(heavy & set(sys.modules))}))
"""


def run_fresh(script: str, *args: str) -> str:
    """The stdout of `script` run with `args` in a fresh -S interpreter on this src."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def fresh_import():
    """What `import svalue`, then `import svalue.cli`, load in one -S child."""
    return json.loads(run_fresh(FRESH_IMPORT_SCRIPT))


def test_import_is_lazy_and_the_cli_loads_no_heavy_module(fresh_import):
    assert fresh_import["submodules"] == []
    assert fresh_import["cli_submodules"] == ["svalue.cli", "svalue.specfun", "svalue.units"]
    assert [m for m in fresh_import["heavy"] if m in ("numpy", "statistics")] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect(fresh_import):
    assert [m for m in fresh_import["heavy"] if m in ("dataclasses", "inspect")] == []


# A fresh -S interpreter: an exported name loads its home module alone, and a submodule
# is an attribute of the package once it is imported, as for any package.
SUBMODULE_ATTRIBUTE_SCRIPT = """
import site, sys
sys.path.extend(site.getsitepackages())
import svalue
svalue.PValue
loaded = sorted(m for m in sys.modules if m.startswith("svalue."))
before = hasattr(svalue, "simulate")
import svalue.simulate
print(repr((loaded, before, svalue.simulate is sys.modules["svalue.simulate"])))
"""


def test_a_submodule_is_an_attribute_once_imported():
    loaded, before, after = ast.literal_eval(run_fresh(SUBMODULE_ATTRIBUTE_SCRIPT))
    assert loaded == ["svalue.specfun", "svalue.units"]
    assert (before, after) == (False, True)


# One CLI call in a fresh -S interpreter. It reports what the call loaded, from an
# interpreter that has loaded neither json nor csv before main runs.
CLI_CALL_SCRIPT = """
import io, site, sys
sys.path.extend(site.getsitepackages())
from svalue.cli import main
sys.stdout, out = io.StringIO(), sys.stdout
code = main(sys.argv[1:])
sys.stdout = out
print(repr((code, sorted(m for m in sys.modules if m.startswith("svalue.")),
            "json" in sys.modules, "csv" in sys.modules)))
"""

CLI_CALLS = [  # argv and its own library module
    pytest.param(["convert", "--p", "0.05"], "units", id="convert"),
    pytest.param(["calibrate", "--p", "0.05", "--d", "2"], "calibrate", id="calibrate"),
    pytest.param(["curve", "--estimate", "1", "--se", "0.5", "--from", "0", "--to", "2",
                  "--steps", "5"], "curves", id="curve"),
    pytest.param(["combine", "--input", "{csv}", "--method", "compare"], "combine", id="combine"),
    pytest.param(["simulate", "--n", "1000", "--seed", "1"], "simulate", id="simulate",
                 marks=pytest.mark.numpy),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("argv, home", CLI_CALLS)
def test_a_cli_call_loads_only_its_own_module_and_writer(tmp_path, argv, home, fmt):
    study_csv = tmp_path / "studies.csv"
    study_csv.write_text("id,estimate,std_error\na,1.0,0.5\nb,0.3,0.4\n", encoding="utf-8")
    argv = [a.replace("{csv}", str(study_csv)) for a in argv] + ["--format", fmt]
    code, loaded, json_loaded, csv_loaded = ast.literal_eval(run_fresh(CLI_CALL_SCRIPT, *argv))
    assert code == 0
    assert loaded == sorted({"svalue.cli", "svalue.specfun", "svalue.units", f"svalue.{home}"})
    # as main does: simulate always prints JSON, and a curve prints its table as CSV
    printed = {"simulate": "json", "curves": fmt.replace("table", "csv")}.get(home, fmt)
    assert json_loaded == (printed == "json")
    assert csv_loaded == (printed == "csv" or home == "combine")


# A call on one thread, in a fresh -S interpreter: 1e5 draws are 2 chunks, 100 samples 1.
ONE_THREAD_SCRIPT = """
import site, sys
sys.path.extend(site.getsitepackages())
from svalue.simulate import RngSpec, distribution_report, simulate_uniform_p
simulate_uniform_p(100_000, RngSpec(0))
distribution_report([(i + 0.5) / 100 for i in range(100)], "uniform_01")
print("concurrent.futures" in sys.modules)
"""


@pytest.mark.numpy
def test_a_one_thread_simulation_imports_no_thread_pool():
    pytest.importorskip("numpy")
    assert run_fresh(ONE_THREAD_SCRIPT) == "False\n"
