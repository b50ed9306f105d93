"""The package surface: `svalue.__all__`, lazy name lookup and submodule access."""

import importlib
import inspect
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
    "CalibrationReport": ("p", "df_d", "mlr", "deviance", "aic_delta", "bf_lower_bound",
                          "odds_increase_bound", "conditional_type1", "notes"),
    "CombinationReport": ("k", "s_plus", "df", "p_summary", "s_summary",
                          "expected_noise_nats", "shrinkage_nats"),
    "ZSquaredReport": ("k", "statistic", "df", "p_summary", "s_summary", "notes"),
    "PooledReport": ("k", "pooled_estimate", "pooled_se", "z", "p_two_sided", "s_summary", "df"),
    "MethodComparison": ("s_summation", "pooled", "s_summation_nats", "difference_nats"),
    "CurvePoint": ("mu1", "p_ge", "p_le", "s_le", "p_two", "s_two"),
    "SimulationSummary": ("n", "mean_s_nats", "mean_s_bits", "se_of_mean", "empirical_type1",
                          "dominance_violations", "low_n"),
    "EValueCheck": ("n", "generator", "mean_e_condition", "se_of_mean", "passed", "low_n"),
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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, because this one has loaded both; -S, so that what a site hook
    # imports is not counted
    script = "import sys, svalue.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
