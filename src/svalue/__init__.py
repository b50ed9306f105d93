"""Surprisal-based statistical inference toolkit.

Converts P-values to S-values in bits, nats, and dits; combines evidence
across independent studies (S-summation, Z-squared, and pooled tests);
calibrates P-values against likelihood and Bayes-factor benchmarks; tabulates
P-/S-value curves over parameter ranges; and validates P-value uniformity or
conservativeness by reproducible Monte Carlo simulation.

`import svalue` loads no submodule: each public name is looked up in its home
submodule on every access (PEP 562), so a submodule loads on first use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "calibrate": ("BF_BOUND_MAX_P", "CalibrationReport", "calibration_report"),
    "combine": ("CombinationReport", "MethodComparison", "PooledReport", "SchemaError",
                "Study", "StudyTable", "ZSquaredReport", "compare_methods",
                "pooled_homogeneity_test", "s_summation_test", "studies_from_csv", "z_squared_test"),
    "curves": ("CurvePoint", "EstimateSpec", "curve", "curve_point"),
    "simulate": ("DistributionReport", "EValueCheck", "RngSpec", "SimulationSummary",
                 "binomial_upper_tail_pvalues", "distribution_report", "evalue_check",
                 "simulate_exact_binomial", "simulate_uniform_p"),
    "specfun": ("ChiSquare", "ConvergenceError", "log_chisq_survival", "log_reg_gamma_upper",
                "normal_quantile"),
    "units": ("ConversionReport", "InfoUnit", "PValue", "SValue", "coin_toss_gauge",
              "conversion_report", "convert", "from_surprisal", "surprisal", "two_sided_to_sigma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
