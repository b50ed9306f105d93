"""Surprisal-based statistical inference toolkit.

Converts P-values to S-values in bits, nats, and dits; combines evidence
across independent studies (S-summation, Z-squared, and pooled tests);
calibrates P-values against likelihood and Bayes-factor benchmarks; tabulates
P-/S-value curves over parameter ranges; and validates P-value uniformity or
conservativeness by reproducible Monte Carlo simulation.
"""

from .calibrate import (
    BF_BOUND_MAX_P,
    BayesFactorBound,
    CalibrationReport,
    bayes_factor_bound,
    calibration_report,
    deviance_and_aic,
    mlr_normal_1df,
)
from .combine import (
    CombinationReport,
    MethodComparison,
    PooledReport,
    SchemaError,
    StudyResult,
    ZSquaredReport,
    compare_methods,
    pooled_homogeneity_test,
    s_summation_test,
    studies_from_csv,
    z_squared_test,
)
from .curves import CurvePoint, EstimateSpec, curve, curve_point
from .simulate import (
    DistributionReport,
    EValueCheck,
    RngSpec,
    SimulationSummary,
    binomial_upper_tail_pvalues,
    distribution_report,
    evalue_check,
    exact_rejection_probability,
    simulate_exact_binomial,
    simulate_uniform_p,
)
from .specfun import (
    ChiSquare,
    ConvergenceError,
    log_chisq_survival,
    log_reg_gamma_upper,
    normal_cdf,
    normal_quantile,
)
from .units import (
    InfoUnit,
    PValue,
    SValue,
    coin_toss_gauge,
    convert,
    from_surprisal,
    surprisal,
    two_sided_to_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "BF_BOUND_MAX_P",
    "BayesFactorBound",
    "CalibrationReport",
    "ChiSquare",
    "CombinationReport",
    "ConvergenceError",
    "CurvePoint",
    "DistributionReport",
    "EValueCheck",
    "EstimateSpec",
    "InfoUnit",
    "MethodComparison",
    "PValue",
    "PooledReport",
    "RngSpec",
    "SValue",
    "SchemaError",
    "SimulationSummary",
    "StudyResult",
    "ZSquaredReport",
    "bayes_factor_bound",
    "binomial_upper_tail_pvalues",
    "calibration_report",
    "coin_toss_gauge",
    "compare_methods",
    "convert",
    "curve",
    "curve_point",
    "deviance_and_aic",
    "distribution_report",
    "evalue_check",
    "exact_rejection_probability",
    "from_surprisal",
    "log_chisq_survival",
    "log_reg_gamma_upper",
    "mlr_normal_1df",
    "normal_cdf",
    "normal_quantile",
    "pooled_homogeneity_test",
    "s_summation_test",
    "simulate_exact_binomial",
    "simulate_uniform_p",
    "studies_from_csv",
    "surprisal",
    "two_sided_to_sigma",
    "z_squared_test",
]
