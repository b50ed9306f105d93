"""The checked value types: PValue, SValue, ChiSquare, EstimateSpec and RngSpec.

Each is a read-only named tuple whose construction checks its fields. The same
checks run on every route to an instance: the constructor, `_make` and
`_replace`; unpickling goes through the constructor. An integer field, like
every count argument of the library, takes numpy's integers and stores an int.
A real field, like every real argument the library checks as given, takes an
int or a float (numpy's float64 too) and stores a float; a bool, a str, None or
an int too large for a double is refused with ValueError.
"""

import math
import pickle
import re
import reprlib

import pytest

from svalue.calibrate import calibration_report
from svalue.combine import StudyTable, compare_methods, pooled_homogeneity_test
from svalue.curves import EstimateSpec, curve, curve_point
from svalue.simulate import (
    RngSpec,
    binomial_upper_tail_pvalues,
    evalue_check,
    simulate_exact_binomial,
    simulate_uniform_p,
)
from svalue.specfun import ChiSquare
from svalue.units import InfoUnit, PValue, SValue

GOOD = {
    PValue: {"value": 0.05},
    SValue: {"value": 2.5, "unit": InfoUnit.NATS},
    ChiSquare: {"df": 3},
    EstimateSpec: {"estimate": 1.2, "std_error": 0.5},
    RngSpec: {"seed": 42, "stream": 3},
}

# (type, one bad field, its value, the whole message)
BAD = [
    (PValue, "value", "0.5", "P-value must lie in the half-open interval (0, 1], got '0.5'"),
    (PValue, "value", None, "P-value must lie in the half-open interval (0, 1], got None"),
    (PValue, "value", True, "P-value must lie in the half-open interval (0, 1], got True"),
    (PValue, "value", 0, "P-value must lie in the half-open interval (0, 1], got 0"),
    (PValue, "value", 2, "P-value must lie in the half-open interval (0, 1], got 2"),
    (PValue, "value", 0.0, "P-value must lie in the half-open interval (0, 1], got 0.0"),
    (PValue, "value", 1.0000001,
     "P-value must lie in the half-open interval (0, 1], got 1.0000001"),
    (PValue, "value", math.nan, "P-value must lie in the half-open interval (0, 1], got nan"),
    (PValue, "value", -0.1, "P-value must lie in the half-open interval (0, 1], got -0.1"),
    (PValue, "value", 2.0, "P-value must lie in the half-open interval (0, 1], got 2.0"),
    (PValue, "value", math.inf, "P-value must lie in the half-open interval (0, 1], got inf"),
    (SValue, "value", "1", "S-value must be a finite number >= 0, got '1'"),
    (SValue, "value", None, "S-value must be a finite number >= 0, got None"),
    (SValue, "value", False, "S-value must be a finite number >= 0, got False"),
    (SValue, "value", -0.1, "S-value must be a finite number >= 0, got -0.1"),
    (SValue, "value", -5e-324, "S-value must be a finite number >= 0, got -5e-324"),
    (SValue, "value", math.nan, "S-value must be a finite number >= 0, got nan"),
    (SValue, "value", math.inf, "S-value must be a finite number >= 0, got inf"),
    (SValue, "value", -math.inf, "S-value must be a finite number >= 0, got -inf"),
    (SValue, "value", 10**400, f"S-value must be a finite number >= 0, got {10**400}"),
    (SValue, "unit", "bits", "unit must be an InfoUnit, got 'bits'"),
    (ChiSquare, "df", 2.0, "df must be an integer >= 1, got 2.0"),
    (ChiSquare, "df", True, "df must be an integer >= 1, got True"),
    (ChiSquare, "df", 0, "df must be an integer >= 1, got 0"),
    (ChiSquare, "df", -3, "df must be an integer >= 1, got -3"),
    (EstimateSpec, "estimate", math.nan, "estimate must be finite, got nan"),
    (EstimateSpec, "estimate", math.inf, "estimate must be finite, got inf"),
    (EstimateSpec, "estimate", -math.inf, "estimate must be finite, got -inf"),
    (EstimateSpec, "estimate", True, "estimate must be finite, got True"),
    (EstimateSpec, "estimate", "1", "estimate must be finite, got '1'"),
    (EstimateSpec, "std_error", 0.0, "std_error must be positive and finite, got 0.0"),
    (EstimateSpec, "std_error", -1.0, "std_error must be positive and finite, got -1.0"),
    (EstimateSpec, "std_error", math.inf, "std_error must be positive and finite, got inf"),
    (EstimateSpec, "std_error", "0.5", "std_error must be positive and finite, got '0.5'"),
    (RngSpec, "seed", -1, "seed must be an integer in [0, 2^64), got -1"),
    (RngSpec, "seed", 2**64, "seed must be an integer in [0, 2^64), got 18446744073709551616"),
    (RngSpec, "seed", 1.5, "seed must be an integer in [0, 2^64), got 1.5"),
    (RngSpec, "stream", -2, "stream must be an integer in [0, 2^64), got -2"),
    (RngSpec, "stream", 2**64, "stream must be an integer in [0, 2^64), got 18446744073709551616"),
    (RngSpec, "stream", True, "stream must be an integer in [0, 2^64), got True"),
]
BAD_IDS = [f"{cls.__name__}.{field}={reprlib.repr(value)}" for cls, field, value, _ in BAD]


def good(cls):
    return cls(**GOOD[cls])


@pytest.mark.parametrize("cls, field, value, message", BAD, ids=BAD_IDS)
def test_bad_field_raises_its_message_on_every_route(cls, field, value, message):
    fields = {**GOOD[cls], field: value}
    for build in (lambda: cls(**fields), lambda: cls(*fields.values()),
                  lambda: cls._make(fields.values()), lambda: good(cls)._replace(**{field: value})):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("cls", GOOD, ids=lambda c: c.__name__)
def test_named_tuple_equal_to_its_fields(cls):
    value = good(cls)
    assert cls._fields == tuple(GOOD[cls])
    assert value == tuple(GOOD[cls].values()) and value._asdict() == GOOD[cls]
    assert cls._make(value) == value and value._replace() == value


@pytest.mark.parametrize("cls", GOOD, ids=lambda c: c.__name__)
def test_read_only(cls):
    value = good(cls)
    for field in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert not hasattr(value, "__dict__")
    assert value == good(cls)


@pytest.mark.parametrize("cls", GOOD, ids=lambda c: c.__name__)
def test_pickle_round_trips(cls):
    value = good(cls)
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls and back == value


# each integer field and count argument, as a call of one integer k, and a k it takes
INTEGER_SITES = {
    "ChiSquare.df": (ChiSquare, 3),
    "RngSpec.seed": (lambda k: RngSpec(k, 3), 42),
    "RngSpec.stream": (lambda k: RngSpec(42, k), 3),
    "calibration_report.d": (lambda k: calibration_report(PValue(0.05), k), 1),
    "curve.steps": (lambda k: curve(EstimateSpec(1.2, 0.5), 0.0, 2.0, k), 5),
    "simulate_uniform_p.n": (lambda k: simulate_uniform_p(k, RngSpec(1)), 1000),
    "binomial_upper_tail_pvalues.trials": (lambda k: binomial_upper_tail_pvalues(k, 0.5), 10),
    "simulate_exact_binomial.n_reps": (
        lambda k: simulate_exact_binomial(k, 10, 0.5, RngSpec(1)), 1000),
    "simulate_exact_binomial.trials": (
        lambda k: simulate_exact_binomial(1000, k, 0.5, RngSpec(1)), 10),
    "evalue_check.n.uniform": (lambda k: evalue_check(k, RngSpec(1)), 1000),
    "evalue_check.n.binomial": (lambda k: evalue_check(k, RngSpec(1), "binomial", 10, 0.5), 1000),
}


@pytest.mark.numpy
@pytest.mark.parametrize("call, k", INTEGER_SITES.values(), ids=INTEGER_SITES)
def test_integer_arguments_take_numpy_integers_and_store_an_int(call, k):
    np = pytest.importorskip("numpy")
    want = repr(call(k))  # an np.int64 field would show in the repr
    for v in (np.int64(k), np.uint64(k)):
        assert repr(call(v)) == want
    for bad in (True, np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f", got {bad!r}")):
            call(bad)


EFFECTS = StudyTable.from_columns(["a", "b"], [0.3, 0.5], [0.1, 0.2])
# each real field and argument, as a call of one real x, and an int it takes (None where
# its range holds no int)
REAL_SITES = {
    "PValue.value": (PValue, 1),
    "SValue.value": (lambda x: SValue(x, InfoUnit.NATS), 2),
    "EstimateSpec.estimate": (lambda x: EstimateSpec(x, 0.5), 1),
    "EstimateSpec.std_error": (lambda x: EstimateSpec(1.2, x), 2),
    "curve_point.mu1": (lambda x: curve_point(EstimateSpec(1.2, 0.5), x), 1),
    "curve.from_": (lambda x: curve(EstimateSpec(1.2, 0.5), x, 2.0, 5), 0),
    "curve.to": (lambda x: curve(EstimateSpec(1.2, 0.5), 0.0, x, 5), 2),
    "pooled_homogeneity_test.null_value": (lambda x: pooled_homogeneity_test(EFFECTS, x), 1),
    "compare_methods.null_value": (lambda x: compare_methods(EFFECTS, x), 1),
    "simulate_uniform_p.alphas": (lambda x: simulate_uniform_p(1000, RngSpec(1), [x]), None),
    "binomial_upper_tail_pvalues.theta0": (lambda x: binomial_upper_tail_pvalues(10, x), None),
}
INT_REAL_SITES = {name: site for name, site in REAL_SITES.items() if site[1] is not None}


@pytest.mark.parametrize("call, k", INT_REAL_SITES.values(), ids=INT_REAL_SITES)
def test_real_arguments_store_an_int_as_a_float(call, k):
    assert repr(call(k)) == repr(call(float(k)))  # an int field would show in the repr


@pytest.mark.parametrize("bad", [True, "0.5", None, 10**400],
                         ids=["True", "0.5", "None", "10**400"])
@pytest.mark.parametrize("call", [call for call, _ in REAL_SITES.values()], ids=REAL_SITES)
def test_real_arguments_refuse_a_bool_str_or_none(call, bad):  # or an int past any double
    with pytest.raises(ValueError, match=re.escape(f", got {bad!r}") + "$"):
        call(bad)


@pytest.mark.numpy
def test_real_fields_store_numpy_float64_as_a_float_and_refuse_float32():
    np = pytest.importorskip("numpy")
    spec = EstimateSpec(np.float64(1.2), 0.5)
    assert type(spec.estimate) is float and spec == EstimateSpec(1.2, 0.5)
    bad = np.float32(1.2)
    with pytest.raises(ValueError, match=re.escape(f", got {bad!r}") + "$"):
        EstimateSpec(bad, 0.5)


@pytest.mark.numpy
def test_p_value_stores_numpy_float64_as_a_float():
    np = pytest.importorskip("numpy")
    assert type(PValue(np.float64(0.05)).value) is float and PValue(np.float64(0.05)) == (0.05,)
