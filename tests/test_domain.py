"""The CLI's domain contract as a deterministic sweep over edge values.

Every input gets one of two outcomes: exit 0 with only finite numbers on stdout
(strict JSON for `--format json`, no inf or nan cell or value in CSV and tables)
and a note for each field left empty (JSON `notes`, a `note:` line on stderr for
CSV and tables), or exit 2 with an empty stdout and one `error:` line on stderr.
`test_known_failure` lists the inputs whose answer is still wrong. Nothing here
imports numpy but the simulate sweep, which runs under the `numpy` marker.
"""

import contextlib
import csv
import io
import json
import random
import re

import pytest

from svalue.calibrate import calibration_report
from svalue.cli import main
from svalue.curves import EstimateSpec, curve_point
from svalue.specfun import log_reg_gamma_upper
from svalue.units import InfoUnit, PValue, SValue, conversion_report

# From the smallest subnormal to near the largest double. z^2 overflows past
# |z| ~ 1.34e154, so 1.3e154 is a z whose square is finite and 1.4e154 one whose
# square is not. P-values are drawn from P_EDGES, whose 1.5 is out of range.
EDGES = (5e-324, 1e-320, 2.2e-308, 1e-300, 1e-200, 1e-10, 0.05, 0.5, 1.0, 2.0, 40.0,
         1e10, 1e154, 1.3e154, 1.34e154, 1.4e154, 1e200, 1e300, 1.7e308)
P_EDGES = tuple(v for v in EDGES if v <= 1.0) + (1.5,)
ROUTES = ("convert", "calibrate", "curve", "combine")
FORMATS = ("json", "csv", "table")
NON_FINITE = re.compile(r"(?i)\b(inf|infinity|nan)\b")
N_CALLS = 400


def _signed(rnd):
    return rnd.choice((1.0, -1.0)) * rnd.choice(EDGES + (0.0,))


def _argv(rnd, route, study_file):
    """One call of `route`, numbers written as --name=value so argparse reads -1e10 as one."""
    if route == "convert":
        if rnd.random() < 0.5:
            return ["convert", f"--p={rnd.choice(P_EDGES)!r}"]
        return ["convert", f"--s={rnd.choice(EDGES)!r}",
                f"--from-unit={rnd.choice(('bits', 'nats', 'dits'))}"]
    if route == "calibrate":
        return ["calibrate", f"--p={rnd.choice(P_EDGES)!r}", f"--d={rnd.choice((1, 2, 3))}"]
    if route == "curve":
        lo, hi = sorted((_signed(rnd), _signed(rnd)))
        return ["curve", f"--estimate={_signed(rnd)!r}", f"--se={rnd.choice(EDGES)!r}",
                f"--from={lo!r}", f"--to={hi!r}", f"--steps={rnd.choice((2, 3, 4, 7))}",
                f"--unit={rnd.choice(('bits', 'nats', 'dits'))}"]
    method = rnd.choice(("s-sum", "z2", "pooled", "compare"))
    k = rnd.randint(1, 3)
    if method == "s-sum":
        rows = [f"s{i},{rnd.choice(P_EDGES)!r}" for i in range(k)]
        study_file.write_text("id,p\n" + "\n".join(rows) + "\n", encoding="utf-8")
    else:
        if rnd.random() < 0.25:  # opposite signs near the z^2 limit: the pooled z is 0
            z = rnd.choice((1e154, 1.3e154, 1.34e154))
            pairs = [(z, 1.0), (-z, 1.0)]
        else:
            pairs = [(_signed(rnd), rnd.choice(EDGES)) for _ in range(k)]
        rows = [f"s{i},{e!r},{se!r}" for i, (e, se) in enumerate(pairs)]
        study_file.write_text("id,estimate,std_error\n" + "\n".join(rows) + "\n",
                              encoding="utf-8")
    null = f"--null={rnd.choice((0.0, _signed(rnd)))!r}"  # drawn for s-sum too, not passed
    return ["combine", f"--input={study_file}", f"--method={method}"] + (
        [] if method == "s-sum" else [null])


def _reject_constant(const):
    raise ValueError(f"non-strict JSON constant {const!r}")


def _holds_null(value):
    """Whether a parsed JSON value has a null anywhere in it."""
    if isinstance(value, dict):
        return any(map(_holds_null, value.values()))
    if isinstance(value, list):
        return any(map(_holds_null, value))
    return value is None


def test_finite_answer_or_exit_2(tmp_path, capsys):
    rnd = random.Random(20201019)
    broken = []
    for i in range(N_CALLS):
        route, fmt = ROUTES[i % 4], FORMATS[(i // 4) % 3]
        argv = _argv(rnd, route, tmp_path / f"studies{i}.csv") + [f"--format={fmt}"]
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            # JSON notes may say "infinity"; CSV and tables print notes on stderr
            if fmt == "json":
                try:
                    payload = json.loads(out, parse_constant=_reject_constant)
                    ok = isinstance(payload, (dict, list))
                except ValueError:
                    ok = False
                # a field the library could not give is null, with a note
                ok = ok and (not _holds_null(payload)
                             or isinstance(payload, dict) and bool(payload["notes"]))
            else:
                ok = not NON_FINITE.search(out)
                if fmt == "csv" or route == "curve":  # a curve's table form is CSV
                    empty = "" in (c for row in csv.reader(io.StringIO(out)) for c in row)
                else:
                    empty = any(line.split()[-1] == "-" for line in out.splitlines())
                ok = ok and (not empty or any(line.startswith("note: ")
                                              for line in err.splitlines()))
        else:
            ok = (code, out) == (2, "") and len(err.splitlines()) == 1 and err.startswith("error: ")
        if not ok:
            broken.append((argv, code, out, err))
    assert not broken, f"{len(broken)} of {N_CALLS} calls broke the contract, first: {broken[0]}"


# simulate's edges: n at 1, 2 and either side of LOW_N; alphas next to 0 and 1; trial
# counts past 1030, where the tails once overflowed; theta0 next to 0 and 1.
SIMULATE_ALPHAS = ("0.01,0.05,0.1", "1e-300,0.999999999999", "0.5")
SIMULATE_CALLS = [
    *([f"--n={n}", f"--alphas={alphas}"] for n in (1, 2, 999, 1000) for alphas in SIMULATE_ALPHAS),
    *(["--generator=binomial", f"--n={n}", f"--trials={trials}", f"--theta0={theta0!r}"]
      for trials in (1, 2, 1000, 2000, 5000) for theta0 in (1e-12, 0.5, 1.0 - 1e-12)
      for n in (1, 1000)),
]


@pytest.mark.numpy
def test_simulate_finite_answer_or_exit_2(capsys):
    rnd = random.Random(20261020)  # its own, so the routes above draw what they drew before
    broken = []
    for args in SIMULATE_CALLS:
        argv = ["simulate", *args, f"--seed={rnd.getrandbits(64)}",
                f"--stream={rnd.randrange(100)}"]
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:  # simulate prints JSON in every format
            try:
                payload = json.loads(out, parse_constant=_reject_constant)
                ok = not _holds_null(payload) or bool(payload["notes"])
            except (ValueError, TypeError, KeyError):
                ok = False
        else:
            ok = (code, out) == (2, "") and len(err.splitlines()) == 1 and err.startswith("error: ")
        if not ok:
            broken.append((argv, code, out, err))
    assert not broken, (f"{len(broken)} of {len(SIMULATE_CALLS)} calls broke the contract, "
                        f"first: {broken[0]}")


def _cli_json(*argv):
    """What `svalue <argv> --format json` prints, parsed; a refusal prints nothing to parse."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main([*argv, "--format=json"])
    return json.loads(out.getvalue())


# Inputs the library gets wrong today, each with its right answer (mpmath 1.3.0, 50 digits)
# and, in its id, the ROADMAP item whose change mends it. Strict, so a mended row fails until
# it is deleted. The table is to end empty; it is no place to park a new failure.
KNOWN_FAILURES = [
    # -ln Phi(8.8), where Phi(8.8) rounds to 1 and s_le reads 0.0
    pytest.param(lambda: curve_point(EstimateSpec(0.0, 1.0), 8.8, InfoUnit.NATS).s_le.value,
                 6.840807685935589295046252e-19, id="item2-curve-s-le-near-0"),
    # the deviance z^2 at p = 1e-320 is finite, where the MLR exp(z^2 / 2) overflows
    pytest.param(lambda: calibration_report(PValue(1e-320)).deviance,
                 1465.91130467758508879174, id="item3-calibrate-tiny-p"),
    # the deviance 2 ln exp(z^2 / 2) near p = 1, where exp rounds z^2 / 2 away: 1.05 % off
    # here (mpmath 1.3.0, 60 digits, from the double 0.9999999)
    pytest.param(lambda: calibration_report(PValue(0.9999999)).deviance,
                 1.570796325141309179725735e-14, id="item3-calibrate-deviance-near-1"),
    # S past ~745 nats has no P, but coin_tosses is round(S in bits)
    pytest.param(lambda: _cli_json("convert", "--s=2000", "--from-unit=nats")["coin_tosses"],
                 2885, id="item3-convert-s-2000-nats"),
    # sigma at 745 nats is taken at the rounded P (5e-324); the root of ln Phi(-t) = -745
    # (mpmath findroot, 60 digits)
    pytest.param(lambda: conversion_report(SValue(745.0, InfoUnit.NATS)).sigma,
                 38.4819489643302001411685200475, id="item18-convert-sigma-745-nats"),
    # ln Q(a, a) at a = 2^53, where a + 1 == a: the continued fraction's first b = x + 1 - a
    # is 0 and 1 / b raises. ln(1/2 - 1/(3 sqrt(2 pi a))), whose rest is ~9e-28 here
    pytest.param(lambda: log_reg_gamma_upper(2.0**53, 2.0**53),
                 -0.693147183362305289455474870641, id="item4-gamma-x-eq-a-at-2-53"),
]


@pytest.mark.xfail(strict=True, reason="a known failure, mended by the ROADMAP item in its id")
@pytest.mark.parametrize("compute, expected", KNOWN_FAILURES)
def test_known_failure(compute, expected):
    assert compute() == pytest.approx(expected, rel=1e-12, abs=0)
