"""The CLI's domain contract as a deterministic sweep over edge values.

Every input gets one of two outcomes: exit 0 with only finite numbers on stdout
(strict JSON for `--format json`, no inf or nan cell or value in CSV and tables),
or exit 2 with an empty stdout and one `error:` line on stderr. `test_known_failure`
lists the inputs whose answer is still wrong. Nothing here imports numpy.
"""

import contextlib
import io
import json
import random
import re

import pytest

from svalue.calibrate import calibration_report
from svalue.cli import main
from svalue.curves import EstimateSpec, curve_point
from svalue.simulate import binomial_upper_tail_pvalues
from svalue.units import InfoUnit, PValue

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
    return ["combine", f"--input={study_file}", f"--method={method}",
            f"--null={rnd.choice((0.0, _signed(rnd)))!r}"]


def _reject_constant(const):
    raise ValueError(f"non-strict JSON constant {const!r}")


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
                    ok = isinstance(json.loads(out, parse_constant=_reject_constant), (dict, list))
                except ValueError:
                    ok = False
            else:
                ok = not NON_FINITE.search(out)
        else:
            ok = (code, out) == (2, "") and len(err.splitlines()) == 1 and err.startswith("error: ")
        if not ok:
            broken.append((argv, code, out, err))
    assert not broken, f"{len(broken)} of {N_CALLS} calls broke the contract, first: {broken[0]}"


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
    # comb(1100, x) is an int too large to convert to float
    pytest.param(lambda: binomial_upper_tail_pvalues(1100, 0.5)[550],
                 0.5120258288841159052248456, id="item2-binomial-1100-trials"),
    # -ln Phi(8.8), where Phi(8.8) rounds to 1 and s_le reads 0.0
    pytest.param(lambda: curve_point(EstimateSpec(0.0, 1.0), 8.8, InfoUnit.NATS).s_le.value,
                 6.840807685935589295046252e-19, id="item2-curve-s-le-near-0"),
    # the deviance z^2 at p = 1e-320 is finite, where the MLR exp(z^2 / 2) overflows
    pytest.param(lambda: calibration_report(PValue(1e-320)).deviance,
                 1465.91130467758508879174, id="item3-calibrate-tiny-p"),
    # S past ~745 nats has no P, but coin_tosses is round(S in bits)
    pytest.param(lambda: _cli_json("convert", "--s=2000", "--from-unit=nats")["coin_tosses"],
                 2885, id="item3-convert-s-2000-nats"),
    # 745 nats is 1074.81 bits; 1074 is the count at the rounded P, 5e-324
    pytest.param(lambda: _cli_json("convert", "--s=745", "--from-unit=nats")["coin_tosses"],
                 1075, id="item3-convert-s-745-nats"),
]


@pytest.mark.xfail(strict=True, reason="a known failure, mended by the ROADMAP item in its id")
@pytest.mark.parametrize("compute, expected", KNOWN_FAILURES)
def test_known_failure(compute, expected):
    assert compute() == pytest.approx(expected, rel=1e-12, abs=0)
