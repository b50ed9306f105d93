"""Command-line front end: convert, combine, calibrate, curve, simulate.

Output goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 I/O failure, 2
usage or domain error or numpy missing for `simulate`. Records are printed as the
library returns them: a value it cannot give is None with a note (at the end of JSON,
on stderr for CSV and tables), and an S-value that would overflow is refused with an
OverflowError, which exits 2. JSON is strict (no NaN/Infinity literals) with
full-precision numbers; tables round to 4 significant figures (a curve's table is CSV).

A call loads only what it runs: `import svalue.cli` loads `units` and the `specfun`
it imports alone, each subcommand imports its own library module, and an output
format its own writer (`json` or `csv`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from .units import InfoUnit, PValue, SValue, conversion_report


def _fmt_table(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _flatten(payload: dict) -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for k, v in payload.items():
        if isinstance(v, dict):  # a nested record: the compare record's two methods
            flat.update({f"{k}.{ik}": iv for ik, iv in v.items()})
        else:
            flat[k] = v
    return flat


def _emit(payload: dict | list[dict], fmt: str) -> None:
    """Write one record (a dict) or a table of rows (a list of dicts) to stdout.

    JSON records always end in a notes list; CSV and tables flatten nested
    records to dotted keys and send notes to stderr. A table of rows prints as
    CSV in either format, without its unit column; a record's table rounds.
    """
    if fmt == "json":
        import json
        if isinstance(payload, dict):
            payload["notes"] = list(payload.pop("notes", ()))
        print(json.dumps(payload, allow_nan=False))
        return
    rows = [_flatten(r) for r in (payload if isinstance(payload, list) else [payload])]
    notes = rows[0].pop("notes", ())
    if fmt == "csv" or isinstance(payload, list):
        import csv
        header = [k for k in rows[0] if k != "unit"]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[k] for k in header] for row in rows)
    else:
        width = max(map(len, rows[0]))
        for k, v in rows[0].items():
            print(f"{k.ljust(width)}  {_fmt_table(v)}")
    for note in notes:
        print(f"note: {note}", file=sys.stderr)


def _record(report: Any, unit_suffix: bool = True) -> dict[str, Any]:
    """A result record's `_asdict()`, fields in declaration order; an SValue field f
    becomes its value under the key f_<unit> (or f, without unit_suffix)."""
    out: dict[str, Any] = {}
    for name, v in report._asdict().items():
        if isinstance(v, SValue):
            out[f"{name}_{v.unit.value}" if unit_suffix else name] = v.value
        else:
            out[name] = v
    return out


def _rename(record: dict, old: str, new: str) -> dict:
    return {new if k == old else k: v for k, v in record.items()}


def cmd_convert(args: argparse.Namespace) -> dict:
    if (args.p is None) == (args.s is None):
        raise ValueError("give exactly one of --p or --s")
    if args.s is None and args.from_unit is not None:
        raise ValueError("--from-unit goes with --s, not with --p")
    value = PValue(args.p) if args.s is None else SValue(args.s, InfoUnit(args.from_unit or "bits"))
    return _record(conversion_report(value))


def cmd_combine(args: argparse.Namespace) -> dict:
    from .combine import (_study_z_scores, compare_methods, pooled_homogeneity_test,
                          s_summation_test, studies_from_csv, z_squared_test)
    method = args.method
    if method == "s-sum" and args.null is not None:
        raise ValueError("--null goes with z2, pooled and compare, not with s-sum")
    null = 0.0 if args.null is None else args.null
    studies = studies_from_csv(args.input)
    if method == "s-sum":
        return {"method": method, **_record(s_summation_test(studies))}
    if method == "z2":
        z_scores = _study_z_scores(studies, null, "z_squared_test")
        return {"method": method, **_record(z_squared_test(z_scores))}
    if method == "pooled":
        return {"method": method, **_record(pooled_homogeneity_test(studies, null))}
    cmp_ = compare_methods(studies, null)
    s_sum = _record(cmp_.s_summation)
    pooled = _rename(_record(cmp_.pooled), "p_two_sided", "p_summary")
    return {
        "method": method,
        "k": s_sum["k"],
        "s_summation": {k: s_sum[k] for k in ("s_plus_nats", "df", "p_summary", "s_summary_nats")},
        "pooled": {k: v for k, v in pooled.items() if k != "k"},
        "difference_nats": cmp_.difference_nats,
    }


def cmd_calibrate(args: argparse.Namespace) -> dict:
    from .calibrate import calibration_report
    return _rename(_record(calibration_report(PValue(args.p), args.d)), "df_d", "d")


def cmd_curve(args: argparse.Namespace) -> list[dict]:
    from .curves import EstimateSpec, curve
    unit = InfoUnit(args.unit)
    points = curve(EstimateSpec(args.estimate, args.se), args.from_, args.to, args.steps, unit)
    return [{**_record(pt, unit_suffix=False), "unit": unit.value} for pt in points]


def cmd_simulate(args: argparse.Namespace) -> dict:
    from .simulate import RngSpec, simulate_exact_binomial, simulate_uniform_p
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    rng = RngSpec(args.seed, args.stream)
    if not (args.trials is not None) == (args.theta0 is not None) == (args.generator == "binomial"):
        raise ValueError("--trials and --theta0 go with --generator binomial, which needs both")
    if args.generator == "uniform":
        summary = simulate_uniform_p(args.n, rng, alphas)
    else:
        summary = simulate_exact_binomial(args.n, args.trials, args.theta0, rng, alphas)
    record = _record(summary)
    payload = {"generator": args.generator, "n": record.pop("n"), "seed": args.seed,
               "stream": args.stream, **record}
    if args.generator == "binomial":
        payload.update(trials=args.trials, theta0=args.theta0)
    return payload


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format (default: table)",
    )

    parser = argparse.ArgumentParser(
        prog="svalue",
        description="Surprisal-based statistical inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("convert", parents=[common], help="P-value <-> S-value conversions")
    p_conv.add_argument("--p", type=float, help="P-value in (0, 1]")
    p_conv.add_argument("--s", type=float, help="S-value magnitude, in the unit --from-unit names")
    p_conv.add_argument("--from-unit", choices=[u.value for u in InfoUnit],
                        help="unit of --s, not given with --p (default: bits)")
    p_conv.set_defaults(func=cmd_convert)

    p_comb = sub.add_parser("combine", parents=[common], help="combine evidence across studies")
    p_comb.add_argument("--input", required=True, help="CSV with id,p or id,estimate,std_error")
    p_comb.add_argument("--method", choices=("s-sum", "z2", "pooled", "compare"),
                        default="s-sum")
    p_comb.add_argument("--null", type=float,
                        help="null value for z2, pooled and compare, not s-sum (default: 0)")
    p_comb.set_defaults(func=cmd_combine)

    p_cal = sub.add_parser("calibrate", parents=[common], help="calibrate one P-value")
    p_cal.add_argument("--p", type=float, required=True)
    p_cal.add_argument("--d", type=int, default=1, help="restriction dimension (default: 1)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_curve = sub.add_parser("curve", parents=[common], help="P-/S-value curve over a grid")
    p_curve.add_argument("--estimate", type=float, required=True)
    p_curve.add_argument("--se", type=float, required=True)
    p_curve.add_argument("--from", dest="from_", type=float, required=True)
    p_curve.add_argument("--to", type=float, required=True)
    p_curve.add_argument("--steps", type=int, required=True)
    p_curve.add_argument("--unit", choices=[u.value for u in InfoUnit], default="bits",
                         help="information unit of the S-values (default: bits)")
    p_curve.set_defaults(func=cmd_curve)

    p_sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo validity checks")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--stream", type=int, default=0)
    p_sim.add_argument("--alphas", default="0.01,0.05,0.1",
                       help="comma-separated alpha levels (default: 0.01,0.05,0.1)")
    p_sim.add_argument("--generator", choices=("uniform", "binomial"), default="uniform")
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--theta0", type=float)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fmt = "json" if args.command == "simulate" else args.format  # simulate: stable JSON
    try:
        _emit(args.func(args), fmt)
    except (ValueError, ArithmeticError, ModuleNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
