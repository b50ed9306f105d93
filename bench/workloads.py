"""The three benchmark workloads and their seeded input generators.

Each workload hands the runner decks of requests. A deck is built from the
workload seed and its own index only, so the same seed gives the same inputs.
Sizes (K studies, curve steps, draws n) come from fixed log-spaced grids that
span the documented ranges, and every deck of a workload holds the same mix
of sizes, methods and trials. Every seed and every deck therefore costs about
the same; the seed varies the data itself (P-values, effects, estimates,
grids, theta0 within its stratum, random streams and request order). A
request's slot names its place in the deck, so the runner can take each
request's mean over the decks of a run. A run executes a fixed number of
decks: its `--seconds` times the workload's `decks_per_s`, the rate at which
the seed commit completes decks.

Inputs that fail at the seed commit (ConvergenceError at large K near the
null, curves past 38 standard errors, calibration of P < 1e-310,
`convert --s 2000`, `--trials 2000`) are generated at a fixed share and
tagged with a defect class; they are never filtered out. Whether a
large-K null input fails depends on where its statistic lands, and whether
a P-value near 1e-310 fails depends on its exact value, so the data of
these defect inputs (the large-K null studies and the P-values below
1e-300) do not depend on the seed: every run of a workload then meets the
same failures, whatever its seed.

Requests call `svalue` through module attributes, so the tracer's wrappers
take effect when installed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
UNITS = ("bits", "nats", "dits")
FORMATS = ("json", "csv", "table")
METHODS = ("s-sum", "z2", "pooled", "compare")
TRIALS = (10, 100, 1000)
DEFECT_SEED = "defect"  # stands in for the workload seed in the data of defect inputs


@dataclass
class Request:
    kind: str  # combine, curve, calibrate, convert, uniform, binomial, evalue, ks
    layer: str  # layer charged with a failure of the whole request
    work: int  # studies, grid points, P-values or draws
    prepare: Callable[[], Callable[[], Any]]  # untimed; returns the timed call
    slot: str  # the request's place in the deck, the same in every deck
    defect: str | None = None  # known seed defect this input exercises
    keep: bool = False  # keep the result for the correctness gate
    spec: dict = field(default_factory=dict)
    result: Any = None


@dataclass
class Batch:
    """Result of a request made of many operations (a calibration batch)."""

    values: list
    ops: int
    failures: list  # (layer, exception name, defect class)
    defects: Counter  # defect class -> operations attempted


class CliFailure(Exception):
    """A CLI child exited non-zero or wrote a traceback."""

    def __init__(self, kind: str, stderr: str) -> None:
        super().__init__(stderr.strip().splitlines()[-1] if stderr.strip() else kind)
        self.kind = kind


def _effect_rows(rnd: random.Random, k: int, null: bool) -> list[tuple]:
    delta = 0.0 if null else rnd.uniform(0.5, 2.0)
    rows = []
    for i in range(k):
        se = math.exp(rnd.uniform(-1.0, 1.0))
        rows.append((f"s{i}", (delta + rnd.gauss(0.0, 1.0)) * se, se))
    return rows


def _p_rows(rnd: random.Random, k: int, null: bool) -> list[tuple]:
    delta = 0.0 if null else rnd.uniform(0.5, 2.0)
    rows = []
    for i in range(k):
        if null:
            p = 1.0 - rnd.random()
        else:
            p = math.erfc(abs(delta + rnd.gauss(0.0, 1.0)) / math.sqrt(2.0))
        rows.append((f"s{i}", p))
    return rows


def study_rows(seed: int | str, tag: str, method: str, k: int, null: bool) -> list[tuple]:
    rnd = random.Random(f"{seed}/{tag}/rows")
    return _p_rows(rnd, k, null) if method == "s-sum" else _effect_rows(rnd, k, null)


def write_csv(path: str, method: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("id", "p") if method == "s-sum" else ("id", "estimate", "std_error"))
        for row in rows:
            w.writerow([row[0], *(repr(v) for v in row[1:])])


def execute(req: Request, tracer=None) -> tuple[dict, Any]:
    """Run one request and return its record and result (None if it failed).

    Only the call into `svalue` is timed; `prepare` builds its inputs first.
    """
    call = req.prepare()
    if tracer is not None:
        tracer.request += 1
    res = err = None
    t0 = time.perf_counter()
    try:
        res = call()
    except Exception as exc:  # a failed operation, counted and reported
        err = exc
    dt = time.perf_counter() - t0
    rec = {"slot": req.slot, "kind": req.kind, "layer": req.layer, "work": req.work,
           "defect": req.defect, "dt": dt, "ok": err is None, "error": None,
           "ops": 1, "failures": [], "defects": {}}
    if err is not None:
        rec["error"] = err.kind if isinstance(err, CliFailure) else type(err).__name__
    elif isinstance(res, Batch):
        rec.update(ops=res.ops, failures=res.failures, defects=dict(res.defects))
    return rec, res


def run_method(combine, method: str, studies: list):
    if method == "s-sum":
        return combine.s_summation_test(studies)
    if method == "z2":
        return combine.z_squared_test([st.estimate / st.std_error for st in studies])
    if method == "pooled":
        return combine.pooled_homogeneity_test(studies)
    return combine.compare_methods(studies)


# -- study_batch ----------------------------------------------------------------

K_GRID = [10**j for j in range(1, 6)]  # 10 .. 1e5
STEP_GRID = [round(50 * 200 ** (i / 6)) for i in range(7)]  # 50 .. 1e4
CURVES_PER_STEP = 3
CAL_BATCHES, CAL_BATCH = 23, 640
CAL_MIN_LOG10_P = -320.0
TINY_P = 1e-300  # calibrate_tiny_p: P below this
CAL_TINY_FROM = round(CAL_BATCH * math.log10(TINY_P) / CAL_MIN_LOG10_P)  # first stratum below
LARGE_K = 5000  # S-summation and Z-squared raise ConvergenceError near the null from here


class StudyBatch:
    """In-process meta-analysis calls: combine, curve and calibrate batches.

    A deck runs every combine method on every K of the grid, half of them on
    null data.
    """

    name = "study_batch"
    import_name = "svalue"

    in_process = True
    decks_per_s = 0.23  # at the seed commit on a 2-vCPU Xeon VM

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed, self.tmp = seed, tmp

    def start(self) -> None:
        import svalue.calibrate
        import svalue.combine
        import svalue.curves
        import svalue.units

        self.combine, self.curves = svalue.combine, svalue.curves
        self.calibrate, self.units = svalue.calibrate, svalue.units

    def deck(self, d: int) -> list[Request]:
        rnd = random.Random(f"{self.seed}/study_batch/{d}")
        reqs = [self._combine(m, j) for m in range(len(METHODS)) for j in range(len(K_GRID))]
        for steps in STEP_GRID:
            for r in range(CURVES_PER_STEP):
                reqs.append(self._curve(rnd, steps, f"curve/{steps}/{r}", far=False))
        reqs.append(self._curve(rnd, 500, "curve/far", far=True))
        reqs += [self._calibrate(rnd, f"calibrate/{b}") for b in range(CAL_BATCHES)]
        rnd.shuffle(reqs)
        for kind in ("combine", "curve", "calibrate"):
            small = [r for r in reqs if r.kind == kind and (kind != "curve" or r.work <= 1000)]
            rnd.choice(small).keep = True
        return reqs

    def _combine(self, m: int, j: int) -> Request:
        k, method = K_GRID[j], METHODS[m]
        null = (j + m) % 2 == 0
        tag = f"study_batch/{m}/{j}"
        defect = "large_k_null" if null and k >= LARGE_K and method != "pooled" else None
        # Defect inputs carry the same data for every seed (see the module docstring).
        spec = {"method": method, "k": k, "null": null, "tag": tag,
                "rows_seed": DEFECT_SEED if defect else self.seed}

        def prepare():
            path = os.path.join(self.tmp, f"sb-{m}-{j}.csv")
            if not os.path.exists(path):  # written once per run, read by every deck
                write_csv(path + ".part", method,
                          study_rows(spec["rows_seed"], tag, method, k, null))
                os.replace(path + ".part", path)
            return lambda: run_method(self.combine, method, self.combine.studies_from_csv(path))

        return Request("combine", "combine", k, prepare, f"combine/{m}/{j}", defect, spec=spec)

    def _curve(self, rnd: random.Random, steps: int, slot: str, far: bool) -> Request:
        m = rnd.uniform(-5.0, 5.0)
        se = math.exp(rnd.uniform(-2.0, 1.0))
        lo = rnd.uniform(5.0, 30.0) if far else rnd.uniform(2.0, 30.0)
        hi = rnd.uniform(40.0, 60.0) if far else rnd.uniform(2.0, 30.0)
        unit = rnd.choice(UNITS)
        spec = {"estimate": m, "se": se, "from": m - lo * se, "to": m + hi * se,
                "steps": steps, "unit": unit}

        def prepare():
            c = self.curves
            unit_ = self.units.InfoUnit(unit)
            return lambda: c.curve(c.EstimateSpec(m, se), spec["from"], spec["to"], steps, unit_)

        return Request("curve", "curves", steps, prepare, slot, "curve_far_tail" if far else None,
                       spec=spec)

    def _calibrate(self, rnd: random.Random, slot: str) -> Request:
        # Stratified log-uniform P on (1e-320, 1): a fixed share falls below 1e-300,
        # drawn the same for every seed (see the module docstring).
        fixed = random.Random(f"{DEFECT_SEED}/{slot}")
        ps = [10.0 ** (CAL_MIN_LOG10_P * (i + 1 - (fixed if i >= CAL_TINY_FROM else rnd).random())
                       / CAL_BATCH) for i in range(CAL_BATCH)]
        rnd.shuffle(ps)
        unit, other = rnd.sample(UNITS, 2)
        spec = {"ps": ps, "unit": unit, "other": other}

        def prepare():
            u, cal = self.units, self.calibrate
            unit_, other_ = u.InfoUnit(unit), u.InfoUnit(other)

            def call():
                values, failures = [], []
                for p in ps:
                    layer = "units"
                    try:
                        pv = u.PValue(p)
                        layer = "calibrate"
                        rep = cal.calibration_report(pv, 1)
                        layer = "units"
                        s = u.surprisal(pv, unit_)
                        values.append((rep, s, u.convert(s, other_), u.two_sided_to_sigma(pv)))
                    except Exception as exc:  # one failed operation of the batch
                        failures.append((layer, type(exc).__name__, _tiny(p)))
                        values.append(None)
                return Batch(values, len(ps), failures, Counter(_tiny(p) for p in ps if _tiny(p)))

            return call

        return Request("calibrate", "calibrate", len(ps), prepare, slot, spec=spec)


def _tiny(p: float) -> str | None:
    return "calibrate_tiny_p" if p < TINY_P else None


# -- monte_carlo ----------------------------------------------------------------

N_GRID = [round(10 ** (5 + 0.4 * j)) for j in range(6)]  # 1e5 .. 1e7
# theta0 stratum per size: numpy's binomial sampler costs 2-3x more at some
# (trials, theta0) than at others, so each size keeps its stratum.
THETA_GRID = (0.15, 0.8, 0.35, 0.6, 0.25, 0.5)
THETA_JITTER = 0.03
KEEP_MAX_N = 10**6  # kept results are re-run by the correctness gate


class MonteCarlo:
    """In-process validity simulations: uniform, exact binomial, e-value, KS."""

    name = "monte_carlo"
    import_name = "svalue"
    in_process = True
    decks_per_s = 0.22  # at the seed commit on a 2-vCPU Xeon VM

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed

    def start(self) -> None:
        import numpy
        import svalue.simulate

        self.np, self.sim = numpy, svalue.simulate

    def deck(self, d: int) -> list[Request]:
        rnd = random.Random(f"{self.seed}/monte_carlo/{d}")
        reqs = []
        for j, n in enumerate(N_GRID):
            trials = TRIALS[j % len(TRIALS)]
            theta0 = THETA_GRID[j] + rnd.uniform(-THETA_JITTER, THETA_JITTER)
            reqs.append(self._request(rnd, "uniform", n, j))
            reqs.append(self._request(rnd, "binomial", n, j, trials, theta0))
            if j % 2 == 0:
                reqs.append(self._request(rnd, "evalue", n, j))
            else:
                reqs.append(self._request(rnd, "evalue", n, j, TRIALS[(j + 1) % len(TRIALS)],
                                          theta0))
            reqs.append(self._request(rnd, "ks", n, j,
                                      ref="exponential_1" if j % 2 else "uniform_01"))
        # Fails before drawing at the seed, so its n does not change the deck's cost.
        reqs.append(self._request(rnd, "binomial", N_GRID[d % len(N_GRID)], "2000", 2000,
                                  rnd.uniform(0.05, 0.95)))
        rnd.shuffle(reqs)
        for kind in ("uniform", "binomial", "evalue", "ks"):
            small = [r for r in reqs if r.kind == kind and r.work <= KEEP_MAX_N and not r.defect]
            rnd.choice(small).keep = True
        return reqs

    def _request(self, rnd: random.Random, kind: str, n: int, j, trials: int | None = None,
                 theta0: float | None = None, ref: str | None = None) -> Request:
        spec = {"n": n, "seed": rnd.getrandbits(63), "stream": rnd.randrange(1 << 16),
                "trials": trials, "theta0": theta0, "ref": ref}

        def prepare():
            sim = self.sim
            rng = sim.RngSpec(spec["seed"], spec["stream"])
            if kind == "uniform":
                return lambda: sim.simulate_uniform_p(n, rng)
            if kind == "binomial":
                return lambda: sim.simulate_exact_binomial(n, trials, spec["theta0"], rng)
            if kind == "evalue":
                if trials is None:
                    return lambda: sim.evalue_check(n, rng, "uniform")
                return lambda: sim.evalue_check(n, rng, "binomial", trials, spec["theta0"])
            samples = self.ks_samples(spec)
            return lambda: sim.distribution_report(samples, ref)

        defect = "binomial_2000" if trials == 2000 else None
        return Request(kind, "simulate", n, prepare, f"{kind}/{j}", defect, spec=spec)

    def ks_samples(self, spec: dict):
        gen = self.np.random.default_rng([spec["seed"], spec["stream"]])
        if spec["ref"] == "exponential_1":
            return gen.standard_exponential(spec["n"])
        return gen.random(spec["n"])


# -- cli_session ----------------------------------------------------------------

CLI_DEFECTS = ("convert_big_s", "calibrate_tiny_p", "curve_far_tail", "binomial_2000")
CLI_K = (1000, 300, 100, 30)  # studies per combine method, in METHODS order
CLI_STEPS = (50, 160, 500)
CLI_N, CLI_TRIALS = 10**5, 1000
CLI_LAYER = {"convert": "units", "calibrate": "calibrate", "combine": "combine",
             "curve": "curves", "simulate": "simulate"}


class CliSession:
    """One `python -m svalue.cli` child per request, one child at a time."""

    name = "cli_session"
    import_name = "svalue.cli"
    in_process = False
    decks_per_s = 0.28  # at the seed commit on a 2-vCPU Xeon VM

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed, self.tmp = seed, tmp
        self.trace_dir: str | None = None  # set for the traced pass
        self.traced_calls = 0

    def start(self) -> None:
        pass

    def deck(self, d: int) -> list[Request]:
        rnd = random.Random(f"{self.seed}/cli_session/{d}")
        argvs: list[tuple[list[str], int, str | None]] = []

        def p_value():
            return 10.0 ** -rnd.uniform(0.01, 300.0)

        argvs.append((["convert", "--p", repr(p_value())], 1, None))
        argvs.append((["convert", "--p", repr(p_value())], 1, None))
        argvs.append((["convert", "--s", repr(rnd.uniform(0.0, 60.0)),
                       "--from-unit", rnd.choice(UNITS)], 1, None))
        for _ in range(2):
            argvs.append((["calibrate", "--p", repr(p_value()),
                           "--d", str(rnd.choice((1, 1, 2, 3)))], 1, None))
        for m, method in enumerate(METHODS):
            k = CLI_K[m]
            tag = f"cli_session/{d}/{m}"
            null = (m + d) % 2 == 0
            path = os.path.join(self.tmp, f"cli-{d}-{m}.csv")
            write_csv(path, method, study_rows(self.seed, tag, method, k, null))
            argvs.append((["combine", "--input", path, "--method", method], k, None))
        for steps in CLI_STEPS:
            argvs.append((self._curve_argv(rnd, steps, far=False), None, None))
        argvs.append((["simulate", "--n", str(CLI_N), "--seed", str(rnd.getrandbits(32)),
                       "--stream", str(rnd.randrange(100))], None, None))
        argvs.append((self._binomial_argv(rnd, CLI_TRIALS), None, None))
        defect = CLI_DEFECTS[d % len(CLI_DEFECTS)]
        if defect == "convert_big_s":
            argvs.append((["convert", "--s", "2000", "--from-unit", rnd.choice(UNITS)], 1, defect))
        elif defect == "calibrate_tiny_p":
            argvs.append((["calibrate", "--p", "1e-320"], 1, defect))
        elif defect == "curve_far_tail":
            argvs.append((self._curve_argv(rnd, 300, far=True), None, defect))
        else:
            argvs.append((self._binomial_argv(rnd, 2000), None, defect))
        reqs = []
        for i, (argv, work, dfct) in enumerate(argvs):
            argv = argv + ["--format", FORMATS[(i + d) % len(FORMATS)]]
            if work is None:  # curve steps or simulated draws
                work = int(argv[argv.index("--steps" if argv[0] == "curve" else "--n") + 1])
            reqs.append(Request(argv[0], CLI_LAYER[argv[0]], work, self._prepare(argv), str(i),
                                dfct, keep=True, spec={"argv": argv}))
        rnd.shuffle(reqs)
        return reqs

    @staticmethod
    def _curve_argv(rnd: random.Random, steps: int, far: bool) -> list[str]:
        m = rnd.uniform(-5.0, 5.0)
        se = math.exp(rnd.uniform(-2.0, 1.0))
        lo = rnd.uniform(2.0, 30.0)
        hi = rnd.uniform(40.0, 60.0) if far else rnd.uniform(2.0, 30.0)
        return ["curve", "--estimate", repr(m), "--se", repr(se), "--from", repr(m - lo * se),
                "--to", repr(m + hi * se), "--steps", str(steps), "--unit", rnd.choice(UNITS)]

    @staticmethod
    def _binomial_argv(rnd: random.Random, trials: int) -> list[str]:
        return ["simulate", "--generator", "binomial", "--n", str(CLI_N), "--trials", str(trials),
                "--theta0", repr(rnd.uniform(0.05, 0.95)), "--seed", str(rnd.getrandbits(32))]

    def _prepare(self, argv: list[str]):
        def prepare():
            if self.trace_dir is None:
                cmd = [sys.executable, "-m", "svalue.cli", *argv]
                dump = None
            else:
                self.traced_calls += 1
                dump = os.path.join(self.trace_dir, f"spans-{self.traced_calls}.json")
                cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), dump, *argv]

            def call():
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
                if "Traceback (most recent call last)" in proc.stderr:
                    last = proc.stderr.strip().splitlines()[-1]
                    raise CliFailure(last.split(":", 1)[0], proc.stderr)
                if proc.returncode != 0:
                    raise CliFailure(f"exit{proc.returncode}", proc.stderr)
                return proc.stdout

            return call

        return prepare

    def child_spans(self) -> list[dict]:
        """Aggregates written by traced children (see cli_child.py)."""
        out = []
        for i in range(1, self.traced_calls + 1):
            path = os.path.join(self.trace_dir, f"spans-{i}.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    out.append(json.load(fh))
        return out


WORKLOADS = {w.name: w for w in (CliSession, StudyBatch, MonteCarlo)}
