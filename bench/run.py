"""svalue benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli_session,study_batch,monte_carlo} \
        --seed N --seconds S --trace {0,1}

The program under test is `src/svalue` of the checkout. The load is a closed
loop with one client: the next request is sent when the previous one has
returned, and one process works at a time. `cli_session` runs one CLI child
per request; the in-process workloads run in a chain of worker processes
(see worker.py). The number of requests is fixed by `--seconds` (see
deck_count).

With `--trace 0` the run measures the end-to-end metrics with tracing off,
and reports its timings at the reference speed (see reference.py).
With `--trace 1` it spends half the time on the same requests untraced and
half with every `svalue` function wrapped by the span tracer, and prints the
per-layer metrics, the tracing overhead and the per-kind throughputs.

Both modes check a seeded sample of results against independent oracles
after the timed passes (see checks.py). stdout carries two lines: a JSON
report with provenance and the failure breakdown, then the result object
{"correct", "attempted", "failed", "metrics"}. The run exits 2 without a
result when the checkout holds no `src/svalue`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from typing import NoReturn

import reference
from tracer import Tracer, layer_metrics
from workloads import BENCH_DIR, WORKLOADS, execute

ROOT = os.getcwd()
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # workloads and metric names with units
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MAX_STRETCH = 4.0  # a pass stops after this many times its request-time budget
WORKER_BUDGET_S = 1.5  # request time per worker process of an in-process workload
SPAN_CAP = 100_000
LOOP_EVERY_S = 0.25  # request time per sample of the reference loop in a worker
SETUP_EVERY_S = 0.6  # request time between two fresh-process set-up samples
SETUP_MIN_SAMPLES = 30
PROBE_SAMPLES = 5  # interpreter and -X importtime probes per traced run
THROUGHPUTS = {  # per-kind throughput name -> request kinds it covers
    "combine.studies_per_s": ("combine",),
    "curve.points_per_s": ("curve",),
    "calibrate.pvalues_per_s": ("calibrate",),
    "simulate.draws_per_s": ("uniform", "binomial", "evalue", "ks", "simulate"),
}


def fail(msg: str) -> NoReturn:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          check=True)


# -- set-up and import probes -------------------------------------------------------

class SetupProbe:
    """Wall time of `import <name>` in fresh processes, sampled through the run.

    One sample is taken per SETUP_EVERY_S of request time, between requests
    or worker processes rather than in one burst, so the samples see the
    same machine as the requests do. The first import compiles the bytecode
    cache and is not counted. Each sample is followed by one of the
    reference import (`reference.IMPORT_CODE`) in another fresh process.
    """

    def __init__(self, import_name: str) -> None:
        self.code = reference.IMPORT_CODE.replace("import numpy", f"import {import_name}")
        self.samples: list[float] = []
        self.ref_samples: list[float] = []  # the reference import, one per sample
        self.due = 0.0  # request time at which the next sample is due
        python(["-c", self.code])

    def sample(self) -> None:
        self.samples.append(float(python(["-c", self.code]).stdout))
        self.ref_samples.append(float(python(["-c", reference.IMPORT_CODE]).stdout))

    def tick(self, busy: float) -> None:
        """Take the samples due after `busy` seconds of request time."""
        while busy >= self.due:
            self.sample()
            self.due += SETUP_EVERY_S

    def value(self) -> tuple[float, float]:
        """Fastest-quarter means of at least SETUP_MIN_SAMPLES samples: (import, reference).

        Other tenants slow a shared machine down in phases of seconds to
        minutes; the fastest samples come from its quiet phases, which most
        runs catch, while the median moves with the share of slow phases a
        run happens to catch. Work added to the import slows every sample.
        """
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.sample()
        return fastest_quarter(self.samples), fastest_quarter(self.ref_samples)


def fastest_quarter(xs: list) -> float:
    return statistics.fmean(sorted(xs)[: len(xs) // 4])


def cli_import_probe() -> dict:
    """Interpreter start and `import svalue.cli` cost from `-X importtime`."""
    bare, cli, numpy = [], [], []
    for _ in range(PROBE_SAMPLES):
        t = time.perf_counter()
        python(["-c", "pass"])
        bare.append((time.perf_counter() - t) * 1e3)
        err = python(["-X", "importtime", "-c", "import svalue.cli"]).stderr
        cum = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line.split("|")
                if cumulative.strip().isdigit():
                    cum.setdefault(name.strip(), int(cumulative) / 1e3)
        cli.append(cum.get("svalue.cli", 0.0))
        numpy.append(cum.get("numpy", 0.0))
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(cli),
        "cli.import_ms.numpy": statistics.median(numpy),
    }


def cli_main_ms(wl) -> dict:
    """In-process `svalue.cli.main(argv)` wall time per subcommand, stdout captured."""
    import svalue.cli

    times = defaultdict(list)
    for _ in range(3):
        for req in wl.deck(0):
            argv = req.spec["argv"]
            sink = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    svalue.cli.main(argv)
                except Exception:  # the seed's uncaught tracebacks; timed like the rest
                    pass
            times[argv[0]].append((time.perf_counter() - t) * 1e3)
    return {f"cli.main_ms.{c}": statistics.median(t) for c, t in times.items()}


def peak_alloc_per_draw(wl) -> float:
    """Median over requests of tracemalloc's peak bytes per draw."""
    import tracemalloc

    ratios = []
    for req in wl.deck(0):
        if req.work > 10**6 or req.defect:
            continue
        call = req.prepare()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        ratios.append((peak - base) / req.work)
    return statistics.median(ratios)


# -- timed passes ---------------------------------------------------------------------

class PassStats:
    def __init__(self) -> None:
        self.busy = 0.0
        self.requests = self.decks = 0
        self.ops = self.failed_ops = 0
        self.failures: Counter = Counter()  # (layer, exception) -> failed operations
        self.defects = defaultdict(lambda: [0, 0])  # class -> [attempted, failed]
        self.kinds = defaultdict(lambda: [0, 0.0])  # kind -> [successful work, seconds]
        self.slots = defaultdict(list)  # slot -> [(seconds, succeeded)], one per deck
        self.work = Counter()  # kind -> attempted work, for layer_metrics
        self.wrong: list = []  # (layer, message) from the correctness gate
        self.checked = 0
        self.rss_kb = 0  # peak RSS of the workers
        self.kept: list = []  # requests whose results the runner checks itself
        self.loop: list = []  # seconds per pass of the reference loop, from the workers

    def record(self, rec: dict) -> None:
        """Add one request record (see workloads.execute)."""
        self.requests += 1
        self.busy += rec["dt"]
        self.slots[rec["slot"]].append((rec["dt"], rec["ok"]))
        self.kinds[rec["kind"]][1] += rec["dt"]
        if rec["kind"] in ("combine", "curve"):
            self.work[rec["kind"]] += rec["work"]
        if rec["defect"]:
            self.defects[rec["defect"]][0] += 1
        self.ops += rec["ops"]
        if not rec["ok"]:
            self.failed_ops += 1
            self.failures[(rec["layer"], rec["error"])] += 1
            if rec["defect"]:
                self.defects[rec["defect"]][1] += 1
            return
        self.failed_ops += len(rec["failures"])
        for layer, name, defect in rec["failures"]:
            self.failures[(layer, name)] += 1
            if defect:
                self.defects[defect][1] += 1
        for defect, n in rec["defects"].items():
            self.defects[defect][0] += n
        self.kinds[rec["kind"]][0] += rec["work"] - len(rec["failures"])

    def slot_means(self) -> list[tuple[float, float]]:
        """(mean seconds, share succeeded) per request slot over the run's decks.

        Every deck holds the same slots, so a slot's mean time stands for
        that request in a typical deck. The decks ran in many worker
        processes, so the mean is over memory layouts too. A failed request
        counts at its measured time.
        """
        return [(statistics.fmean(dt for dt, _ in runs), sum(ok for _, ok in runs) / len(runs))
                for runs in self.slots.values()]

    def requests_per_s(self) -> float:
        """Successful requests per second of a typical deck."""
        slots = self.slot_means()
        return sum(ok for _, ok in slots) / sum(t for t, _ in slots)

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile of request latency in a typical deck."""
        ordered = sorted(t for t, _ in self.slot_means())
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3

    def throughput(self, kinds: tuple) -> float:
        work = sum(self.kinds[k][0] for k in kinds if k in self.kinds)
        secs = sum(self.kinds[k][1] for k in kinds if k in self.kinds)
        return work / secs if secs else 0.0


def run_worker(wl, tmp: str, deck: int, start: int, traced: bool) -> dict:
    """Run requests of one deck in a fresh worker process (see worker.py)."""
    job = {"workload": wl.name, "seed": wl.seed, "tmp": tmp, "deck": deck, "start": start,
           "budget": WORKER_BUDGET_S, "trace": traced, "span_cap": SPAN_CAP,
           "loop_every": LOOP_EVERY_S}
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"worker for deck {deck} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def deck_count(wl, seconds: float) -> int:
    """Decks for `seconds` of request time at the workload's reference rate."""
    return max(1, round(seconds * wl.decks_per_s))


def run_pass(wl, tmp: str, seconds: float, tracer=None, setup=None) -> PassStats:
    """Run the decks sized for `seconds` of request time, starting at deck 0.

    The number of decks is fixed by `seconds` (see deck_count), not by the
    clock, so every run attempts the same operations and meets the same
    known failures. A pass that has spent MAX_STRETCH times `seconds` in
    requests stops at the end of its deck, so a much slower program still
    ends in time.

    In-process workloads run in a chain of worker processes, one at a time;
    `cli_session` runs here, one child per request. Only the calls into
    `svalue` are timed; building inputs, starting workers, checks and the
    `setup` samples taken between them are not.
    """
    st = PassStats()
    for _ in range(deck_count(wl, seconds)):
        if wl.in_process:
            start, deck_len = 0, 1
            while start < deck_len:
                if setup is not None:
                    setup.tick(st.busy)
                out = run_worker(wl, tmp, st.decks, start, tracer is not None)
                for rec in out["records"]:
                    st.record(rec)
                start, deck_len = out["next"], out["deck_len"]
                st.wrong += [tuple(w) for w in out["wrong"]]
                st.checked += out["checked"]
                st.rss_kb = max(st.rss_kb, out["rss_kb"])
                st.loop += out["loop"]
                if tracer is not None:
                    tracer.merge(out["trace"]["agg"], out["trace"]["errors"])
                    tracer.add_spans(out["spans"], out["dropped"], len(out["records"]))
        else:
            for req in wl.deck(st.decks):
                if setup is not None:
                    setup.tick(st.busy)
                rec, res = execute(req)
                st.record(rec)
                if req.keep and rec["ok"]:
                    req.result = res
                    st.kept.append(req)
        st.decks += 1
        if st.busy >= MAX_STRETCH * seconds:
            break
    return st


# -- correctness gate -------------------------------------------------------------------

def run_checks(wl, passes: list) -> list:
    """Mismatches of the results kept in this process, plus the p = 0.05 anchors."""
    import checks
    import svalue

    bad = checks.check_anchors(svalue) if wl.name == "study_batch" else []
    for st in passes:
        bad += st.wrong
        for req in st.kept:
            bad += checks.check(wl, req)
    return bad


# -- provenance ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy

    lines = 0
    for f in os.listdir(os.path.join(SRC, "svalue")):
        if f.endswith(".py"):
            with open(os.path.join(SRC, "svalue", f), "rb") as fh:
                lines += fh.read().count(b"\n")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": lines,
        "seed": seed,
    }


# -- main -----------------------------------------------------------------------------------

def failure_report(passes: list) -> dict:
    by_layer: dict = defaultdict(Counter)
    defects: dict = {}
    for st in passes:
        for (layer, name), n in st.failures.items():
            by_layer[layer][name] += n
        for cls, (att, fl) in st.defects.items():
            a, f = defects.get(cls, (0, 0))
            defects[cls] = (a + att, f + fl)
    return {"by_layer": {k: dict(v) for k, v in by_layer.items()},
            "defects": {k: {"attempted": a, "failed": f} for k, (a, f) in defects.items()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "svalue", "__init__.py")):
        fail(f"no src/svalue under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")  # for every child
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        setup = SetupProbe(wl.import_name)
        wl.start()
        import svalue

        if not os.path.abspath(svalue.__file__).startswith(SRC + os.sep):
            fail(f"svalue imported from {svalue.__file__}, not from {SRC}")
        layer: dict = {}
        extra: dict = {}  # raw timings and reference times, for the report line
        if args.trace == 0:
            main_pass = run_pass(wl, tmp, args.seconds, setup=setup)
            if wl.in_process:
                peak_rss_mb = main_pass.rss_kb / 1024.0
            else:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            setup_raw, import_ref = setup.value()
            raw = {"setup_s": setup_raw,
                   "requests_per_s": main_pass.requests_per_s(),
                   "latency_ms.p50": main_pass.percentile_ms(0.5),
                   "latency_ms.p90": main_pass.percentile_ms(0.9)}
            # Multiplying a time by these gives it at the reference speed (see reference.py):
            # fresh-process work scales with the reference import, in-process work with the loop.
            fresh = reference.IMPORT_NOMINAL_S / import_ref
            loop = statistics.median(main_pass.loop) if wl.in_process else None
            to_ref = reference.LOOP_NOMINAL_S / loop if wl.in_process else fresh
            timings = {"setup_s": setup_raw * fresh,
                       "requests_per_s": raw["requests_per_s"] / to_ref,
                       "latency_ms.p50": raw["latency_ms.p50"] * to_ref,
                       "latency_ms.p90": raw["latency_ms.p90"] * to_ref}
            extra = {"raw": raw, "reference": {"loop_s": loop, "import_numpy_s": import_ref}}
            passes = [main_pass]
        else:
            untraced = run_pass(wl, tmp, args.seconds / 2)
            tracer = Tracer(span_cap=SPAN_CAP)
            if wl.in_process:
                traced = run_pass(wl, tmp, args.seconds / 2, tracer)
            else:
                wl.trace_dir = tmp
                traced = run_pass(wl, tmp, args.seconds / 2)
                for dump in wl.child_spans():
                    tracer.merge(dump["agg"], dump["errors"])
                wl.trace_dir = None
            passes = [untraced, traced]
            layer.update(layer_metrics(tracer, traced.work))
            layer.update(cli_import_probe())
            if wl.name == "cli_session":
                layer.update(cli_main_ms(wl))
            layer["simulate.peak_alloc_bytes_per_draw"] = (
                peak_alloc_per_draw(wl) if wl.name == "monte_carlo" else 0.0)
            for name, kinds in THROUGHPUTS.items():
                layer[name] = untraced.throughput(kinds)
            rps_untraced = untraced.requests_per_s()
            rps_traced = traced.requests_per_s()
            layer["trace.requests_per_s"] = rps_traced
            layer["trace.requests_per_s.untraced"] = rps_untraced
            layer["trace.overhead_share"] = 1.0 - rps_traced / rps_untraced
            with open(os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "dropped": tracer.dropped, **tracer.dump()}, fh)

        wrong = run_checks(wl, passes)

    attempted = sum(st.ops for st in passes)
    failed = sum(st.failed_ops for st in passes) + len(wrong)
    wrong_by_layer = Counter(layer_name for layer_name, _ in wrong)
    failures = failure_report(passes)
    report = {
        "workload": wl.name,
        "provenance": provenance(args.seed),
        "decks": [st.decks for st in passes],
        "requests": [st.requests for st in passes],
        "busy_s": [st.busy for st in passes],
        "throughputs": {name: passes[0].throughput(kinds) for name, kinds in THROUGHPUTS.items()},
        "failures": failures,
        "failed_share": failed / attempted,
        "wrong_results": [f"{lay}: {msg}" for lay, msg in wrong[:20]],
        "checked_results": sum(st.checked + len(st.kept) for st in passes),
        **extra,
    }
    print(json.dumps({"report": report}))

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace == 0:
        values = {**timings, "peak_rss_mb": peak_rss_mb, "success_share": 1.0 - failed / attempted}
        wanted = spec["end_to_end"]
    else:
        values = layer
        values["failed_share"] = failed / attempted
        for m in spec["per_layer"]:
            parts = m["name"].split(".")
            if parts[0] == "defect":  # defect.<class>.failed
                values[m["name"]] = failures["defects"].get(parts[1], {}).get("failed", 0)
            elif parts[-1] == "wrong_results":  # <layer>.wrong_results
                values[m["name"]] = wrong_by_layer.get(parts[0], 0)
            elif parts[:2] == ["cli", "main_ms"]:  # 0 unless the workload is cli_session
                values.setdefault(m["name"], 0.0)
        wanted = spec["per_layer"]
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
