"""In-memory span tracer for the layers of `svalue`.

The tracer replaces every public function of the `svalue` modules, in every
module namespace that binds it (so `svalue.combine.chisq_survival` and
`svalue.curves.normal_cdf` are wrapped as well as their home names), and the
`__post_init__` validation of each dataclass. Each call records a span: name,
start, end, parent span and request id. Spans stay in memory; the caller
writes them out when the run ends. A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import collections
import sys
import time
import types

MODULES = ("specfun", "units", "combine", "calibrate", "curves", "simulate", "cli")
CHISQ = ("specfun.chisq_survival", "specfun.log_chisq_survival")
COMBINE_TESTS = (
    "combine.s_summation_test",
    "combine.z_squared_test",
    "combine.pooled_homogeneity_test",
    "combine.compare_methods",
)


def _chisq_bucket(args, kwargs):
    dist = args[0] if args else kwargs["dist"]
    return ("df_le_1e3" if dist.df <= 1000 else "df_gt_1e3"), 1


def _draws(args, kwargs):
    return None, args[0] if args else kwargs.get("n", kwargs.get("n_reps"))


# Spans whose work is bucketed or counted at the call, keyed by span name.
MEASURES = {
    "specfun.chisq_survival": _chisq_bucket,
    "specfun.log_chisq_survival": _chisq_bucket,
    "simulate.simulate_uniform_p": _draws,
    "simulate.simulate_exact_binomial": _draws,
}


class Tracer:
    """Records nested spans of `svalue` calls made by one thread."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.spans: list[tuple] = []  # (id, parent, request, name, start_ns, end_ns, ok)
        self.dropped = 0
        # (root, span name, bucket) -> [calls, incl_ns, self_ns, failures, work, ok_ns],
        # where root is the outermost span of the same layer on the stack (the call
        # that entered the layer), failures count exceptions leaving the layer, and
        # work and ok_ns (inclusive time) count only calls that returned.
        self.agg: dict[tuple, list] = collections.defaultdict(lambda: [0, 0, 0, 0, 0, 0])
        self.errors: collections.Counter = collections.Counter()  # (span name, exception) -> n
        self.request = 0
        self._stack: list[list] = []  # [id, name, child_ns, root]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name: str):
        measure = MEASURES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else None
            entry = parent is None or parent[1].split(".", 1)[0] != name.split(".", 1)[0]
            root = name if entry else parent[3]
            nested_same = any(f[1] == name for f in stack)
            frame = [span_id, name, 0, root]
            stack.append(frame)
            ok = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                ok = False
                if entry:
                    self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                bucket, work = measure(args, kwargs) if measure else (None, 0)
                rec = self.agg[(root, name, bucket)]
                rec[0] += 1
                if not nested_same:
                    rec[1] += dur
                rec[2] += dur - frame[2]
                if not ok and entry:
                    rec[3] += 1
                if ok:
                    rec[4] += work or 0
                    if not nested_same:
                        rec[5] += dur
                if len(self.spans) < self.span_cap:
                    self.spans.append(
                        (span_id, parent[0] if parent else None, self.request, name, start, end, ok)
                    )
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions and dataclass validations of `svalue`."""
        import svalue  # noqa: F401  (loads the package before patching)

        mods = [sys.modules["svalue"]] + [
            sys.modules[f"svalue.{m}"] for m in MODULES if f"svalue.{m}" in sys.modules
        ]
        wrappers: dict[int, types.FunctionType] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("svalue."):
                    w = wrappers.get(id(obj))
                    if w is None:
                        home = obj.__module__.rsplit(".", 1)[1]
                        w = wrappers[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == mod.__name__
                    and "__post_init__" in vars(obj)
                ):
                    home = mod.__name__.rsplit(".", 1)[1]
                    orig = vars(obj)["__post_init__"]
                    self._patches.append((obj, "__post_init__", orig))
                    setattr(obj, "__post_init__", self._wrap(orig, f"{home}.{obj.__name__}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation -----------------------------------------------------------

    def merge(self, rows: list, errors: list) -> None:
        """Add aggregates dumped by another process (see `dump`)."""
        for root, name, bucket, *values in rows:
            rec = self.agg[(root, name, bucket)]
            for i, v in enumerate(values):
                rec[i] += v
        for name, exc, n in errors:
            self.errors[(name, exc)] += n

    def add_spans(self, spans: list, dropped: int, requests: int) -> None:
        """Add spans recorded by another process, renumbering their span and
        request ids after those held here. perf_counter_ns reads one clock in
        every process, so the times stay comparable."""
        span0, request0 = self._next_id, self.request
        room = max(0, self.span_cap - len(self.spans))
        for sid, parent, req, name, start, end, ok in spans[:room]:
            self.spans.append((span0 + sid, parent and span0 + parent, request0 + req,
                               name, start, end, ok))
        self.dropped += dropped + max(0, len(spans) - room)
        self._next_id += max((sp[0] for sp in spans), default=0)
        self.request += requests

    def dump(self) -> dict:
        return {
            "agg": [[*k, *v] for k, v in self.agg.items()],
            "errors": [[name, exc, n] for (name, exc), n in self.errors.items()],
        }


def _sum(agg, col, pred) -> float:
    return sum(v[col] for k, v in agg.items() if pred(*k))


def layer_metrics(tr: Tracer, work: dict) -> dict:
    """Per-layer metrics from the tracer's aggregates.

    `work` holds the attempted work per request kind that the spans cannot
    see: studies of combine requests and grid points of curve requests. A
    metric whose layer the run did not call reads 0.
    """
    agg = tr.agg
    ms = 1e-6

    def layer(name):
        return name.split(".", 1)[0]

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out: dict[str, float] = {}
    out["specfun.chisq.calls"] = _sum(agg, 0, lambda r, n, b: n in CHISQ)
    out["specfun.chisq.busy_ms"] = _sum(agg, 1, lambda r, n, b: n in CHISQ) * ms
    for bucket in ("df_le_1e3", "df_gt_1e3"):
        calls = _sum(agg, 0, lambda r, n, b: n in CHISQ and b == bucket)
        busy = _sum(agg, 1, lambda r, n, b: n in CHISQ and b == bucket)
        out[f"specfun.chisq.us_per_call.{bucket}"] = per(busy, calls, 1e-3)
    out["specfun.chisq.failures"] = _sum(agg, 3, lambda r, n, b: n in CHISQ)
    for fn in ("normal_cdf", "normal_quantile"):
        name = f"specfun.{fn}"
        out[f"{name}.calls"] = _sum(agg, 0, lambda r, n, b: n == name)
        out[f"{name}.busy_ms"] = _sum(agg, 1, lambda r, n, b: n == name) * ms

    unit_calls = _sum(agg, 0, lambda r, n, b: layer(n) == "units")
    unit_busy = _sum(agg, 2, lambda r, n, b: layer(n) == "units")
    out["units.calls"] = unit_calls
    out["units.busy_ms"] = unit_busy * ms
    out["units.ns_per_call"] = per(unit_busy, unit_calls)

    csv_busy = _sum(agg, 1, lambda r, n, b: n == "combine.studies_from_csv")
    out["combine.read_csv.busy_ms"] = csv_busy * ms
    out["combine.read_csv.us_per_study"] = per(csv_busy, work.get("combine", 0), 1e-3)
    out["combine.self_ms"] = _sum(
        agg, 2, lambda r, n, b: layer(n) == "combine" and r != "combine.studies_from_csv"
    ) * ms
    test_busy = _sum(agg, 1, lambda r, n, b: n in COMBINE_TESTS and r == n)
    out["combine.us_per_study"] = per(test_busy, work.get("combine", 0), 1e-3)
    out["combine.failures"] = _sum(agg, 3, lambda r, n, b: layer(n) == "combine")

    out["curves.self_ms"] = _sum(agg, 2, lambda r, n, b: layer(n) == "curves") * ms
    curve_busy = _sum(agg, 1, lambda r, n, b: n == "curves.curve")
    out["curves.us_per_point"] = per(curve_busy, work.get("curve", 0), 1e-3)
    out["curves.failures"] = _sum(agg, 3, lambda r, n, b: layer(n) == "curves")

    out["calibrate.self_ms"] = _sum(agg, 2, lambda r, n, b: layer(n) == "calibrate") * ms
    cal_busy = _sum(agg, 1, lambda r, n, b: n == "calibrate.calibration_report")
    cal_calls = _sum(agg, 0, lambda r, n, b: n == "calibrate.calibration_report")
    out["calibrate.us_per_pvalue"] = per(cal_busy, cal_calls, 1e-3)
    out["calibrate.failures"] = _sum(agg, 3, lambda r, n, b: layer(n) == "calibrate")

    for gen, fn in (("uniform", "simulate_uniform_p"), ("binomial", "simulate_exact_binomial")):
        name = f"simulate.{fn}"
        busy = _sum(agg, 5, lambda r, n, b: n == name)
        draws = _sum(agg, 4, lambda r, n, b: n == name)
        out[f"simulate.ns_per_draw.{gen}"] = per(busy, draws)
    out["simulate.tails.busy_ms"] = _sum(
        agg, 1, lambda r, n, b: n == "simulate.binomial_upper_tail_pvalues"
    ) * ms
    out["simulate.ks.busy_ms"] = _sum(
        agg, 1, lambda r, n, b: n == "simulate.distribution_report"
    ) * ms
    out["simulate.failures"] = _sum(agg, 3, lambda r, n, b: layer(n) == "simulate")
    return {k: float(v) for k, v in out.items()}
