"""Mutation checks: each row of MUTANTS is one plausible fault, and the test suite must
catch every one of them.

    python tools/mutants.py

Run from anywhere; the script finds the repository from its own path. It first runs the
union of the rows' selections on an unedited copy, which must pass. Then, for each row,
it copies src/, tests/, pyproject.toml and README.md to a temporary directory, replaces the row's
old text (which must occur exactly once in its file) by the new text, and runs the row's
pytest selection there with -x -q. The row is killed when that run fails. One line per
row is printed; the exit status is 0 when every row is killed, 1 when one survives, and
2 when the unedited copy fails or a row's old text is missing or repeated.

A mutant that survives needs a new test that kills it; it is not dropped from the table.
The table is the same on every supported interpreter (Python 3.11 and later).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/svalue
    old: str  # must occur exactly once in the file
    new: str
    selection: tuple[str, ...]  # pytest arguments, run from the copy's root


SPECFUN = ("tests/test_specfun.py",)
CSV_BLOCKS = ("tests/test_combine.py::TestCsvBlocks",)
KS = ("tests/test_simulate.py::TestDistributionReport",)
TAILS = ("tests/test_simulate.py::TestBinomialTails",)
# a uniform chunk's alpha tests, then its ln p in place
CHUNK_HITS = ("        hits = [int(np.count_nonzero(np.less_equal(p, a, out=hit[:p.size])))"
              " for a in alphas]\n")
CHUNK_LOG = "        total = -float(np.log(p, out=p).sum())  # negation is exact: the sum of -ln p\n"

MUTANTS = [
    # the checks of real arguments
    Mutant("real-check-takes-bool", "specfun.py",
           "not isinstance(v, bool) and isinstance(v, (int, float))", "isinstance(v, (int, float))",
           ("tests/test_value_types.py",)),
    Mutant("real-check-takes-str", "specfun.py",
           "isinstance(v, (int, float)) and low < v", "low < v", ("tests/test_value_types.py",)),
    Mutant("real-check-stores-as-given", "specfun.py", "return float(v)", "return v",
           ("tests/test_value_types.py",)),
    # the value types' checked base
    Mutant("checked-base-make-unchecked", "specfun.py", "cls(*fields)",
           "tuple.__new__(cls, fields)", ("tests/test_value_types.py",)),
    # the fast paths of exact floats and ints
    Mutant("p-value-float-unchecked", "units.py",
           "return tuple.__new__(cls, (_check_p(value),))", "return tuple.__new__(cls, (value,))",
           ("tests/test_value_types.py",)),
    Mutant("int-check-exact-int-unranged", "specfun.py",
           "if type(v) is int and low <= v < high:", "if type(v) is int:",
           ("tests/test_value_types.py",)),
    # the value types' ranges
    Mutant("p-value-range-unbounded", "units.py", "math.nextafter(1.0, 2.0)", "math.inf",
           ("tests/test_value_types.py",)),
    Mutant("svalue-negative-taken", "units.py", '>= 0", -5e-324)', '>= 0", -1.0)',
           ("tests/test_value_types.py",)),
    Mutant("convert-overflow-unrefused", "units.py", "if value == math.inf:", "if False:",
           ("tests/test_units.py",)),
    Mutant("chisquare-df-zero-taken", "specfun.py", '"df must be an integer >= 1")',
           '"df must be an integer >= 1", 0)', ("tests/test_value_types.py",)),
    # the incomplete-gamma kernel
    Mutant("series-cut-at-1e-7", "specfun.py",
           "if total + term == total:", "if term < 1e-7 * total:",
           ("tests/test_acceptance.py::test_criterion_06_fisher_identity_and_shrinkage",)),
    Mutant("stirling-remainder-x1.001", "specfun.py",
           "math.log(a / (2.0 * math.pi)) - stirling_tail",
           "math.log(a / (2.0 * math.pi)) - stirling_tail * 1.001",
           ("tests/test_combine.py::TestSSummation::test_many_studies_at_the_null",)),
    Mutant("log-q-x(1+1e-7)", "specfun.py",
           "return log_pref + math.log(_upper_cf_factor(a, x, max_iter))",
           "return (log_pref + math.log(_upper_cf_factor(a, x, max_iter))) * (1 + 1e-7)", SPECFUN),
    Mutant("lentz-c-sign", "specfun.py", "c = b + q", "c = b - q", SPECFUN),
    # curves
    Mutant("curve-z-squared-unrefused", "curves.py", "if math.isinf(t * t):", "if math.isinf(t):",
           ("tests/test_curves.py", "tests/test_cli.py::TestArithmeticErrors")),
    Mutant("curve-grid-steps-by-width-over-n", "curves.py",
           "from_ + (x / n if (x := width * i) < math.inf else width / n * i)",
           "from_ + width / n * i", ("tests/test_curves.py",)),
    # combine
    Mutant("pooled-weights-sum", "combine.py",
           "total_w = math.fsum(weights)", "total_w = sum(weights)", ("tests/test_combine.py",)),
    Mutant("pooled-weight-exponent-1", "combine.py",
           "weights = [(se_min / se) ** 2 for se in std_error]",
           "weights = [(se_min / se) ** 1 for se in std_error]", ("tests/test_combine.py",)),
    Mutant("s-sum-terms-sum", "combine.py", "x = math.fsum(terms)", "x = sum(terms)",
           ("tests/test_combine.py",)),
    Mutant("bulk-read-quotes", "combine.py", """if '"' in text or """, "if ", CSV_BLOCKS),
    Mutant("bulk-read-line-length", "combine.py",
           "len(text) > limit and max(map(len, block)) > limit", "False",
           ("tests/test_combine.py",)),
    Mutant("bulk-read-field-count", "combine.py",
           "len(fields) != len(block) * width or ", "", CSV_BLOCKS),
    Mutant("bulk-read-line-ends-unplaced", "combine.py",
           ' or "\\n" in heads or "\\r" in heads:', ":", CSV_BLOCKS),
    Mutant("bulk-read-unchecked", "combine.py",
           "        _check_studies(new_ids, new)\n", "", CSV_BLOCKS),
    Mutant("bulk-read-header-offset", "combine.py",
           "lines_before = reader.line_num\n", "lines_before = 0\n", CSV_BLOCKS),
    Mutant("bulk-read-ids-unstripped", "combine.py",
           "list(map(str.strip, fields[0::width]))", "fields[0::width]", CSV_BLOCKS),
    Mutant("row-loop-ids-unstripped", "combine.py", "row[0].strip()", "row[0]", CSV_BLOCKS),
    Mutant("row-loop-check-dropped", "combine.py",
           "                    _check_effect(id_, *values) if values[1:] else _check_p(*values)\n",
           "", CSV_BLOCKS),
    Mutant("header-unstripped", "combine.py", "h.strip().lower()", "h.lower()", CSV_BLOCKS),
    Mutant("table-rows-zipped-out-of-order", "combine.py", "else (none, *self.columns)",
           "else (none, *self.columns[::-1])", ("tests/test_combine.py::TestStudyTable",)),
    Mutant("pooled-z-squared-unrefused", "combine.py", "if math.isinf(z * z):",
           "if math.isinf(z):", ("tests/test_combine.py::TestPooled",)),
    Mutant("study-z-squared-unrefused", "combine.py",
           "if math.isinf((z_max := max(map(abs, z_scores))) * z_max):",
           "if math.isinf(z_max := max(map(abs, z_scores))):",
           ("tests/test_combine.py::TestCompareMethods",)),
    Mutant("z2-z-squared-unrefused", "combine.py", "math.isfinite(z * z)", "math.isfinite(z)",
           ("tests/test_combine.py::TestZSquared",)),
    # simulate
    Mutant("chunk-hits-after-log", "simulate.py", CHUNK_HITS + CHUNK_LOG,
           CHUNK_LOG + CHUNK_HITS, ("tests/test_simulate.py",)),
    Mutant("chunk-total-drops-a-draw", "simulate.py", "total = -float(np.log(p, out=p).sum())",
           "total = -float(np.log(p, out=p)[1:].sum())", ("tests/test_simulate.py",)),
    Mutant("chunk-m2-sign", "simulate.py",
           "np.add(p, mean, out=p)", "np.subtract(p, mean, out=p)", ("tests/test_simulate.py",)),
    Mutant("tails-uncapped", "simulate.py", "min(acc / total, 1.0)", "acc / total", TAILS),
    Mutant("tails-summed-from-x-1-up", "simulate.py",
           "accumulate(pmf[:0:-1])", "accumulate(pmf[1:])", TAILS),
    Mutant("pool-sums-by-sum", "simulate.py",
           "mean_nats = math.fsum(sums) / n", "mean_nats = sum(sums) / n",
           ("tests/test_simulate.py::TestPooling",)),
    Mutant("pcg64-advance-offset", "simulate.py",
           "gen.bit_generator.advance(first * CHUNK)", "gen.bit_generator.advance(first)",
           ("tests/test_simulate.py",)),
    Mutant("helper-thread-unjoined", "simulate.py",
           "    with ThreadPoolExecutor(parts - 1) as pool:\n",
           "    pool = ThreadPoolExecutor(parts - 1)\n    if True:\n", ("tests/test_simulate.py",)),
    Mutant("ks-bucket-nb-unfolded", "simulate.py",
           "yield fx, np.minimum(j, nb - 1, out=j)", "yield fx, j", KS),
    Mutant("ks-rank-off-by-one", "simulate.py", "np.arange(s + p + 0.0, s + p + f.size + 1)",
           "np.arange(s + p + 1.0, s + p + f.size + 2)", KS),
    Mutant("ks-keep-by-d-plus-bound", "simulate.py",
           "top = np.maximum(end / n - np.arange(nb) / nb, "
           "np.arange(1, nb + 1) / nb - (end - c) / n)",
           "top = end / n - np.arange(nb) / nb", KS),
    Mutant("ks-nan-unchecked", "simulate.py", "if np.isnan(fx.max()):", "if False:", KS),
    Mutant("evalue-n-as-given", "simulate.py", "n=summary.n,", "n=n,",
           ("tests/test_value_types.py",)),
    # the CLI
    Mutant("emit-row-table-by-format-only", "cli.py",
           'if fmt == "csv" or isinstance(payload, list):', 'if fmt == "csv":',
           ("tests/test_cli.py",)),
    Mutant("null-with-s-sum-accepted", "cli.py",
           '    if method == "s-sum" and args.null is not None:\n'
           '        raise ValueError("--null goes with z2, pooled and compare, not with s-sum")\n',
           "", ("tests/test_cli.py::TestCombine",)),
    # package
    Mutant("cli-imports-dataclasses", "cli.py",
           "import argparse\n", "import argparse\nimport dataclasses\n", ("tests/test_package.py",)),
]


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):  # the pytest settings; a test runs README's example
        shutil.copy(ROOT / name, dest)


def _pytest(root: Path, selection: tuple[str, ...]) -> subprocess.CompletedProcess:
    """pytest's run of `selection` in the copy at root, whose exit status is 0 (passed) or 1."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=root, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # interrupted, a usage error or no test collected
        raise RuntimeError(f"pytest {' '.join(selection)} exited {run.returncode}:\n"
                           f"{run.stdout}{run.stderr}")
    return run


def _mutated(mutant: Mutant) -> str:
    """The text of the mutant's file with its one edit made."""
    text = (ROOT / "src" / "svalue" / mutant.file).read_text(encoding="utf-8")
    if (n := text.count(mutant.old)) != 1:
        raise LookupError(f"{mutant.name}: the old text occurs {n} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def main() -> int:
    try:
        texts = [_mutated(m) for m in MUTANTS]  # every old text is found before anything runs
        with tempfile.TemporaryDirectory(prefix="svalue-mutants-") as tmp:
            _copy(Path(tmp) / "base")
            base = _pytest(Path(tmp) / "base", tuple(s for m in MUTANTS for s in m.selection))
            if base.returncode:
                raise RuntimeError(f"the unedited copy fails the selections:\n{base.stdout}")
            survivors = []
            width = max(len(m.name) for m in MUTANTS)
            print(f"{'mutant':{width}}  {'result':8} {'s':>5}")
            for m, text in zip(MUTANTS, texts):
                root = Path(tmp) / m.name
                _copy(root)
                (root / "src" / "svalue" / m.file).write_text(text, encoding="utf-8")
                start = time.perf_counter()
                killed = _pytest(root, m.selection).returncode == 1
                print(f"{m.name:{width}}  {'killed' if killed else 'SURVIVED':8} "
                      f"{time.perf_counter() - start:5.1f}", flush=True)
                if not killed:
                    survivors.append(m.name)
    except (LookupError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
