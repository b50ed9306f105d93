"""Reference timings that gauge the machine's speed during a run.

The VM the benchmark runs on shares its host with other tenants, and its
speed drifts by 20-40 % over tens of seconds to minutes, more than the
metrics' bounds. A run therefore also times two references that touch no
`svalue` code, next to the work it measures, and reports each timing scaled
to the reference speed: measured time x nominal / reference time. A change
to `svalue` does not move the references; a slow phase of the machine slows
them together with the measured work.

- The loop (`loop_seconds`): uniform draws, a sort and a log over 2**20
  doubles with numpy, timed in the workers of the in-process workloads.
- The import (`IMPORT_CODE`): `import numpy` in a fresh interpreter, timed
  next to each set-up sample; it scales set-up and the CLI children.

Over ten seeds per workload on the VM, the scaled values spread markedly
less than the raw ones (see README.md). The nominal values are the
references' times there in a typical phase.
"""

from __future__ import annotations

import time

import numpy

LOOP_NOMINAL_S = 0.022
IMPORT_NOMINAL_S = 0.065
IMPORT_CODE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"

_gen = None  # made at the first pass: importing numpy.random adds 6 MB to a worker's RSS


def loop_seconds() -> float:
    """Time one pass of the reference loop."""
    global _gen
    if _gen is None:
        _gen = numpy.random.default_rng(12345)
    t = time.perf_counter()
    a = _gen.random(1 << 20)
    a.sort()
    numpy.log(a).sum()
    return time.perf_counter() - t
