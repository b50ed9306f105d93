"""Run one `svalue` CLI call with the span tracer installed.

Usage: python3 bench/cli_child.py SPANS_JSON ARG...

Behaves like `python -m svalue.cli ARG...` (same stdout, stderr and exit
code) and writes the tracer's aggregates to SPANS_JSON when the call ends,
whether or not it raised.
"""

import json
import sys

import svalue.cli
from tracer import Tracer

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(span_cap=0)
    tracer.install()
    try:
        code = svalue.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)
