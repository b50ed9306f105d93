"""Run part of one deck of an in-process workload in a fresh interpreter.

Usage: python3 bench/worker.py < JOB_JSON > RESULT_JSON

The runner starts one worker at a time and hands each about a second and a
half of requests. Every worker is a new process with its own randomised
memory layout, and pure-Python code such as `study_batch` runs markedly
slower in some layouts than in others (one calibration batch: 6.5 ms in
some fresh processes, 10-11 ms in others, on a 2-vCPU Xeon VM), so a run
spread over many workers measures the average layout instead of whichever
one a single process drew.

The job names the workload, seed, scratch directory, deck, first request,
time budget and whether to trace. The worker rebuilds that deck from the
seed, runs requests from `start` until it has spent `budget` seconds in them
or the deck ends, then checks the results it kept (after its peak RSS is
read) and prints one JSON object: the request records, the next request,
the deck length, wrong results, RSS, the times of the reference loop
(see reference.py) and, when traced, the tracer's
aggregates and spans.
"""

import json
import resource
import sys

import reference
from tracer import Tracer
from workloads import WORKLOADS, execute


def main() -> None:
    job = json.load(sys.stdin)
    wl = WORKLOADS[job["workload"]](job["seed"], job["tmp"])
    wl.start()
    deck = wl.deck(job["deck"])
    tracer = Tracer(span_cap=job["span_cap"]) if job["trace"] else None
    records, kept, busy, i = [], [], 0.0, job["start"]
    if tracer is not None:
        tracer.install()
    try:
        while i < len(deck) and busy < job["budget"]:
            rec, res = execute(deck[i], tracer)
            records.append(rec)
            busy += rec["dt"]
            if deck[i].keep and rec["ok"]:
                deck[i].result = res
                kept.append(deck[i])
            i += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # After the RSS reading, so that the loop's arrays do not count in it.
    loop = [reference.loop_seconds() for _ in range(max(1, round(busy / job["loop_every"])))]
    import checks  # mpmath, only after the timed requests and the RSS reading

    wrong = [w for req in kept for w in checks.check(wl, req)]
    out = {"records": records, "next": i, "deck_len": len(deck), "wrong": wrong,
           "checked": len(kept), "rss_kb": rss_kb, "loop": loop}
    if tracer is not None:
        out.update(trace=tracer.dump(), spans=tracer.spans, dropped=tracer.dropped)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
