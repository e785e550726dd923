"""One repetition of one workload, in a fresh interpreter.

A fresh process per repetition is what CLI users get: cimlab's module
caches (``groups._AUT_CACHE``, ``ci._BATCH_CACHE``,
``skew._CYCLIC_SKEW_CACHE``) would turn every repetition after the first
into a cache hit. Modes:

- ``setup``: import and build the inputs, then stop;
- ``run``: also solve, with tracing off, and check the output;
- ``trace``: the same with the layer spans of ``spans.py`` installed.

A solve is sampled by ``probe.py`` in both modes. ``wall_s`` and
``cpu_raw_s`` are as measured; ``solve_s`` and ``cpu_s`` are the same
times at the probe's reference speed.

Prints one JSON record as the last line of stdout. ``t_first`` is
``time.monotonic()`` just before the first entry-point call; the parent
subtracts its own clock reading from before the spawn to get set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
          encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus, if it started workers, that many times the
    largest worker's peak. Forked workers share pages with this process, so
    this is an upper bound on their joint peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * kids if kids else 0)) / 1024.0


def run(workload: str, seed: int, mode: str) -> dict:
    w = workloads.WORKLOADS[workload]
    inputs = w.prepare(seed)
    if mode == "setup":
        return {"t_first": time.monotonic()}
    record: dict = {"failures": []}
    tracer = spans.tracing() if mode == "trace" else contextlib.nullcontext()
    with tracer as rec:
        probe.start()
        cpu0 = _cpu_s()
        record["t_first"] = time.monotonic()
        t0 = time.perf_counter()
        try:
            outputs = w.solve(inputs)
        except Exception:  # a crash is a failed repetition, reported with its traceback
            outputs = None
            record["failures"].append(traceback.format_exc())
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_raw_s"] = _cpu_s() - cpu0
        record["speed"] = probe.stop()
        trace = rec.export() if rec is not None else None
    # the end-to-end times are at the reference speed of probe.py
    record["solve_s"] = record["wall_s"] * record["speed"]
    record["cpu_s"] = record["cpu_raw_s"] * record["speed"]
    record["peak_rss_mb"] = _peak_rss_mb(w.workers)
    if outputs is None:
        return record

    text = "".join(o.text for o in outputs)
    record["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    record["summary"] = workloads.summarize(outputs)
    record["results"] = workloads.report_results(outputs)
    if record["summary"] != REFERENCE.get(workload):
        record["failures"].append(
            "verdicts, exit codes or pinned counts differ from the reference: "
            + json.dumps(record["summary"], sort_keys=True))
    record["failures"] += workloads.check_witnesses(outputs, inputs)
    if trace is not None:
        record["trace"] = trace
        record["failures"] += metrics.reconcile(trace, record["results"], record["wall_s"])
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.mode)))


if __name__ == "__main__":
    main()
