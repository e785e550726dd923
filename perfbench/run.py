"""cimlab benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition is a fresh interpreter
(``child.py``), started only after the previous one has ended (a closed
loop with one client). First the workload is set up ``SETUP_SAMPLES``
times without solving; then it is solved again and again within
``--seconds``, always at least once. No repetition starts that would end
past the window if it took as long as the longest one so far, so a run
takes about ``--seconds`` plus set-up, whatever the workload. With
``--trace 1`` each untraced repetition is followed by a traced one, and the
per-layer metrics come from the traced ones. Every repetition's output is checked against ``reference.json`` and
its false verdicts' witnesses are re-verified; a repetition that fails any
check, crashes or times out counts in ``failed``.

The last line of stdout is the result as one JSON object. The run's
provenance and every repetition's record go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("paper-battery", "z11-exhaustive-2w", "order8-crossval", "z16-stabilizer")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s, whatever the workload

sys.path.insert(0, HERE)
import metrics  # noqa: E402


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _loadavg() -> list:
    return [float(x) for x in _read("/proc/loadavg").split()[:3]]


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit():
    """The checked-out commit, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's source files, which identifies it without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cimlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "started_unix": time.time(),
    }


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One child repetition; its record, with set-up time and load around it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    load_before = _loadavg()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # timed out, or this run is being stopped
        os.killpg(proc.pid, signal.SIGKILL)  # its process group holds any pool workers too
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        rec = {"failures": ["timed out"]}
    else:
        lines = out.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, ValueError):
            rec = {"failures": []}
        rec.setdefault("failures", [])
        if proc.returncode != 0 or "t_first" not in rec:
            rec["failures"].append(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    rec["mode"] = mode
    rec["loadavg_before"] = load_before
    rec["loadavg_after"] = _loadavg()
    if "t_first" in rec:
        rec["setup_s"] = rec.pop("t_first") - t_spawn
    return rec


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def aggregate(records: list, trace: bool) -> tuple[dict, dict]:
    """(metrics as printed, sample counts) from every repetition of a run."""
    runs = [r for r in records if r["mode"] == "run" and "solve_s" in r]
    if trace:
        wall = _median([r["wall_s"] for r in runs])
        traced = [r for r in records if r["mode"] == "trace" and "trace" in r]
        per_rep = [metrics.layer_metrics(r["trace"], r["results"], r["wall_s"] - wall)
                   for r in traced]
        values = {name: _median([m[name] for m in per_rep]) for name in metrics.PER_LAYER}
        units = metrics.PER_LAYER
        counts = {"traced": len(traced), "untraced": len(runs)}
    else:
        setups = [r["setup_s"] for r in records if r["mode"] != "trace" and "setup_s" in r]
        values = {
            "solve_s": _median([r["solve_s"] for r in runs]),
            "setup_s": _median(setups),
            "cpu_s": _median([r["cpu_s"] for r in runs]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        }
        units = metrics.END_TO_END
        counts = {"solve_s": len(runs), "setup_s": len(setups), "cpu_s": len(runs),
                  "peak_rss_mb": len(runs)}
    out = {name: {"value": values[name], "unit": units[name][0]} for name in values}
    return out, counts


def as_measured(records: list) -> dict:
    """Medians of the untraced repetitions' times before scaling to the
    reference speed, and of the speed itself."""
    runs = [r for r in records if r["mode"] == "run" and "solve_s" in r]
    return {k: _median([r[k] for r in runs]) for k in ("wall_s", "cpu_raw_s", "speed")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cimlab benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "cimlab", "__init__.py")):
        print(f"error: no cimlab sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    prov = provenance(args)
    records = [spawn(args.workload, args.seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    modes = ("run", "trace") if args.trace else ("run",)
    t_measure = time.monotonic()
    stop = min(t_measure + args.seconds, deadline)
    longest = 0.0
    while True:
        t_cycle = time.monotonic()
        for mode in modes:
            records.append(spawn(args.workload, args.seed, mode, deadline))
        now = time.monotonic()
        longest = max(longest, now - t_cycle)
        if now + longest > stop:  # the next cycle would likely end past the window
            break

    # traced and untraced repetitions must agree on every verdict and count
    solved = [r for r in records if "results" in r]
    for r in solved[1:]:
        if r["results"] != solved[0]["results"]:
            r["failures"].append(f"{r['mode']} repetition's verdicts or counts differ "
                                 f"from the {solved[0]['mode']} repetition's")
    failed = sum(1 for r in records if r["failures"])
    values, samples = aggregate(records, bool(args.trace))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": values}

    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "samples": samples,
                   "fail_ratio": failed / len(records), "as_measured": as_measured(records),
                   "records": records},
                  fh, indent=1, sort_keys=True)
    for r in records:
        for f in r["failures"]:
            print(f"[{r['mode']}] {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
