"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9 [--workloads NAME ...]

Seeds are the outer loop and workloads the inner one, so drift on the
machine hits every workload alike. For each workload and end-to-end metric
it prints the median of the runs' values, their quartiles and the spread
(q3 - q1) / median, beside the metric's bound in BENCHMARK.json. A spread
under a third of the bound is marked ``ok``. The table and every run's
result line are written to ``perfbench/results/sweep-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    runs: dict[str, list] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs[w].append({"seed": seed, **result})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} {vals}", file=sys.stderr)

    table = []
    for w, results in runs.items():
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            row = {"workload": w, "metric": m["name"], "n": len(vals),
                   "median": statistics.median(vals), "bound": m["bound"],
                   "all_correct": all(r["correct"] for r in results)}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / row["median"])
                row["ok"] = row["spread"] < m["bound"] / 3
            table.append(row)
            print(f"{w:18} {m['name']:12} n={row['n']:2} median={row['median']:.4g} "
                  f"spread={row.get('spread', float('nan')):.4f} bound={m['bound']} "
                  f"{'ok' if row.get('ok') else 'WIDE'}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    with open(os.path.join(HERE, "results", f"sweep-{stamp}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "table": table, "runs": runs},
                  fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
