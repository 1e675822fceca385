"""Run the benchmark on several workloads and seeds and print every metric
by name, with its unit, plus the failure ratio and the environment record.

    python3 perfbench/report.py                      # all workloads, seed 1
    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/report.py --workloads oracle --seeds 1 2 3 --trace 1

Runs go one after another (never side by side), each through run.py.
With several seeds it prints each metric's median and its spread, the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the bound BENCHMARK.json
fixes; "!" marks a spread above a third of the bound.  The table and all
raw results go to perfbench/out/report-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spread(values):
    if len(values) < 2:
        return 0.0, values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return ((q3 - q1) / q2 if q2 else 0.0), q2


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    report = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: run.py exited with {proc.returncode}")
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "out" / f"run-{wl}-s{seed}-t{args.trace}.json")
                                .read_text(encoding="utf-8"))
            runs.append({"seed": seed, "result": res, "env": record["env"]})
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"checks={res['attempted']} failed={res['failed']}",
                  flush=True)
        rows = []
        for m in declared:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            spread, median = _spread(values)
            rows.append({"name": m["name"], "unit": m["unit"],
                         "median": median, "spread": spread,
                         "bound": m.get("bound"), "values": values})
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        rows.append({"name": "fail_ratio", "unit": "ratio",
                     "median": failed / attempted, "spread": 0.0,
                     "bound": None, "values": [failed, attempted]})
        report[wl] = {"rows": rows, "runs": runs}

        print(f"\n{wl}: {len(runs)} run(s), checks per run "
              f"{[r['result']['attempted'] for r in runs]}")
        print(f"  {'metric':40s} {'median':>14s} {'unit':14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for row in rows:
            bound = row["bound"]
            flag = "!" if bound and row["spread"] > bound / 3 else ""
            print(f"  {row['name']:40s} {row['median']:14.6g} "
                  f"{row['unit']:14s} {row['spread']:8.4f} "
                  f"{'' if bound is None else f'{bound:6.2f}'}{flag}")
        env = dict(runs[0]["env"])
        env.pop("seed", None)
        print(f"  env {json.dumps(env)}\n")
    out = HERE / "out" / f"report-t{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
