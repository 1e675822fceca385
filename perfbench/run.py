"""The modwd benchmark: time to a verdict on the paper's checks.

    python3 perfbench/run.py --workload {pairs,roundtrip,oracle} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a checkout; it imports modwd from `src/` there and
fails (exit 2, no result) when `src/modwd` is missing.  Every workload runs
in fresh interpreters started one after another, never side by side: the
package's lru caches are process-global and unbounded, and a process pool
on a small machine would measure the scheduler.

--trace 0 starts SETUP_SAMPLES interpreters: all but the last only set up,
the last also runs checks for S seconds.  It reports the end-to-end
metrics of BENCHMARK.json; `setup_s` is the median set-up time.  Times
are CPU seconds of the worker interpreter, scaled to a reference speed
(see worker.py and calibrate.py for why); the run record also keeps the
unscaled and the wall-clock figures.
--trace 1 starts an untraced interpreter and then a traced one,
each running checks for S seconds, and reports the per-layer metrics;
`trace.overhead` is the traced checks/s over the untraced checks/s.

Before the result it prints one line per metric with its unit, the
failure ratio and the environment record; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  It also writes
perfbench/out/run-<workload>-s<seed>-t<trace>.json (environment record,
set-up samples, failures with their replay commands) and, when tracing,
perfbench/out/spans-<workload>-s<seed>.tsv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("pairs", "roundtrip", "oracle")
SETUP_SAMPLES = 3
# fewer checks leave fewer than ten samples above p99
MIN_CHECKS = 1000
# every run must end within 180 s; leave room for this process itself
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _commit():
    """The checked-out commit when this is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modwd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker(args, deadline):
    """Start one worker, wait for it and return its JSON, with the wall
    time from its start to the end of its set-up added as setup_wall_s."""
    # modwd does no floating-point BLAS work; a second BLAS thread would
    # only spin at numpy's import and inflate the CPU time of the set-up
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT)] + args
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{' '.join(args)}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_wall_s"] = res["ready"] - t0
    return res


def _write_failures(res, workload, seed):
    """Put each transported matrix of a failing roundtrip check in a file
    and point its replay command at it."""
    for rec in res["failures"]:
        text = rec.pop("transported_matrix", None)
        if text is None:
            continue
        path = OUT / f"failure-{workload}-s{seed}-i{rec['index']}.txt"
        path.write_text(text, encoding="utf-8")
        rec["replay_transported"] = rec["replay_transported"].replace(
            "<transported_matrix>", str(path.relative_to(ROOT)))


def run(workload, seed, seconds, trace, corrupt_index=None):
    deadline = time.perf_counter() + RUN_BUDGET_S
    base = [workload, str(seed), str(seconds)]
    extra = []
    if corrupt_index is not None:
        extra += ["--corrupt-index", str(corrupt_index)]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace}
    if not trace:
        setups = [_worker(base + ["setup"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        res = _worker(base + ["measure"] + extra, deadline)
        setups.append(res)
        samples = [r["setup_s"] for r in setups]
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "checks_per_s": (res["checks_per_s"], "1/s"),
            "check_ms_p50": (res["check_ms_p50"], "ms"),
            "check_ms_p99": (res["check_ms_p99"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        }
        record["setup_samples_s"] = samples
        record["raw_setup_samples_s"] = [r["raw_setup_s"] for r in setups]
        record["setup_wall_samples_s"] = [r["setup_wall_s"] for r in setups]
        correct = res["failed"] == 0
    else:
        plain = _worker(base + ["measure"] + extra, deadline)
        spans = OUT / f"spans-{workload}-s{seed}.tsv"
        res = _worker(base + ["measure", "--trace", str(spans)] + extra,
                      deadline)
        metrics = {k: (v["value"], v["unit"]) for k, v in res["layers"].items()}
        metrics["trace.overhead"] = (
            res["checks_per_s"] / plain["checks_per_s"], "ratio")
        record["untraced_checks_per_s"] = plain["checks_per_s"]
        record["traced_checks_per_s"] = res["checks_per_s"]
        record["trace_balanced"] = res["trace_balanced"]
        correct = (res["failed"] == 0 and plain["failed"] == 0
                   and res["trace_balanced"])
    _write_failures(res, workload, seed)
    record.update(
        env=dict(res["env"], commit=_commit(), src_sha256=_src_digest(),
                 seed=seed, checks={workload: res["attempted"]},
                 grid_size={workload: res["grid_size"]}),
        attempted=res["attempted"], failed=res["failed"],
        fail_ratio=res["failed"] / res["attempted"],
        checks_cpu_s=res["cpu_s"], checks_wall_s=res["wall_s"],
        checks_per_wall_s=res["attempted"] / res["wall_s"],
        raw={k: res["raw_" + k] for k in ("checks_per_s", "check_ms_p50",
                                          "check_ms_p99")},
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        failures=res["failures"])
    return correct, record


def _declared(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the smoke test: one deliberately wrong expected result
    p.add_argument("--corrupt-index", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "modwd" / "__init__.py").is_file():
        print(f"perfbench: no modwd sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        correct, record = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.corrupt_index)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    path = OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    metrics = record["metrics"]
    declared = _declared(args.trace)
    missing = [(n, u) for n, u in declared
               if n not in metrics or metrics[n]["unit"] != u]
    if missing:
        print(f"perfbench: metrics not produced as declared: {missing}",
              file=sys.stderr)
        return 3
    n = record["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  checks {n}")
    for name, unit in declared:
        print(f"{name:40s} {metrics[name]['value']:14.6g} {unit}")
    print(f"{'fail_ratio':40s} {record['fail_ratio']:14.6g} ratio "
          f"({record['failed']} of {n})")
    if n < MIN_CHECKS:
        print(f"warning: checks {n} < {MIN_CHECKS}: check_ms_p99 rests on "
              f"{n // 100} samples above it")
    for rec in record["failures"][:3]:
        print(f"failure: {json.dumps(rec)}")
    print(f"env {json.dumps(record['env'])}")
    print(json.dumps({"correct": correct, "attempted": n,
                      "failed": record["failed"],
                      "metrics": {k: metrics[k] for k, _ in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
