"""One workload in a fresh interpreter; `run.py` starts it and reads the
single JSON line it prints.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE
        [--trace SPANS_FILE] [--corrupt-index I]

MODE `setup` stops once the workload is set up and reports the CPU time
spent so far, interpreter start and `import modwd` included.  MODE
`measure` then runs checks 0, 1, 2, ... until SECONDS of wall time have
passed (at least one check) and reports counts, per-check times, peak
RSS, failures and, with --trace, the per-layer metrics (the spans
themselves go to SPANS_FILE).

Times are CPU time of this process and its reaped children, not wall
time.  On a virtual machine shared with other tenants, the wall clock also
counts the time the host steals from the vCPU.  That made the wall-clock
p99 of `pairs` vary up to threefold between runs, while its CPU-time p99
moved by a few percent.  Over the timed phase, CPU time was 96-100% of wall
time on every workload.

CPU time still moves with the speed of the vCPU, so every reported time
is scaled to a reference speed (see calibrate.py).  The checks run in
blocks of at least BLOCK_S CPU seconds, with the reference computation
timed before the first block and after each block.  checks_per_s divides
each block's CPU time by the mean of the two factors on either side of
it.  The percentiles divide each check's time by the mean factor of the
timings within WINDOW_S of its block.  A single timing can catch the vCPU
in a fast moment of a few milliseconds; dividing a whole block by it puts
the block's checks in the tail, and that made the p99 of `roundtrip`
spread by 0.11 to 0.12 between runs.  A single factor for the whole run
does not follow the stretches of seconds at one speed, and made the p99
of `pairs` spread by 0.11.

The set-up time is divided by the mean of the median factors from just
before `import modwd` and just after the set-up, and the reference
computation's own time is left out of it.  The unscaled figures are
reported too, under `raw_`.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import calibrate


# failures beyond this many are counted but not described
MAX_RECORDS = 20
# CPU seconds of checks between two timings of the reference computation
BLOCK_S = 0.1
# CPU seconds on either side of a block whose factors scale its checks for
# the percentiles
WINDOW_S = 0.5
# timings of the reference computation on each side of the set-up
SETUP_FACTORS = 3


class _Wrong:
    """An expected result that equals nothing: fed in by --corrupt-index to
    show that a wrong result is counted as a failure."""

    def __eq__(self, other):
        return False

    def __repr__(self):
        return "<deliberately wrong expected result>"


def _import_modwd(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import modwd
    if Path(modwd.__file__).resolve().parent != (src / "modwd").resolve():
        raise SystemExit(f"modwd imported from {modwd.__file__}, not {src}")
    return modwd


def _cpu():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _setup_factor():
    """Median speed factor of SETUP_FACTORS timings, and the CPU time they
    took."""
    t = _cpu()
    f = statistics.median(calibrate.factor() for _ in range(SETUP_FACTORS))
    return f, _cpu() - t


def _scaled(times, blocks, factors, stamps):
    """checks_per_s, p50 and p99 from unscaled check times.  `blocks`
    holds the index of the first check of each block; `factors` holds the
    reference factor before each block and after the last one, and
    `stamps` the CPU time at which each was taken."""
    ends = blocks[1:] + [len(times)]
    cpu, ranked = 0.0, []
    for k, (first, end) in enumerate(zip(blocks, ends)):
        block = times[first:end]
        cpu += sum(block) / ((factors[k] + factors[k + 1]) / 2)
        lo = bisect.bisect_left(stamps, stamps[k] - WINDOW_S)
        hi = bisect.bisect_right(stamps, stamps[k + 1] + WINDOW_S)
        window = statistics.fmean(factors[lo:hi])
        ranked += [t / window for t in block]
    return len(times) / cpu, _quantile_ms(ranked, 50), _quantile_ms(ranked, 99)


def _quantile_ms(times, pct):
    if len(times) < 2:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1] * 1e3


def _failure_record(wl, seed, index, observed, expected, error):
    record = {"workload": wl.name, "seed": seed, "index": index}
    if error is not None:
        record["error"] = error
    else:
        record["observed"] = repr(observed)[:2000]
        record["expected"] = repr(expected)[:2000]
    case = wl.case(index)  # fresh: the checked case consumed its rng
    record["ctx"] = {"ell": case.ctx.ell, "q": case.ctx.q_residue}
    try:
        record.update(wl.describe(case))
    except Exception as exc:  # the record must survive a broken program
        record["describe_error"] = f"{type(exc).__name__}: {exc}"
    return record


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("root", type=Path)
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--trace", type=Path, metavar="SPANS_FILE")
    p.add_argument("--corrupt-index", type=int)
    args = p.parse_args(argv)

    before, cal_cpu = _setup_factor()
    modwd = _import_modwd(args.root)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    from workloads import WORKLOADS  # after install: it binds modwd's names

    wl = WORKLOADS[args.workload](args.seed)
    ready, ready_cpu = time.perf_counter(), _cpu()
    after, _ = _setup_factor()
    raw_setup = ready_cpu - cal_cpu
    setup = {"ready": ready, "setup_s": raw_setup / ((before + after) / 2),
             "raw_setup_s": raw_setup}
    if args.mode == "setup":
        print(json.dumps(setup))
        return

    times, failures = [], []
    failed = 0
    deadline = ready + args.seconds
    index = 0
    block_start = _cpu()
    blocks, factors, stamps = [0], [after], [block_start]
    loop_cal = block_start - ready_cpu
    while True:
        case = wl.case(index)
        t = _cpu()
        error = observed = expected = None
        try:
            observed, expected = wl.check(case)
            if index == args.corrupt_index:
                expected = _Wrong()
            ok = observed == expected
        except Exception as exc:  # a raising check is a failed check
            error = f"{type(exc).__name__}: {exc}"
            ok = False
        end_cpu = _cpu()
        times.append(end_cpu - t)
        if not ok:
            failed += 1
        if not ok and len(failures) < MAX_RECORDS:
            failures.append(_failure_record(wl, args.seed, index, observed,
                                            expected, error))
        index += 1
        end = time.perf_counter()
        if end >= deadline or end_cpu - block_start >= BLOCK_S:
            cpu = end_cpu - ready_cpu - loop_cal
            factors.append(calibrate.factor())
            block_start = _cpu()
            stamps.append(block_start)
            loop_cal += block_start - end_cpu
            if end >= deadline:
                break
            blocks.append(index)
    checks_per_s, p50, p99 = _scaled(times, blocks, factors, stamps)
    out = dict(setup, **{
        "attempted": len(times),
        "failed": failed,
        "cpu_s": cpu,
        "wall_s": end - ready,
        "checks_per_s": checks_per_s,
        "check_ms_p50": p50,
        "check_ms_p99": p99,
        "raw_checks_per_s": len(times) / sum(times),
        "raw_check_ms_p50": _quantile_ms(times, 50),
        "raw_check_ms_p99": _quantile_ms(times, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "grid_size": wl.grid_size,
        "failures": failures,
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "modwd": modwd.__version__},
    })
    if tracer is not None:
        layers, balanced = tracer.layer_metrics(end)
        out["layers"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in layers.items()}
        out["trace_balanced"] = balanced
        tracer.write_spans(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
