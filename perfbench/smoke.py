"""The benchmark's own smoke test: every workload end to end at a tiny size.

    python3 perfbench/smoke.py

For each workload it runs with `--seconds 0` (one check) untraced and
traced and checks the shape of the result line against BENCHMARK.json;
feeds one deliberately wrong expected result and checks that it is counted
as a failure, with a replayable record; checks that the pairs workload
never reaches the matrix layers and the other two never reach the factor
algebra (they are each other's no-change controls); checks that the trace
balance rejects overlapping and out-of-window spans and that no function
is traced twice; and checks that the benchmark fails without a result in
a directory holding only BENCHMARK.json and perfbench.  Exits 0 when
everything holds, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seconds", "0"]

problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def bench(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7"] + list(extra)
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd,
                          timeout=300)


def result_of(proc, label):
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        expect(False, f"{label}: last line is not JSON")
        return None


def check_shape(res, section, label):
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(res)}")
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1
           and isinstance(res["failed"], int), f"{label}: counts")
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    expect(set(res["metrics"]) == set(declared),
           f"{label}: metric names differ from BENCHMARK.json {section}")
    for name, m in res["metrics"].items():
        expect(set(m) == {"value", "unit"} and m["unit"] == declared.get(name)
               and isinstance(m["value"], (int, float)),
               f"{label}: metric {name} {m}")


def check_balance():
    """The trace balance on hand-made spans: nested spans inside the window
    balance; overlapping roots, a child outside its parent and a root
    outside the window do not.  And a traced function is not wrapped
    again."""
    sys.path.insert(0, str(HERE))
    import tracing

    def balanced(spans, wall_end=10.0):
        tr = tracing.Tracer()
        tr.t0 = 0.0
        tr.spans = [(sid, par, "x", start, end)
                    for sid, (par, start, end) in enumerate(spans)]
        # self time as the wrappers accumulate it: each child's duration
        # is taken once off its parent's
        child_time = {}
        for _, par, _, start, end in tr.spans:
            child_time[par] = child_time.get(par, 0.0) + end - start
        tr.stats = {"x": [len(spans), sum(end - start - child_time.get(sid, 0.0)
                                          for sid, _, _, start, end in tr.spans),
                          0]}
        return tr.balance(wall_end)[1]

    expect(balanced([(-1, 1.0, 4.0), (0, 2.0, 3.0), (-1, 5.0, 9.0)]),
           "balance: nested spans in the window do not balance")
    expect(not balanced([(-1, 1.0, 4.0), (-1, 3.0, 6.0)]),
           "balance: overlapping root spans balance")
    expect(not balanced([(-1, 1.0, 4.0), (0, 3.0, 5.0)]),
           "balance: a child outside its parent balances")
    expect(not balanced([(-1, 8.0, 12.0)]),
           "balance: a span past the window balances")

    tr = tracing.Tracer()
    module = types.ModuleType("traced_twice")
    module.f = tr.span("x", len)
    try:
        tr.wrap_function("y", module, "f")
        expect(False, "tracing: a function traced twice was wrapped again")
    except ValueError:
        pass


def main():
    for wl in (w["name"] for w in SPEC["workloads"]):
        res = result_of(bench(wl, "--trace", "0", *TINY), f"{wl} trace 0")
        if res:
            check_shape(res, "end_to_end", f"{wl} trace 0")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{wl} trace 0: verdict {res}")

        res = result_of(bench(wl, "--trace", "1", *TINY), f"{wl} trace 1")
        if res:
            check_shape(res, "per_layer", f"{wl} trace 1")
            expect(res["correct"], f"{wl} trace 1: not correct")
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if wl == "pairs":
                for name in ("linalg.matmul.calls", "linalg.rref.calls",
                             "linalg.fmat.allocs", "matrixmodel.realize.calls",
                             "matrixmodel.decompose.calls"):
                    expect(m[name] == 0, f"pairs reached {name}: {m[name]}")
            else:
                expect(m["factors.calls"] == 0,
                       f"{wl} reached the factor algebra")
                expect(m["matrixmodel.decompose.calls"] > 0,
                       f"{wl} never decomposed")

        res = result_of(bench(wl, "--trace", "0", "--corrupt-index", "0",
                              *TINY), f"{wl} corrupted")
        if res:
            expect(not res["correct"] and res["failed"] == 1
                   and res["attempted"] >= 1,
                   f"{wl}: a wrong expected result was not counted: {res}")
            record = json.loads((HERE / "out" / f"run-{wl}-s7-t0.json")
                                .read_text(encoding="utf-8"))
            fails = record["failures"]
            expect(len(fails) == 1 and fails[0]["seed"] == 7
                   and fails[0]["index"] == 0 and fails[0]["inputs"]
                   and "modwd" in fails[0]["replay"],
                   f"{wl}: failure record {fails}")

    check_balance()

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = bench("pairs", "--seconds", "1", "--trace", "0", cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and '"correct"' not in last,
           f"bare directory: exit {proc.returncode}, last line {last!r}")
    shutil.rmtree(bare)

    print("smoke: " + ("OK" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
