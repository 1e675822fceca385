"""Matrix-oracle and class-calculus rows of the modwd BENCH file.

    python3 bench/run_bench.py --n N [--src PATH] [--against PATH]

writes BENCH_<N>.json at the repository root.  It imports modwd from
PATH (default: src/ of this checkout), so one copy of this script can
measure another checkout, e.g. a clone of an earlier commit.  The
record's `env` names that package by `src_sha256` and gives its size as
`src_lines`, the summed `wc -l` of its modules.  Rows:

- `decompose_transported_us`: CPU microseconds per `decompose` of a
  transported realization P (lam U) P^-1, P F P^-1, over 2,000 seeded
  classes drawn from `enumerate_line_classes` at (5,2), dim <= 12; the
  transport is built before timing.  `decompose_realized_us` times
  `decompose(realize(a))` of the same classes, and `realize_us` the
  realization alone.
- `line_classes_s`: CPU seconds to build `enumerate_line_classes(ctx,
  12)` at (5,2) (80,139 classes) and look up CLASSES seeded indices in
  it, with the sha256 of the looked-up classes' reprs (`result_sha256`).
- `charpoly_us` at n = 12, 32 and 64 over F(5^2), on seeded random
  matrices.  `rref_us` over F(5^2) at 3 x 3, 12 x 12 and 64 x 64 of full
  rank, 12 x 12 of rank 3 (an eigenspace projector) and 12 x 24 [P | I]
  (what `inverse` reduces); each row checks the rank and keeps the sha256
  of its forms and pivots (`result_sha256`).
- `matmul_us`: CPU microseconds per `FMat` product of seeded random
  matrices, n x n by n x n and by n x 1 at n = 3, 12, 32 and 64, over
  F(5^2), F(3^4) and F(2^6).  Every product is checked against a sum of
  outer products in the field's entrywise arithmetic, and each row keeps
  the sha256 of its products (`result_sha256`), so that two files can be
  checked to hold the same results.
- `field_build_ms`: CPU milliseconds to build F(3^6), F(7^3) and F(2^12)
  with `FiniteField(ell, k)` (not the cached `finite_field`): the modulus
  search and the tables.
- `oracle_us`: CPU microseconds per `oracle_tensor_ss(a, b)` over
  ORACLE_PAIRS seeded pairs per context at (5,2), (3,2), (2,3) and (3,4),
  drawn uniformly from the ordered pairs of `enumerate_line_classes(ctx,
  8)` with 16 <= dim a * dim b <= 64; every result is checked against
  `tensor_ss`, computed before timing.
- `preservation_pair_us`: CPU microseconds per `check_preservation(pi,
  pi2, with_v_side=False)` (both `PairSide`s and the comparison, as the
  `pairs` workload checks a pair) over PRESERVATION_PAIRS seeded pairs of
  the (5,2) criterion-2 grid; every pair must match.
  `compare_sides_us` times criterion 2's inner loop alone, `compare_sides`
  over the same pairs' precomputed sides.  `hash_calls_per_pair` counts
  the calls of the builtin `hash` per `check_preservation` under cProfile.
- `local_constants_us`: CPU microseconds per `local_constants(a)` (L,
  gamma and epsilon) over the CLASSES classes of the `decompose` rows,
  with the sha256 of their reprs (`result_sha256`).
- `criterion_4_s`: the sweeps of `test_criterion_4_classification_roundtrip`,
  the full grid of `verify.SWEEPS["roundtrip"]`, each run through
  `verify.run` in this process (two pool workers for the full roundtrips,
  as in the test), wall and CPU seconds.  A speed probe is taken before
  the first sweep and after each one, and each sweep's CPU time is
  scaled by the probes on either side of it (`sweeps`); `scaled_cpu_s`
  is their sum.  A modwd package older than `verify.SWEEPS` has no such
  row: measure it with its own checkout's copy of this script.

Each row but criterion 4 is the median of REPEAT passes, with every
pass reported.  Times are CPU seconds of this process.  A shared virtual
machine switches between speeds far apart, and that moves CPU time too,
so every pass (and every criterion-4 sweep) is bracketed by probes of
`perfbench/calibrate.factor()`, a fixed computation of modwd's kind of
work in code of its own: the pass's factor is the mean of the median of
PROBES probes just before it and of PROBES just after, 1 at the
reference speed and above 1 on a slower host.  Each row reports the raw
times (`median`, `passes`), the factors (`factors`) and the times divided
by them (`scaled_median`, `scaled_passes`).  Compare the scaled figures
of two files written on the same machine, one after the other.

Even scaled, one pair of files cannot resolve a 20% move.  `--against
PATH` also runs the AGAINST_ROWS passes of the modwd package under PATH
(e.g. a clone of the parent commit) and of `--src` alternately, each in a
worker process of its own, for ROUNDS rounds; the side that goes first
alternates from round to round.  The rows are the three factor rows, the
two `decompose` rows and the (5,2) `oracle_us` row, on the same inputs
as the rows above.  Both workers must produce the same results (sha256
of the reports and reprs).  The record's `against` entry
holds, per row, both sides' CPU microseconds per call in every round, the
ratio change / parent of each round, the median ratio and the number of
rounds the change won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLASSES = 2000
SEED = 20261018
REPEAT = 5
ORACLE_PAIRS = 100
PRESERVATION_PAIRS = 2000
PROBES = 5
ROUNDS = 20
AGAINST_ROWS = ("preservation_pair_us", "compare_sides_us",
                "local_constants_us", "decompose_realized_us",
                "decompose_transported_us", "oracle_us (5,2)")


def _git_sha(src: Path):
    """HEAD of the work tree holding src, with "+dirty" when src differs
    from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("+dirty" if dirty else "")


def _src_digest(src: Path):
    h = hashlib.sha256()
    for p in sorted((src / "modwd").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _src_lines(src: Path):
    """The summed `wc -l` of the package's modules."""
    return sum(p.read_bytes().count(b"\n")
               for p in (src / "modwd").glob("*.py"))


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _speed():
    from calibrate import factor
    return statistics.median(factor() for _ in range(PROBES))


def _timed(fn):
    """(CPU seconds of fn(), the speed factor probed around it)."""
    f0 = _speed()
    t0 = time.process_time()
    fn()
    t = time.process_time() - t0
    return t, (f0 + _speed()) / 2


def _median_row(passes, **extra):
    """A row of (raw time, speed factor) passes, raw and scaled."""
    raw = [t for t, _ in passes]
    scaled = [t / f for t, f in passes]
    return dict(extra, median=statistics.median(raw),
                scaled_median=statistics.median(scaled), passes=raw,
                factors=[f for _, f in passes], scaled_passes=scaled)


def _rand_fmat(FMat, field, n, m, rng):
    return FMat(field, [[rng.randrange(field.order) for _ in range(m)]
                        for _ in range(n)])


def _check(ok, what):
    if not ok:
        raise RuntimeError(f"wrong result: {what}")


def _class_sample(ctx, rng):
    """CLASSES classes drawn from `enumerate_line_classes(ctx, 12)`."""
    from modwd.verify import enumerate_line_classes

    pool = enumerate_line_classes(ctx, 12)
    return [pool[rng.randrange(len(pool))] for _ in range(CLASSES)]


def bench_line_classes():
    from modwd import make_ctx
    from modwd.verify import enumerate_line_classes

    ctx = make_ctx(5, 2)
    sample = []

    def build_and_look_up():
        pool = enumerate_line_classes(ctx, 12)
        rng = random.Random(SEED)
        sample[:] = [pool[rng.randrange(len(pool))] for _ in range(CLASSES)]

    passes = [_timed(build_and_look_up) for _ in range(REPEAT)]
    digest = hashlib.sha256("".join(f"{a!r}\n" for a in sample).encode())
    return _median_row(passes, context="(5,2)", max_dim=12, lookups=CLASSES,
                       result_sha256=digest.hexdigest())


def _decompose_inputs():
    """The (5,2) context, the CLASSES classes of the `decompose` rows and
    (class, transported realization) pairs."""
    from modwd import make_ctx, realize
    from modwd._linalg import FMat
    from modwd.matrixmodel import MatrixDeligne

    ctx = make_ctx(5, 2)
    field = ctx.field
    rng = random.Random(SEED)
    sample = _class_sample(ctx, rng)
    moved = []
    for a in sample:
        m = realize(a, ctx)
        lam = rng.randrange(1, field.order)
        while True:
            P = _rand_fmat(FMat, field, m.dim, m.dim, rng)
            try:
                Pi = P.inverse()
                break
            except ValueError:  # singular: draw again
                pass
        moved.append((a, MatrixDeligne(P @ m.F @ Pi, P @ m.U.scale(lam) @ Pi)))
    return ctx, sample, moved


def bench_decompose():
    from modwd import realize
    from modwd.matrixmodel import decompose

    ctx, sample, moved = _decompose_inputs()
    rows = {"realize_us": [], "decompose_realized_us": [],
            "decompose_transported_us": []}
    ms = []

    def realized():
        ms[:] = [realize(a, ctx) for a in sample]

    def decomposed():
        for a, m in zip(sample, ms):
            _check(decompose(m, ctx) == a, repr(a))

    def transported():
        for a, mc in moved:
            _check(decompose(mc, ctx) == a, f"transported {a!r}")

    for _ in range(REPEAT):
        for name, fn in (("realize_us", realized),
                         ("decompose_realized_us", decomposed),
                         ("decompose_transported_us", transported)):
            t, f = _timed(fn)
            rows[name].append((t / CLASSES * 1e6, f))
    mean_dim = sum(a.dim() for a in sample) / CLASSES
    return {k: _median_row(v, context="(5,2)", classes=CLASSES,
                           mean_dim=mean_dim)
            for k, v in rows.items()}


def _per_call(fn, items):
    """REPEAT passes of fn over items, as (microseconds per call, factor)."""
    passes = []
    for _ in range(REPEAT):
        t, f = _timed(lambda: [fn(x) for x in items])
        passes.append((t / len(items) * 1e6, f))
    return passes


def bench_kernels():
    import numpy as np
    from modwd._linalg import FMat
    from modwd.field import finite_field

    field = finite_field(5, 2)
    rng = random.Random(SEED)
    out = {}
    out["charpoly_us"] = {
        str(n): _median_row(_per_call(FMat.charpoly, [
            _rand_fmat(FMat, field, n, n, rng) for _ in range(count)]),
            field="F(5^2)", matrices=count)
        for n, count in ((12, 200), (32, 20), (64, 5))}
    out["rref_us"] = {}
    for shape, rank, count, mats in _rref_inputs(FMat, field, rng):
        digest = hashlib.sha256()
        for A in mats:
            R, pivots = A.rref()
            _check(len(pivots) == rank, f"rank of {shape}")
            digest.update(R.a.astype(np.int64).tobytes())
            digest.update(np.array(pivots, dtype=np.int64).tobytes())
        out["rref_us"][shape] = _median_row(
            _per_call(FMat.rref, mats), field="F(5^2)", matrices=count,
            result_sha256=digest.hexdigest())
    return out


def _rref_inputs(FMat, field, rng):
    """(shape, rank, count, matrices) of each `rref_us` row: random square
    matrices of full rank, a rank-3 projector P diag(1, 1, 1, 0, ...) P^-1
    as `_adapted` reduces, and [P | I] as `inverse` reduces."""
    def invertible(n):
        while True:
            P = _rand_fmat(FMat, field, n, n, rng)
            if P.rank() == n:
                return P

    def projector():
        P = invertible(12)
        return P @ FMat.diag(field, [1] * 3 + [0] * 9) @ P.inverse()

    rows = [("3x3", 3, 2000, lambda: invertible(3)),
            ("12x12", 12, 500, lambda: invertible(12)),
            ("12x12 rank 3", 3, 500, projector),
            ("12x24 [P|I]", 12, 300, lambda: FMat.hstack(
                [invertible(12), FMat.identity(field, 12)])),
            ("64x64", 64, 20, lambda: invertible(64))]
    return [(shape, rank, count, [make() for _ in range(count)])
            for shape, rank, count, make in rows]


def bench_matmul():
    import numpy as np
    from modwd._linalg import FMat
    from modwd.field import finite_field

    out = {}
    for ell, k in ((5, 2), (3, 4), (2, 6)):
        field = finite_field(ell, k)
        rng = random.Random(f"{SEED}:matmul:{ell},{k}")
        for n in (3, 12, 32, 64):
            for m in (n, 1):
                count = {3: 1000, 12: 400, 32: 100, 64: 30}[n]
                pairs = [(_rand_fmat(FMat, field, n, n, rng),
                          _rand_fmat(FMat, field, n, m, rng))
                         for _ in range(count)]
                digest = hashlib.sha256()
                for A, B in pairs:
                    C = (A @ B).a
                    want = np.zeros((n, m), dtype=np.intp)
                    for t in range(n):
                        want = field.add_arr(want, field.mul_arr(
                            A.a[:, t, None], B.a[None, t, :]))
                    _check(np.array_equal(C, want), f"F({ell}^{k}) {n}x{m}")
                    digest.update(C.astype(np.int64).tobytes())
                out[f"F({ell}^{k}) {n}x{n}x{m}"] = _median_row(
                    _per_call(lambda AB: AB[0] @ AB[1], pairs),
                    products=count, result_sha256=digest.hexdigest())
    return out


def bench_fields():
    from modwd.field import FiniteField

    out = {}
    for ell, k in ((3, 6), (7, 3), (2, 12)):
        passes = []
        for _ in range(REPEAT):
            t, f = _timed(lambda: FiniteField(ell, k))
            passes.append((t * 1e3, f))
        out[f"{ell}^{k}"] = _median_row(passes, order=ell ** k)
    return out


def _oracle_pairs(ell, q):
    """ORACLE_PAIRS seeded (a, b, tensor_ss(a, b)) of the `oracle_us` row
    of context (ell, q)."""
    from modwd import make_ctx, tensor_ss
    from modwd.verify import enumerate_line_classes

    ctx = make_ctx(ell, q)
    classes = [c for c in enumerate_line_classes(ctx, 8) if c.dim() >= 2]
    rng = random.Random(f"{SEED}:{ell},{q}")
    pairs = []
    while len(pairs) < ORACLE_PAIRS:
        a, b = rng.choice(classes), rng.choice(classes)
        if 16 <= a.dim() * b.dim() <= 64:
            pairs.append((a, b, tensor_ss(a, b)))
    return pairs


def bench_oracle():
    from modwd import oracle_tensor_ss

    out = {}
    for ell, q in ((5, 2), (3, 2), (2, 3), (3, 4)):
        pairs = _oracle_pairs(ell, q)

        def run():
            for a, b, want in pairs:
                _check(oracle_tensor_ss(a, b) == want, f"{a!r} (x) {b!r}")

        passes = []
        for _ in range(REPEAT):
            t, f = _timed(run)
            passes.append((t / ORACLE_PAIRS * 1e6, f))
        out[f"({ell},{q})"] = _median_row(
            passes, pairs=ORACLE_PAIRS,
            mean_dim_product=sum(a.dim() * b.dim() for a, b, _ in pairs)
            / ORACLE_PAIRS)
    return out


def _against_passes(rows):
    """Row -> (fn, items) for the given AGAINST_ROWS, each warmed once,
    and row -> sha256 of the results (report lines or reprs).  The items
    are PRESERVATION_PAIRS seeded pairs of the (5,2) criterion-2 grid,
    their precomputed `PairSide`s, the classes of the `decompose` rows,
    their realizations and transported realizations, and the (5,2) pairs
    of the `oracle_us` row."""
    from modwd import check_preservation, oracle_tensor_ss, realize
    from modwd.factors import local_constants
    from modwd.gln import PairSide, compare_sides
    from modwd.matrixmodel import decompose
    from modwd.verify import enumerate_generic_reps

    ctx, classes, moved = _decompose_inputs()
    reps = enumerate_generic_reps(ctx, max_segments=3, max_len=4, max_k=1)
    rng = random.Random(f"{SEED}:pairs")
    pairs = [tuple(sorted((rng.randrange(len(reps)), rng.randrange(len(reps)))))
             for _ in range(PRESERVATION_PAIRS)]
    pairs = [(reps[i], reps[j]) for i, j in pairs]
    sides = [(PairSide(a), PairSide(b)) for a, b in pairs]

    def check(pair):
        report = check_preservation(*pair, with_v_side=False)
        if not report.all_match:
            _check(False, f"{pair[0]!r} x {pair[1]!r}")
        return report

    def decomposed(am):
        got = decompose(am[1], ctx)
        _check(got == am[0], repr(am[0]))
        return (got,)

    def oracle(abw):
        got = oracle_tensor_ss(*abw[:2])
        _check(got == abw[2], f"{abw[0]!r} (x) {abw[1]!r}")
        return (got,)

    passes = {"preservation_pair_us": (check, pairs),
              "compare_sides_us": (lambda s: compare_sides(*s), sides),
              "local_constants_us": (local_constants, classes),
              "decompose_realized_us": (decomposed, [
                  (a, realize(a, ctx)) for a in classes]),
              "decompose_transported_us": (decomposed, moved),
              "oracle_us (5,2)": (oracle, _oracle_pairs(5, 2))}
    passes = {row: passes[row] for row in rows}
    digests = {}
    for row, (fn, items) in passes.items():
        digest = hashlib.sha256()
        for x in items:  # warm the caches, as the sweeps are warm
            out = fn(x)
            for line in (map(repr, out) if isinstance(out, tuple)
                         else out.lines()):
                digest.update(line.encode() + b"\n")
        digests[row] = digest.hexdigest()
    return passes, digests


def bench_preservation():
    import cProfile
    import pstats

    passes, digests = _against_passes(
        ("preservation_pair_us", "compare_sides_us", "local_constants_us"))
    check, pairs = passes["preservation_pair_us"]
    prof = cProfile.Profile()
    prof.runcall(lambda: [check(pair) for pair in pairs])
    hashes = sum(calls for (_, _, name), (_, calls, *_) in
                 pstats.Stats(prof).stats.items()
                 if name == "<built-in method builtins.hash>")
    extra = dict(context="(5,2)", pairs=PRESERVATION_PAIRS)
    rows = {row: _median_row(_per_call(*passes[row]), **extra)
            for row in ("preservation_pair_us", "compare_sides_us")}
    rows["local_constants_us"] = _median_row(
        _per_call(*passes["local_constants_us"]), context="(5,2)",
        classes=CLASSES, result_sha256=digests["local_constants_us"])
    rows["hash_calls_per_pair"] = dict(extra, value=hashes / len(pairs))
    return rows


def worker():
    """Serve --against: print the AGAINST_ROWS digests, then for each row
    name read on stdin run one pass and print its CPU microseconds per
    call."""
    passes, digests = _against_passes(AGAINST_ROWS)
    print(json.dumps(digests), flush=True)
    for line in sys.stdin:
        fn, items = passes[line.strip()]
        t0 = time.process_time()
        for x in items:
            fn(x)
        t = time.process_time() - t0
        print(json.dumps(t / len(items) * 1e6), flush=True)


def against(src: Path, parent: Path, rounds):
    """The AGAINST_ROWS of src and of parent, interleaved in two workers."""
    procs = {}
    times = {row: {"change": [], "parent": []} for row in AGAINST_ROWS}
    try:
        for side, path in (("change", src), ("parent", parent)):
            env = dict(os.environ, PYTHONPATH=str(path))
            procs[side] = subprocess.Popen(
                [sys.executable, __file__, "--worker", "--src", str(path)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=env)
        digests = {side: json.loads(p.stdout.readline())
                   for side, p in procs.items()}
        _check(digests["change"] == digests["parent"],
               f"the two checkouts' results differ: {digests}")
        for r in range(rounds):
            order = (("change", "parent") if r % 2 == 0
                     else ("parent", "change"))
            for row in AGAINST_ROWS:
                for side in order:
                    p = procs[side]
                    p.stdin.write(row + "\n")
                    p.stdin.flush()
                    times[row][side].append(json.loads(p.stdout.readline()))
    finally:
        for p in procs.values():  # end of input ends the worker
            p.stdin.close()
            p.wait()
    out = {"parent_src": str(parent), "rounds": rounds}
    for row, t in times.items():
        ratios = [c / b for c, b in zip(t["change"], t["parent"])]
        out[row] = dict(change_us=t["change"], parent_us=t["parent"],
                        ratios=ratios, median_ratio=statistics.median(ratios),
                        wins=sum(x < 1 for x in ratios),
                        result_sha256=digests["change"][row])
    return out


def bench_criterion_4():
    """The sweeps of test_criterion_4_classification_roundtrip, each scaled
    by the speed probes on either side of it."""
    from modwd.verify import SWEEPS, run

    probes, sweeps = [_speed()], []
    for sweep, _, full, processes in SWEEPS["roundtrip"]:
        w0, c0 = time.perf_counter(), _cpu()
        s = run(sweep, *full, processes=processes)
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        probes.append(_speed())
        _check(s.passed, s.line())
        f = (probes[-2] + probes[-1]) / 2
        sweeps.append({"name": s.name, "checks": s.checked, "wall_s": wall,
                       "cpu_s": cpu, "factor": f, "scaled_cpu_s": cpu / f})
    return {"wall_s": sum(s["wall_s"] for s in sweeps),
            "cpu_s": sum(s["cpu_s"] for s in sweeps),
            "scaled_cpu_s": sum(s["scaled_cpu_s"] for s in sweeps),
            "checks": sum(s["checks"] for s in sweeps), "budget_s": 60.0,
            "probes": probes, "sweeps": sweeps}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", help="suffix of BENCH_<n>.json")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the modwd package to measure")
    ap.add_argument("--against", type=Path, metavar="PATH",
                    help="a second modwd package directory (e.g. the "
                    "parent's src/) to interleave the AGAINST_ROWS with")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = args.src.resolve()
    for path in (src, args.against and args.against.resolve()):
        if path and not (path / "modwd").is_dir():
            ap.error(f"no modwd package under {path}")
    sys.path.insert(0, str(src))
    if args.worker:
        return worker()
    if args.n is None:
        ap.error("--n is required")
    # perfbench/calibrate.py, last so that no name there shadows another
    sys.path.append(str(ROOT / "perfbench"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import numpy as np

    rows = {"line_classes_s": bench_line_classes()}
    rows.update(bench_decompose())
    rows.update(bench_kernels())
    rows["matmul_us"] = bench_matmul()
    rows["field_build_ms"] = bench_fields()
    rows["oracle_us"] = bench_oracle()
    rows.update(bench_preservation())
    rows["criterion_4_s"] = bench_criterion_4()
    if args.against:
        rows["against"] = against(src, args.against.resolve(), ROUNDS)
    record = {
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "git_sha": _git_sha(src),
                "src_sha256": _src_digest(src), "src_lines": _src_lines(src),
                "unit": "CPU microseconds unless a row says otherwise"},
        "rows": rows,
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    print(f"{'row':32s} {'raw':>10s} {'scaled':>10s}")
    named = [(name, rows[name]) for name in
             ("realize_us", "decompose_realized_us", "decompose_transported_us",
              "preservation_pair_us", "compare_sides_us",
              "local_constants_us")]
    for group, label in (("charpoly_us", "n={}"), ("rref_us", "{}"),
                         ("matmul_us", "{}"),
                         ("field_build_ms", "F({})"), ("oracle_us", "{}")):
        named += [(f"{group} {label.format(key)}", row)
                  for key, row in rows[group].items()]
    for name, row in named:
        print(f"{name:32s} {row['median']:10.1f} {row['scaled_median']:10.1f}")
    print(f"{'hash_calls_per_pair':32s} "
          f"{rows['hash_calls_per_pair']['value']:10.1f}")
    lc = rows["line_classes_s"]
    print(f"{'line_classes_s':32s} {lc['median']:10.3f} {lc['scaled_median']:10.3f}")
    c4 = rows["criterion_4_s"]
    print(f"{'criterion_4_s CPU':32s} {c4['cpu_s']:10.1f} {c4['scaled_cpu_s']:10.1f}"
          f"  ({c4['wall_s']:.1f} s wall)")
    if args.against:
        print(f"against {rows['against']['parent_src']}, "
              f"{ROUNDS} rounds: median change / parent, wins")
        for row in AGAINST_ROWS:
            r = rows["against"][row]
            print(f"{row:32s} {r['median_ratio']:10.3f} "
                  f"{r['wins']:4d}/{ROUNDS}")


if __name__ == "__main__":
    main()
