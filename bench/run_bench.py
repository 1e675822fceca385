"""Matrix-oracle and class-calculus rows of the modwd BENCH file.

    python3 bench/run_bench.py --n N [--src PATH] [--against PATH]

writes BENCH_<N>.json at the repository root.  It imports modwd from
PATH (default: src/ of this checkout), so one copy of this script can
measure another checkout, e.g. a clone of an earlier commit.  The
record's `env` names that package by `src_sha256` and gives its size as
`src_lines`, the summed `wc -l` of its modules.

Every row is a function and the seeded items it is called on.  A worker
process imports the package and builds every row, checking its results.
It calls each row's function once on all its items to warm the caches,
hashes the results into the row's `result_sha256`, and repeats the items
in a timed pass often enough for the pass to last MIN_PASS_S by the warm
pass's CPU time: a shorter pass is decided by one speed switch of a
shared virtual machine.  This process runs the rows in ROUNDS rounds,
asking the worker for one pass of each row in each round.  Every row
records, per round, the CPU microseconds per call of the worker and its
waited children (`change_us`), the wall
microseconds per call (`change_wall_us`), and the CPU median
(`median_us`).  Workers get PYTHONHASHSEED=0 (one set order on both
sides) and OPENBLAS_NUM_THREADS=1 (no BLAS thread spins through a pass).

`--against PATH` starts a second worker on the modwd package under PATH
(e.g. a clone of the parent commit), the side named `parent`.  In each
round the two sides run each row one after the other, and the side that
goes first alternates from round to round.  Both sides must give every
row the same `result_sha256`.  Each row then also holds `parent_us` and
`parent_wall_us`, the ratio change / parent of each round (`ratios`), the
`median_ratio`, and the rounds the change won (`wins`, ratio < 1) and
lost (`losses`, ratio > 1); a tie counts for neither.

Rows, all at (5,2) over F(5^2) unless named otherwise:
- `line_classes_s`: one call builds `enumerate_line_classes(ctx, 12)`
  (80,139 classes) and looks up CLASSES seeded indices in it.
- `realize_us`, `decompose_realized_us` and `decompose_transported_us`:
  `realize(a)`, `decompose(realize(a))` and `decompose` of a transported
  realization P (lam U) P^-1, P F P^-1, over CLASSES seeded classes of
  `enumerate_line_classes(ctx, 12)`; realizations and transports are
  built before timing.
- `charpoly_us` at n = 12, 32 and 64 on seeded random matrices.
  `rref_us` at 3 x 3, 12 x 12 and 64 x 64 of full rank, 12 x 12 of rank 3
  (an eigenspace projector) and 12 x 24 [P | I] (what `inverse` reduces),
  and at 1 x 1, 2 x 4, 5 x 5, 8 x 8 and 9 x 9 of full rank, each rank
  checked.  Up to 8 x 8 (ROW_LIST_CELLS = 64 cells) `rref` reduces on row
  lists; from 9 x 9 on in the wide encoding.  `rank_us` times `FMat.rank`
  on the same matrices.
- `matmul_us`: `FMat` products of seeded random matrices, n x n by n x n
  and by n x 1 at n = 3, 12, 32 and 64, over F(5^2), F(3^4) and F(2^6),
  each checked against a sum of outer products in the field's entrywise
  arithmetic.
- `field_build_ms`: `FiniteField(ell, k)` (not the cached `finite_field`)
  of F(3^6), F(7^3) and F(2^12): the modulus search and the tables.
- `oracle_us`: `oracle_tensor_ss(a, b)` over ORACLE_PAIRS seeded pairs per
  context at (5,2), (3,2), (2,3) and (3,4), drawn uniformly from the
  ordered pairs of `enumerate_line_classes(ctx, 8)` with 16 <= dim a *
  dim b <= 64; every result is checked against `tensor_ss`.
- `preservation_pair_us`: `check_preservation(pi, pi2,
  with_v_side=False)` (both `PairSide`s and the comparison, as the
  `pairs` workload checks a pair) over PRESERVATION_PAIRS seeded pairs of
  the criterion-2 grid; every pair must match.  `compare_sides_us` times
  criterion 2's inner loop alone, `compare_sides` over the same pairs'
  precomputed sides.  `hash_calls_per_pair` gives each side's count of
  calls of the builtin `hash` per `check_preservation`, under cProfile.
- `local_constants_us`: `local_constants(a)` (L, gamma and epsilon) over
  the classes of the `decompose` rows.
- `criterion_4_s`, `criterion_2_s` and `lmatrix_s`: one call checks one
  interleaved bucket of a (5,2) sweep of a Tier-1 test, serially, and must
  find 0 failures: `verify._check_rows(0, STRIDE, population)` walks the
  rows 0, STRIDE, 2 STRIDE, ... of the sweep on its full grid.  For
  `criterion_4_s` that is the roundtrip of
  `test_criterion_4_classification_roundtrip` (`verify.SWEEPS["roundtrip"]`),
  2,505 of its 80,139 classes at C4_STRIDE; for `criterion_2_s` the
  preservation sweep of `test_criterion_2_preservation_sweep`
  (`verify.SWEEPS["preservation"]`), 20,150 of its 316,410 pair checks at
  C2_STRIDE; for `lmatrix_s` the L-matrix sweep of
  `test_l_matrix_agreement_full_population` (`verify.SWEEPS["lmatrix"]`),
  2,505 of its 80,139 classes at LM_STRIDE.  A pass takes 1-2 s, so ROUNDS
  rounds fit.
- `criterion_5_s`, `criterion_6_s` and `criterion_3_s`, after them and
  in the same way: one bucket of the (5,2) tensor oracle sweep of
  `test_criterion_5_tensor_oracle` (`verify.SWEEPS["tensor"]`), 110 of
  its 210 checks, of the (5,2) epsilon sweep of
  `test_criterion_6_epsilon_invertibility` (`verify.SWEEPS["epsilon"]`),
  40,073 of its 80,145 checks, and of the multiplicativity sweep of
  `test_criterion_3_multiplicativity` (`verify.SWEEPS["multiplicativity"]`,
  at (5,2), (3,2) and (2,3), the other caller of `l_factor_matrix`), 68
  of its 135 checks, each at BUCKET_STRIDE.
  The three sweeps run on one process in the tests, so BUCKET_STRIDE = 2
  makes the two buckets of `verify.run`'s 2 * processes.
- `criterion_7_s`, `criterion_8_s` and `criterion_1_s` last, at the same
  BUCKET_STRIDE: one bucket of the (5,2) correspondence sweep of
  `test_criterion_7_correspondence_properties`
  (`verify.SWEEPS["correspondence"]`), of the profile-law sweep of
  `test_criterion_8_profile_laws` (`verify.SWEEPS["profile"]`, ell = 2,
  3, 5 and 7) and of the non-preservation witness of
  `test_criterion_1_non_preservation_witness` (`verify.SWEEPS["witness"]`).
  The witness compares its one pair while building its population, so
  its row builds the population in every call.  None of these three
  reaches `_linalg` or `matrixmodel`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLASSES = 2000
SEED = 20261018
ORACLE_PAIRS = 100
PRESERVATION_PAIRS = 2000
MIN_PASS_S = 0.2
ROUNDS = 20
C4_STRIDE = 32
C2_STRIDE = 16
LM_STRIDE = 32
# the stride of the six one-process sweeps, criteria 5, 6, 3, 7, 8 and 1
BUCKET_STRIDE = 2


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


def _package(src: Path):
    """Where the package under src comes from, its sha256 and its summed
    `wc -l`."""
    h = hashlib.sha256()
    lines = 0
    for p in sorted((src / "modwd").glob("*.py")):
        text = p.read_bytes()
        h.update(p.name.encode() + b"\0" + text)
        lines += text.count(b"\n")
    return {"src": str(src), "git_sha": _git_sha(src),
            "src_sha256": h.hexdigest(), "src_lines": lines}


def _cpu():
    """CPU seconds of this process and of its waited-for children."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def _rand_fmat(FMat, field, n, m, rng):
    return FMat(field, [[rng.randrange(field.order) for _ in range(m)]
                        for _ in range(n)])


def _check(ok, what):
    if not ok:
        raise RuntimeError(f"wrong result: {what}")


def _look_up(ctx, rng):
    """CLASSES classes drawn from `enumerate_line_classes(ctx, 12)`."""
    from modwd.verify import enumerate_line_classes

    pool = enumerate_line_classes(ctx, 12)
    return [pool[rng.randrange(len(pool))] for _ in range(CLASSES)]


def _decompose_inputs():
    """The (5,2) context, the CLASSES classes of the `decompose` rows and
    (class, transported realization) pairs."""
    from modwd import make_ctx, realize
    from modwd._linalg import FMat
    from modwd.matrixmodel import MatrixDeligne

    ctx = make_ctx(5, 2)
    field = ctx.field
    rng = random.Random(SEED)
    sample = _look_up(ctx, rng)
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


def _rref_inputs(FMat, field, rng):
    """(shape, rank, count, matrices) of each `rref_us` row: random
    matrices of full rank, a rank-3 projector P diag(1, 1, 1, 0, ...) P^-1
    as `_adapted` reduces, and [P | I] as `inverse` reduces."""
    def full_rank(n, m):
        while True:
            P = _rand_fmat(FMat, field, n, m, rng)
            if P.rank() == min(n, m):
                return P

    def invertible(n):
        return full_rank(n, n)

    def projector():
        P = invertible(12)
        return P @ FMat.diag(field, [1] * 3 + [0] * 9) @ P.inverse()

    rows = [("3x3", 3, 2000, lambda: invertible(3)),
            ("12x12", 12, 500, lambda: invertible(12)),
            ("12x12 rank 3", 3, 500, projector),
            ("12x24 [P|I]", 12, 300, lambda: FMat.hstack(
                [invertible(12), FMat.identity(field, 12)])),
            ("64x64", 64, 20, lambda: invertible(64)),
            ("1x1", 1, 5000, lambda: invertible(1)),
            ("2x4", 2, 4000, lambda: full_rank(2, 4)),
            ("5x5", 5, 2000, lambda: invertible(5)),
            ("8x8", 8, 1000, lambda: invertible(8)),
            ("9x9", 9, 1000, lambda: invertible(9))]
    return [(shape, rank, count, [make() for _ in range(count)])
            for shape, rank, count, make in rows]


def _kernel_rows():
    """The `charpoly_us`, `rref_us`, `matmul_us` and `field_build_ms` rows."""
    import numpy as np
    from modwd._linalg import FMat
    from modwd.field import FiniteField, finite_field

    field = finite_field(5, 2)
    rng = random.Random(SEED)
    rows = {}
    for n, count in ((12, 200), (32, 20), (64, 5)):
        rows[f"charpoly_us/{n}"] = (FMat.charpoly, [
            _rand_fmat(FMat, field, n, n, rng) for _ in range(count)],
            dict(field="F(5^2)", matrices=count))
    for shape, rank, count, mats in _rref_inputs(FMat, field, rng):
        for A in mats:
            _check(len(A.rref()[1]) == rank == A.rank(), f"rank of {shape}")
        info = dict(field="F(5^2)", matrices=count)
        rows[f"rref_us/{shape}"] = (FMat.rref, mats, info)
        rows[f"rank_us/{shape}"] = (FMat.rank, mats, info)
    for ell, k in ((5, 2), (3, 4), (2, 6)):
        field = finite_field(ell, k)
        rng = random.Random(f"{SEED}:matmul:{ell},{k}")
        for n in (3, 12, 32, 64):
            for m in (n, 1):
                count = {3: 1000, 12: 400, 32: 100, 64: 30}[n]
                pairs = [(_rand_fmat(FMat, field, n, n, rng),
                          _rand_fmat(FMat, field, n, m, rng))
                         for _ in range(count)]
                for A, B in pairs:
                    want = np.zeros((n, m), dtype=np.intp)
                    for t in range(n):
                        want = field.add_arr(want, field.mul_arr(
                            A.a[:, t, None], B.a[None, t, :]))
                    _check(np.array_equal((A @ B).a, want),
                           f"F({ell}^{k}) {n}x{m}")
                rows[f"matmul_us/F({ell}^{k}) {n}x{n}x{m}"] = (
                    lambda AB: AB[0] @ AB[1], pairs, dict(products=count))
    for ell, k in ((3, 6), (7, 3), (2, 12)):
        rows[f"field_build_ms/{ell}^{k}"] = (
            lambda ek: FiniteField(*ek), [(ell, k)], dict(order=ell ** k))
    return rows


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


def _rows():
    """Row name -> (fn, items, info) of every row, from the modwd package
    on sys.path; info describes the inputs.  A name "group/key" is the row
    `key` of the record's `group`."""
    from modwd import check_preservation, oracle_tensor_ss, realize
    from modwd.factors import local_constants
    from modwd.gln import PairSide, compare_sides
    from modwd.matrixmodel import decompose
    from modwd.verify import SWEEPS, _check_rows, enumerate_generic_reps

    ctx, classes, moved = _decompose_inputs()

    def decomposed(am):
        got = decompose(am[1], ctx)
        _check(got == am[0], repr(am[0]))
        return got

    def oracle(abw):
        got = oracle_tensor_ss(*abw[:2])
        _check(got == abw[2], f"{abw[0]!r} (x) {abw[1]!r}")
        return got

    def check(pair):
        report = check_preservation(*pair, with_v_side=False)
        _check(report.all_match, f"{pair[0]!r} x {pair[1]!r}")
        return report

    def first_bucket(name, build_each_call=False):
        """The check of one bucket of the first sweep of SWEEPS[name] on
        its full grid, given the stride; the population is built once, or
        in each call."""
        sweep, _, full, _ = SWEEPS[name][0]
        population = None if build_each_call else sweep(*full)

        def check(stride):
            pop = sweep(*full) if population is None else population
            checked, failures = _check_rows(0, stride, pop)
            _check(not failures, failures[:1])
            return checked
        return check

    reps = enumerate_generic_reps(ctx, max_segments=3, max_len=4, max_k=1)
    rng = random.Random(f"{SEED}:pairs")
    pairs = [tuple(sorted((rng.randrange(len(reps)), rng.randrange(len(reps)))))
             for _ in range(PRESERVATION_PAIRS)]
    pairs = [(reps[i], reps[j]) for i, j in pairs]
    class_info = dict(context="(5,2)", classes=CLASSES,
                      mean_dim=sum(a.dim() for a in classes) / CLASSES)
    pair_info = dict(context="(5,2)", pairs=PRESERVATION_PAIRS)
    rows = {"line_classes_s": (
                lambda ctx: _look_up(ctx, random.Random(SEED)), [ctx], dict(
                context="(5,2)", max_dim=12, lookups=CLASSES)),
            "realize_us": (lambda a: realize(a, ctx), classes, class_info),
            "decompose_realized_us": (decomposed, [
                (a, realize(a, ctx)) for a in classes], class_info),
            "decompose_transported_us": (decomposed, moved, class_info)}
    rows.update(_kernel_rows())
    for ell, q in ((5, 2), (3, 2), (2, 3), (3, 4)):
        items = _oracle_pairs(ell, q)
        rows[f"oracle_us/({ell},{q})"] = (oracle, items, dict(
            pairs=ORACLE_PAIRS, mean_dim_product=sum(
                a.dim() * b.dim() for a, b, _ in items) / ORACLE_PAIRS))
    rows["preservation_pair_us"] = (check, pairs, pair_info)
    rows["compare_sides_us"] = (lambda s: compare_sides(*s), [
        (PairSide(a), PairSide(b)) for a, b in pairs], pair_info)
    rows["local_constants_us"] = (local_constants, classes, class_info)
    rows["criterion_4_s"] = (first_bucket("roundtrip"), [C4_STRIDE], dict(
        context="(5,2)", budget_s=60.0, stride=C4_STRIDE))
    rows["criterion_2_s"] = (first_bucket("preservation"), [C2_STRIDE], dict(
        context="(5,2)", budget_s=120.0, stride=C2_STRIDE))
    rows["lmatrix_s"] = (first_bucket("lmatrix"), [LM_STRIDE], dict(
        context="(5,2)", stride=LM_STRIDE))
    for name, sweep, info in (
            ("criterion_5_s", "tensor", dict(context="(5,2)", budget_s=60.0)),
            ("criterion_6_s", "epsilon", dict(context="(5,2)")),
            ("criterion_3_s", "multiplicativity",
             dict(context="(5,2), (3,2), (2,3)", budget_s=10.0)),
            ("criterion_7_s", "correspondence", dict(context="(5,2)")),
            ("criterion_8_s", "profile", dict(ells=[2, 3, 5, 7])),
            ("criterion_1_s", "witness", dict(context="(5,2)", budget_s=1.0))):
        rows[name] = (first_bucket(sweep, build_each_call=sweep == "witness"),
                      [BUCKET_STRIDE], dict(info, stride=BUCKET_STRIDE))
    return rows


def _lines(out):
    """Text lines naming the value of out, for the result digests."""
    if isinstance(out, (tuple, list)):
        for x in out:
            yield from _lines(x)
    elif hasattr(out, "lines"):  # a PreservationReport
        yield from out.lines()
    elif hasattr(out, "U"):  # a MatrixDeligne
        yield from _lines((out.F, out.U))
    elif hasattr(out, "ncols"):  # an FMat
        yield f"{out.a.shape} {out.a.tolist()}"
    else:
        yield repr(out)


def worker():
    """Serve the rows: print a header of the rows' info and digests and of
    `hash_calls_per_pair`, then for each row name read on stdin run one
    pass and print [CPU, wall] microseconds per call."""
    import cProfile
    import pstats

    rows = _rows()
    header, repeats = {}, {}
    for name, (fn, items, info) in rows.items():
        t0 = _cpu()
        outs = [fn(x) for x in items]
        warm = _cpu() - t0
        repeats[name] = max(1, math.ceil(MIN_PASS_S / max(warm, 1e-9)))
        digest = hashlib.sha256()
        for line in _lines(outs):
            digest.update(line.encode() + b"\n")
        header[name] = {"rounds": ROUNDS, **info,
                        "result_sha256": digest.hexdigest()}
    check, pairs, _ = rows["preservation_pair_us"]
    prof = cProfile.Profile()
    prof.runcall(lambda: [check(pair) for pair in pairs])
    hashes = sum(calls for (_, _, name), (_, calls, *_) in
                 pstats.Stats(prof).stats.items()
                 if name == "<built-in method builtins.hash>")
    print(json.dumps({"rows": header,
                      "hash_calls_per_pair": hashes / len(pairs)}), flush=True)
    for line in sys.stdin:
        name = line.rstrip("\n")
        fn, items, _ = rows[name]
        c0, w0 = _cpu(), time.perf_counter()
        for _ in range(repeats[name]):
            for x in items:
                fn(x)
        per_call_us = 1e6 / (repeats[name] * len(items))
        print(json.dumps([(_cpu() - c0) * per_call_us,
                          (time.perf_counter() - w0) * per_call_us]), flush=True)


class Worker:
    """A worker process serving the rows of the modwd package under src."""

    def __init__(self, src: Path):
        self.src = src
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
                   OPENBLAS_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", "--src", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker on {self.src} ended")
        return json.loads(line)

    def header(self):
        return self._reply()

    def time(self, row):
        self.proc.stdin.write(row + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        self.proc.stdin.close()  # end of input ends the worker
        self.proc.wait()


def _summary(times, info):
    """The record of one row: info, and per side (name -> [[CPU, wall]
    microseconds per call of each round]) its figures."""
    out = dict(info)
    for side, t in times.items():
        out[f"{side}_us"] = [cpu for cpu, _ in t]
        out[f"{side}_wall_us"] = [wall for _, wall in t]
    out["median_us"] = statistics.median(out["change_us"])
    if "parent" in times:
        ratios = [c / p for c, p in zip(out["change_us"], out["parent_us"])]
        out.update(ratios=ratios, median_ratio=statistics.median(ratios),
                   wins=sum(x < 1 for x in ratios),
                   losses=sum(x > 1 for x in ratios))
    return out


def interleave(sides):
    """Run the rows of sides ("change", and "parent" if any, -> an object
    with `header()` and `time(row)`) in rounds, the side that goes first
    alternating from round to round.  Returns (row name -> record, side ->
    header)."""
    headers = {side: s.header() for side, s in sides.items()}
    rows = headers["change"]["rows"]
    for side, h in headers.items():
        differ = sorted(row for row in set(rows) | set(h["rows"])
                        if rows.get(row) != h["rows"].get(row))
        _check(not differ, f"{side} and change differ on rows {differ}")
    times = {row: {side: [] for side in sides} for row in rows}
    order = list(sides)
    for r in range(max(info["rounds"] for info in rows.values())):
        for row, info in rows.items():
            if r < info["rounds"]:
                for side in order:
                    times[row][side].append(sides[side].time(row))
        order.reverse()
    return ({row: _summary(times[row], info) for row, info in rows.items()},
            headers)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", help="suffix of BENCH_<n>.json")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the modwd package to measure")
    ap.add_argument("--against", type=Path, metavar="PATH",
                    help="a second modwd package directory (e.g. the "
                    "parent's src/) to interleave every row with")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = args.src.resolve()
    parent = args.against and args.against.resolve()
    for path in (src, parent):
        if path and not (path / "modwd").is_dir():
            ap.error(f"no modwd package under {path}")
    if args.worker:
        sys.path.insert(0, str(src))
        return worker()
    if args.n is None:
        ap.error("--n is required")
    import numpy as np

    t0 = time.perf_counter()
    sides = {"change": Worker(src)}
    if parent:
        sides["parent"] = Worker(parent)
    try:
        timed, headers = interleave(sides)
    finally:
        for s in sides.values():
            s.close()
    rows = {}
    for name, row in timed.items():
        group, _, key = name.partition("/")
        if key:
            rows.setdefault(group, {})[key] = row
        else:
            rows[name] = row
    rows["hash_calls_per_pair"] = dict(
        context="(5,2)", pairs=PRESERVATION_PAIRS,
        **{side: h["hash_calls_per_pair"] for side, h in headers.items()})
    record = {
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, **_package(src),
                "against": parent and _package(parent),
                "wall_s": time.perf_counter() - t0,
                "unit": "microseconds per call, CPU unless named wall"},
        "rows": rows,
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path} in {record['env']['wall_s']:.0f} s")
    print(f"{'row':40s} {'median us':>12s}"
          + (f" {'change/parent':>14s} {'wins':>7s}" if parent else ""))
    for name, row in timed.items():
        line = f"{name:40s} {row['median_us']:12.1f}"
        if parent:
            line += (f" {row['median_ratio']:14.3f} "
                     f"{row['wins']:3d}/{row['rounds']}")
        print(line)
    print("hash_calls_per_pair", ", ".join(
        f"{side} {h['hash_calls_per_pair']:.1f}" for side, h in headers.items()))


if __name__ == "__main__":
    main()
