import io
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from modwd import Cyc, DeligneClass, Seg, UnramifiedChar, make_ctx, normalize
from modwd import verify
from modwd.cli import run as cli_run
from modwd.dsl import parse_class
from modwd.verify import SWEEPS, enumerate_line_classes, run
from modwd.weil import line_of

ROOT = Path(__file__).resolve().parents[1]

SMALL = [pytest.param(sweep, small, id=f"{what}-{i}")
         for what, entries in SWEEPS.items()
         for i, (sweep, small, _, _) in enumerate(entries)]


@pytest.mark.parametrize("sweep,args", SMALL)
def test_sweep_serial_and_pooled_agree(sweep, args):
    serial = run(sweep, *args, processes=1)
    pooled = run(sweep, *args, processes=2)
    assert serial.checked == pooled.checked > 0
    assert serial.failures == pooled.failures
    assert serial.line() == pooled.line()


def test_preservation_sweep_counts_every_pair():
    s = run(verify.preservation, 3, 2, 1, 2, processes=2)
    n = int(s.note.split()[0])
    assert s.passed and s.checked == n * (n + 1) // 2


def test_preservation_failure_replays(monkeypatch):
    # one injected mismatch is recorded as DSL text that `modwd pair` takes
    from modwd.dsl import parse_rep
    from modwd.verify import enumerate_generic_reps

    class Mismatch:
        def mismatch(self):
            return "L"

    real = verify.compare_sides
    calls = []

    def one_mismatch(side, side2):
        # rows run in order at processes=1: the third pair is (0, 2)
        calls.append(None)
        return Mismatch() if len(calls) == 3 else real(side, side2)

    monkeypatch.setattr(verify, "compare_sides", one_mismatch)
    s = run(verify.preservation, 3, 2, 1, 2, processes=1)
    (a, b, tag), = s.failures
    assert tag == "L"
    ctx = make_ctx(3, 2)
    reps = enumerate_generic_reps(ctx, max_segments=1, max_len=2)
    assert (parse_rep(a, ctx), parse_rep(b, ctx)) == (reps[0], reps[2])
    assert cli_run(["pair", "--ell", "3", "--q", "2", a, b],
                   out=io.StringIO()) == 0


def test_verify_json_failure_is_dsl_text(monkeypatch):
    # one injected roundtrip failure is printed as [class text, tag], and
    # the text parses back to the class
    ctx = make_ctx(5, 2)
    target = enumerate_line_classes(ctx, 6)[5]
    real = verify.decompose

    def one_failure(m, c):
        got = real(m, c)
        if c.ell == 5 and got == target:
            return DeligneClass(c, ())
        return got

    monkeypatch.setattr(verify, "decompose", one_failure)
    out = io.StringIO()
    assert cli_run(["verify", "roundtrip", "--format", "json"], out=out) == 2
    docs = {d.get("name"): d for d in map(json.loads, out.getvalue().splitlines())}
    (text, tag), = docs["classification roundtrip (5,2)"]["failures"]
    assert tag == "roundtrip"
    assert parse_class(text, ctx) == target
    assert docs[None] == {"verdict": "MISMATCH"}


def test_epsilon_sweep_propagates_errors(monkeypatch):
    # only EpsilonNotUnit is a verdict; a programming error is raised
    def broken(a):
        raise TypeError("broken epsilon_factor")

    monkeypatch.setattr(verify, "epsilon_factor", broken)
    with pytest.raises(TypeError, match="broken epsilon_factor"):
        run(verify.epsilon, 2, 3, 2)


def _line_classes_by_normalize(ctx, max_dim):
    """The enumerator by its definition: normalize every prefix of a
    depth-first walk over raw segments and cycles of the trivial line."""
    chi1 = UnramifiedChar(ctx.field.one)
    line = line_of(chi1, ctx)[0]
    o = ctx.o_nu
    pool = [(Seg(chi1, r, a), r) for r in range(1, max_dim + 1)
            for a in range(o)]
    pool += [(Cyc(line, r), r * o) for r in range(1, max_dim // o + 1)]
    out = []

    def extend(prefix, start, budget):
        for i in range(start, len(pool)):
            ind, d = pool[i]
            if d <= budget:
                out.append(normalize(prefix + [ind], ctx))
                extend(prefix + [ind], i, budget - d)

    extend([], 0, max_dim)
    return out


@pytest.mark.parametrize("ell,q", [(5, 2), (2, 3), (3, 2), (3, 4)])
def test_enumerate_line_classes_matches_reference(ell, q):
    ctx = make_ctx(ell, q)
    got = enumerate_line_classes(ctx, 8)
    want = _line_classes_by_normalize(ctx, 8)
    assert [repr(a) for a in got] == [repr(a) for a in want]
    assert list(got) == want


@pytest.mark.parametrize("ell,q", [(5, 2), (3, 2), (2, 3), (3, 4)])
def test_line_classes_unrank_every_index(ell, q):
    seq = enumerate_line_classes(make_ctx(ell, q), 8)
    assert [seq[i] for i in range(len(seq))] == list(seq)


def test_line_classes_unrank_seeded_indices():
    seq = enumerate_line_classes(make_ctx(5, 2), 12)
    walked = list(seq)
    assert len(seq) == len(walked) == 80139
    rng = random.Random(20261019)
    for k in (rng.randrange(len(seq)) for _ in range(2000)):
        assert seq[k] == walked[k]
    assert seq[-1] == walked[-1] and seq[-len(seq)] == walked[0]
    for k in (len(seq), -len(seq) - 1):
        with pytest.raises(IndexError):
            seq[k]
    empty = enumerate_line_classes(make_ctx(5, 2), 0)
    assert len(empty) == 0 and list(empty) == []
    with pytest.raises(IndexError):
        empty[0]


def test_line_classes_are_counted_not_stored():
    # the (5,2) dim-12 population (80,139 classes, 14.9 MB as a list) is a
    # pool of 51 indecomposables and a 13 x 52 count table
    ctx = make_ctx(5, 2)
    enumerate_line_classes(ctx, 12)  # warm the canonical-form caches
    tracemalloc.start()
    try:
        assert len(enumerate_line_classes(ctx, 12)) == 80139
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_benchmark_tracing_installs():
    # perfbench/tracing.py wraps modwd functions by name and reads the
    # cache_info() of its lru_caches; a rename or a dropped cache breaks it
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
            "import tracing; tracing.install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _spy_kernels(monkeypatch):
    """Count calls of _linalg's kernels, the module functions under every
    name a modwd module binds them to and the FMat methods, by kernel."""
    from modwd import _linalg
    counts = {}

    def counted(name, fn):
        def spy(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return spy

    kernels = {_linalg.matmul: "matmul",
               _linalg.pivot_columns: "pivot_columns"}
    for mod in [m for k, m in sys.modules.items() if k.startswith("modwd")]:
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in kernels:
                monkeypatch.setattr(mod, attr, counted(kernels[value], value))
    for name in ("__init__", "rref", "charpoly"):
        monkeypatch.setattr(_linalg.FMat, name,
                            counted(name, getattr(_linalg.FMat, name)))
    return counts


def test_pairs_workload_never_reaches_linalg(monkeypatch):
    # perfbench's smoke test sees FMat methods only; this sees the index
    # array kernels too.  The roundtrip workload shows the spies see them.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    counts = _spy_kernels(monkeypatch)
    roundtrip = workloads.Roundtrip(1)
    assert roundtrip.check(roundtrip.case(0))[0]
    assert counts["matmul"] and counts["pivot_columns"]
    counts.clear()
    pairs = workloads.Pairs(1)
    for index in range(40):
        assert pairs.check(pairs.case(index))[0]
    assert counts == {}
