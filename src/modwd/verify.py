"""Verification harness: grid generators, sweeps, one driver, one table.

A sweep is a function of its grid whose value is (name, rows, check,
note); check(row) yields one result per comparison: None when it holds,
else a failure record, strings (DSL text where there is a class or a
representation) ending in a tag.  `run` checks every row of a sweep,
serially or over worker processes, and SWEEPS gives each `modwd verify`
name its sweeps, contexts and grids; the acceptance tests read it too.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from ._linalg import FMat
from .deligne import (Cyc, DeligneClass, Seg, cyc, det_class, dual_class,
                      interval_profile, normalize, seg, tensor_ss,
                      twist_class)
from .errors import EpsilonNotUnit
from .factors import (check_multiplicativity, epsilon_factor, l_factor,
                      l_factor_matrix)
from .field import make_ctx
from .gln import (GLSegment, NonSuperCusp, PairSide, SuperCusp, c_map,
                  central_char, check_preservation, compare_sides, dual_rep,
                  make_generic, twist_rep, unlinked)
from .laurent import UnitExpr, euler_factor
from .matrixmodel import MatrixDeligne, decompose, oracle_tensor_ss, realize
from .weil import UnramifiedChar, line_of


@dataclass
class SweepSummary:
    name: str
    checked: int
    failures: list
    note: str
    population_s: float  # wall seconds of sweep(*args) in the calling process
    check_s: float  # wall seconds of the checks, worker start-up included
    workers: int

    @property
    def passed(self):
        return not self.failures

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        msg = f"{status} {self.name}: {self.checked} checks{extra}"
        if self.failures:
            msg += f"; {len(self.failures)} failures, first: {self.failures[0]}"
        return msg


# -- grids -----------------------------------------------------------------------

def unramified_segment_pool(ctx, max_len=4, max_k=1):
    """Segment types on the line of the trivial character: banal segments
    of every twist and length < o, and St_k-based segments for k <= max_k."""
    chi1 = UnramifiedChar(ctx.field.one)
    o = ctx.o_nu
    pool = []
    for r in range(1, min(max_len, o - 1) + 1):
        for a in range(o):
            pool.append(GLSegment(SuperCusp(chi1), r, a))
    line = line_of(chi1, ctx)[0]
    for k in range(max_k + 1):
        for r in range(1, min(max_len, ctx.ell - 1) + 1):
            pool.append(GLSegment(NonSuperCusp(line, k), r, 0))
    return [make_generic([s], ctx).segs[0][0] for s in pool]


def enumerate_generic_reps(ctx, max_segments=3, max_len=4, max_k=1):
    """All generic representations with at most max_segments pairwise
    unlinked segments from the pool (multiset repetition allowed)."""
    pool = unramified_segment_pool(ctx, max_len=max_len, max_k=max_k)
    reps = [make_generic([], ctx)]

    def extend(prefix, start):
        for i in range(start, len(pool)):
            s = pool[i]
            if any(not unlinked(s, t, ctx) for t in prefix):
                continue
            if prefix and prefix[-1] == s and not unlinked(s, s, ctx):
                continue
            cand = prefix + [s]
            reps.append(make_generic(cand, ctx, check=False))
            if len(cand) < max_segments:
                extend(cand, i)

    extend([], 0)
    return reps


def _trivial_line_pool(ctx, seg_rmax, cyc_rmax):
    """Canonical indecomposables on the line of the trivial character, in
    class order: segments by (r, a), then cycles by r."""
    chi1 = UnramifiedChar(ctx.field.one)
    return ([seg(chi1, r, a, ctx) for r in range(1, seg_rmax + 1)
             for a in range(ctx.o_nu)]
            + [cyc(chi1, r, ctx) for r in range(1, cyc_rmax + 1)])


def enumerate_line_classes(ctx, max_dim=12):
    """All normalized classes of dimension <= max_dim supported on the
    line of the trivial character, in the depth-first order of their
    non-decreasing sequences of pool indices, as a read-only Sequence.
    The pool is in class order, so the runs of such a sequence are the
    sorted parts of its class."""
    return _LineClasses(ctx, max_dim)


class _LineClasses(Sequence):
    """enumerate_line_classes, counted and unranked rather than stored
    (Nijenhuis and Wilf, Combinatorial Algorithms, ch. 13).  The children
    of a node (parts, start, budget) are the pool indices i >= start of
    dim <= budget; below[b][i] counts the classes in the subtrees of the
    children 0..i-1 of a node with budget b."""

    def __init__(self, ctx, max_dim):
        self.ctx, self.max_dim = ctx, max_dim
        self.pool = [(ind, ind.dim(ctx)) for ind in
                     _trivial_line_pool(ctx, max_dim, max_dim // ctx.o_nu)]
        self.below = []
        for b in range(max_dim + 1):
            col = [0]
            for i, (_, d) in enumerate(self.pool):
                sub = self.below[b - d] if d <= b else None
                col.append(col[-1] + (0 if sub is None else 1 + sub[-1] - sub[i]))
            self.below.append(col)

    def __len__(self):
        return self.below[self.max_dim][-1]

    def __getitem__(self, k):
        """Down from the root, bisecting each node's counts of subtrees."""
        k += len(self) if k < 0 else 0
        if not 0 <= k < len(self):
            raise IndexError("line class index out of range")
        parts, start, budget = (), 0, self.max_dim
        while True:
            col = self.below[budget]
            k += col[start]
            i = bisect_right(col, k) - 1
            k -= col[i]
            ind, d = self.pool[i]
            parts = _with_part(parts, start, i, ind)
            if k == 0:
                return DeligneClass(self.ctx, parts)
            k, start, budget = k - 1, i, budget - d

    def __iter__(self):
        pool, ctx = self.pool, self.ctx
        # fits[b]: the pool indices of dim <= b, last first, for one stack
        fits = [[i for i in reversed(range(len(pool))) if pool[i][1] <= b]
                for b in range(self.max_dim + 1)]
        stack = [((), 0, self.max_dim)]
        while stack:
            parts, start, budget = stack.pop()
            if parts:
                yield DeligneClass(ctx, parts)
            for i in fits[budget]:
                if i < start:
                    break
                ind, d = pool[i]
                stack.append((_with_part(parts, start, i, ind), i, budget - d))


def _with_part(parts, start, i, ind):
    # the child i of a node whose last part is at start: a repeat bumps it
    if i == start and parts:
        return parts[:-1] + ((ind, parts[-1][1] + 1),)
    return parts + ((ind, 1),)


def _first_failure(laws, *texts):
    """The result of one comparison made of several (tag, ok) laws: None
    when all hold, else the texts and the tag of the first that fails."""
    return next((texts + (tag,) for tag, ok in laws if not ok), None)


# -- criterion 1: the non-preservation witness -----------------------------------

def witness(ell, q):
    """The pair (rho, 1) on which C keeps L, gamma and epsilon while the
    V-side L differs; a failure names the pair and the identity."""
    ctx = make_ctx(ell, q)
    chi1 = UnramifiedChar(ctx.field.one)
    rho = make_generic([GLSegment(NonSuperCusp(line_of(chi1, ctx)[0], 0), 1, 0)], ctx)
    triv = make_generic([GLSegment(SuperCusp(chi1), 1, 0)], ctx)
    rep = check_preservation(rho, triv)
    expected_v = euler_factor([ctx.nu_value(k) for k in range(ctx.o_nu)])
    rows = [
        ("rs L = 1", rep.rs_l.is_one()),
        ("C-side L = 1", rep.gal_l.is_one()),
        ("V-side L = prod (1-q^-k X)^-1", rep.v_side_l == expected_v),
        ("V-side L != 1", not rep.v_side_l.is_one()),
        ("pair identities hold", rep.all_match),
    ]

    def check(row):
        tag, ok = row
        yield None if ok else (repr(rho), repr(triv), tag)

    return "non-preservation witness", rows, check, ""


# -- criterion 2: the preservation sweep ------------------------------------------

def preservation(ell, q, max_segments, max_len, max_k=1):
    """All pairs (i, j >= i) of grid representations: L, gamma and epsilon
    agree on both sides, token-exactly, with the comparison
    check_preservation makes: both sides are the same four maps, and sides
    that agree share one epsilon, so one unit check covers both.  A
    failure is (rep text, rep text, tag): `modwd pair` replays it."""
    ctx = make_ctx(ell, q)
    reps = enumerate_generic_reps(ctx, max_segments, max_len, max_k)
    sides = [PairSide(pi) for pi in reps]

    def check(i):
        for j in range(i, len(sides)):
            try:
                tag = compare_sides(sides[i], sides[j]).mismatch()
            except EpsilonNotUnit:
                tag = "epsilon-not-unit"
            yield None if tag is None else (repr(reps[i]), repr(reps[j]), tag)

    return (f"preservation sweep ({ell},{q})", range(len(reps)), check,
            f"{len(reps)} reps")


# -- criterion 3: multiplicativity -------------------------------------------------

def multiplicativity(contexts, nmax):
    """check_multiplicativity for segments of length m <= n <= nmax on
    the characters of t = 1 and of the field generator."""
    rows = []
    for ell, q in contexts:
        ctx = make_ctx(ell, q)
        values = [ctx.field.elem(i) for i in sorted({1, ctx.field.gen_idx})]
        rows += [(ctx, UnramifiedChar(t), UnramifiedChar(t2), n, m)
                 for t in values for t2 in values
                 for n in range(1, nmax + 1) for m in range(1, n + 1)]

    def check(row):
        ctx, psi, psi2, n, m = row
        ok = check_multiplicativity(n, m, psi, psi2, ctx)
        yield None if ok else (ctx.header(), repr(psi), repr(psi2), str(n),
                               str(m), "multiplicativity")

    return "L multiplicativity", rows, check, ""


# -- criterion 4: classification round trips --------------------------------------

def roundtrip(ell, q, max_dim):
    """decompose(realize(a)) = a for every class on the trivial-character
    line up to max_dim."""
    ctx = make_ctx(ell, q)

    def check(a):
        ok = decompose(realize(a, ctx), ctx) == a
        yield None if ok else (repr(a), "roundtrip")

    return (f"classification roundtrip ({ell},{q})",
            enumerate_line_classes(ctx, max_dim), check, f"dim<={max_dim}")


def transport(ell, q, count, max_dim=10, seed=20240901):
    """Random conjugated and operator-rescaled realizations decompose to
    the original class (equivalence invariance at the matrix level)."""
    ctx = make_ctx(ell, q)
    field = ctx.field
    rng = random.Random(seed)
    chi1 = UnramifiedChar(field.one)
    line = line_of(chi1, ctx)[0]
    o = ctx.o_nu
    rows = []
    for _ in range(count):
        parts = []
        budget = rng.randrange(1, max_dim + 1)
        while budget > 0:
            if o > 1 and budget >= o and rng.random() < 0.4:
                r = rng.randrange(1, budget // o + 1)
                parts.append(Cyc(line, r))
                budget -= r * o
            else:
                r = rng.randrange(1, budget + 1)
                parts.append(Seg(chi1, r, rng.randrange(o)))
                budget -= r
        a = normalize(parts, ctx)
        m = realize(a, ctx)
        n = m.dim
        # a global operator rescaling is class-preserving on every summand
        lam = field.elem(rng.randrange(1, field.order))
        U = m.U.scale(lam)
        while True:
            P = FMat(field, [[rng.randrange(field.order) for _ in range(n)]
                             for _ in range(n)])
            try:
                Pi = P.inverse()
                break
            except ValueError:  # singular: draw again
                pass
        rows.append((a, MatrixDeligne(P @ m.F @ Pi, P @ U @ Pi)))

    def check(row):
        a, mc = row
        yield None if decompose(mc, ctx) == a else (repr(a), "transport")

    return f"random conjugation/rescale transport ({ell},{q})", rows, check, ""


def l_matrix(ell, q, max_dim):
    """l_factor read off the normal forms equals l_factor_matrix read off
    slice ranks of the realizations, as exponent maps."""
    ctx = make_ctx(ell, q)

    def check(a):
        ok = l_factor_matrix(realize(a, ctx), ctx) == l_factor(a)
        yield None if ok else (repr(a), "L-matrix")

    return (f"L formal vs matrix ({ell},{q})",
            enumerate_line_classes(ctx, max_dim), check, f"dim<={max_dim}")


# -- criterion 5: tensor against the matrix oracle ---------------------------------

def tensor_oracle(ell, q, rmax):
    """tensor_ss == oracle_tensor_ss on all pairs (i, j >= i) of
    indecomposables with r <= rmax on the trivial-character line; a
    failure is (class text, class text, tag): `modwd oracle` replays it."""
    ctx = make_ctx(ell, q)
    classes = [DeligneClass(ctx, ((A, 1),))
               for A in _trivial_line_pool(ctx, rmax, rmax)]

    def check(i):
        a = classes[i]
        for b in classes[i:]:
            ok = tensor_ss(a, b) == oracle_tensor_ss(a, b)
            yield None if ok else (repr(a), repr(b), "oracle")

    return f"tensor vs oracle ({ell},{q})", range(len(classes)), check, ""


# -- criterion 6: epsilon invertibility ---------------------------------------------

def epsilon(ell, q, max_dim):
    """epsilon is a unit over the roundtrip population, and the banal cycle
    unit values match (-(tX)^o)^r exactly."""
    ctx = make_ctx(ell, q)
    field, o = ctx.field, ctx.o_nu
    rows = [(a, None) for a in enumerate_line_classes(ctx, max_dim)]
    if o > 1:
        for t_idx in sorted({1, field.gen_idx}):
            t = field.elem(t_idx)
            rows += [(DeligneClass(ctx, ((cyc(UnramifiedChar(t), r, ctx), 1),)),
                      UnitExpr(field, ((-field.one) ** r * t ** (o * r)).i, o * r))
                     for r in range(1, 4)]

    def check(row):
        a, want = row
        try:
            unit = epsilon_factor(a).unit
        except EpsilonNotUnit:
            yield (repr(a), "epsilon-not-unit")
            return
        yield None if want is None or unit == want else (repr(a), "cycle unit")

    return f"epsilon invertibility ({ell},{q})", rows, check, ""


# -- criterion 7: correspondence properties ------------------------------------------

def correspondence(ell, q, max_segments, max_len, max_k=1):
    """C commutes with twists and duals, matches central characters, and
    is injective on the grid: two results per representation."""
    ctx = make_ctx(ell, q)
    reps = enumerate_generic_reps(ctx, max_segments, max_len, max_k)
    chi = UnramifiedChar(ctx.field.elem(ctx.field.gen_idx))
    # C-parameter -> the first grid representation with it
    firsts = {c_map(pi): pi for pi in reversed(reps)}

    def check(pi):
        C = c_map(pi)
        laws = (("dual", c_map(dual_rep(pi)) == dual_class(C)),
                ("nu-twist", c_map(twist_rep(pi, nu_power=1))
                 == twist_class(C, nu_power=1)),
                ("chi-twist", c_map(twist_rep(pi, chi=chi))
                 == twist_class(C, chi=chi)),
                ("central char", central_char(pi) == det_class(C)))
        yield _first_failure(laws, repr(pi))
        first = firsts[C]
        yield None if first == pi else (repr(pi), repr(first), "injectivity")

    return (f"correspondence properties ({ell},{q})", reps, check,
            f"{len(reps)} reps")


# -- criterion 8: profile laws --------------------------------------------------------

def profile_law(ells, nmax):
    """The intervals of interval_profile(n, m, ell) end at n-1..n+m-2,
    start at 0..m-1 and have total length n*m."""
    rows = [(ell, n, m) for ell in ells for n in range(1, nmax + 1)
            for m in range(1, n + 1)]

    def check(row):
        ell, n, m = row
        prof = interval_profile(n, m, ell)
        rights = sorted(d for (c, d), mult in prof for _ in range(mult))
        lefts = sorted(c for (c, d), mult in prof for _ in range(mult))
        total = sum((d - c + 1) * mult for (c, d), mult in prof)
        laws = (("right endpoints", rights == list(range(n - 1, n + m - 1))),
                ("left endpoints", lefts == list(range(m))),
                ("total length", total == n * m))
        yield _first_failure(laws, str(ell), str(n), str(m))

    return "interval profile laws", rows, check, ""


# -- the driver and the table ---------------------------------------------------------

_worker_population = None


def _init_worker(sweep, args):
    global _worker_population
    _worker_population = sweep(*args)


def _check_rows(offset, stride, population=None):
    """(checked, failures) over the rows offset, offset + stride, ..., one
    count per result that check(row) yields; a worker checks its own
    population, walking it rather than indexing it."""
    _, rows, check, _ = population or _worker_population
    checked, failures = 0, []
    for row in islice(rows, offset, None, stride):
        for result in check(row):
            checked += 1
            if result is not None:
                failures.append(result)
    return checked, failures


def run(sweep, *args, processes=1) -> SweepSummary:
    """The summary of sweep(*args), with the wall seconds of building the
    population and of checking it.  With processes > 1 each worker builds
    the population too, and the rows are interleaved into 2 * processes
    buckets, so that workers see equal loads when early rows cost more."""
    t0 = time.perf_counter()
    population = sweep(*args)
    name, _, _, note = population
    t1 = time.perf_counter()
    if processes <= 1:
        checked, failures = _check_rows(0, 1, population)
    else:
        with multiprocessing.Pool(processes, initializer=_init_worker,
                                  initargs=(sweep, args)) as pool:
            results = pool.starmap(_check_rows, [(w, 2 * processes)
                                                 for w in range(2 * processes)])
        checked = sum(r[0] for r in results)
        failures = [f for r in results for f in r[1]]
    return SweepSummary(name, checked, failures, note, population_s=t1 - t0,
                        check_s=time.perf_counter() - t1,
                        workers=max(processes, 1))


_FOUR = ((5, 2), (3, 2), (2, 3), (3, 4))
_LINE = ((5, 2), (2, 3))

# `modwd verify` name -> [(sweep, small-grid args, full-grid args, processes)];
# the full grid is the one the acceptance tests run
SWEEPS = {
    "witness": [(witness, (5, 2), (5, 2), 1)],
    "preservation": [(preservation, (*c, 2, 3), (*c, 3, 4), 2) for c in _FOUR],
    "multiplicativity": [(multiplicativity, (_FOUR[:3], 3), (_FOUR[:3], 5), 1)],
    "roundtrip": [entry for c in _LINE for entry in (
        (roundtrip, (*c, 6), (*c, 12), 2), (transport, (*c, 100), (*c, 500), 1))],
    "lmatrix": [(l_matrix, (*c, 6), (*c, 12), 2) for c in _LINE],
    "tensor": [(tensor_oracle, (*c, 2), (*c, 4), 1) for c in _FOUR],
    "epsilon": [(epsilon, (*c, 6), (*c, 12), 1) for c in _LINE],
    "correspondence": [(correspondence, (*c, 2, 3), (*c, 3, 4), 1) for c in _FOUR],
    "profile": [(profile_law, ((2, 3, 5, 7), 4), ((2, 3, 5, 7), 6), 1)],
}


def run_named(what, grid):
    """The summaries of SWEEPS[what] on the "small" or the "full" grid."""
    return [run(sweep, *(small if grid == "small" else full),
                processes=processes)
            for sweep, small, full, processes in SWEEPS[what]]
