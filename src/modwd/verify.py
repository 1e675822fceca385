"""Verification harness: grid generators and sweep drivers.

Each run_* function implements one acceptance-style sweep and returns a
small summary object with a passed flag, counts and any counterexamples.
The CLI `verify` subcommand and the acceptance tests both go through
these; the heavy sweeps can fan out over worker processes (the checks are
independent pair computations).
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass, field as dc_field

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
    checked: int = 0
    failures: list = dc_field(default_factory=list)
    note: str = ""

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
    non-decreasing sequences of pool indices.  The pool is in class order,
    so the runs of such a sequence are the sorted parts of its class."""
    pool = [(ind, ind.dim(ctx))
            for ind in _trivial_line_pool(ctx, max_dim, max_dim // ctx.o_nu)]
    out = []

    def extend(parts, start, budget):
        for i in range(start, len(pool)):
            ind, d = pool[i]
            if d > budget:
                continue
            if i == start and parts:
                cand = parts[:-1] + ((ind, parts[-1][1] + 1),)
            else:
                cand = parts + ((ind, 1),)
            out.append(DeligneClass(ctx, cand))
            extend(cand, i, budget - d)

    extend((), 0, max_dim)
    return out


# -- criterion 1: the non-preservation witness -----------------------------------

def run_witness(ctx=None) -> SweepSummary:
    ctx = ctx or make_ctx(5, 2)
    chi1 = UnramifiedChar(ctx.field.one)
    rho = make_generic([GLSegment(NonSuperCusp(line_of(chi1, ctx)[0], 0), 1, 0)], ctx)
    triv = make_generic([GLSegment(SuperCusp(chi1), 1, 0)], ctx)
    rep = check_preservation(rho, triv)
    s = SweepSummary("non-preservation witness")
    expected_v = euler_factor([ctx.nu_value(k) for k in range(ctx.o_nu)])
    checks = [
        ("rs L = 1", rep.rs_l.is_one()),
        ("C-side L = 1", rep.gal_l.is_one()),
        ("V-side L = prod (1-q^-k X)^-1", rep.v_side_l == expected_v),
        ("V-side L != 1", not rep.v_side_l.is_one()),
        ("pair identities hold", rep.all_match),
    ]
    s.checked = len(checks)
    s.failures = [name for name, ok in checks if not ok]
    return s


# -- the sweep driver ----------------------------------------------------------------

_POOL_STATE = {}


def _sweep(init, init_args, chunk, processes):
    """Run chunk over the rows 0..n-1 of a sweep, n = init(*init_args).

    init fills _POOL_STATE in the parent, which then checks every row
    itself when processes <= 1; otherwise each worker runs init too and
    the rows are interleaved into 2 * processes buckets, so that workers
    see equal loads when early rows cost more.  chunk(rows) returns
    (checked, failures); the result is (n, checked, failures).
    """
    n = init(*init_args)
    if processes <= 1:
        return (n, *chunk(range(n)))
    buckets = [range(w, n, 2 * processes) for w in range(2 * processes)]
    with multiprocessing.Pool(processes, initializer=init,
                              initargs=init_args) as pool:
        results = pool.map(chunk, buckets)
    return n, sum(r[0] for r in results), [f for r in results for f in r[1]]


# -- criterion 2: the preservation sweep ------------------------------------------

def _presv_init(ell, q, max_segments, max_len, max_k):
    ctx = make_ctx(ell, q)
    reps = enumerate_generic_reps(ctx, max_segments, max_len, max_k)
    _POOL_STATE["reps"] = reps
    _POOL_STATE["sides"] = [PairSide(pi) for pi in reps]
    return len(reps)


def _presv_rows(rows):
    """Check all pairs (i, j >= i) for the given rows with the comparison
    check_preservation makes, both epsilon unit checks included.  A failure
    is (rep text, rep text, tag): `modwd pair` replays it."""
    reps, sides = _POOL_STATE["reps"], _POOL_STATE["sides"]
    checked = 0
    fails = []
    for i in rows:
        for j in range(i, len(sides)):
            try:
                tag = compare_sides(sides[i], sides[j]).mismatch()
            except EpsilonNotUnit:
                tag = "epsilon-not-unit"
            checked += 1
            if tag:
                fails.append((repr(reps[i]), repr(reps[j]), tag))
    return checked, fails


def run_preservation(ell, q, max_segments=3, max_len=4, max_k=1,
                     processes=1) -> SweepSummary:
    """All ordered-up-to-symmetry pairs of grid representations: L, gamma
    and epsilon must agree on both sides, token-exactly."""
    n, checked, fails = _sweep(_presv_init,
                               (ell, q, max_segments, max_len, max_k),
                               _presv_rows, processes)
    return SweepSummary(f"preservation sweep ({ell},{q})", checked, fails,
                        note=f"{n} reps")


# -- criterion 3: multiplicativity -------------------------------------------------

def run_multiplicativity(params=((5, 2), (3, 2), (2, 3)), nmax=5) -> SweepSummary:
    s = SweepSummary("L multiplicativity")
    for ell, q in params:
        ctx = make_ctx(ell, q)
        values = [ctx.field.one]
        if ctx.field.order > 2:
            values.append(ctx.field.elem(ctx.field.gen_idx))
        for t in values:
            for t2 in values:
                psi, psi2 = UnramifiedChar(t), UnramifiedChar(t2)
                for n in range(1, nmax + 1):
                    for m in range(1, n + 1):
                        s.checked += 1
                        if not check_multiplicativity(n, m, psi, psi2, ctx):
                            s.failures.append((ell, q, repr(t), repr(t2), n, m))
    return s


# -- criterion 4: classification round trips --------------------------------------

def _roundtrip_init(ell, q, max_dim):
    ctx = make_ctx(ell, q)
    _POOL_STATE["ctx"] = ctx
    _POOL_STATE["classes"] = enumerate_line_classes(ctx, max_dim)
    return len(_POOL_STATE["classes"])


def _roundtrip_chunk(idxs):
    ctx = _POOL_STATE["ctx"]
    classes = _POOL_STATE["classes"]
    checked = 0
    fails = []
    for i in idxs:
        a = classes[i]
        if decompose(realize(a, ctx), ctx) != a:
            fails.append(repr(a))
        checked += 1
    return checked, fails


def run_roundtrip(ell, q, max_dim=12, processes=1) -> SweepSummary:
    """decompose(realize(a)) = a for every class on the trivial-character
    line up to max_dim."""
    _, checked, fails = _sweep(_roundtrip_init, (ell, q, max_dim),
                               _roundtrip_chunk, processes)
    return SweepSummary(f"classification roundtrip ({ell},{q})", checked,
                        fails, note=f"dim<={max_dim}")


def run_random_transport(ell, q, count=1000, max_dim=10, seed=20240901) -> SweepSummary:
    """Random conjugated and operator-rescaled realizations decompose to
    the original class (equivalence invariance at the matrix level)."""
    ctx = make_ctx(ell, q)
    field = ctx.field
    rng = random.Random(seed)
    chi1 = UnramifiedChar(field.one)
    line = line_of(chi1, ctx)[0]
    o = ctx.o_nu
    s = SweepSummary(f"random conjugation/rescale transport ({ell},{q})")
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
        mc = MatrixDeligne(P @ m.F @ Pi, P @ U @ Pi)
        s.checked += 1
        if decompose(mc, ctx) != a:
            s.failures.append(repr(a))
    return s


def _lmatrix_chunk(idxs):
    ctx = _POOL_STATE["ctx"]
    classes = _POOL_STATE["classes"]
    checked = 0
    fails = []
    for i in idxs:
        a = classes[i]
        if l_factor_matrix(realize(a, ctx), ctx) != l_factor(a).expanded():
            fails.append(repr(a))
        checked += 1
    return checked, fails


def run_l_matrix_agreement(ell, q, max_dim=12, processes=1) -> SweepSummary:
    """l_factor computed from normal forms, expanded, equals the literal
    kernel and characteristic-polynomial computation on realizations."""
    _, checked, fails = _sweep(_roundtrip_init, (ell, q, max_dim),
                               _lmatrix_chunk, processes)
    return SweepSummary(f"L formal vs matrix ({ell},{q})", checked, fails,
                        note=f"dim<={max_dim}")


# -- criterion 5: tensor against the matrix oracle ---------------------------------

def run_tensor_oracle(ell, q, rmax=4) -> SweepSummary:
    """tensor_ss == oracle_tensor_ss on all indecomposable pairs with
    r <= rmax on the trivial-character line."""
    ctx = make_ctx(ell, q)
    indecs = _trivial_line_pool(ctx, rmax, rmax)
    s = SweepSummary(f"tensor vs oracle ({ell},{q})")
    for i, A in enumerate(indecs):
        for B in indecs[i:]:
            a, b = DeligneClass(ctx, ((A, 1),)), DeligneClass(ctx, ((B, 1),))
            s.checked += 1
            if tensor_ss(a, b) != oracle_tensor_ss(a, b):
                s.failures.append((repr(A), repr(B)))
    return s


# -- criterion 6: epsilon invertibility ---------------------------------------------

def run_epsilon(ell, q, max_dim=12) -> SweepSummary:
    """epsilon is a unit over the roundtrip population, and the banal cycle
    unit values match (-(tX)^o)^r exactly."""
    ctx = make_ctx(ell, q)
    field = ctx.field
    s = SweepSummary(f"epsilon invertibility ({ell},{q})")
    for a in enumerate_line_classes(ctx, max_dim):
        s.checked += 1
        try:
            epsilon_factor(a)
        except Exception as exc:  # EpsilonNotUnit or anything else
            s.failures.append((repr(a), repr(exc)))
    if ctx.o_nu > 1:
        o = ctx.o_nu
        for t_idx in sorted({1, field.gen_idx}):
            t = field.elem(t_idx)
            for r in range(1, 4):
                a = DeligneClass(ctx, ((cyc(UnramifiedChar(t), r, ctx), 1),))
                unit = epsilon_factor(a).unit
                want = UnitExpr(field, ((-field.one) ** r * t ** (o * r)).i, o * r)
                s.checked += 1
                if unit != want:
                    s.failures.append((repr(a), f"unit {unit!r} != {want!r}"))
    return s


# -- criterion 7: correspondence properties ------------------------------------------

def run_correspondence(ell, q, max_segments=3, max_len=4, max_k=1) -> SweepSummary:
    """C commutes with twists and duals and matches central characters on
    the whole grid."""
    ctx = make_ctx(ell, q)
    field = ctx.field
    reps = enumerate_generic_reps(ctx, max_segments, max_len, max_k)
    chis = [UnramifiedChar(field.elem(field.gen_idx))]
    s = SweepSummary(f"correspondence properties ({ell},{q})",
                     note=f"{len(reps)} reps")
    for pi in reps:
        C = c_map(pi)
        s.checked += 1
        if c_map(dual_rep(pi)) != dual_class(C):
            s.failures.append(("dual", repr(pi)))
            continue
        if c_map(twist_rep(pi, nu_power=1)) != twist_class(C, nu_power=1):
            s.failures.append(("nu-twist", repr(pi)))
            continue
        ok = True
        for chi in chis:
            if c_map(twist_rep(pi, chi=chi)) != twist_class(C, chi=chi):
                s.failures.append(("chi-twist", repr(pi)))
                ok = False
                break
        if not ok:
            continue
        if central_char(pi) != det_class(C):
            s.failures.append(("central char", repr(pi)))
    # injectivity of c_map on the grid
    images = {}
    for pi in reps:
        key = c_map(pi)
        if key in images and images[key] != pi:
            s.failures.append(("injectivity", repr(pi), repr(images[key])))
        images[key] = pi
    s.checked += len(reps)
    return s


# -- criterion 8: profile laws --------------------------------------------------------

def run_profile_law(ells=(2, 3, 5, 7), nmax=6) -> SweepSummary:
    s = SweepSummary("interval profile laws")
    for ell in ells:
        for n in range(1, nmax + 1):
            for m in range(1, n + 1):
                prof = interval_profile(n, m, ell)
                rights = sorted(d for (c, d), mult in prof for _ in range(mult))
                lefts = sorted(c for (c, d), mult in prof for _ in range(mult))
                total = sum((d - c + 1) * mult for (c, d), mult in prof)
                s.checked += 1
                if rights != list(range(n - 1, n + m - 1)):
                    s.failures.append((ell, n, m, "right endpoints"))
                elif lefts != list(range(m)):
                    s.failures.append((ell, n, m, "left endpoints"))
                elif total != n * m:
                    s.failures.append((ell, n, m, "total length"))
    return s
