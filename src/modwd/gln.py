"""Generic representations of GL_n as unlinked segment multisets, the
correspondences V and C = CV o V, and Rankin-Selberg style factors on
unramified cuspidal lines.

Cuspidal labels are either supercuspidal (a character of GL_1 here, carried
by its Galois-side image) or the cuspidal non-supercuspidal objects
St_k(Z_rho) built on a full twist orbit; the latter form the totally
non-banal part, which is invisible to L-factors.  The Rankin-Selberg base
case is the Tate factor of the product character, computed directly rather
than through the correspondence, so the preservation check really does
cross-validate CV, the semisimple tensor and the kernel bookkeeping.

Both sides of a pair are the same four maps, the exponents of L and of
the dual's L and gamma's character and token counts: sums over banal
segment and support value pairs on the Rankin-Selberg side, and over
C-part pairs, from cached part pair constants, for the Galois side's
tensor_ss(C(pi), C(pi')), which is never built.  Sides that agree share
one L, gamma and epsilon, so one epsilon unit check covers both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .deligne import (Character, DeligneClass, _tensor_indec_cached, cv_map,
                      cyc, merge, seg, tensor_ss)
from .errors import InvalidGenericRep, MixedLines, RamifiedCuspLine
from .factors import (_l_map, constants_from, constituent_counts,
                      epsilon_from, gamma_from_counts, l_factor)
from .laurent import FactorExpr, RationalFraction
from .weil import (Line, UnramifiedChar, char_of_log, dual_irr, fuse,
                   irr_order, line_of)


@dataclass(frozen=True)
class SuperCusp:
    """Supercuspidal label, carried by its V-dictionary irreducible."""

    irr: object

    def __repr__(self):
        return f"{self.irr!r}"


@dataclass(frozen=True)
class NonSuperCusp:
    """St_k(Z_rho) = St(o(rho) ell^k, rho): cuspidal, non-supercuspidal,
    fixed by nu-twisting (its own cuspidal line is a singleton)."""

    line: Line
    k: int

    def __repr__(self):
        return f"stk(line={self.line.base!r}, k={self.k})"


@dataclass(frozen=True)
class GLSegment:
    """St(r, nu^a cusp)."""

    cusp: object
    r: int
    a: int

    def __repr__(self):
        if isinstance(self.cusp, NonSuperCusp):
            return f"stk(line={self.cusp.line.base!r}, k={self.cusp.k}; r={self.r})"
        return f"st(r={self.r}; cusp={self.cusp!r}; a={self.a})"


def cusp_order(cusp, ctx):
    if isinstance(cusp, NonSuperCusp):
        return 1
    return irr_order(cusp.irr, ctx)


def cusp_chi_line(cusp, ctx) -> Line:
    """The underlying supercuspidal twist line."""
    if isinstance(cusp, NonSuperCusp):
        return cusp.line
    return line_of(cusp.irr, ctx)[0]


def _cusp_key(cusp, ctx):
    lk = cusp_chi_line(cusp, ctx).key
    if isinstance(cusp, NonSuperCusp):
        return (lk, 1, cusp.k)
    return (lk, 0, 0)


def _seg_key(s, ctx):
    return (_cusp_key(s.cusp, ctx), s.r, s.a)


def _coverage(s: GLSegment, ctx):
    """Twist coverage counts of the segment on its cuspidal line."""
    o = cusp_order(s.cusp, ctx)
    cov = [0] * o
    for i in range(s.r):
        cov[(s.a + i) % o] += 1
    return cov


def unlinked(s: GLSegment, s2: GLSegment, ctx) -> bool:
    """Neither segment precedes the other.  Precedence is decided by brute
    force: linked iff a strictly longer segment can be extracted from the
    combined twist coverage, evaluated cyclically on the window."""
    if _cusp_key(s.cusp, ctx) != _cusp_key(s2.cusp, ctx):
        return True
    o = cusp_order(s.cusp, ctx)
    cov = [x + y for x, y in zip(_coverage(s, ctx), _coverage(s2, ctx))]
    lo, hi = max(s.r, s2.r), s.r + s2.r
    for length in range(lo + 1, hi + 1):
        for c in range(o):
            need = [0] * o
            for i in range(length):
                need[(c + i) % o] += 1
            if all(n <= have for n, have in zip(need, cov)):
                return False
    return True


class GenericRep:
    """Multiset of pairwise unlinked segments (a generic representation)."""

    __slots__ = ("ctx", "segs")

    def __init__(self, ctx, segs):
        self.ctx = ctx
        self.segs = segs

    def is_zero(self):
        return not self.segs

    def __eq__(self, other):
        return (isinstance(other, GenericRep) and self.segs == other.segs
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self):
        return hash(self.segs)

    def __repr__(self):
        if not self.segs:
            return "prod{ }"
        bits = [f"{s!r}" if m == 1 else f"{s!r}*{m}" for s, m in self.segs]
        return "prod{ " + ", ".join(bits) + " }"


def _canonical_segment(s: GLSegment, ctx) -> GLSegment:
    if isinstance(s.cusp, NonSuperCusp):
        line = line_of(s.cusp.line.base, ctx)[0]
        if s.cusp.k < 0:
            raise InvalidGenericRep("stk level must be nonnegative")
        if not 1 <= s.r < ctx.ell:
            raise InvalidGenericRep(
                f"St(r, St_k) needs 1 <= r < ell, got r={s.r}")
        return GLSegment(NonSuperCusp(line, s.cusp.k), s.r, 0)
    base, shift = line_of(s.cusp.irr, ctx)
    o = irr_order(s.cusp.irr, ctx)
    a = (s.a + shift) % o
    if o == 1:
        # on a non-banal line the cuspidal rho equals St_0(Z_rho)
        return _canonical_segment(
            GLSegment(NonSuperCusp(base, 0), s.r, 0), ctx)
    if s.r < 1:
        raise InvalidGenericRep("segment length must be positive")
    if s.r >= o:
        raise InvalidGenericRep(
            f"supercuspidal segment of length {s.r} >= o(rho)={o}: "
            "full-orbit cuspidals must be entered as stk(...)")
    return GLSegment(SuperCusp(base.base), s.r, a)


def make_generic(segments, ctx, check=True) -> GenericRep:
    """Normalize and validate a generic representation."""
    counts = {}
    for entry in segments:
        if isinstance(entry, tuple):
            s, m = entry
        else:
            s, m = entry, 1
        if m <= 0:
            continue
        s = _canonical_segment(s, ctx)
        counts[s] = counts.get(s, 0) + m
    segs = tuple(sorted(counts.items(), key=lambda p: _seg_key(p[0], ctx)))
    rep = GenericRep(ctx, segs)
    if check:
        flat = list(segs)
        for i, (s, m) in enumerate(flat):
            if m > 1 and not unlinked(s, s, ctx):
                raise InvalidGenericRep(f"{s!r} is linked with itself")
            for s2, _ in flat[i + 1:]:
                if not unlinked(s, s2, ctx):
                    raise InvalidGenericRep(f"linked segments {s!r}, {s2!r}")
    return rep


def banal_tnb_split(pi: GenericRep):
    """Split a single-line generic representation into banal x totally
    non-banal factors."""
    ctx = pi.ctx
    lines = {cusp_chi_line(s.cusp, ctx).key for s, _ in pi.segs}
    if len(lines) > 1:
        raise MixedLines("banal_tnb_split expects a single supercuspidal line")
    banal = [(s, m) for s, m in pi.segs if isinstance(s.cusp, SuperCusp)]
    tnb = [(s, m) for s, m in pi.segs if isinstance(s.cusp, NonSuperCusp)]
    return (GenericRep(ctx, tuple(banal)), GenericRep(ctx, tuple(tnb)))


def j_ell(k: int, lift, ctx) -> GenericRep:
    """Reduction of the ell-adic Steinberg St(k, lift) through the
    ell-adic digit combinatorics.

    lift is a cusp label describing the reduction of the lifted cuspidal:
    a SuperCusp for supercuspidal reduction (euclidean division by o(rho),
    then digits of the quotient), a NonSuperCusp(line, r0) when the
    reduction is cuspidal non-supercuspidal (digits of k, levels from r0).
    """
    if k < 1:
        raise ValueError("j_ell needs k >= 1")
    out = []
    if isinstance(lift, NonSuperCusp):
        line, level, u = lift.line, lift.k, k
    else:
        u, r = divmod(k, irr_order(lift.irr, ctx))
        if r:
            out.append(GLSegment(lift, r, 0))
        line, level = line_of(lift.irr, ctx)[0], 0
    while u:
        u, d = divmod(u, ctx.ell)
        if d:
            out.append(GLSegment(NonSuperCusp(line, level), d, 0))
        level += 1
    return make_generic(out, ctx)


# -- correspondences -----------------------------------------------------------

def v_map(pi: GenericRep) -> DeligneClass:
    """The nilpotent parameter: segments go to segments; a segment over
    St_k(Z_rho) contributes ell^k copies of the full twist orbit."""
    ctx = pi.ctx
    out = []
    for s, m in pi.segs:
        if isinstance(s.cusp, SuperCusp):
            out.append((seg(s.cusp.irr, s.r, s.a, ctx), m))
        else:
            line = s.cusp.line
            w = m * ctx.ell ** s.cusp.k
            for j in range(line.order):
                out.append((seg(line.base, s.r, j, ctx), w))
    return merge(out, ctx)


def c_map(pi: GenericRep) -> DeligneClass:
    return cv_map(v_map(pi))


def dual_rep(pi: GenericRep) -> GenericRep:
    ctx = pi.ctx
    out = []
    for s, m in pi.segs:
        if isinstance(s.cusp, SuperCusp):
            o = irr_order(s.cusp.irr, ctx)
            out.append((GLSegment(SuperCusp(dual_irr(s.cusp.irr)), s.r,
                                  (-s.a - s.r + 1) % o), m))
        else:
            out.append((GLSegment(NonSuperCusp(s.cusp.line.dual(ctx), s.cusp.k),
                                  s.r, 0), m))
    return make_generic(out, ctx, check=False)


def twist_rep(pi: GenericRep, nu_power=0, chi: UnramifiedChar = None) -> GenericRep:
    ctx = pi.ctx
    out = []
    for s, m in pi.segs:
        if isinstance(s.cusp, SuperCusp):
            psi, extra = s.cusp.irr, 0
            if chi is not None:
                (extra, psi), = fuse(chi, psi, ctx)
            out.append((GLSegment(SuperCusp(psi), s.r, s.a + nu_power + extra),
                        m))
        else:
            line = s.cusp.line
            if chi is not None:
                (_, base), = fuse(chi, line.base, ctx)
                line = line_of(base, ctx)[0]
            out.append((GLSegment(NonSuperCusp(line, s.cusp.k), s.r, 0), m))
    return make_generic(out, ctx, check=False)


# -- Rankin-Selberg style factors ---------------------------------------------

def _require_unramified(pi: GenericRep):
    for s, _ in pi.segs:
        base = (s.cusp.line.base if isinstance(s.cusp, NonSuperCusp)
                else s.cusp.irr)
        if not isinstance(base, UnramifiedChar):
            raise RamifiedCuspLine(f"{s!r} is not on an unramified line")


def _support_value_counts(pi: GenericRep):
    """Supercuspidal support as value log -> multiplicity (ell^k
    weighted): nu^i chi_T has the log T - iS."""
    ctx = pi.ctx
    _require_unramified(pi)
    n, S = ctx.field.order - 1, ctx.q_log
    counts = {}
    for s, m in pi.segs:
        if isinstance(s.cusp, SuperCusp):
            T, twists = s.cusp.irr.log, range(s.a, s.a + s.r)
        else:
            # St(r, St_k(Z)) holds r ell^k copies of the full orbit Z
            T, twists = s.cusp.line.base.log, range(s.cusp.line.order)
            m *= s.r * ctx.ell ** s.cusp.k
        for i in twists:
            u = (T - i * S) % n
            counts[u] = counts.get(u, 0) + m
    return counts


def _banal_segments(pi: GenericRep):
    """(r, a, log of t, multiplicity) of each supercuspidal segment
    St(r, nu^a chi_t); the totally non-banal segments have no L-roots."""
    _require_unramified(pi)
    return tuple((s.r, s.a, s.cusp.irr.log, m) for s, m in pi.segs
                 if isinstance(s.cusp, SuperCusp))


def _pair_l(ctx, banal, banal2) -> dict:
    """Exponents of L of the pair from the banal segments of both sides:
    the roots of a segment pair are nu^k chi_(T + T') for k from top, of
    log T + T' - kS."""
    field, S = ctx.field, ctx.q_log
    exp, n = field.exp, field.order - 1
    exponents = {}
    for r, a, t, m in banal:
        for r2, b, t2, m2 in banal2:
            top = max(r, r2) - 1 + a + b
            for k in range(top, top + min(r, r2)):
                u = exp[(t + t2 - k * S) % n]
                exponents[u] = exponents.get(u, 0) - m * m2
    return exponents


def _pair_gamma(ctx, support, support2) -> dict:
    """gamma's character counts of the pair: the product characters of
    the supercuspidal support pairs, as value -> multiplicity."""
    exp = ctx.field.exp
    counts = {}
    for u, cu in support.items():
        for v, cv in support2.items():
            # exp repeats its Q - 1 powers, so exp[u + v] needs no reduction
            w = exp[u + v]
            counts[w] = counts.get(w, 0) + cu * cv
    return counts


def rs_l_factor(pi: GenericRep, pi2: GenericRep) -> RationalFraction:
    """L of the pair: totally non-banal segments contribute 1; a banal
    segment pair St(n, nu^a chi) x St(m, nu^b chi'), m <= n, contributes
    prod_k 1/(1 - value(nu^(n-1+a) chi * nu^(k+b) chi') X)."""
    return RationalFraction.make(pi.ctx.field, _pair_l(
        pi.ctx, _banal_segments(pi), _banal_segments(pi2)))


def rs_gamma_factor(pi: GenericRep, pi2: GenericRep) -> FactorExpr:
    return gamma_from_counts(_pair_gamma(pi.ctx, _support_value_counts(pi),
                                         _support_value_counts(pi2)), {},
                             pi.ctx)


def rs_epsilon_factor(pi: GenericRep, pi2: GenericRep) -> FactorExpr:
    return epsilon_from(rs_gamma_factor(pi, pi2), rs_l_factor(pi, pi2),
                        rs_l_factor(dual_rep(pi), dual_rep(pi2)), pi.ctx)


def central_char(pi: GenericRep) -> Character:
    """Product of the supercuspidal support values (= det of the
    C-parameter, by the correspondence): the sum of their logs."""
    log = sum(u * c for u, c in _support_value_counts(pi).items())
    return Character(char_of_log(pi.ctx.field, log).t)


# -- the preservation harness ---------------------------------------------------

class PairSide:
    """What the preservation check reads off one representation, computed
    once: its C-parameter, its supercuspidal support, and the banal
    segments of it and of its dual, from which compare_sides sums both
    sides' four maps; sides that agree share one epsilon, so one unit
    check covers both.  The support must be unramified (RamifiedCuspLine),
    so no C-part pair needs a declared fusion rule."""

    __slots__ = ("ctx", "c", "support", "banal", "dual_banal")

    def __init__(self, pi: GenericRep):
        self.ctx = pi.ctx
        self.c = c_map(pi)
        self.support = _support_value_counts(pi)
        self.banal = _banal_segments(pi)
        # the dual of St(r, nu^a chi_T) is St(r, nu^(1-a-r) chi_(-T)), and
        # _pair_l reads a only through aS mod Q - 1
        n = pi.ctx.field.order - 1
        self.dual_banal = tuple((r, 1 - a - r, -t % n, m)
                                for r, a, t, m in self.banal)


@dataclass
class PreservationReport:
    rs_l: RationalFraction
    gal_l: RationalFraction
    rs_gamma: FactorExpr
    gal_gamma: FactorExpr
    rs_eps: FactorExpr
    gal_eps: FactorExpr
    v_side_l: RationalFraction = None

    def _checks(self):
        return (("L", self.rs_l, self.gal_l),
                ("gamma", self.rs_gamma, self.gal_gamma),
                ("epsilon", self.rs_eps, self.gal_eps))

    @property
    def all_match(self):
        return self.mismatch() is None

    def mismatch(self):
        """The name of the first identity that fails, or None."""
        return next((name for name, rs, gal in self._checks() if rs != gal),
                    None)

    def lines(self):
        for tag, (_, rs, gal) in zip(("L  ", "GAMMA", "EPS"), self._checks()):
            yield f"{tag} rs={rs!r}"
            yield f"{tag} gal={gal!r}  [{'MATCH' if rs == gal else 'MISMATCH'}]"
            if tag == "L  ":
                yield f"L   v-side={self.v_side_l!r}"


def _unramified_part(key, ctx):
    """The C-part of an unramified representation with this key."""
    (_, log), kind, r, a = key
    chi = char_of_log(ctx.field, log)
    return cyc(chi, r, ctx) if kind else seg(chi, r, a, ctx)


@functools.lru_cache(maxsize=8192)
def _part_pair_constants(key, key2, ctx):
    """What the pair of C-parts (A, B) with these keys adds to the Galois
    side: the exponents of L(A (x) B) and of its dual's L, and its
    constituent counts, each as (key, count) pairs of merge(A (x) B).  A
    key names an unramified part within ctx, so a lookup hashes and
    compares int tuples, not parts."""
    a = merge(_tensor_indec_cached(_unramified_part(key, ctx),
                                   _unramified_part(key2, ctx), ctx), ctx)
    chars, toks = constituent_counts(a)
    return (tuple(_l_map(a).items()), tuple(_l_map(a, dual=True).items()),
            tuple(chars.items()), tuple(toks.items()))


def compare_sides(side: PairSide, side2: PairSide) -> PreservationReport:
    """Both sides of the three preservation identities as the same four
    maps: the pair factors' sums over segment and support value pairs, and
    local_constants(tensor_ss(c, c2)) as the sums of m_A m2_B times the
    constants of each C-part pair (A, B).  The Rankin-Selberg side's L,
    gamma and epsilon are built first, and the Galois side shares them
    when its maps agree, so one unit check covers both.  Epsilon raises
    EpsilonNotUnit when it is not a unit."""
    ctx = side.ctx
    rs = (_pair_l(ctx, side.banal, side2.banal),
          _pair_l(ctx, side.dual_banal, side2.dual_banal),
          _pair_gamma(ctx, side.support, side2.support), {})
    gal = ({}, {}, {}, {})
    for A, m in side.c.parts:
        for B, m2 in side2.c.parts:
            w = m * m2
            for acc, kv in zip(gal, _part_pair_constants(A.key, B.key, ctx)):
                for key, e in kv:
                    acc[key] = acc.get(key, 0) + w * e
    rs_l, rs_gamma, rs_eps = constants_from(*rs, ctx)
    # no map holds a zero entry (L's exponents are negative, the counts
    # positive), so this is equality with zeros dropped, as make drops them
    gal_l, gal_gamma, gal_eps = (
        (rs_l, rs_gamma, rs_eps) if rs == gal else constants_from(*gal, ctx))
    return PreservationReport(rs_l, gal_l, rs_gamma, gal_gamma, rs_eps,
                              gal_eps)


def check_preservation(pi: GenericRep, pi2: GenericRep,
                       with_v_side=True) -> PreservationReport:
    """Both sides of the three preservation identities, plus (optionally)
    the V-side L-factor witnessing that the plain nilpotent parameter does
    not preserve L."""
    report = compare_sides(PairSide(pi), PairSide(pi2))
    if with_v_side:
        report.v_side_l = l_factor(tensor_ss(v_map(pi), v_map(pi2)))
    return report
