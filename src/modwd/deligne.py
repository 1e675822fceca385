"""Equivalence classes of Frobenius-semisimple Deligne representations.

A class is a normalized multiset of indecomposables: segments
[0,r-1] (x) nu^a psi (nilpotent operator) and cycles [0,r-1] (x) C(Z_psi)
(bijective operator, which exists only because the twist orbit is finite).
Krull-Schmidt makes the multiset well defined, so all operations here are
multiset combinatorics plus the modular interval profile of a tensor of
two shift operators.  The tensor has one rule: a cycle enters as the twist
orbit of the segments it glues, the segment rule (interval profile times
fusion) runs, and cv_map glues the full orbits back into cycles.

Indecomposables are canonical by construction: seg() and cyc() are the
only code that reduces twists and picks line representatives, and every
operation here builds its parts with them and hands them to merge(), the
only code that merges and sorts.  normalize() is the entry point for raw
input (parsed text, semisimplified or field-mapped parts).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from .errors import ContainsCyc, MixedLines
from .field import FieldElem
from .weil import (Line, UnramifiedChar, residue, char_of_log, dual_irr,
                   fuse, irr_dim, irr_order, line_key, line_of)


class _Part:
    """An immutable indecomposable, identified by its key: the line_key of
    its line, its kind (0 segment, 1 cycle), r and a, built once; keys
    order the parts of a class.  Equality also compares what the key
    leaves out: a segment's field or abstract irreducible, a cycle's line."""

    __slots__ = ("key", "_hash", "_rest")

    def _identify(self, key, rest):
        self.key = key
        self._hash = hash(key)
        self._rest = rest

    def __eq__(self, other):
        return self is other or (
            isinstance(other, _Part) and self.key == other.key
            and (self._rest is other._rest or self._rest == other._rest))

    def __hash__(self):
        return self._hash


class Seg(_Part):
    """[0, r-1] (x) nu^a psi with psi the canonical line representative."""

    __slots__ = ("irr", "r", "a")

    def __init__(self, irr, r, a):
        self.irr, self.r, self.a = irr, r, a
        self._identify((line_key(irr), 0, r, a), irr.t.field
                       if isinstance(irr, UnramifiedChar) else irr)

    def __reduce__(self):
        return Seg, (self.irr, self.r, self.a)

    def dim(self, ctx):
        return self.r * irr_dim(self.irr)

    def __repr__(self):
        return f"seg({self.irr!r}; r={self.r}; a={self.a})"


class Cyc(_Part):
    """[0, r-1] (x) C(Z_psi); no intertwiner is stored since the class
    does not depend on it."""

    __slots__ = ("line", "r")

    def __init__(self, line, r):
        self.line, self.r = line, r
        self._identify((line.key, 1, r, 0), line)

    def __reduce__(self):
        return Cyc, (self.line, self.r)

    def dim(self, ctx):
        return self.r * self.line.order * irr_dim(self.line.base)

    def __repr__(self):
        return f"cyc({self.line!r}; r={self.r})"


def seg(psi, r, a, ctx) -> Seg:
    """Build a segment in canonical form (canonical line rep, twist reduced)."""
    if r < 1:
        raise ValueError("segment length must be positive")
    line, shift = line_of(psi, ctx)
    return Seg(line.base, r, (a + shift) % line.order)


def cyc(line_or_irr, r, ctx) -> Cyc:
    if r < 1:
        raise ValueError("cycle length must be positive")
    if isinstance(line_or_irr, Line):
        line_or_irr = line_or_irr.base
    return Cyc(line_of(line_or_irr, ctx)[0], r)


class DeligneClass:
    """Normalized multiset of indecomposables, stored as sorted
    (indec, multiplicity) pairs."""

    __slots__ = ("ctx", "parts")

    def __init__(self, ctx, parts):
        self.ctx = ctx
        self.parts = parts

    def dim(self):
        return sum(ind.dim(self.ctx) * m for ind, m in self.parts)

    def is_zero(self):
        return not self.parts

    def is_nilpotent(self):
        return all(isinstance(ind, Seg) for ind, _ in self.parts)

    def scale(self, m):
        if m == 0:
            return DeligneClass(self.ctx, ())
        return DeligneClass(self.ctx, tuple((i, mult * m) for i, mult in self.parts))

    def __eq__(self, other):
        return (isinstance(other, DeligneClass) and self.parts == other.parts
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        if not self.parts:
            return "{ }"
        bits = []
        for ind, m in self.parts:
            bits.append(f"{ind!r}" if m == 1 else f"{ind!r}*{m}")
        return "{ " + ", ".join(bits) + " }"


def normalize(raw, ctx) -> DeligneClass:
    """The class of raw input: indecomposables or (indecomposable,
    multiplicity) pairs whose twists and line representatives may be
    unreduced.  Each part is canonicalized by seg() or cyc(), then merged."""
    parts = []
    for entry in raw:
        if isinstance(entry, tuple):
            ind, m = entry
        else:
            ind, m = entry, 1
        if m < 0:
            raise ValueError("negative multiplicity")
        if m == 0:
            continue
        if isinstance(ind, Seg):
            ind = seg(ind.irr, ind.r, ind.a, ctx)
        else:
            ind = cyc(ind.line, ind.r, ctx)
        parts.append((ind, m))
    return merge(parts, ctx)


def merge(parts, ctx) -> DeligneClass:
    """The class holding the given (canonical indecomposable, multiplicity)
    pairs, equal indecomposables merged."""
    counts = {}
    for ind, m in parts:
        counts[ind] = counts.get(ind, 0) + m
    return DeligneClass(ctx, tuple(sorted(counts.items(),
                                          key=lambda p: p[0].key)))


def zero_class(ctx) -> DeligneClass:
    return DeligneClass(ctx, ())


def dsum(a: DeligneClass, b: DeligneClass) -> DeligneClass:
    return merge(a.parts + b.parts, a.ctx)


def dual_class(a: DeligneClass) -> DeligneClass:
    """Seg(psi,r,a) -> Seg(psi*, r, -a-r+1); Cyc(L,r) -> Cyc(L*, r).

    Both rules are validated against the matrix-model oracle in the tests.
    """
    ctx = a.ctx
    out = []
    for ind, m in a.parts:
        if isinstance(ind, Seg):
            o = irr_order(ind.irr, ctx)
            out.append((seg(dual_irr(ind.irr), ind.r, (-ind.a - ind.r + 1) % o, ctx), m))
        else:
            out.append((cyc(ind.line.dual(ctx), ind.r, ctx), m))
    return merge(out, ctx)


def twist_class(a: DeligneClass, nu_power=0, chi: UnramifiedChar = None) -> DeligneClass:
    """Twist by nu^k and/or an unramified character.  Cycles absorb nu
    powers entirely and change line under a general character."""
    ctx = a.ctx
    out = []
    for ind, m in a.parts:
        if isinstance(ind, Seg):
            psi, extra = ind.irr, 0
            if chi is not None:
                (extra, psi), = fuse(chi, psi, ctx)
            out.append((seg(psi, ind.r, ind.a + nu_power + extra, ctx), m))
        else:
            line = ind.line
            if chi is not None:
                (_, base), = fuse(chi, line.base, ctx)
                line = line_of(base, ctx)[0]
            out.append((cyc(line, ind.r, ctx), m))
    return merge(out, ctx)


# -- modular interval profile of [0,n-1] (x) [0,m-1] -------------------------

def _rank_mod(rows, ell):
    """Rank of a small integer matrix mod ell, by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(x % ell for x in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] % ell:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col] % ell, -1, ell)
        rows[rank] = [(x * inv) % ell for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % ell:
                f = rows[i][col] % ell
                rows[i] = [(x - f * y) % ell for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@functools.lru_cache(maxsize=1024)
def interval_profile(n, m, ell):
    """Multiset of intervals [c,d] in the decomposition over F_ell of the
    graded nilpotent N(n) (x) Id + Id (x) N(m), by rank persistence.

    Returns a sorted tuple of ((c, d), multiplicity) pairs; the ranks are
    exact ranks mod ell of the maps N^(d-c) between the graded pieces,
    whose entries are binomial coefficients.
    """
    top = n + m - 2
    # layer c holds the e_i (x) f_(c-i) with i < n and c - i < m, by i
    layers = [range(max(0, c - m + 1), min(n - 1, c) + 1)
              for c in range(top + 1)]

    def rank(c, d):
        # rank of the composite map layer c -> layer d; full dim when c == d.
        # The two shifts commute, so N^t sends e_i (x) f_j to
        # sum_s C(t, s) e_(i+s) (x) f_(j+t-s), truncated at n and m: the
        # entry at (i', i) is C(d - c, i' - i)
        if c < 0 or d > top or c > d:
            return 0
        if c == d:
            return len(layers[c])
        return _rank_mod([[comb(d - c, i2 - i) if i2 >= i else 0
                           for i in layers[c]] for i2 in layers[d]], ell)

    out = []
    for c in range(top + 1):
        for d in range(c, top + 1):
            mult = rank(c, d) - rank(c - 1, d) - rank(c, d + 1) + rank(c - 1, d + 1)
            if mult:
                out.append(((c, d), mult))
    return tuple(sorted(out))


# -- semisimple tensor product ------------------------------------------------

@functools.lru_cache(maxsize=8192)
def _tensor_indec_cached(A, B, ctx):
    return tuple(_tensor_indec(A, B, ctx, None))


def _tensor_indec(A, B, ctx, table):
    """Tensor of two indecomposables as a list of (indec, mult).

    A cycle enters as the twist orbit of the segments it glues, so every
    pair takes the one segment rule, the interval profile times the fusion
    of the irreducibles, and cv_map glues the full orbits of a product with
    a cycle back into cycles.  Each interval is glued on its own: its
    pieces are twist-stable, so a segment left over names a wrong declared
    fusion, which two intervals of one length could even out."""
    if isinstance(A, Cyc) and isinstance(B, Seg):
        A, B = B, A  # fuse takes the segment's irreducible first
    (psi, twists), (psi2, twists2) = (
        (P.irr, (P.a,)) if isinstance(P, Seg)
        else (P.line.base, range(P.line.order)) for P in (A, B))
    entries = fuse(psi, psi2, ctx, table)
    out = []
    for (c, d), pm in interval_profile(A.r, B.r, ctx.ell):
        pieces = [(seg(theta, d - c + 1, i + j + c + k, ctx), pm)
                  for k, theta in entries for i in twists for j in twists2]
        if isinstance(B, Cyc):  # after the swap: iff a cycle took part
            pieces = cv_map(merge(pieces, ctx)).parts
            for ind, _ in pieces:
                if isinstance(ind, Seg):
                    raise ValueError("fusion output is not twist-stable on "
                                     f"{line_of(ind.irr, ctx)[0]!r}")
        out += pieces
    return out


def tensor_ss(a: DeligneClass, b: DeligneClass, table=None) -> DeligneClass:
    """Semisimple tensor product, bilinear over direct sums.

    On indecomposables it is the interval profile tensored with the fusion
    of the irreducible parts, a cycle taking part as its twist orbit; any
    pair involving a cycle lands entirely in cycles (the operator stays
    bijective at generic scalings).
    """
    ctx = a.ctx
    out = []
    for A, ma in a.parts:
        for B, mb in b.parts:
            if table is None:
                pieces = _tensor_indec_cached(A, B, ctx)
            else:
                pieces = _tensor_indec(A, B, ctx, table)
            # the pieces are built by seg() and cyc(), hence canonical
            out += [(ind, m * ma * mb) for ind, m in pieces]
    return merge(out, ctx)


# -- acyclic/cyclic split and the CV map --------------------------------------

def _orbit_blocks(a: DeligneClass):
    """Group the sorted parts of a nilpotent class by (line, r), in one
    pass.  Yields (block, b): b full twist orbits lie in the block, its
    least multiplicity when it covers all o twists and 0 otherwise."""
    for _, block in itertools.groupby(a.parts, key=lambda p: p[0].key[:3]):
        block = tuple(block)
        full = len(block) == irr_order(block[0][0].irr, a.ctx)
        yield block, min(m for _, m in block) if full else 0


def split_cyclic(a: DeligneClass):
    """Split a single-line nilpotent class into (acyclic, cyclic) parts:
    per length r, the cyclic part receives b_r = min_k mult(r, k) full
    twist orbits."""
    if not a.is_nilpotent():
        raise ContainsCyc("split_cyclic expects a nilpotent class")
    # the parts are sorted by line first
    if a.parts and a.parts[0][0].key[0] != a.parts[-1][0].key[0]:
        raise MixedLines("split_cyclic expects a single line")
    acyc, cycl = [], []
    for block, b in _orbit_blocks(a):
        acyc += [(ind, m - b) for ind, m in block if m > b]
        if b:
            cycl += [(ind, b) for ind, _ in block]
    return DeligneClass(a.ctx, tuple(acyc)), DeligneClass(a.ctx, tuple(cycl))


def cv_map(a: DeligneClass) -> DeligneClass:
    """Replace each full cyclic orbit block of length r by [0,r-1](x)C(Z);
    the acyclic part is kept verbatim.  Injective on nilpotent classes."""
    if not a.is_nilpotent():
        raise ContainsCyc("cv_map expects a nilpotent class (a V-parameter)")
    out = []
    for block, b in _orbit_blocks(a):
        out += [(ind, m - b) for ind, m in block if m > b]
        if b:
            ind = block[0][0]
            out.append((cyc(ind.irr, ind.r, a.ctx), b))
    return merge(out, a.ctx)


# -- determinant --------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """Formal determinant value: concrete unramified part times a formal
    product of finite-order labels (for abstract ramified constituents)."""

    unram_value: FieldElem
    finite: tuple = ()

    def __repr__(self):
        parts = [repr(self.unram_value)]
        parts += [f"{l}^{e}" for l, e in self.finite]
        return "*".join(parts)


def det_class(a: DeligneClass) -> Character:
    """Product of the determinant contributions of all constituents, as a
    sum of discrete logs: nu^i chi_T adds T - iS; fully concrete on
    unramified lines."""
    ctx = a.ctx
    log, finite = 0, {}
    for ind, m in a.parts:
        # the constituents are nu^i base for i in twists
        if isinstance(ind, Seg):
            base, twists = ind.irr, range(ind.a, ind.a + ind.r)
        else:
            base = ind.line.base
            twists = [i + j for i in range(ind.r) for j in range(ind.line.order)]
        log -= m * irr_dim(base) * sum(twists) * ctx.q_log
        if isinstance(base, UnramifiedChar):
            log += m * len(twists) * base.log
        else:
            # det(chi_C (x) B) = chi_C^dim det(B) for the label B.tC
            label, c = residue(base.label)
            log += m * len(twists) * base.dim * c
            key = f"det({label})"
            finite[key] = finite.get(key, 0) + m * len(twists)
    return Character(char_of_log(ctx.field, log).t,
                     tuple(sorted(finite.items())))
