"""Formal irreducible Weil-group representations and their twist lines.

Unramified characters are concrete.  F^x is cyclic of order Q - 1, so the
character with value t at Frobenius is named by its discrete log T = dlog t
mod Q - 1.  With S = dlog q and g = gcd(S, Q - 1) = (Q - 1)/o(nu):
nu^j chi_T = chi_(T - jS), the dual of chi_T is chi_(-T), a product of
characters adds logs, and the line of chi_T is T + gZ/(Q - 1), with
canonical base chi_(T mod g).

Everything ramified is an abstract label carrying exactly the data the
factor formulas consume: dimension, twist-orbit size, and a dual partner.
A label `B.tC` names chi_C (x) B: a character twists it by adding to C,
its canonical form has 0 < C < g, or is the bare `B` for C = 0, and its
dual is named with -C mod Q - 1.  Tensor decompositions of abstract pairs
come from an explicit fusion table, never from guessing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from .errors import MissingFusionRule
from .field import FieldElem, FieldCtx


@dataclass(frozen=True)
class UnramifiedChar:
    """chi_t: the unramified character with value t at Frobenius."""

    t: FieldElem

    @property
    def log(self):
        """T = dlog t, in 0 .. Q - 2."""
        return self.t.field.log[self.t.i]

    def __repr__(self):
        return f"chi(t={self.t!r})"


def char_of_log(field, T):
    """chi_T: the unramified character whose value has discrete log T."""
    return UnramifiedChar(field.elem(field.exp[T % (field.order - 1)]))


@dataclass(frozen=True)
class RamifiedAbstract:
    """A formal ramified irreducible: label, dimension, twist-orbit size,
    and the label of its contragredient."""

    label: str
    dim: int
    order: int
    dual_label: str

    def __repr__(self):
        return f"irr({self.label}, dim={self.dim}, ord={self.order}, dual={self.dual_label})"


def irr_dim(psi):
    return 1 if isinstance(psi, UnramifiedChar) else psi.dim


def irr_order(psi, ctx: FieldCtx):
    """o(psi): size of the unramified-twist orbit."""
    return ctx.o_nu if isinstance(psi, UnramifiedChar) else psi.order


def dual_irr(psi):
    """Contragredient: chi_T -> chi_(-T) for characters, declared partner
    else."""
    if isinstance(psi, UnramifiedChar):
        return char_of_log(psi.t.field, -psi.log)
    return RamifiedAbstract(psi.dual_label, psi.dim, psi.order, psi.label)


@dataclass(frozen=True)
class Line:
    """An irreducible line Z_psi = {nu^k psi}, keyed by its canonical
    representative: chi_(T mod g) for characters, the label of residue
    C < g for ramified psi.  key is line_key(base), built once."""

    base: object
    order: int
    key: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", line_key(self.base))

    def dual(self, ctx):
        return line_of(dual_irr(self.base), ctx)[0]

    def __repr__(self):
        return f"line({self.base!r})"


def line_key(base):
    """Sort key of the line with canonical representative base."""
    if isinstance(base, UnramifiedChar):
        return (0, base.log)
    return (1, base.label)


@functools.lru_cache(maxsize=4096)
def _line_of_char(ctx, T):
    """The line of chi_T, 0 <= T < Q - 1, and j with chi_T = nu^j chi_c for
    c = T mod g: T - c = -jS mod Q - 1, so j = -((T - c)/g) (S/g)^-1 mod o."""
    o = ctx.o_nu
    g = (ctx.field.order - 1) // o
    c = T % g
    return (Line(char_of_log(ctx.field, c), o),
            -((T - c) // g) * pow(ctx.q_log // g, -1, o) % o)


def residue(label):
    """(B, C) of a label naming chi_C (x) B."""
    base, dot, c = label.rpartition(".t")
    return (base, int(c)) if dot and c.isdecimal() else (label, 0)


def _char_times_abstract(T, psi: RamifiedAbstract, ctx):
    """chi_T (x) psi as (j, theta) with theta canonical: psi = chi_c (x) B
    gives chi_(T + c) (x) B = nu^j chi_c2 (x) B, and the dual of theta is
    chi_(c + d - c2) (x) B' when the dual of psi is chi_d (x) B'."""
    n = ctx.field.order - 1
    base, c = residue(psi.label)
    dual, d = residue(psi.dual_label)
    line, j = _line_of_char(ctx, (T + c) % n)
    c2 = line.base.log
    d2 = (c + d - c2) % n
    return j % psi.order, RamifiedAbstract(
        f"{base}.t{c2}" if c2 else base, psi.dim, psi.order,
        f"{dual}.t{d2}" if d2 else dual)


def line_of(psi, ctx: FieldCtx):
    """Canonical line of psi and the twist j with psi = nu^j * base."""
    if isinstance(psi, RamifiedAbstract):
        j, base = _char_times_abstract(0, psi, ctx)
        return Line(base, psi.order), j
    return _line_of_char(ctx, psi.log)


def twist(psi, k: int, ctx: FieldCtx):
    """nu^k twist.  Characters absorb the twist into their value (residue 0);
    abstract irreducibles keep their label and return k mod o(psi)."""
    if isinstance(psi, UnramifiedChar):
        return char_of_log(ctx.field, psi.log - k * ctx.q_log), 0
    return psi, k % psi.order


def _pair_key(a, b):
    ka = repr(a)
    kb = repr(b)
    return (ka, kb) if ka <= kb else (kb, ka)


class FusionTable:
    """Declared semisimplifications psi (x) psi' -> multiset of (twist, irr).

    Entries are validated for total-dimension conservation.  Character
    pairs are never stored: they are forced by the character group law.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.rules = {}

    def add(self, a, b, entries):
        total = sum(irr_dim(t) for _, t in entries)
        if total != irr_dim(a) * irr_dim(b):
            raise ValueError(
                f"fusion entry dimension {total} != {irr_dim(a) * irr_dim(b)}")
        self.rules[_pair_key(a, b)] = tuple(entries)

    def lookup(self, a, b):
        return self.rules.get(_pair_key(a, b))


def fuse(psi, psi2, ctx: FieldCtx, table: FusionTable = None):
    """Semisimplified tensor of two irreducibles as a tuple of (twist, irr).

    Character pairs multiply; a character twists an abstract irreducible;
    abstract pairs must be present in the fusion table.
    """
    a_char = isinstance(psi, UnramifiedChar)
    b_char = isinstance(psi2, UnramifiedChar)
    if a_char and b_char:
        return ((0, char_of_log(ctx.field, psi.log + psi2.log)),)
    if a_char:
        return (_char_times_abstract(psi.log, psi2, ctx),)
    if b_char:
        return (_char_times_abstract(psi2.log, psi, ctx),)
    if table is not None:
        entry = table.lookup(psi, psi2)
        if entry is not None:
            return entry
    raise MissingFusionRule(f"no fusion rule for ({psi!r}, {psi2!r})")
