"""Formal irreducible Weil-group representations and their twist lines.

Unramified characters are concrete (a nonzero field element, the value at
Frobenius); everything ramified is an abstract label carrying exactly the
data the factor formulas consume: dimension, twist-orbit size, and a dual
partner.  Tensor decompositions of abstract pairs come from an explicit
fusion table, never from guessing.
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

    def __repr__(self):
        return f"chi(t={self.t!r})"


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
    """Contragredient: t -> t^(-1) for characters, declared partner else."""
    if isinstance(psi, UnramifiedChar):
        return UnramifiedChar(psi.t.inverse())
    return RamifiedAbstract(psi.dual_label, psi.dim, psi.order, psi.label)


@dataclass(frozen=True)
class Line:
    """An irreducible line Z_psi = {nu^k psi}, keyed by its canonical
    representative (least discrete log of t over the orbit, for characters).
    key is line_key(base), built once."""

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
        return (0, base.t.field.dlog_idx(base.t.i))
    return (1, base.label)


@functools.lru_cache(maxsize=4096)
def _line_of_char(ctx, t_idx):
    field = ctx.field
    o = ctx.o_nu
    orbit = [(field.mul_idx(t_idx, ctx.nu_value(j).i), j) for j in range(o)]
    # orbit entry (v, j) means v = psi * q^(-j), i.e. psi = nu^(-j) chi_v;
    # pick the base of least discrete log
    best_val, best_j = min(orbit, key=lambda p: field.dlog_idx(p[0]))
    return Line(UnramifiedChar(field.elem(best_val)), o), (-best_j) % o


def line_of(psi, ctx: FieldCtx):
    """Canonical line of psi and the twist j with psi = nu^j * base."""
    if isinstance(psi, RamifiedAbstract):
        return Line(psi, psi.order), 0
    return _line_of_char(ctx, psi.t.i)


def twist(psi, k: int, ctx: FieldCtx):
    """nu^k twist.  Characters absorb the twist into their value (residue 0);
    abstract irreducibles keep their label and return k mod o(psi)."""
    if isinstance(psi, UnramifiedChar):
        return UnramifiedChar(psi.t * ctx.nu_value(k)), 0
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


def _char_times_abstract(chi: UnramifiedChar, psi: RamifiedAbstract, ctx):
    """chi_t * psi: a nu-power twist of psi when t is a power of q, and a
    synthesized abstract class (same dim, same orbit size) otherwise."""
    o = psi.order
    for j in range(ctx.o_nu):
        if chi.t == ctx.nu_value(j):
            return (j % o, psi)
    label = f"{chi.t!r}*{psi.label}"
    dual = f"{chi.t.inverse()!r}*{psi.dual_label}"
    return (0, RamifiedAbstract(label, psi.dim, psi.order, dual))


def fuse(psi, psi2, ctx: FieldCtx, table: FusionTable = None):
    """Semisimplified tensor of two irreducibles as a tuple of (twist, irr).

    Character pairs multiply; a character twists an abstract irreducible;
    abstract pairs must be present in the fusion table.
    """
    a_char = isinstance(psi, UnramifiedChar)
    b_char = isinstance(psi2, UnramifiedChar)
    if a_char and b_char:
        return ((0, UnramifiedChar(psi.t * psi2.t)),)
    if a_char:
        return (_char_times_abstract(psi, psi2, ctx),)
    if b_char:
        return (_char_times_abstract(psi2, psi, ctx),)
    if table is not None:
        entry = table.lookup(psi, psi2)
        if entry is not None:
            return entry
    raise MissingFusionRule(f"no fusion rule for ({psi!r}, {psi2!r})")
