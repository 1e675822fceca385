"""The normal form of L, gamma and epsilon.

Every local constant modwd produces has the form

    unit * prod_a (1 - aX)^(e_a),   a in F^x, finitely many e_a != 0,

with the unit c * X^m * (product of opaque epsilon tokens).  A
RationalFraction is the product over the reciprocal roots a, stored as the
sorted tuple of (index of a, e_a); a FactorExpr is a UnitExpr times a
RationalFraction.  The representation is unique, so equality of local
constants is equality of the stored tuples.  factors.py builds the forms
straight from exponent maps; the only operation kept here is the product
of fractions that check_multiplicativity takes.

The numerator prod_{e>0} (1 - aX)^e and the denominator
prod_{e<0} (1 - aX)^-e are coprime polynomials with constant term 1.  They
are expanded into _poly index lists only to print.
"""

from __future__ import annotations

from . import _poly
from .errors import DivisionByZero
from .field import FieldElem


def _show(field, coeffs) -> str:
    """A little-endian index list as c + c*X + c*X^e, zero terms skipped."""
    parts = []
    for e, c in enumerate(coeffs):
        if c:
            v = repr(FieldElem(field, c))
            parts.append(v if e == 0 else f"{v}*X" if e == 1 else f"{v}*X^{e}")
    return " + ".join(parts) or "0"


def _expand(field, roots) -> list:
    """prod (1 - aX)^e over the (index of a, e >= 0) pairs in roots, as a
    _poly index list."""
    coeffs = [1]
    for a, e in roots:
        for _ in range(e):
            coeffs = _poly.pmul(field, coeffs, [1, field.neg_idx(a)])
    return coeffs


class RationalFraction:
    """prod_a (1 - aX)^(e_a): the free abelian group on the reciprocal
    roots a in F^x, stored as the sorted tuple of (index of a, e_a != 0)."""

    __slots__ = ("field", "roots")

    def __init__(self, field, roots=()):
        self.field = field
        self.roots = roots

    @classmethod
    def make(cls, field, exponents):
        """The fraction with exponent map {index of a: e_a}."""
        return cls(field, tuple(sorted((a, e) for a, e in exponents.items()
                                       if e)))

    @classmethod
    def one(cls, field):
        return cls(field)

    def is_one(self):
        return not self.roots

    def __mul__(self, other):
        exponents = dict(self.roots)
        for a, e in other.roots:
            exponents[a] = exponents.get(a, 0) + e
        return RationalFraction.make(self.field, exponents)

    @property
    def num(self) -> list:
        return _expand(self.field, [(a, e) for a, e in self.roots if e > 0])

    @property
    def den(self) -> list:
        return _expand(self.field, [(a, -e) for a, e in self.roots if e < 0])

    def __eq__(self, other):
        return (isinstance(other, RationalFraction)
                and self.field == other.field and self.roots == other.roots)

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        return (f"({_show(self.field, self.num)})"
                f"/({_show(self.field, self.den)})")


class UnitExpr:
    """c * X^m * prod(token^e): an element of F^x x X^Z x (free abelian
    group on epsilon tokens)."""

    __slots__ = ("field", "scalar", "x_power", "tokens")

    def __init__(self, field, scalar=1, x_power=0, tokens=()):
        if scalar == 0:
            raise DivisionByZero("unit with zero scalar")
        self.field = field
        self.scalar = scalar
        self.x_power = x_power
        self.tokens = (tuple(sorted((t, e) for t, e in dict(tokens).items() if e))
                       if tokens else ())

    def scalar_elem(self):
        return FieldElem(self.field, self.scalar)

    def __eq__(self, other):
        return (isinstance(other, UnitExpr) and self.field == other.field
                and self.scalar == other.scalar
                and self.x_power == other.x_power
                and self.tokens == other.tokens)

    def __hash__(self):
        return hash((self.scalar, self.x_power, self.tokens))

    def __repr__(self):
        parts = [repr(self.scalar_elem())]
        if self.x_power:
            parts.append(f"X^{self.x_power}")
        for t, e in self.tokens:
            parts.append(t if e == 1 else f"{t}^{e}")
        return "*".join(parts)


class FactorExpr:
    """unit * frac: a UnitExpr times a RationalFraction."""

    __slots__ = ("field", "unit", "frac")

    def __init__(self, field, unit, frac):
        self.field = field
        self.unit = unit
        self.frac = frac

    @classmethod
    def from_unit(cls, unit: UnitExpr):
        return cls(unit.field, unit, RationalFraction.one(unit.field))

    def __eq__(self, other):
        return (isinstance(other, FactorExpr) and self.unit == other.unit
                and self.frac == other.frac)

    def __hash__(self):
        return hash((self.unit, self.frac))

    def __repr__(self):
        return f"unit: {self.unit!r}  frac: {self.frac!r}"


def euler_factor(reciprocal_roots, field=None) -> RationalFraction:
    """1 / prod(1 - a_i X) for the given reciprocal roots a_i in F^x."""
    if field is None:
        if not reciprocal_roots:
            raise ValueError("euler_factor of empty list needs an explicit field")
        field = reciprocal_roots[0].field
    exponents = {}
    for a in reciprocal_roots:
        exponents[a.i] = exponents.get(a.i, 0) - 1
    return RationalFraction.make(field, exponents)


def is_unit(f: FactorExpr):
    """True iff the fraction part is trivial; returns (flag, combined unit)."""
    if f.frac.is_one():
        return True, f.unit
    return False, None
