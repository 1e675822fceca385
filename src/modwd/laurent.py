"""The group where L, gamma and epsilon live.

Every local constant modwd produces has the form

    unit * prod_a (1 - aX)^(e_a),   a in F^x, finitely many e_a != 0,

with the unit c * X^m * (product of opaque epsilon tokens).  A
RationalFraction is the product over the reciprocal roots a, stored as the
sorted tuple of (index of a, e_a); a FactorExpr is a UnitExpr times a
RationalFraction.  Products, quotients, powers and the substitution
X -> q^-1 X^-1 act on the exponents, the latter by

    (1 - aX)^e  ->  (-a q^-1 X^-1)^e * (1 - q a^-1 X)^e,

so the form is closed under all of them.  The representation is unique,
so equality of local constants is equality of the stored tuples.
factors.epsilon_from reads epsilon off the exponent maps without these
operations; the tests check it against them.

The numerator prod_{e>0} (1 - aX)^e and the denominator
prod_{e<0} (1 - aX)^-e are coprime polynomials with constant term 1.  They
are expanded only to print, and to compare with the matrix route, which
computes det(Id - X Frob) from a characteristic polynomial and never
looks for roots.
"""

from __future__ import annotations

from . import _poly
from .errors import DivisionByZero
from .field import FieldElem


class LaurentPoly:
    """Finitely supported map exponent -> nonzero field element index: the
    expanded, printable numerator or denominator of a fraction."""

    __slots__ = ("field", "c")

    def __init__(self, field, coeffs=None):
        self.field = field
        self.c = {e: v for e, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def one(cls, field):
        return cls(field, {0: 1})

    @classmethod
    def from_coeff_list(cls, field, coeffs):
        return cls(field, dict(enumerate(coeffs)))

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.field == other.field
                and self.c == other.c)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.c.items()))))

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = FieldElem(self.field, self.c[e])
            if e == 0:
                parts.append(f"{v!r}")
            elif e == 1:
                parts.append(f"{v!r}*X")
            else:
                parts.append(f"{v!r}*X^{e}")
        return " + ".join(parts)


def _expand(field, roots) -> LaurentPoly:
    """prod (1 - aX)^e over the (index of a, e >= 0) pairs in roots."""
    coeffs = [1]
    for a, e in roots:
        for _ in range(e):
            coeffs = _poly.pmul(field, coeffs, [1, field.neg_idx(a)])
    return LaurentPoly.from_coeff_list(field, coeffs)


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

    def _combine(self, other, sign):
        exponents = dict(self.roots)
        for a, e in other.roots:
            exponents[a] = exponents.get(a, 0) + sign * e
        return RationalFraction.make(self.field, exponents)

    def __mul__(self, other):
        return self._combine(other, 1)

    def __truediv__(self, other):
        return self._combine(other, -1)

    def inverse(self):
        return self ** -1

    def __pow__(self, n):
        if n == 0:
            return RationalFraction.one(self.field)
        return RationalFraction(self.field,
                                tuple((a, e * n) for a, e in self.roots))

    @property
    def num(self) -> LaurentPoly:
        return _expand(self.field, [(a, e) for a, e in self.roots if e > 0])

    @property
    def den(self) -> LaurentPoly:
        return _expand(self.field, [(a, -e) for a, e in self.roots if e < 0])

    def expanded(self):
        """(num, den), the form the matrix route computes."""
        return self.num, self.den

    def __eq__(self, other):
        return (isinstance(other, RationalFraction)
                and self.field == other.field and self.roots == other.roots)

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"


class UnitExpr:
    """c * X^m * prod(token^e): an element of F^x x X^Z x (free abelian
    group on epsilon tokens)."""

    __slots__ = ("field", "scalar", "x_power", "tokens")

    def __init__(self, field, scalar=1, x_power=0, tokens=()):
        if isinstance(scalar, FieldElem):
            scalar = scalar.i
        if scalar == 0:
            raise DivisionByZero("unit with zero scalar")
        self.field = field
        self.scalar = scalar
        self.x_power = x_power
        self.tokens = (tuple(sorted((t, e) for t, e in dict(tokens).items() if e))
                       if tokens else ())

    @classmethod
    def one(cls, field):
        return cls(field)

    def __mul__(self, other):
        F = self.field
        toks = dict(self.tokens)
        for t, e in other.tokens:
            toks[t] = toks.get(t, 0) + e
        return UnitExpr(F, F.mul_idx(self.scalar, other.scalar),
                        self.x_power + other.x_power, toks)

    def inverse(self):
        return self ** -1

    def __pow__(self, n):
        F = self.field
        if n == 0:
            return UnitExpr.one(F)
        return UnitExpr(F, F.pow_idx(self.scalar, n), self.x_power * n,
                        {t: e * n for t, e in self.tokens})

    def is_one(self):
        return self.scalar == 1 and self.x_power == 0 and not self.tokens

    def subst_qinv(self, q_img):
        """X -> q^(-1)X^(-1) on the unit part; tokens are left fixed."""
        F = self.field
        s = F.mul_idx(self.scalar, F.pow_idx(q_img.i, -self.x_power))
        return UnitExpr(F, s, -self.x_power, dict(self.tokens))

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
    def one(cls, field):
        return cls(field, UnitExpr.one(field), RationalFraction.one(field))

    @classmethod
    def from_unit(cls, unit: UnitExpr):
        return cls(unit.field, unit, RationalFraction.one(unit.field))

    @classmethod
    def from_rational(cls, rf: RationalFraction, unit=None):
        return cls(rf.field, unit or UnitExpr.one(rf.field), rf)

    def __mul__(self, other):
        return FactorExpr(self.field, self.unit * other.unit,
                          self.frac * other.frac)

    def inverse(self):
        return self ** -1

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        return FactorExpr(self.field, self.unit ** n, self.frac ** n)

    def subst_qinv(self, q_img):
        """X -> q^(-1)X^(-1): (1 - aX)^e becomes
        (-a q^-1 X^-1)^e (1 - q a^-1 X)^e."""
        F = self.field
        q = q_img.i
        neg_qinv = F.neg_idx(F.inv_idx(q))
        unit = self.unit.subst_qinv(q_img)
        scalar, x_power, exponents = unit.scalar, unit.x_power, {}
        for a, e in self.frac.roots:
            scalar = F.mul_idx(scalar, F.pow_idx(F.mul_idx(neg_qinv, a), e))
            x_power -= e
            exponents[F.mul_idx(q, F.inv_idx(a))] = e
        return FactorExpr(F, UnitExpr(F, scalar, x_power, unit.tokens),
                          RationalFraction.make(F, exponents))

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
