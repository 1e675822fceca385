"""Exact arithmetic in F_{ell^k} and the ambient modular context.

A FiniteField is F_ell[x]/(m) for the lexicographically least monic
irreducible m of degree k, which Rabin's test finds with the F_ell[x]
arithmetic of _poly over the prime field F(ell, 1); elements are encoded
as integer indices (base-ell digit strings).  Two pairs of tables turn a
field operation into one integer addition between lookups, for scalars
and for numpy index arrays alike: x * y = exp[log x + log y], where log 0
lies beyond every sum of two nonzero logs and exp reads 0 there, and
x + y = narrow[wide x + wide y], where wide reads the digits of x in base
2 ell - 1, in which two digit strings add without carries.  The
FieldCtx bundles the image of the residual cardinality q, the
multiplicative order o(nu) of that image, and a fixed square root of q.

Everything here is deterministic: rebuilding the same (ell, q, k) gives
bit-identical tables, moduli and canonical choices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from math import gcd

import numpy as np

from . import _poly
from .errors import (DimensionTooLarge, NeedsLargerField, NonPrime,
                     QDivisibleByEll, ZeroElement)

# Largest supported field order.  Building exp walks the Q - 1 powers of
# the generator in Python, and narrow has (2 ell - 1)^k entries: 531,441
# (130 Q) at F(2^12).
MAX_FIELD_ORDER = 4096

# Largest matrix side that realize, the tensor oracle's pair tensors and
# matrix dumps accept.  Criterion 5's pair tensors reach 256 (two
# 16-dimensional cycles at (5,2)).  The largest array decompose builds is
# _min_poly's (n + 1) x (n^2 + n + 1) of intp when m_F has degree n: 135 MB
# at n = 256.
MAX_DIM = 256


def check_field_order(ell, k):
    """Raise NeedsLargerField when F_{ell^k} is above MAX_FIELD_ORDER,
    without computing a large power."""
    if k >= MAX_FIELD_ORDER.bit_length() or ell ** k > MAX_FIELD_ORDER:
        raise NeedsLargerField(f"F({ell}^{k}) is larger than the supported "
                               f"order {MAX_FIELD_ORDER}")


def check_dim(n, what):
    """Raise DimensionTooLarge when n x n matrices are above MAX_DIM."""
    if n > MAX_DIM:
        raise DimensionTooLarge(f"{what} has dimension {n}, above the "
                                f"supported {MAX_DIM}")


def _factor(n):
    """The distinct prime factors of n, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n):
    return _factor(n) == [n]


def _least_irreducible(ell, k):
    """Lexicographically least monic irreducible of degree k over F_ell.

    Candidates are ordered by the integer c_0 + c_1 ell + ... encoding the
    non-leading coefficients.  Rabin's test, over the prime field: m is
    irreducible iff x^(ell^k) = x mod m and gcd(x^(ell^(k/r)) - x, m) = 1
    for every prime r | k.
    """
    if k == 1:
        return (0, 1)
    Fp = finite_field(ell, 1)

    def frob_minus_x(m, j):
        """x^(ell^j) - x mod m."""
        return _poly.psub(Fp, _poly.ppow_mod(Fp, [0, 1], ell ** j, m), [0, 1])

    for enc in range(ell ** k):
        m = [enc // ell ** i % ell for i in range(k)] + [1]
        if frob_minus_x(m, k):
            continue
        if all(_poly.pdeg(_poly.pgcd(Fp, m, frob_minus_x(m, k // r))) == 0
               for r in _factor(k)):
            return tuple(m)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """The field F_{ell^k}, with elements indexed by 0 .. ell^k - 1."""

    __slots__ = ("ell", "k", "order", "modulus", "gen_idx", "exp", "log",
                 "_wide", "_narrow", "_neg", "_np_exp", "_np_log", "_np_wide",
                 "_np_narrow", "np_neg", "_hash")

    def __init__(self, ell, k):
        if k < 1:
            raise ValueError("extension degree must be positive")
        check_field_order(ell, k)
        if not _is_prime(ell):
            raise NonPrime(f"{ell} is not prime")
        self.ell = ell
        self.k = k
        self.order = ell ** k
        self.modulus = _least_irreducible(ell, k)
        # fields key the per-context caches, so hash once
        self._hash = hash((ell, k, self.modulus))
        self._build_tables()

    # -- index <-> digits ---------------------------------------------------

    def digits(self, i):
        out = []
        for _ in range(self.k):
            out.append(i % self.ell)
            i //= self.ell
        return out

    def _enc(self, digits):
        out = 0
        for c in reversed(digits[:self.k]):
            out = out * self.ell + (c % self.ell)
        return out

    def _raw_mul(self, i, j):
        a, b = self.digits(i), self.digits(j)
        prod = [0] * (2 * self.k - 1)
        for x, ca in enumerate(a):
            if ca:
                for y, cb in enumerate(b):
                    prod[x + y] = (prod[x + y] + ca * cb) % self.ell
        m = self.modulus
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                for t in range(self.k + 1):
                    prod[d - self.k + t] = (prod[d - self.k + t] - c * m[t]) % self.ell
        return self._enc(prod)

    def _build_tables(self):
        Q, ell = self.order, self.ell
        # least primitive element by index order
        primes = _factor(Q - 1)
        g = None
        for cand in range(1, Q):
            ok = True
            for r in primes:
                if self._pow_raw(cand, (Q - 1) // r) == 1:
                    ok = False
                    break
            if ok:
                g = cand
                break
        self.gen_idx = g
        powers = [1] * (Q - 1)
        for e in range(1, Q - 1):
            powers[e] = self._raw_mul(powers[e - 1], g)
        # log 0 = 2(Q-1) exceeds every sum of two nonzero logs, and exp is
        # periodic below 2(Q-1) and 0 from there up to 4(Q-1), so
        # exp[log x + log y] is x * y for all x, y
        log = np.empty(Q, dtype=np.intp)
        log[powers] = np.arange(Q - 1)
        log[0] = 2 * (Q - 1)
        exp = np.array(powers * 2 + [0] * (2 * Q - 1), dtype=np.intp)
        # wide reads the base-ell digits of x in base 2 ell - 1, where two of
        # them add without carries; narrow takes each digit of such a sum
        # mod ell, so narrow[wide x + wide y] is x + y
        base = 2 * ell - 1
        idx = np.arange(Q, dtype=np.intp)
        sums = np.arange(base ** self.k, dtype=np.intp)
        wide, narrow, neg = (np.zeros_like(a) for a in (idx, sums, idx))
        for j in range(self.k):
            d = idx // ell ** j % ell
            wide += d * base ** j
            neg += (-d % ell) * ell ** j
            narrow += (sums // base ** j % base % ell) * ell ** j
        self._np_exp, self._np_log = exp, log
        self._np_wide, self._np_narrow, self.np_neg = wide, narrow, neg
        self.exp, self.log = exp.tolist(), log.tolist()
        self._wide, self._narrow, self._neg = (
            wide.tolist(), narrow.tolist(), neg.tolist())

    def _pow_raw(self, i, e):
        acc, base = 1, i
        while e:
            if e & 1:
                acc = self._raw_mul(acc, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return acc

    # -- index arithmetic ----------------------------------------------------

    def add_idx(self, i, j):
        return self._narrow[self._wide[i] + self._wide[j]]

    def neg_idx(self, i):
        return self._neg[i]

    def sub_idx(self, i, j):
        return self._narrow[self._wide[i] + self._wide[self._neg[j]]]

    def mul_idx(self, i, j):
        return self.exp[self.log[i] + self.log[j]]

    def inv_idx(self, i):
        if i == 0:
            raise ZeroElement("zero is not invertible")
        return self.exp[self.order - 1 - self.log[i]]

    def pow_idx(self, i, e):
        if i == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroElement("zero is not invertible")
            return 0
        return self.exp[(self.log[i] * e) % (self.order - 1)]

    def pth_root_idx(self, i):
        # Frobenius is x -> x^ell; its inverse is x -> x^(ell^(k-1))
        return self.pow_idx(i, self.ell ** (self.k - 1))

    def from_int_idx(self, n):
        return n % self.ell

    def dlog_idx(self, i):
        if i == 0:
            raise ZeroElement("zero has no discrete log")
        return self.log[i]

    def sqrt_idx(self, i):
        """Square roots of element i, sorted by discrete log (may be empty)."""
        if i == 0:
            return [0]
        Q = self.order
        e = self.log[i]
        if self.ell == 2:
            return [self.exp[(e * pow(2, -1, Q - 1)) % (Q - 1)]]
        if e % 2:
            return []
        r1, r2 = e // 2, (e // 2 + (Q - 1) // 2) % (Q - 1)
        return [self.exp[x] for x in sorted((r1, r2))]

    # -- index arrays -------------------------------------------------------------

    def add_arr(self, x, y):
        """Elementwise sum of broadcastable index arrays (or ints)."""
        return self._np_narrow[self._np_wide[x] + self._np_wide[y]]

    def mul_arr(self, x, y):
        """Elementwise product of broadcastable index arrays (or ints)."""
        return self._np_exp[self._np_log[x] + self._np_log[y]]

    # -- element construction --------------------------------------------------

    def elem(self, i):
        return FieldElem(self, i % self.order)

    @property
    def zero(self):
        return FieldElem(self, 0)

    @property
    def one(self):
        return FieldElem(self, 1)

    def from_int(self, n):
        return FieldElem(self, n % self.ell)

    def from_coeffs(self, coeffs):
        return FieldElem(self, self._enc([c % self.ell for c in coeffs]))

    def elements(self):
        for i in range(self.order):
            yield FieldElem(self, i)

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.ell == other.ell and self.k == other.k
                and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"F({self.ell}^{self.k})"


@functools.lru_cache(maxsize=32)
def finite_field(ell, k):
    return FiniteField(ell, k)


class FieldElem:
    """An element of a FiniteField; immutable, hashable, printable."""

    __slots__ = ("field", "i")

    def __init__(self, field, i):
        self.field = field
        self.i = i

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements from different fields")
            return other.i
        if isinstance(other, int):
            return other % self.field.ell
        return NotImplemented

    def __add__(self, other):
        j = self._coerce(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.add_idx(self.i, j))

    __radd__ = __add__

    def __sub__(self, other):
        j = self._coerce(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub_idx(self.i, j))

    def __rsub__(self, other):
        j = self._coerce(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub_idx(j, self.i))

    def __mul__(self, other):
        j = self._coerce(other)
        if j is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.mul_idx(self.i, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j = self._coerce(other)
        if j is NotImplemented:
            return NotImplemented
        if j == 0:
            raise ZeroElement("division by zero element")
        return FieldElem(self.field, self.field.mul_idx(self.i, self.field.inv_idx(j)))

    def __pow__(self, e):
        return FieldElem(self.field, self.field.pow_idx(self.i, e))

    def __neg__(self):
        return FieldElem(self.field, self.field.neg_idx(self.i))

    def inverse(self):
        return FieldElem(self.field, self.field.inv_idx(self.i))

    def is_zero(self):
        return self.i == 0

    @property
    def coeffs(self):
        return tuple(self.field.digits(self.i))

    def __eq__(self, other):
        # never equal to an int: an element would equal both n and n + ell,
        # whose hashes differ
        if isinstance(other, FieldElem):
            return self.i == other.i and (other.field is self.field
                                          or other.field == self.field)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.ell, self.field.k, self.i))

    def __repr__(self):
        cs = ",".join(str(c) for c in self.coeffs)
        return f"[{cs}]@F({self.field.ell}^{self.field.k})"


def mult_order(x: FieldElem) -> int:
    """Least n >= 1 with x^n = 1."""
    if x.i == 0:
        raise ZeroElement("zero has no multiplicative order")
    Q = x.field.order
    return (Q - 1) // gcd(x.field.dlog_idx(x.i), Q - 1)


@dataclass(frozen=True)
class FieldCtx:
    """Ambient modular context: F_{ell^k}, q mod ell, o(nu), sqrt(q)."""

    field: FiniteField
    q_residue: int
    q_img: FieldElem
    o_nu: int
    sqrt_q: FieldElem
    _hash: int = dc_field(init=False, repr=False, compare=False)
    q_log: int = dc_field(init=False, repr=False, compare=False)  # S = dlog q

    def __post_init__(self):
        # contexts key the per-context caches, so hash the compared fields
        # once, as the generated __hash__ would on every lookup
        object.__setattr__(self, "_hash", hash(
            (self.field, self.q_residue, self.q_img, self.o_nu, self.sqrt_q)))
        object.__setattr__(self, "q_log", self.field.log[self.q_img.i])

    def __hash__(self):
        return self._hash

    @property
    def ell(self):
        return self.field.ell

    @property
    def k(self):
        return self.field.k

    def nu_value(self, j):
        """Value of nu^j at Frobenius: q^(-j)."""
        return self.q_img ** (-j)

    def header(self):
        return f"ctx ell={self.ell} q={self.q_residue} k={self.k}"

    def __repr__(self):
        return f"FieldCtx({self.header()}, o_nu={self.o_nu})"


def make_ctx(ell, q_residue, ext_deg=1) -> FieldCtx:
    """Build the modular context for (ell, q), extending F_{ell^k} until a
    square root of q exists (one doubling always suffices)."""
    if ext_deg < 1:
        raise ValueError("ext_deg must be positive")
    check_field_order(ell, ext_deg)
    if not _is_prime(ell):
        raise NonPrime(f"{ell} is not prime")
    if q_residue % ell == 0:
        raise QDivisibleByEll(f"q={q_residue} is divisible by ell={ell}")
    k = ext_deg
    while True:
        F = finite_field(ell, k)
        q_img = F.from_int(q_residue)
        roots = F.sqrt_idx(q_img.i)
        if roots:
            sqrt_q = F.elem(roots[0])
            break
        k *= 2
    o_nu = mult_order(q_img)
    return FieldCtx(field=F, q_residue=q_residue, q_img=q_img, o_nu=o_nu,
                    sqrt_q=sqrt_q)
