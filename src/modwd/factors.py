"""Artin-Deligne local constants L, gamma, epsilon on Deligne classes.

L reads the Frobenius action on the kernel of the operator (so cycles and
ramified segments contribute 1); gamma is a product over all irreducible
constituents, with the banal unramified character contributing its Tate
factor and everything else an opaque epsilon token; epsilon is the unit
gamma * L(X) / L(q^-1 X^-1, dual), and the invertibility assertion is a
hard error, not a convention.

The additive character psi is fixed at level 0, which makes epsilon of an
unramified character 1; every identity checked on both sides of the
correspondence uses the same normalization.
"""

from __future__ import annotations

from .deligne import DeligneClass, Seg, dual_class, tensor_ss, normalize, seg
from .errors import EpsilonNotUnit
from .field import FieldElem
from .laurent import (FactorExpr, LaurentPoly, RationalFraction, UnitExpr,
                      euler_factor, is_unit, one_minus_ax)
from .matrixmodel import MatrixDeligne, raw_tensor, realize
from .weil import UnramifiedChar


def char_token(value: FieldElem) -> str:
    return f"eps(chi@{value!r})"


def abstract_token(label: str, twist: int) -> str:
    return f"eps({label}@{twist})"


def constituent_counts(a: DeligneClass):
    """Multiset of irreducible constituents: unramified character values
    with multiplicity, and (label, twist) pairs for ramified ones."""
    ctx = a.ctx
    chars, toks = {}, {}
    for ind, m in a.parts:
        if isinstance(ind, Seg):
            base, reps = ind.irr, m
            if isinstance(base, UnramifiedChar):
                for i in range(ind.r):
                    u = base.t * ctx.nu_value(ind.a + i)
                    chars[u.i] = chars.get(u.i, 0) + reps
            else:
                for i in range(ind.r):
                    key = (base.label, (ind.a + i) % base.order)
                    toks[key] = toks.get(key, 0) + reps
        else:
            base = ind.line.base
            reps = m * ind.r
            if isinstance(base, UnramifiedChar):
                for j in range(ind.line.order):
                    u = base.t * ctx.nu_value(j)
                    chars[u.i] = chars.get(u.i, 0) + reps
            else:
                for j in range(ind.line.order):
                    toks[(base.label, j)] = toks.get((base.label, j), 0) + reps
    return chars, toks


def gamma_from_counts(char_counts, token_counts, ctx) -> FactorExpr:
    """gamma of a constituent multiset.

    Banal unramified chi with value u contributes
    (1-uX)/(1-u^-1 q^-1 X^-1) = (-uq) X (1-uX)/(1-uqX); consecutive orbit
    values telescope, so the fraction is assembled from count differences.
    Non-banal unramified and ramified constituents contribute tokens only.
    """
    field = ctx.field
    unit = UnitExpr.one(field)
    toks = {}
    for (label, j), c in sorted(token_counts.items()):
        key = abstract_token(label, j)
        toks[key] = toks.get(key, 0) + c
    if ctx.o_nu == 1:
        for u, c in sorted(char_counts.items()):
            key = char_token(field.elem(u))
            toks[key] = toks.get(key, 0) + c
        return FactorExpr.from_unit(UnitExpr(field, 1, 0, toks))
    scalar = 1
    xpow = 0
    num = LaurentPoly.one(field)
    den = LaurentPoly.one(field)
    q = ctx.q_img.i
    support = set(char_counts)
    for u, c in char_counts.items():
        support.add(field.mul_idx(u, q))
    for v in sorted(support):
        c = char_counts.get(v, 0)
        if c:
            scalar = field.mul_idx(scalar, field.pow_idx(
                field.neg_idx(field.mul_idx(v, q)), c))
            xpow += c
        # exponent of (1-vX): count at v (numerators) minus count at
        # v q^(-1) (denominators, since (1-uqX) sits at value uq)
        e = c - char_counts.get(field.mul_idx(v, ctx.q_inv.i), 0)
        factor = one_minus_ax(field.elem(v))
        for _ in range(abs(e)):
            if e > 0:
                num = num * factor
            else:
                den = den * factor
    frac = RationalFraction.make(num, den)
    return FactorExpr.from_rational(frac, UnitExpr(field, scalar, xpow, toks))


def tate_l(value: FieldElem) -> RationalFraction:
    """Tate L-factor of an unramified character: 1/(1 - value X)."""
    return euler_factor([value])


def l_factor(a: DeligneClass) -> RationalFraction:
    """det(Id - X Frob | Ker(U)^inertia)^(-1): one Euler factor per
    unramified segment, read off its top twist; cycles and ramified
    segments contribute 1."""
    ctx = a.ctx
    roots = []
    for ind, m in a.parts:
        if isinstance(ind, Seg) and isinstance(ind.irr, UnramifiedChar):
            u = ind.irr.t * ctx.nu_value(ind.a + ind.r - 1)
            roots.extend([u] * m)
    return euler_factor(roots, field=ctx.field)


def gamma_factor(a: DeligneClass) -> FactorExpr:
    chars, toks = constituent_counts(a)
    return gamma_from_counts(chars, toks, a.ctx)


def epsilon_factor(a: DeligneClass) -> FactorExpr:
    """gamma * L(X, a) / L(q^-1 X^-1, dual(a)); always a unit."""
    ctx = a.ctx
    g = gamma_factor(a)
    lf = l_factor(a)
    ld = l_factor(dual_class(a)).subst_qinv(ctx.q_img)
    eps = g * FactorExpr.from_rational(lf) / FactorExpr.from_rational(ld)
    ok, _ = is_unit(eps)
    if not ok:
        raise EpsilonNotUnit(f"epsilon is not a unit: {eps!r}")
    return eps


def l_factor_matrix(m: MatrixDeligne, ctx) -> RationalFraction:
    """The same determinant computed literally on a matrix realization."""
    field = m.F.field
    K = m.U.kernel()
    if K.ncols == 0:
        return RationalFraction.one(field)
    M = K.solve_in_basis(m.F @ K)
    cp = M.charpoly()
    # det(Id - XM) = X^d charpoly(1/X); charpoly monic makes the constant 1
    den = LaurentPoly.from_coeff_list(field, list(reversed(cp)))
    return RationalFraction.make(LaurentPoly.one(field), den)


def check_multiplicativity(n, m, psi, psi2, ctx, table=None) -> bool:
    """L(X, [0,n-1]psi (x)ss [0,m-1]psi') = prod_k L(X, nu^(n-1)psi (x)ss
    nu^k psi'), cross-checked against the matrix kernel computation."""
    if m > n:
        raise ValueError("check_multiplicativity expects m <= n")
    A = normalize([seg(psi, n, 0, ctx)], ctx)
    B = normalize([seg(psi2, m, 0, ctx)], ctx)
    lhs = l_factor(tensor_ss(A, B, table))
    rhs = RationalFraction.one(ctx.field)
    for k in range(m):
        left = normalize([seg(psi, 1, n - 1, ctx)], ctx)
        right = normalize([seg(psi2, 1, k, ctx)], ctx)
        rhs = rhs * l_factor(tensor_ss(left, right, table))
    if lhs != rhs:
        return False
    if isinstance(psi, UnramifiedChar) and isinstance(psi2, UnramifiedChar):
        matrix_side = l_factor_matrix(
            raw_tensor(realize(A, ctx), realize(B, ctx)), ctx)
        if matrix_side != lhs:
            return False
    return True
