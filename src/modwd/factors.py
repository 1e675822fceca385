"""Artin-Deligne local constants L, gamma, epsilon on Deligne classes.

Each factor is read off the class's constituents straight into the normal
form of laurent.py, a unit times an exponent map on reciprocal roots:

- L reads the Frobenius action on the kernel of the operator: one root
  per unramified segment, the value at its top twist, so cycles and
  ramified segments contribute 1.  L of the dual class is read off the
  same segments, so epsilon never builds the dual.
- gamma is a product over all irreducible constituents, with the banal
  unramified character contributing its Tate factor and everything else
  an opaque epsilon token.
- epsilon is the unit gamma * L(X) / L(q^-1 X^-1, dual), read off the
  exponent maps: gamma's and L's exponents minus e at q a^-1 for each
  (1 - aX)^e of the dual's L, and gamma's unit times (-q^-1 a)^-e X^e.
  The invertibility assertion is a hard error, not a convention.

The matrix route l_factor_matrix reads the same exponent map off slice
ranks of the realization's operator, so both routes meet as exponent maps
and no polynomial is expanded on either side.

The additive character psi is fixed at level 0, which makes epsilon of an
unramified character 1; every identity checked on both sides of the
correspondence uses the same normalization.
"""

from __future__ import annotations

from .deligne import DeligneClass, Seg, tensor_ss, seg
from .errors import EpsilonNotUnit
from .field import FieldElem
from .laurent import FactorExpr, RationalFraction, UnitExpr
from ._linalg import pivot_columns
from .matrixmodel import MatrixDeligne, _adapted, raw_tensor, realize
from .weil import UnramifiedChar


def char_token(value: FieldElem) -> str:
    return f"eps(chi@{value!r})"


def abstract_token(label: str, twist: int) -> str:
    return f"eps({label}@{twist})"


def constituent_counts(a: DeligneClass):
    """Multiset of irreducible constituents: unramified character values
    with multiplicity, and (label, twist) pairs for ramified ones.  The
    constituent nu^i chi_T has the value of log T - iS."""
    field, S = a.ctx.field, a.ctx.q_log
    exp, n = field.exp, field.order - 1
    chars, toks = {}, {}
    for ind, m in a.parts:
        if isinstance(ind, Seg):
            base, reps, twists = ind.irr, m, range(ind.a, ind.a + ind.r)
        else:
            base, reps, twists = ind.line.base, m * ind.r, range(ind.line.order)
        if isinstance(base, UnramifiedChar):
            T = base.log
            for i in twists:
                u = exp[(T - i * S) % n]
                chars[u] = chars.get(u, 0) + reps
        else:
            for i in twists:
                key = (base.label, i % base.order)
                toks[key] = toks.get(key, 0) + reps
    return chars, toks


def gamma_from_counts(char_counts, token_counts, ctx) -> FactorExpr:
    """gamma of a constituent multiset.

    A banal unramified chi with value u contributes
    (1-uX)/(1-u^-1 q^-1 X^-1) = (-uq) X (1-uX)/(1-uqX); the exponents of
    consecutive orbit values cancel in the exponent map.  Non-banal
    unramified and ramified constituents contribute tokens only.
    """
    field = ctx.field
    toks = {}
    for (label, j), c in token_counts.items():
        key = abstract_token(label, j)
        toks[key] = toks.get(key, 0) + c
    if ctx.o_nu == 1:
        for u, c in char_counts.items():
            key = char_token(field.elem(u))
            toks[key] = toks.get(key, 0) + c
        return FactorExpr.from_unit(UnitExpr(field, 1, 0, toks))
    q = ctx.q_img.i
    scalar, x_power, exponents = 1, 0, {}
    for u, c in char_counts.items():
        uq = field.mul_idx(u, q)
        scalar = field.mul_idx(scalar, field.pow_idx(field.neg_idx(uq), c))
        x_power += c
        exponents[u] = exponents.get(u, 0) + c
        exponents[uq] = exponents.get(uq, 0) - c
    return FactorExpr(field, UnitExpr(field, scalar, x_power, toks),
                      RationalFraction.make(field, exponents))


def _l_map(a: DeligneClass, dual=False) -> dict:
    """Exponents of L(X, a), or of L(X, dual(a)) when dual is set, read off
    the unramified segments: the reciprocal root of nu^a chi_T of length r
    is the value at its top twist, of log T - (a + r - 1)S, and the top
    twist of its dual is the inverse of its bottom one, of log aS - T."""
    field, S = a.ctx.field, a.ctx.q_log
    exp, n = field.exp, field.order - 1
    exponents = {}
    for ind, m in a.parts:
        if isinstance(ind, Seg) and isinstance(ind.irr, UnramifiedChar):
            if dual:
                u = exp[(ind.a * S - ind.irr.log) % n]
            else:
                u = exp[(ind.irr.log - (ind.a + ind.r - 1) * S) % n]
            exponents[u] = exponents.get(u, 0) - m
    return exponents


def l_factor(a: DeligneClass) -> RationalFraction:
    """det(Id - X Frob | Ker(U)^inertia)^(-1): one Euler factor per
    unramified segment, read off its top twist; cycles and ramified
    segments contribute 1."""
    return RationalFraction.make(a.ctx.field, _l_map(a))


def gamma_factor(a: DeligneClass) -> FactorExpr:
    return gamma_from_counts(*constituent_counts(a), a.ctx)


def epsilon_from(gamma, l, l_dual, ctx) -> FactorExpr:
    """gamma * L(X) / L(q^-1 X^-1) for L = l and the dual's L = l_dual,
    read off the exponent maps.  Each (1 - aX)^e of l_dual becomes
    (-a q^-1 X^-1)^e (1 - q a^-1 X)^e, so epsilon has gamma's and l's
    exponents minus e at q a^-1, and gamma's unit times (-q^-1 a)^-e X^e.
    Raises EpsilonNotUnit unless every exponent cancels."""
    F = ctx.field
    q = ctx.q_img.i
    neg_qinv = F.neg_idx(F.inv_idx(q))
    scalar, x_power = gamma.unit.scalar, gamma.unit.x_power
    exponents = dict(gamma.frac.roots)
    for a, e in l.roots:
        exponents[a] = exponents.get(a, 0) + e
    for a, e in l_dual.roots:
        scalar = F.mul_idx(scalar, F.pow_idx(F.mul_idx(neg_qinv, a), -e))
        x_power += e
        b = F.mul_idx(q, F.inv_idx(a))
        exponents[b] = exponents.get(b, 0) - e
    unit = UnitExpr(F, scalar, x_power, gamma.unit.tokens)
    if any(exponents.values()):
        raise EpsilonNotUnit(
            FactorExpr(F, unit, RationalFraction.make(F, exponents)))
    return FactorExpr.from_unit(unit)


def constants_from(l, l_dual, chars, toks, ctx):
    """(L, gamma, epsilon), each built once, from the exponents of L and of
    the dual's L and the character and token counts of gamma."""
    l = RationalFraction.make(ctx.field, l)
    gamma = gamma_from_counts(chars, toks, ctx)
    return l, gamma, epsilon_from(
        gamma, l, RationalFraction.make(ctx.field, l_dual), ctx)


def local_constants(a: DeligneClass):
    """(L, gamma, epsilon) of a, each computed once."""
    return constants_from(_l_map(a), _l_map(a, dual=True),
                          *constituent_counts(a), a.ctx)


def epsilon_factor(a: DeligneClass) -> FactorExpr:
    """gamma * L(X, a) / L(q^-1 X^-1, dual(a)); always a unit."""
    return local_constants(a)[2]


def l_factor_matrix(m: MatrixDeligne, ctx) -> RationalFraction:
    """The same determinant read off a matrix realization: in _adapted's
    basis F is the scalar v on each eigenspace V_v and U maps V_v into
    V_(v/q), distinct targets for distinct v, so Ker(U) is the sum of the
    Ker(U|V_v), of dimension |V_v| - rank U[:, V_v], and L has the
    exponent rank U[:, V_v] - |V_v| at v (an empty pair has no v: L = 1)."""
    ranges, G = _adapted(m, ctx)
    exponents = {}
    for v, (lo, hi) in ranges.items():
        C = G[:, lo:hi]
        # the rows U reaches from V_v, so that the reduction is small
        exponents[v] = len(pivot_columns(ctx.field, C[C.any(1)])) - hi + lo
    return RationalFraction.make(ctx.field, exponents)


def check_multiplicativity(n, m, psi, psi2, ctx) -> bool:
    """L(X, [0,n-1]psi (x)ss [0,m-1]psi') = prod_k L(X, nu^(n-1)psi (x)ss
    nu^k psi'), cross-checked against l_factor_matrix of the raw tensor."""
    if m > n:
        raise ValueError("check_multiplicativity expects m <= n")
    A = DeligneClass(ctx, ((seg(psi, n, 0, ctx), 1),))
    B = DeligneClass(ctx, ((seg(psi2, m, 0, ctx), 1),))
    lhs = l_factor(tensor_ss(A, B))
    rhs = RationalFraction.one(ctx.field)
    for k in range(m):
        left = DeligneClass(ctx, ((seg(psi, 1, n - 1, ctx), 1),))
        right = DeligneClass(ctx, ((seg(psi2, 1, k, ctx), 1),))
        rhs = rhs * l_factor(tensor_ss(left, right))
    if lhs != rhs:
        return False
    if isinstance(psi, UnramifiedChar) and isinstance(psi2, UnramifiedChar):
        if l_factor_matrix(
                raw_tensor(realize(A, ctx), realize(B, ctx)), ctx) != lhs:
            return False
    return True
