"""References kept apart from the code they check: the group law on local
constants, apart from factors.epsilon_from, so the epsilon tests compare
against a formula that does not go through it; the line of a character by
walking its twist orbit, apart from weil.line_of's closed form; and the
preservation report with each side's L, gamma and epsilon built on its
own, apart from compare_sides' comparison of the two sides' maps; and L
of a matrix realization by the characteristic polynomial of Frobenius on
Ker(U), apart from factors.l_factor_matrix's slice ranks in the basis of
matrixmodel._adapted, which decompose shares; the tensor of two matrix
pairs by Kronecker products with identity matrices in the field, apart
from matrixmodel.raw_tensor's index assignment; and the lines of a set of
Frobenius eigenvalues by multiplying each around its q-orbit, apart from
matrixmodel._lines_of_values' walk in discrete-log space.

A local constant is unit * prod_a (1 - aX)^(e_a).  Products and quotients
add or subtract the exponent maps and multiply the units; the substitution
X -> q^-1 X^-1 sends (1 - aX)^e to (-a q^-1 X^-1)^e (1 - q a^-1 X)^e.
"""

import numpy as np

from modwd import _poly, gln
from modwd._linalg import FMat
from modwd.deligne import tensor_ss
from modwd.factors import local_constants
from modwd.laurent import FactorExpr, RationalFraction, UnitExpr
from modwd.matrixmodel import MatrixDeligne


def factor(frac, unit=None):
    """The FactorExpr unit * frac, with unit 1 by default."""
    return FactorExpr(frac.field, unit or UnitExpr(frac.field), frac)


def mul(f, g, sign=1):
    """f * g, or f / g when sign is -1."""
    F = f.field
    toks = dict(f.unit.tokens)
    for t, e in g.unit.tokens:
        toks[t] = toks.get(t, 0) + sign * e
    exponents = dict(f.frac.roots)
    for a, e in g.frac.roots:
        exponents[a] = exponents.get(a, 0) + sign * e
    unit = UnitExpr(F, F.mul_idx(f.unit.scalar, F.pow_idx(g.unit.scalar, sign)),
                    f.unit.x_power + sign * g.unit.x_power, toks)
    return FactorExpr(F, unit, RationalFraction.make(F, exponents))


def subst_qinv(f, q_img):
    """f(q^-1 X^-1); epsilon tokens are left fixed."""
    F = f.field
    q = q_img.i
    neg_qinv = F.neg_idx(F.inv_idx(q))
    scalar = F.mul_idx(f.unit.scalar, F.pow_idx(q, -f.unit.x_power))
    x_power, exponents = -f.unit.x_power, {}
    for a, e in f.frac.roots:
        scalar = F.mul_idx(scalar, F.pow_idx(F.mul_idx(neg_qinv, a), e))
        x_power -= e
        exponents[F.mul_idx(q, F.inv_idx(a))] = e
    return FactorExpr(F, UnitExpr(F, scalar, x_power, f.unit.tokens),
                      RationalFraction.make(F, exponents))


def group_epsilon(gamma, l, l_dual, ctx):
    """gamma * L(X) / L(q^-1 X^-1, dual) by the group law."""
    return mul(mul(gamma, factor(l)),
               subst_qinv(factor(l_dual), ctx.q_img), -1)


def line_by_orbit_walk(ctx, t):
    """(base value, j) of the line of chi_t, from the values t q^-i of its
    twists nu^i chi_t: the base has the least discrete log, and chi_t is
    nu^j times the base."""
    F, q_inv = ctx.field, ctx.q_img.inverse()
    orbit, v = [], t
    for i in range(ctx.o_nu):
        orbit.append((F.dlog_idx(v.i), i, v))
        v = v * q_inv
    _, i, base = min(orbit)
    return base, -i % ctx.o_nu


def two_sided_report(pi, pi2):
    """compare_sides(PairSide(pi), PairSide(pi2)) with each side built on
    its own, the Rankin-Selberg side first: the pair factors of pi and pi2,
    epsilon from the L of their built duals, then local_constants of the
    built tensor of the C-parameters.  The pair rules are looked up in gln
    on each call, so a test can replace them."""
    rs_l, rs_gamma = gln.rs_l_factor(pi, pi2), gln.rs_gamma_factor(pi, pi2)
    rs_eps = gln.rs_epsilon_factor(pi, pi2)
    gal = local_constants(tensor_ss(gln.c_map(pi), gln.c_map(pi2)))
    return gln.PreservationReport(rs_l, gal[0], rs_gamma, gal[1], rs_eps,
                                  gal[2])


def ref_kernel(A):
    """Kernel basis by the entry-by-entry loop over the free columns of
    rref(A)."""
    F = A.field
    R, pivots = A.rref()
    free = [c for c in range(A.ncols) if c not in pivots]
    out = np.zeros((A.ncols, len(free)), dtype=np.intp)
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for i, pc in enumerate(pivots):
            out[pc, j] = F.neg_idx(int(R.a[i, fc]))
    return out


def l_by_charpoly(m):
    """(num, den) = ([1], det(Id - X M)) as _poly index lists, with M the
    Frobenius on a basis of Ker(U): det(Id - XM) = X^d charpoly(1/X), and
    the monic charpoly makes its constant 1."""
    K = FMat(m.F.field, ref_kernel(m.U))
    if K.ncols == 0:
        return [1], [1]
    M = K.solve_in_basis(m.F @ K)
    return [1], _poly.pnorm(M.charpoly()[::-1])


def raw_tensor_by_kron(m1, m2):
    """(F1 (x) F2, U1 (x) Id + Id (x) U2) with every Kronecker product and
    the sum taken in the field."""
    field = m1.F.field
    I1 = FMat.identity(field, m1.dim)
    I2 = FMat.identity(field, m2.dim)
    return MatrixDeligne(m1.F.kron(m2.F), m1.U.kron(I2) + I1.kron(m2.U))


def lines_by_mul_walk(vals, ctx, field):
    """(t0, [t0 q^-c for c < o]) for each q-orbit of the eigenvalue indices
    vals, by increasing discrete log of t0, the orbit's value of least
    discrete log: orbit[i] = v q^i, so t0 q^-c = orbit[k - c] for t0 =
    orbit[k]."""
    out = []
    seen = set()
    for v in vals:
        if v in seen:
            continue
        orbit = [v]
        for _ in range(ctx.o_nu - 1):
            orbit.append(field.mul_idx(orbit[-1], ctx.q_img.i))
        seen.update(orbit)
        t0 = min(orbit, key=field.dlog_idx)
        k = orbit.index(t0)
        out.append((t0, [orbit[k - c] for c in range(ctx.o_nu)]))
    return sorted(out, key=lambda p: field.dlog_idx(p[0]))
