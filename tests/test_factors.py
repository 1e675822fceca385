import random

import pytest

from modwd import (Cyc, RamifiedAbstract, Seg, UnramifiedChar,
                   check_multiplicativity, epsilon_factor, euler_factor,
                   gamma_factor, is_unit, l_factor, l_factor_matrix,
                   make_ctx, normalize, raw_tensor, realize, tensor_ss,
                   zero_class)
from modwd.errors import ModwdError, NeedsLargerField
from modwd.laurent import RationalFraction, UnitExpr
from modwd.matrixmodel import MatrixDeligne, decompose
from modwd._linalg import FMat
from modwd.verify import enumerate_line_classes, transport
from modwd.weil import line_of
from reference import factor, group_epsilon, l_by_charpoly, mul, subst_qinv


def chi(ctx, v):
    return UnramifiedChar(ctx.field.from_int(v))


def test_l_factor_examples(ctx52):
    F = ctx52.field
    line = line_of(chi(ctx52, 1), ctx52)[0]
    assert l_factor(normalize([Cyc(line, 1)], ctx52)).is_one()
    full = normalize([Seg(chi(ctx52, 1), 1, k) for k in range(4)], ctx52)
    assert l_factor(full) == euler_factor([ctx52.nu_value(k) for k in range(4)])
    # the orbit product collapses to 1/(1 - X^4)
    assert l_factor(full).den == [1, 0, 0, 0, F.neg_idx(1)]
    t = F.from_int(2)
    for r in (1, 2, 3):
        a = normalize([Seg(chi(ctx52, 2), r, 0)], ctx52)
        assert l_factor(a) == euler_factor([t * ctx52.nu_value(r - 1)])


def test_l_factor_ramified_and_multiplicative(ctx52):
    psi = RamifiedAbstract("psi", 2, 2, "psiv")
    assert l_factor(normalize([Seg(psi, 3, 0)], ctx52)).is_one()
    a = normalize([Seg(chi(ctx52, 1), 2, 0)], ctx52)
    b = normalize([Seg(chi(ctx52, 2), 1, 1)], ctx52)
    from modwd import dsum
    assert l_factor(dsum(a, b)) == l_factor(a) * l_factor(b)


def test_gamma_banal_character(ctx52):
    # gamma of the trivial character: (1-X)/(1-q^-1 X^-1), normalized as
    # the unit (-q) X times (1-X)/(1-qX)
    F = ctx52.field
    g = gamma_factor(normalize([Seg(chi(ctx52, 1), 1, 0)], ctx52))
    expect = mul(factor(euler_factor([ctx52.q_img]),
                        UnitExpr(F, F.neg_idx(ctx52.q_img.i), 1)),
                 factor(euler_factor([F.one])), -1)
    assert g == expect


def test_gamma_multiplicative_over_dsum(ctx52):
    from modwd import dsum
    a = normalize([Seg(chi(ctx52, 2), 2, 1)], ctx52)
    b = normalize([Cyc(line_of(chi(ctx52, 1), ctx52)[0], 1)], ctx52)
    assert gamma_factor(dsum(a, b)) == mul(gamma_factor(a), gamma_factor(b))


def test_gamma_non_banal_is_pure_tokens(ctx34):
    g = gamma_factor(normalize([Seg(chi(ctx34, 1), 2, 0)], ctx34))
    ok, unit = is_unit(g)
    assert ok
    assert unit.tokens and unit.x_power == 0 and unit.scalar == 1


def test_gamma_banal_cycle_collapses_to_unit(ctx52):
    # all L-parts cancel around the orbit; gamma of a cycle is a unit
    line = line_of(chi(ctx52, 2), ctx52)[0]
    g = gamma_factor(normalize([Cyc(line, 1)], ctx52))
    ok, unit = is_unit(g)
    assert ok and unit.x_power == 4


def test_banal_cycle_l_identity(ctx52):
    # prod_k L(X, nu^k chi) = 1/(1 - (tX)^o)
    F = ctx52.field
    for t_int in (1, 2):
        t = F.from_int(t_int)
        prod = RationalFraction.one(F)
        for k in range(4):
            prod = prod * euler_factor([t * ctx52.nu_value(k)])
        assert prod.den == [1, 0, 0, 0, (-(t ** 4)).i]


def test_epsilon_cycle_units(ctx52):
    # epsilon([0,r-1] (x) C(Z_chi_t)) = (-(tX)^o)^r under level-0 psi
    F = ctx52.field
    o = 4
    for t_int in (1, 2):
        t = F.from_int(t_int)
        line = line_of(UnramifiedChar(t), ctx52)[0]
        for r in (1, 2, 3):
            eps = epsilon_factor(normalize([Cyc(line, r)], ctx52))
            ok, unit = is_unit(eps)
            assert ok
            assert unit == UnitExpr(F, ((-F.one) ** r * t ** (o * r)).i, o * r)


def test_epsilon_banal_segment_is_unit(ctx52):
    for r in (1, 2, 3, 5):
        for a in range(4):
            eps = epsilon_factor(normalize([Seg(chi(ctx52, 2), r, a)], ctx52))
            assert is_unit(eps)[0]


def test_epsilon_ramified_is_token_product(ctx52):
    psi = RamifiedAbstract("psi", 2, 2, "psiv")
    eps = epsilon_factor(normalize([Seg(psi, 2, 0)], ctx52))
    ok, unit = is_unit(eps)
    assert ok
    assert sorted(t for t, _ in unit.tokens) == ["eps(psi@0)", "eps(psi@1)"]


def test_epsilon_equivalence_invariance_via_matrix(ctx52):
    # factors are class functions: rescaled realizations decompose to the
    # same class, hence identical factors
    line = line_of(chi(ctx52, 1), ctx52)[0]
    a = normalize([(Seg(chi(ctx52, 2), 2, 0), 1), (Cyc(line, 1), 1)], ctx52)
    m = realize(a, ctx52)
    for lam in (2, 13):
        cls = decompose(MatrixDeligne(m.F, m.U.scale(lam)), ctx52)
        assert cls == a
        assert l_factor(cls) == l_factor(a)
        assert epsilon_factor(cls) == epsilon_factor(a)


def test_l_factor_matrix_examples(ctx52):
    F = ctx52.field
    # reproduces the formal L on realizations
    line = line_of(chi(ctx52, 1), ctx52)[0]
    cases = [
        normalize([Cyc(line, 1)], ctx52),
        normalize([Seg(chi(ctx52, 1), 1, k) for k in range(4)], ctx52),
        normalize([Seg(chi(ctx52, 2), 3, 0)], ctx52),
    ]
    for a in cases:
        assert l_factor_matrix(realize(a, ctx52), ctx52) == l_factor(a)
    # U invertible -> 1, and so on the empty realization
    m = realize(normalize([Cyc(line, 2)], ctx52), ctx52)
    assert l_factor_matrix(m, ctx52).is_one()
    assert l_factor_matrix(realize(zero_class(ctx52), ctx52), ctx52).is_one()
    # U = 0, F = diag(t) -> 1/(1 - tX)
    t = F.from_int(2)
    m = MatrixDeligne(FMat.diag(F, [t.i]), FMat.zeros(F, 1, 1))
    assert l_factor_matrix(m, ctx52) == euler_factor([t])


@pytest.mark.parametrize("ell,q", [(5, 2), (2, 3)])
def test_l_factor_matrix_matches_charpoly_reference(ell, q):
    # the slice-rank L against the characteristic polynomial of Frobenius
    # on Ker(U), a route that shares nothing with decompose's adapted
    # basis, on 2,000 seeded line classes of dim <= 12
    ctx = make_ctx(ell, q)
    pool = enumerate_line_classes(ctx, 12)
    rng = random.Random(f"l-reference:{ell}:{q}")
    for _ in range(2000):
        m = realize(pool[rng.randrange(len(pool))], ctx)
        got = l_factor_matrix(m, ctx)
        assert l_by_charpoly(m) == (got.num, got.den)


# F(2)^x is {1}, so at (2,3) F is the identity and only U is conjugated
@pytest.mark.parametrize("ell,q,least", [(5, 2, 150), (3, 2, 150), (2, 3, 0)])
def test_l_factor_matrix_on_transported_realizations(ell, q, least):
    # conjugated and operator-rescaled realizations: where F is not
    # diagonal, the eigenspaces come from the spectral basis
    ctx = make_ctx(ell, q)
    _, rows, _, _ = transport(ell, q, 200)
    assert sum(not mc.F.is_diagonal() for _, mc in rows) >= least
    for a, mc in rows:
        assert l_factor_matrix(mc, ctx) == l_factor(a)


def test_l_factor_matrix_needs_eigenvalues_in_the_field(ctx52):
    # F the companion matrix of x^2 - g for a non-square g of F(5^2), U = 0:
    # Ker(U) is everything, and its characteristic polynomial has no root
    F = ctx52.field
    g = F.exp[1]
    m = MatrixDeligne(FMat(F, [[0, g], [1, 0]]), FMat.zeros(F, 2, 2))
    assert l_by_charpoly(m) == ([1], [1, 0, F.neg_idx(g)])
    with pytest.raises(NeedsLargerField) as exc:
        l_factor_matrix(m, ctx52)
    assert isinstance(exc.value, ModwdError)


def test_check_multiplicativity_examples(ctx52, ctx23):
    one52 = chi(ctx52, 1)
    assert check_multiplicativity(1, 1, one52, one52, ctx52)
    one23 = chi(ctx23, 1)
    assert check_multiplicativity(2, 2, one23, one23, ctx23)
    # the char-2 profile gives kernel degrees {1,2}: both sides equal
    # (1-q^-1X)^-1 (1-q^-2X)^-1
    lhs = l_factor(tensor_ss(normalize([Seg(one23, 2, 0)], ctx23),
                             normalize([Seg(one23, 2, 0)], ctx23)))
    assert lhs == euler_factor([ctx23.nu_value(1), ctx23.nu_value(2)])
    with pytest.raises(ValueError):
        check_multiplicativity(1, 2, one52, one52, ctx52)


def test_l_matrix_agrees_on_raw_tensor(ctx52):
    a = normalize([Seg(chi(ctx52, 1), 3, 0)], ctx52)
    b = normalize([Seg(chi(ctx52, 1), 2, 0)], ctx52)
    m = raw_tensor(realize(a, ctx52), realize(b, ctx52))
    mat = l_factor_matrix(m, ctx52)
    assert mat == l_factor(tensor_ss(a, b))
    assert l_by_charpoly(m) == (mat.num, mat.den)


def test_epsilon_duality_identity(ctx52):
    # epsilon(a) * epsilon(a^dual at q^-1 X^-1-normalization) interplay is
    # not asserted by the theory here; instead check gamma = eps * L_dual/L
    from modwd import dual_class
    a = normalize([Seg(chi(ctx52, 2), 2, 1)], ctx52)
    g = gamma_factor(a)
    eps = epsilon_factor(a)
    lf = factor(l_factor(a))
    ld = subst_qinv(factor(l_factor(dual_class(a))), ctx52.q_img)
    assert eps == mul(mul(g, lf), ld, -1)


def test_epsilon_matches_dual_class_route(ctx52, ctx23, ctx32, ctx34):
    # epsilon reads L of the dual off the class's own segments; building
    # the dual class and taking its L must give the same epsilon
    from modwd import dual_class
    from modwd.verify import enumerate_line_classes
    for ctx in (ctx52, ctx23, ctx32, ctx34):
        for a in enumerate_line_classes(ctx, 6):
            assert epsilon_factor(a) == group_epsilon(
                gamma_factor(a), l_factor(a), l_factor(dual_class(a)), ctx)


def test_epsilon_matches_group_formula_with_tokens(ctx52):
    # ramified segments and cycles put tokens in gamma beside the banal
    # constituents' scalars and X-powers
    import random
    from modwd import dual_class
    irrs = [RamifiedAbstract("psi", 2, o, "psiv") for o in (1, 2, 4)]
    rng = random.Random(13)
    seen = 0
    for _ in range(300):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(4)
            if kind == 0:
                parts.append(Seg(rng.choice(irrs), rng.randrange(1, 4),
                                 rng.randrange(4)))
            elif kind == 1:
                parts.append(Cyc(line_of(rng.choice(irrs), ctx52)[0],
                                 rng.randrange(1, 3)))
            elif kind == 2:
                parts.append(Seg(chi(ctx52, rng.randrange(1, 5)),
                                 rng.randrange(1, 5), rng.randrange(4)))
            else:
                parts.append(Cyc(line_of(chi(ctx52, rng.randrange(1, 5)),
                                         ctx52)[0], rng.randrange(1, 3)))
        a = normalize(parts, ctx52)
        want = group_epsilon(gamma_factor(a), l_factor(a),
                             l_factor(dual_class(a)), ctx52)
        eps = epsilon_factor(a)
        assert eps == want and repr(eps) == repr(want), a
        seen += bool(eps.unit.tokens)
    assert seen > 100


def _not_unit_inputs(ctx):
    """(gamma, L, the epsilon of gamma, L, L): L of the class in place of
    its dual's leaves (1 - aX)/(1 - q a^-1 X) factors that do not cancel."""
    a = normalize([(Seg(chi(ctx, 2), 2, 1), 1),
                   (Seg(RamifiedAbstract("psi", 2, 2, "psiv"), 1, 0), 1)],
                  ctx)
    g, l = gamma_factor(a), l_factor(a)
    want = group_epsilon(g, l, l, ctx)
    assert not want.frac.is_one()
    return g, l, want


def test_epsilon_not_unit_names_the_fraction(ctx52):
    from modwd.errors import EpsilonNotUnit
    from modwd.factors import epsilon_from
    g, l, want = _not_unit_inputs(ctx52)
    with pytest.raises(EpsilonNotUnit) as exc:
        epsilon_from(g, l, l, ctx52)
    assert str(exc.value) == "epsilon is not a unit: " + repr(want)


def test_epsilon_not_unit_prints_only_when_read(ctx52, monkeypatch):
    # the raise expands no fraction: with the expansion broken it still
    # raises EpsilonNotUnit, carrying the epsilon as an object
    from modwd import laurent
    from modwd.errors import EpsilonNotUnit
    from modwd.factors import epsilon_from
    g, l, want = _not_unit_inputs(ctx52)

    def expand(field, roots):
        raise AssertionError("a fraction was expanded")

    monkeypatch.setattr(laurent, "_expand", expand)
    with pytest.raises(EpsilonNotUnit) as exc:
        epsilon_from(g, l, l, ctx52)
    assert exc.value.eps == want


def test_l_matrix_agreement_full_population():
    # formal L must equal the slice-rank L of the realization on every
    # unramified-line class of dimension <= 12
    from modwd.verify import run_named
    for s in run_named("lmatrix", "full"):
        assert s.passed, s.line()


@pytest.mark.parametrize("ell,q,digest", [
    (5, 2, "a736d386bab793017f6f1e689cfe78dfc0a2b7edbb03a1ab6179f8745cf394ab"),
    (2, 3, "796804a6ea165e0e80b7dff15e89dc623f3320045e2106225308eccd97281baa"),
])
def test_printed_local_constants_are_pinned(ell, q, digest):
    # the printed (L, gamma, epsilon) of every line class of dim <= 6,
    # hashed in enumeration order; the digests pin today's printed forms
    import hashlib
    from modwd import make_ctx
    from modwd.factors import local_constants
    from modwd.verify import enumerate_line_classes
    h = hashlib.sha256()
    for a in enumerate_line_classes(make_ctx(ell, q), 6):
        h.update(repr(local_constants(a)).encode())
    assert h.hexdigest() == digest
