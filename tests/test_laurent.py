import pytest
from hypothesis import given, settings, strategies as st

from modwd import euler_factor, is_unit, make_ctx
from modwd.errors import DivisionByZero
from modwd.laurent import FactorExpr, RationalFraction, UnitExpr
from reference import factor, mul, subst_qinv


def expand_product(roots, field):
    # independent oracle: multiply the linear factors coefficient by
    # coefficient in a plain dict
    coeffs = {0: field.one}
    for a in roots:
        out = {}
        for e, c in coeffs.items():
            out[e] = out.get(e, field.zero) + c
            out[e + 1] = out.get(e + 1, field.zero) - c * a
        coeffs = {e: c for e, c in out.items() if not c.is_zero()}
    return coeffs


def as_list(coeffs):
    """A coefficient dict {e: FieldElem} as a _poly index list."""
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c.i
    return out


def test_euler_factor_empty(ctx52):
    assert euler_factor([], field=ctx52.field).is_one()


def test_euler_factor_orbit_collapses(ctx52):
    # roots t q^-k over the full orbit multiply to 1 - (tX)^o
    F = ctx52.field
    for t_int in (1, 2):
        t = F.from_int(t_int)
        roots = [t * ctx52.nu_value(k) for k in range(4)]
        ef = euler_factor(roots)
        expect = expand_product(roots, F)
        assert ef.den == as_list(expect)
        assert ef.den == [1, 0, 0, 0, (-(t ** 4)).i]


def test_euler_factor_explicit_values(ctx52):
    # {1,3,4,2} in F_5 is exactly {q^-k}, so the product is 1 - X^4
    F = ctx52.field
    roots = [F.from_int(v) for v in (1, 3, 4, 2)]
    ef = euler_factor(roots)
    assert ef.den == [1, 0, 0, 0, F.neg_idx(1)]
    assert ef.num == [1]


def test_fraction_group_laws(ctx52):
    F = ctx52.field
    f = euler_factor([F.from_int(2)])
    assert f * RationalFraction.one(F) == f
    assert f * f == euler_factor([F.from_int(2)] * 2)
    with pytest.raises(DivisionByZero):
        UnitExpr(F, 0)


def test_is_unit_examples(ctx52):
    F = ctx52.field
    t = F.from_int(2)
    nontrivial = factor(euler_factor([t]))
    assert is_unit(nontrivial)[0] is False
    trivial = mul(nontrivial, nontrivial, -1)
    ok, unit = is_unit(trivial)
    assert ok and unit == UnitExpr(F)
    # (1 - u X)/(1 - u X) * (-(tX)^o)^r  ->  unit (-1)^r t^(o r) X^(o r)
    o, r = 4, 3
    mono = FactorExpr.from_unit(UnitExpr(F, (-(t ** o)).i, o))
    combined = trivial
    for _ in range(r):
        combined = mul(combined, mono)
    ok, unit = is_unit(combined)
    assert ok
    assert unit == UnitExpr(F, ((-F.one) ** r * t ** (o * r)).i, o * r)


def test_normal_form_canonical(ctx52):
    F = ctx52.field
    # the same fraction assembled two ways reduces identically
    a, b = F.from_int(2), F.from_int(3)
    f1 = euler_factor([a, b]) * RationalFraction.one(F)
    f2 = euler_factor([b]) * euler_factor([a])
    assert f1 == f2
    g1, g2 = factor(f1), factor(f2)
    assert g1 == g2 and hash(g1) == hash(g2)


# random factors over F(5^2): signed multisets of reciprocal roots (element
# indices 1..24, each entering the numerator or the denominator) and units
roots_st = st.lists(st.tuples(st.integers(1, 24), st.booleans()), max_size=6)
unit_st = st.tuples(st.integers(1, 24), st.integers(-4, 4),
                    st.integers(-2, 2))
hyp = settings(max_examples=60)


def build(F, signed_roots, unit=(1, 0, 0)):
    """unit * prod (1 - aX)^(+-1), one linear factor at a time."""
    scalar, xpow, tok = unit
    out = FactorExpr.from_unit(UnitExpr(F, scalar, xpow, {"eps(a)": tok}))
    for a, upstairs in signed_roots:
        out = mul(out, factor(euler_factor([F.elem(a)])), -1 if upstairs else 1)
    return out


def net_roots(F, signed_roots):
    """(numerator roots, denominator roots) after cancellation, as
    multisets of field elements."""
    from collections import Counter
    up = Counter(a for a, upstairs in signed_roots if upstairs)
    down = Counter(a for a, upstairs in signed_roots if not upstairs)
    return ([F.elem(a) for a in (up - down).elements()],
            [F.elem(a) for a in (down - up).elements()])


def show(coeffs):
    """The printed polynomial: c, c*X, c*X^e joined by ' + '."""
    return " + ".join(repr(c) if e == 0 else f"{c!r}*X" if e == 1
                      else f"{c!r}*X^{e}" for e, c in sorted(coeffs.items()))


@hyp
@given(roots_st, unit_st)
def test_printed_fraction_matches_expand_product(signed_roots, unit):
    F = make_ctx(5, 2).field
    fe = build(F, signed_roots, unit)
    up, down = net_roots(F, signed_roots)
    num, den = expand_product(up, F), expand_product(down, F)
    assert fe.frac.num == as_list(num) and fe.frac.den == as_list(den)
    assert repr(fe).endswith(f"frac: ({show(num)})/({show(den)})")


@hyp
@given(roots_st, unit_st, roots_st, unit_st)
def test_mul_div_roundtrip(roots, unit, roots2, unit2):
    F = make_ctx(5, 2).field
    f, g = build(F, roots, unit), build(F, roots2, unit2)
    assert mul(mul(f, g), g, -1) == f
    assert mul(f, g) == mul(g, f)


@hyp
@given(roots_st, unit_st)
def test_equal_factors_hash_equal(signed_roots, unit):
    F = make_ctx(5, 2).field
    f = build(F, signed_roots, unit)
    g = build(F, list(reversed(signed_roots)), unit)
    assert f == g and hash(f) == hash(g)
    assert f.frac == g.frac and hash(f.frac) == hash(g.frac)


@hyp
@given(roots_st, unit_st)
def test_subst_qinv_is_involutive(signed_roots, unit):
    ctx = make_ctx(5, 2)
    fe = build(ctx.field, signed_roots, unit)
    assert subst_qinv(subst_qinv(fe, ctx.q_img), ctx.q_img) == fe


@hyp
@given(roots_st, st.integers(1, 24), st.integers(-4, 4), st.integers(1, 24))
def test_subst_qinv_matches_evaluation(signed_roots, scalar, xpow, x):
    # f(q^-1 x^-1), evaluated factor by factor, equals the substituted
    # expression evaluated at x wherever no denominator vanishes
    ctx = make_ctx(5, 2)
    F = ctx.field
    x = F.elem(x)
    y = (ctx.q_img * x).inverse()
    value = F.elem(scalar) * y ** xpow
    for a, upstairs in signed_roots:
        lin = F.one - F.elem(a) * y
        if lin.is_zero():
            return
        value = value * lin if upstairs else value / lin
    g = subst_qinv(build(F, signed_roots, (scalar, xpow, 0)), ctx.q_img)
    num = sum((F.elem(c) * x ** e for e, c in enumerate(g.frac.num)), F.zero)
    den = sum((F.elem(c) * x ** e for e, c in enumerate(g.frac.den)), F.zero)
    if den.is_zero():
        return
    assert g.unit.scalar_elem() * x ** g.unit.x_power * num / den == value


@settings(max_examples=50)
@given(st.integers(1, 24), st.integers(-4, 4), st.integers(1, 24))
def test_subst_qinv_unit(scalar, xpow, root):
    ctx = make_ctx(5, 2)
    F = ctx.field
    fe = factor(euler_factor([F.elem(root)]), UnitExpr(F, scalar, xpow))
    assert subst_qinv(subst_qinv(fe, ctx.q_img), ctx.q_img) == fe


def test_print_format(ctx52):
    F = ctx52.field
    fe = factor(euler_factor([F.one]), UnitExpr(F, F.from_int(3).i, 1, {"eps(x)": 2}))
    text = repr(fe)
    assert text.startswith("unit: ")
    assert "frac: " in text and "eps(x)^2" in text
