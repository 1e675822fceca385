import pytest

from modwd import (FusionTable, RamifiedAbstract, UnramifiedChar, dual_irr, fuse,
                   make_ctx, twist)
from modwd.errors import MissingFusionRule
from modwd.weil import irr_order, line_of
from reference import line_by_orbit_walk


def abstract_pair():
    a = RamifiedAbstract("psia", 1, 2, "psiav")
    b = RamifiedAbstract("psib", 2, 2, "psibv")
    return a, b


def test_twist_examples(ctx52):
    F = ctx52.field
    chi1 = UnramifiedChar(F.one)
    assert twist(chi1, ctx52.o_nu, ctx52) == (chi1, 0)
    tw, res = twist(chi1, 1, ctx52)
    assert tw == UnramifiedChar(F.from_int(3)) and res == 0  # q^-1 = 3 in F_5
    psi = RamifiedAbstract("psi", 2, 2, "psiv")
    assert twist(psi, 3, ctx52) == (psi, 1)


def test_twist_is_an_action(ctx52):
    F = ctx52.field
    for t in (1, 2, 7):
        chi = UnramifiedChar(F.elem(t) if t < 25 else F.one)
        if chi.t.is_zero():
            continue
        for a in range(5):
            for b in range(5):
                one_step = twist(twist(chi, a, ctx52)[0], b, ctx52)[0]
                assert one_step == twist(chi, a + b, ctx52)[0]


def test_dual_examples(ctx52):
    F = ctx52.field
    chi1 = UnramifiedChar(F.one)
    assert dual_irr(chi1) == chi1
    chi2 = UnramifiedChar(F.from_int(2))
    assert dual_irr(chi2) == UnramifiedChar(F.from_int(3))  # 2^-1 = 3 in F_5
    a, _ = abstract_pair()
    assert dual_irr(dual_irr(a)) == a
    assert dual_irr(a).label == "psiav"


def test_dual_twist_anticommute(ctx52):
    F = ctx52.field
    chi = UnramifiedChar(F.from_int(2))
    for k in range(5):
        left = dual_irr(twist(chi, k, ctx52)[0])
        right = twist(dual_irr(chi), -k, ctx52)[0]
        assert left == right


def test_line_canonical_representative(ctx52):
    F = ctx52.field
    # the orbit of 1 is {1,3,4,2}; 1 has least discrete log
    for v in (1, 3, 4, 2):
        line, shift = line_of(UnramifiedChar(F.from_int(v)), ctx52)
        assert line.base == UnramifiedChar(F.one)
        # v = q^(-shift)
        assert ctx52.nu_value(shift) == F.from_int(v)
    assert line_of(UnramifiedChar(F.one), ctx52)[0].order == 4


@pytest.mark.parametrize("ell,q,k", [
    (5, 2, 1), (3, 2, 1), (2, 3, 1), (3, 4, 1), (7, 2, 1), (7, 4, 1),
    (13, 3, 1), (5, 4, 1), (2, 5, 1), (11, 2, 1), (7, 2, 3), (3, 2, 6)])
def test_line_of_matches_orbit_walk(ell, q, k):
    ctx = make_ctx(ell, q, k)
    for t in ctx.field.elements():
        if t.is_zero():
            continue
        line, j = line_of(UnramifiedChar(t), ctx)
        base, j_walk = line_by_orbit_walk(ctx, t)
        assert (line.base, line.order, j) == \
            (UnramifiedChar(base), ctx.o_nu, j_walk)


def test_fuse_characters(ctx52):
    F = ctx52.field
    cht = UnramifiedChar(F.from_int(2))
    chs = UnramifiedChar(F.from_int(3))
    assert fuse(cht, chs, ctx52) == ((0, UnramifiedChar(F.from_int(6))),)


def test_fuse_char_abstract(ctx52):
    F = ctx52.field
    a, _ = abstract_pair()
    # nu-power twists come back as twists of the same label
    chq = UnramifiedChar(ctx52.nu_value(1))
    assert fuse(chq, a, ctx52) == ((1 % a.order, a),)
    # a non-q-power character synthesizes a new class of the same shape
    gen = UnramifiedChar(F.elem(F.gen_idx))
    ((k, out),) = fuse(gen, a, ctx52)
    assert k == 0 and out.dim == a.dim and out.order == a.order
    assert dual_irr(dual_irr(out)) == out


def test_fusion_table(ctx52):
    F = ctx52.field
    a, b = abstract_pair()
    table = FusionTable(ctx52)
    chi1 = UnramifiedChar(F.one)
    entry = ((0, chi1), (1, chi1))
    table.add(a, b, entry)
    assert fuse(a, b, ctx52, table) == entry
    assert fuse(b, a, ctx52, table) == entry  # unordered pair key
    with pytest.raises(MissingFusionRule):
        fuse(a, a, ctx52, table)
    with pytest.raises(ValueError):
        table.add(a, b, ((0, chi1),))  # dimension 1 != 1*2


def test_fuse_dimension_conservation(ctx52):
    F = ctx52.field
    a, b = abstract_pair()
    table = FusionTable(ctx52)
    table.add(a, b, ((0, UnramifiedChar(F.one)), (1, UnramifiedChar(F.from_int(2)))))
    out = fuse(a, b, ctx52, table)
    assert sum(1 if isinstance(t, UnramifiedChar) else t.dim for _, t in out) \
        == a.dim * b.dim


def test_irr_order(ctx52, ctx34):
    assert irr_order(UnramifiedChar(ctx52.field.one), ctx52) == 4
    assert irr_order(UnramifiedChar(ctx34.field.one), ctx34) == 1
    a, _ = abstract_pair()
    assert irr_order(a, ctx52) == 2
