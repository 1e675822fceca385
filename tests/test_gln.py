import random

import pytest

from modwd import (Cyc, Seg, UnramifiedChar, banal_tnb_split, c_map,
                   central_char, check_preservation, det_class, dual_class,
                   dual_rep, euler_factor, is_unit, j_ell, make_ctx,
                   make_generic, normalize, rs_epsilon_factor, rs_gamma_factor,
                   rs_l_factor, tensor_ss, twist_class, twist_rep, unlinked,
                   v_map)
from modwd.deligne import Character, dsum
from modwd.dsl import parse_rep
from modwd.errors import (EpsilonNotUnit, InvalidGenericRep, MixedLines,
                          RamifiedCuspLine)
from modwd.factors import local_constants
from modwd.gln import (GLSegment, NonSuperCusp, PairSide, SuperCusp,
                       compare_sides)
from modwd.verify import enumerate_generic_reps
from modwd.weil import RamifiedAbstract, line_of
from reference import two_sided_report


def chi(ctx, v):
    return UnramifiedChar(ctx.field.from_int(v))


def sc_seg(ctx, r, a, v=1):
    return GLSegment(SuperCusp(chi(ctx, v)), r, a)


def stk_seg(ctx, k, r, v=1):
    return GLSegment(NonSuperCusp(line_of(chi(ctx, v), ctx)[0], k), r, 0)


def canon(ctx, s):
    return make_generic([s], ctx).segs[0][0]


def test_unlinked_examples(ctx52):
    s01 = canon(ctx52, sc_seg(ctx52, 2, 0))
    s12 = canon(ctx52, sc_seg(ctx52, 2, 1))
    s00 = canon(ctx52, sc_seg(ctx52, 1, 0))
    s22 = canon(ctx52, sc_seg(ctx52, 1, 2))
    assert unlinked(s01, s01, ctx52) is True    # equal segments
    assert unlinked(s01, s12, ctx52) is False   # [0,1] precedes [1,2]
    assert unlinked(s00, s22, ctx52) is True    # disjoint, non-adjacent
    # cyclic adjacency wraps: [3,3] and [0,0] merge into [3,4]
    s33 = canon(ctx52, sc_seg(ctx52, 1, 3))
    assert unlinked(s33, s00, ctx52) is False
    # different cuspidal lines are always unlinked
    assert unlinked(s00, canon(ctx52, stk_seg(ctx52, 0, 1)), ctx52) is True


def test_make_generic_validation(ctx52, ctx23):
    with pytest.raises(InvalidGenericRep):
        make_generic([sc_seg(ctx52, 4, 0)], ctx52)  # r = o: use stk
    with pytest.raises(InvalidGenericRep):
        make_generic([stk_seg(ctx52, 0, 5)], ctx52)  # r >= ell
    with pytest.raises(InvalidGenericRep):
        make_generic([sc_seg(ctx52, 2, 0), sc_seg(ctx52, 2, 1)], ctx52)
    with pytest.raises(InvalidGenericRep):
        # two segments on the same singleton St_k line are always linked
        make_generic([stk_seg(ctx52, 0, 1), stk_seg(ctx52, 0, 2)], ctx52)
    # at o = 1 the supercuspidal is its own St_0: normal form uses stk
    pi = make_generic([sc_seg(ctx23, 1, 0)], ctx23)
    assert isinstance(pi.segs[0][0].cusp, NonSuperCusp)
    assert pi == make_generic([stk_seg(ctx23, 0, 1)], ctx23)


def test_banal_tnb_split_examples(ctx52):
    short = make_generic([sc_seg(ctx52, 2, 0)], ctx52)
    b, t = banal_tnb_split(short)
    assert b == short and t.is_zero()
    tnb = make_generic([stk_seg(ctx52, 0, 3)], ctx52)
    b, t = banal_tnb_split(tnb)
    assert b.is_zero() and t == tnb
    mixed = make_generic([sc_seg(ctx52, 2, 0), stk_seg(ctx52, 1, 2)], ctx52)
    b, t = banal_tnb_split(mixed)
    assert b == make_generic([sc_seg(ctx52, 2, 0)], ctx52)
    assert t == make_generic([stk_seg(ctx52, 1, 2)], ctx52)
    other = make_generic([GLSegment(SuperCusp(chi(ctx52, 1)), 1, 0),
                          GLSegment(SuperCusp(UnramifiedChar(
                              ctx52.field.elem(ctx52.field.gen_idx))), 1, 0)],
                         ctx52)
    with pytest.raises(MixedLines):
        banal_tnb_split(other)


def test_j_ell_examples(ctx52, ctx23):
    # case 2 at ell = 2: 7 = 1 + 2 + 4 gives three level-steps
    lift = NonSuperCusp(line_of(chi(ctx23, 1), ctx23)[0], 0)
    j = j_ell(7, lift, ctx23)
    assert j == make_generic([stk_seg(ctx23, 0, 1), stk_seg(ctx23, 1, 1),
                              stk_seg(ctx23, 2, 1)], ctx23)
    # case 3 at (5,2): k = o gives u=1, r=0: exactly St_0(Z)
    j = j_ell(4, SuperCusp(chi(ctx52, 1)), ctx52)
    assert j == make_generic([stk_seg(ctx52, 0, 1)], ctx52)
    # case 3, k=1, o > 1: the plain Steinberg segment
    j = j_ell(1, SuperCusp(chi(ctx52, 1)), ctx52)
    assert j == make_generic([sc_seg(ctx52, 1, 0)], ctx52)
    # mixed case: k = 2*4 + 3 -> St(3, rho) x St(2, St_0)
    j = j_ell(11, SuperCusp(chi(ctx52, 1)), ctx52)
    assert j == make_generic([sc_seg(ctx52, 3, 0), stk_seg(ctx52, 0, 2)], ctx52)


def test_v_map_examples(ctx52):
    c1 = chi(ctx52, 1)
    pi = make_generic([sc_seg(ctx52, 3, 1)], ctx52)
    assert v_map(pi) == normalize([Seg(c1, 3, 1)], ctx52)
    rho = make_generic([stk_seg(ctx52, 0, 1)], ctx52)
    assert v_map(rho) == normalize([Seg(c1, 1, k) for k in range(4)], ctx52)
    assert v_map(make_generic([], ctx52)).is_zero()
    # level k multiplies multiplicities by ell^k
    deep = make_generic([stk_seg(ctx52, 1, 2)], ctx52)
    expect = normalize([(Seg(c1, 2, k), 5) for k in range(4)], ctx52)
    assert v_map(deep) == expect


def test_c_map_examples(ctx52, ctx34):
    line52 = line_of(chi(ctx52, 1), ctx52)[0]
    banal = make_generic([sc_seg(ctx52, 1, 0)], ctx52)
    assert c_map(banal) == normalize([Seg(chi(ctx52, 1), 1, 0)], ctx52)
    # non-banal supercuspidal (o = 1): C sends it to the cycle
    nb = make_generic([GLSegment(SuperCusp(chi(ctx34, 1)), 1, 0)], ctx34)
    line34 = line_of(chi(ctx34, 1), ctx34)[0]
    assert c_map(nb) == normalize([Cyc(line34, 1)], ctx34)
    # St_k goes to ell^k cycles
    for k in (0, 1):
        rho = make_generic([stk_seg(ctx52, k, 1)], ctx52)
        assert c_map(rho) == normalize([(Cyc(line52, 1), 5 ** k)], ctx52)


def test_rs_l_examples(ctx52):
    triv = make_generic([sc_seg(ctx52, 1, 0)], ctx52)
    assert rs_l_factor(triv, triv) == euler_factor([ctx52.field.one])
    rho = make_generic([stk_seg(ctx52, 0, 1)], ctx52)
    assert rs_l_factor(rho, triv).is_one()
    st2 = make_generic([sc_seg(ctx52, 2, 0)], ctx52)
    assert rs_l_factor(st2, st2) == \
        euler_factor([ctx52.nu_value(1), ctx52.nu_value(2)])
    assert rs_l_factor(st2, triv) == rs_l_factor(triv, st2)  # symmetry


def test_rs_gamma_base_case(ctx52):
    # GL_1 x GL_1: the pair gamma is the gamma of the product character
    from modwd import gamma_factor
    t1, t2 = chi(ctx52, 2), chi(ctx52, 3)
    pi = make_generic([GLSegment(SuperCusp(t1), 1, 0)], ctx52)
    pi2 = make_generic([GLSegment(SuperCusp(t2), 1, 0)], ctx52)
    prod = normalize([Seg(UnramifiedChar(t1.t * t2.t), 1, 0)], ctx52)
    assert rs_gamma_factor(pi, pi2) == gamma_factor(prod)


def test_rs_epsilon_unit(ctx52, ctx34):
    pairs = [
        (make_generic([sc_seg(ctx52, 2, 0)], ctx52),
         make_generic([sc_seg(ctx52, 2, 1)], ctx52)),
        (make_generic([stk_seg(ctx52, 0, 2)], ctx52),
         make_generic([sc_seg(ctx52, 1, 0)], ctx52)),
        (make_generic([stk_seg(ctx34, 1, 2)], ctx34),
         make_generic([stk_seg(ctx34, 0, 1)], ctx34)),
    ]
    for pi, pi2 in pairs:
        assert is_unit(rs_epsilon_factor(pi, pi2))[0]


def test_rs_requires_unramified(ctx52):
    psi = RamifiedAbstract("psi", 2, 2, "psiv")
    pi = make_generic([GLSegment(SuperCusp(psi), 1, 0)], ctx52)
    triv = make_generic([sc_seg(ctx52, 1, 0)], ctx52)
    with pytest.raises(RamifiedCuspLine):
        rs_l_factor(pi, triv)
    with pytest.raises(RamifiedCuspLine):
        central_char(pi)


def test_preservation_witness(ctx52):
    rho = make_generic([stk_seg(ctx52, 0, 1)], ctx52)
    triv = make_generic([sc_seg(ctx52, 1, 0)], ctx52)
    rep = check_preservation(rho, triv)
    assert rep.rs_l.is_one()
    assert rep.gal_l.is_one()
    assert rep.v_side_l == euler_factor([ctx52.nu_value(k) for k in range(4)])
    assert not rep.v_side_l.is_one()
    assert rep.all_match
    assert any("MATCH" in line for line in rep.lines())


def test_preservation_banal_and_duals(ctx52):
    reps = [
        make_generic([sc_seg(ctx52, 2, 0)], ctx52),
        make_generic([sc_seg(ctx52, 1, 0), sc_seg(ctx52, 1, 2)], ctx52),
        make_generic([stk_seg(ctx52, 1, 3)], ctx52),
    ]
    for pi in reps:
        for pi2 in reps:
            assert check_preservation(pi, pi2, with_v_side=False).all_match
            assert check_preservation(dual_rep(pi), dual_rep(pi2),
                                      with_v_side=False).all_match


def test_part_pair_cache_does_not_hide_the_tensor_rule(ctx52, monkeypatch):
    # a tensor rule that drops the last piece of a segment (x) segment
    # product reaches compare_sides once the caches are cleared
    from modwd import deligne
    from modwd.gln import _part_pair_constants

    tensor_indec = deligne._tensor_indec

    def dropping_last(A, B, ctx, table):
        out = tensor_indec(A, B, ctx, table)
        return out[:-1] if isinstance(A, Seg) and isinstance(B, Seg) else out

    assert _part_pair_constants.cache_info().maxsize is not None
    side = PairSide(make_generic([sc_seg(ctx52, 2, 0)], ctx52))
    caches = (deligne._tensor_indec_cached, _part_pair_constants)
    assert compare_sides(side, side).all_match
    for cache in caches:
        cache.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(deligne, "_tensor_indec", dropping_last)
            assert compare_sides(side, side).mismatch() is not None
    finally:
        for cache in caches:
            cache.cache_clear()


def _outcome(route, pi, pi2):
    """What a route says of the pair: the first failing identity and the
    six factors, as objects and as text, or the epsilon EpsilonNotUnit
    carries."""
    try:
        r = route(pi, pi2)
    except EpsilonNotUnit as exc:
        return "epsilon-not-unit", exc.eps
    fields = (r.rs_l, r.gal_l, r.rs_gamma, r.gal_gamma, r.rs_eps, r.gal_eps)
    return r.mismatch(), fields, [repr(f) for f in fields]


def _compared(pi, pi2):
    return compare_sides(PairSide(pi), PairSide(pi2))


def _names_of_both_routes(ell, q, pairs, seed):
    """The outcome names over seeded pairs of the criterion-2 grid, once
    both routes agree on every pair."""
    ctx = make_ctx(ell, q)
    reps = enumerate_generic_reps(ctx, max_segments=3, max_len=4, max_k=1)
    rng = random.Random(f"{seed}:{ell},{q}")
    names = set()
    for _ in range(pairs):
        pi, pi2 = rng.choice(reps), rng.choice(reps)
        got = _outcome(_compared, pi, pi2)
        assert got == _outcome(two_sided_report, pi, pi2), (pi, pi2)
        names.add(got[0])
    return names


@pytest.mark.parametrize("ell, q", [(5, 2), (3, 2), (2, 3), (3, 4), (7, 2)])
def test_galois_side_matches_tensor_reference(ell, q):
    # compare_sides sums cached part-pair constants and builds L, gamma and
    # epsilon once when both sides' maps agree; the reference reads
    # local_constants off the built tensor of the C-parameters and builds
    # the Rankin-Selberg side on its own.  (7,2) is the one context here
    # with an odd o > 1 (o = 3)
    assert _names_of_both_routes(ell, q, 2000, "galois") == {None}


def _losing_last_root(ctx, banal, banal2):
    # gln._pair_l with the root rule short of its last root
    S, exp, n = ctx.q_log, ctx.field.exp, ctx.field.order - 1
    exponents = {}
    for r, a, t, m in banal:
        for r2, b, t2, m2 in banal2:
            top = max(r, r2) - 1 + a + b
            for k in range(top, top + min(r, r2) - 1):
                u = exp[(t + t2 - k * S) % n]
                exponents[u] = exponents.get(u, 0) - m * m2
    return exponents


def _shifting_one_value(support_value_counts):
    # the least support value log of each representation moves up by one
    def shifted(pi):
        counts = support_value_counts(pi)
        if counts:
            u, n = min(counts), pi.ctx.field.order - 1
            v = (u + 1) % n
            counts[v] = counts.get(v, 0) + counts.pop(u)
        return counts
    return shifted


@pytest.mark.parametrize("mutant, name, contexts", [
    ("root", "L", ((5, 2), (3, 2), (2, 3), (3, 4))),
    ("support", "gamma", ((5, 2), (3, 2), (2, 3), (3, 4)))],
    ids=["root", "support"])
def test_rs_mutants_are_named_by_both_routes(monkeypatch, mutant, name,
                                             contexts):
    # a Rankin-Selberg rule broken in the code reaches both routes, which
    # agree on every pair and name the broken identity on some
    from modwd import gln

    if mutant == "root":
        monkeypatch.setattr(gln, "_pair_l", _losing_last_root)
    else:
        monkeypatch.setattr(gln, "_support_value_counts",
                            _shifting_one_value(gln._support_value_counts))
    names = set()
    for ell, q in contexts:
        names |= _names_of_both_routes(ell, q, 300, mutant)
    assert name in names, names


def test_pair_side_dual_segments(ctx52, ctx32, ctx23, ctx34):
    # PairSide reads the dual's banal segments off its own; the reference
    # rs_epsilon_factor builds the dual representations
    rng = random.Random(2)
    for ctx in (ctx52, ctx32, ctx23, ctx34):
        reps = enumerate_generic_reps(ctx, max_segments=3, max_len=4, max_k=1)
        for _ in range(400):
            pi, pi2 = rng.choice(reps), rng.choice(reps)
            report = compare_sides(PairSide(pi), PairSide(pi2))
            assert report.rs_eps == rs_epsilon_factor(pi, pi2), (pi, pi2)


def test_epsilon_both_sides_match_group_formula(ctx52, ctx32, ctx23, ctx34):
    # the reference goes through the group law of tests/reference.py, with
    # the dual representations and dual class built, not read off the sides
    from modwd import gamma_factor, l_factor, tensor_ss
    from reference import group_epsilon

    rng = random.Random(13)
    for ctx in (ctx52, ctx32, ctx23, ctx34):
        reps = enumerate_generic_reps(ctx, max_segments=3, max_len=4, max_k=1)
        for _ in range(300):
            pi, pi2 = rng.choice(reps), rng.choice(reps)
            report = compare_sides(PairSide(pi), PairSide(pi2))
            rs = group_epsilon(rs_gamma_factor(pi, pi2), rs_l_factor(pi, pi2),
                               rs_l_factor(dual_rep(pi), dual_rep(pi2)), ctx)
            assert report.rs_eps == rs, (pi, pi2)
            c = tensor_ss(c_map(pi), c_map(pi2))
            gal = group_epsilon(gamma_factor(c), l_factor(c),
                                l_factor(dual_class(c)), ctx)
            assert report.gal_eps == gal, (pi, pi2)


def test_c_map_commutes_with_everything(ctx52):
    reps = [
        make_generic([sc_seg(ctx52, 2, 1)], ctx52),
        make_generic([stk_seg(ctx52, 0, 2), sc_seg(ctx52, 1, 0)], ctx52),
    ]
    s = UnramifiedChar(ctx52.field.elem(ctx52.field.gen_idx))
    for pi in reps:
        C = c_map(pi)
        assert c_map(dual_rep(pi)) == dual_class(C)
        assert c_map(twist_rep(pi, nu_power=2)) == twist_class(C, nu_power=2)
        assert c_map(twist_rep(pi, chi=s)) == twist_class(C, chi=s)
        assert central_char(pi) == det_class(C)
        # V is additive over disjoint products
        assert v_map(pi) == dsum(v_map(pi), v_map(make_generic([], ctx52)))


def test_central_char_examples(ctx52):
    triv = make_generic([sc_seg(ctx52, 1, 0)], ctx52)
    assert central_char(triv) == Character(ctx52.field.one)
    t = ctx52.field.from_int(2)
    st3 = make_generic([GLSegment(SuperCusp(UnramifiedChar(t)), 3, 0)], ctx52)
    expect = t ** 3 * ctx52.nu_value(3)  # t^r q^(-r(r-1)/2)
    assert central_char(st3).unram_value == expect


def test_gl_rank(ctx52):
    pi = make_generic([sc_seg(ctx52, 2, 0), stk_seg(ctx52, 1, 3)], ctx52)
    # St(2,chi) on GL_2; St(3, St_1) on GL_(3*4*5)
    assert c_map(pi).dim() == 2 + 3 * 4 * 5


def test_reps_of_two_contexts_differ():
    # the same segments at (5,2) and (5,3) name different representations:
    # the twists of chi(t=1) are powers of q^-1, 3 at (5,2) and 2 at (5,3)
    text = ("prod{ st(r=1; cusp=chi(t=[1,0]@F(5^2)); a=0), "
            "st(r=2; cusp=chi(t=[1,0]@F(5^2)); a=0) }")
    a, b = (parse_rep(text, make_ctx(5, q)) for q in (2, 3))
    assert a.segs == b.segs and a != b and b != a
    assert len({a, b}) == 2
    assert a == parse_rep(text, make_ctx(5, 2))
    grids = [enumerate_generic_reps(make_ctx(5, q), max_segments=2, max_len=2)
             for q in (2, 3)]
    assert len(set(grids[0]) | set(grids[1])) == len(grids[0]) + len(grids[1])
