import pytest
from hypothesis import given, settings, strategies as st

from modwd import (Cyc, RamifiedAbstract, Seg, UnramifiedChar, cv_map,
                   det_class, dsum, dual_class, make_ctx, normalize,
                   split_cyclic, tensor_ss, twist_class, zero_class)
from modwd import deligne
from modwd.deligne import Character, interval_profile
from modwd.dsl import parse_class
from modwd.errors import ContainsCyc, MissingFusionRule, MixedLines
from modwd.matrixmodel import MatrixDeligne, decompose, matrix_dual, realize
from modwd.weil import FusionTable, line_of


def chi(ctx, v):
    return UnramifiedChar(ctx.field.from_int(v))


def test_normalize_examples(ctx52):
    c1 = chi(ctx52, 1)
    a = normalize([Seg(c1, 1, ctx52.o_nu + 2)], ctx52)
    assert a.parts == ((Seg(c1, 1, 2), 1),)
    b = normalize([Seg(c1, 2, 1), Seg(c1, 1, 0)], ctx52)
    assert [ind.r for ind, _ in b.parts] == [1, 2]
    line = line_of(c1, ctx52)[0]
    c = normalize([Cyc(line, 1), Cyc(line, 1)], ctx52)
    assert c.parts == ((Cyc(line, 1), 2),)
    assert normalize(c.parts, ctx52) == c  # idempotent


def test_normalize_canonicalizes_line_reps(ctx52):
    # chi_3 = nu * chi_1, so seg(chi_3, r, a) is seg(chi_1, r, a+1)
    a = normalize([Seg(chi(ctx52, 3), 2, 0)], ctx52)
    assert a == normalize([Seg(chi(ctx52, 1), 2, 1)], ctx52)


def test_dsum_laws(ctx52):
    a = normalize([Seg(chi(ctx52, 1), 2, 0)], ctx52)
    b = normalize([Cyc(line_of(chi(ctx52, 1), ctx52)[0], 1)], ctx52)
    assert dsum(a, zero_class(ctx52)) == a
    assert dsum(a, b) == dsum(b, a)
    assert dsum(a, b).dim() == a.dim() + b.dim()


def test_dual_examples_and_matrix_oracle(ctx52):
    c1 = chi(ctx52, 1)
    triv = normalize([Seg(c1, 1, 0)], ctx52)
    assert dual_class(triv) == triv
    # Seg(chi_t, r, 0)^dual = Seg(chi_t^-1, r, 1-r mod o)
    t2 = chi(ctx52, 2)
    a = normalize([Seg(t2, 3, 0)], ctx52)
    assert dual_class(a) == normalize([Seg(chi(ctx52, 3), 3, (1 - 3) % 4)], ctx52)
    # every rule is validated against the matrix dual
    cases = [
        [Seg(c1, 1, 0)], [Seg(t2, 3, 0)], [Seg(t2, 5, 2)],
        [Cyc(line_of(c1, ctx52)[0], 1)], [Cyc(line_of(t2, ctx52)[0], 2)],
        [Seg(c1, 2, 1), Cyc(line_of(t2, ctx52)[0], 1)],
    ]
    for parts in cases:
        a = normalize(parts, ctx52)
        md = matrix_dual(realize(a, ctx52))
        assert decompose(md, ctx52) == dual_class(a)
    # involution
    for parts in cases:
        a = normalize(parts, ctx52)
        assert dual_class(dual_class(a)) == a


def test_dual_twist_anticommute(ctx52):
    a = normalize([Seg(chi(ctx52, 2), 3, 1), Cyc(line_of(chi(ctx52, 1), ctx52)[0], 2)],
                  ctx52)
    for k in range(4):
        assert dual_class(twist_class(a, nu_power=k)) == \
            twist_class(dual_class(a), nu_power=-k)


def test_twist_examples(ctx52):
    c1 = chi(ctx52, 1)
    line = line_of(c1, ctx52)[0]
    cy = normalize([Cyc(line, 1)], ctx52)
    assert twist_class(cy, nu_power=1) == cy  # nu-twist absorbed
    sg = normalize([Seg(c1, 2, 1)], ctx52)
    assert twist_class(sg, nu_power=1) == normalize([Seg(c1, 2, 2)], ctx52)
    # a character twist moves the cycle to the product line; checked
    # against the matrix model (twisting scales Frobenius)
    s = ctx52.field.elem(ctx52.field.gen_idx)
    m = realize(cy, ctx52)
    twisted = MatrixDeligne(m.F.scale(s), m.U)
    assert decompose(twisted, ctx52) == twist_class(cy, chi=UnramifiedChar(s))


def test_twist_commutes_with_cv_on_ramified_orbit(ctx52):
    # a full orbit block of a ramified psi becomes a cycle on its line; a
    # character twists the cycle's base as it twists each segment, whether
    # it is a power of q (same line) or not (a new abstract line)
    F = ctx52.field
    psi = RamifiedAbstract("psi", 2, 2, "psi")
    a = normalize([(Seg(psi, r, k), 2) for r in (1, 3) for k in range(2)],
                  ctx52)
    powers_of_q = {ctx52.nu_value(j) for j in range(ctx52.o_nu)}
    inside, outside = F.from_int(2), F.elem(7)
    assert inside in powers_of_q and outside not in powers_of_q
    for t in (inside, outside):
        chi_t = UnramifiedChar(t)
        assert twist_class(cv_map(a), chi=chi_t) == \
            cv_map(twist_class(a, chi=chi_t))
    moved = twist_class(cv_map(a), chi=UnramifiedChar(outside))
    assert moved != cv_map(a) and not moved.is_nilpotent()


@pytest.mark.parametrize("ell,q,order", [(5, 2, 2), (7, 2, 3)])
def test_character_twists_compose_on_ramified_classes(ell, q, order):
    # chi_t (x) psi is named psi.tC, C = dlog t mod g; twists add to C and
    # carry the nu-power of chi_t over chi_C into the segments' twists
    ctx = make_ctx(ell, q)
    F = ctx.field
    psi = f"irr(psi, dim=2, ord={order}, dual=psiv)"
    a = parse_class(f"{{ seg({psi}; r=1; a=0), seg({psi}; r=2; a=1)*2, "
                    f"cyc(line({psi}); r=1) }}", ctx)
    assert ctx.o_nu % order == 0
    g = F.elem(F.gen_idx)
    assert twist_class(twist_class(a, chi=UnramifiedChar(g)),
                       chi=UnramifiedChar(g)) == \
        twist_class(a, chi=UnramifiedChar(g ** 2))
    for t in F.elements():
        if t.is_zero():
            continue
        b = twist_class(a, chi=UnramifiedChar(t))
        assert twist_class(b, chi=UnramifiedChar(t.inverse())) == a
        assert parse_class(repr(b), ctx) == b
        assert dual_class(b) == \
            twist_class(dual_class(a), chi=UnramifiedChar(t.inverse()))


@pytest.mark.parametrize("ell,q", [(5, 2), (7, 2)])
def test_det_of_character_twists(ell, q):
    # det(chi a) = chi^(dim a) det(a): a twisted label psi.tC reads as
    # chi_C^dim det(psi).  Only labels with o(nu) | o(psi) dim psi are
    # declared, since nu^o(psi) psi = psi forces det(nu)^(o(psi) dim psi) = 1
    ctx = make_ctx(ell, q)
    F = ctx.field
    two = repr(F.from_int(2))
    checked = 0
    for order in (d for d in range(1, ctx.o_nu + 1) if ctx.o_nu % d == 0):
        for dim in (d for d in (1, 2, 3, 4) if order * d % ctx.o_nu == 0):
            psi = f"irr(psi, dim={dim}, ord={order}, dual=psiv)"
            for text in (f"{{ seg({psi}; r=1; a=0) }}",
                         f"{{ seg({psi}; r=2; a=1)*2, cyc(line({psi}); r=1) }}",
                         f"{{ seg({psi}; r=3; a=0), seg(chi(t={two}); r=1) }}"):
                a = parse_class(text, ctx)
                d = det_class(a)
                for t in F.elements():
                    if not t.is_zero():
                        b = twist_class(a, chi=UnramifiedChar(t))
                        assert det_class(b) == Character(
                            t ** a.dim() * d.unram_value, d.finite), (text, t)
                        checked += 1
    assert checked >= 3 * (F.order - 1) * 3


def test_profile_examples():
    assert interval_profile(1, 1, 5) == (((0, 0), 1),)
    assert interval_profile(2, 2, 2) == (((0, 1), 1), ((1, 2), 1))
    for ell in (3, 5, 7):
        assert interval_profile(2, 2, ell) == (((0, 2), 1), ((1, 1), 1))


def test_profile_independent_rank_oracle():
    # (2,2): graded pieces have dims 1,2,1, the middle map matrices are
    # [[1],[1]] and [[1,1]]; N^2 sends e0 (x) f0 to 2 e1 (x) f1
    for ell in (2, 3, 5):
        rank_n2 = 0 if ell == 2 else 1
        prof = interval_profile(2, 2, ell)
        mult_02 = dict(prof).get((0, 2), 0)
        assert mult_02 == rank_n2


def test_profile_laws():
    for ell in (2, 3, 5, 7):
        for n in range(1, 7):
            for m in range(1, n + 1):
                prof = interval_profile(n, m, ell)
                rights = sorted(d for (c, d), mu in prof for _ in range(mu))
                lefts = sorted(c for (c, d), mu in prof for _ in range(mu))
                assert rights == list(range(n - 1, n + m - 1))
                assert lefts == list(range(m))
                assert sum((d - c + 1) * mu for (c, d), mu in prof) == n * m


def ref_interval_profile(n, m, ell):
    """The profile from iterated products of the one-step maps between
    graded pieces, ranked by the formal side's elimination."""
    top = n + m - 2
    layers = [[(i, c - i) for i in range(max(0, c - m + 1), min(n - 1, c) + 1)]
              for c in range(top + 1)]
    steps = []
    for c in range(top):
        pos = {v: idx for idx, v in enumerate(layers[c + 1])}
        mat = [[0] * len(layers[c]) for _ in layers[c + 1]]
        for col, (i, j) in enumerate(layers[c]):
            if i + 1 < n:
                mat[pos[(i + 1, j)]][col] += 1
            if j + 1 < m:
                mat[pos[(i, j + 1)]][col] += 1
        steps.append(mat)

    def rank(c, d):
        if c < 0 or d > top or c > d:
            return 0
        mat = [[int(i == j) for j in range(len(layers[c]))]
               for i in range(len(layers[c]))]
        for step in steps[c:d]:
            mat = [[sum(step[i][t] * mat[t][j] for t in range(len(mat)))
                    for j in range(len(mat[0]))] for i in range(len(step))]
        return deligne._rank_mod(mat, ell)

    out = []
    for c in range(top + 1):
        for d in range(c, top + 1):
            mult = (rank(c, d) - rank(c - 1, d) - rank(c, d + 1)
                    + rank(c - 1, d + 1))
            if mult:
                out.append(((c, d), mult))
    return tuple(sorted(out))


def test_profile_matches_iterated_products():
    for ell in (2, 3, 5, 7):
        for n in range(1, 8):
            for m in range(1, 8):
                assert interval_profile(n, m, ell) == ref_interval_profile(
                    n, m, ell), (n, m, ell)


def test_profile_at_context_characteristic(ctx23, ctx34):
    # [0,1] (x) [0,1] splits as [0,1] + [1,2] in characteristic 2 and as
    # [0,2] + [1,1] in characteristic 3
    assert interval_profile(2, 2, ctx23.ell) == (((0, 1), 1), ((1, 2), 1))
    assert interval_profile(2, 2, ctx34.ell) == (((0, 2), 1), ((1, 1), 1))


def test_tensor_examples(ctx52):
    c1 = chi(ctx52, 1)
    line = line_of(c1, ctx52)[0]
    triv = normalize([Seg(c1, 1, 0)], ctx52)
    assert tensor_ss(triv, triv) == triv
    cy = normalize([Cyc(line, 1)], ctx52)
    assert tensor_ss(cy, triv) == cy
    assert tensor_ss(cy, cy) == cy.scale(4)


def test_tensor_bilinearity_and_symmetry(ctx52):
    c1, c2 = chi(ctx52, 1), chi(ctx52, 2)
    line = line_of(c1, ctx52)[0]
    a = normalize([Seg(c1, 2, 0), Cyc(line, 1)], ctx52)
    b = normalize([Seg(c2, 3, 1)], ctx52)
    c = normalize([Cyc(line_of(c2, ctx52)[0], 2)], ctx52)
    assert tensor_ss(a, b) == tensor_ss(b, a)
    assert tensor_ss(a, dsum(b, c)) == dsum(tensor_ss(a, b), tensor_ss(a, c))
    assert tensor_ss(a, b).dim() == a.dim() * b.dim()


def test_tensor_cyc_only_output(ctx52):
    # classes built from cycles only tensor to cycles only
    line = line_of(chi(ctx52, 1), ctx52)[0]
    a = normalize([Cyc(line, 2)], ctx52)
    b = normalize([Cyc(line, 3)], ctx52)
    out = tensor_ss(a, b)
    assert all(isinstance(ind, Cyc) for ind, _ in out.parts)
    assert out.dim() == a.dim() * b.dim()


def test_tensor_abstract_pairs_table(ctx52):
    F = ctx52.field
    a = RamifiedAbstract("psia", 1, 2, "psiav")
    b = RamifiedAbstract("psib", 1, 2, "psibv")
    sa = normalize([Seg(a, 1, 0)], ctx52)
    sb = normalize([Seg(b, 1, 0)], ctx52)
    with pytest.raises(MissingFusionRule):
        tensor_ss(sa, sb)
    table = FusionTable(ctx52)
    table.add(a, b, ((0, chi(ctx52, 1)),))
    out = tensor_ss(sa, sb, table)
    assert out == normalize([Seg(chi(ctx52, 1), 1, 0)], ctx52)


def test_split_cyclic_examples(ctx52):
    c1 = chi(ctx52, 1)
    full = normalize([Seg(c1, 1, k) for k in range(4)], ctx52)
    acyc, cycl = split_cyclic(full)
    assert acyc.is_zero() and cycl == full
    single = normalize([Seg(c1, 1, 0)], ctx52)
    acyc, cycl = split_cyclic(single)
    assert acyc == single and cycl.is_zero()
    # multiplicities (2,1,1,1) at length 1: minimum 1 full orbit
    a = normalize([(Seg(c1, 1, 0), 2), (Seg(c1, 1, 1), 1),
                   (Seg(c1, 1, 2), 1), (Seg(c1, 1, 3), 1)], ctx52)
    acyc, cycl = split_cyclic(a)
    assert acyc == normalize([Seg(c1, 1, 0)], ctx52)
    assert cycl == full


def test_split_cyclic_errors(ctx52):
    c1 = chi(ctx52, 1)
    # the orbit of 1 under q = 2 is all of F_5^x, so a genuinely different
    # line needs a value outside the prime field
    off_line = UnramifiedChar(ctx52.field.elem(ctx52.field.gen_idx))
    line = line_of(c1, ctx52)[0]
    with pytest.raises(ContainsCyc):
        split_cyclic(normalize([Cyc(line, 1)], ctx52))
    with pytest.raises(MixedLines):
        split_cyclic(normalize([Seg(c1, 1, 0), Seg(off_line, 1, 0)], ctx52))


def test_cv_examples(ctx52):
    c1 = chi(ctx52, 1)
    line = line_of(c1, ctx52)[0]
    full = normalize([Seg(c1, 1, k) for k in range(4)], ctx52)
    assert cv_map(full) == normalize([Cyc(line, 1)], ctx52)
    single = normalize([Seg(c1, 1, 0)], ctx52)
    assert cv_map(single) == single
    # ell^j copies of full orbit blocks of length a_j
    ell = ctx52.ell
    blocks = []
    for j, a_j in ((0, 1), (1, 3)):
        for k in range(4):
            blocks.append((Seg(c1, a_j, k), ell ** j))
    v = normalize(blocks, ctx52)
    expect = normalize([(Cyc(line, 1), 1), (Cyc(line, 3), ell)], ctx52)
    assert cv_map(v) == expect
    with pytest.raises(ContainsCyc):
        cv_map(expect)


def test_cv_injective_on_population(ctx23):
    # all nilpotent classes of dim <= 6 at (2,3): cv images are distinct
    from modwd.verify import enumerate_line_classes
    pop = [a for a in enumerate_line_classes(ctx23, 6) if a.is_nilpotent()]
    images = {}
    for a in pop:
        img = cv_map(a)
        assert img not in images, (a, images[img])
        images[img] = a


def _cv_by_normalize(a):
    """The CV map by its definition: per line and length r, b full twist
    orbits (the least multiplicity over the o twists) become b copies of
    the cycle of length r; everything is normalized from raw parts."""
    ctx = a.ctx
    by_line = {}
    for ind, m in a.parts:
        by_line.setdefault(line_of(ind.irr, ctx)[0], []).append((ind, m))
    out = []
    for line, parts in by_line.items():
        piece = normalize(parts, ctx)
        mult = {(ind.r, ind.a): m for ind, m in piece.parts}
        for r in sorted({r for r, _ in mult}):
            b = min(mult.get((r, k), 0) for k in range(line.order))
            for k in range(line.order):
                if mult.get((r, k), 0) > b:
                    out.append((Seg(line.base, r, k), mult[(r, k)] - b))
            if b:
                out.append((Cyc(line, r), b))
    return normalize(out, ctx)


@pytest.mark.parametrize("ell,q", [(5, 2), (2, 3)])
def test_split_and_cv_match_reference(ell, q):
    # every nilpotent class of dim <= 7 on the trivial line, alone and
    # (where the field has a second line) next to one on another line
    from modwd.verify import enumerate_line_classes
    ctx = make_ctx(ell, q)
    pop = [a for a in enumerate_line_classes(ctx, 7) if a.is_nilpotent()]
    g = UnramifiedChar(ctx.field.elem(ctx.field.gen_idx))
    two_lines = line_of(g, ctx)[0] != line_of(chi(ctx, 1), ctx)[0]
    for i, a in enumerate(pop):
        acyc, cycl = split_cyclic(a)
        assert dsum(acyc, cycl) == a
        assert cv_map(a) == dsum(acyc, cv_map(cycl)) == _cv_by_normalize(a)
        if two_lines:
            mixed = dsum(a, twist_class(pop[7 * i % len(pop)], chi=g))
            assert cv_map(mixed) == _cv_by_normalize(mixed)


def test_det_examples(ctx52):
    F = ctx52.field
    c1 = chi(ctx52, 1)
    assert det_class(normalize([Seg(c1, 1, 0)], ctx52)) == Character(ctx52.field.one)
    t = F.from_int(2)
    r = 3
    d = det_class(normalize([Seg(chi(ctx52, 2), r, 0)], ctx52))
    # independent product: prod_j t q^-j
    expect = F.one
    for j in range(r):
        expect = expect * (t * ctx52.nu_value(j))
    assert d.unram_value == expect
    o = 4
    dc = det_class(normalize([Cyc(line_of(chi(ctx52, 2), ctx52)[0], 1)], ctx52))
    expect = F.one
    for j in range(o):
        expect = expect * (t * ctx52.nu_value(j))
    assert dc.unram_value == expect


def test_det_matches_matrix_determinant(ctx52):
    # det of the class equals det(F) of any realization
    cases = [
        [Seg(chi(ctx52, 2), 3, 1)],
        [Cyc(line_of(chi(ctx52, 1), ctx52)[0], 2)],
        [Seg(chi(ctx52, 1), 2, 0), Cyc(line_of(chi(ctx52, 2), ctx52)[0], 1)],
    ]
    F = ctx52.field
    for parts in cases:
        a = normalize(parts, ctx52)
        m = realize(a, ctx52)
        detF = F.one
        for i in range(m.dim):
            detF = detF * F.elem(int(m.F.a[i, i]))
        assert det_class(a).unram_value == detF


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 2)),
                min_size=0, max_size=3))
def test_normalize_idempotent_random(parts):
    ctx = make_ctx(5, 2)
    c1 = UnramifiedChar(ctx.field.one)
    raw = [(Seg(c1, r, a), m) for r, a, m in parts]
    a = normalize(raw, ctx)
    assert normalize(a.parts, ctx) == a
    assert dsum(a, zero_class(ctx)) == a


@pytest.mark.parametrize("ell,q", [(5, 2), (3, 2), (2, 3), (3, 4)])
def test_part_hash_eq_contract(ell, q):
    # parts are identified by their key: equal iff the keys are, equal
    # parts hash equally, and both survive pickling (the sweeps fork
    # workers) and a DSL round trip
    import pickle

    from modwd.dsl import parse_class
    from modwd.verify import enumerate_line_classes

    ctx = make_ctx(ell, q)
    pooled = {id(ind): ind for a in enumerate_line_classes(ctx, 8)
              for ind, _ in a.parts}
    parts = list(pooled.values())
    # rebuilt copies: equal, but not the same objects
    rebuilt = [ind for ind, _ in normalize(parts, ctx).parts]
    assert len(rebuilt) == len(parts) > 1
    everything = parts + rebuilt
    for A in everything:
        for B in everything:
            assert (A == B) == (A.key == B.key)
            if A == B:
                assert hash(A) == hash(B)
    for ind in parts:
        again = pickle.loads(pickle.dumps(ind))
        assert again == ind and hash(again) == hash(ind)
        assert again.key == ind.key
        (parsed, m), = parse_class(f"{{ {ind!r} }}", ctx).parts
        assert m == 1 and parsed == ind and hash(parsed) == hash(ind)
        assert parsed is not ind


def test_classes_of_two_contexts_differ():
    # the same parts at (5,2) and (5,3) name different classes: the first
    # twist of chi(t=1) is q^-1, 3 at (5,2) and 2 at (5,3)
    text = ("{ seg(chi(t=[1,0]@F(5^2)); r=1; a=0), "
            "seg(chi(t=[1,0]@F(5^2)); r=2; a=0) }")
    a, b = (parse_class(text, make_ctx(5, q)) for q in (2, 3))
    assert a.parts == b.parts and a != b and b != a
    assert len({a, b}) == 2
    assert a == parse_class(text, make_ctx(5, 2))


def test_parts_of_two_contexts_differ(ctx52, ctx32):
    from modwd.dsl import parse_class

    (a, _), = parse_class("{ seg(chi(t=1); r=1) }", ctx52).parts
    (b, _), = parse_class("{ seg(chi(t=1); r=1) }", ctx32).parts
    assert a.key == b.key
    assert a != b and b != a
    (c, _), = parse_class("{ cyc(line(chi(t=1)); r=1) }", ctx52).parts
    (d, _), = parse_class("{ cyc(line(chi(t=1)); r=1) }", ctx32).parts
    assert c.key == d.key and c != d


def _declared_labels(ctx):
    """A declared label of each (ord, dim), dim <= 4, that the DSL admits:
    ord divides o(nu), which divides ord * dim."""
    return [RamifiedAbstract(f"psi{o}{d}", d, o, f"psi{o}{d}v")
            for o in range(1, ctx.o_nu + 1) if ctx.o_nu % o == 0
            for d in range(1, 5) if o * d % ctx.o_nu == 0]


@pytest.mark.parametrize("ell,q", [(5, 2), (7, 2), (3, 4)])
def test_tensor_laws_on_declared_lines(ell, q):
    # the cycle rules on declared lines, which the matrix oracle cannot
    # realize: every ordered pair of parts with r <= 3 on two unramified
    # lines and on the declared labels, a label meeting only characters,
    # so that no fusion table is needed
    ctx = make_ctx(ell, q)
    g = UnramifiedChar(ctx.field.elem(ctx.field.gen_idx))
    lines = {line_of(psi, ctx)[0]
             for psi in [UnramifiedChar(ctx.field.one), g]}
    assert len(lines) == 2

    def parts_on(psi):
        line = line_of(psi, ctx)[0]
        return [normalize([ind], ctx) for r in (1, 2, 3) for ind in
                [Cyc(line, r), *(Seg(line.base, r, a)
                                 for a in range(line.order))]]

    unram = [a for line in lines for a in parts_on(line.base)]
    ram = [a for psi in _declared_labels(ctx) for a in parts_on(psi)]
    pairs = [(a, b) for a in unram + ram for b in unram
             ] + [(a, b) for a in unram for b in ram]
    declared_cycles = 0
    for a, b in pairs:
        ab = tensor_ss(a, b)
        assert ab.dim() == a.dim() * b.dim() and ab == tensor_ss(b, a)
        assert dual_class(ab) == tensor_ss(dual_class(a), dual_class(b))
        assert tensor_ss(twist_class(a, nu_power=1), b) == \
            twist_class(ab, nu_power=1)
        assert tensor_ss(twist_class(a, chi=g), b) == twist_class(ab, chi=g)
        declared_cycles += any(
            isinstance(ind, Cyc) and isinstance(ind.line.base, RamifiedAbstract)
            for ind, _ in ab.parts)
    assert declared_cycles


@pytest.mark.parametrize("ell,q,order,r,r2", [(5, 2, 2, 1, 1),
                                               (3, 2, 1, 3, 2)])
def test_tensor_rejects_declared_fusion_off_the_orbit(ell, q, order, r, r2):
    # psi (x) phi declared as four copies of chi_1 at one twist: against
    # the twists of a cycle of phi or of psi this is not twist-stable on
    # the line of chi_1, whose orbit is longer.  At (3,2), [0,2] (x) [0,1]
    # splits into two intervals of length 3, whose counts even out
    ctx = make_ctx(ell, q)
    psi = RamifiedAbstract("psi", 2, order, "psiv")
    phi = RamifiedAbstract("phi", 2, order, "phiv")
    table = FusionTable(ctx)
    table.add(psi, phi, ((0, chi(ctx, 1)),) * 4)
    msg = "fusion output is not twist-stable on " + repr(
        line_of(chi(ctx, 1), ctx)[0])
    segs = [normalize([Seg(psi, r, 0)], ctx), normalize([Seg(phi, r2, 0)], ctx)]
    cycs = [normalize([Cyc(line_of(psi, ctx)[0], r)], ctx),
            normalize([Cyc(line_of(phi, ctx)[0], r2)], ctx)]
    assert tensor_ss(*segs, table).dim() == 4 * r * r2
    for a, b in [cycs, (segs[0], cycs[1]), (cycs[0], segs[1])]:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError) as exc:
                tensor_ss(x, y, table)
            assert str(exc.value) == msg
