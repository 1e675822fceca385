import random
import sys

import numpy as np
import pytest

from modwd import (Cyc, Seg, UnramifiedChar, dual_class, normalize,
                   oracle_tensor_ss, raw_tensor, realize, semisimplify,
                   tensor_ss, validate)
from modwd import _poly, matrixmodel
from modwd._linalg import FMat
from modwd.deligne import cyc, zero_class
from modwd.errors import (FNotInvertible, NeedsLargerField, NotSemisimple,
                          RamifiedLine, RelationViolated)
from modwd.factors import l_factor_matrix
from modwd.field import finite_field, make_ctx
from modwd.laurent import RationalFraction
from modwd.matrixmodel import MatrixDeligne, decompose, matrix_dual
from modwd.verify import enumerate_line_classes
from modwd.weil import RamifiedAbstract, line_of
from reference import lines_by_mul_walk, raw_tensor_by_kron


def chi(ctx, v):
    return UnramifiedChar(ctx.field.from_int(v))


def rand_invertible(field, n, rng):
    while True:
        P = FMat(field, [[rng.randrange(field.order) for _ in range(n)]
                         for _ in range(n)])
        if P.rank() == n:
            return P


def test_validate_examples(ctx52):
    F = ctx52.field
    ok = MatrixDeligne(FMat.diag(F, [F.from_int(2).i]), FMat.zeros(F, 1, 1))
    assert validate(ok, ctx52)
    bad = MatrixDeligne(FMat.identity(F, 2), FMat.identity(F, 2))
    with pytest.raises(RelationViolated):
        validate(bad, ctx52)  # UF = I != qI = qFU since q != 1
    m = realize(normalize([Cyc(line_of(chi(ctx52, 1), ctx52)[0], 1)], ctx52), ctx52)
    assert validate(m, ctx52)
    sing = MatrixDeligne(FMat.zeros(F, 1, 1), FMat.zeros(F, 1, 1))
    with pytest.raises(FNotInvertible):
        validate(sing, ctx52)


def test_realize_examples(ctx52):
    F = ctx52.field
    m = realize(normalize([Seg(chi(ctx52, 1), 1, 0)], ctx52), ctx52)
    assert m.F.a.tolist() == [[1]] and m.U.a.tolist() == [[0]]
    m = realize(normalize([Cyc(line_of(chi(ctx52, 1), ctx52)[0], 1)], ctx52), ctx52)
    assert [int(m.F.a[i, i]) for i in range(4)] == \
        [F.from_int(v).i for v in (1, 3, 4, 2)]
    # U is the cyclic permutation sending slot k to slot k+1
    perm = [[0] * 4 for _ in range(4)]
    for k in range(4):
        perm[(k + 1) % 4][k] = 1
    assert m.U.a.tolist() == perm
    m = realize(normalize([Seg(chi(ctx52, 1), 2, 0)], ctx52), ctx52)
    assert [int(m.F.a[i, i]) for i in range(2)] == [1, F.from_int(3).i]
    assert m.U.a.tolist() == [[0, 0], [1, 0]]


def ref_realize(a, ctx):
    """(F, U) of realize(a) entry by entry, from its docstring: per part
    and copy, F's diagonal and the positions of U's ones."""
    nu, diag, ones = ctx.nu_value, [], []
    for ind, mult in a.parts:
        for _ in range(mult):
            lo = len(diag)
            if isinstance(ind, Seg):
                diag += [(ind.irr.t * nu(ind.a + j)).i for j in range(ind.r)]
                ones += [(lo + j + 1, lo + j) for j in range(ind.r - 1)]
                continue
            # basis vector i o + k: twist i of the segment, slot k of the cycle
            o, t = ind.line.order, ind.line.base.t
            diag += [(nu(i) * t * nu(k)).i for i in range(ind.r)
                     for k in range(o)]
            ones += [(lo + i * o + (k + 1) % o, lo + i * o + k)
                     for i in range(ind.r) for k in range(o)]
            ones += [(lo + (i + 1) * o + k, lo + i * o + k)
                     for i in range(ind.r - 1) for k in range(o)]
    U = np.zeros((len(diag), len(diag)), dtype=np.intp)
    for ij in ones:
        U[ij] = 1
    return np.diag(np.array(diag, dtype=np.intp)).reshape(U.shape), U


def test_realize_matches_entrywise_reference(ctx52, ctx32, ctx23):
    # 500 seeded classes at (5,2) and 100 at (3,2) and (2,3); a caller
    # writing into a realization does not reach the cached part blocks
    for ctx, count in ((ctx52, 500), (ctx32, 100), (ctx23, 100)):
        pool = enumerate_line_classes(ctx, 12)
        rng = random.Random(f"realize:{ctx.ell},{ctx.q_residue}")
        for _ in range(count):
            a = pool[rng.randrange(len(pool))]
            Fw, Uw = ref_realize(a, ctx)
            m = realize(a, ctx)
            assert np.array_equal(m.F.a, Fw) and np.array_equal(m.U.a, Uw)
            m.F.a[:] = 0
            m.U.a[:] = 1
            m = realize(a, ctx)
            assert np.array_equal(m.F.a, Fw) and np.array_equal(m.U.a, Uw)


def test_part_blocks_are_cached_read_only(ctx52):
    for ind in (Seg(chi(ctx52, 2), 3, 1),
                Cyc(line_of(chi(ctx52, 1), ctx52)[0], 2)):
        m = matrixmodel._part_blocks(ind, ctx52)
        assert matrixmodel._part_blocks(ind, ctx52) is m
        for arr in (m.F.a, m.U.a):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
    assert matrixmodel._part_blocks.cache_info().maxsize


def test_realize_rejects_ramified(ctx52):
    psi = RamifiedAbstract("psi", 2, 2, "psiv")
    with pytest.raises(RamifiedLine):
        realize(normalize([Seg(psi, 1, 0)], ctx52), ctx52)


def test_matrix_dual_matches_dual_class(ctx52, ctx32, ctx23, ctx34):
    # (F^-T, -U^T) against the formal dual on every class of dim <= 6, and
    # on conjugated, operator-rescaled copies, whose F is not diagonal
    rng = random.Random(14)
    for ctx in (ctx52, ctx32, ctx23, ctx34):
        field = ctx.field
        classes = enumerate_line_classes(ctx, 6)
        for a in classes:
            assert decompose(matrix_dual(realize(a, ctx)), ctx) == dual_class(a)
        for a in rng.sample(classes, 50):
            m = realize(a, ctx)
            P = rand_invertible(field, m.dim, rng)
            Pi = P.inverse()
            lam = rng.randrange(1, field.order)
            mc = MatrixDeligne(P @ m.F @ Pi, P @ m.U.scale(lam) @ Pi)
            assert decompose(matrix_dual(mc), ctx) == dual_class(a)


def test_decompose_roundtrip_examples(ctx52):
    a = normalize([Seg(chi(ctx52, 1), 2, 0)], ctx52)
    assert decompose(realize(a, ctx52), ctx52) == a
    # lambda-scaled cycle decomposes to the same class for every lambda
    line = line_of(chi(ctx52, 1), ctx52)[0]
    cy = normalize([Cyc(line, 1)], ctx52)
    m = realize(cy, ctx52)
    for lam in range(1, ctx52.field.order):
        assert decompose(MatrixDeligne(m.F, m.U.scale(lam)), ctx52) == cy


def test_decompose_wrapped_segment(ctx52):
    # r > o: the Frobenius eigenvalue sequence wraps around the orbit
    a = normalize([Seg(chi(ctx52, 2), 6, 1)], ctx52)
    assert decompose(realize(a, ctx52), ctx52) == a


def test_decompose_random_shuffles(ctx52):
    rng = random.Random(11)
    line1 = line_of(chi(ctx52, 1), ctx52)[0]
    line2 = line_of(chi(ctx52, 2), ctx52)[0]
    cases = [
        [(Seg(chi(ctx52, 1), 2, 0), 1), (Seg(chi(ctx52, 1), 1, 2), 2)],
        [(Cyc(line1, 1), 1), (Seg(chi(ctx52, 2), 2, 1), 1)],
        [(Cyc(line2, 2), 1), (Cyc(line1, 1), 1)],
        # a wrapped segment and a length-2 cycle on one line
        [(Cyc(line1, 2), 1), (Seg(chi(ctx52, 1), 6, 1), 1)],
    ]
    for parts in cases:
        a = normalize(parts, ctx52)
        m = realize(a, ctx52)
        for _ in range(3):
            P = rand_invertible(ctx52.field, m.dim, rng)
            Pi = P.inverse()
            mc = MatrixDeligne(P @ m.F @ Pi, P @ m.U @ Pi)
            assert decompose(mc, ctx52) == a


def test_decompose_computes_min_poly_once(ctx52, monkeypatch):
    # validate's checks and the eigenspace split share m_F, and no chi_F
    # is computed
    a = normalize([Seg(chi(ctx52, 1), 2, 0), Seg(chi(ctx52, 2), 3, 1)], ctx52)
    m = realize(a, ctx52)
    P = rand_invertible(ctx52.field, m.dim, random.Random(5))
    Pi = P.inverse()
    mc = MatrixDeligne(P @ m.F @ Pi, P @ m.U.scale(3) @ Pi)
    calls = count_calls(monkeypatch, matrixmodel, ("_min_poly",))
    linalg = count_calls(monkeypatch, FMat, ("charpoly",))
    assert decompose(mc, ctx52) == a
    assert calls["_min_poly"] == ["_checked_min_poly"]
    assert not linalg["charpoly"]


def moved(m, rng):
    """m conjugated by a random invertible P, so that F and U are dense."""
    P = rand_invertible(m.F.field, m.dim, rng)
    Pi = P.inverse()
    return MatrixDeligne(P @ m.F @ Pi, P @ m.U @ Pi)


def transported(a, ctx, rng, lam=1):
    """realize(a) moved by a random invertible P, with U scaled by lam."""
    m = realize(a, ctx)
    return moved(MatrixDeligne(m.F, m.U.scale(lam)), rng)


def test_adapted_projector_basis(ctx52, ctx32):
    # the pivot columns C_v of the spectral projectors and the nonzero rows
    # R_v of their echelon forms are inverse bases
    for ctx in (ctx52, ctx32):
        F = ctx.field
        c1 = chi(ctx, 1)
        g = UnramifiedChar(F.elem(F.gen_idx))
        a = normalize([(Seg(c1, 3, 0), 1), (Cyc(line_of(c1, ctx)[0], 1), 1),
                       (Seg(g, 2, 1), 2)], ctx)
        rng = random.Random(repr((ctx.ell, ctx.q_residue)))
        for lam in (1, 2):
            mc = transported(a, ctx, rng, lam)
            ranges, P, Pinv = matrixmodel._spectral_basis(mc.F)
            P, Pinv = FMat(F, P), FMat(F, Pinv)
            assert Pinv @ P == FMat.identity(F, mc.dim)
            got_ranges, G = matrixmodel._adapted(mc, ctx)
            assert got_ranges == ranges and FMat(F, G) == Pinv @ mc.U @ P
            # F is the scalar v on the columns of range v
            spectrum = [v for v, (lo, hi) in sorted(ranges.items(),
                                                    key=lambda item: item[1])
                        for _ in range(lo, hi)]
            assert Pinv @ mc.F @ P == FMat.diag(F, spectrum)


def count_calls(monkeypatch, owner, names):
    """Record the calling function of each call to owner.<name>."""
    calls = {name: [] for name in names}
    for name in names:
        def counting(*args, _orig=getattr(owner, name), _name=name):
            calls[_name].append(sys._getframe(1).f_code.co_name)
            return _orig(*args)
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_transported_decompose_checks_each_property_once(ctx52, monkeypatch):
    # invertibility, semisimplicity and the split all come from one m_F,
    # and the split from its Lagrange projectors: no inverse, no radical,
    # no charpoly, echelon forms only of the projectors, and ranks only of
    # path maps, which are the classification itself
    c1, c2 = chi(ctx52, 1), chi(ctx52, 2)
    a = normalize([(Seg(c1, 3, 0), 1), (Seg(c1, 1, 2), 2), (Seg(c2, 2, 1), 1)],
                  ctx52)
    mc = transported(a, ctx52, random.Random(7), 3)
    linalg = count_calls(monkeypatch, FMat,
                         ("charpoly", "rank", "rref", "inverse"))
    poly = count_calls(monkeypatch, _poly, ("radical",))
    mm = count_calls(monkeypatch, matrixmodel,
                     ("_min_poly", "pivot_columns"))
    assert decompose(mc, ctx52) == a
    assert not linalg["charpoly"]
    assert mm["_min_poly"] == ["_checked_min_poly"]
    assert not linalg["inverse"]
    assert not linalg["rank"]
    assert linalg["rref"] and set(linalg["rref"]) == {"_spectral_basis"}
    assert set(mm["pivot_columns"]) == {"_slice0_chain", "_path_ranks"}
    assert not poly["radical"]


def test_slice0_chain_stopping_rule(ctx52, ctx32, ctx23, monkeypatch):
    # a segment from slice 0 longer than o keeps the ranks of the slice-0
    # path maps level from one step to the next before they fall, so only
    # a stop at whole turns of the holonomy H0 finds b, the dimension of
    # the cycle summands' slice-0 part
    rng = random.Random(18)
    chains = []
    chain = matrixmodel._slice0_chain

    def spy(field, trans):
        chains.append((trans, chain(field, trans)))
        return chains[-1][1]

    monkeypatch.setattr(matrixmodel, "_slice0_chain", spy)
    for ctx in (ctx52, ctx32, ctx23):
        o, c1 = ctx.o_nu, chi(ctx, 1)
        line = line_of(c1, ctx)[0]
        seg = Seg(c1, o + 2, 0)
        for parts in ([(seg, 1)], [(seg, 1), (Cyc(line, 1), 1)],
                      [(seg, 2), (Seg(c1, o + 1, 0), 1), (Cyc(line, 2), 1)]):
            a = normalize(parts, ctx)
            b = sum(k * ind.r for ind, k in a.parts if isinstance(ind, Cyc))
            for m in (realize(a, ctx),
                      transported(a, ctx, rng, ctx.field.order - 1)):
                chains.clear()
                assert decompose(m, ctx) == a
                (trans, (ranks, H0, B0)), = chains
                # the reference: M_(ko+i) = (trans[i-1] ... trans[0]) H0^k
                d0, field = trans[0].shape[1], ctx.field
                trans = [FMat(field, T) for T in trans]
                hol = FMat.identity(field, d0)
                for T in trans:
                    hol = T @ hol
                paths = [FMat.identity(field, d0)]
                Hk, want = paths[0], []
                for T in trans[:-1]:
                    paths.append(T @ paths[-1])
                for k in range(d0 + 2):
                    want += [(P @ Hk).rank() for P in paths]
                    Hk = Hk @ hol
                assert Hk.rank() == b == ranks[-1]
                assert ranks == want[:len(ranks)]
                assert set(want[len(ranks) - 1:]) == {b}
                if b:
                    assert np.array_equal(H0, hol.a)
                    B0 = FMat(field, B0)
                    assert B0.rank() == b == FMat.hstack([B0, Hk]).rank()
                else:
                    assert B0 is None


def test_chains_stop_at_an_empty_slice(ctx52, ctx23, monkeypatch):
    # a path map into an empty eigenspace slice has rank 0 without a
    # product or a reduction, so decompose of a realization reduces and
    # multiplies no empty matrix
    rref, matmul = FMat.rref, FMat.__matmul__

    def nonempty_rref(A):
        assert A.a.size
        return rref(A)

    def nonempty_matmul(A, B):
        assert A.a.size and B.a.size
        return matmul(A, B)

    monkeypatch.setattr(FMat, "rref", nonempty_rref)
    monkeypatch.setattr(FMat, "__matmul__", nonempty_matmul)
    for ctx in (ctx52, ctx23):
        pool = enumerate_line_classes(ctx, 10)
        rng = random.Random(f"empty:{ctx.ell}")
        for _ in range(300):
            a = pool[rng.randrange(len(pool))]
            assert decompose(realize(a, ctx), ctx) == a


def test_decompose_error_precedence(ctx52, ctx23, monkeypatch):
    F = ctx52.field
    zero = FMat.zeros(F, 2, 2)
    # singular and not semisimple: invertibility is checked first
    nil = MatrixDeligne(FMat(F, [[0, 1], [0, 0]]), zero)
    for fn in (decompose, validate):
        with pytest.raises(FNotInvertible):
            fn(nil, ctx52)
    # chi_F = (x - 1)^2 splits; F is a Jordan block
    jordan = MatrixDeligne(FMat(F, [[1, 1], [0, 1]]), zero)
    # chi_F = (x^2 + x + 1)^2 = x^4 + x^2 + 1 over F_2 has no root; F is
    # its companion matrix, whose minimal polynomial is chi_F
    F2 = ctx23.field
    comp = np.zeros((4, 4), dtype=np.intp)
    comp[1:, :3] = np.eye(3, dtype=np.intp)
    comp[:, 3] = [1, 0, 1, 0]
    unsplit = MatrixDeligne(FMat(F2, comp), FMat.zeros(F2, 4, 4))
    for m, ctx in ((jordan, ctx52), (unsplit, ctx23)):
        for fn in (decompose, validate):
            with pytest.raises(NotSemisimple):
                fn(m, ctx)
    # semisimple with m_F = x^2 + x + 1 over F_2: one minimal polynomial
    # and no chi_F, then the field is too small
    split_free = MatrixDeligne(FMat(F2, [[0, 1], [1, 1]]), FMat.zeros(F2, 2, 2))
    assert validate(split_free, ctx23)
    calls = count_calls(monkeypatch, matrixmodel, ("_min_poly",))
    linalg = count_calls(monkeypatch, FMat, ("charpoly",))
    with pytest.raises(NeedsLargerField):
        decompose(split_free, ctx23)
    assert calls["_min_poly"] == ["_checked_min_poly"]
    assert not linalg["charpoly"]


def check_min_poly(F):
    """m_F(F) = 0, the columns of S are the flattened I, ..., F^(d-1) and
    are independent, and m_F divides chi_F; returns m_F."""
    mf, S = matrixmodel._min_poly(F)
    field, n = F.field, F.nrows
    d = len(mf) - 1
    assert mf[-1] == 1 and S.shape == (n * n, d)
    assert not F.poly_eval(mf).a.any()
    power = FMat.identity(field, n)
    for i in range(d):
        assert np.array_equal(S[:, i], power.a.ravel())
        power = power @ F
    assert FMat(field, S).rank() == d
    assert not _poly.pmod(field, F.charpoly(), mf)
    return mf


def test_min_poly(ctx52, ctx23):
    field = ctx52.field
    rng = random.Random(3)
    # conjugated diagonalizable matrices: m_F is the product of x - v over
    # the distinct eigenvalues v
    for spectrum in ([1, 1, 2], [3, 4, 4, 4, 7], [5] * 3 + [9] * 2 + [11, 12]):
        n = len(spectrum)
        P = rand_invertible(field, n, rng)
        F = P @ FMat.diag(field, spectrum) @ P.inverse()
        want = [1]
        for v in sorted(set(spectrum)):
            want = _poly.pmul(field, want, [field.neg_idx(v), 1])
        assert check_min_poly(F) == want
    # scalar and 1 x 1 matrices: degree 1
    assert check_min_poly(FMat.identity(field, 3).scale(6)) == \
        [field.neg_idx(6), 1]
    assert check_min_poly(FMat(field, [[8]])) == [field.neg_idx(8), 1]
    # a Jordan block: (x - 1)^2
    one = field.neg_idx(1)
    assert check_min_poly(FMat(field, [[1, 1], [0, 1]])) == \
        _poly.pmul(field, [one, 1], [one, 1])
    # random matrices, m_F against chi_F
    for _ in range(20):
        n = rng.randrange(1, 9)
        check_min_poly(FMat(field, [[rng.randrange(field.order)
                                     for _ in range(n)] for _ in range(n)]))
    # the companion matrix of (x^2 + x + 1)^2 over F_2: m_F = chi_F, which
    # does not split and is not squarefree, so decompose still raises
    # NotSemisimple
    F2 = ctx23.field
    comp = np.zeros((4, 4), dtype=np.intp)
    comp[1:, :3] = np.eye(3, dtype=np.intp)
    comp[:, 3] = [1, 0, 1, 0]
    comp = FMat(F2, comp)
    assert check_min_poly(comp) == [1, 0, 1, 0, 1]
    with pytest.raises(NotSemisimple):
        decompose(MatrixDeligne(comp, FMat.zeros(F2, 4, 4)), ctx23)


def test_decompose_nilpotent_scaling_invariance(ctx52):
    a = normalize([(Seg(chi(ctx52, 1), 3, 0), 1), (Seg(chi(ctx52, 1), 1, 1), 1)],
                  ctx52)
    m = realize(a, ctx52)
    for lam in (2, 7, 24):
        assert decompose(MatrixDeligne(m.F, m.U.scale(lam)), ctx52) == a


def test_decompose_needs_larger_field(ctx23):
    F = ctx23.field
    # Frobenius acting by the companion matrix of x^2+x+1: unramified
    # eigenvalues outside F_2
    Frob = FMat(F, [[0, 1], [1, 1]])
    m = MatrixDeligne(Frob, FMat.zeros(F, 2, 2))
    with pytest.raises(NeedsLargerField):
        decompose(m, ctx23)


def test_oracle_refuses_oversized_extension(ctx34, monkeypatch):
    # with no admissible scaling pair anywhere, the doubling loop goes
    # F(3) -> F(9) -> F(81) and stops before asking for F(3^8)
    from modwd import matrixmodel
    asked = []
    make_ctx = matrixmodel.make_ctx

    def spy(ell, q, k):
        asked.append(k)
        return make_ctx(ell, q, k)

    monkeypatch.setattr(matrixmodel, "_admissible_pair", lambda field, c: None)
    monkeypatch.setattr(matrixmodel, "make_ctx", spy)
    a = normalize([Cyc(line_of(chi(ctx34, 1), ctx34)[0], 1)], ctx34)
    with pytest.raises(NeedsLargerField):
        oracle_tensor_ss(a, a)
    assert asked == [2, 4]


def test_semisimplify_examples(ctx52):
    F = ctx52.field
    t = F.from_int(2)
    m = MatrixDeligne(FMat.diag(F, [t.i]), FMat.zeros(F, 1, 1))
    assert semisimplify(m, ctx52) == normalize([Seg(chi(ctx52, 2), 1, 0)], ctx52)
    # uniserial 2x2: F = diag(t, t q^-1), U kills the head; the
    # semisimplification is the character plus the kernel character
    tq = t * ctx52.nu_value(1)
    m = MatrixDeligne(FMat.diag(F, [t.i, tq.i]), FMat(F, [[0, 0], [1, 0]]))
    ss = semisimplify(m, ctx52)
    assert ss == normalize([Seg(chi(ctx52, 2), 1, 0), Seg(chi(ctx52, 2), 1, 1)],
                           ctx52)
    # full cycle roundtrip
    line = line_of(chi(ctx52, 1), ctx52)[0]
    cy = normalize([Cyc(line, 1)], ctx52)
    assert semisimplify(realize(cy, ctx52), ctx52) == cy
    # JH of [0,r-1] (x) C(Z) is r copies of C(Z)
    m = realize(normalize([Cyc(line, 3)], ctx52), ctx52)
    assert semisimplify(m, ctx52) == normalize([(Cyc(line, 1), 3)], ctx52)


def test_raw_tensor(ctx52):
    rng = random.Random(5)
    a = realize(normalize([Seg(chi(ctx52, 2), 2, 0)], ctx52), ctx52)
    one = realize(normalize([Seg(chi(ctx52, 1), 1, 0)], ctx52), ctx52)
    t = raw_tensor(a, one)
    assert t.dim == a.dim
    assert t.F == a.F and t.U == a.U
    b = realize(normalize([Cyc(line_of(chi(ctx52, 1), ctx52)[0], 1)], ctx52), ctx52)
    t = raw_tensor(a, b)
    assert t.dim == a.dim * b.dim
    assert validate(t, ctx52)
    # relation on random valid pairs: scale operators arbitrarily
    for _ in range(3):
        lam = rng.randrange(1, 25)
        mu = rng.randrange(1, 25)
        t = raw_tensor(MatrixDeligne(a.F, a.U.scale(lam)),
                       MatrixDeligne(b.F, b.U.scale(mu)))
        assert validate(t, ctx52)


@pytest.mark.parametrize("ell,q", [(5, 2), (3, 2), (2, 3), (3, 4)])
def test_raw_tensor_matches_kron(ell, q):
    """raw_tensor equals the Kronecker products with identities taken in
    the field, on every ordered pair of realized parts, each operator
    scaled at random, as realized and moved to dense matrices."""
    ctx = make_ctx(ell, q)
    F = ctx.field
    rng = random.Random(f"raw_tensor:{ell}:{q}")
    c1 = UnramifiedChar(F.one)
    line = line_of(c1, ctx)[0]
    blocks = [realize(normalize([ind], ctx), ctx)
              for ind in (Seg(c1, 1, 0), Seg(c1, 3, 1), Cyc(line, 1),
                          Cyc(line, 2))]
    diagonal_terms = 0
    for b1 in blocks:
        for b2 in blocks:
            m1, m2 = (MatrixDeligne(m.F, m.U.scale(rng.randrange(1, F.order)))
                      for m in (b1, b2))
            # at o = 1 a cycle's U has diagonal entries, where both terms
            # of the tensor's U meet
            diagonal_terms += bool(np.diagonal(m1.U.a).any()
                                   and np.diagonal(m2.U.a).any())
            for pair in ((m1, m2), (moved(m1, rng), moved(m2, rng))):
                assert raw_tensor(*pair) == raw_tensor_by_kron(*pair)
    assert bool(diagonal_terms) == (ctx.o_nu == 1)


@pytest.mark.parametrize("ell,q,o", [(5, 2, 4), (3, 2, 2), (7, 2, 3),
                                     (13, 3, 3), (11, 2, 10), (2, 3, 1),
                                     (3, 4, 1)])
def test_lines_of_values_matches_mul_walk(ell, q, o):
    """The walk in discrete-log space gives the lines of the walk by field
    products, on every single nonzero value and on seeded value sets."""
    ctx = make_ctx(ell, q)
    F = ctx.field
    assert ctx.o_nu == o
    nonzero = range(1, F.order)
    for v in nonzero:
        assert (matrixmodel._lines_of_values([v], ctx, F)
                == lines_by_mul_walk([v], ctx, F))
    rng = random.Random(f"lines:{ell}:{q}")
    for _ in range(40):
        vals = rng.sample(nonzero, rng.randrange(1, min(len(nonzero), 16) + 1))
        assert (matrixmodel._lines_of_values(vals, ctx, F)
                == lines_by_mul_walk(vals, ctx, F))


@pytest.mark.parametrize("ell,q", [(3, 4), (3, 2), (7, 2), (5, 2)])
def test_shift_guard(ell, q):
    """Without check, decompose rejects an entry of U outside the
    transitions V_v -> V_(v/q): inside one slice (o > 1), skipping a slice
    (V_v -> V_(v/q^2), the same slice at o = 2) and across lines, on the
    realization and on a dense conjugate."""
    ctx = make_ctx(ell, q)
    F, o = ctx.field, ctx.o_nu
    c1 = UnramifiedChar(F.one)
    g = UnramifiedChar(F.elem(F.gen_idx))
    assert line_of(g, ctx)[0] != line_of(c1, ctx)[0]
    a = normalize([Cyc(line_of(c1, ctx)[0], 1), Seg(g, 1, 0)], ctx)
    m = realize(a, ctx)
    rng = random.Random(f"shift:{ell}:{q}")
    assert decompose(m, ctx, check=False) == a
    assert decompose(moved(m, rng), ctx, check=False) == a
    f = np.diagonal(m.F.a).tolist()
    one = f.index(1)
    entries = {"across lines": (f.index(g.t.i), one)}
    if o > 1:
        entries["inside a slice"] = (one, one)
        entries["skipping a slice"] = (f.index(ctx.nu_value(2).i), one)
    for what, (r, c) in entries.items():
        assert m.U.a[r, c] == 0, what
        U = m.U.a.copy()
        U[r, c] = rng.randrange(1, F.order)
        bad = MatrixDeligne(m.F, FMat(F, U))
        for inp in (bad, moved(bad, rng)):
            with pytest.raises(RelationViolated):
                decompose(inp, ctx, check=False)


def test_empty_pair(ctx52):
    F = ctx52.field
    m = MatrixDeligne(FMat.zeros(F, 0, 0), FMat.zeros(F, 0, 0))
    ranges, G = matrixmodel._adapted(m, ctx52)
    assert ranges == {} and G.shape == (0, 0)
    zero = zero_class(ctx52)
    assert decompose(m, ctx52) == decompose(m, ctx52, check=False) == zero
    assert semisimplify(m, ctx52) == zero
    assert l_factor_matrix(m, ctx52) == RationalFraction.one(F)


def test_oracle_matches_formal_small(ctx52, ctx32, ctx23):
    for ctx in (ctx52, ctx32, ctx23):
        c1 = UnramifiedChar(ctx.field.one)
        line = line_of(c1, ctx)[0]
        indecs = [Seg(c1, 1, 0), Seg(c1, 2, 0), Cyc(line, 1), Cyc(line, 2)]
        if ctx is not ctx23:
            # a second unramified line: the generator lies outside <q>, and
            # its dual lies on a third line, so a tensor that fuses with the
            # wrong base of a cycle line shows here
            g = UnramifiedChar(ctx.field.elem(ctx.field.gen_idx))
            g_line = line_of(g, ctx)[0]
            assert g_line not in (line, g_line.dual(ctx))
            indecs += [Seg(g, 1, 0), Seg(g, 2, 1), Cyc(g_line, 1),
                       Cyc(g_line, 2)]
        for i, A in enumerate(indecs):
            for B in indecs[i:]:
                a, b = normalize([A], ctx), normalize([B], ctx)
                assert oracle_tensor_ss(a, b) == tensor_ss(a, b)


@pytest.mark.parametrize("ell,k", [(2, 1), (2, 2), (3, 2), (5, 1), (5, 2)])
def test_embedding_is_a_ring_homomorphism(ell, k):
    small, big = finite_field(ell, k), finite_field(ell, 2 * k)
    table, inverse = matrixmodel._embedding(ell, k, 2 * k)
    assert table[0] == 0 and table[1] == 1
    assert len(set(table)) == small.order
    assert all(inverse[v] == i for i, v in enumerate(table))
    for x in range(small.order):
        for y in range(small.order):
            assert table[small.add_idx(x, y)] == big.add_idx(table[x], table[y])
            assert table[small.mul_idx(x, y)] == big.mul_idx(table[x], table[y])


def test_oracle_cyc_cyc_multiplicity(ctx52, ctx23):
    for ctx, mult in ((ctx52, 4), (ctx23, 1)):
        line = line_of(UnramifiedChar(ctx.field.one), ctx)[0]
        cy = normalize([Cyc(line, 1)], ctx)
        assert oracle_tensor_ss(cy, cy) == cy.scale(mult)


def _whole_tensor_oracle(a, b):
    """The oracle on whole classes, the reference for the per-pair one:
    realize both classes, scale by the same admissible pair in the same
    field, tensor once, decompose and map back to the context field."""
    ctx = a.ctx
    spectra = [(matrixmodel._indec_spectrum(A, ctx),
                matrixmodel._indec_spectrum(B, ctx))
               for A, _ in a.parts for B, _ in b.parts]
    conditions = [(SA, SB) for SA, SB in spectra if SA and SB]
    work, table, inverse, conds = ctx, None, None, conditions
    while (pair := matrixmodel._admissible_pair(work.field, conds)) is None:
        work = make_ctx(ctx.ell, ctx.q_residue, 2 * work.k)
        table, inverse = matrixmodel._embedding(ctx.ell, ctx.k, work.k)
        conds = [(tuple(table[x] for x in SA), tuple(table[x] for x in SB))
                 for SA, SB in conditions]
    ms = [realize(a, ctx), realize(b, ctx)]
    if table is not None:
        emb = np.array(table, dtype=np.intp)
        ms = [MatrixDeligne(FMat(work.field, emb[m.F.a]),
                            FMat(work.field, emb[m.U.a])) for m in ms]
    ma, mb = (MatrixDeligne(m.F, m.U.scale(s)) for m, s in zip(ms, pair))
    cls = decompose(raw_tensor(ma, mb), work, check=False)
    if table is None:
        return cls
    back = []
    for ind, mult in cls.parts:
        if isinstance(ind, Seg):
            t = ctx.field.elem(inverse[ind.irr.t.i])
            back.append((Seg(UnramifiedChar(t), ind.r, ind.a), mult))
        else:
            t = ctx.field.elem(inverse[ind.line.base.t.i])
            back.append((cyc(UnramifiedChar(t), ind.r, ctx), mult))
    return normalize(back, ctx)


def test_oracle_on_whole_classes(ctx52, ctx32, ctx23):
    """The per-pair oracle equals the whole-tensor one and tensor_ss on
    seeded pairs of multi-part classes, cycles on a second line included."""
    rng = random.Random(9)
    # no pair (lam, mu) of units of F_2 has lam + mu != 0, so at (2,3)
    # every cyc (x) cyc asks for the extension to F_4
    assert matrixmodel._admissible_pair(ctx23.field, [((1,), (1,))]) is None
    seen = {"mult >= 2": 0, "(2,3) extension beside segments": 0}
    for ctx in (ctx52, ctx32, ctx23):
        c1 = UnramifiedChar(ctx.field.one)
        line = line_of(c1, ctx)[0]
        indecs = [Seg(c1, 1, 0), Seg(c1, 2, 1), Seg(c1, 3, 0), Cyc(line, 1),
                  Cyc(line, 2)]
        if ctx is not ctx23:
            g = UnramifiedChar(ctx.field.elem(ctx.field.gen_idx))
            indecs += [Seg(g, 1, 0), Seg(g, 2, 1), Cyc(line_of(g, ctx)[0], 1)]

        def draw():
            while True:
                parts = [(rng.choice(indecs), rng.choice((1, 1, 2)))
                         for _ in range(rng.randrange(2, 4))]
                a = normalize(parts, ctx)
                if len(a.parts) >= 2 and a.dim() <= 8:
                    return a

        for _ in range(30):
            a, b = draw(), draw()
            got = oracle_tensor_ss(a, b)
            assert got == _whole_tensor_oracle(a, b) == tensor_ss(a, b)
            assert got.dim() == a.dim() * b.dim()
            seen["mult >= 2"] += any(m >= 2 for _, m in a.parts + b.parts)
            kinds = [{type(ind) for ind, _ in c.parts} for c in (a, b)]
            seen["(2,3) extension beside segments"] += (
                ctx is ctx23 and all(Cyc in k for k in kinds)
                and any(Seg in k for k in kinds))
    assert all(seen.values()), seen


def test_decompose_dimension_guard(ctx52):
    # a Frobenius-stable but operator-invalid pair must be rejected
    F = ctx52.field
    m = MatrixDeligne(FMat.diag(F, [1, 1]), FMat(F, [[0, 1], [0, 0]]))
    with pytest.raises(RelationViolated):
        decompose(m, ctx52)
    # without validation the shift guard rejects it
    with pytest.raises(RelationViolated):
        decompose(m, ctx52, check=False)


def test_decompose_multiline(ctx52):
    # at (5,2) the orbit of 1 is all of F_5^x, so a second line needs a
    # value outside the prime field
    F = ctx52.field
    g = UnramifiedChar(F.elem(F.gen_idx))
    c1 = chi(ctx52, 1)
    a = normalize([(Seg(c1, 2, 0), 1), (Seg(g, 1, 0), 2),
                   (Cyc(line_of(g, ctx52)[0], 1), 1)], ctx52)
    m = realize(a, ctx52)
    assert decompose(m, ctx52) == a
    rng = random.Random(23)
    P = rand_invertible(F, m.dim, rng)
    mc = MatrixDeligne(P @ m.F @ P.inverse(), P @ m.U @ P.inverse())
    assert decompose(mc, ctx52) == a


def cycle_quiver(ctx, hol):
    """(F, U) at o = 4 on four d-dim slices, slice c with Frobenius
    eigenvalue q^-c, identity transitions 0 -> 1 -> 2 -> 3 and the
    transition hol from slice 3 back to slice 0."""
    F, d = ctx.field, hol.nrows
    U = np.zeros((4 * d, 4 * d), dtype=np.int32)
    for c in range(3):
        U[(c + 1) * d:(c + 2) * d, c * d:(c + 1) * d] = np.eye(d)
    U[:d, 3 * d:] = hol.a
    return MatrixDeligne(
        FMat.diag(F, [ctx.nu_value(c).i for c in range(4) for _ in range(d)]),
        FMat(F, U))


def test_decompose_holonomy_outside_field(ctx52):
    # the holonomy A, companion matrix of x^2 - g, has its eigenvalues in
    # F(5^4) only
    F = ctx52.field
    line = line_of(chi(ctx52, 1), ctx52)[0]
    A = FMat(F, [[0, F.gen_idx], [1, 0]])
    m = cycle_quiver(ctx52, A)
    assert decompose(m, ctx52) == normalize([(Cyc(line, 1), 2)], ctx52)
    # a Jordan block of A over A: two cycles of length 2
    hol = FMat(F, np.block([[A.a, np.eye(2, dtype=np.int32)],
                            [np.zeros((2, 2), dtype=np.int32), A.a]]))
    m = cycle_quiver(ctx52, hol)
    assert decompose(m, ctx52) == normalize([(Cyc(line, 2), 2)], ctx52)
    assert semisimplify(m, ctx52) == normalize([(Cyc(line, 1), 4)], ctx52)
    P = rand_invertible(F, m.dim, random.Random(31))
    mc = MatrixDeligne(P @ m.F @ P.inverse(), P @ m.U @ P.inverse())
    assert decompose(mc, ctx52) == normalize([(Cyc(line, 2), 2)], ctx52)
