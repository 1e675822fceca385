"""The FMat product and row reduction against scalar references built
from the field's exp/log and digit arithmetic, over prime and extension
fields; products on both sides of the switch between the table gather of
outer products and the BLAS routes; pivot_columns against rref's pivots
on both sides of the switch between row lists and the wide encoding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modwd import _linalg, _poly
from modwd._linalg import FMat, _wide_tables
from modwd.field import finite_field
from reference import ref_kernel

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (3, 4)]
# every field of order at most 81, and two larger ones
EVERY_FIELD = [(ell, k) for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                    37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)
               for k in range(1, 7) if ell ** k <= 81] + [(3, 6), (2, 12)]


def ref_matmul(F, A, B):
    n, inner = A.a.shape
    m = B.a.shape[1]
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(inner):
                acc = F.add_idx(acc, F.mul_idx(int(A.a[i, t]), int(B.a[t, j])))
            out[i][j] = acc
    return np.array(out, dtype=np.int32).reshape(n, m)


def rand_fmat(F, n, m, rng):
    return FMat(F, np.array([[rng.randrange(F.order) for _ in range(m)]
                             for _ in range(n)], dtype=np.int32).reshape(n, m))


def rand_invertible(F, n, rng):
    while True:
        P = rand_fmat(F, n, n, rng)
        if P.rank() == n:
            return P


def check_product(F, n, inner, m, seed):
    """A @ B against the reference on random matrices: every entry up to
    64^3 multiply-adds, and every entry of 4 random rows and 4 random
    columns above."""
    rng = random.Random(seed)
    A, B = rand_fmat(F, n, inner, rng), rand_fmat(F, inner, m, rng)
    C = A @ B
    assert C.a.shape == (n, m) and C.a.dtype == np.intp
    if n * inner * m <= 64 ** 3:
        assert np.array_equal(C.a, ref_matmul(F, A, B))
        return
    rows, cols = sorted(rng.sample(range(n), 4)), sorted(rng.sample(range(m), 4))
    assert np.array_equal(C.a[rows], ref_matmul(F, FMat(F, A.a[rows]), B))
    assert np.array_equal(C.a[:, cols], ref_matmul(F, A, FMat(F, B.a[:, cols])))


@pytest.mark.parametrize("ell,k", FIELDS)
@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1),
                                   (3, 5, 2), (1, 9, 1), (9, 1, 7)])
def test_small_and_empty_shapes(ell, k, shape):
    check_product(finite_field(ell, k), *shape, seed=repr((ell, k, shape)))


@pytest.mark.parametrize("ell,k", FIELDS)
def test_both_sides_of_gather_switch(ell, k):
    # outer products (inner dimension 1) are one table gather; from inner
    # dimension 2 on, products take BLAS
    F = finite_field(ell, k)
    for shape in [(64, 1, 64), (64, 2, 64), (5, 1, 64), (5, 2, 64)]:
        check_product(F, *shape, seed=repr((ell, k, shape)))


@pytest.mark.parametrize("ell,k", FIELDS)
def test_size_64(ell, k):
    check_product(finite_field(ell, k), 64, 64, 64, seed=repr((ell, k)))


@pytest.mark.parametrize("ell,k", EVERY_FIELD)
def test_products_every_field(ell, k):
    F = finite_field(ell, k)
    shapes = [(0, 5, 3), (3, 0, 5), (5, 3, 0), (1, 9, 1), (1, 6, 11),
              (11, 6, 1), (7, 1, 5), (1, 1, 1), (9, 4, 7), (33, 20, 17),
              (64, 64, 1), (2, 2, 2), (3, 3, 3), (12, 12, 12), (32, 32, 32),
              (64, 64, 64), (80, 80, 80)]
    for shape in shapes:
        check_product(F, *shape, seed=repr((ell, k, shape)))


@settings(max_examples=40)
@given(st.sampled_from(FIELDS), st.integers(1, 24), st.integers(1, 24),
       st.integers(1, 24), st.integers(0, 2 ** 32))
def test_random_shapes(field, n, inner, m, seed):
    check_product(finite_field(*field), n, inner, m, seed)


@settings(max_examples=30)
@given(st.sampled_from(FIELDS), st.integers(1, 12), st.integers(0, 2 ** 32))
def test_inverse_and_kron(field, n, seed):
    F = finite_field(*field)
    rng = random.Random(seed)
    A = rand_invertible(F, n, rng)
    assert A @ A.inverse() == FMat.identity(F, n)
    assert A.inverse() @ A == FMat.identity(F, n)
    B, C, D = (rand_fmat(F, 2, 2, rng) for _ in range(3))
    # mixed-product property of the Kronecker product
    assert A.kron(B) @ FMat.identity(F, n).kron(C @ D) == A.kron(B @ C @ D)
    assert (A.kron(B) @ A.kron(C)) == (A @ A).kron(B @ C)


def count_products(monkeypatch, fn):
    """fn() and the number of FMat products it made."""
    calls = []
    matmul = FMat.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(FMat, "__matmul__", counting)
    out = fn()
    monkeypatch.undo()
    return out, len(calls)


@pytest.mark.parametrize("coeffs,products", [([], 0), ([7], 0), ([4, 1], 0),
                                             ([0, 0, 1], 1), ([3, 0, 9, 1], 2),
                                             ([1, 2, 0, 5, 0, 1], 4)])
def test_poly_eval_product_count(monkeypatch, coeffs, products):
    # Horner's rule from c_d M + c_(d-1) makes d - 1 products at degree d
    F = finite_field(5, 2)
    A = rand_fmat(F, 3, 3, random.Random(len(coeffs)))
    P, count = count_products(monkeypatch, lambda: A.poly_eval(coeffs))
    assert count == products
    expect, power = FMat.zeros(F, 3, 3), FMat.identity(F, 3)
    for c in coeffs:
        expect, power = expect + power.scale(c), power @ A
    assert P == expect


@pytest.mark.parametrize("ell,k", [(5, 1), (5, 2)])
def test_is_diagonal_and_identity(ell, k):
    # every matrix with one nonzero entry off the main diagonal, square or
    # not, with and without a nonzero diagonal, is not diagonal
    F = finite_field(ell, k)
    x = F.order - 1
    assert FMat.identity(F, 0).a.shape == (0, 0)
    assert FMat.identity(F, 0).is_diagonal()
    A = rand_fmat(F, 3, 3, random.Random(ell * k))
    assert FMat.identity(F, 3).a.dtype == np.intp
    assert A @ FMat.identity(F, 3) == A == FMat.identity(F, 3) @ A
    for n, m in ((1, 1), (3, 3), (2, 4), (4, 2), (0, 3), (3, 0)):
        zero = np.zeros((n, m), dtype=np.intp)
        diag = zero.copy()
        np.fill_diagonal(diag, x)
        assert FMat(F, zero).is_diagonal() and FMat(F, diag).is_diagonal()
        for i in range(n):
            for j in range(m):
                if i != j:
                    for base in (zero, diag):
                        off = base.copy()
                        off[i, j] = x
                        assert not FMat(F, off).is_diagonal()


def test_shape_mismatch():
    F = finite_field(3, 2)
    with pytest.raises(ValueError):
        FMat.zeros(F, 2, 3) @ FMat.zeros(F, 2, 3)


def test_sum_shape_mismatch():
    # numpy would broadcast the row against the identity
    F = finite_field(5, 2)
    with pytest.raises(ValueError):
        FMat(F, [[1, 2, 3]]) + FMat.identity(F, 3)


def test_difference_shape_mismatch():
    F = finite_field(5, 2)
    with pytest.raises(ValueError):
        FMat(F, [[1, 2, 3]]) - FMat.identity(F, 3)


def test_inverse_of_non_square():
    # the rref of [A | I] of a 2 x 3 A has pivots 0 and 1
    F = finite_field(5, 1)
    with pytest.raises(ValueError):
        FMat(F, [[1, 0, 0], [0, 1, 0]]).inverse()


def ref_rref(F, rows, m):
    """(R, pivots) by scalar Gauss-Jordan elimination on index lists."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(m):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = F.inv_idx(a[r][c])
        a[r] = [F.mul_idx(x, inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [F.sub_idx(x, F.mul_idx(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return np.array(a, dtype=np.intp).reshape(len(a), m), pivots


@pytest.mark.parametrize("ell,k", EVERY_FIELD)
def test_rref_matches_reference(ell, k):
    F = finite_field(ell, k)
    rng = random.Random(f"rref:{ell}:{k}")
    mats = [FMat.zeros(F, 0, 3), FMat.zeros(F, 3, 0), FMat.zeros(F, 4, 5),
            rand_invertible(F, 6, rng), FMat.identity(F, 3)]
    for _ in range(12):
        # rank r <= min(n, m): a product through an r-dimensional space
        n, m = rng.randrange(1, 13), rng.randrange(1, 13)
        r = rng.randrange(0, min(n, m) + 1)
        mats.append(rand_fmat(F, n, r, rng) @ rand_fmat(F, r, m, rng))
    for n in (1, 5, 12):
        # [A | I], what inverse reduces
        mats.append(FMat.hstack([rand_fmat(F, n, n, rng), FMat.identity(F, n)]))
    for A in mats:
        R, pivots = A.rref()
        want, want_pivots = ref_rref(F, A.a.tolist(), A.ncols)
        assert R.a.dtype == np.intp and R.a.shape == A.a.shape
        assert np.array_equal(R.a, want) and pivots == want_pivots


@pytest.mark.parametrize("ell,k", [(5, 1), (5, 2), (2, 3), (3, 4)])
def test_row_lists_match_wide_route(ell, k, monkeypatch):
    """rref on row lists against the wide-encoding route, R and pivots, on
    every shape of at most ROW_LIST_CELLS cells and the first shape above
    it for each row count, zero rows and columns included: a random
    matrix, one of lower rank and one with a zero row and column."""
    F = finite_field(ell, k)
    rng = random.Random(f"rows:{ell}:{k}")
    cells = _linalg.ROW_LIST_CELLS
    shapes = [(0, m) for m in range(cells + 2)] + [
        (n, m) for n in range(1, cells + 2) for m in range(cells // n + 2)]
    for n, m in shapes:
        mats = [rand_fmat(F, n, m, rng)]
        if n and m:
            r = rng.randrange(min(n, m))
            mats.append(rand_fmat(F, n, r, rng) @ rand_fmat(F, r, m, rng))
            A = rand_fmat(F, n, m, rng)
            A.a[rng.randrange(n)] = 0
            A.a[:, rng.randrange(m)] = 0
            mats.append(A)
        for A in mats:
            before = A.a.copy()
            got = []
            for route in (10 ** 9, -1):
                monkeypatch.setattr(_linalg, "ROW_LIST_CELLS", route)
                got.append(A.rref())
            (R, pivots), (W, wide_pivots) = got
            assert np.array_equal(A.a, before)
            assert R.a.dtype == np.intp and R.a.shape == (n, m)
            assert np.array_equal(R.a, W.a) and pivots == wide_pivots


@pytest.mark.parametrize("ell,k", [(2, 1), (3, 1), (5, 2), (2, 3), (3, 4)])
def test_pivot_columns_match_rref(ell, k):
    """pivot_columns against the pivots of rref, and FMat.rank against
    their count, on every shape up to 9 x 9 (8 x 8 is the last row-list
    shape, 8 x 9 and 9 x 9 are reduced wide) and on larger ones up to
    64 x 64: a random matrix, one of random lower rank, and a sparse one
    with a zero row and column, whose pivots skip columns."""
    F = finite_field(ell, k)
    rng = random.Random(f"pivots:{ell}:{k}")
    shapes = [(n, m) for n in range(10) for m in range(10)] + [
        (0, 64), (64, 0), (1, 64), (64, 1), (12, 12), (16, 33), (40, 17),
        (64, 64)]
    for n, m in shapes:
        r = rng.randrange(min(n, m) + 1)
        mats = [rand_fmat(F, n, m, rng),
                rand_fmat(F, n, r, rng) @ rand_fmat(F, r, m, rng)]
        if n and m:
            keep = np.array([[rng.random() < 0.3 for _ in range(m)]
                             for _ in range(n)])
            A = FMat(F, rand_fmat(F, n, m, rng).a * keep)
            A.a[rng.randrange(n)] = 0
            A.a[:, rng.randrange(m)] = 0
            mats.append(A)
        for A in mats:
            before = A.a.copy()
            pivots = _linalg.pivot_columns(F, A.a)
            assert np.array_equal(A.a, before)
            assert pivots == A.rref()[1] and A.rank() == len(pivots)


@pytest.mark.parametrize("ell,k", EVERY_FIELD)
def test_wide_table_identities(ell, k):
    """The four per-pivot steps of rref on wide encodings: a sum, the
    products log x + log y and log(-x) + log y, and a division by y != 0.
    Every pair at order <= 81, 2,000 sampled pairs (zero included) above."""
    F = finite_field(ell, k)
    WN, LW, LNW, EW = _wide_tables(F)
    wide, Q = F._np_wide, F.order
    if Q <= 81:
        pairs = [(x, y) for x in range(Q) for y in range(Q)]
    else:
        rng = random.Random(f"wide:{ell}:{k}")
        pairs = [(0, 0), (0, Q - 1), (Q - 1, 0)] + [
            (rng.randrange(Q), rng.randrange(Q)) for _ in range(1997)]
    x, y = np.array(pairs, dtype=np.intp).T
    wx, wy = wide[x], wide[y]
    add = [F.add_idx(int(i), int(j)) for i, j in pairs]
    mul = [F.mul_idx(int(i), int(j)) for i, j in pairs]
    assert np.array_equal(WN[wx + wy], wide[add])
    assert np.array_equal(EW[LW[wx] + LW[wy]], wide[mul])
    assert np.array_equal(EW[LNW[wx] + LW[wy]], wide[F.np_neg[mul]])
    nz = y != 0
    quo = [F.mul_idx(int(i), F.inv_idx(int(j))) for i, j in zip(x[nz], y[nz])]
    assert np.array_equal(EW[LW[wx[nz]] + Q - 1 - LW[wy[nz]]], wide[quo])


@pytest.mark.parametrize("ell,k", FIELDS)
def test_kernel_matches_reference(ell, k):
    # the kernel of tests/reference.py, which its characteristic-polynomial
    # L takes, against the definition: a basis of ncols - rank columns that
    # A sends to 0
    F = finite_field(ell, k)
    rng = random.Random(f"kernel:{ell}:{k}")
    mats = [FMat.zeros(F, 3, 4), FMat.zeros(F, 0, 3), FMat.zeros(F, 3, 0),
            rand_invertible(F, 5, rng), rand_fmat(F, 2, 6, rng)]
    for _ in range(30):
        # rank r < min(n, m): a product through an r-dimensional space
        n, m = rng.randrange(1, 10), rng.randrange(1, 10)
        r = rng.randrange(0, min(n, m) + 1)
        mats.append(rand_fmat(F, n, r, rng) @ rand_fmat(F, r, m, rng))
    for A in mats:
        K = FMat(F, ref_kernel(A))
        assert K.ncols == A.ncols - A.rank() == K.rank()
        if K.ncols:
            assert not (A @ K).a.any()
    # no pivot: every column is free; no free column: an empty basis
    assert np.array_equal(ref_kernel(FMat.zeros(F, 3, 4)), np.eye(4))
    assert ref_kernel(mats[3]).shape == (5, 0)


@pytest.mark.parametrize("ell,k", [(5, 1), (5, 2)])
def test_solve_in_basis(ell, k):
    """B @ X = T gives back X when B has full column rank and T lies in its
    span; a basis with a dependent column, or a T with a column outside
    the span, raises."""
    F = finite_field(ell, k)
    rng = random.Random(f"solve:{ell}:{k}")
    for _ in range(30):
        n = rng.randrange(2, 10)
        w, m = rng.randrange(1, n), rng.randrange(0, 4)
        P = rand_invertible(F, n, rng)
        B = FMat(F, P.a[:, :w].copy())
        X = rand_fmat(F, w, m, rng)
        assert B.solve_in_basis(B @ X) == X
        # the last column is a combination of the others
        dependent = FMat.hstack([B, B @ rand_fmat(F, w, 1, rng)])
        with pytest.raises(ValueError, match="not full column rank"):
            dependent.solve_in_basis(B @ X)
        # column w of P is independent of B's columns
        outside = FMat.hstack([B @ X, FMat(F, P.a[:, w:w + 1].copy())])
        with pytest.raises(ValueError, match="do not lie in the span"):
            B.solve_in_basis(outside)


def ref_det(F, rows):
    """Determinant by Gaussian elimination on scalar indices."""
    a = [list(r) for r in rows]
    det = 1
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = F.neg_idx(det)
        det = F.mul_idx(det, a[c][c])
        inv = F.inv_idx(a[c][c])
        for r in range(c + 1, len(a)):
            if a[r][c]:
                f = F.mul_idx(a[r][c], inv)
                a[r] = [F.sub_idx(x, F.mul_idx(f, y)) for x, y in zip(a[r], a[c])]
    return det


@pytest.mark.parametrize("ell,k,top,big", [(2, 1, 16, 5), (3, 2, 8, 2),
                                           (5, 2, 16, 2)])
def test_charpoly_matches_determinants(ell, k, top, big):
    """chi_A(v) = det(v - A) at n + 1 points v, which fixes a monic
    polynomial of degree n.  An F(2) matrix is read in F(2^5), where a
    prime-field index names the same residue, to have enough points."""
    F, E = finite_field(ell, k), finite_field(ell, big)
    rng = random.Random(f"charpoly:{ell}:{k}")
    for _ in range(100):
        n = rng.randrange(0, top + 1)
        # dense, sparse, and upper triangular (no reduction step at all)
        dens = rng.choice((1.0, 0.3))
        a = [[rng.randrange(F.order) if rng.random() < dens else 0
              for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            a = [[x if j >= i else 0 for j, x in enumerate(r)]
                 for i, r in enumerate(a)]
        cp = FMat(F, np.array(a, dtype=np.intp).reshape(n, n)).charpoly()
        assert len(cp) == n + 1 and cp[-1] == 1
        for v in range(n + 1):
            shifted = [[E.sub_idx(v if i == j else 0, x) for j, x in enumerate(r)]
                       for i, r in enumerate(a)]
            assert _poly.peval(E, cp, v) == ref_det(E, shifted)
