"""Exact dense linear algebra over a FiniteField.

Matrices hold numpy arrays of element indices, which are base-ell digit
strings in the polynomial basis.  Products are float64 BLAS products of
digits.  Over a prime field an index is its residue, so A @ B is the float
product mod ell.  Over F_{ell^k} A @ B is the float product of the digits
of A by the regular representation of B (each entry b becomes the k x k
matrix of x -> bx on F_ell^k), mod ell.  Every float sum is at most
k * inner_dim * (ell-1)^2, which the product asserts is below 2^53, so
none rounds.  Row reduction takes one of two routes by size.  Up to
ROW_LIST_CELLS cells it runs on Python row lists with the field's list
tables (_rref_rows), which skips numpy's per-call cost; above, it clears
each pivot column from the whole matrix in one table update in the
field's wide encoding (_wide_tables).  Per call over F(5^2) (one process,
2-vCPU x86-64), row lists beat the wide route on random full-rank
matrices up to 10 x 10 (8 x 8: 40 vs 56 us) and tie on rank 2 at 8 x 8
(19 vs 19 us), losing from 9 x 9 on (23 vs 20 us); on the matrices the
oracle and the roundtrip reduce they win up to 100 cells.  Hence 64.
Outer products and all other operations use the field's elementwise
add_arr and mul_arr, which index its O(Q) tables with the intp index
arrays directly.  Row reduction, characteristic polynomials (via
Hessenberg form) and polynomial evaluation are enough for the whole
matrix model.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _poly

# float64 holds every integer below 2**53 exactly
_EXACT_BITS = 53

# rref reduces matrices of at most this many cells on Python row lists
ROW_LIST_CELLS = 64


def _mod(x, ell):
    """Least non-negative residues of an integer array (numpy's floor
    division by a scalar is faster than its remainder on large arrays)."""
    return x - ell * (x // ell)


@functools.lru_cache(maxsize=8)
def _regular_tables(field):
    """k x Q tables: digit d of each index, as a float, and row d of the
    matrix of x -> bx (the digits of x^d b) as one k-float item that numpy
    gathers in one step; and the powers of ell.  4.7 MB at F(2^12)."""
    ell, k, Q = field.ell, field.k, field.order
    idx = np.arange(Q, dtype=np.intp)
    powers = ell ** np.arange(k)
    digits = (idx // powers[:, None] % ell).astype(np.float64)
    # x^d is the index ell^d
    regular = np.stack([digits.T[field.mul_arr(int(e), idx)] for e in powers])
    return (digits, regular.view(np.dtype((np.void, 8 * k)))[..., 0],
            powers.astype(np.float64))


def _regular_product(field, A, B):
    """Index matrix of A @ B from the exact float64 product of the digits
    of A, n x (k inner), by the regular representation of B, (k inner) x
    (m k): column (j, e) holds digit e of column j of A @ B, before the
    mod."""
    ell, k = field.ell, field.k
    (n, inner), m = A.shape, B.shape[1]
    digits, regular, powers = _regular_tables(field)
    # np.dot: a matmul ufunc call costs about a microsecond more
    P = np.dot(digits.take(A, axis=1).transpose(1, 0, 2).reshape(n, k * inner),
               regular.take(B, axis=1).view(np.float64).reshape(k * inner, m * k))
    # P is integral below 2^53, so floor(P / ell) is exact
    P -= ell * np.floor(P / ell)
    return P.reshape(n * m, k).dot(powers).astype(np.intp).reshape(n, m)


@functools.lru_cache(maxsize=8)
def _wide_tables(field):
    """Tables of row reduction in the field's wide encoding, where two
    elements add as integers: WN = wide(narrow s) for every sum s of two
    wide values; LW = log x and LNW = log(-x), indexed by wide x (log 0 at
    every other index); EW = wide(exp e) for every sum e of two logs.
    12.9 MB at F(2^12)."""
    wide, log = field._np_wide, field._np_log
    LW = np.full(field._np_narrow.size, log[0])
    LNW = LW.copy()
    LW[wide], LNW[wide] = log, log[field.np_neg]
    return wide[field._np_narrow], LW, LNW, wide[field._np_exp]


def _rref_rows(F, rows, m):
    """rref of the n x m index matrix held as n row lists, by the field's
    list tables: the pivot row is scaled to 1 at its pivot and every other
    row gains -x times its nonzero entries, from the pivot column on."""
    exp, log, wide, narrow, neg = F.exp, F.log, F._wide, F._narrow, F._neg
    top = F.order - 1
    n, pivots = len(rows), []
    for c in range(m):
        r = len(pivots)
        if r == n:
            break
        for p in range(r, n):
            if rows[p][c]:
                break
        else:
            continue
        row = rows[p]
        rows[p] = rows[r]
        # logs of the nonzero entries of row / row[c], which is 1 at c
        s = top - log[row[c]]
        nz = [(j, (log[x] + s) % top) for j in range(c, m) if (x := row[j])]
        for j, lx in nz:
            row[j] = exp[lx]
        rows[r] = row
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                ri, f = rows[i], log[neg[f]]
                for j, lx in nz:
                    ri[j] = narrow[wide[ri[j]] + wide[exp[f + lx]]]
        pivots.append(c)
    return FMat(F, rows), pivots


class FMat:
    """Dense matrix over a FiniteField (entries are element indices)."""

    __slots__ = ("field", "a")

    def __init__(self, field, a):
        self.field = field
        self.a = np.asarray(a, dtype=np.intp)
        if self.a.ndim != 2:
            raise ValueError("FMat needs a 2-d array")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, np.zeros((nrows, ncols), dtype=np.intp))

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.intp))

    @classmethod
    def diag(cls, field, idx_values):
        return cls(field, np.diag(np.asarray(idx_values, dtype=np.intp)))

    @classmethod
    def block_diag(cls, field, blocks):
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        a = np.zeros((n, m), dtype=np.intp)
        r = c = 0
        for b in blocks:
            a[r:r + b.nrows, c:c + b.ncols] = b.a
            r += b.nrows
            c += b.ncols
        return cls(field, a)

    @classmethod
    def hstack(cls, mats):
        return cls(mats[0].field, np.hstack([m.a for m in mats]))

    # -- basics ----------------------------------------------------------------

    @property
    def nrows(self):
        return self.a.shape[0]

    @property
    def ncols(self):
        return self.a.shape[1]

    def is_diagonal(self):
        return np.count_nonzero(self.a) == np.count_nonzero(self.a.diagonal())

    def __eq__(self, other):
        return (isinstance(other, FMat) and self.field == other.field
                and self.a.shape == other.a.shape
                and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"FMat({self.nrows}x{self.ncols} over {self.field!r})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if self.a.shape != other.a.shape:
            raise ValueError("shape mismatch in sum")
        return FMat(self.field, self.field.add_arr(self.a, other.a))

    def __neg__(self):
        return FMat(self.field, self.field.np_neg[self.a])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if hasattr(s, "i"):
            s = s.i
        return FMat(self.field, self.field.mul_arr(self.a, s))

    def __matmul__(self, other):
        F = self.field
        n, inner = self.a.shape
        inner2, m = other.a.shape
        if inner != inner2:
            raise ValueError("shape mismatch in matmul")
        if inner == 0 or n == 0 or m == 0:
            return FMat(F, np.zeros((n, m), dtype=np.intp))
        if inner == 1:
            # outer products, common in the oracle: one table gather, 2.3 to
            # 5.7 times faster than the BLAS routes at n = 2..64 (medians of
            # 7 interleaved timings, 2-vCPU x86-64, OpenBLAS 0.3.31)
            return FMat(F, F.mul_arr(self.a, other.a))
        # a float sum adds at most k * inner products of two digits
        assert F.k * inner * (F.ell - 1) ** 2 < 2 ** _EXACT_BITS, \
            "digit products would round in float64"
        A, B = self.a, other.a
        if F.k == 1:
            prod = A.astype(np.float64) @ B.astype(np.float64)
            return FMat(F, _mod(prod.astype(np.int64), F.ell).astype(np.intp))
        return FMat(F, _regular_product(F, A, B))

    def kron(self, other):
        F = self.field
        n1, m1 = self.a.shape
        n2, m2 = other.a.shape
        out = F.mul_arr(self.a[:, None, :, None], other.a[None, :, None, :])
        return FMat(F, out.reshape(n1 * n2, m1 * m2))

    @property
    def T(self):
        return FMat(self.field, self.a.T.copy())

    # -- elimination ----------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        F = self.field
        n, m = self.a.shape
        if n * m <= ROW_LIST_CELLS:
            if not n * m:
                return FMat(F, self.a.copy()), []
            return _rref_rows(F, self.a.tolist(), m)
        WN, LW, LNW, EW = _wide_tables(F)
        W = F._np_wide[self.a]
        pivots = []
        r = 0
        for c in range(m):
            if r == n:
                break
            nz = W[r:, c].nonzero()[0]
            if nz.size == 0:
                continue
            p = r + nz[0]
            if p != r:
                W[[r, p]] = W[[p, r]]
            lp = int(LW[W[r, c]])
            if lp:
                # W[r] / W[r, c]: shifting logs by Q - 1 - lp keeps them
                # >= 0, and the zeros' at or above 2(Q - 1)
                W[r] = EW[LW[W[r]] + (F.order - 1 - lp)]
            if np.count_nonzero(W[:, c]) > 1:
                # every row i gains -W[i, c] W[r]; the pivot row and the
                # zeros of column c get factor log 0 (LW[0]), so gain 0
                f = LNW[W[:, c]]
                f[r] = LW[0]
                W = WN[W + EW[f[:, None] + LW[W[r]]]]
            pivots.append(c)
            r += 1
        return FMat(F, F._np_narrow[W]), pivots

    def rank(self):
        return len(self.rref()[1])

    def inverse(self):
        F = self.field
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of non-square matrix")
        aug = FMat.hstack([self, FMat.identity(F, n)])
        R, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return FMat(F, R.a[:, n:].copy())

    def solve_in_basis(self, T):
        """X with self @ X = T, assuming self has full column rank and the
        columns of T lie in the column space."""
        F = self.field
        w = self.ncols
        aug = FMat.hstack([self, T])
        R, pivots = aug.rref()
        if pivots[:w] != list(range(w)):
            raise ValueError("basis matrix is not full column rank")
        if any(p >= w for p in pivots):
            raise ValueError("columns do not lie in the span of the basis")
        return FMat(F, R.a[:w, w:].copy())

    # -- characteristic polynomial -----------------------------------------------

    def charpoly(self):
        """Monic characteristic polynomial as a little-endian index list."""
        F = self.field
        n = self.nrows
        if n != self.ncols:
            raise ValueError("charpoly of non-square matrix")
        if n == 0:
            return [1]
        H = self.a.copy()
        for j in range(n - 2):
            nz = np.nonzero(H[j + 1:, j])[0]
            if nz.size == 0:
                continue
            p = j + 1 + nz[0]
            if p != j + 1:
                H[[j + 1, p]] = H[[p, j + 1]]
                H[:, [j + 1, p]] = H[:, [p, j + 1]]
            rows = j + 2 + np.nonzero(H[j + 2:, j])[0]
            if rows.size == 0:
                continue
            # H <- L H L^-1 with L = I - f e_(j+1)^T: one rank-1 row update,
            # then column j+1 gains sum_i f_i H[:, i]
            f = F.mul_arr(H[rows, j], F.inv_idx(int(H[j + 1, j])))
            H[rows] = F.add_arr(H[rows], F.mul_arr(F.np_neg[f][:, None],
                                                   H[j + 1][None, :]))
            H[:, j + 1] = F.add_arr(H[:, j + 1], (
                FMat(F, H[:, rows]) @ FMat(F, f[:, None])).a[:, 0])
        # recurrence on leading principal minors of the Hessenberg form
        polys = [[1]]
        for k in range(1, n + 1):
            hkk = int(H[k - 1, k - 1])
            term = _poly.pmul(F, [F.neg_idx(hkk), 1], polys[k - 1])
            prod_sub = 1
            for i in range(1, k):
                prod_sub = F.mul_idx(prod_sub, int(H[k - i, k - i - 1]))
                if prod_sub == 0:
                    break
                hji = int(H[k - 1 - i, k - 1])
                if hji:
                    coeff = F.neg_idx(F.mul_idx(hji, prod_sub))
                    term = _poly.padd(F, term,
                                      _poly.pscale(F, polys[k - 1 - i], coeff))
            polys.append(term)
        return polys[n]

    def poly_eval(self, coeffs):
        """Evaluate a polynomial (little-endian index list) at this matrix,
        by Horner's rule from c_d M + c_(d-1): d - 1 products at degree d."""
        one = FMat.identity(self.field, self.nrows)
        if len(coeffs) < 2:
            return one.scale(coeffs[0] if coeffs else 0)
        acc = self.scale(coeffs[-1]) + one.scale(coeffs[-2])
        for c in reversed(coeffs[:-2]):
            acc = acc @ self + one.scale(c)
        return acc
