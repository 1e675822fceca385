"""Exact dense linear algebra over a FiniteField.

Matrices hold numpy arrays of element indices, which are base-ell digit
strings in the polynomial basis.  Products are float64 BLAS products of
digits.  Over a prime field an index is its residue, so A @ B is the float
product mod ell.  Over F_{ell^k} the k digit planes of each side are
multiplied (as one Kronecker-packed product when the packed entries fit in
53 bits, else plane by plane), degrees 2k-2 .. k of the digit convolution
are reduced by the field modulus, and the digits are taken mod ell.  Every
convolution coefficient is at most k * inner_dim * (ell-1)^2, which the
kernel asserts is below 2^53, so no float64 sum rounds.  Extension-field
products below about 512 k^2 multiply-adds, and all other operations, use
the field's elementwise add_arr and mul_arr, which index its O(Q) tables
with the intp index arrays directly.  Row reduction, kernels, characteristic
polynomials (via Hessenberg form) and polynomial evaluation are enough for
the whole matrix model.
"""

from __future__ import annotations

import numpy as np

from . import _poly

# float64 holds every integer below 2**53 exactly
_EXACT_BITS = 53
# Extension-field products of at most this many multiply-adds per k^2 gather
# the whole product cube from the tables.  On a 2-vCPU x86-64 machine with
# single-threaded OpenBLAS 0.3.31, the BLAS route overtook the gather near
# 430 k^2 (square n = 12 for k = 2, n = 20 for k = 4).
_GATHER_PER_K2 = 512


def _mod(x, ell):
    """Least non-negative residues of an integer array (numpy's floor
    division by a scalar is faster than its remainder on large arrays)."""
    return x - ell * (x // ell)


def _digit_planes(field, a):
    """The k base-ell digits of an index array, lowest first, as float64."""
    planes = []
    for _ in range(field.k - 1):
        q = a // field.ell
        planes.append((a - field.ell * q).astype(np.float64))
        a = q
    planes.append(a.astype(np.float64))
    return planes


def _blas_product(field, A, B):
    """Index matrix of A @ B from exact float64 products of digits."""
    ell, k = field.ell, field.k
    # a coefficient of the digit convolution sums at most k plane products,
    # each entry of which is at most inner * (ell-1)^2
    top = k * A.shape[1] * (ell - 1) ** 2
    assert top < 2 ** _EXACT_BITS, "digit products would round in float64"
    if k == 1:
        prod = A.astype(np.float64) @ B.astype(np.float64)
        return _mod(prod.astype(np.int64), ell).astype(np.intp)
    pa, pb = _digit_planes(field, A), _digit_planes(field, B)
    bits = top.bit_length()
    if bits * (2 * k - 1) <= _EXACT_BITS:
        # Kronecker substitution at X = 2^bits > top: the product of the
        # packed matrices holds the 2k-1 convolution coefficients as base-X
        # digits, and every partial sum stays below X^(2k-1) <= 2^53
        X = float(1 << bits)
        packed = []
        for planes in (pa, pb):
            acc = planes[-1]
            for p in reversed(planes[:-1]):
                acc = acc * X + p
            packed.append(acc)
        prod = (packed[0] @ packed[1]).astype(np.int64)
        mask = (1 << bits) - 1
        conv = [(prod >> (bits * s)) & mask for s in range(2 * k - 2)]
        conv.append(prod >> (bits * (2 * k - 2)))
    else:
        conv = [0] * (2 * k - 1)
        for d, x in enumerate(pa):
            for e, y in enumerate(pb):
                conv[d + e] = conv[d + e] + x @ y
        conv = [c.astype(np.int64) for c in conv]
    # x^k = -(m_0 + m_1 x + ... + m_{k-1} x^{k-1})
    for s in range(2 * k - 2, k - 1, -1):
        c = _mod(conv[s], ell)
        for t, mt in enumerate(field.modulus[:k]):
            if mt:
                conv[s - k + t] = conv[s - k + t] - mt * c
    out = _mod(conv[k - 1], ell)
    for d in range(k - 2, -1, -1):
        out = out * ell + _mod(conv[d], ell)
    return out.astype(np.intp)


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
        a = np.zeros((n, n), dtype=np.intp)
        np.fill_diagonal(a, 1)
        return cls(field, a)

    @classmethod
    def diag(cls, field, idx_values):
        n = len(idx_values)
        a = np.zeros((n, n), dtype=np.intp)
        for i, v in enumerate(idx_values):
            a[i, i] = v
        return cls(field, a)

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

    def copy(self):
        return FMat(self.field, self.a.copy())

    def is_zero(self):
        return not self.a.any()

    def is_diagonal(self):
        off = self.a.copy()
        np.fill_diagonal(off, 0)
        return not off.any()

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
        A, B = self.a, other.a
        if F.k > 1 and n * inner * m <= _GATHER_PER_K2 * F.k * F.k:
            # one gather for the whole product cube, then a tree reduction
            # along the contracted axis
            P = F.mul_arr(A[:, :, None], B[None, :, :])
            while P.shape[1] > 1:
                h = P.shape[1] // 2
                Q = F.add_arr(P[:, 0:2 * h:2, :], P[:, 1:2 * h:2, :])
                if P.shape[1] & 1:
                    Q = np.concatenate([Q, P[:, -1:, :]], axis=1)
                P = Q
            return FMat(F, P[:, 0, :])
        return FMat(F, _blas_product(F, A, B))

    def kron(self, other):
        F = self.field
        n1, m1 = self.a.shape
        n2, m2 = other.a.shape
        out = F.mul_arr(self.a[:, None, :, None], other.a[None, :, None, :])
        return FMat(F, out.reshape(n1 * n2, m1 * m2))

    @property
    def T(self):
        return FMat(self.field, self.a.T.copy())

    def power(self, e):
        """self^e by binary powering, with no product by the identity and no
        squaring past the top bit of e."""
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        if e == 0:
            return FMat.identity(self.field, self.nrows)
        acc, base = None, self
        while True:
            if e & 1:
                acc = base if acc is None else acc @ base
            e >>= 1
            if not e:
                return acc
            base = base @ base

    # -- elimination ----------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        F = self.field
        R = self.a.copy()
        n, m = R.shape
        pivots = []
        r = 0
        for c in range(m):
            if r == n:
                break
            nz = np.nonzero(R[r:, c])[0]
            if nz.size == 0:
                continue
            p = r + nz[0]
            if p != r:
                R[[r, p]] = R[[p, r]]
            inv = F.inv_idx(int(R[r, c]))
            R[r] = F.mul_arr(R[r], inv)
            col = R[:, c].copy()
            col[r] = 0
            rows = np.nonzero(col)[0]
            if rows.size:
                R[rows] = F.add_arr(R[rows], F.mul_arr(F.np_neg[col[rows]][:, None],
                                                       R[r][None, :]))
            pivots.append(c)
            r += 1
        return FMat(F, R), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Columns form a basis of the right kernel."""
        R, pivots = self.rref()
        free = np.setdiff1d(np.arange(self.ncols), pivots)
        out = np.zeros((self.ncols, free.size), dtype=np.intp)
        out[free, np.arange(free.size)] = 1
        out[pivots] = self.field.np_neg[R.a[:len(pivots), free]]
        return FMat(self.field, out)

    def column_space_basis(self):
        """Columns of self forming a basis of the column space."""
        _, pivots = self.rref()
        return FMat(self.field, self.a[:, pivots].copy()
                    if pivots else np.zeros((self.nrows, 0), dtype=np.intp))

    def inverse(self):
        F = self.field
        n = self.nrows
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
        if pivots[:w] != list(range(w)) or len([p for p in pivots if p < w]) != w:
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
