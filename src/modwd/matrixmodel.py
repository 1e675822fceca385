"""Concrete matrix realizations of unramified-line classes.

A MatrixDeligne is a pair (F, U) over the context field with UF = qFU,
F invertible and semisimple (inertia acts trivially, so F determines the
Weil action).  realize() lays out the normal-form blocks of each part,
built once per (part, context) by _part_blocks and cached read-only;
decompose() is the inverse.  It splits by Frobenius eigenvalue orbits
(walked in discrete-log space) and reads the classes off ranks alone:
segment multiplicities off the ranks of the path maps between eigenspace
slices, and cycle lengths off the ranks of powers of the nilpotent part
of the holonomy H0 around each orbit.  The path maps M_j from slice 0
also find the cycle summands, since M_(j+o) = M_j H0: where the images
of the powers of H0 stop shrinking, the last M_j has rank b, the
dimension of their slice-0 part, and its pivot columns are a basis B0 of
that part.  A path map into an empty slice has rank 0, so a chain stops
there without a product.  semisimplify() takes the Jordan-Holder
multiset of that decomposition.  oracle_tensor_ss() decomposes the
tensor of each pair of cached part blocks, one factor's operator scaled
by a generic ratio, and sums them; sharing no code with
deligne.tensor_ss, it checks every formal tensor rule through matrices.

decompose() and validate() read each property of a non-diagonal F off its
minimal polynomial m_F: invertible iff m_F(0) != 0, semisimple iff m_F is
squarefree, eigenvalues in the field iff m_F splits; _spectral_basis
builds the spectral projectors as the Lagrange polynomials of m_F at F.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _poly
from ._linalg import FMat, matmul, pivot_columns
from .deligne import (Cyc, DeligneClass, Seg, cyc, merge, normalize,
                      zero_class)
from .errors import (FNotInvertible, NeedsLargerField, NotSemisimple,
                     RamifiedLine, RelationViolated)
from .field import check_dim, check_field_order, finite_field, make_ctx
from .weil import UnramifiedChar, line_of


@dataclass
class MatrixDeligne:
    F: FMat
    U: FMat

    @property
    def dim(self):
        return self.F.nrows


def validate(m: MatrixDeligne, ctx) -> bool:
    """Check the Deligne relation UF = qFU, invertibility and
    semisimplicity of F (its minimal polynomial is squarefree, whether or
    not it splits).  Raises on violation, returns True when ok."""
    _checked_min_poly(m, ctx)
    return True


def _checked_min_poly(m: MatrixDeligne, ctx):
    """The relation, invertibility and semisimplicity checks; returns
    _min_poly(F) for the caller to reuse, or None when F is diagonal (and
    so already semisimple).  F is singular iff m_F(0) = 0."""
    F, U = m.F, m.U
    if F.nrows != F.ncols or U.a.shape != F.a.shape:
        raise ValueError("F and U must be square of equal size")
    if F.is_diagonal():
        # F = diag(f), so UF = qFU reads U_ij f_j = q f_i U_ij entrywise
        f, mul = np.diagonal(F.a), F.field.mul_arr
        if not np.array_equal(mul(U.a, f[None, :]),
                              mul(mul(U.a, f[:, None]), ctx.q_img.i)):
            raise RelationViolated("UF != qFU")
        if not f.all():
            raise FNotInvertible("zero Frobenius eigenvalue")
        return None
    field = F.field
    if not np.array_equal(matmul(field, U.a, F.a), field.mul_arr(matmul(
            field, F.a, U.a), ctx.q_img.i)):
        raise RelationViolated("UF != qFU")
    mf, powers = _min_poly(F)
    if mf[0] == 0:
        raise FNotInvertible("Frobenius matrix is singular")
    _require_squarefree(field, mf)
    return mf, powers


def _require_squarefree(field, mf):
    # over a finite field, a perfect field, m_F is squarefree iff it is
    # prime to m_F'
    if _poly.pdeg(_poly.pgcd(field, mf, _poly.pderiv(field, mf))) > 0:
        raise NotSemisimple("Frobenius matrix is not semisimple")


def _min_poly(F: FMat):
    """(m_F, S): the minimal polynomial of a square F, n >= 1 (monic,
    little-endian), and the n^2 x deg m_F matrix S of the flattened F^0,
    F^1, ....  m_F is the first linear dependency among the powers: each
    one, flattened and followed by its coordinates in the powers, is
    reduced by one product against the rows of W, the earlier reduced
    powers, each with 1 at its own pivot and 0 at the others' pivots."""
    field = F.field
    n = F.nrows
    nn = n * n
    powers, pivots = [np.eye(n, dtype=np.intp).ravel()], []
    W = np.zeros((0, nn + n + 1), dtype=np.intp)
    for d in range(n + 1):
        v = np.zeros(nn + n + 1, dtype=np.intp)
        v[:nn], v[nn + d] = powers[d], 1
        v = field.add_arr(v, matmul(field, field.np_neg[v[pivots]][None, :],
                                    W)[0])
        nz = np.flatnonzero(v[:nn])
        if not nz.size:
            return v[nn:nn + d + 1].tolist(), np.stack(powers[:d], axis=1)
        p = nz[0]
        v = field.mul_arr(v, field.inv_idx(int(v[p])))
        W = np.vstack([field.add_arr(W, field.mul_arr(
            field.np_neg[W[:, p]][:, None], v[None, :])), v])
        pivots.append(p)
        M = matmul(field, M, F.a) if d else F.a
        powers.append(M.ravel())
    raise RuntimeError("no dependency among the first n + 1 powers")


# -- realization ----------------------------------------------------------------

# the (5,2) population of dim <= 12 has 51 distinct parts
@functools.lru_cache(maxsize=256)
def _part_blocks(ind, ctx) -> MatrixDeligne:
    """The read-only (F, U) blocks of one indecomposable, built once.

    Seg(chi_t, r, a): F = diag(t q^-(a+j)), U the lower shift N.
    Cyc(Z_chi, r): F = diag(q^-i) (x) diag(t q^-k), U = Id (x) C + N (x) Id
    with C the full cycle of holonomy 1 (the two terms share no entry).
    """
    nu, r = ctx.nu_value, ind.r
    base = ind.irr if isinstance(ind, Seg) else ind.line.base
    if not isinstance(base, UnramifiedChar):
        raise RamifiedLine(f"cannot realize {ind!r}")
    shift = np.eye(r, k=-1, dtype=np.intp)
    if isinstance(ind, Seg):
        f, u = [(base.t * nu(ind.a + j)).i for j in range(r)], shift
    else:
        o = ind.line.order
        f = [(nu(i) * (base.t * nu(k))).i for i in range(r) for k in range(o)]
        cycle = np.roll(np.eye(o, dtype=np.intp), 1, axis=0)
        u = (np.kron(np.eye(r, dtype=np.intp), cycle)
             + np.kron(shift, np.eye(o, dtype=np.intp)))
    m = MatrixDeligne(FMat.diag(ctx.field, f), FMat(ctx.field, u))
    m.F.a.flags.writeable = m.U.a.flags.writeable = False
    return m


def realize(a: DeligneClass, ctx) -> MatrixDeligne:
    """Block-diagonal matrix pair for a class supported on unramified
    lines: the blocks of each part (_part_blocks), once per multiplicity."""
    check_dim(a.dim(), "the realization")
    field = ctx.field
    blocks = [_part_blocks(ind, ctx) for ind, mult in a.parts
              for _ in range(mult)]
    return MatrixDeligne(FMat.block_diag(field, [m.F for m in blocks]),
                         FMat.block_diag(field, [m.U for m in blocks]))


def raw_tensor(m1: MatrixDeligne, m2: MatrixDeligne) -> MatrixDeligne:
    """(F1 (x) F2, U1 (x) Id + Id (x) U2); the relation holds automatically.
    U[i, k, j, l] = U1[i, j] [k = l] + [i = j] U2[k, l]: the first term is
    copied in, the second added in the field where i = j (U1 has diagonal
    entries at o = 1), so the identities cost no field products."""
    field = m1.F.field
    n1, n2 = m1.dim, m2.dim
    U = np.zeros((n1, n2, n1, n2), dtype=np.intp)
    d1, d2 = np.arange(n1), np.arange(n2)
    U[:, d2, :, d2] = m1.U.a
    U[d1, :, d1, :] = field.add_arr(U[d1, :, d1, :], m2.U.a)
    return MatrixDeligne(m1.F.kron(m2.F),
                         FMat(field, U.reshape(n1 * n2, n1 * n2)))


def matrix_dual(m: MatrixDeligne) -> MatrixDeligne:
    """(F, U) -> ((F^-1)^T, -U^T): the contragredient in the dual basis.
    UF = qFU gives F^-1 U = q U F^-1, whose transpose is U'F' = qF'U' for
    F' = (F^-1)^T and U' = -U^T.  The sign is the contragredient's; it
    does not change the class, which does not see a rescaled operator."""
    return MatrixDeligne(m.F.inverse().T, (-m.U).T)


# -- decomposition ----------------------------------------------------------------

def _adapted(m: MatrixDeligne, ctx, mp=None):
    """(ranges, G): ranges maps each Frobenius eigenvalue index to the
    (lo, hi) column range of its eigenspace, and G is U in that adapted
    basis, an index array.  A diagonal F only needs the permutation that
    sorts its diagonal; otherwise see _spectral_basis, which takes mp,
    _min_poly(F) when the caller has it and has checked it squarefree."""
    if m.F.is_diagonal():
        f = m.F.a.diagonal()
        perm = np.argsort(f, kind="stable")
        # run ends of the sorted diagonal, keyed in increasing order
        ranges, lo = {}, 0
        for v, hi in {v: i for i, v in enumerate(f[perm].tolist(), 1)}.items():
            ranges[v], lo = (lo, hi), hi
        return ranges, m.U.a.take(perm, 0).take(perm, 1)
    ranges, P, Pinv = _spectral_basis(m.F, mp)
    return ranges, matmul(m.F.field, matmul(m.F.field, Pinv, m.U.a), P)


def _spectral_basis(F: FMat, mp=None):
    """(ranges, P, Pinv) for a non-diagonal F: P is a basis of eigenvectors
    grouped by eigenvalue as in ranges, and Pinv its inverse (arrays).

    F is semisimple iff m_F is squarefree, and when m_F then splits with
    roots v, the Lagrange polynomial L_v = m_F / ((x - v) m_F'(v)) gives
    the projector E_v = L_v(F) onto the v-eigenspace along the others: all
    of them are one product of the powers F^0, ..., F^(s-1) by the
    coefficients.  rref gives E_v = C_v R_v with C_v the pivot columns of
    E_v and R_v the nonzero rows of its echelon form; E_v E_w = delta_vw
    E_v gives R_v C_w = delta_vw Id, so P = [C_v] and Pinv = [R_v]
    stacked.  A non-semisimple F raises NotSemisimple before an unsplit
    m_F raises NeedsLargerField.
    """
    field = F.field
    n = F.nrows
    if mp is None:
        mp = _min_poly(F)
        _require_squarefree(field, mp[0])
    mf, powers = mp
    roots, rem = _poly.roots_with_multiplicity(field, mf)
    if rem:
        raise NeedsLargerField("Frobenius eigenvalues lie outside the field")
    vals = sorted(v for v, _ in roots)
    L = np.zeros((len(vals), len(vals)), dtype=np.intp)
    for j, v in enumerate(vals):
        quo = _poly.pdivmod(field, mf, [field.neg_idx(v), 1])[0]
        L[:len(quo), j] = _poly.pscale(
            field, quo, field.inv_idx(_poly.peval(field, quo, v)))
    E = matmul(field, powers, L)
    cols, rows, ranges, lo = [], [], {}, 0
    for j, v in enumerate(vals):
        Ev = E[:, j].reshape(n, n)
        R, pivots = FMat(field, Ev).rref()
        cols.append(Ev[:, pivots])
        rows.append(R.a[:len(pivots)])
        ranges[v] = (lo, lo + len(pivots))
        lo += len(pivots)
    return ranges, np.hstack(cols), np.vstack(rows)


def _lines_of_values(vals, ctx, field):
    """Group eigenvalue indices into q-multiplication orbits; returns
    (canonical t0, orbit value at each twist c) per line, by log t0.  The
    orbit of L = log v is L + iS mod Q - 1 for S = log q; t0 = exp[L0] for
    its least L0, and twist c holds t0 q^-c = exp[(L0 - cS) mod Q - 1]."""
    exp, n, S, o = field.exp, field.order - 1, ctx.q_log, ctx.o_nu
    out, seen = [], set()
    for v in vals:
        L = field.log[v]
        if L in seen:
            continue
        orbit = [(L + i * S) % n for i in range(o)]
        seen.update(orbit)
        L0 = min(orbit)
        out.append((L0, [exp[(L0 - c * S) % n] for c in range(o)]))
    out.sort()
    return [(exp[L0], slice_vals) for L0, slice_vals in out]


def _path_ranks(field, steps, c, d, less, top):
    """Ranks, less `less`, of the products steps[c+j-1] @ ... @ steps[c] of
    index arrays (indices mod len(steps)) for j = 0 .. top + 1, the empty
    product being the identity of size d; zero from the first zero on."""
    out, M = [d - less], None
    while out[-1] and len(out) <= top + 1:
        step = steps[(c + len(out) - 1) % len(steps)]
        if not step.shape[0]:  # an empty slice, so less = b = 0: rank 0 on
            break
        M = step if M is None else matmul(field, step, M)
        out.append(len(pivot_columns(field, M)) - less)
    return out + [0] * (top + 2 - len(out))


def _slice0_chain(field, trans):
    """(ranks, H0, B0), index arrays in and out: the ranks of the slice-0
    path maps M_j = trans[j-1] @ ... @ trans[0] (indices mod o) for j = 0,
    1, ... up to the first zero or the first multiple j of o with rank M_j
    = rank M_(j-o); the holonomy H0 = M_o, when the chain reaches it; and
    the pivot columns B0 of the last M_j when its rank is not zero."""
    o = len(trans)
    ranks, M, H0, B0, j = [trans[0].shape[1]], None, None, None, 0
    while ranks[j] and (j < o or j % o or ranks[j] != ranks[j - o]):
        step = trans[j % o]
        j += 1
        if not step.shape[0]:  # an empty slice ends the chain at rank 0
            ranks.append(0)
            break
        M = step if M is None else matmul(field, step, M)
        if j == o:
            H0 = M
        pivots = pivot_columns(field, M)
        ranks.append(len(pivots))
    if ranks[j]:
        B0 = M[:, pivots]
    return ranks, H0, B0


def decompose(m: MatrixDeligne, ctx, check=True) -> DeligneClass:
    """The unique normalized class with realize(decompose(m)) equivalent
    to m.

    On the line of one Frobenius eigenvalue orbit, U maps each eigenspace
    slice into the next, so the transitions form a representation of the
    cyclic quiver on the o slices, a sum of segments and cycles.  Segment
    multiplicities are second differences of the ranks of path maps, and
    cycle lengths are second differences of the ranks of powers of the
    nilpotent part of the holonomy on the cycle summands.

    The slice-0 path maps M_j (j steps from slice 0) go first: M_(j+o) =
    M_j H0 for the holonomy H0 = M_o, so the images of the powers of H0
    shrink until the first multiple j of o with rank M_j = rank M_(j-o),
    and H0 is bijective on im M_j from there on: that image is the
    slice-0 part of the cycle summands, of dimension b.

    The transition blocks G[V_(v/q), V_v] are disjoint, so U only shifts
    eigenspaces iff they hold every nonzero entry of G.  The path chains
    run on index arrays: ranks by pivot_columns, products by matmul.
    """
    field = m.F.field
    mp = _checked_min_poly(m, ctx) if check else None
    ranges, G = _adapted(m, ctx, mp)
    o = ctx.o_nu
    lines, inside = [], 0
    for t0, slice_vals in _lines_of_values(ranges, ctx, field):
        spans = [ranges.get(v, (0, 0)) for v in slice_vals]
        trans = []
        for c in range(o):
            (lo, hi), (lo2, hi2) = spans[c], spans[(c + 1) % o]
            T = G[lo2:hi2, lo:hi]
            inside += np.count_nonzero(T)
            trans.append(T)
        lines.append((t0, trans))
    if inside != np.count_nonzero(G):
        raise RelationViolated("operator does not shift eigenspaces")
    out = []
    for t0, trans in lines:
        dims = [T.shape[1] for T in trans]
        ranks, H0, B0 = _slice0_chain(field, trans)
        b = ranks[-1]
        # every transition maps the cycle summands isomorphically, so they
        # add b to the rank of every path map, and b cancels in the second
        # differences
        jmax = sum(dims) - o * b
        R = [[r - b for r in ranks[:jmax + 2]]
             + [0] * (jmax + 2 - len(ranks))]
        R += [_path_ranks(field, trans, c, dims[c], b, jmax)
              for c in range(1, o)]
        base_char = UnramifiedChar(field.elem(t0))
        for c in range(o):
            for r in range(1, jmax + 1):
                mult = R[c][r - 1] - R[c - 1][r] - R[c][r] + R[c - 1][r + 1]
                if mult < 0:
                    raise RuntimeError("negative segment multiplicity")
                if mult:
                    out.append((Seg(base_char, r, c), mult))
        if not b:
            continue
        Hb = FMat(field, B0).solve_in_basis(FMat(field, matmul(field, H0, B0)))
        # over a finite field the radical of chi_Hb is separable, so on the
        # generalized eigenspace of each eigenvalue y it is (Hb - y) times
        # a unit commuting with Hb: its powers have the ranks of the powers
        # of the nilpotent part of Hb
        Nb = Hb.poly_eval(_poly.radical(field, Hb.charpoly()))
        rs = _path_ranks(field, [Nb.a], 0, b, 0, b)
        line = line_of(base_char, ctx)[0]
        for s in range(1, b + 1):
            mult = rs[s - 1] - 2 * rs[s] + rs[s + 1]
            if mult < 0:
                raise RuntimeError("negative cycle multiplicity")
            if mult:
                out.append((Cyc(line, s), mult))
    # slice-indexed parts on canonical bases are canonical
    cls = merge(out, ctx)
    if cls.dim() != m.dim:
        raise RuntimeError("decomposition lost dimension; input not in the model")
    return cls


def semisimplify(m: MatrixDeligne, ctx) -> DeligneClass:
    """Jordan-Holder multiset of irreducible Deligne subquotients, read off
    decompose(m): a segment of length r gives its r characters and a cycle
    of length r gives r copies of C(Z)."""
    out = []
    for ind, mult in decompose(m, ctx).parts:
        if isinstance(ind, Seg):
            out += [(Seg(ind.irr, 1, ind.a + i), mult) for i in range(ind.r)]
        else:
            out.append((Cyc(ind.line, 1), ind.r * mult))
    return normalize(out, ctx)


# -- the tensor oracle ------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _embedding(ell, k_small, k_big):
    """Index tables for the embedding F_{ell^k_small} -> F_{ell^k_big}
    sending x to the first root (in index order) of the small modulus."""
    small = finite_field(ell, k_small)
    big = finite_field(ell, k_big)
    # digits are residues mod ell, which index the prime field in big too
    roots, _ = _poly.roots_with_multiplicity(big, list(small.modulus))
    root = roots[0][0]
    table = [_poly.peval(big, small.digits(i), root)
             for i in range(small.order)]
    inverse = {v: i for i, v in enumerate(table)}
    return tuple(table), inverse


def _indec_spectrum(ind, ctx):
    """Distinct nonzero eigenvalues of the semisimple operator part of the
    realized indecomposable (empty for segments)."""
    if isinstance(ind, Seg):
        return ()
    return tuple(sorted({ctx.nu_value(-j).i for j in range(ind.line.order)}))


def _admissible_pair(field, conditions):
    """(lam, 1) for the first lam in discrete-log order with the lam a + b,
    a in SA and b in SB, nonzero and distinct for each condition (SA, SB);
    None when the field has none.  A class does not see a global rescale
    (matrix_dual), so only the ratio of the two scalings matters."""
    for lam in field.exp[:field.order - 1]:
        if all(len({field.add_idx(field.mul_idx(lam, a), b)
                    for a in SA for b in SB} - {0}) == len(SA) * len(SB)
               for SA, SB in conditions):
            return lam, 1
    return None


def oracle_tensor_ss(a: DeligneClass, b: DeligneClass) -> DeligneClass:
    """Realize each part, scale the operators of a's parts by lam for the
    admissible pair (lam, 1) and decompose the tensor of each pair of
    parts, m_i n_j times for parts of multiplicities m_i and n_j (tensor is
    bilinear over direct sums): the class tensor_ss must match.  With no
    admissible lam in the context field, the parts are embedded in an
    extension."""
    ctx = a.ctx
    if a.is_zero() or b.is_zero():
        return zero_class(ctx)
    conditions = []
    for A, _ in a.parts:
        for B, _ in b.parts:
            check_dim(A.dim(ctx) * B.dim(ctx), "a pair tensor")
            SA, SB = _indec_spectrum(A, ctx), _indec_spectrum(B, ctx)
            if SA and SB:
                conditions.append((SA, SB))
    pa, pb = ([(_part_blocks(ind, ctx), mult) for ind, mult in cls.parts]
              for cls in (a, b))
    work, table, inverse = ctx, None, None
    for _ in range(4):
        conds = conditions if table is None else [
            (tuple(table[x] for x in SA), tuple(table[x] for x in SB))
            for SA, SB in conditions]
        pair = _admissible_pair(work.field, conds)
        if pair is not None:
            break
        check_field_order(ctx.ell, 2 * work.k)
        nxt = make_ctx(ctx.ell, ctx.q_residue, 2 * work.k)
        table, inverse = _embedding(ctx.ell, ctx.k, nxt.k)
        work = nxt
    else:
        raise NeedsLargerField("no admissible scaling pair found")
    if table is not None:
        emb = np.array(table, dtype=np.intp)
        pa, pb = ([(MatrixDeligne(FMat(work.field, emb[m.F.a]),
                                  FMat(work.field, emb[m.U.a])), mult)
                   for m, mult in parts] for parts in (pa, pb))
    lam = pair[0]
    pa = [(MatrixDeligne(m.F, m.U.scale(lam)), mult) for m, mult in pa]
    out = []
    for ma, ka in pa:
        for mb, kb in pb:
            cls = decompose(raw_tensor(ma, mb), work, check=False)
            out += [(ind, mult * ka * kb) for ind, mult in cls.parts]
    if table is None:
        return merge(out, ctx)
    for i, (ind, mult) in enumerate(out):
        if isinstance(ind, Seg):
            t = inverse[ind.irr.t.i]
            out[i] = (Seg(UnramifiedChar(ctx.field.elem(t)), ind.r, ind.a), mult)
        else:
            t = inverse[ind.line.base.t.i]
            out[i] = (cyc(UnramifiedChar(ctx.field.elem(t)), ind.r, ctx), mult)
    return normalize(out, ctx)
