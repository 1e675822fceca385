import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modwd import (_linalg, deligne, field, make_ctx, matrixmodel, mult_order,
                   weil)
from modwd._linalg import FMat
from modwd.errors import (NeedsLargerField, NonPrime, QDivisibleByEll,
                          ZeroElement)
from modwd.field import FiniteField, check_field_order, finite_field

SMALL_FIELDS = [(ell, k) for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                     37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)
                for k in range(1, 7) if ell ** k <= 81]


def brute_order(x):
    # independent oracle: direct powering
    acc = x
    n = 1
    while acc != x.field.one:
        acc = acc * x
        n += 1
        assert n <= x.field.order
    return n


def test_make_ctx_examples():
    ctx = make_ctx(5, 2, 1)
    assert ctx.q_img == ctx.field.from_int(2) and ctx.o_nu == 4
    assert brute_order(ctx.q_img) == 4
    ctx = make_ctx(3, 4, 1)
    assert ctx.q_img == ctx.field.one and ctx.o_nu == 1
    ctx = make_ctx(2, 3, 1)
    assert ctx.q_img == ctx.field.one and ctx.o_nu == 1


def test_elements_never_equal_ints():
    # an int equal modulo ell cannot share the int's hash, so elements
    # compare unequal to every int, and eq agrees with set membership
    for F in (make_ctx(5, 2).field, make_ctx(3, 2, 1).field):
        for x in F.elements():
            for n in range(-1, 6):
                assert x != n and not x == n
                assert x not in {n}
        assert F.one == F.from_int(1) and F.one in {F.from_int(1)}


def test_make_ctx_errors():
    with pytest.raises(NonPrime):
        make_ctx(6, 5)
    with pytest.raises(QDivisibleByEll):
        make_ctx(5, 10)


def test_field_order_guard():
    # F(5^8), which the oracle's field doubling could ask for from F(5^2),
    # is refused before anything proportional to its order is allocated
    tracemalloc.start()
    try:
        with pytest.raises(NeedsLargerField):
            make_ctx(5, 2, 8)
        with pytest.raises(NeedsLargerField):
            finite_field(5, 8)
        with pytest.raises(NeedsLargerField):
            make_ctx(2, 3, 10 ** 9)
        with pytest.raises(NeedsLargerField):  # refused before trial division
            make_ctx(2 ** 61 - 1, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    check_field_order(3, 6)  # F(3^6) = 729 stays supported
    check_field_order(2, 12)
    with pytest.raises(NeedsLargerField):
        check_field_order(3, 8)


def test_sqrt_and_determinism():
    for ell, q in [(5, 2), (3, 2), (2, 3), (3, 4), (7, 3)]:
        ctx = make_ctx(ell, q)
        assert ctx.sqrt_q ** 2 == ctx.q_img
        again = make_ctx(ell, q)
        assert again == ctx
        assert again.field.modulus == ctx.field.modulus
        assert again.field.exp == ctx.field.exp
        assert ctx.o_nu == brute_order(ctx.q_img)
        assert (ell - 1) % ctx.o_nu == 0


def test_mult_order_examples():
    F5 = finite_field(5, 1)
    assert mult_order(F5.one) == 1
    assert mult_order(F5.from_int(2)) == 4 == brute_order(F5.from_int(2))
    assert mult_order(F5.from_int(4)) == 2 == brute_order(F5.from_int(4))
    with pytest.raises(ZeroElement):
        mult_order(F5.zero)


def test_order_matches_brute_everywhere():
    for ell, k in [(2, 2), (3, 2), (5, 1)]:
        F = finite_field(ell, k)
        for x in F.elements():
            if not x.is_zero():
                assert mult_order(x) == brute_order(x)


@settings(max_examples=60)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(i, j, k):
    F = finite_field(5, 2)
    a, b, c = F.elem(i), F.elem(j), F.elem(k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == F.one


@settings(max_examples=40)
@given(st.integers(0, 8), st.integers(0, 8))
def test_field_axioms_f9(i, j):
    F = finite_field(3, 2)
    a, b = F.elem(i), F.elem(j)
    assert a - b == -(b - a)
    assert (a - b) + b == a


def test_element_text_form():
    F = finite_field(5, 2)
    assert repr(F.from_coeffs([2, 3])) == "[2,3]@F(5^2)"
    assert repr(finite_field(2, 1).one) == "[1]@F(2^1)"


def test_modulus_is_least_irreducible():
    # over F_5 the candidates of degree 2 are ordered by c0 + 5 c1;
    # x^2, x^2+1 are reducible, x^2+2 is not
    assert finite_field(5, 2).modulus == (2, 0, 1)
    # over F_2: x^2, x^2+1 reducible; x^2+x reducible; x^2+x+1 irreducible
    assert finite_field(2, 2).modulus == (1, 1, 1)


def has_small_factor(m, ell):
    """Whether the monic m (little-endian residues) has a monic factor of
    degree 1 .. deg(m) // 2, by trial division with every such factor."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for enc in range(ell ** d):
            g = [enc // ell ** i % ell for i in range(d)] + [1]
            r = list(m)
            for top in range(k, d - 1, -1):
                c = r[top]
                for i in range(d + 1):
                    r[top - d + i] = (r[top - d + i] - c * g[i]) % ell
            if not any(r):
                return True
    return False


def test_modulus_against_trial_division():
    for ell in range(2, 257):
        if not all(ell % p for p in range(2, ell)):
            continue
        for k in range(1, 9):
            if ell ** k > 256:
                break
            m = list(FiniteField(ell, k).modulus)
            assert len(m) == k + 1 and m[-1] == 1
            assert not has_small_factor(m, ell), (ell, k)
            # every earlier candidate in the order c_0 + c_1 ell + ...
            enc = sum(c * ell ** i for i, c in enumerate(m[:k]))
            for smaller in range(enc):
                cand = [smaller // ell ** i % ell for i in range(k)] + [1]
                assert has_small_factor(cand, ell), (ell, k, cand)


def check_scalar_ops(F, pairs):
    # references: digit-wise addition mod ell and schoolbook multiplication
    # reduced by the modulus
    for i, j in pairs:
        di, dj = F.digits(i), F.digits(j)
        assert F.add_idx(i, j) == F._enc([x + y for x, y in zip(di, dj)])
        assert F.sub_idx(i, j) == F._enc([x - y for x, y in zip(di, dj)])
        assert F.mul_idx(i, j) == F._raw_mul(i, j)


@pytest.mark.parametrize("ell,k", SMALL_FIELDS)
def test_tables_every_pair(ell, k):
    F = FiniteField(ell, k)
    Q = F.order
    check_scalar_ops(F, itertools.product(range(Q), repeat=2))
    for i in range(1, Q):
        assert F.mul_idx(i, F.inv_idx(i)) == 1
    x, y = np.arange(Q)[:, None], np.arange(Q)[None, :]
    assert F.add_arr(x, y).tolist() == [[F.add_idx(i, j) for j in range(Q)]
                                        for i in range(Q)]
    assert F.mul_arr(x, y).tolist() == [[F.mul_idx(i, j) for j in range(Q)]
                                        for i in range(Q)]


@pytest.mark.parametrize("ell,k", [(3, 6), (2, 12)])
def test_tables_sampled_pairs(ell, k):
    F = FiniteField(ell, k)
    rng = random.Random(F.order)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order))
             for _ in range(2000)]
    check_scalar_ops(F, pairs)
    x, y = np.array(pairs).T
    assert F.add_arr(x, y).tolist() == [F.add_idx(i, j) for i, j in pairs]
    assert F.mul_arr(x, y).tolist() == [F.mul_idx(i, j) for i, j in pairs]


def peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_table_memory():
    # the bounds sit far below what Q x Q add/mul tables take: 14.7 MiB to
    # build F(3^6), 448 MiB for these operations over F(2^12)
    assert peak_mib(lambda: FiniteField(3, 6)) < 4

    def ops():
        F = FiniteField(2, 12)
        rng = random.Random(12)
        A, B = (FMat(F, [[rng.randrange(F.order) for _ in range(8)]
                         for _ in range(8)]) for _ in range(2))
        return A + B, A @ B, A.rank(), A.kron(B), A.scale(F.gen_idx)

    assert peak_mib(ops) < 64


def test_caches_are_bounded():
    for fn in (field.finite_field, weil._line_of_char, deligne.interval_profile,
               deligne._tensor_indec_cached, matrixmodel._embedding,
               _linalg._regular_tables, _linalg._wide_tables):
        assert fn.cache_info().maxsize is not None
