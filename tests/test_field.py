import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from modwd import make_ctx, mult_order
from modwd.errors import (NeedsLargerField, NonPrime, QDivisibleByEll,
                          ZeroElement)
from modwd.field import check_field_order, finite_field


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
