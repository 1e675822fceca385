"""The polynomial layer against reference definitions: the earlier
one-step-per-copy division and evaluate-then-divide root search are kept
here and must agree with `_poly` on seeded random polynomials and on
products of linear factors, over prime-power fields of characteristic 2,
3 and 5."""

import random

import pytest

from modwd import _poly
from modwd.field import finite_field

FIELDS = [(2, 2), (3, 2), (5, 2), (3, 3)]


def ref_pdivmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = F.inv_idx(g[-1])
    while len(f) >= len(g) and _poly.pnorm(f):
        f = _poly.pnorm(f)
        if len(f) < len(g):
            break
        s = F.mul_idx(f[-1], inv_lead)
        d = len(f) - len(g)
        q[d] = s
        for i, c in enumerate(g):
            f[d + i] = F.sub_idx(f[d + i], F.mul_idx(s, c))
        f = f[:-1]
    return _poly.pnorm(q), _poly.pnorm(f)


def ref_roots(F, f):
    f = _poly.pmonic(F, f)
    out = []
    for x in range(F.order):
        if _poly.pdeg(f) <= 0:
            break
        if _poly.peval(F, f, x) == 0:
            mult = 0
            lin = [F.neg_idx(x), 1]
            while True:
                q, r = ref_pdivmod(F, f, lin)
                if r:
                    break
                f = q
                mult += 1
            out.append((x, mult))
    return out, _poly.pdeg(f)


def ref_radical(F, f):
    """The radical by the same recursion as `_poly.radical`, on the
    reference division."""
    f = _poly.pmonic(F, f)
    if _poly.pdeg(f) <= 0:
        return [1]
    fp = _poly.pderiv(F, f)
    if not fp:
        return ref_radical(F, _poly.pth_root(F, f))

    def gcd(a, b):
        while b:
            a, b = b, ref_pdivmod(F, a, b)[1]
        return _poly.pmonic(F, a)

    g = gcd(f, fp)
    w = ref_pdivmod(F, f, g)[0]
    r = ref_radical(F, g) if _poly.pdeg(g) >= 1 else [1]
    d = gcd(r, w)
    while _poly.pdeg(d) >= 1:
        r = ref_pdivmod(F, r, d)[0]
        d = gcd(r, w)
    return _poly.pmonic(F, _poly.pmul(F, w, r))


def rand_poly(F, deg, rng):
    return [rng.randrange(F.order) for _ in range(deg)] + [rng.randrange(1, F.order)]


def linear_product(F, rng, count):
    """A product of `count` monic linear factors, roots drawn with repeats."""
    f, roots = [1], {}
    for _ in range(count):
        x = rng.randrange(min(F.order, 5))
        f = _poly.pmul(F, f, [F.neg_idx(x), 1])
        roots[x] = roots.get(x, 0) + 1
    return f, sorted(roots.items())


def cases(F, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(60):
        f = rand_poly(F, rng.randrange(0, 14), rng)
        lin, _ = linear_product(F, rng, rng.randrange(0, 9))
        # a trailing zero and the zero polynomial: division tolerates both
        out += [f, lin, _poly.pmul(F, f, lin), f + [0]]
    return out + [[]]


@pytest.mark.parametrize("ell,k", FIELDS)
def test_pdivmod_matches_reference(ell, k):
    F = finite_field(ell, k)
    rng = random.Random(f"div:{ell}:{k}")
    for f in cases(F, f"f:{ell}:{k}"):
        for _ in range(3):
            g = rand_poly(F, rng.randrange(0, 7), rng)
            q, r = _poly.pdivmod(F, f, g)
            assert (q, r) == ref_pdivmod(F, f, g)
            assert len(r) < len(g)
            assert _poly.padd(F, _poly.pmul(F, q, g), r) == _poly.pnorm(f)
    with pytest.raises(ZeroDivisionError):
        _poly.pdivmod(F, [1, 1], [])


@pytest.mark.parametrize("ell,k", FIELDS)
def test_roots_match_reference(ell, k):
    F = finite_field(ell, k)
    for f in cases(F, f"roots:{ell}:{k}"):
        if f != _poly.pnorm(f):
            continue
        assert _poly.roots_with_multiplicity(F, f) == ref_roots(F, f)


@pytest.mark.parametrize("ell,k", FIELDS)
def test_roots_of_linear_products(ell, k):
    F = finite_field(ell, k)
    rng = random.Random(f"lin:{ell}:{k}")
    # an irreducible quadratic factor leaves remainder degree 2
    quad = next(g for g in ([c0, c1, 1] for c0 in range(F.order)
                            for c1 in range(F.order))
                if _poly.roots_with_multiplicity(F, g)[1] == 2)
    for count in range(0, 13):
        f, roots = linear_product(F, rng, count)
        assert _poly.roots_with_multiplicity(F, f) == (roots, 0)
        assert _poly.roots_with_multiplicity(F, _poly.pmul(F, f, quad)) == (roots, 2)


@pytest.mark.parametrize("ell,k", FIELDS)
def test_radical_matches_reference(ell, k):
    F = finite_field(ell, k)
    for f in cases(F, f"rad:{ell}:{k}"):
        if not f or f != _poly.pnorm(f):
            continue
        rad = _poly.radical(F, f)
        assert rad == ref_radical(F, f)
        # squarefree, and divides f
        assert _poly.pdeg(_poly.pgcd(F, rad, _poly.pderiv(F, rad))) <= 0
        assert _poly.pdivmod(F, f, rad)[1] == []
    rng = random.Random(f"radlin:{ell}:{k}")
    for count in range(1, 10):
        f, roots = linear_product(F, rng, count)
        expect = [1]
        for x, _ in roots:
            expect = _poly.pmul(F, expect, [F.neg_idx(x), 1])
        assert _poly.radical(F, f) == expect


@pytest.mark.parametrize("ell,k", [(2, 1), (5, 1), (3, 2)])
def test_ppow_mod_matches_repeated_products(ell, k):
    F = finite_field(ell, k)
    rng = random.Random(f"pow:{ell}:{k}")
    for _ in range(40):
        m = rand_poly(F, rng.randrange(0, 7), rng)
        f = rand_poly(F, rng.randrange(0, 10), rng)
        acc = _poly.pmod(F, [1], m)
        for e in range(30):
            assert _poly.ppow_mod(F, f, e, m) == acc, (f, e, m)
            acc = _poly.pmod(F, _poly.pmul(F, acc, f), m)
