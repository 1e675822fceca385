"""Coefficient-list polynomial arithmetic over a FiniteField.

Polynomials are little-endian lists of element indices with no trailing
zeros ([] is the zero polynomial).  This is the one F_ell[x] arithmetic of
the package: field.py searches the field modulus with it over the prime
field, _linalg builds characteristic polynomials, the matrix model takes
roots, gcds, quotients and radicals and embeds one field in a larger one,
and laurent expands local factors to print them and to compare them with
the matrix route.
"""


def pnorm(f):
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def pdeg(f):
    return len(f) - 1


def padd(F, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add_idx(out[i], c)
    return pnorm(out)


def pneg(F, f):
    return [F.neg_idx(c) for c in f]


def psub(F, f, g):
    return padd(F, f, pneg(F, g))


def pscale(F, f, s):
    if s == 0:
        return []
    return [F.mul_idx(c, s) for c in f]


def pmul(F, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = F.add_idx(out[i + j], F.mul_idx(a, b))
    return pnorm(out)


def pdivmod(F, f, g):
    """(q, r) with f = q g + r, deg r < deg g, in one schoolbook pass."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r, dg = list(f), len(g) - 1
    inv_lead = F.inv_idx(g[-1])
    q = [0] * max(0, len(r) - dg)
    for d in range(len(q) - 1, -1, -1):
        if r[d + dg]:
            s = q[d] = F.mul_idx(r[d + dg], inv_lead)
            for i in range(dg):
                r[d + i] = F.sub_idx(r[d + i], F.mul_idx(s, g[i]))
    return pnorm(q), pnorm(r[:dg])


def pmod(F, f, g):
    return pdivmod(F, f, g)[1]


def ppow_mod(F, f, e, m):
    """f^e mod m, by binary powering."""
    acc, base = pmod(F, [1], m), pmod(F, f, m)
    while e:
        if e & 1:
            acc = pmod(F, pmul(F, acc, base), m)
        base = pmod(F, pmul(F, base, base), m)
        e >>= 1
    return acc


def pmonic(F, f):
    if not f:
        return f
    return pscale(F, f, F.inv_idx(f[-1]))


def pgcd(F, f, g):
    while g:
        f, g = g, pmod(F, f, g)
    return pmonic(F, f)


def pderiv(F, f):
    out = []
    for i in range(1, len(f)):
        c = f[i]
        out.append(F.mul_idx(c, F.from_int_idx(i)))
    return pnorm(out)


def peval(F, f, x):
    acc = 0
    for c in reversed(f):
        acc = F.add_idx(F.mul_idx(acc, x), c)
    return acc


def pth_root(F, f):
    """Inverse Frobenius on coefficients of f(x) = g(x^p); returns g."""
    p = F.ell
    out = []
    for i in range(0, len(f), p):
        out.append(F.pth_root_idx(f[i]))
    return pnorm(out)


def radical(F, f):
    """Product of the distinct monic irreducible factors of f (char-p safe)."""
    f = pmonic(F, f)
    if pdeg(f) <= 0:
        return [1]
    fp = pderiv(F, f)
    if not fp:
        return radical(F, pth_root(F, f))
    g = pgcd(F, f, fp)
    w = pdivmod(F, f, g)[0]
    # w carries the factors with multiplicity prime to p; the rest sit in g
    r = radical(F, g) if pdeg(g) >= 1 else [1]
    d = pgcd(F, r, w)
    while pdeg(d) >= 1:
        r = pdivmod(F, r, d)[0]
        d = pgcd(F, r, w)
    return pmonic(F, pmul(F, w, r))


def _deflate(F, f, x):
    """(q, f(x)) with f = (X - x) q + f(x), by synthetic division."""
    q, acc = [0] * (len(f) - 1), 0
    for k in range(len(f) - 1, 0, -1):
        acc = q[k - 1] = F.add_idx(F.mul_idx(acc, x), f[k])
    return q, F.add_idx(F.mul_idx(acc, x), f[0])


def roots_with_multiplicity(F, f):
    """All roots of f in F with multiplicities, by deflation: the remainder
    of each synthetic division by X - x is f(x).

    Returns (roots, remainder_degree): remainder_degree > 0 signals
    irreducible factors of degree >= 2 (roots outside the field).
    """
    f = pmonic(F, f)
    out = []
    for x in range(F.order):
        mult = 0
        while pdeg(f) > 0:
            q, fx = _deflate(F, f, x)
            if fx:
                break
            f, mult = q, mult + 1
        if mult:
            out.append((x, mult))
        if pdeg(f) <= 0:
            break
    return out, pdeg(f)
