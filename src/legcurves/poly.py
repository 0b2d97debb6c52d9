"""Polynomials over a prime field Z/p, as bare integer coefficient
sequences: constant term first, the zero polynomial empty.

Everything here runs on the list kernel of `field` (`_ppowmod`, `_psub`,
`_pgcd`, `_pdivmod`): powers of x modulo f by repeated squaring, the
number of distinct roots in F_{p^k} as deg gcd(f, x^(p^k) - x), and the
split of a product of distinct irreducible quadratics into its factors.
Each function takes the coefficients and p; coefficients are read
modulo p and trailing zeros are ignored.

Includes the one special polynomial the package is built around: the
characteristic-p polynomial whose roots are exactly the supersingular
Legendre parameters (degree (p-1)/2, squared-binomial coefficients).
"""

from __future__ import annotations

from .field import _is_prime, _pdivmod, _pgcd, _ppowmod, _psub, _ptrim


def substitute_neg(coeffs, p):
    """f(-x): negate the odd-index coefficients."""
    return tuple(-c % p if i % 2 else c % p for i, c in enumerate(coeffs))


def _monic_mod(coeffs, p):
    """(m, x mod m), with m the monic associate of f, which has the same
    remainders and the same roots.  f must have degree >= 1."""
    m = _ptrim([c % p for c in coeffs])
    if len(m) < 2:
        raise ValueError("modulus must have degree at least 1")
    linv = pow(m[-1], p - 2, p)
    m = [c * linv % p for c in m]
    x = [0, 1] if len(m) > 2 else [-m[0] % p]   # x mod (x + m0)
    return m, x


def pow_x_mod(coeffs, p, e):
    """x**e mod f over Z/p, by repeated squaring (`field._ppowmod`)."""
    m, x = _monic_mod(coeffs, p)
    return _ppowmod(x, e, m, p)


def distinct_root_count(coeffs, p, order):
    """Number of distinct roots of f in the field with `order` elements
    (a power of p), counted as deg gcd(f, x**order - x) without
    materializing x**order."""
    f = _ptrim([c % p for c in coeffs])
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return 0
    m, x = _monic_mod(f, p)
    return len(_pgcd(m, _psub(_ppowmod(x, order, m, p), x, p), p)) - 1


# a try on a product of distinct irreducible quadratics fails to split
# with probability about 1/2 (below 0.51 for every odd p), so 64
# failures in a row (chance below 2^-62) mean it is no such product
_SPLIT_TRIES = 64


def _exact_div(a, b, p):
    """a / b over Z/p for a multiple a of b."""
    quot, rem = _pdivmod(a, b, p)
    if rem:
        raise RuntimeError(f"inexact division over F_{p}: remainder {rem}")
    return quot


def quadratic_factors(coeffs, p, roots, rng):
    """The monic quadratic factors [c, b, 1] of f over Z/p, once x - r
    is divided out for each r in `roots`.

    What is left must be a product of distinct irreducible quadratics.
    It is split by equal-degree factorization (Cantor-Zassenhaus): for
    a random a of degree below that of g, gcd(g, a^((p^2-1)/2) - 1)
    collects the factors in which a is a nonzero square of F_{p^2}.
    RuntimeError when a root does not divide, a factor of odd degree is
    left, or a factor does not split in `_SPLIT_TRIES` tries."""
    m, _ = _monic_mod(coeffs, p)
    for r in roots:
        m = _exact_div(m, [-r % p, 1], p)
    e = (p * p - 1) // 2
    out = []
    todo = [m] if len(m) > 1 else []
    while todo:
        g = todo.pop()
        d = len(g) - 1
        if d % 2:
            raise RuntimeError(f"a factor of odd degree {d} is left over "
                               f"F_{p}")
        if d == 2:
            out.append(g)
            continue
        for _ in range(_SPLIT_TRIES):
            a = _ptrim([rng.randrange(p) for _ in range(d)])
            h = _pgcd(g, _psub(_ppowmod(a, e, g, p), [1], p), p)
            if 1 < len(h) < len(g):
                break
        else:
            raise RuntimeError(f"a degree-{d} factor over F_{p} did not "
                               f"split in {_SPLIT_TRIES} tries")
        todo += [h, _exact_div(g, h, p)]
    return out


def deuring(p):
    """The degree-(p-1)/2 supersingularity polynomial over F_p, as an
    int tuple, constant term first: the sign (-1)**m times the sum of
    squared binomials C(m, k)**2 x**k, with m = (p-1)/2.  Binomials come
    from an additive Pascal row, so no modular inversions are involved."""
    if p == 2 or not _is_prime(p):
        raise ValueError("odd prime characteristic required")
    m = (p - 1) // 2
    row = [1]
    for _ in range(m):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    sign = 1 if m % 2 == 0 else p - 1
    return tuple(sign * c * c % p for c in row)
