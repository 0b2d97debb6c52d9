"""Dense univariate polynomials over a prime field.

Coefficients are stored constant term first with no trailing zeros, so
the zero polynomial is the empty tuple and the leading coefficient of
anything else is nonzero.  The arithmetic runs on the bare Z/p
coefficient lists of `field` (`_ppowmod`, `_psub`, `_pgcd`, `_pdivmod`):
powers of x modulo f by repeated squaring, the number of distinct roots
in F_{p^k} as deg gcd(f, x^(p^k) - x), and the split of a product of
distinct irreducible quadratics into its factors.

Includes the one special polynomial the package is built around: the
characteristic-p polynomial whose roots are exactly the supersingular
Legendre parameters (degree (p-1)/2, squared-binomial coefficients).
"""

from __future__ import annotations

from .field import _pdivmod, _pgcd, _ppowmod, _psub, _ptrim, make_field


class Poly:
    """Polynomial over a fixed field; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        out = [field(c) for c in coeffs]
        while out and not out[-1]:
            out.pop()
        self.field = field
        self.coeffs = tuple(out)

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.q, tuple(c.coeffs for c in self.coeffs)))

    def __repr__(self):
        if not self.coeffs:
            return f"Poly(0 over {self.field!r})"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = repr(c).split(" (")[0]
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if cs == "1" else f"{cs}*{xs}")
        return f"Poly({' + '.join(terms)} over {self.field!r})"


def substitute_neg(f):
    """f(-x): negate the odd-index coefficients."""
    return Poly(f.field, tuple(-c if i % 2 else c
                               for i, c in enumerate(f.coeffs)))


def _monic_mod(f):
    """(p, m, x mod m) on bare Z/p lists, with m the monic associate of
    f, which has the same remainders and the same roots.  f must have
    degree >= 1 and prime-field coefficients: `Fe.__int__` raises
    ValueError for any other."""
    if f.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    p = f.field.p
    m = [int(c) for c in f.coeffs]
    linv = pow(m[-1], p - 2, p)
    m = [c * linv % p for c in m]
    x = [0, 1] if len(m) > 2 else [-m[0] % p]   # x mod (x + m0)
    return p, m, x


def pow_x_mod(f, e):
    """x**e mod f over a prime field, by repeated squaring
    (`field._ppowmod`)."""
    p, m, x = _monic_mod(f)
    return Poly(f.field, _ppowmod(x, e, m, p))


def distinct_root_count(f, order):
    """Number of distinct roots of f in the field with `order` elements
    (a power of the coefficient characteristic), counted as
    deg gcd(f, x**order - x) without materializing x**order."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return 0
    p, m, x = _monic_mod(f)
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


def quadratic_factors(f, roots, rng):
    """The monic quadratic factors [c, b, 1] of f over a prime field,
    once x - r is divided out for each r in `roots`.

    What is left must be a product of distinct irreducible quadratics.
    It is split by equal-degree factorization (Cantor-Zassenhaus): for
    a random a of degree below that of g, gcd(g, a^((p^2-1)/2) - 1)
    collects the factors in which a is a nonzero square of F_{p^2}.
    RuntimeError when a root does not divide, a factor of odd degree is
    left, or a factor does not split in `_SPLIT_TRIES` tries."""
    p, m, _ = _monic_mod(f)
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
    """The degree-(p-1)/2 supersingularity polynomial over F_p: the sign
    (-1)**m times the sum of squared binomials C(m, k)**2 x**k, with
    m = (p-1)/2.  Binomials come from an additive Pascal row, so no
    modular inversions are involved."""
    if p < 3 or p % 2 == 0:
        raise ValueError("odd prime characteristic required")
    field = make_field(p)
    m = (p - 1) // 2
    row = [1]
    for _ in range(m):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    sign = 1 if m % 2 == 0 else p - 1
    return Poly(field, [sign * c * c % p for c in row])
