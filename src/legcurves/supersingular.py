"""Supersingular parameters of the Legendre family.

For an odd prime p the supersingular lambdas are the (p-1)/2 roots of a
fixed polynomial with F_p coefficients (alternating-sign central
binomial coefficients), and they all live in F_{p^2}.  This module
finds them by factoring that polynomial over F_p, checks the
point-group structure they produce over F_{p^2}, and compares the
number of roots lying in F_p itself against a class-number formula
whose class numbers come from an independent reduced-forms
enumeration.  Over F_p the same polynomial is the Hasse invariant,
which gives each Legendre trace mod p.

Since every root lies in F_{p^2}, the polynomial splits over F_p into
linear and irreducible quadratic factors.  The linear ones come from a
Horner scan over F_p; the quadratics come from equal-degree
factorization on the Z/p list kernel (`poly.quadratic_factors`), and
each gives a conjugate pair a +- b*t by the quadratic formula, on
integer coordinate pairs (a, b) for a + b*t with t a fixed generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .curve import legendre, legendre_count_table
from .field import _is_prime, check_cap, is_nth_power, make_field
from .poly import (deuring, distinct_root_count, pow_x_mod,
                   quadratic_factors, substitute_neg)


@dataclass
class SsTable:
    """Supersingular data for one odd prime.

    signed_prime is p with the sign making it 1 mod 4; roots are the
    supersingular lambdas in F_{p^2}, lex-sorted; prime_field_roots are
    the ones already in F_p, as plain integers; polynomial is deuring(p),
    an int tuple with the constant term first; class_number is filled
    for p = 3 mod 4 and None otherwise.
    """

    p: int
    signed_prime: int
    polynomial: tuple
    roots: list
    prime_field_roots: list
    class_number: int | None


def _hasse_values(coeffs, p):
    """f(a) mod p for every a in F_p, by integer Horner: with f =
    deuring(p), the one pass behind both its prime-field roots and the
    Hasse traces."""
    rev = coeffs[::-1]
    out = []
    for a in range(p):
        acc = 0
        for c in rev:
            acc = (acc * a + c) % p
        out.append(acc)
    return out


def _prime_field_roots(coeffs, p):
    return [a for a, v in enumerate(_hasse_values(coeffs, p)) if v == 0]


def supersingular_prime_field_count(p):
    """Number of supersingular lambdas lying in F_p, by a root scan
    that never leaves integer arithmetic (usable well past the point
    where building F_{p^2} tables would pay)."""
    if p == 2 or not _is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return len(_prime_field_roots(deuring(p), p))


def _quadratic_root_codes(quad, sqrt, m0, p):
    """Codes of the two roots in F_{p^2} of [c, b, 1], an irreducible
    quadratic over F_p: (-b +- s*t)/2 with t^2 = -m0 and
    s^2 = (b^2 - 4c) / (-m0), both sides non-residues."""
    c, b, _ = quad
    s = sqrt[(b * b - 4 * c) * pow(-m0, p - 2, p) % p]
    if not s:
        raise RuntimeError(f"p={p}: factor {quad} is not an irreducible "
                           f"quadratic")
    half = (p + 1) // 2
    a = -b * half % p
    h = s * half % p
    return a + h * p, a + (p - h) * p


@lru_cache(maxsize=None)
def supersingular_lambdas(p):
    """SsTable for p: all roots over F_{p^2}, by factoring deuring(p).

    Three checks run on every call and together certify that the table
    is exactly the root set: each root evaluates to 0 by integer Horner
    in F_{p^2}, the roots are pairwise distinct, and their number is
    deg gcd(deuring(p), x^(p^2) - x)."""
    if p == 2 or not _is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    check_cap(p * p, None, "root scan", f"GF({p}^2)")
    poly = deuring(p)
    f2 = make_field(p, 2)
    # the modulus is t^2 + m0: `_find_modulus` reaches x^2 - n, with n
    # a non-residue, before any candidate with a linear term
    m0 = f2.modulus[0]
    rev = poly[::-1]
    fp_roots = _prime_field_roots(poly, p)
    codes = list(fp_roots)
    sqrt = make_field(p)._sqrt_codes()
    for quad in quadratic_factors(poly, p, fp_roots, random.Random(p)):
        codes.extend(_quadratic_root_codes(quad, sqrt, m0, p))
    for code in codes:
        a, b = code % p, code // p
        ac = bc = 0
        for c in rev:
            z = bc * b
            ac, bc = (ac * a - z * m0 + c) % p, (ac * b + bc * a) % p
        if ac or bc:
            raise RuntimeError(f"p={p}: {a} + {b}*t is not a root of "
                               f"deuring({p})")
    if len(set(codes)) != len(codes):
        raise RuntimeError(f"p={p}: a root was found twice")
    if len(codes) != distinct_root_count(poly, p, p * p):
        raise RuntimeError(
            f"roots found for p={p} disagree with the gcd-based count")
    return SsTable(
        p=p,
        signed_prime=p if p % 4 == 1 else -p,
        polynomial=poly,
        roots=sorted(f2.from_code(c) for c in codes),
        prime_field_roots=sorted(fp_roots),
        class_number=class_number(p) if p % 4 == 3 else None,
    )


def class_number(p):
    """h for the imaginary quadratic order of discriminant -p, counted
    through reduced forms a*x^2 + b*x*y + c*y^2: b^2 - 4ac = -p,
    |b| <= a <= c, with b > 0 on the boundary |b| = a or a = c."""
    if p % 4 != 3:
        raise ValueError(f"-{p} is not a valid discriminant (need p = 3 mod 4)")
    h = 0
    for b in range(1, isqrt(p // 3) + 1, 2):
        m = (b * b + p) // 4
        for a in range(b, isqrt(m) + 1):
            if a and m % a == 0:
                c = m // a
                # (a, b, c) always reduced here; (a, -b, c) distinct
                # unless on the boundary
                h += 1 if (a == b or a == c) else 2
    return h


def verify_ss_structure(p):
    """Every supersingular E_lambda over F_{p^2} has point group
    (Z/d)^2 with d = |signed_prime - 1|."""
    table = supersingular_lambdas(p)
    d = abs(table.signed_prime - 1)
    for lam in table.roots:
        if legendre(lam.field, lam).group_structure() != (d, d):
            return False
    return True


def verify_eighth_power(p):
    """-lambda is an 8th power in F_{p^2}, two ways: element-wise on
    every root, and as divisibility of the negated-variable polynomial
    into x^((p^2-1)/8) - 1.  The two computations must agree."""
    table = supersingular_lambdas(p)
    elementwise = all(is_nth_power(-lam, 8) for lam in table.roots)
    g = substitute_neg(table.polynomial, p)
    divisibility = pow_x_mod(g, p, (p * p - 1) // 8) == [1]
    if elementwise != divisibility:
        raise RuntimeError(
            f"p={p}: the element-wise and polynomial 8th-power checks "
            f"disagree ({elementwise} vs {divisibility})")
    return elementwise


def verify_hasse_trace(p):
    """The Hasse invariant against the count table over F_p: for every
    lambda outside {0, 1}, the symmetric lift of deuring(p)(lambda) mod p
    is the trace p + 1 - #E_lambda(F_p).  The two agree exactly for
    p >= 17, where |trace| <= 2*sqrt(p) < p/2; the polynomial is
    evaluated by integer Horner and shares nothing with the table's
    character sums.  Returns failure strings."""
    if p < 17 or not _is_prime(p):
        raise ValueError(f"the Hasse-trace identity needs a prime p >= 17, "
                         f"got {p}")
    values = _hasse_values(deuring(p), p)
    failures = []
    for lam, n in legendre_count_table(make_field(p)).items():
        acc = values[lam]
        hasse = acc - p if acc > p // 2 else acc
        if hasse != p + 1 - n:
            failures.append(f"p={p} lambda={lam}: Hasse invariant {hasse} "
                            f"vs trace {p + 1 - n}")
    return failures


def verify_sp_formula(p):
    """Prime-field root count against the three-way dispatch:
    0 for p = 1 mod 4, 1 for p = 3, else three times the class number."""
    s = supersingular_prime_field_count(p)
    if p % 4 == 1:
        return s == 0
    if p == 3:
        return s == 1
    return s == 3 * class_number(p)
