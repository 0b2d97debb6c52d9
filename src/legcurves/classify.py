"""Which point counts over F_q belong to the Legendre family.

The criterion: N is the count of a curve isogenous to some E_lambda
exactly when 4 | N, minus one exception for square q, where r denotes
the square root of q normalized to r = 1 mod 4 and N = (r+1)^2 is
attained by elliptic curves over F_q but never by a Legendre curve.

The verification oracle enumerates every elliptic curve over F_q (not
only those with rational 2-torsion) through short Weierstrass sweeps,
with a dedicated pair of families in characteristic 3 where the x^2
term cannot be completed away.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import isqrt

from .curve import legendre_count_table
from .field import field_of_order

EXCLUDED_NOT_DIV4 = "not divisible by 4"
EXCLUDED_EXCEPTION = "maximal/minimal exception (r+1)^2"


def hasse_interval(q):
    """Inclusive bounds [q+1-2*sqrt(q), q+1+2*sqrt(q)] on point counts."""
    t = isqrt(4 * q)
    return q + 1 - t, q + 1 + t


def normalized_r(q):
    """The square root of a square q with the sign making r = 1 mod 4."""
    r = isqrt(q)
    if r * r != q:
        raise ValueError(f"{q} is not a square")
    return r if r % 4 == 1 else -r


def predict_legendre_isogenous(q, n):
    """4 | N, and N != (r+1)^2 when q is a square."""
    lo, hi = hasse_interval(q)
    if not lo <= n <= hi:
        raise ValueError(f"count {n} is outside the Hasse interval for q={q}")
    if n % 4:
        return False
    r = isqrt(q)
    if r * r == q:
        return n != (normalized_r(q) + 1) ** 2
    return True


def find_witness(q, n, cap=None):
    """Lexicographically smallest lambda with count(E_lambda) = N, or None."""
    f = field_of_order(q)
    for code, count in legendre_count_table(f, cap).items():
        if count == n:
            return f.from_code(code)
    return None


@dataclass
class ClassRecord:
    """One Hasse-interval count over F_q.

    `attained` records whether any elliptic curve over F_q (of any
    shape) has N points; None when the all-curves oracle was skipped.
    `legendre_isogenous` is the fact bool(witnesses), not the
    prediction, so unattained counts stay False.
    """

    q: int
    n: int
    legendre_witnesses: list = dc_field(default_factory=list)
    legendre_isogenous: bool = False
    excluded_reason: str | None = None
    attained: bool | None = None


def _attained_counts(f, cap=None):
    """Set of point counts realized by elliptic curves over F_q, by
    enumeration with early exit once every interval value has shown up."""
    q = f.q
    lo, hi = hasse_interval(q)
    remaining = set(range(lo, hi + 1))
    chi = f._chi_codes()
    add = f._add_func()
    mul = f._mul_func()
    neg = f._neg_codes()
    xs = range(q)
    if f.p >= 5:
        # y^2 = x^3 + a*x + b, discriminant 4a^3 + 27b^2 != 0
        c4, c27 = f.code(f(4)), f.code(f(27))
        for a in range(q):
            g = [add(mul(mul(x, x), x), mul(a, x)) for x in xs]
            a3 = mul(c4, mul(a, mul(a, a)))
            for b in range(q):
                if add(a3, mul(c27, mul(b, b))) == 0:
                    continue
                n = q + 1 + sum(chi[add(v, b)] for v in g)
                remaining.discard(n)
            if not remaining:
                break
    else:
        # characteristic 3: the cube is additive, so the x^2 term cannot
        # be removed; sweep y^2 = x^3 + a*x^2 + b (a, b != 0) for the
        # curves with a quadratic term and y^2 = x^3 + a*x + b (a != 0)
        # for the rest
        for a in range(1, q):
            g = [mul(mul(x, x), add(x, a)) for x in xs]
            for b in range(1, q):
                n = q + 1 + sum(chi[add(v, b)] for v in g)
                remaining.discard(n)
            if not remaining:
                break
        if remaining:
            for a in range(1, q):
                g = [add(mul(mul(x, x), x), mul(a, x)) for x in xs]
                for b in range(q):
                    n = q + 1 + sum(chi[add(v, b)] for v in g)
                    remaining.discard(n)
                if not remaining:
                    break
    return set(range(lo, hi + 1)) - remaining


def census(q, cap=None, with_attained=True):
    """One ClassRecord per count in the Hasse interval, N ascending."""
    f = field_of_order(q)
    if f.p == 2:
        raise ValueError("the census covers odd characteristic")
    table = legendre_count_table(f, cap)
    by_count = {}
    for code, n in table.items():
        by_count.setdefault(n, []).append(code)
    attained = _attained_counts(f, cap) if with_attained else None
    sq = isqrt(q)
    exception = (normalized_r(q) + 1) ** 2 if sq * sq == q else None
    lo, hi = hasse_interval(q)
    records = []
    for n in range(lo, hi + 1):
        witnesses = [f.from_code(c) for c in by_count.get(n, [])]
        if n % 4:
            reason = EXCLUDED_NOT_DIV4
        elif n == exception:
            reason = EXCLUDED_EXCEPTION
        else:
            reason = None
        records.append(ClassRecord(
            q=q,
            n=n,
            legendre_witnesses=witnesses,
            legendre_isogenous=bool(witnesses),
            excluded_reason=reason,
            attained=None if attained is None else n in attained,
        ))
    return records


def census_summary(q, cap=None):
    """Measured density of Legendre counts among multiples of 4."""
    records = census(q, cap)
    f = field_of_order(q)
    mult4 = [r for r in records if r.n % 4 == 0 and r.attained]
    legendre = [r for r in mult4 if r.legendre_isogenous]
    return {
        "q": q,
        "attained_multiples_of_four": len(mult4),
        "legendre_counts": len(legendre),
        "reference_density": isqrt(q) * (1 - 1 / f.p),
    }


def verify_isogeny_window(q, cap=None):
    """Check the classification against the all-curves oracle; returns a
    list of failure descriptions, empty when everything matches."""
    failures = []
    records = census(q, cap)
    for rec in records:
        n = rec.n
        if rec.legendre_isogenous:
            if n % 4:
                failures.append(f"q={q} N={n}: Legendre count not in 4Z")
            if not rec.attained:
                failures.append(
                    f"q={q} N={n}: Legendre witness but the all-curves "
                    f"oracle never saw this count")
            if rec.excluded_reason == EXCLUDED_EXCEPTION:
                failures.append(
                    f"q={q} N={n}: the excluded count has a Legendre witness")
        if (rec.attained and n % 4 == 0 and rec.excluded_reason is None
                and not rec.legendre_isogenous):
            failures.append(
                f"q={q} N={n}: attained multiple of 4 without the predicted "
                f"Legendre witness")
        if rec.excluded_reason == EXCLUDED_EXCEPTION and not rec.attained:
            failures.append(
                f"q={q} N={n}: the excluded count should be attained by "
                f"some non-Legendre curve")
    predicted = {r.n for r in records
                 if r.attained and r.n % 4 == 0 and r.excluded_reason is None}
    witnessed = {r.n for r in records if r.legendre_isogenous}
    if predicted != witnessed:
        failures.append(
            f"q={q}: predicted counts {sorted(predicted)} differ from "
            f"witnessed counts {sorted(witnessed)}")
    return failures
