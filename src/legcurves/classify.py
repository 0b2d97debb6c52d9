"""Which point counts over F_q belong to the Legendre family.

The criterion: N is the count of a curve isogenous to some E_lambda
exactly when 4 | N, minus one exception for square q, where r denotes
the square root of q normalized to r = 1 mod 4 and N = (r+1)^2 is
attained by elliptic curves over F_q but never by a Legendre curve.

The verification oracle reaches every elliptic curve over F_q (not
only those with rational 2-torsion) through Weierstrass families
y^2 = g(x) + b, one per scaling class of the remaining coefficient:
(x, y) -> (u^2 x, u^3 y) keeps the count and moves that coefficient
within its coset of the fourth powers (of the squares for the x^2 term
of characteristic 3, which cannot be completed away).  So at most six
families cover the field, each counted by one character-sum product,
and the sweep has no early exit.  Its attained set is checked against
the closed form of Waterhouse's theorem (`_waterhouse_counts`), so the
class reduction is never its own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd, isqrt

from .curve import _chi_shift_sums, legendre_count_table
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


@dataclass
class ClassRecord:
    """One Hasse-interval count over F_q.

    `attained` records whether any elliptic curve over F_q (of any
    shape) has N points.
    `legendre_isogenous` is the fact bool(witnesses), not the
    prediction, so unattained counts stay False.
    """

    q: int
    n: int
    legendre_witnesses: list = dc_field(default_factory=list)
    legendre_isogenous: bool = False
    excluded_reason: str | None = None
    attained: bool = False


def _scaling_classes(f):
    """(a2, a4) codes, one family y^2 = x^3 + a2*x^2 + a4*x + b per
    scaling class: (x, y) -> (u^2 x, u^3 y) takes (a2, a4, b) to
    (u^2 a2, u^4 a4, u^6 b), so one a per coset of the squares (a2) or
    fourth powers (a4) suffices.  F_q^* is cyclic, so for any non-square
    s the powers s^i, i < gcd(4, q - 1), represent those cosets.  For
    p >= 5 a2 is completed away and a4 = 0 is one more class; in
    characteristic 3 both a2 != 0 = a4 and a4 != 0 = a2 are swept."""
    mul = f._mul_func()
    s = f._chi_codes().index(-1)
    reps = [1, s, mul(s, s), mul(mul(s, s), s)][:gcd(4, f.q - 1)]
    if f.p >= 5:
        return [(0, a) for a in [0] + reps]
    return [(a, 0) for a in reps[:2]] + [(0, a) for a in reps]


def _attained_counts(f):
    """Set of point counts realized by elliptic curves over F_q: each
    family of `_scaling_classes` with every b that keeps the curve
    nonsingular, so at most 6 families and no early exit.

    With H the histogram of g(x) = x^3 + a2*x^2 + a4*x, the character
    sum of each b is sum over v of H[v] * chi(v + b), so one
    `_chi_shift_sums` call counts a family."""
    q, p = f.q, f.p
    add = f._add_func()
    mul = f._mul_func()
    neg = f._neg_codes()
    cubes = [mul(mul(x, x), x) for x in range(q)]
    # 4a^3 + 27b^2 = 0 exactly where 27b^2 equals -4a^3
    b2 = [mul(27 % p, mul(b, b)) for b in range(q)]
    attained = set()
    for a2, a4 in _scaling_classes(f):
        if a2:
            # characteristic 3: singular exactly when b = 0
            g = [add(c, mul(mul(x, x), a2)) for x, c in enumerate(cubes)]
            singular = [0]
        else:
            g = [add(c, mul(a4, x)) for x, c in enumerate(cubes)]
            d = neg[mul(4 % p, mul(a4, mul(a4, a4)))]
            singular = [b for b, v in enumerate(b2) if v == d]
        hist = [0] * q
        for v in g:
            hist[v] += 1
        sums = _chi_shift_sums(f, hist)
        attained.update([q + 1 + t for b, t in enumerate(sums)
                         if b not in singular])
    return attained


def _waterhouse_counts(p, n):
    """The counts q + 1 - t of elliptic curves over F_q, q = p^n with p
    odd, in closed form (Waterhouse, "Abelian varieties over finite
    fields", Ann. Sci. ENS 2 (1969), Thm 4.1): every t with t^2 <= 4q
    and p not dividing t, plus these multiples of p:
    t = +-2 sqrt(q) for even n, t = +-sqrt(q) for even n and
    p != 1 mod 3, t = 0 for odd n or p != 1 mod 4, and
    t = +-3^((n+1)/2) for odd n and p = 3."""
    q = p ** n
    r = isqrt(q)
    if n % 2:
        special = {0, 3 ** ((n + 1) // 2)} if p == 3 else {0}
    else:
        special = {2 * r}
        if p % 3 != 1:
            special.add(r)
        if p % 4 != 1:
            special.add(0)
    bound = isqrt(4 * q)
    return {q + 1 - t for t in range(-bound, bound + 1)
            if t % p or abs(t) in special}


def census(q, cap=None):
    """One ClassRecord per count in the Hasse interval, N ascending."""
    f = field_of_order(q)
    if f.p == 2:
        raise ValueError("the census covers odd characteristic")
    table = legendre_count_table(f, cap)
    by_count = {}
    for code, n in table.items():
        by_count.setdefault(n, []).append(code)
    attained = _attained_counts(f)
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
            attained=n in attained,
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


def verify_isogeny_window(q):
    """Check the classification, and `predict_legendre_isogenous` on
    every attained count, against the all-curves oracle and the Legendre
    witnesses, and the oracle's attained set against Waterhouse's
    theorem; returns a list of failure descriptions, empty when
    everything matches."""
    failures = []
    records = census(q)
    f = field_of_order(q)
    attained = {r.n for r in records if r.attained}
    theorem = _waterhouse_counts(f.p, f.n)
    if attained != theorem:
        failures.append(
            f"q={q}: the all-curves oracle attains {sorted(attained - theorem)}"
            f" beyond Waterhouse's theorem and misses "
            f"{sorted(theorem - attained)}")
    for rec in records:
        n = rec.n
        if rec.attained:
            criterion = predict_legendre_isogenous(q, n)
            if criterion != rec.legendre_isogenous:
                failures.append(
                    f"q={q} N={n}: the criterion predicts {criterion}, the "
                    f"census has {len(rec.legendre_witnesses)} Legendre "
                    f"witnesses")
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
