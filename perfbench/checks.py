"""Output checks written from the paper's closed forms.

Nothing here imports legcurves: every expected value is computed from q
alone (or from a char-2 modulus and plain bit arithmetic), so a check
cannot agree with a wrong answer by sharing code with it.  Each check
returns a list of failure strings; empty means the output is correct.
"""

from __future__ import annotations

import json
from math import isqrt


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q):
    """(p, n) with p**n == q, or None when q is not a prime power."""
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            n = 0
            while q % p == 0:
                q //= p
                n += 1
            return (p, n) if q == 1 else None
    return (q, 1) if q >= 2 else None


def odd_prime_powers(limit):
    return [q for q in range(3, limit + 1, 2) if prime_power(q)]


def family_sum(q):
    """Sum over every admissible lambda of #E_lambda(F_q)."""
    sign = 1 if (q - 1) // 2 % 2 == 0 else -1
    return (q - 2) * (q + 1) + 1 + sign


def hasse_interval(q):
    t = isqrt(4 * q)
    return q + 1 - t, q + 1 + t


def square_exception(q):
    """(r+1)^2 with r^2 = q and r = 1 mod 4, or None for non-square q."""
    r = isqrt(q)
    if r * r != q:
        return None
    r = r if r % 4 == 1 else -r
    return (r + 1) ** 2


def class_number(p):
    """h(-p) for p = 3 mod 4, by counting reduced forms (a, b, c) with
    b^2 - 4ac = -p, |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    h = 0
    a = 1
    while 3 * a * a <= p:
        for b in range(-a + 1, a + 1):
            num = b * b + p
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            h += 1
        a += 1
    return h


def _parse(text, failures):
    try:
        return json.loads(text)
    except ValueError as exc:
        failures.append(f"output is not JSON: {exc}")
        return None


def check_counts(q, text):
    """count --q q: 4 | N, the Hasse bound, one row per admissible
    lambda, and the family sum in closed form."""
    failures = []
    rows = _parse(text, failures)
    if rows is None:
        return failures
    p, n = prime_power(q)
    lams = sorted(r["lambda"] for r in rows)
    if lams != list(range(2, q)):
        failures.append(f"q={q}: lambda codes are not exactly 2..{q - 1}")
    for r in rows:
        N = r["count"]
        if (r["p"], r["n"]) != (p, n):
            failures.append(f"q={q}: row names GF({r['p']}^{r['n']})")
            break
        if N % 4 or (N - q - 1) ** 2 > 4 * q:
            failures.append(f"q={q} lambda={r['lambda']}: count {N} is not "
                            f"a multiple of 4 inside the Hasse interval")
            break
    total = sum(r["count"] for r in rows)
    if total != family_sum(q):
        failures.append(f"q={q}: counts sum to {total}, "
                        f"closed form gives {family_sum(q)}")
    return failures


def check_stats(q, aux_cap, text):
    failures = []
    rows = _parse(text, failures)
    if rows is None:
        return failures
    if len(rows) != 1 or rows[0]["q"] != q:
        return [f"q={q}: expected one stats row for q"]
    r = rows[0]
    sign = 1 if (q - 1) // 2 % 2 == 0 else -1
    if r["total"] != family_sum(q) or not r["formula_ok"]:
        failures.append(f"q={q}: family sum {r['total']} != {family_sum(q)}")
    if r["main_term"] != (q - 2) * (q + 1) or \
            r["excess"] != r["total"] - r["main_term"]:
        failures.append(f"q={q}: main term or excess is off")
    aux = (r["triple_count"], r["nodal_at_zero"], r["nodal_at_one"])
    want = (q * q, q - sign, q - 1) if q <= aux_cap else (None, None, None)
    if aux != want:
        failures.append(f"q={q}: proof-route counts {aux}, expected {want}")
    return failures


def check_classify(q, text):
    """The witnessed counts are exactly the attained multiples of 4,
    minus (r+1)^2 for square q; witnesses cover every lambda once."""
    failures = []
    rows = _parse(text, failures)
    if rows is None:
        return failures
    lo, hi = hasse_interval(q)
    if [r["N"] for r in rows] != list(range(lo, hi + 1)):
        return [f"q={q}: rows do not run over the Hasse interval {lo}..{hi}"]
    if sum(r["witness_count"] for r in rows) != q - 2:
        failures.append(f"q={q}: witnesses do not cover the q-2 lambdas")
    exception = square_exception(q)
    for r in rows:
        has = r["witness_count"] > 0
        if has != r["legendre_isogenous"] or \
                has != (r["first_witness"] is not None):
            failures.append(f"q={q} N={r['N']}: witness fields disagree")
        if has and not 2 <= r["first_witness"] < q:
            failures.append(f"q={q} N={r['N']}: witness code out of range")
        excluded = r["N"] % 4 != 0 or r["N"] == exception
        if excluded != (r["excluded_reason"] is not None):
            failures.append(f"q={q} N={r['N']}: exclusion does not follow "
                            f"4 | N and the square exception")
    witnessed = {r["N"] for r in rows if r["witness_count"]}
    attained4 = {r["N"] for r in rows if r["attained"] and r["N"] % 4 == 0}
    if witnessed != attained4 - {exception}:
        failures.append(f"q={q}: witnessed counts differ from the attained "
                        f"multiples of 4 minus the square exception")
    return failures


def check_census(q_max, text):
    """One summary row per odd prime power up to q_max; the Legendre
    counts are the attained multiples of 4, one fewer for square q."""
    failures = []
    rows = _parse(text, failures)
    if rows is None:
        return failures
    qs = odd_prime_powers(q_max)
    if [r["q"] for r in rows] != qs:
        return [f"census rows are not the odd prime powers up to {q_max}"]
    for r in rows:
        q = r["q"]
        lo, hi = hasse_interval(q)
        mult4 = hi // 4 - (lo - 1) // 4
        drop = 0 if square_exception(q) is None else 1
        att = r["attained_multiples_of_four"]
        if not 1 <= att <= mult4 or r["legendre_counts"] != att - drop:
            failures.append(f"q={q}: {r['legendre_counts']} Legendre counts "
                            f"for {att} attained multiples of 4")
        p = prime_power(q)[0]
        if r["reference_density"] != isqrt(q) * (1 - 1 / p):
            failures.append(f"q={q}: reference density is off")
    return failures


def check_supersingular(p, table, eighth, sp_formula):
    """(p-1)/2 distinct roots, and the prime-field share 0 / 1 / 3h(-p)."""
    failures = []
    roots = table.roots
    if len(roots) != (p - 1) // 2 or len(set(roots)) != len(roots):
        failures.append(f"p={p}: {len(roots)} supersingular lambdas, "
                        f"expected {(p - 1) // 2} distinct")
    if p % 4 == 1:
        want = 0
    elif p == 3:
        want = 1
    else:
        want = 3 * class_number(p)
    if len(table.prime_field_roots) != want:
        failures.append(f"p={p}: {len(table.prime_field_roots)} roots in "
                        f"F_p, expected {want}")
    if eighth is not True:
        failures.append(f"p={p}: negated roots are not all eighth powers")
    if sp_formula is not True:
        failures.append(f"p={p}: prime-field count misses the dispatch")
    return failures


class GF2n:
    """Bit-vector arithmetic in F_{2^n} for a given modulus, used to
    compute traces independently of the library's tables."""

    def __init__(self, modulus):
        self.n = len(modulus) - 1
        self.mod = sum(c << i for i, c in enumerate(modulus))

    def mul(self, a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> self.n & 1:
                a ^= self.mod
        return out

    def trace(self, a):
        acc, t = a, a
        for _ in range(self.n - 1):
            t = self.mul(t, t)
            acc ^= t
        if acc not in (0, 1):
            raise ValueError("trace left F_2; is the modulus irreducible?")
        return acc


def check_char2(n, q, beta_trace, n0, n1, nb, frob):
    """One lambda over F_{2^n}: 4 | N exactly on the trace-0 class, the
    twist pair sums to 2^(n+1)+2, and the image-model counts agree."""
    failures = []
    for N in (n0, n1, nb):
        if (N - q - 1) ** 2 > 4 * q:
            failures.append(f"n={n}: count {N} violates the Hasse bound")
    if n0 % 4 or n1 % 4 != 2:
        failures.append(f"n={n}: twist pair ({n0}, {n1}) misses the "
                        f"trace classification")
    if n0 + n1 != 2 ** (n + 1) + 2:
        failures.append(f"n={n}: twist counts sum to {n0 + n1}")
    if (nb % 4 == 0) != (beta_trace == 0):
        failures.append(f"n={n}: count {nb} against Tr(beta) = {beta_trace}")
    if frob is not True:
        failures.append(f"n={n}: lambda^2 count differs from the image model")
    return failures
