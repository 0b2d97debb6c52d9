"""Averages over the Legendre family.

Summing the point counts of every E_lambda over F_q gives the exact
closed form (q-2)(q+1) + 1 + (-1)^((q-1)/2).  The proof route counts
the solution triples (x, y, lambda) of the defining equation in one go
and subtracts the two nodal cubics at lambda = 0 and lambda = 1; both
routes are implemented and compared.  The second counts (x, y) solutions
through a histogram of squares and reads no quadratic-character table,
so that it stays an oracle for the first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import legendre_count_table
from .field import check_cap, field_of_order

DEFAULT_AUX_CAP = 343


@dataclass
class StatsRecord:
    """Family-sum data for one field.

    total is the sum of |E_lambda(F_q)| over all admissible lambda;
    main_term is (q-2)(q+1); formula_ok records the exact identity
    total = main_term + 1 + (-1)^((q-1)/2).  The last three fields hold
    the proof-route counts (solution triples, and the point counts of
    the two nodal cubics), populated when q is within the aux cap.
    """

    q: int
    total: int
    main_term: int
    formula_ok: bool
    triple_count: int | None = None
    nodal_at_zero: int | None = None
    nodal_at_one: int | None = None


def count_sign(q):
    """(-1)^((q-1)/2): +1 for q = 1 mod 4, -1 for q = 3 mod 4."""
    return 1 if (q - 1) // 2 % 2 == 0 else -1


def auxiliary_counts(q, cap=None):
    """(triple_count, nodal_at_zero, nodal_at_one): affine solutions of
    y^2 = x(x-1)(x-lambda) summed over every lambda including 0 and 1,
    then the affine points of the nodal cubics y^2 = x^2(x-1) and
    y^2 = x(x-1)^2.  Each count is the (x, y) enumeration grouped by the
    value v of the right-hand side: hist[v] = |{y : y*y = v}|, filled by
    squaring every y, is the number of y that solve it."""
    f = field_of_order(q)
    if f.p == 2:
        raise ValueError("the family sums cover odd characteristic")
    check_cap(q, cap, "enumeration", f)
    sub = f._sub_func()
    mul = f._mul_func()
    hist = [0] * q
    for y in range(q):
        hist[mul(y, y)] += 1
    ab = []
    for x in range(q):
        b = mul(x, sub(x, 1))
        ab.append((mul(x, b), b))
    triples = 0
    for lam in range(q):
        triples += sum(hist[sub(a, mul(lam, b))] for a, b in ab)
    nodal_zero = sum(hist[mul(mul(x, x), sub(x, 1))] for x in range(q))
    nodal_one = sum(hist[mul(x, mul(sub(x, 1), sub(x, 1)))] for x in range(q))
    return triples, nodal_zero, nodal_one


def legendre_sum(q, cap=None, aux_cap=DEFAULT_AUX_CAP):
    """StatsRecord for q; proof-route counts included while q <= aux_cap."""
    f = field_of_order(q)
    if f.p == 2:
        raise ValueError("the family sums cover odd characteristic")
    total = sum(legendre_count_table(f, cap).values())
    main_term = (q - 2) * (q + 1)
    record = StatsRecord(
        q=q,
        total=total,
        main_term=main_term,
        formula_ok=total == main_term + 1 + count_sign(q),
    )
    if q <= aux_cap:
        triples, n0, n1 = auxiliary_counts(q, cap)
        record.triple_count = triples
        record.nodal_at_zero = n0
        record.nodal_at_one = n1
    return record


def verify_stats(q, cap=None, aux_cap=DEFAULT_AUX_CAP):
    """Closed form, proof-route identities, and the mod-4 behaviour for
    q = 1 mod 4; returns failure strings, empty when all hold."""
    failures = []
    rec = legendre_sum(q, cap, aux_cap)
    sign = count_sign(q)
    if not rec.formula_ok:
        failures.append(
            f"q={q}: family sum {rec.total} != "
            f"{rec.main_term} + 1 + ({sign})")
    if q % 4 == 1:
        if rec.main_term % 4 != 2:
            failures.append(f"q={q}: main term {rec.main_term} != 2 mod 4")
        if rec.total % 4 != 0:
            failures.append(f"q={q}: family sum {rec.total} != 0 mod 4")
    if rec.triple_count is not None:
        if rec.triple_count != q * q:
            failures.append(
                f"q={q}: enumerated solution triples {rec.triple_count} != q^2")
        if rec.triple_count != 2 * q + q * (q - 2):
            failures.append(
                f"q={q}: triple count fails the fiber-wise tally "
                f"2q + q(q-2)")
        if rec.nodal_at_zero != q - sign:
            failures.append(
                f"q={q}: nodal cubic at 0 has {rec.nodal_at_zero} points, "
                f"expected {q - sign}")
        if rec.nodal_at_one != q - 1:
            failures.append(
                f"q={q}: nodal cubic at 1 has {rec.nodal_at_one} points, "
                f"expected {q - 1}")
        assembled = q - 2 + rec.triple_count - rec.nodal_at_zero - rec.nodal_at_one
        if rec.total != assembled:
            failures.append(
                f"q={q}: direct sum {rec.total} != assembled {assembled}")
    return failures
