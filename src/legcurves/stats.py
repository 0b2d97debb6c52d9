"""Averages over the Legendre family.

Summing the point counts of every E_lambda over F_q gives the exact
closed form (q-2)(q+1) + 1 + (-1)^((q-1)/2).  The proof route counts
the solution triples (x, y, lambda) of the defining equation in one go
and subtracts the two nodal cubics at lambda = 0 and lambda = 1; both
routes are implemented and compared.  The second reads the literal
(x, y) counts of `curve._literal_legendre_counts`, which read no
quadratic-character table, so they stay an oracle for the first and
are matched against the count table lambda by lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import _literal_legendre_counts, legendre_count_table
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
    y^2 = x(x-1)^2, which are the literal counts at lambda = 0 and 1."""
    f = field_of_order(q)
    if f.p == 2:
        raise ValueError("the family sums cover odd characteristic")
    check_cap(q, cap, "enumeration", f)
    literal = _literal_legendre_counts(f, 1)
    return sum(literal), literal[0], literal[1]


def legendre_sum(q, cap=None, aux_cap=DEFAULT_AUX_CAP):
    """StatsRecord for q; proof-route counts included, and every count of
    the table matched against the literal count, while q <= aux_cap."""
    f = field_of_order(q)
    if f.p == 2:
        raise ValueError("the family sums cover odd characteristic")
    table = legendre_count_table(f, cap)
    total = sum(table.values())
    main_term = (q - 2) * (q + 1)
    record = StatsRecord(
        q=q,
        total=total,
        main_term=main_term,
        formula_ok=total == main_term + 1 + count_sign(q),
    )
    if q <= aux_cap:
        # the proof route and the per-lambda check read one literal pass
        check_cap(q, cap, "enumeration", f)
        literal = _literal_legendre_counts(f, 1)
        for lam, n in table.items():
            if literal[lam] + 1 != n:
                raise RuntimeError(
                    f"count table {n} and literal count {literal[lam] + 1} "
                    f"disagree at lambda code {lam} for q={q}")
        record.triple_count = sum(literal)
        record.nodal_at_zero, record.nodal_at_one = literal[0], literal[1]
    return record


def verify_stats(q, aux_cap=DEFAULT_AUX_CAP):
    """Closed form, proof-route identities, and the mod-4 behaviour for
    q = 1 mod 4; returns failure strings, empty when all hold."""
    failures = []
    rec = legendre_sum(q, aux_cap=aux_cap)
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
