import pytest

from legcurves import field_of_order, legendre_count_table, odd_prime_powers
from legcurves import stats
from legcurves.stats import (
    auxiliary_counts,
    count_sign,
    legendre_sum,
    verify_stats,
)


def literal_triple_count(q):
    """Count (x, y, lambda) with y^2 = x(x-1)(x-lambda) by three loops."""
    f = field_of_order(q)
    total = 0
    for lam in f.elements():
        for x in f.elements():
            rhs = x * (x - f.one) * (x - lam)
            for y in f.elements():
                if y * y == rhs:
                    total += 1
    return total


class TestSign:
    def test_values(self):
        assert count_sign(5) == 1
        assert count_sign(9) == 1
        assert count_sign(7) == -1
        assert count_sign(3) == -1


class TestFamilySum:
    @pytest.mark.parametrize("q,total", [(3, 4), (5, 20), (7, 40)])
    def test_frozen_totals(self, q, total):
        rec = legendre_sum(q)
        assert rec.total == total
        assert rec.formula_ok

    def test_total_is_sum_of_counts(self):
        for q in (5, 9, 13, 27):
            rec = legendre_sum(q)
            assert rec.total == sum(legendre_count_table(field_of_order(q)).values())

    def test_aux_cap_respected(self):
        rec = legendre_sum(5, aux_cap=0)
        assert rec.formula_ok
        assert rec.triple_count is None
        assert rec.nodal_at_zero is None and rec.nodal_at_one is None

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            legendre_sum(8)
        with pytest.raises(ValueError):
            auxiliary_counts(4)


class TestAuxiliaryCounts:
    @pytest.mark.parametrize("q,expected", [
        (3, (9, 4, 2)),
        (5, (25, 4, 4)),
        (7, (49, 8, 6)),
    ])
    def test_frozen_values(self, q, expected):
        assert auxiliary_counts(q) == expected

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
    def test_triple_count_matches_literal_loops(self, q):
        assert auxiliary_counts(q)[0] == literal_triple_count(q)

    def test_closed_forms(self):
        for q in odd_prime_powers(49):
            triples, n0, n1 = auxiliary_counts(q)
            assert triples == q * q
            assert n0 == q - count_sign(q)
            assert n1 == q - 1

    def test_assembly_identity(self):
        for q in odd_prime_powers(49):
            rec = legendre_sum(q)
            assert rec.total == (q - 2 + rec.triple_count
                                 - rec.nodal_at_zero - rec.nodal_at_one)


class TestVerify:
    @pytest.mark.parametrize("q", odd_prime_powers(121), ids=lambda q: f"q{q}")
    def test_sweep(self, q):
        assert verify_stats(q) == []

    def test_mod_four_structure(self):
        for q in odd_prime_powers(121):
            rec = legendre_sum(q, aux_cap=0)
            if q % 4 == 1:
                assert rec.main_term % 4 == 2
                assert rec.total % 4 == 0

    @pytest.mark.parametrize("q", [13, 25, 27, 49])
    def test_compensating_table_errors_are_caught(self, q, monkeypatch):
        # one count 4 too high and another 4 too low keep the family sum
        def mutant(f, cap=None):
            table = dict(legendre_count_table(f, cap))
            first, second = list(table)[:2]
            table[first] += 4
            table[second] -= 4
            return table
        monkeypatch.setattr(stats, "legendre_count_table", mutant)
        first = list(legendre_count_table(field_of_order(q)))[0]
        with pytest.raises(RuntimeError,
                           match=f"lambda code {first} for q={q}$"):
            verify_stats(q)
