import pytest

from legcurves import legendre, make_field, odd_prime_powers, twist
from legcurves.classify import (
    EXCLUDED_EXCEPTION,
    _attained_counts,
    EXCLUDED_NOT_DIV4,
    census,
    census_summary,
    hasse_interval,
    normalized_r,
    predict_legendre_isogenous,
    verify_isogeny_window,
)
from legcurves.field import field_of_order


def literal_attained_counts(f):
    """The three curve families summed literally: q + 1 + the sum over x
    of chi(g(x) + b) for every (g, b), stopping once the whole Hasse
    interval has shown up."""
    q = f.q
    lo, hi = hasse_interval(q)
    remaining = set(range(lo, hi + 1))
    chi = f._chi_codes()
    add = f._add_func()
    mul = f._mul_func()
    xs = range(q)
    families = []
    if f.p >= 5:
        # y^2 = x^3 + a*x + b with 4a^3 + 27b^2 != 0
        c4, c27 = f.code(f(4)), f.code(f(27))
        for a in range(q):
            a3 = mul(c4, mul(a, mul(a, a)))
            families.append(
                ([add(mul(mul(x, x), x), mul(a, x)) for x in xs],
                 [b for b in range(q) if add(a3, mul(c27, mul(b, b)))]))
    else:
        # y^2 = x^3 + a*x^2 + b (a, b != 0) and y^2 = x^3 + a*x + b (a != 0)
        for a in range(1, q):
            families.append(([mul(mul(x, x), add(x, a)) for x in xs],
                             range(1, q)))
        for a in range(1, q):
            families.append(([add(mul(mul(x, x), x), mul(a, x)) for x in xs],
                             range(q)))
    for g, bs in families:
        for b in bs:
            remaining.discard(q + 1 + sum(chi[add(v, b)] for v in g))
        if not remaining:
            break
    return set(range(lo, hi + 1)) - remaining


class TestNormalizedR:
    @pytest.mark.parametrize("q,r", [(9, -3), (25, 5), (49, -7), (81, 9),
                                     (121, -11), (169, 13)])
    def test_frozen_values(self, q, r):
        assert normalized_r(q) == r
        assert r * r == q and r % 4 == 1

    def test_non_square_rejected(self):
        for q in (5, 7, 27, 125):
            with pytest.raises(ValueError):
                normalized_r(q)


class TestPrediction:
    def test_frozen_examples(self):
        assert not predict_legendre_isogenous(9, 4)   # (r+1)^2 with r = -3
        assert predict_legendre_isogenous(9, 16)
        assert not predict_legendre_isogenous(5, 6)
        assert predict_legendre_isogenous(5, 8)

    def test_hasse_violation_rejected(self):
        lo, hi = hasse_interval(9)
        assert (lo, hi) == (4, 16)
        with pytest.raises(ValueError):
            predict_legendre_isogenous(9, 3)
        with pytest.raises(ValueError):
            predict_legendre_isogenous(9, 17)

    def test_non_square_q_has_no_exception(self):
        lo, hi = hasse_interval(7)
        for n in range(lo, hi + 1):
            assert predict_legendre_isogenous(7, n) == (n % 4 == 0)


def first_witnesses(q):
    """{N: lexicographically smallest Legendre lambda with N points, or
    None} over the Hasse interval, read from the census."""
    return {r.n: (r.legendre_witnesses or [None])[0]
            for r in census(q)}


class TestWitness:
    def test_frozen_witnesses(self):
        f5 = make_field(5)
        assert first_witnesses(5)[8] == f5(2)
        assert first_witnesses(5)[4] == f5(3)
        assert first_witnesses(9)[4] is None

    def test_witness_counts_back(self):
        for q in (5, 7, 9, 13, 25):
            for n, w in first_witnesses(q).items():
                if w is not None:
                    assert legendre(w.field, w).count_points() == n


class TestCensus:
    def test_q9_frozen(self):
        records = {r.n: r for r in census(9)}
        assert sorted(records) == list(range(4, 17))
        attained_mult4 = {n for n, r in records.items()
                          if r.attained and n % 4 == 0}
        legendre_counts = {n for n, r in records.items() if r.legendre_isogenous}
        assert attained_mult4 == {4, 8, 12, 16}
        assert legendre_counts == {8, 12, 16}
        assert records[4].excluded_reason == EXCLUDED_EXCEPTION
        assert records[5].excluded_reason == EXCLUDED_NOT_DIV4
        assert records[8].excluded_reason is None

    def test_q7_frozen(self):
        records = {r.n: r for r in census(7)}
        legendre_counts = {n for n, r in records.items() if r.legendre_isogenous}
        assert legendre_counts == {4, 8, 12}
        assert all(r.excluded_reason != EXCLUDED_EXCEPTION
                   for r in records.values())

    def test_q3_frozen(self):
        records = {r.n: r for r in census(3)}
        assert {n for n, r in records.items() if r.legendre_isogenous} == {4}
        w = records[4].legendre_witnesses
        assert len(w) == 1 and w[0] == make_field(3)(2)

    def test_isogenous_iff_witnessed(self):
        for q in (3, 5, 7, 9, 11, 25, 27):
            for rec in census(q):
                assert rec.legendre_isogenous == bool(rec.legendre_witnesses)
                if rec.legendre_witnesses:
                    assert rec.n % 4 == 0

    def test_witnesses_sorted(self):
        for rec in census(9):
            codes = [w.field.code(w) for w in rec.legendre_witnesses]
            lex = list(make_field(3, 2)._lex_codes())
            assert codes == sorted(codes, key=lex.index)

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            census(8)

    def test_exception_is_a_nonsquare_twist_count(self):
        # over F_9 the excluded count 4 = 2q + 2 - 16 belongs to twists
        # of the supersingular Legendre curve
        f9 = make_field(3, 2)
        e = legendre(f9, f9((2, 0)))
        assert e.count_points() == 16
        tw = twist(e, f9((1, 1)))  # a non-square of F_9
        assert tw.count_points() == 4
        assert tw.group_structure() == (2, 2)

    def test_summary_fields(self):
        s = census_summary(9)
        assert s["attained_multiples_of_four"] == 4
        assert s["legendre_counts"] == 3
        assert s["reference_density"] == 3 * (1 - 1 / 3)


class TestAttainedCounts:
    @pytest.mark.parametrize("q", odd_prime_powers(49), ids=lambda q: f"q{q}")
    def test_matches_literal_families(self, q):
        f = field_of_order(q)
        assert _attained_counts(f) == literal_attained_counts(f)


class TestIsogenyWindow:
    @pytest.mark.parametrize("q", odd_prime_powers(60), ids=lambda q: f"q{q}")
    def test_small_sweep(self, q):
        assert verify_isogeny_window(q) == []

    def test_square_exceptions_are_real(self):
        # excluded counts attained by non-Legendre curves, never witnessed
        for q in (9, 25, 49):
            records = {r.n: r for r in census(q)}
            n = (normalized_r(q) + 1) ** 2
            rec = records[n]
            assert rec.excluded_reason == EXCLUDED_EXCEPTION
            assert rec.attained
            assert not rec.legendre_isogenous

    def test_unattained_counts_exist_for_higher_powers(self):
        # over F_81 some multiples of 4 in the interval belong to no
        # curve at all; they must not be flagged as failures
        records = {r.n: r for r in census(81)}
        assert not records[76].attained and not records[88].attained
        assert verify_isogeny_window(81) == []
