from functools import lru_cache

import pytest

from legcurves import classify, legendre, make_field, odd_prime_powers, twist
from legcurves.classify import (
    EXCLUDED_EXCEPTION,
    _attained_counts,
    _waterhouse_counts,
    EXCLUDED_NOT_DIV4,
    census,
    census_summary,
    hasse_interval,
    normalized_r,
    predict_legendre_isogenous,
    verify_isogeny_window,
)
from legcurves.curve import _chi_shift_sums
from legcurves.field import field_of_order


def every_a_families(f):
    """(g, bs) for every a of the three curve families: the curves
    y^2 = g(x) + b for b in bs, g as a list of codes over x."""
    q = f.q
    add = f._add_func()
    mul = f._mul_func()
    xs = range(q)
    if f.p >= 5:
        # y^2 = x^3 + a*x + b with 4a^3 + 27b^2 != 0
        c4, c27 = f.code(f(4)), f.code(f(27))
        for a in range(q):
            a3 = mul(c4, mul(a, mul(a, a)))
            yield ([add(mul(mul(x, x), x), mul(a, x)) for x in xs],
                   [b for b in range(q) if add(a3, mul(c27, mul(b, b)))])
        return
    # y^2 = x^3 + a*x^2 + b (a, b != 0) and y^2 = x^3 + a*x + b (a != 0)
    for a in range(1, q):
        yield [mul(mul(x, x), add(x, a)) for x in xs], range(1, q)
    for a in range(1, q):
        yield [add(mul(mul(x, x), x), mul(a, x)) for x in xs], range(q)


def literal_attained_counts(f):
    """The three curve families summed literally: q + 1 + the sum over x
    of chi(g(x) + b) for every (g, b), stopping once the whole Hasse
    interval has shown up."""
    q = f.q
    lo, hi = hasse_interval(q)
    remaining = set(range(lo, hi + 1))
    chi = f._chi_codes()
    add = f._add_func()
    for g, bs in every_a_families(f):
        for b in bs:
            remaining.discard(q + 1 + sum(chi[add(v, b)] for v in g))
        if not remaining:
            break
    return set(range(lo, hi + 1)) - remaining


@lru_cache(maxsize=None)
def reference_attained_counts(q):
    """The sweep that the scaling classes replace: every a of the three
    curve families, each family one histogram and one `_chi_shift_sums`
    call, stopping once the whole Hasse interval has shown up."""
    f = field_of_order(q)
    lo, hi = hasse_interval(q)
    remaining = set(range(lo, hi + 1))
    for g, bs in every_a_families(f):
        hist = [0] * q
        for v in g:
            hist[v] += 1
        sums = _chi_shift_sums(f, hist)
        remaining.difference_update([q + 1 + sums[b] for b in bs])
        if not remaining:
            break
    return frozenset(range(lo, hi + 1)) - remaining


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

    @pytest.mark.parametrize("q", odd_prime_powers(250), ids=lambda q: f"q{q}")
    def test_matches_every_a_reference(self, q):
        assert _attained_counts(field_of_order(q)) == reference_attained_counts(q)

    @pytest.mark.parametrize("q", [3, 5, 9, 13, 27, 81, 125, 2187])
    def test_at_most_six_families(self, q, monkeypatch):
        calls = []

        def counting(f, w):
            calls.append(f.q)
            return _chi_shift_sums(f, w)
        monkeypatch.setattr(classify, "_chi_shift_sums", counting)
        _attained_counts(field_of_order(q))
        # gcd(4, q - 1) + 1 families for p >= 5, 2 + gcd(4, q - 1) for p = 3
        assert len(calls) == (6 if q % 4 == 1 else 4) - (q % 3 != 0)


class TestWaterhouse:
    @pytest.mark.parametrize("q", odd_prime_powers(250), ids=lambda q: f"q{q}")
    def test_matches_every_a_reference(self, q):
        f = field_of_order(q)
        assert _waterhouse_counts(f.p, f.n) == reference_attained_counts(q)

    def test_frozen_examples(self):
        # F_9: t = 0, +-3, +-6 are the multiples of 3 (p = 3 != 1 mod 3, 4)
        assert _waterhouse_counts(3, 2) == set(range(4, 17))
        # F_25: t = +-5 stays as 5 = 2 mod 3, t = 0 goes as 5 = 1 mod 4
        assert set(range(16, 37)) - _waterhouse_counts(5, 2) == {26}
        # F_27: t = 0 and +-9 = +-3^((n+1)/2) stay, t = +-3 and +-6 go
        assert set(range(18, 39)) - _waterhouse_counts(3, 3) == {
            22, 25, 31, 34}

    # Each mutant drops families from the class list.  The Legendre
    # witnesses alone may not notice, so the Waterhouse check must.
    @pytest.mark.parametrize("mutate", [
        lambda classes: [c for c in classes if c != (0, 0)],
        lambda classes: [c for c in classes if 1 not in c],
        lambda classes: classes[:-1],
    ], ids=["no-a-zero", "no-a-one", "no-last-coset"])
    def test_dropped_family_is_caught(self, mutate, monkeypatch):
        orig = classify._scaling_classes
        monkeypatch.setattr(classify, "_scaling_classes",
                            lambda f: mutate(orig(f)))
        caught = [q for q in odd_prime_powers(400)
                  if any("Waterhouse" in line
                         for line in verify_isogeny_window(q))]
        assert caught


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
