import math

import pytest

from legcurves import (
    full_four_torsion_rational,
    is_nth_power,
    legendre,
    make_field,
)
from legcurves import supersingular
from legcurves.curve import legendre_count_table
from legcurves.field import _is_prime
from legcurves.poly import deuring
from legcurves.supersingular import (
    class_number,
    supersingular_lambdas,
    supersingular_prime_field_count,
    verify_eighth_power,
    verify_hasse_trace,
    verify_sp_formula,
    verify_ss_structure,
)

SMALL_PRIMES = [p for p in range(3, 62, 2) if _is_prime(p)]


def roots_in(f, field):
    """Distinct roots of prime-field f in `field`, lex-sorted, by Horner
    at every element: the generic reference for the root tables."""
    coeffs = [field(c) for c in reversed(f)]
    out = []
    for x in field.elements():
        acc = field.zero
        for c in coeffs:
            acc = acc * x + c
        if not acc:
            out.append(x)
    return out


def scan_lambdas(p):
    """Every root of deuring(p) in F_{p^2}, lex-sorted, by a Horner scan
    over every a + b*t on integer coordinate pairs: the reference for
    the factoring root finder."""
    poly = deuring(p)
    f2 = make_field(p, 2)
    m0 = f2.modulus[0]
    rev = poly[::-1]
    fp_roots = supersingular._prime_field_roots(poly, p)
    codes = list(fp_roots)
    # b and p - b index conjugate elements: a + b*t and a - b*t
    for b in range(1, (p - 1) // 2 + 1):
        for a in range(p):
            ac = 0
            bc = 0
            for c in rev:
                z = bc * b
                ac, bc = (ac * a - z * m0 + c) % p, (ac * b + bc * a) % p
            if ac == 0 and bc == 0:
                codes.append(a + b * p)
                codes.append(a + (p - b) * p)
    return sorted(f2.from_code(c) for c in codes)


class TestRootTables:
    def test_p3_frozen(self):
        t = supersingular_lambdas(3)
        assert [r.coeffs for r in t.roots] == [(2, 0)]
        assert t.prime_field_roots == [2]
        assert t.signed_prime == -3
        assert t.class_number == 1

    def test_p5_frozen(self):
        t = supersingular_lambdas(5)
        assert [r.coeffs for r in t.roots] == [(3, 1), (3, 4)]
        assert t.prime_field_roots == []
        assert t.signed_prime == 5
        assert t.class_number is None

    def test_p7_frozen(self):
        t = supersingular_lambdas(7)
        assert t.prime_field_roots == [2, 4, 6]
        assert len(t.roots) == 3

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_count_and_distinctness(self, p):
        t = supersingular_lambdas(p)
        assert len(t.roots) == (p - 1) // 2
        assert len(set(t.roots)) == len(t.roots)
        assert t.roots == sorted(t.roots)
        assert t.signed_prime % 4 == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_matches_generic_root_finder(self, p):
        t = supersingular_lambdas(p)
        assert t.roots == roots_in(t.polynomial, make_field(p, 2))

    def test_quadratic_modulus_has_no_linear_term(self):
        # x^2 - n, n a non-residue, comes before any x^2 + x + c in the
        # modulus scan, so the root scan steps through t^2 = -m0 only
        for p in range(3, 1024, 2):
            if _is_prime(p):
                assert make_field(p, 2).modulus[1] == 0, p

    def test_prime_field_roots_consistent(self):
        for p in SMALL_PRIMES:
            t = supersingular_lambdas(p)
            in_fp = [r for r in t.roots if all(c == 0 for c in r.coeffs[1:])]
            assert [r.coeffs[0] for r in in_fp] == t.prime_field_roots
            assert supersingular_prime_field_count(p) == len(t.prime_field_roots)

    @pytest.mark.parametrize("p", [3, 31, 199])
    def test_self_check_catches_a_wrong_count(self, p, monkeypatch):
        real = supersingular.distinct_root_count
        monkeypatch.setattr(supersingular, "distinct_root_count",
                            lambda f, p, order: real(f, p, order) + 1)
        supersingular_lambdas.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=f"p={p}"):
                supersingular_lambdas(p)
        finally:
            supersingular_lambdas.cache_clear()

    @pytest.mark.parametrize(
        "p", [p for p in range(3, 128, 2) if _is_prime(p)] + [191, 199])
    def test_matches_the_scan(self, p):
        assert supersingular_lambdas(p).roots == scan_lambdas(p)

    @pytest.mark.parametrize("p", [13, 31, 199])
    def test_a_dropped_factor_is_caught(self, p, monkeypatch):
        real = supersingular.quadratic_factors
        monkeypatch.setattr(supersingular, "quadratic_factors",
                            lambda f, p, roots, rng:
                            real(f, p, roots, rng)[1:])
        supersingular_lambdas.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=f"p={p} disagree"):
                supersingular_lambdas(p)
        finally:
            supersingular_lambdas.cache_clear()

    @pytest.mark.parametrize("p", [13, 31, 199])
    def test_a_repeated_factor_is_caught(self, p, monkeypatch):
        # its roots still evaluate to 0, so only the distinctness check
        # sees them
        real = supersingular.quadratic_factors
        monkeypatch.setattr(supersingular, "quadratic_factors",
                            lambda f, p, roots, rng:
                            (lambda fs: fs[:1] + fs)(real(f, p, roots, rng)))
        supersingular_lambdas.cache_clear()
        try:
            with pytest.raises(RuntimeError,
                               match=f"p={p}: a root was found twice"):
                supersingular_lambdas(p)
        finally:
            supersingular_lambdas.cache_clear()

    @pytest.mark.parametrize("p", [13, 31, 199])
    def test_a_wrong_root_fails_evaluation(self, p, monkeypatch):
        # the first conjugate pair comes back with its first t-coordinate
        # off by one: same count, still distinct, but not a root
        real = supersingular._quadratic_root_codes
        calls = []

        def shifted(quad, sqrt, m0, p):
            first, second = real(quad, sqrt, m0, p)
            calls.append(quad)
            if len(calls) == 1:
                first = first % p + (first // p + 1) % p * p
            return first, second
        monkeypatch.setattr(supersingular, "_quadratic_root_codes", shifted)
        supersingular_lambdas.cache_clear()
        try:
            with pytest.raises(RuntimeError,
                               match=rf"p={p}: .* is not a root"):
                supersingular_lambdas(p)
        finally:
            supersingular_lambdas.cache_clear()

    @pytest.mark.parametrize("p", [401, 419])
    def test_past_the_scan(self, p):
        t = supersingular_lambdas(p)
        pairs = [r.coeffs for r in t.roots]
        assert len(pairs) == (p - 1) // 2
        assert len(set(pairs)) == len(pairs)
        assert t.roots == sorted(t.roots)
        in_fp = [a for a, b in pairs if b == 0]
        assert in_fp == t.prime_field_roots
        assert len(in_fp) == supersingular_prime_field_count(p)

    def test_rejects_non_primes(self):
        for bad in (2, 9, 15, 1):
            with pytest.raises(ValueError):
                supersingular_lambdas(bad)
            with pytest.raises(ValueError):
                supersingular_prime_field_count(bad)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_roots_are_supersingular_over_fp(self, p):
        # a root in F_p gives a trace-zero count over F_p
        f = make_field(p)
        for a in supersingular_lambdas(p).prime_field_roots:
            assert legendre(f, a).count_points() == p + 1


class TestClassNumbers:
    @pytest.mark.parametrize("p,h", [(3, 1), (7, 1), (11, 1), (19, 1),
                                     (23, 3), (31, 3), (47, 5), (71, 7),
                                     (163, 1)])
    def test_frozen_values(self, p, h):
        assert class_number(p) == h

    def test_wrong_residue_rejected(self):
        for p in (5, 13, 17):
            with pytest.raises(ValueError):
                class_number(p)

    def test_lower_bound(self):
        for p in range(3, 500, 4):
            if _is_prime(p) and p % 4 == 3:
                assert class_number(p) > math.log(p) / 55


class TestStructure:
    @pytest.mark.parametrize("p,d", [(3, 4), (5, 4), (7, 8)])
    def test_frozen_invariant_factors(self, p, d):
        t = supersingular_lambdas(p)
        f2 = make_field(p, 2)
        for lam in t.roots:
            e = legendre(f2, lam)
            assert e.count_points() == d * d
            assert e.group_structure() == (d, d)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_sweep(self, p):
        assert verify_ss_structure(p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
    def test_full_four_torsion_and_fourth_powers(self, p):
        for lam in supersingular_lambdas(p).roots:
            assert full_four_torsion_rational(legendre(lam.field, lam))
            assert is_nth_power(lam, 4)


class TestEighthPowers:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_both_oracles_true(self, p):
        assert verify_eighth_power(p)

    def test_elementwise_eighth_power_direct(self):
        for p in (7, 11, 13):
            for lam in supersingular_lambdas(p).roots:
                assert is_nth_power(-lam, 8)


class TestHasseTrace:
    @pytest.mark.parametrize("p", [p for p in range(17, 128) if _is_prime(p)])
    def test_identity(self, p):
        assert verify_hasse_trace(p) == []

    def test_rejects_small_and_composite(self):
        for bad in (3, 13, 15, 25, 49):
            with pytest.raises(ValueError):
                verify_hasse_trace(bad)

    @pytest.mark.parametrize("p", [17, 67, 127])
    def test_catches_a_wrong_count(self, p, monkeypatch):
        def shifted(field, cap=None):
            table = legendre_count_table(field, cap)
            table[5] += 4
            return table
        monkeypatch.setattr(supersingular, "legendre_count_table", shifted)
        failures = verify_hasse_trace(p)
        assert len(failures) == 1
        assert failures[0].startswith(f"p={p} lambda=5:")


class TestPrimeFieldCount:
    def test_frozen_counts(self):
        assert supersingular_prime_field_count(13) == 0
        assert supersingular_prime_field_count(3) == 1
        assert supersingular_prime_field_count(23) == 9

    @pytest.mark.parametrize("p", [p for p in range(3, 200, 2) if _is_prime(p)])
    def test_formula(self, p):
        assert verify_sp_formula(p)

    def test_zero_iff_one_mod_four(self):
        for p in SMALL_PRIMES:
            s = supersingular_prime_field_count(p)
            assert (s == 0) == (p % 4 == 1)
            if p % 4 == 3:
                assert s % 2 == 1

    def test_minus_one_is_a_root_for_three_mod_four(self):
        for p in range(3, 500, 2):
            if not _is_prime(p) or p % 4 != 3:
                continue
            acc = 0
            for c in reversed(deuring(p)):  # Horner at x = -1
                acc = (-acc + c) % p
            assert acc == 0, p
