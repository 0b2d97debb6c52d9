"""Characteristic-2 family: counts, twists, the involution, and the
Frobenius image model."""

import pytest

from legcurves.char2 import (
    Char2Curve,
    _literal_affine_count,
    _literal_image_count,
    char2_count,
    char2_is_isomorphic,
    char2_sqrt,
    char2_twist,
    fourth_root,
    frobenius_image_check,
    verify_char2_prop,
    verify_odd_intersection,
)
from legcurves.field import Field, make_field, trace2

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F16 = make_field(2, 4)


def trace_count(field, beta, lam):
    """Oracle: 2 + 2*|{x != 0 : Tr(x + beta + lambda/x^2) = 0}| via
    element arithmetic, no tables."""
    hits = 0
    for xc in range(1, field.q):
        x = field.from_code(xc)
        if trace2(x + beta + lam * (x * x).inv()) == 0:
            hits += 1
    return 2 + 2 * hits


def nested_loop_count(field, rhs):
    """Oracle: affine points of y^2 + xy = rhs(x) by a plain loop over
    every element pair, no tables."""
    elems = list(field.elements())
    total = 0
    for x in elems:
        r = rhs(x)
        for y in elems:
            if y * y + x * y == r:
                total += 1
    return total


class TestConstruction:
    def test_rejects_odd_characteristic(self):
        f3 = make_field(3)
        with pytest.raises(ValueError):
            Char2Curve(f3, f3(0), f3(1))

    def test_rejects_zero_lambda(self):
        with pytest.raises(ValueError):
            Char2Curve(F4, F4(0), F4(0))

    def test_j_invariant_is_reciprocal(self):
        for lc in range(1, 8):
            lam = F8.from_code(lc)
            e = Char2Curve(F8, F8(0), lam)
            assert e.j_invariant() * lam == F8(1)

    def test_j_injective_on_lambda(self):
        js = {Char2Curve(F16, F16(0), F16.from_code(c)).j_invariant()
              for c in range(1, 16)}
        assert len(js) == 15

    def test_equality(self):
        assert Char2Curve(F4, F4(1), F4(1)) == Char2Curve(F4, F4(1), F4(1))
        assert Char2Curve(F4, F4(0), F4(1)) != Char2Curve(F4, F4(1), F4(1))


class TestCount:
    def test_two_element_field_points(self):
        # y^2 + xy = x^3 + 1 over F_2: infinity, (0,1), (1,0), (1,1)
        e = Char2Curve(F2, F2(0), F2(1))
        assert char2_count(e) == 4
        affine = [(x, y) for x in range(2) for y in range(2)
                  if (y * y + x * y) % 2 == (x ** 3 + 1) % 2]
        assert affine == [(0, 1), (1, 0), (1, 1)]

    def test_two_element_field_twist(self):
        e = Char2Curve(F2, F2(1), F2(1))  # beta = 1 has trace 1
        assert char2_count(e) == 2
        assert 4 + 2 == 2 * 2 + 2

    def test_four_element_field(self):
        assert char2_count(Char2Curve(F4, F4(0), F4(1))) == 8
        for bc in range(4):
            beta = F4.from_code(bc)
            expected = 8 if trace2(beta) == 0 else 2
            assert char2_count(Char2Curve(F4, beta, F4(1))) == expected

    def test_frozen_counts_eight_elements(self):
        expected = {1: 4, 2: 8, 3: 12, 4: 8, 5: 12, 6: 8, 7: 12}
        for lc, n in expected.items():
            e = Char2Curve(F8, F8(0), F8.from_code(lc))
            assert char2_count(e) == n

    def test_frozen_counts_sixteen_elements(self):
        expected = {1: 16, 2: 16, 3: 16, 4: 16, 5: 16, 6: 24, 7: 24,
                    8: 20, 9: 12, 10: 20, 11: 12, 12: 20, 13: 12,
                    14: 12, 15: 20}
        for lc, n in expected.items():
            e = Char2Curve(F16, F16(0), F16.from_code(lc))
            assert char2_count(e) == n

    def test_matches_trace_oracle(self):
        for field in (F4, F8):
            for lc in range(1, field.q):
                lam = field.from_code(lc)
                for bc in range(field.q):
                    beta = field.from_code(bc)
                    e = Char2Curve(field, beta, lam)
                    assert char2_count(e) == trace_count(field, beta, lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fiber_table_matches_nested_loop(self, n):
        f = make_field(2, n)
        for lc in range(1, f.q):
            lam = f.from_code(lc)
            for bc in range(f.q):
                beta = f.from_code(bc)
                want = nested_loop_count(f, lambda x: x * x * (x + beta) + lam)
                e = Char2Curve(f, beta, lam)
                assert _literal_affine_count(e) == want
                assert char2_count(e) == 1 + want

    @pytest.mark.parametrize("check", [
        lambda lam: char2_count(Char2Curve(lam.field, 0, lam)),
        frobenius_image_check,
    ], ids=["count", "image"])
    def test_corrupt_trace_table_is_caught(self, check):
        f = Field(2, 6)  # fresh, so the interned GF(2^6) keeps good tables
        f._trace_codes()[5] ^= 1
        raised = 0
        for lc in range(1, f.q):
            try:
                check(f.from_code(lc))
            except RuntimeError:
                raised += 1
        assert raised

    def test_divisible_by_four_iff_trace_zero_beta(self):
        for lc in range(1, 16):
            lam = F16.from_code(lc)
            for bc in range(16):
                beta = F16.from_code(bc)
                n = char2_count(Char2Curve(F16, beta, lam))
                assert (n % 4 == 0) == (trace2(beta) == 0)

    def test_hasse_bound(self):
        for lc in range(1, 16):
            n = char2_count(Char2Curve(F16, F16(0), F16.from_code(lc)))
            assert (n - 17) ** 2 <= 64


class TestTwist:
    def test_moves_beta(self):
        e = Char2Curve(F8, F8(0), F8(1))
        t = char2_twist(e, F8.from_code(5))
        assert t.beta == F8.from_code(5)
        assert t.lam == e.lam

    def test_sum_over_proper_twists(self):
        # count(beta) + count(beta + alpha) = 2q + 2 when trace(alpha) = 1
        for lc in range(1, 8):
            lam = F8.from_code(lc)
            counts = {bc: char2_count(Char2Curve(F8, F8.from_code(bc), lam))
                      for bc in range(8)}
            for bc in range(8):
                for ac in range(1, 8):
                    if trace2(F8.from_code(ac)) == 1:
                        assert counts[bc] + counts[bc ^ ac] == 18

    def test_trace_zero_twist_is_isomorphic(self):
        e = Char2Curve(F4, F4(0), F4(1))
        for ac in range(1, 4):
            alpha = F4.from_code(ac)
            t = char2_twist(e, alpha)
            same = trace2(alpha) == 0
            assert char2_is_isomorphic(e, t) == same
            assert (char2_count(e) == char2_count(t)) == same

    def test_isomorphism_needs_equal_lambda(self):
        a = Char2Curve(F8, F8(0), F8.from_code(2))
        b = Char2Curve(F8, F8(0), F8.from_code(3))
        assert not char2_is_isomorphic(a, b)

    def test_isomorphism_rejects_mixed_fields(self):
        with pytest.raises(ValueError):
            char2_is_isomorphic(Char2Curve(F4, F4(0), F4(1)),
                                Char2Curve(F8, F8(0), F8(1)))


class TestInvolution:
    def test_sqrt_squares_back(self):
        f32 = make_field(2, 5)
        for c in range(32):
            a = f32.from_code(c)
            s = char2_sqrt(a)
            assert s * s == a

    def test_sqrt_rejects_odd_characteristic(self):
        f5 = make_field(5)
        with pytest.raises(ValueError):
            char2_sqrt(f5(4))

    def test_unique_fixed_point(self):
        # x -> sqrt(lambda)/x fixes exactly the fourth root of lambda
        for lc in range(1, 16):
            lam = F16.from_code(lc)
            s = char2_sqrt(lam)
            fixed = [c for c in range(1, 16)
                     if (x := F16.from_code(c)) * x == s]
            assert fixed == [F16.code(fourth_root(lam))]

    def test_fourth_root_inverts_fourth_power(self):
        for c in range(16):
            a = F16.from_code(c)
            assert fourth_root(a ** 4) == a


class TestVerify:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_prop_with_literal_sweep(self, n):
        assert verify_char2_prop(n)

    @pytest.mark.parametrize("n", [7, 8])
    def test_prop_shared_path(self, n):
        assert verify_char2_prop(n)

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_odd_intersection(self, n):
        assert verify_odd_intersection(n)

    def test_odd_intersection_larger_fields(self):
        assert verify_odd_intersection(11)
        assert verify_odd_intersection(12)


class TestFrobeniusImage:
    def test_two_element_field(self):
        # image model eta^2 + xi*eta = xi^3 + xi over F_2: (0,0) plus a
        # full fiber at xi = 1, so 4 points, matching lambda^2 = 1
        affine = [(x, y) for x in range(2) for y in range(2)
                  if (y * y + x * y) % 2 == (x ** 3 + x) % 2]
        assert len(affine) == 3
        assert frobenius_image_check(F2(1))

    def test_image_count_frozen(self):
        # over F_8 the image count at lambda equals the frozen count at
        # lambda^2 (conjugate curves share their count)
        lam = F8.from_code(2)
        sq = lam * lam
        assert char2_count(Char2Curve(F8, F8(0), sq)) == 8
        assert frobenius_image_check(lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sweep(self, n):
        f = make_field(2, n)
        for lc in range(1, f.q):
            lam = f.from_code(lc)
            assert frobenius_image_check(lam)
            assert _literal_image_count(lam) == nested_loop_count(
                f, lambda x: x * x * x + lam * x)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            frobenius_image_check(F4(0))

    def test_rejects_odd_characteristic(self):
        f7 = make_field(7)
        with pytest.raises(ValueError):
            frobenius_image_check(f7(3))
