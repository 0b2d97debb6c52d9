import pytest

from legcurves import (
    INFINITY,
    Curve,
    Point,
    count_four_torsion,
    full_four_torsion_rational,
    is_isomorphic,
    is_legendre_isomorphic,
    isomorphism_classes,
    j_of_lambda,
    legendre,
    legendre_count_table,
    make_field,
    orbit,
    quadratic_character,
    sqrt,
    twist,
)
from legcurves import curve as curve_module
from legcurves.curve import (
    verify_class_sizes,
    verify_four_torsion_equivalence,
    verify_group_law,
    verify_nonsquare_twist_isomorphism,
    verify_twist_counts,
    verify_two_descent_kernel,
)

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
F11 = make_field(11)
F13 = make_field(13)
F23 = make_field(23)
F25 = make_field(5, 2)
F27 = make_field(3, 3)


def naive_count(curve):
    """Literal double loop over (x, y); the independent counting oracle."""
    f = curve.field
    total = 1
    for x in f.elements():
        rhs = curve.rhs(x)
        for y in f.elements():
            if curve.delta * y * y == rhs:
                total += 1
    return total


class TestConstruction:
    def test_legendre_roots(self):
        e = legendre(F5, 2)
        assert e.roots == (F5.zero, F5.one, F5(2))
        assert e.delta == F5.one
        assert e.legendre_lambda == F5(2)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            legendre(F5, 1)
        with pytest.raises(ValueError):
            legendre(F5, 0)
        with pytest.raises(ValueError):
            Curve(F5, 1, 1, 2)

    def test_zero_twist_rejected(self):
        with pytest.raises(ValueError):
            Curve(F5, 0, 1, 2, delta=0)
        with pytest.raises(ValueError):
            twist(legendre(F5, 2), 0)

    def test_even_characteristic_rejected(self):
        f4 = make_field(2, 2)
        with pytest.raises(ValueError):
            Curve(f4, 0, 1, f4((0, 1)))

    def test_twist_by_one_is_identity(self):
        e = legendre(F5, 2)
        assert twist(e, 1) == e

    def test_non_legendre_has_no_lambda(self):
        assert Curve(F5, 0, 2, 3).legendre_lambda is None
        assert Curve(F5, 0, 1, 2, delta=2).legendre_lambda is None

    def test_point_needs_both_coordinates(self):
        with pytest.raises(ValueError):
            Point(F5(1))


class TestCounting:
    def test_frozen_counts(self):
        assert legendre(F5, 2).count_points() == 8
        assert legendre(F5, 3).count_points() == 4
        assert legendre(F5, 4).count_points() == 8
        assert legendre(F3, 2).count_points() == 4

    @pytest.mark.parametrize("field", [F3, F5, F7, F9, F11, F13],
                             ids=lambda f: f"q{f.q}")
    def test_count_matches_naive_oracle(self, field):
        for code, n in legendre_count_table(field).items():
            e = legendre(field, field.from_code(code))
            assert n == naive_count(e) == e.count_points()

    def test_naive_oracle_on_extension_fields(self):
        for field, lam in [(F25, F25((2, 1))), (F27, F27((0, 1, 0)))]:
            e = legendre(field, lam)
            assert e.count_points() == naive_count(e)

    def test_twisted_count_matches_naive_oracle(self):
        for d in (2, 3, 4):
            e = twist(legendre(F13, 5), d)
            assert e.count_points() == naive_count(e)

    def test_counts_divisible_by_four(self):
        for field in (F5, F7, F9, F11, F13, F25, F27):
            for n in legendre_count_table(field).values():
                assert n % 4 == 0

    def test_hasse_bound(self):
        for field in (F7, F25):
            q = field.q
            for n in legendre_count_table(field).values():
                assert (n - q - 1) ** 2 <= 4 * q

    def test_points_enumeration(self):
        e = legendre(F5, 2)
        pts = e.points()
        assert pts[0] is INFINITY
        assert len(pts) == 8
        assert all(e.contains(p) for p in pts)
        assert pts == e.points()
        xs = [p.x for p in pts[1:]]
        assert xs == sorted(xs)


class TestGroupLaw:
    def test_identity_and_inverse(self):
        e = legendre(F5, 2)
        p = Point(F5(3), F5(1))
        assert e.contains(p)
        assert e.add(p, INFINITY) == p
        assert e.add(p, e.neg(p)) == INFINITY

    def test_two_torsion_doubles_to_infinity(self):
        e = legendre(F5, 2)
        for r in e.roots:
            t = Point(r, F5.zero)
            assert e.add(t, t) == INFINITY

    def test_off_curve_rejected(self):
        e = legendre(F5, 2)
        bad = Point(F5(3), F5(2))
        assert not e.contains(bad)
        with pytest.raises(ValueError):
            e.add(bad, INFINITY)
        with pytest.raises(ValueError):
            e.multiply(bad, 2)

    def test_scalar_multiples(self):
        e = legendre(F5, 2)
        n = e.count_points()
        for p in e.points():
            assert e.multiply(p, n) == INFINITY
            assert e.multiply(p, 1) == p
            assert e.multiply(p, -1) == e.neg(p)
            assert e.multiply(p, 0) == INFINITY

    def test_frozen_group_structures(self):
        assert legendre(F5, 2).group_structure() == (2, 4)
        assert legendre(F5, 3).group_structure() == (2, 2)
        e9 = legendre(F9, F9((2, 0)))
        assert e9.count_points() == 16
        assert e9.group_structure() == (4, 4)

    def test_first_factor_is_even(self):
        for field in (F5, F7, F9, F11):
            for code in legendre_count_table(field):
                d1, d2 = legendre(field, field.from_code(code)).group_structure()
                assert d1 % 2 == 0 and d2 % d1 == 0

    @pytest.mark.parametrize("field", [F3, F5, F7, F9, F11, F13],
                             ids=lambda f: f"q{f.q}")
    def test_group_law_sweep(self, field):
        assert verify_group_law(field, curves=30, triples=120) == []


class TestTwists:
    def test_frozen_twist_sum(self):
        e = legendre(F5, 2)
        assert e.count_points() + twist(e, 2).count_points() == 12

    def test_square_twist_preserves_count(self):
        e = legendre(F7, 3)
        assert twist(e, 2).count_points() == e.count_points()  # 2 = 3^2 mod 7
        assert twist(twist(e, 5), 5).count_points() == e.count_points()

    @pytest.mark.parametrize("field", [F5, F7, F9, F11, F13],
                             ids=lambda f: f"q{f.q}")
    def test_twist_count_sweep(self, field):
        assert verify_twist_counts(field) == []

    @pytest.mark.parametrize("field", [F7, F9], ids=lambda f: f"q{f.q}")
    def test_twist_count_sweep_catches_a_wrong_count(self, field, monkeypatch):
        real = curve_module.legendre_count_table

        def one_count_off(f, cap=None):
            table = real(f, cap)
            table[next(iter(table))] += 1
            return table
        monkeypatch.setattr(curve_module, "legendre_count_table", one_count_off)
        failures = verify_twist_counts(field)
        assert any("twist counts sum" in msg for msg in failures)


class TestOrbit:
    def test_frozen_orbit(self):
        assert orbit(F5(2)) == {F5(2), F5(3), F5(4)}

    def test_lambda_in_orbit_and_endpoints_excluded(self):
        for field in (F7, F9, F13):
            for c in range(field.q):
                lam = field.from_code(c)
                if lam == field.zero or lam == field.one:
                    continue
                orb = orbit(lam)
                assert lam in orb
                assert field.zero not in orb and field.one not in orb

    def test_orbit_size_classification(self):
        for field in (F7, F9, F13, F25):
            one = field.one
            special = {-one, field(2), field(2).inv()}
            for c in range(field.q):
                lam = field.from_code(c)
                if lam == field.zero or lam == one:
                    continue
                size = len(orbit(lam))
                assert size in (1, 2, 3, 6)
                generic = lam not in special and lam * lam - lam + one != field.zero
                assert (size == 6) == generic

    def test_j_constant_on_orbit(self):
        for field in (F7, F9, F13):
            for c in range(2, field.q):
                lam = field.from_code(c)
                if lam == field.zero or lam == field.one:
                    continue
                j = j_of_lambda(lam)
                assert all(j_of_lambda(mu) == j for mu in orbit(lam))

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            orbit(F5.zero)
        with pytest.raises(ValueError):
            orbit(F5.one)


class TestJInvariant:
    def test_frozen_value(self):
        assert legendre(F7, -1).j_invariant() == F7(6)  # 1728 mod 7

    def test_matches_lambda_formula(self):
        for field in (F5, F9, F13):
            for c in legendre_count_table(field):
                lam = field.from_code(c)
                assert legendre(field, lam).j_invariant() == j_of_lambda(lam)

    def test_twist_invariant(self):
        e = legendre(F13, 6)
        assert twist(e, 2).j_invariant() == e.j_invariant()

    def test_root_translation_invariant(self):
        # same cross-ratio, shifted and scaled roots
        assert Curve(F13, 1, 3, 7).j_invariant() == \
            Curve(F13, 2, 6, 1).j_invariant()  # roots doubled mod 13


class TestIsomorphism:
    def test_reflexive(self):
        e = legendre(F7, 2)
        assert is_isomorphic(e, e)

    def test_frozen_pairs(self):
        assert is_isomorphic(legendre(F7, 2), legendre(F7, 4))
        assert not is_isomorphic(legendre(F5, 3), legendre(F5, 2))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            is_isomorphic(legendre(F5, 2), legendre(F7, 2))

    def test_equal_j_count_and_structure_do_not_imply_isomorphic(self):
        # nonsquare twist of a trace-zero curve: every coarse invariant
        # agrees, yet no coordinate change exists
        e = legendre(F23, 3)
        tw = twist(e, 5)
        assert quadratic_character(F23(5)) == -1
        assert e.count_points() == tw.count_points() == 24
        assert e.j_invariant() == tw.j_invariant() == F23(19)
        assert e.group_structure() == tw.group_structure() == (2, 12)
        assert not is_isomorphic(e, tw)

    def test_legendre_membership_frozen_counterexample(self):
        # y^2 = x(x+2)(x-5) over F_13: none of +-2, +-5, +-7 is a square
        e = Curve(F13, 0, -2, 5)
        assert not is_legendre_isomorphic(e)
        assert e.count_points() % 4 == 0  # yet isogenous to the family

    def test_legendre_membership_square_criterion(self):
        # for y^2 = x(x-a)(x-b): member of the Legendre family exactly
        # when one of +-a, +-b, +-(a-b) is a square
        for field in (F11, F13):
            for a in range(1, field.q):
                for b in range(a + 1, field.q):
                    fa, fb = field.from_code(a), field.from_code(b)
                    e = Curve(field, 0, fa, fb)
                    witness = any(
                        quadratic_character(v) == 1
                        for v in (fa, -fa, fb, -fb, fa - fb, fb - fa))
                    assert is_legendre_isomorphic(e) == witness


class TestDescent:
    def test_two_torsion_image_formula(self):
        e = legendre(F5, 3)
        img = e.descent_image(Point(F5.zero, F5.zero))
        # chi(0-1) = chi(4) = +1, chi(0-3) = chi(2) = -1
        assert img == (-1, 1, -1)
        assert img != (1, 1, 1)  # (0,0) is not a double: 2E(F_5) = {inf}

    def test_doubles_have_trivial_image(self):
        e = legendre(F13, 4)
        for p in e.points()[1:]:
            d = e.add(p, p)
            if not d.is_infinity:
                assert e.descent_image(d) == (1, 1, 1)

    def test_errors(self):
        e = legendre(F5, 2)
        with pytest.raises(ValueError):
            e.descent_image(INFINITY)
        with pytest.raises(ValueError):
            twist(e, 2).descent_image(Point(F5.zero, F5.zero))
        with pytest.raises(ValueError):
            e.descent_image(Point(F5(3), F5(2)))

    @pytest.mark.parametrize("field", [F5, F7, F9, F11, F13],
                             ids=lambda f: f"q{f.q}")
    def test_kernel_sweep(self, field):
        assert verify_two_descent_kernel(field) == []


class TestTwistIsomorphism:
    def test_self_twist_isomorphic_example(self):
        e = legendre(F7, 6)  # j = 1728, 8 = q+1 points
        assert e.j_invariant() == F7(6)
        assert e.count_points() == 8
        assert is_isomorphic(e, twist(e, 3))  # 3 is a non-square mod 7

    def test_q_1_mod_4_never_self_twist_isomorphic(self):
        for c in legendre_count_table(F13):
            e = legendre(F13, F13.from_code(c))
            assert not is_isomorphic(e, twist(e, 2))  # chi_13(2) = -1

    @pytest.mark.parametrize("field", [F5, F7, F9, F11, F13, F23],
                             ids=lambda f: f"q{f.q}")
    def test_sweep(self, field):
        assert verify_nonsquare_twist_isomorphism(field) == []


class TestFourTorsion:
    def test_frozen_example(self):
        e = legendre(F13, 4)
        assert full_four_torsion_rational(e)
        assert count_four_torsion(e) == 16
        assert e.count_points() == 16
        assert e.group_structure() == (4, 4)

    def test_q_3_mod_4_never_full(self):
        for c in legendre_count_table(F7):
            assert not full_four_torsion_rational(legendre(F7, F7.from_code(c)))

    def test_four_torsion_count_values(self):
        for field in (F5, F13):
            for c in legendre_count_table(field):
                assert count_four_torsion(
                    legendre(field, field.from_code(c))) in (4, 8, 16)

    @pytest.mark.parametrize("field", [F5, F7, F9, F13, F25],
                             ids=lambda f: f"q{f.q}")
    def test_equivalence_sweep(self, field):
        assert verify_four_torsion_equivalence(field) == []


class TestTwoIsogeny:
    def test_frozen_example(self):
        e = legendre(F13, 4)
        image = e.two_isogeny()
        assert image == F13(9)  # canonical sqrt(4) = 2, ((2+1)/(2-1))^2
        assert legendre(F13, image).count_points() == e.count_points()

    def test_nonsquare_gives_none(self):
        assert legendre(F13, 5).two_isogeny() is None  # chi_13(5) = -1

    def test_non_legendre_rejected(self):
        with pytest.raises(ValueError):
            Curve(F13, 0, 2, 3).two_isogeny()

    def test_counts_agree_wherever_defined(self):
        for field in (F9, F13, F25):
            table = legendre_count_table(field)
            for c, n in table.items():
                image = legendre(field, field.from_code(c)).two_isogeny()
                if image is not None:
                    assert table[field.code(image)] == n

    def test_complement_identity(self):
        # 1 - image = -4*s/(s-1)^2 for s the chosen square root
        for field in (F9, F13, F25):
            for c in legendre_count_table(field):
                lam = field.from_code(c)
                s = sqrt(lam)
                if s is None:
                    continue
                image = legendre(field, lam).two_isogeny()
                d = s - field.one
                assert field.one - image == field(-4) * s / (d * d)


class TestOrderFourPoint:
    # with s = sqrt(lambda) and i = sqrt(-1), the point (s, i(lambda-s))
    # doubles to (0, 0), so it has order 4
    @pytest.mark.parametrize("field", [F9, F13, F25], ids=lambda f: f"q{f.q}")
    def test_doubling_lands_on_two_torsion(self, field):
        i = sqrt(field(-1))
        assert i is not None
        for c in legendre_count_table(field):
            lam = field.from_code(c)
            s = sqrt(lam)
            if s is None or s == field.one or s == -field.one:
                continue
            e = legendre(field, lam)
            p = Point(s, i * (lam - s))
            assert e.contains(p)
            assert e.add(p, p) == Point(field.zero, field.zero)
            assert e.multiply(p, 4) == INFINITY


class TestClassSizes:
    def test_frozen_partitions(self):
        assert isomorphism_classes(F7) == [[2, 4, 6], [3], [5]]
        assert isomorphism_classes(F11) == [[2, 6, 10], [3, 4, 7], [5, 8, 9]]

    def test_singleton_classes_have_j_zero(self):
        for cls in isomorphism_classes(F7):
            if len(cls) != 3:
                assert j_of_lambda(F7.from_code(cls[0])) == F7.zero

    @pytest.mark.parametrize("q", [7, 11, 19, 23], ids=lambda q: f"q{q}")
    def test_sweep(self, q):
        assert verify_class_sizes(make_field(q)) == []

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_class_sizes(F5)  # q = 1 mod 4
        with pytest.raises(ValueError):
            verify_class_sizes(F27)  # p = 3
