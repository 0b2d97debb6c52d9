import itertools
import math
import random
import tracemalloc

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
from legcurves.field import (
    DEFAULT_ENUMERATION_CAP,
    Field,
    field_of_order,
    odd_prime_powers,
    prime_factors,
)
from legcurves.curve import (
    _chi_shift_sums,
    _cubic_codes,
    _trace_zero_triples,
    _unrank_triple,
    verify_class_sizes,
    verify_four_torsion_equivalence,
    verify_group_law,
    verify_nonsquare_twist_isomorphism,
    verify_shift_sums,
    verify_twist_counts,
    verify_two_descent_kernel,
)
from legcurves.stats import legendre_sum
from legcurves.supersingular import supersingular_lambdas

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


def per_divisor_group_structure(field, roots):
    """Group structure with each point order found by testing [n/l]P
    anew for every prime l dividing the running order: the
    reference for the relation-lattice kernel `_group_structure_codes`."""
    affine = curve_module._affine_codes(field, roots)
    eadd = curve_module._chord_tangent(field, roots)

    def emul(point, k):
        acc = None
        while k:
            if k & 1:
                acc = eadd(acc, point)
            point = eadd(point, point)
            k >>= 1
        return acc

    n = len(affine) + 1
    exponent = 1
    for pt in affine:
        o = n
        for ell in prime_factors(n):
            while o % ell == 0 and emul(pt, o // ell) is None:
                o //= ell
        exponent = math.lcm(exponent, o)
    return (n // exponent, exponent)


def fe_chord_tangent(curve, p1, p2):
    """The chord-tangent law of delta*y^2 = (x-alpha)(x-beta)(x-gamma)
    on Fe points: the reference for the integer-code `_chord_tangent`."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    f = curve.field
    a, b, c = curve.roots
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    s1 = a + b + c
    if x1 == x2:
        if y1 == -y2:
            return INFINITY
        if y1 != y2:
            raise RuntimeError("impossible point pair; inputs off-curve?")
        # tangent: implicit differentiation of delta*y^2 = f(x)
        fp = f(3) * x1 * x1 - f(2) * s1 * x1 + a * b + a * c + b * c
        m = fp / (f(2) * curve.delta * y1)
    else:
        m = (y2 - y1) / (x2 - x1)
    x3 = curve.delta * m * m + s1 - x1 - x2
    return Point(x3, -(y1 + m * (x3 - x1)))


def fe_count_four_torsion(curve):
    """Points killed by 4, each doubled with the Fe law on the curve
    itself: the reference for the monic-model code count."""
    total = 1
    for pt in curve.points()[1:]:
        d = fe_chord_tangent(curve, pt, pt)
        if d.is_infinity or not d.y:
            total += 1
    return total


# mutants of the code law, which verify_group_law must reject; each
# wraps the real law, kept here before any test patches it
_chord_tangent = curve_module._chord_tangent


def wrong_tangent_law(field, roots, arith=None):
    """2*x^2 in place of 3*x^2 in the tangent slope."""
    law = _chord_tangent(field, roots, arith)
    add, sub, mul = field._add_func(), field._sub_func(), field._mul_func()
    inv, neg = field._inv_codes(), field._neg_codes()
    ra, rb, rc = roots
    two = field.code(field(2))
    s1 = add(add(ra, rb), rc)
    s2 = add(add(mul(ra, rb), mul(ra, rc)), mul(rb, rc))

    def eadd(p1, p2):
        if p1 is None or p1 != p2 or not p1[1]:
            return law(p1, p2)
        x1, y1 = p1
        fp = add(sub(mul(two, mul(x1, x1)), mul(two, mul(s1, x1))), s2)
        m = mul(fp, inv[mul(two, y1)])
        x3 = sub(sub(add(mul(m, m), s1), x1), x1)
        return x3, neg[add(y1, mul(m, sub(x3, x1)))]
    return eadd


# the real x-only doubling map, kept before any test patches it
_double_x_codes = curve_module._double_x_codes


def half_denominator_map(field, roots):
    """x(2P) with 2f(x) in place of 4f(x): f'(x)^2 / (2f(x)) + s1 - 2x,
    which is 2 * x(2P) - s1 + 2x."""
    add, sub = field._add_func(), field._sub_func()
    s1 = add(add(roots[0], roots[1]), roots[2])
    return {x: add(sub(add(x2, x2), s1), add(x, x))
            for x, x2 in _double_x_codes(field, roots).items()}


def y_plus_one_law(field, roots, arith=None):
    """Every affine sum has y + 1 in place of y."""
    law = _chord_tangent(field, roots, arith)
    add = field._add_func()

    def eadd(p1, p2):
        r = law(p1, p2)
        return None if r is None else (r[0], add(r[1], 1))
    return eadd


def no_inverse_law(field, roots, arith=None):
    """P + (-P) is P."""
    law = _chord_tangent(field, roots, arith)

    def eadd(p1, p2):
        r = law(p1, p2)
        return p1 if r is None and p1 is not None else r
    return eadd


def fe_root_transform_exists(field, roots1, roots2):
    """The isomorphism search on Fe elements: the reference for the
    integer-code search of `_root_transform_exists`."""
    target = set(roots1)
    for s in field.elements():
        if quadratic_character(s) != 1:
            continue
        im = [s * r for r in roots2]
        for r in roots1:
            t = r - im[0]
            if {im[0] + t, im[1] + t, im[2] + t} == target:
                return True
    return False


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
        for curve, deltas in [
                (legendre(F13, 5), (2, 3, 4)),
                (legendre(F25, F25((2, 1))), ((0, 1), 2, (1, 1))),
                (legendre(F27, F27((0, 1, 0))), ((0, 0, 2), (0, 1, 1), 2))]:
            for d in deltas:
                e = twist(curve, d)
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

    @pytest.mark.parametrize("field", [F9, F25, F27], ids=lambda f: f"q{f.q}")
    def test_points_order_on_nonsquare_twists(self, field):
        els = list(field.elements())
        d = next(d for d in els if d and quadratic_character(d) == -1)
        for roots in itertools.combinations(els[:5], 3):
            e = Curve(field, *roots, d)
            expected = [INFINITY]
            for x in els:
                y = sqrt(e.rhs(x) / d)
                if y is not None:
                    expected.append(Point(x, y))
                    if y:
                        expected.append(Point(x, -y))
            assert e.points() == expected


def literal_count_table(field):
    """The A - lambda*B sweep with A = x^2(x-1), B = x(x-1): one multiply
    and one character lookup per (lambda, x) pair."""
    q = field.q
    chi = field._chi_codes()
    mul = field._mul_func()
    sub = field._sub_func()
    ab = []
    for x in range(q):
        b = mul(x, sub(x, 1))
        ab.append((mul(x, b), b))
    return {lam: q + 1 + sum(chi[sub(a, mul(lam, b))] for a, b in ab)
            for lam in field._lex_codes() if lam not in (0, 1)}


class TestCountTable:
    # 729 and 2187 take the log-indexed correlation of an extension field
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 125,
                                   243, 729, 2187], ids=lambda q: f"q{q}")
    def test_matches_literal_loop(self, q):
        f = field_of_order(q)
        table = legendre_count_table(f)
        assert list(table.items()) == list(literal_count_table(f).items())

    @pytest.mark.parametrize("q", [7, 9, 27], ids=lambda q: f"q{q}")
    def test_hasse_guard(self, q, monkeypatch):
        f = field_of_order(q)
        real = curve_module._chi_shift_sums
        lam = next(c for c in f._lex_codes() if c > 1)

        def one_slot_off(field, w):
            sums = real(field, w)
            sums[field._neg_codes()[lam]] += 4 * field.q
            return sums
        monkeypatch.setattr(curve_module, "_chi_shift_sums", one_slot_off)
        with pytest.raises(RuntimeError, match="Hasse bound"):
            legendre_count_table(f)


def closure_literal_counts(field, d):
    """|{(x, y) : d*y^2 = x(x-1)(x-lambda)}| for every lambda code by the
    nested pass: one `sub` and one `mul` closure call per (x, lambda)
    pair, on the cubic a - lambda*b with a = x^2(x-1), b = x(x-1)."""
    q = field.q
    sub = field._sub_func()
    mul = field._mul_func()
    hist = [0] * q
    for y in range(q):
        hist[mul(d, mul(y, y))] += 1
    ab = [(mul(x, b), b) for x in range(q) for b in [mul(x, sub(x, 1))]]
    return [sum(hist[sub(a, mul(lam, b))] for a, b in ab)
            for lam in range(q)]


class TestLiteralCount:
    @pytest.mark.parametrize("q", odd_prime_powers(125) + [343],
                             ids=lambda q: f"q{q}")
    def test_matches_closure_pass(self, q):
        f = field_of_order(q)
        for d in (1, curve_module._first_nonsquare_code(f)):
            assert (curve_module._literal_legendre_counts(f, d)
                    == closure_literal_counts(f, d))

    @pytest.mark.parametrize("q", [13, 25, 27], ids=lambda q: f"q{q}")
    def test_reads_no_character_table(self, q, monkeypatch):
        def refuse(self):
            raise AssertionError("the literal count read a character table")
        monkeypatch.setattr(Field, "_chi_codes", refuse)
        monkeypatch.setattr(Field, "_sqrt_codes", refuse)
        f = field_of_order(q)
        assert (curve_module._literal_legendre_counts(f, 1)
                == closure_literal_counts(f, 1))

    # the count table of a prime field reads no log table, so a broken
    # one shows only in the literal count, and legendre_sum must say so
    @pytest.mark.parametrize("i, j", [(1, 2), (3, 7)], ids=["1-2", "3-7"])
    @pytest.mark.parametrize("q", [13, 29], ids=lambda q: f"q{q}")
    def test_swapped_log_table_is_caught(self, q, i, j, monkeypatch):
        real = Field._explog

        def swapped(self):
            exp, log = map(list, real(self))
            exp[i], exp[j] = exp[j], exp[i]
            log[exp[i]], log[exp[j]] = i, j
            return exp, log
        f = field_of_order(q)
        # tables built from the swapped logs must not outlive the test
        monkeypatch.setattr(f, "_tab", dict(f._tab))
        monkeypatch.setattr(Field, "_explog", swapped)
        with pytest.raises(RuntimeError, match="count table .* and literal "
                                               "count .* disagree"):
            legendre_sum(q)


class TestShiftSums:
    @pytest.mark.parametrize("q", [3, 5, 9, 13, 25, 27, 49, 81, 125, 243],
                             ids=lambda q: f"q{q}")
    def test_matches_double_loop(self, q):
        f = field_of_order(q)
        chi = f._chi_codes()
        add = f._add_func()
        rng = random.Random(q)
        for w in ([rng.randrange(-5, 6) for _ in range(q)],
                  [rng.randrange(0, 3) for _ in range(q)],
                  [7] * q):
            want = [sum(w[v] * chi[add(v, b)] for v in range(q))
                    for b in range(q)]
            assert _chi_shift_sums(f, w) == want

    @pytest.mark.parametrize("q", [3, 9, 25, 49, 121], ids=lambda q: f"q{q}")
    def test_verify_sweep(self, q):
        assert verify_shift_sums(field_of_order(q)) == []

    def test_verify_sweep_catches_a_wrong_sum(self, monkeypatch):
        real = curve_module._chi_shift_sums

        def last_sum_off(field, w):
            sums = real(field, w)
            sums[-1] += 1
            return sums
        monkeypatch.setattr(curve_module, "_chi_shift_sums", last_sum_off)
        failures = verify_shift_sums(F9)
        assert len(failures) == 2 and all("b=8" in m for m in failures)

    # one cyclic correlation: each operand holds one slot per element of
    # F_q (prime) or F_q^* (extension)
    @pytest.mark.parametrize("q", [729, 2187, 2609], ids=lambda q: f"q{q}")
    def test_packed_operands_hold_at_most_q_slots(self, q, monkeypatch):
        real = curve_module._pack
        sizes = []

        def spy(slots, code):
            sizes.append(len(slots))
            return real(slots, code)
        monkeypatch.setattr(curve_module, "_pack", spy)
        legendre_count_table(field_of_order(q))
        assert sizes and max(sizes) <= q

    @pytest.mark.parametrize("q", [7, 9], ids=lambda q: f"q{q}")
    def test_weights_beyond_32_bit_slots_are_refused(self, q):
        w = [0] * (q - 1) + [1 << 31]
        with pytest.raises(ValueError, match="weights too large"):
            _chi_shift_sums(field_of_order(q), w)


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

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27],
                             ids=lambda q: f"q{q}")
    def test_lattice_matches_per_divisor_loop(self, q):
        f = field_of_order(q)
        for roots in itertools.combinations(range(q), 3):
            assert (curve_module._group_structure_codes(f, roots)
                    == per_divisor_group_structure(f, roots)), roots

    def test_lattice_on_supersingular_curves(self):
        lams = supersingular_lambdas(31).roots
        assert len(lams) == 15
        f = lams[0].field
        for lam in lams:
            roots = (0, 1, f.code(lam))
            assert (curve_module._group_structure_codes(f, roots)
                    == per_divisor_group_structure(f, roots) == (32, 32))

    # a broken law or point list must raise or change the answer, on the
    # p = 31 curves (two walks) and every monic curve of F_13 (which
    # also takes three and four generators)
    MUTANT_CURVES = ([(F13, r) for r in itertools.combinations(range(13), 3)]
                     + [(lams[0].field, (0, 1, lams[0].field.code(lam)))
                        for lams in [supersingular_lambdas(31).roots]
                        for lam in lams])

    def _caught(self, monkeypatch, law=None, points=None):
        """The curves of MUTANT_CURVES on which the kernel, with `law`
        wrapping the chord-tangent law or `points` the point list,
        returns the true answer; each other one raised or differed."""
        true = {roots: curve_module._group_structure_codes(f, roots)
                for f, roots in self.MUTANT_CURVES}
        if law is not None:
            chord_tangent = curve_module._chord_tangent
            monkeypatch.setattr(curve_module, "_chord_tangent",
                                lambda f, r: law(f, chord_tangent(f, r)))
        if points is not None:
            affine = curve_module._affine_codes
            monkeypatch.setattr(curve_module, "_affine_codes",
                                lambda f, r: points(affine(f, r)))
        unchanged = []
        for f, roots in self.MUTANT_CURVES:
            try:
                got = curve_module._group_structure_codes(f, roots)
            except RuntimeError:
                continue
            if got == true[roots]:
                unchanged.append(roots)
        return unchanged

    def test_a_perturbed_law_is_caught(self, monkeypatch):
        def law(f, eadd):
            neg = f._neg_codes()

            def perturbed(p1, p2):
                # a chord that lands on -(P + Q) instead of P + Q
                r = eadd(p1, p2)
                if None not in (p1, p2, r) and p1[0] != p2[0]:
                    return (r[0], neg[r[1]])
                return r
            return perturbed
        assert self._caught(monkeypatch, law=law) == []

    def test_an_off_curve_point_is_named(self, monkeypatch):
        # x(P + Q) shifted by 1 on the F_13 curves: an off-curve point
        # reaches the law beside a point with its x, and the law names
        # both instead of reading the missing inverse of 0
        def law(f, eadd):
            def shifted(p1, p2):
                r = eadd(p1, p2)
                if None not in (p1, p2, r) and p1[0] != p2[0]:
                    return ((r[0] + 1) % f.p, r[1])
                return r
            return shifted
        chord_tangent = curve_module._chord_tangent
        monkeypatch.setattr(curve_module, "_chord_tangent",
                            lambda f, r: law(f, chord_tangent(f, r)))
        named = r"\(\d+, \d+\) and \(\d+, \d+\) share x but are neither"
        with pytest.raises(RuntimeError, match=named):
            # lambda = 6 read the inverse of 0 and raised TypeError
            curve_module._group_structure_codes(F13, (0, 1, 6))
        # and no curve of F_13 fails with anything but a RuntimeError
        for roots in itertools.combinations(range(13), 3):
            try:
                curve_module._group_structure_codes(F13, roots)
            except RuntimeError:
                pass

    @pytest.mark.parametrize("arith", [None, curve_module._FE_ARITH],
                             ids=["codes", "fe"])
    def test_same_x_other_y_raises(self, arith):
        # (3, 1) is on y^2 = x(x - 1)(x - 5) over F_13, (3, 5) is not
        f = F13
        pts = [(3, 1), (3, 5)] if arith is None else [
            (f(3), f(1)), (f(3), f(5))]
        eadd = curve_module._chord_tangent(f, (0, 1, 5) if arith is None
                                           else (f(0), f(1), f(5)), arith)
        with pytest.raises(RuntimeError, match="neither equal nor opposite"):
            eadd(*pts)
        assert eadd(pts[0], pts[0]) is not None

    @pytest.mark.parametrize("points", [lambda pts: pts[:-1],
                                        lambda pts: pts + pts[-1:]],
                             ids=["missing", "repeated"])
    def test_a_wrong_point_list_is_caught(self, monkeypatch, points):
        assert self._caught(monkeypatch, points=points) == []

    def test_a_cycling_law_hits_the_walk_bound(self, monkeypatch):
        # P + Q = Q: the multiples of a point never leave it and never
        # reach infinity; the walk must stop with a raise, long before
        # the law has been called 10 #E times
        calls = itertools.count()

        def law(p1, p2):
            assert next(calls) < 10 * 1024, "the walk did not stop"
            return p2
        monkeypatch.setattr(curve_module, "_chord_tangent",
                            lambda f, r: law)
        f, roots = self.MUTANT_CURVES[-1]
        with pytest.raises(RuntimeError, match="within the group order"):
            curve_module._group_structure_codes(f, roots)

    def test_a_group_of_rank_three_is_refused(self, monkeypatch):
        # (Z/2)^3 as seven "points" under XOR: three generators of
        # order 2, so three invariant factors
        def law(p1, p2):
            s = (p1 or (0, 0))[0] ^ (p2 or (0, 0))[0]
            return (s, s) if s else None
        monkeypatch.setattr(curve_module, "_affine_codes",
                            lambda f, r: [(s, s) for s in range(1, 8)])
        monkeypatch.setattr(curve_module, "_chord_tangent",
                            lambda f, r: law)
        with pytest.raises(RuntimeError, match="more than two generators"):
            curve_module._group_structure_codes(F13, (0, 1, 2))

    def test_smith_diagonal(self):
        smith = curve_module._smith_diagonal
        assert smith([[32, 0], [-5, 32]]) == [1, 1024]
        assert smith([[32, 0], [-16, 32]]) == [16, 64]
        assert smith([[2, 0, 0], [0, 4, 0], [-1, -2, 2]]) == [1, 4, 4]
        assert smith([[2, 0, 0], [0, 4, 0], [-1, -1, 2]]) == [1, 2, 8]
        assert smith([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 2, 60]

    @pytest.mark.parametrize("field", [F7, F9, F25, F27],
                             ids=lambda f: f"q{f.q}")
    def test_code_law_matches_fe_law(self, field):
        # the integer-code law on the monic model and the public
        # Curve.add against the Fe reference, on every ordered pair of
        # points of each curve and of its twist by a non-square; every
        # monic curve up to q = 9, a seeded sample of 4 above
        def code(pt, d):
            # the monic-model codes (d*x, d^2*y) of a point
            if pt.is_infinity:
                return None
            return field.code(d * pt.x), field.code(d * d * pt.y)
        triples = list(itertools.combinations(range(field.q), 3))
        if field.q > 9:
            triples = random.Random(field.q).sample(triples, 4)
        nonsquare = curve_module._first_nonsquare_code(field)
        for roots in triples:
            for dc in (1, nonsquare):
                d = field.from_code(dc)
                e = Curve(field, *map(field.from_code, roots), d)
                monic = e._monic_codes()
                eadd = curve_module._chord_tangent(field, monic)
                pts = e.points()
                for p1, p2 in itertools.product(pts, pts):
                    want = fe_chord_tangent(e, p1, p2)
                    assert eadd(code(p1, d), code(p2, d)) == code(want, d)
                    assert e.add(p1, p2) == want

    @pytest.mark.parametrize("p,n", [(3, 13), (1048573, 2)],
                             ids=["q3^13", "q1048573^2"])
    def test_add_and_multiply_above_the_table_cap(self, p, n):
        # Curve.add and multiply build no O(q) table, so they work on
        # fields the sweeps' lookup tables refuse
        field = make_field(p, n)
        assert field.q > DEFAULT_ENUMERATION_CAP
        x0, y0, d = field((2, 1)), field((1, 1)), field((1, 2))
        # the twisted Legendre-form curve through (x0, y0)
        g = x0 - d * y0 * y0 / (x0 * (x0 - 1))
        e = Curve(field, 0, 1, g, d)
        P = Point(x0, y0)
        T0, T1 = Point(field.zero, field.zero), Point(field.one, field.zero)
        assert e.add(T0, T1) == Point(g, field.zero)
        assert e.multiply(T0, 2) == INFINITY
        multiples = [INFINITY]
        for _ in range(6):
            multiples.append(fe_chord_tangent(e, multiples[-1], P))
        assert all(e.contains(m) for m in multiples)
        for k in range(6):
            assert e.add(multiples[k], P) == multiples[k + 1]
            assert e.multiply(P, k) == multiples[k]
            assert e.multiply(P, -k) == e.neg(multiples[k])
        assert e.add(P, T0) == fe_chord_tangent(e, P, T0)
        assert (e.add(e.add(P, T0), multiples[2])
                == e.add(P, e.add(T0, multiples[2])))
        assert field._tab == {}

    @pytest.mark.parametrize("field", [F3, F5, F7, F9, F11, F13],
                             ids=lambda f: f"q{f.q}")
    def test_group_law_sweep(self, field):
        assert verify_group_law(field, curves=30, triples=120) == []

    @pytest.mark.parametrize("mutant,message", [
        (wrong_tangent_law, "not associative"),
        (y_plus_one_law, "left the curve"),
        (no_inverse_law, "plus its negative is affine"),
    ], ids=["wrong-tangent", "y-plus-one", "no-inverse"])
    @pytest.mark.parametrize("field", [F5, F9, F13], ids=lambda f: f"q{f.q}")
    def test_group_law_sweep_catches_a_mutant(self, field, mutant, message,
                                              monkeypatch):
        monkeypatch.setattr(curve_module, "_chord_tangent", mutant)
        failures = verify_group_law(field, curves=30, triples=120)
        assert any(message in msg for msg in failures), failures[:3]

    @pytest.mark.parametrize("field", [F5, F9, F13], ids=lambda f: f"q{f.q}")
    def test_group_law_sweep_catches_a_wrong_doubling_map(self, field,
                                                          monkeypatch):
        monkeypatch.setattr(curve_module, "_double_x_codes",
                            half_denominator_map)
        failures = verify_group_law(field, curves=30, triples=120)
        assert any("x-only doubling" in msg for msg in failures), failures[:3]

    def test_unrank_triple_follows_combinations(self):
        for q in (3, 4, 5, 9, 16):
            assert ([_unrank_triple(q, r) for r in range(math.comb(q, 3))]
                    == list(itertools.combinations(range(q), 3)))

    @pytest.mark.parametrize("q", [7, 9, 81, 103])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sampled_curves_match_the_list_draw(self, q, seed, monkeypatch):
        field = field_of_order(q)
        drawn = []

        class Recorded(Curve):
            def __init__(self, f, a, b, c, d):
                drawn.append(((f.code(a), f.code(b), f.code(c)), f.code(d)))
                super().__init__(f, a, b, c, d)

        monkeypatch.setattr(curve_module, "Curve", Recorded)
        assert verify_group_law(field, seed=seed, triples=1) == []
        rng = random.Random(seed * 0x9E3779B1 + q)
        all_triples = list(itertools.combinations(range(q), 3))
        deltas = list(range(1, q))
        assert drawn == [(rng.choice(all_triples), rng.choice(deltas))
                         for _ in range(40)]

    def test_group_law_peak_memory(self):
        field = field_of_order(103)
        tracemalloc.start()
        try:
            assert verify_group_law(field) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


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

    @pytest.mark.parametrize("q", list(odd_prime_powers(27))[1:] + [49, 81],
                             ids=lambda q: f"q{q}")
    def test_code_search_matches_fe_search(self, q):
        # random triples, half of them mapped from the first by a random
        # s*x + t (s a square or not) and shuffled, so both outcomes occur
        # (F_3 is left out: its only triple maps onto itself)
        f = field_of_order(q)
        rng = random.Random(q)
        seen = set()
        for _ in range(260):
            roots1 = [f.from_code(c) for c in rng.sample(range(q), 3)]
            if rng.random() < 0.5:
                s = f.from_code(rng.randrange(1, q))
                t = f.from_code(rng.randrange(q))
                roots2 = [s * r + t for r in roots1]
                rng.shuffle(roots2)
            else:
                roots2 = [f.from_code(c) for c in rng.sample(range(q), 3)]
            found = curve_module._root_transform_exists(
                f, tuple(map(f.code, roots1)), tuple(map(f.code, roots2)))
            assert found == fe_root_transform_exists(f, roots1, roots2)
            seen.add(found)
        assert seen == {True, False}

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11], ids=lambda q: f"q{q}")
    def test_six_candidates_match_fe_search_on_every_pair(self, q):
        # every pair of root triples, the second in a seeded random order
        # since the candidates are built from its first two roots
        f = field_of_order(q)
        rng = random.Random(q)
        triples = list(itertools.combinations(range(q), 3))
        for codes1 in triples:
            roots1 = [f.from_code(c) for c in codes1]
            for codes2 in triples:
                codes2 = rng.sample(codes2, 3)
                want = fe_root_transform_exists(
                    f, roots1, [f.from_code(c) for c in codes2])
                got = curve_module._root_transform_exists(
                    f, codes1, tuple(codes2))
                assert got == want, (codes1, codes2)

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

    @pytest.mark.parametrize("q", odd_prime_powers(27), ids=lambda q: f"q{q}")
    def test_legendre_membership_matches_the_scan_over_every_mu(self, q):
        # every monic curve and its twist by the first non-square, against
        # the exhaustive scan over every Legendre model
        f = field_of_order(q)
        d0 = f.from_code(curve_module._first_nonsquare_code(f))
        for codes in itertools.combinations(range(q), 3):
            e = Curve(f, *map(f.from_code, codes))
            for c in (e, twist(e, d0)):
                roots = c._monic_codes()
                want = any(curve_module._root_transform_exists(
                    f, roots, (0, 1, mu)) for mu in range(2, q))
                assert is_legendre_isomorphic(c) == want, c

    def test_legendre_membership_reads_no_count(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the membership test counted points")
        monkeypatch.setattr(curve_module, "legendre_count_table", refuse)
        monkeypatch.setattr(Curve, "count_points", refuse)
        assert is_legendre_isomorphic(legendre(F13, 4))
        assert not is_legendre_isomorphic(Curve(F13, 0, -2, 5))
        assert verify_four_torsion_equivalence(F13) == []


def descent_image(e, point):
    """Square classes of (x-alpha, x-beta, x-gamma) at an affine point
    of a monic curve; the zero slot at a 2-torsion point is the product
    of the other two."""
    vals = [quadratic_character(point.x - r) for r in e.roots]
    if 0 in vals:
        i = vals.index(0)
        vals[i] = vals[(i + 1) % 3] * vals[(i + 2) % 3]
    return tuple(vals)


def two_isogeny_image(lam):
    """((s+1)/(s-1))^2 for s the canonical square root of lambda, the
    parameter of the curve 2-isogenous to E_lambda through (0, 0); None
    for a non-square lambda."""
    s = sqrt(lam)
    if s is None:
        return None
    t = (s + 1) / (s - 1)
    return t * t


class TestDescent:
    def test_two_torsion_image_formula(self):
        e = legendre(F5, 3)
        img = descent_image(e, Point(F5.zero, F5.zero))
        # chi(0-1) = chi(4) = +1, chi(0-3) = chi(2) = -1
        assert img == (-1, 1, -1)
        assert img != (1, 1, 1)  # (0,0) is not a double: 2E(F_5) = {inf}

    def test_doubles_have_trivial_image(self):
        e = legendre(F13, 4)
        for p in e.points()[1:]:
            d = e.add(p, p)
            if not d.is_infinity:
                assert descent_image(e, d) == (1, 1, 1)

    @pytest.mark.parametrize("field", [F5, F7, F9, F11, F13, F25, F27],
                             ids=lambda f: f"q{f.q}")
    def test_kernel_sweep(self, field):
        assert verify_two_descent_kernel(field) == []

    @pytest.mark.parametrize("field", [F5, F7, F9, F11, F13, F25, F27],
                             ids=lambda f: f"q{f.q}")
    def test_doubling_map_matches_the_law(self, field):
        # every affine point of every monic curve, doubled both ways
        for roots in itertools.combinations(range(field.q), 3):
            doubled = _double_x_codes(field, roots)
            eadd = _chord_tangent(field, roots)
            ys = [(x, y) for x, y in curve_module._affine_codes(field, roots)
                  if y]
            assert set(doubled) == {x for x, _ in ys}, roots
            for pt in ys:
                assert doubled[pt[0]] == eadd(pt, pt)[0], (roots, pt)

    @pytest.mark.parametrize("field", [F5, F7, F9, F11, F13, F25, F27],
                             ids=lambda f: f"q{f.q}")
    def test_kernel_sweep_catches_a_wrong_doubling_map(self, field,
                                                       monkeypatch):
        monkeypatch.setattr(curve_module, "_double_x_codes",
                            half_denominator_map)
        assert verify_two_descent_kernel(field)


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

    @pytest.mark.parametrize("q", odd_prime_powers(49))
    def test_count_table_prefilter_matches_chi_sums(self, q):
        field = field_of_order(q)
        chi = field._chi_codes()
        want = [roots for roots in itertools.combinations(range(q), 3)
                if sum(chi[v] for v in _cubic_codes(field, roots)) == 0]
        assert list(_trace_zero_triples(field)) == want


def _entries(value):
    if isinstance(value, tuple):
        return sum(len(v) for v in value)
    return sum(len(v) if isinstance(v, list) else 1 for v in value)


@pytest.mark.parametrize("q", [81, 961])
def test_field_tables_stay_linear_in_q(q):
    # after group-structure and twist work, no table kept by Field._get
    # holds more than 4q entries: no q x q addition table
    field = field_of_order(q)
    d0 = field.from_code(curve_module._first_nonsquare_code(field))
    for lamc in list(legendre_count_table(field))[:: q // 8]:
        e = legendre(field, field.from_code(lamc))
        assert e.group_structure()[0] % 2 == 0
        assert (e.count_points() + twist(e, d0).count_points()
                == 2 * q + 2)
    if q < 100:
        assert verify_twist_counts(field) == []
        assert verify_group_law(field) == []
    sizes = {name: _entries(v) for name, v in field._tab.items()}
    assert {"explog", "zech", "add_func", "sub_func"} <= set(sizes)
    assert max(sizes.values()) <= 4 * q, sizes


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

    @pytest.mark.parametrize("q", odd_prime_powers(121))
    def test_code_count_matches_fe_count(self, q):
        # every Legendre curve and its twist by the first non-square;
        # on the curve itself the count is also 4(1 + h), h the roots
        # whose two differences are squares
        field = field_of_order(q)
        chi = field._chi_codes()
        d0 = field.from_code(curve_module._first_nonsquare_code(field))
        for lamc in legendre_count_table(field):
            e = legendre(field, field.from_code(lamc))
            for c in (e, twist(e, d0)):
                assert count_four_torsion(c) == fe_count_four_torsion(c), c
            h = sum(all(chi[field.code(g - g2)] == 1
                        for g2 in e.roots if g2 != g) for g in e.roots)
            assert count_four_torsion(e) == 4 * (1 + h), e

    @pytest.mark.parametrize("field", [F5, F7, F9, F13, F25],
                             ids=lambda f: f"q{f.q}")
    def test_equivalence_sweep(self, field):
        assert verify_four_torsion_equivalence(field) == []

    # fields where the wrong map flips a 16-point verdict; at q = 5, 9,
    # 17 and at q = 3 mod 4 (7 to 41) it flips none
    @pytest.mark.parametrize("q", [13, 25, 29], ids=lambda q: f"q{q}")
    def test_equivalence_sweep_catches_a_wrong_doubling_map(self, q,
                                                            monkeypatch):
        monkeypatch.setattr(curve_module, "_double_x_codes",
                            half_denominator_map)
        assert verify_four_torsion_equivalence(field_of_order(q))

    # fields where it flips no verdict, so only the 4(1 + h) value check
    # sees the wrong counts
    @pytest.mark.parametrize("q", [9, 11, 17, 19, 27], ids=lambda q: f"q{q}")
    def test_value_check_catches_a_wrong_doubling_map(self, q, monkeypatch):
        monkeypatch.setattr(curve_module, "_double_x_codes",
                            half_denominator_map)
        failures = verify_four_torsion_equivalence(field_of_order(q))
        assert failures
        assert all("points killed by 4, not 4(1 + " in m for m in failures)

    def test_sweep_catches_a_twist_outside_the_family(self, monkeypatch):
        monkeypatch.setattr(curve_module, "is_legendre_isomorphic",
                            lambda curve: False)
        failures = verify_four_torsion_equivalence(field_of_order(13))
        assert failures
        assert all(m.endswith("non-square twist escapes the Legendre family")
                   for m in failures)


class TestTwoIsogeny:
    def test_frozen_example(self):
        e = legendre(F13, 4)
        image = two_isogeny_image(F13(4))
        assert image == F13(9)  # canonical sqrt(4) = 2, ((2+1)/(2-1))^2
        assert legendre(F13, image).count_points() == e.count_points()

    def test_counts_agree_wherever_defined(self):
        for field in (F9, F13, F25):
            table = legendre_count_table(field)
            for c, n in table.items():
                image = two_isogeny_image(field.from_code(c))
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
                image = two_isogeny_image(lam)
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

    @pytest.mark.parametrize("q", list(odd_prime_powers(49)),
                             ids=lambda q: f"q{q}")
    def test_partition_matches_fe_search(self, q):
        # the classes built from the Fe scan over every square scale,
        # with no count filter, lambdas in lexicographic order
        f = field_of_order(q)
        classes = []
        for lam in sorted(f.elements()):
            if lam == f.zero or lam == f.one:
                continue
            roots = (f.zero, f.one, lam)
            for cls in classes:
                if fe_root_transform_exists(f, cls[0], roots):
                    cls.append(roots)
                    break
            else:
                classes.append([roots])
        want = [[f.code(roots[2]) for roots in cls] for cls in classes]
        assert isomorphism_classes(f) == want

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
