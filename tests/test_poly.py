"""Polynomial arithmetic, the supersingularity polynomial, root finding."""

import random

import pytest

from legcurves.field import make_field
from legcurves.poly import (
    Poly,
    deuring,
    distinct_root_count,
    divides,
    poly_gcd,
    pow_x_mod,
    roots_in,
    substitute_neg,
)

ODD_PRIMES_200 = [p for p in range(3, 200, 2)
                  if all(p % f for f in range(3, p, 2))]


def naive_pow_x_mod(f, e):
    """x**e mod f by square-and-multiply on Poly objects: the reference
    for the integer-list path of pow_x_mod."""
    result = Poly(f.field, (1,))
    base = Poly.x(f.field) % f
    while e:
        if e & 1:
            result = (result * base) % f
        base = (base * base) % f
        e >>= 1
    return result


def ints(poly):
    return [int(c) for c in poly.coeffs]


def test_representation():
    f5 = make_field(5)
    assert Poly(f5).degree == -1
    assert Poly(f5, (0, 0)).coeffs == ()
    p = Poly(f5, (1, 0, 7))
    assert ints(p) == [1, 0, 2]
    assert p.degree == 2
    assert p.leading() == f5(2)
    with pytest.raises(ValueError):
        Poly(f5).leading()
    with pytest.raises(ValueError):
        Poly(f5, (1,)) + Poly(make_field(7), (1,))


def test_deuring_frozen():
    assert ints(deuring(3)) == [2, 2]
    assert ints(deuring(5)) == [1, 4, 1]
    assert ints(deuring(7)) == [6, 5, 5, 6]
    with pytest.raises(ValueError):
        deuring(2)
    with pytest.raises(ValueError):
        deuring(9)


@pytest.mark.parametrize("p", ODD_PRIMES_200)
def test_deuring_degree(p):
    d = deuring(p)
    assert d.degree == (p - 1) // 2
    # leading and constant coefficients are the sign (-1)^m
    m = (p - 1) // 2
    sign = 1 if m % 2 == 0 else p - 1
    assert int(d.leading()) == sign
    assert int(d.coeffs[0]) == sign


def test_substitute_neg():
    f7 = make_field(7)
    assert ints(substitute_neg(Poly(f7, (1, 1)))) == [1, 6]
    assert ints(substitute_neg(Poly(f7, (0, 0, 1)))) == [0, 0, 1]
    assert ints(substitute_neg(deuring(3))) == [2, 1]     # x - 1 over F_3
    # involution
    p = Poly(f7, (3, 1, 4, 1))
    assert substitute_neg(substitute_neg(p)) == p


def test_divmod_and_divides():
    f5 = make_field(5)
    a = Poly(f5, (4, 0, 1))     # x^2 - 1
    b = Poly(f5, (1, 1))        # x + 1
    q, r = divmod(a, b)
    assert ints(q) == [4, 1] and r.is_zero()
    assert divides(b, a)
    assert not divides(Poly(f5, (0, 0, 1)), Poly.x(f5))
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly(f5))
    with pytest.raises(ValueError):
        divides(Poly(f5), a)
    # reassembly check on random pairs
    rng = random.Random(7)
    for _ in range(200):
        f = Poly(f5, [rng.randrange(5) for _ in range(rng.randrange(1, 8))])
        g = Poly(f5, [rng.randrange(5) for _ in range(rng.randrange(1, 6))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_gcd_basic():
    f5 = make_field(5)
    a = Poly(f5, (4, 0, 1))
    b = Poly(f5, (1, 1))
    assert ints(poly_gcd(a, b)) == [1, 1]
    assert poly_gcd(Poly(f5), Poly(f5)).is_zero()
    g = poly_gcd(a, Poly(f5))
    assert g == a.monic()
    # gcd is monic
    assert ints(poly_gcd(Poly(f5, (2, 2)), Poly(f5, (2, 2)))) == [1, 1]


def test_gcd_vs_divides_randomized():
    rng = random.Random(11)
    for q in (5, 7):
        f = make_field(q)
        for _ in range(500):
            a = Poly(f, [rng.randrange(q) for _ in range(rng.randrange(1, 7))])
            b = Poly(f, [rng.randrange(q) for _ in range(rng.randrange(1, 7))])
            if a.is_zero() or b.is_zero():
                continue
            assert divides(a, b) == (poly_gcd(a, b) == a.monic())


def test_roots_frozen():
    assert [int(x) for x in roots_in(deuring(7), make_field(7))] == [2, 4, 6]
    assert roots_in(deuring(5), make_field(5)) == []
    r25 = roots_in(deuring(5), make_field(5, 2))
    assert len(r25) == 2
    assert [x.coeffs for x in r25] == [(3, 1), (3, 4)]
    d5 = deuring(5)
    f25 = make_field(5, 2)
    for x in r25:
        acc = f25.zero
        for c in reversed(d5.coeffs):
            acc = acc * x + f25(int(c))
        assert acc == f25.zero


def test_roots_sorted_and_distinct():
    f9 = make_field(3, 2)
    # x^2 - x = x(x-1): roots 0 and 1
    p = Poly(make_field(3), (0, 2, 1))
    r = roots_in(p, f9)
    assert r == sorted(r)
    assert [x.coeffs for x in r] == [(0, 0), (1, 0)]
    # squared factor still yields one root
    sq = Poly(f9, (1, 2, 1))    # (x+1)^2
    assert [x.coeffs for x in roots_in(sq, f9)] == [(2, 0)]


def test_roots_embedding_errors():
    d5 = deuring(5)
    with pytest.raises(ValueError):
        roots_in(d5, make_field(7))
    with pytest.raises(ValueError):
        roots_in(Poly(make_field(5, 2), (1, 1)), make_field(5, 4))
    with pytest.raises(ValueError):
        roots_in(Poly(make_field(5)), make_field(5))


def test_pow_x_mod():
    f7 = make_field(7)
    g = substitute_neg(deuring(7))
    assert pow_x_mod(g, 6) == Poly(f7, (1,))
    # literal division agrees
    x6m1 = Poly(f7, [6] + [0] * 5 + [1])
    assert divides(g, x6m1)
    with pytest.raises(ValueError):
        pow_x_mod(Poly(f7, (3,)), 5)
    # agreement with naive power for small exponents
    f = Poly(f7, (1, 2, 0, 1))
    acc = Poly(f7, (1,))
    x = Poly.x(f7)
    for e in range(10):
        assert pow_x_mod(f, e) == acc % f
        acc = acc * x


@pytest.mark.parametrize("p", [p for p in ODD_PRIMES_200 if p <= 61])
def test_pow_x_mod_list_path_matches_poly_path(p):
    # deuring(p) has leading coefficient p - 1 for p = 3 mod 4, while
    # substitute_neg(deuring(p)) is monic; p = 3 gives degree 1
    for f in (deuring(p), substitute_neg(deuring(p))):
        for e in (0, 1, 2, p, p * p, (p * p - 1) // 8):
            assert pow_x_mod(f, e) == naive_pow_x_mod(f, e), (p, e)


def test_pow_x_mod_extension_coefficients():
    f9 = make_field(3, 2)
    t = f9.from_code(3)
    g = Poly(f9, (t, 1, 0, 2 * t))
    for e in (0, 1, 2, 3, 9, 80, 81):
        assert pow_x_mod(g, e) == naive_pow_x_mod(g, e), e


def test_pow_x_mod_prime_path_avoids_poly_arithmetic(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Poly arithmetic on the prime-field path")
    monkeypatch.setattr(Poly, "__mul__", forbidden)
    monkeypatch.setattr(Poly, "__divmod__", forbidden)
    # the deuring polynomial splits into distinct factors over F_{p^2}
    assert pow_x_mod(deuring(199), 199 ** 2) == Poly.x(make_field(199))
    assert pow_x_mod(substitute_neg(deuring(199)), (199 ** 2 - 1) // 8) \
        == Poly(make_field(199), (1,))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_root_count_matches_gcd_degree(p):
    d = deuring(p)
    fp = make_field(p)
    fp2 = make_field(p, 2)
    assert len(roots_in(d, fp)) == distinct_root_count(d, p)
    assert len(roots_in(d, fp2)) == distinct_root_count(d, p * p)


@pytest.mark.parametrize("p", ODD_PRIMES_200)
def test_all_roots_live_in_the_quadratic_extension(p):
    # distinct-root count over F_{p^2} equals the degree: the polynomial
    # is squarefree and splits there
    d = deuring(p)
    assert distinct_root_count(d, p * p) == d.degree
