"""Polynomial arithmetic, the supersingularity polynomial, root finding."""

import hashlib
import random

import pytest

from legcurves import field as field_module
from legcurves.field import (
    _barrett_mulmod,
    _is_irreducible,
    _pdivmod,
    _pgcd,
    _pmulmod,
    _ppowmod,
    _psub,
    _ptrim,
    make_field,
)
from legcurves.poly import (
    _monic_mod,
    deuring,
    distinct_root_count,
    pow_x_mod,
    quadratic_factors,
    substitute_neg,
)
from legcurves.supersingular import _prime_field_roots

ODD_PRIMES_200 = [p for p in range(3, 200, 2)
                  if all(p % f for f in range(3, p, 2))]


def long_division(a, m, p):
    """(quotient, remainder) of integer lists a by m over Z/p, by plain
    long division: the reference for the list kernel's reductions."""
    linv = pow(m[-1], p - 2, p)
    d = len(m) - 1
    r = [c % p for c in a]
    quot = [0] * max(0, len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] * linv % p
        if c:
            quot[i - d] = c
            for j in range(d + 1):
                r[i - d + j] = (r[i - d + j] - c * m[j]) % p
    return _ptrim(quot), _ptrim(r[:d])


def naive_pow_x_mod(f, p, e):
    """x**e mod f by long division of the monomial x**e: the reference
    for the repeated squaring of pow_x_mod."""
    return long_division([0] * e + [1], list(f), p)[1]


def euclid_gcd(a, b, p):
    """Monic gcd by the Euclidean algorithm on long_division."""
    while b:
        a, b = b, long_division(a, b, p)[1]
    if not a:
        return []
    linv = pow(a[-1], p - 2, p)
    return [c * linv % p for c in a]


def count_roots(f, field):
    """Distinct roots of the Z/p list f in `field`, by Horner at every
    element: the reference for distinct_root_count."""
    coeffs = [field(c) for c in reversed(f)]
    hits = 0
    for x in field.elements():
        acc = field.zero
        for c in coeffs:
            acc = acc * x + c
        hits += not acc
    return hits


def random_list(rng, p, top):
    return _ptrim([rng.randrange(p) for _ in range(rng.randrange(0, top))])


def test_representation():
    # constant term first; coefficients are read modulo p and trailing
    # zeros dropped, so the zero polynomial is empty
    assert _ptrim([0, 0]) == []
    assert _ptrim([1, 0, 2, 0]) == [1, 0, 2]
    # (1, 0, 7, 0) over F_5 is 2x^2 + 1, with monic associate x^2 + 3
    assert _monic_mod((1, 0, 7, 0), 5) == ([3, 0, 1], [0, 1])
    # (0, 5, 10) is zero over F_5, and (7, 5) is the constant 2
    with pytest.raises(ValueError):
        distinct_root_count((0, 5, 10), 5, 5)
    assert distinct_root_count((7, 5), 5, 5) == 0


def test_deuring_frozen():
    assert deuring(3) == (2, 2)
    assert deuring(5) == (1, 4, 1)
    assert deuring(7) == (6, 5, 5, 6)
    with pytest.raises(ValueError):
        deuring(2)
    with pytest.raises(ValueError):
        deuring(9)


@pytest.mark.parametrize("p", ODD_PRIMES_200)
def test_deuring_degree(p):
    d = deuring(p)
    assert len(d) - 1 == (p - 1) // 2
    # leading and constant coefficients are the sign (-1)^m
    m = (p - 1) // 2
    sign = 1 if m % 2 == 0 else p - 1
    assert d[-1] == sign
    assert d[0] == sign


def test_substitute_neg():
    assert substitute_neg((1, 1), 7) == (1, 6)
    assert substitute_neg((0, 0, 1), 7) == (0, 0, 1)
    assert substitute_neg(deuring(3), 3) == (2, 1)     # x - 1 over F_3
    # involution
    p = (3, 1, 4, 1)
    assert substitute_neg(substitute_neg(p, 7), 7) == p


def test_divmod_and_divides():
    # the list kernel's product mod f is the remainder of the plain
    # product, and that division reassembles
    assert long_division([4, 0, 1], [1, 1], 5) == ([4, 1], [])
    rng = random.Random(7)
    for _ in range(200):
        f = random_list(rng, 5, 6) + [1]
        a, b = random_list(rng, 5, 8), random_list(rng, 5, 8)
        prod = [0] * (len(a) + len(b))
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        quot, rem = long_division(prod, f, 5)
        assert _pmulmod(a, b, f, 5) == rem
        assert len(rem) < len(f)
        back = [0] * max(len(prod), len(quot) + len(f))
        for i, qi in enumerate(quot):
            for j, fj in enumerate(f):
                back[i + j] += qi * fj
        for i, r in enumerate(rem):
            back[i] += r
        assert _ptrim([c % 5 for c in back]) == _ptrim([c % 5 for c in prod])


def plain_product(factors, p):
    """Product of Z/p lists by `_pmulmod` modulo x^64, which no product
    here reaches, so nothing is reduced."""
    out = [1]
    for f in factors:
        out = _pmulmod(out, f, [0] * 64 + [1], p)
    return out


@pytest.mark.parametrize("p", [5, 7, 199])
def test_pdivmod_reassembles(p):
    # a = quot * b + rem with deg rem < deg b, for b of any leading
    # coefficient
    rng = random.Random(p)
    for _ in range(300):
        a, b = random_list(rng, p, 15), random_list(rng, p, 8)
        if not b:
            continue
        quot, rem = _pdivmod(a, b, p)
        assert len(rem) < len(b)
        assert _psub(a, plain_product([quot, b], p), p) == rem
        assert (quot, rem) == long_division(a, b, p)


def test_gcd_basic():
    a = [4, 0, 1]                           # x^2 - 1 over F_5
    assert _pgcd(a, [1, 1], 5) == [1, 1]
    assert _pgcd([], [], 5) == []
    assert _pgcd(a, [], 5) == a             # gcd(a, 0) is monic a
    assert _pgcd([], [2, 4], 5) == [3, 1]   # ... on either side
    assert _pgcd([2, 2], [2, 2], 5) == [1, 1]


def test_gcd_vs_divides_randomized():
    rng = random.Random(11)
    for p in (5, 7):
        for _ in range(500):
            a, b = random_list(rng, p, 7), random_list(rng, p, 7)
            g = _pgcd(a, b, p)
            assert g == euclid_gcd(a, b, p)
            if a:
                # a divides b exactly when gcd(a, b) is monic a
                divides = long_division(b, a, p)[1] == []
                assert divides == (g == euclid_gcd(a, [], p))


def test_roots_frozen():
    assert distinct_root_count(deuring(7), 7, 7) == 3     # 2, 4, 6
    assert distinct_root_count(deuring(5), 5, 5) == 0
    assert distinct_root_count(deuring(5), 5, 25) == 2    # 3 + t, 3 + 4t
    # x^2 - x = x(x - 1) has the roots 0 and 1 in F_9, and a squared
    # factor counts once
    assert distinct_root_count((0, 2, 1), 3, 9) == 2
    assert distinct_root_count((1, 2, 1), 3, 9) == 1
    assert distinct_root_count((2,), 3, 9) == 0


def test_roots_embedding_errors():
    with pytest.raises(ValueError):
        distinct_root_count((), 5, 5)


def test_pow_x_mod():
    g = substitute_neg(deuring(7), 7)
    assert pow_x_mod(g, 7, 6) == [1]
    # literal division agrees: g divides x^6 - 1
    assert long_division([6] + [0] * 5 + [1], list(g), 7)[1] == []
    with pytest.raises(ValueError):
        pow_x_mod((3,), 7, 5)
    f = (1, 2, 0, 1)
    for e in range(10):
        assert pow_x_mod(f, 7, e) == naive_pow_x_mod(f, 7, e)


@pytest.mark.parametrize("p", [p for p in ODD_PRIMES_200 if p <= 61])
def test_pow_x_mod_list_path_matches_poly_path(p):
    # deuring(p) has leading coefficient p - 1 for p = 3 mod 4, while
    # substitute_neg(deuring(p)) is monic; p = 3 gives degree 1
    for f in (deuring(p), substitute_neg(deuring(p), p)):
        for e in (0, 1, 2, p, p * p, (p * p - 1) // 8):
            assert pow_x_mod(f, p, e) == naive_pow_x_mod(f, p, e), (p, e)


def test_pow_x_mod_prime_path_avoids_poly_arithmetic():
    # the deuring polynomial splits into distinct factors over F_{p^2}
    assert pow_x_mod(deuring(199), 199, 199 ** 2) == [0, 1]
    assert pow_x_mod(substitute_neg(deuring(199), 199), 199,
                     (199 ** 2 - 1) // 8) == [1]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_root_count_matches_gcd_degree(p):
    d = deuring(p)
    assert count_roots(d, make_field(p)) == distinct_root_count(d, p, p)
    assert count_roots(d, make_field(p, 2)) \
        == distinct_root_count(d, p, p * p)


@pytest.mark.parametrize("p", ODD_PRIMES_200)
def test_all_roots_live_in_the_quadratic_extension(p):
    # distinct-root count over F_{p^2} equals the degree: the polynomial
    # is squarefree and splits there
    d = deuring(p)
    assert distinct_root_count(d, p, p * p) == len(d) - 1


def monic_irreducibles(p, degree):
    for k in range(p ** degree):
        f = [k // p ** i % p for i in range(degree)] + [1]
        if _is_irreducible(f, p):
            yield f


@pytest.mark.parametrize("p, count", [(3, 3), (7, 6), (13, 9)])
def test_quadratic_factors_splits_a_product(p, count):
    quads = list(monic_irreducibles(p, 2))[:count]
    linear = [[p - 1, 1], [p - 2, 1]]       # x - 1 and x - 2
    f = plain_product(quads + linear, p)
    for seed in range(5):
        found = quadratic_factors(f, p, [2, 1], random.Random(seed))
        assert sorted(found) == sorted(quads)
    # only linear factors: (x + 1)(x + 2) leaves nothing to split
    assert quadratic_factors([2, 3, 1], p, [p - 1, p - 2],
                             random.Random(0)) == []


def test_quadratic_factors_rejects_what_is_not_a_quadratic_product():
    q1, q2 = list(monic_irreducibles(7, 2))[:2]
    rng = random.Random(0)
    # 3 is not a root
    with pytest.raises(RuntimeError, match="inexact division"):
        quadratic_factors(plain_product([q1, [6, 1]], 7), 7, [3], rng)
    # the root 1 is not divided out, so degree 5 is left
    with pytest.raises(RuntimeError, match="odd degree 5"):
        quadratic_factors(plain_product([q1, q2, [6, 1]], 7), 7, [], rng)
    # an irreducible quartic never splits into quadratics
    quartic = next(monic_irreducibles(7, 4))
    with pytest.raises(RuntimeError, match="degree-4 factor"):
        quadratic_factors(quartic, 7, [], rng)


# ---------------------------------------------------------------------------
# the packed product of long powers against the schoolbook `_pmulmod`

def schoolbook_pow(a, e, f, p):
    """a^e mod f by repeated squaring on `_pmulmod`: the reference for
    the packed path of `_ppowmod`."""
    result, base = [1], list(a)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def random_monic(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [1]


@pytest.mark.parametrize("p", [2, 3, 5, 31, 163, 1021])
def test_barrett_product_matches_schoolbook(p):
    # every degree up to 20, on both sides of the crossover, and two
    # large ones; every other modulus has zero low coefficients, and
    # all-(p - 1) operands fill the slots most
    rng = random.Random(p)
    for df in [*range(1, 21), 81, 200]:
        for trial in range(4 if df < 81 else 1):
            f = random_monic(rng, p, df)
            if trial % 2 == 0:
                f[:min(3, df)] = [0] * min(3, df)
            mul = _barrett_mulmod(f, p)
            top = [p - 1] * df
            assert mul(top, top) == _pmulmod(top, top, f, p), (p, f)
            for _ in range(4):
                a, b = random_list(rng, p, df + 1), random_list(rng, p, df + 1)
                assert mul(a, b) == _pmulmod(a, b, f, p), (p, f, a, b)
                assert mul(a, a) == _pmulmod(a, a, f, p), (p, f, a)


@pytest.mark.parametrize("p", [5, 199])
def test_barrett_product_modulo_a_monomial(p):
    # x^64, the modulus of `plain_product`: rev(f) = 1, so the Newton
    # inverse is 1, and products of 64 or more terms wrap
    f = [0] * 64 + [1]
    mul = _barrett_mulmod(f, p)
    rng = random.Random(p)
    for top in (8, 33, 65):
        for _ in range(10):
            a, b = random_list(rng, p, top), random_list(rng, p, top)
            assert mul(a, b) == _pmulmod(a, b, f, p)


@pytest.mark.parametrize("p, below", [(2, 12), (3, 9), (31, 6), (1021, 6)])
def test_ppowmod_takes_the_packed_path_from_the_crossover(p, below,
                                                          monkeypatch):
    # the crossover degree moves with p (`_PACKED_MIN_TERMS`), and an
    # exponent of fewer than 8 bits stays on the schoolbook
    built = []
    real = field_module._barrett_mulmod
    monkeypatch.setattr(field_module, "_barrett_mulmod",
                        lambda f, p: built.append(len(f) - 1) or real(f, p))
    rng = random.Random(p)
    for df, e in [(below, 0xb5e3), (below + 1, 0x7f), (below + 1, 0xb5e3),
                  (below + 1, 0), (below + 1, 1)]:
        f = random_monic(rng, p, df)
        a = random_list(rng, p, df + 1)
        assert _ppowmod(a, e, f, p) == schoolbook_pow(a, e, f, p), (df, e)
    assert built == [below + 1]


@pytest.mark.parametrize("p", [3, 31, 1021])
def test_ppowmod_packed_path_reduces_long_and_unreduced_operands(p):
    rng = random.Random(p)
    f = random_monic(rng, p, 20)
    for length in (21, 40, 47):
        a = [rng.randrange(-p, 3 * p) for _ in range(length)]
        for e in (0x80, 0xb5e3, p * p):
            assert _ppowmod(a, e, f, p) == schoolbook_pow(a, e, f, p)
    assert _ppowmod(f, 0x80, f, p) == []


def test_pow_x_mod_falls_back_where_slots_would_overflow(monkeypatch):
    # degree 8: 8 (p - 1)^2 passes 2^64 at p = 2^31 - 1 and stays
    # below it at 2^30 - 35, the largest prime below 2^30
    built = []
    real = field_module._barrett_mulmod
    monkeypatch.setattr(field_module, "_barrett_mulmod",
                        lambda f, p: built.append(p) or real(f, p))
    f = [3, 1, 4, 1, 5, 9, 2, 6, 1]
    for p in (2 ** 31 - 1, 2 ** 30 - 35):
        assert pow_x_mod(f, p, p * p) == schoolbook_pow([0, 1], p * p, f, p)
    assert built == [2 ** 30 - 35]


# taken from the schoolbook kernel before the packed path: the number
# of F_p roots, and the SHA-256 of the sorted quadratic factors
SCHOOLBOOK_ROOT_TABLES = {
    1019: (39, "8452abeea44463cab9a16caaa1209fcf"
               "31671b6fcab56b3ad1f9db81f5e49160"),
    1021: (0, "10082d5e0b5eed68d6858a4d5a977f84"
              "3c44f3517fa6ea9a329d7ff0a750f5de"),
}


@pytest.mark.parametrize("p", sorted(SCHOOLBOOK_ROOT_TABLES))
def test_root_tables_near_1021_match_the_schoolbook_kernel(p):
    count, digest = SCHOOLBOOK_ROOT_TABLES[p]
    d = deuring(p)
    assert distinct_root_count(d, p, p * p) == (p - 1) // 2
    assert distinct_root_count(d, p, p) == count
    roots = _prime_field_roots(d, p)
    assert len(roots) == count
    quads = quadratic_factors(d, p, roots, random.Random(p))
    assert len(quads) == (p - 1 - 2 * count) // 4
    assert hashlib.sha256(repr(sorted(quads)).encode()).hexdigest() == digest
