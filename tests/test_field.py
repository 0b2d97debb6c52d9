"""Field construction, arithmetic, characters, roots and enumeration."""

import importlib
import inspect
import pkgutil
import random

import pytest

import legcurves
from legcurves import char2, classify, curve, stats
from legcurves.cli import _field_axiom_failures
from legcurves.curve import (
    Curve,
    _first_nonsquare_code,
    count_four_torsion,
    is_isomorphic,
    is_legendre_isomorphic,
    isomorphism_classes,
    legendre,
    legendre_count_table,
)
from legcurves.field import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    Field,
    _first_nonresidue,
    _psub,
    _ptrim,
    field_of_order,
    is_nth_power,
    make_field,
    odd_prime_powers,
    prime_factors,
    quadratic_character,
    sqrt,
    trace2,
)

ODD_Q_121 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47,
             49, 53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 107,
             109, 113, 121]
SMALL_ODD_Q = [3, 5, 7, 9, 11, 13, 25, 27, 49]


def test_modulus_scan_frozen():
    assert make_field(5).modulus == ()
    assert make_field(5, 2).modulus == (2, 0, 1)      # x^2 + 2
    assert make_field(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert make_field(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    f = make_field(7, 3)
    assert f.modulus[-1] == 1 and len(f.modulus) == 4


def test_modulus_is_first_irreducible_in_scan():
    # every earlier candidate in the constant-term-first scan has a root
    # or splits; verify for F_25 by checking all candidates before x^2+2
    # are reducible (they have a root in F_5 here).
    for c in (0, 1):
        assert any((x * x + c) % 5 == 0 for x in range(5))


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(9)
    with pytest.raises(ValueError):
        Field(2, 80)          # q over the 2**63 cap
    with pytest.raises(ValueError):
        Field(5, 2, (1, 0, 1))    # x^2 + 1 splits mod 5
    with pytest.raises(ValueError):
        Field(5, 2, (2, 0, 2))    # not monic


def test_field_identity_and_caching():
    assert make_field(5, 2) is make_field(5, 2)
    assert make_field(5, 2) == Field(5, 2)
    assert make_field(5) != make_field(7)
    # same order, different modulus: a different field
    other = Field(5, 2, (3, 0, 1))
    assert other != make_field(5, 2)
    with pytest.raises(ValueError):
        make_field(5, 2)([0, 1]) + other([0, 1])


def test_element_construction():
    f = make_field(5, 2)
    assert f(7).coeffs == (2, 0)
    assert f(-1).coeffs == (4, 0)
    assert f([1, 2]).coeffs == (1, 2)
    assert f([6]).coeffs == (1, 0)
    assert f(f.one) == f.one
    with pytest.raises(ValueError):
        f([1, 2, 3])
    with pytest.raises(ValueError):
        f(make_field(5)(1))


def test_basic_arithmetic_frozen():
    f5 = make_field(5)
    assert int(f5(2).inv()) == 3
    f25 = make_field(5, 2)
    t = f25([0, 1])
    assert (t * t).coeffs == (3, 0)          # t^2 = -2 = 3
    f7 = make_field(7)
    assert f7(3) ** 6 == f7.one
    assert f7(3) ** 0 == f7.one
    assert f7(3) ** -1 == f7(5)
    with pytest.raises(ZeroDivisionError):
        f7(0).inv()


@pytest.mark.parametrize("q", SMALL_ODD_Q + [4, 8, 16])
def test_field_axioms_exhaustive(q):
    f = field_of_order(q)
    els = list(f.elements())
    assert len(els) == q
    for a in els:
        assert a + f.zero == a
        assert a * f.one == a
        assert a + (-a) == f.zero
        if a:
            assert a * a.inv() == f.one
            assert a ** (q - 1) == f.one
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_enumeration_order():
    f3 = make_field(3)
    assert [e.coeffs for e in f3.elements()] == [(0,), (1,), (2,)]
    f9 = make_field(3, 2)
    els = list(f9.elements())
    assert els[0] == f9.zero
    assert els[-1].coeffs == (2, 2)
    assert els == sorted(els)
    with pytest.raises(EnumerationCapError):
        make_field(2, 21).elements()
    assert len(list(make_field(2, 10).elements())) == 1024


F7 = make_field(7)
F8 = make_field(2, 3)
# (operation named in the message, q, the capped callable, a call of it
# with a cap) for every entry point that takes an enumeration cap
CAPPED = [
    ("enumeration", 7, Field.elements, lambda cap: F7.elements(cap)),
    ("point enumeration", 7, Curve.points,
     lambda cap: legendre(F7, 3).points(cap)),
    ("counting", 7, Curve.count_points,
     lambda cap: legendre(F7, 3).count_points(cap)),
    ("group structure", 7, Curve.group_structure,
     lambda cap: legendre(F7, 3).group_structure(cap)),
    ("lambda sweep", 7, legendre_count_table,
     lambda cap: legendre_count_table(F7, cap)),
    ("enumeration", 7, stats.auxiliary_counts,
     lambda cap: stats.auxiliary_counts(7, cap)),
    ("counting", 8, char2.char2_count, lambda cap: char2.char2_count(
        char2.Char2Curve(F8, 0, 1), cap)),
    ("isomorphism test", 7, is_isomorphic,
     lambda cap: is_isomorphic(legendre(F7, 3), legendre(F7, 5), cap)),
    ("isomorphism test", 7, is_legendre_isomorphic,
     lambda cap: is_legendre_isomorphic(legendre(F7, 3), cap)),
    ("lambda sweep", 7, isomorphism_classes,
     lambda cap: isomorphism_classes(F7, cap)),
    ("point enumeration", 7, count_four_torsion,
     lambda cap: count_four_torsion(legendre(F7, 3), cap)),
]


@pytest.mark.parametrize("what,q,target,call", CAPPED,
                         ids=[f"{w}-q{q}-{i}" for i, (w, q, _, _) in
                              enumerate(CAPPED)])
def test_every_cap_site_raises_just_above_the_cap(what, q, target, call):
    call(q)
    with pytest.raises(EnumerationCapError,
                       match=f"^{what} over GF\\(.*\\) needs {q} elements, "
                             f"cap is {q - 1}$"):
        call(q - 1)


def test_every_public_cap_parameter_has_a_capped_entry():
    # every callable of legcurves.__all__, and every public method of
    # its classes, that takes `cap` is exercised by CAPPED
    taking_cap = []
    for name in legcurves.__all__:
        obj = getattr(legcurves, name)
        members = [obj]
        if inspect.isclass(obj):
            members += [getattr(obj, m) for m in vars(obj)
                        if not m.startswith("_")]
        taking_cap += [m for m in members if inspect.isfunction(m)
                       and "cap" in inspect.signature(m).parameters]
    assert taking_cap
    tested = [target for _, _, target, _ in CAPPED]
    assert [m.__qualname__ for m in taking_cap if m not in tested] == []


def test_no_verify_sweep_takes_a_cap():
    # the exhaustive oracles are bounded by the table cap alone
    sweeps = []
    for info in pkgutil.iter_modules(legcurves.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"legcurves.{info.name}")
        sweeps += [fn for name, fn in vars(module).items()
                   if inspect.isfunction(fn) and fn.__module__ == module.__name__
                   and (name.startswith("verify_")
                        or name == "frobenius_image_check")]
    assert char2.frobenius_image_check in sweeps
    assert curve.verify_group_law in sweeps
    assert [fn.__qualname__ for fn in sweeps
            if "cap" in inspect.signature(fn).parameters] == []


def test_codes_roundtrip():
    for q in (7, 9, 25, 8):
        f = field_of_order(q)
        for code in range(q):
            assert f.code(f.from_code(code)) == code
        lex = f._lex_codes()
        assert sorted(lex) == list(range(q))
        assert [f.from_code(c) for c in lex] == sorted(f.elements())


def test_quadratic_character_frozen():
    f5 = make_field(5)
    assert quadratic_character(f5(4)) == 1
    assert quadratic_character(f5(2)) == -1
    assert quadratic_character(f5(0)) == 0
    with pytest.raises(ValueError):
        quadratic_character(make_field(2, 2).one)


@pytest.mark.parametrize("q", ODD_Q_121)
def test_quadratic_character_properties(q):
    f = field_of_order(q)
    els = list(f.elements())
    chis = {a: quadratic_character(a) for a in els}
    assert sum(1 for v in chis.values() if v == 1) == (q - 1) // 2
    assert sum(1 for v in chis.values() if v == -1) == (q - 1) // 2
    # multiplicativity, exhaustive
    for a in els:
        for b in els:
            assert chis[a] * chis[b] == chis[a * b]
    # table agrees with the Euler-criterion values
    chi_t = f._chi_codes()
    for a in els:
        assert chi_t[f.code(a)] == chis[a]


def test_quadratic_character_randomized_above_121():
    f = field_of_order(169)
    rng = random.Random(169)
    els = list(f.elements())
    chis = {}
    for _ in range(1000):
        a, b = rng.choice(els), rng.choice(els)
        for x in (a, b, a * b):
            if x not in chis:
                chis[x] = quadratic_character(x)
        assert chis[a] * chis[b] == chis[a * b]


def test_sqrt_frozen():
    assert int(sqrt(make_field(13)(4))) == 2        # canonical, not 11
    assert sqrt(make_field(5)(2)) is None
    f = make_field(7)
    assert sqrt(f.zero) == f.zero
    with pytest.raises(ValueError):
        sqrt(make_field(2, 3).one)


@pytest.mark.parametrize("q", ODD_Q_121)
def test_sqrt_properties(q):
    # exercises both the q = 3 mod 4 power shortcut and Tonelli-Shanks
    f = field_of_order(q)
    n_roots = 0
    for a in f.elements():
        r = sqrt(a)
        if quadratic_character(a) == -1 if a else False:
            assert r is None
            continue
        if a and quadratic_character(a) == -1:
            assert r is None
            continue
        assert r is not None and r * r == a
        # canonical choice: the lexicographically smaller of the pair
        assert r.coeffs <= (-r).coeffs
        if a:
            n_roots += 1
    assert n_roots == (q - 1) // 2


def test_is_nth_power():
    f5 = make_field(5)
    assert is_nth_power(f5(4), 2)
    assert not is_nth_power(f5(2), 2)
    assert is_nth_power(f5(2), 3)     # gcd(3, 4) = 1, everything
    with pytest.raises(ValueError):
        is_nth_power(f5(0), 2)
    with pytest.raises(ValueError):
        is_nth_power(make_field(2, 2).one, 2)


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 49])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_is_nth_power_vs_exhaustive(q, m):
    f = field_of_order(q)
    els = [a for a in f.elements() if a]
    powers = {a ** m for a in els}
    for a in els:
        assert is_nth_power(a, m) == (a in powers)


def test_generator_is_not_an_eighth_power_in_f49():
    f = field_of_order(49)
    exp, _ = f._explog()
    g = f.from_code(exp[1])
    # multiplicative order 48; 8th powers form the subgroup of order 6
    assert not is_nth_power(g, 8)
    assert len({a ** 8 for a in f.elements() if a}) == 6


def squaring_trace(a):
    """Reference trace: a + a^2 + ... + a^(2^(n-1)) by repeated Fe
    squaring, which must land on 0 or 1."""
    acc = t = a
    for _ in range(a.field.n - 1):
        t = t * t
        acc = acc + t
    assert acc in (a.field.zero, a.field.one)
    return int(acc == a.field.one)


def test_trace2_frozen():
    f2 = make_field(2)
    assert trace2(f2(1)) == 1
    assert trace2(f2(0)) == 0
    f4 = make_field(2, 2)
    t = f4([0, 1])
    assert trace2(t) == 1            # t + t^2 = 1 for x^2 + x + 1
    assert trace2(f4.one) == 0       # 1 + 1 = 0
    with pytest.raises(ValueError):
        trace2(make_field(3).one)


@pytest.mark.parametrize("n", range(1, 9))
def test_trace2_linearity_exhaustive(n):
    f = make_field(2, n)
    els = list(f.elements())
    tr = {a: trace2(a) for a in els}
    for a in els:
        assert tr[a * a] == tr[a]
        for b in els:
            assert (tr[a] + tr[b]) % 2 == tr[a + b]


@pytest.mark.parametrize("n", range(1, 13))
def test_trace2_zero_count(n):
    f = Field(2, n)  # fresh, so the trace mask is built here
    tr = [trace2(f.from_code(c)) for c in range(f.q)]
    assert tr.count(0) == 2 ** (n - 1)
    # the mask, built from the modulus without discrete logs, agrees
    # with the repeated-squaring definition at every code
    assert "explog" not in f._tab
    assert tr == [squaring_trace(f.from_code(c)) for c in range(f.q)]


@pytest.mark.parametrize("n", [20, 40, 63])
def test_trace2_basis_above_the_cap(n):
    f = make_field(2, n)
    for i in range(n):
        a = f.from_code(1 << i)
        assert trace2(a) == squaring_trace(a), i


def test_field_of_order():
    assert field_of_order(49) is make_field(7, 2)
    assert field_of_order(7) is make_field(7)
    with pytest.raises(ValueError):
        field_of_order(6)
    with pytest.raises(ValueError):
        field_of_order(12)


def test_add_mul_tables_agree_with_elements():
    for q in (7, 27, 8, 121):
        f = field_of_order(q)
        add = f._add_func()
        mul = f._mul_func()
        neg = f._neg_codes()
        inv = f._inv_codes()
        rng = random.Random(q)
        for _ in range(300):
            a, b = rng.randrange(q), rng.randrange(q)
            fa, fb = f.from_code(a), f.from_code(b)
            assert add(a, b) == f.code(fa + fb)
            assert mul(a, b) == f.code(fa * fb)
            assert neg[a] == f.code(-fa)
            if a:
                assert inv[a] == f.code(fa.inv())


# ---------------------------------------------------------------------------
# Zech-logarithm addition against digit-wise references that share none of
# its tables: base-p digits add mod p.

ODD_EXT_729 = [q for q in odd_prime_powers(729) if field_of_order(q).n > 1]


def _digits(f, c):
    out = []
    for _ in range(f.n):
        out.append(c % f.p)
        c //= f.p
    return out


def _undigits(f, ds):
    c = 0
    for d in reversed(ds):
        c = c * f.p + d
    return c


def _digit_add(f, a, b):
    return _undigits(f, [(x + y) % f.p
                         for x, y in zip(_digits(f, a), _digits(f, b))])


def _digit_neg(f, a):
    return _undigits(f, [(-x) % f.p for x in _digits(f, a)])


def _add_table(f):
    """The q x q addition table the fields used to keep."""
    digits = [_digits(f, c) for c in range(f.q)]
    powers = [f.p ** i for i in range(f.n)]
    return [[sum((x + y) % f.p * pw for x, y, pw in zip(da, db, powers))
             for db in digits] for da in digits]


def _zech_mismatches(f, table=None, pairs=None):
    """Pairs where `_add_func` or `_sub_func` disagrees with digit-wise
    addition: every pair against the add table, or the given pairs."""
    add, sub = f._add_func(), f._sub_func()
    bad = 0
    if table is not None:
        neg = [_digit_neg(f, c) for c in range(f.q)]
        for a, row in enumerate(table):
            bad += sum(add(a, b) != row[b] for b in range(f.q))
            bad += sum(sub(a, b) != row[neg[b]] for b in range(f.q))
        return bad
    for a, b in pairs:
        bad += add(a, b) != _digit_add(f, a, b)
        bad += sub(a, b) != _digit_add(f, a, _digit_neg(f, b))
    return bad


def _mutant_zech(f):
    """A Zech table that adds 2 to the constant digit instead of 1."""
    exp, log = f._explog()
    p = f.p
    return [log[c - c % p + (c % p + 2) % p] for c in exp]


@pytest.mark.parametrize("q", ODD_EXT_729)
def test_zech_matches_the_add_table_on_every_pair(q):
    f = field_of_order(q)
    assert _zech_mismatches(f, table=_add_table(f)) == 0


@pytest.mark.parametrize("q", [2187, 2197, 3 ** 10])
def test_zech_matches_digit_addition_sampled(q):
    f = field_of_order(q)
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(50000)]
    # the zero cases and b = -a, where the Zech table holds None
    pairs += [(0, 5), (5, 0), (0, 0), (7, _digit_neg(f, 7)), (9, 9)]
    assert _zech_mismatches(f, pairs=pairs) == 0


def test_mutant_zech_table_is_caught(monkeypatch):
    f = field_of_order(81)
    monkeypatch.setattr(f, "_tab", {"zech": _mutant_zech(f)})
    assert _zech_mismatches(f, table=_add_table(f)) > 0
    rng = random.Random(0)
    pairs = [(rng.randrange(81), rng.randrange(81)) for _ in range(200)]
    assert _zech_mismatches(f, pairs=pairs) > 0
    assert _field_axiom_failures(81)


def _fe_explog(f):
    """The (exp, log) tables from `Fe` powers and products: the generator
    is the lexicographically first element of order q - 1."""
    m = f.q - 1
    fac = prime_factors(m) if m > 1 else []
    gen = next(g for g in f.elements()
               if g and all(g ** (m // r) != f.one for r in fac))
    exp, log = [0] * m, [None] * f.q
    acc = f.one
    for k in range(m):
        exp[k] = f.code(acc)
        log[exp[k]] = k
        acc = acc * gen
    return exp, log


@pytest.mark.parametrize(
    "q", [q for q in odd_prime_powers(3 ** 7) if field_of_order(q).n > 1]
    + [2 ** n for n in range(1, 11)])
def test_explog_matches_fe_products(q):
    f = field_of_order(q)
    assert f._explog() == _fe_explog(f)


@pytest.mark.parametrize("q", [7, 9, 25, 27, 81, 121, 343, 8, 64])
def test_neg_and_sqrt_codes_match_fe(q):
    f = field_of_order(q)
    neg = f._neg_codes()
    if q % 2:
        sq = f._sqrt_codes()
    else:
        # characteristic 2 takes roots with char2_sqrt
        with pytest.raises(ValueError):
            f._sqrt_codes()
    for a in f.elements():
        c = f.code(a)
        assert neg[c] == f.code(-a)
        if q % 2:
            r = sqrt(a)
            assert sq[c] == (None if r is None else f.code(r))


def test_fe_mixing_follows_field_equality():
    interned = make_field(5, 2)
    twin = Field(5, 2)
    assert twin is not interned and twin == interned
    a, b = interned([1, 2]), twin([1, 2])
    assert a == b and (a + b).coeffs == (2, 4)
    assert (a * b).coeffs == (interned([1, 2]) ** 2).coeffs
    other = Field(5, 2, (3, 0, 1))
    with pytest.raises(ValueError):
        a + other([1, 2])
    with pytest.raises(ValueError):
        a * other([1, 2])
    assert a != make_field(7, 2)([1, 2])


# ---------------------------------------------------------------------------
# Reference element arithmetic on coefficient tuples: a schoolbook product
# reduced by the modulus, an extended Euclid with its own long division,
# and square-and-multiply on that product.  `Fe` runs on the shared list
# kernel instead; these loops are what it must agree with.

def ref_mul(f, a, b):
    p, n, mod = f.p, f.n, f.modulus
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(2 * n - 2, n - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(n):
                out[i - n + j] = (out[i - n + j] - c * mod[j]) % p
    return tuple(out[:n])


def ref_inv(f, a):
    p = f.p
    r0, r1 = list(f.modulus), _ptrim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        linv = pow(r1[-1], p - 2, p)
        d = len(r1) - 1
        q = [0] * (len(r0) - d)
        r = list(r0)
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i] * linv % p
            if c:
                q[i - d] = c
                for j in range(d + 1):
                    r[i - d + j] = (r[i - d + j] - c * r1[j]) % p
        _ptrim(r)
        qs1 = [0] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs1[i + j] = (qs1[i + j] + qi * sj) % p
        s = _psub(s0, qs1, p)
        r0, r1, s0, s1 = r1, r, s1, s
    c = pow(r1[0], p - 2, p)
    out = [x * c % p for x in s1]
    out += [0] * (f.n - len(out))
    return tuple(out[:f.n])


def ref_pow(f, a, e):
    if e < 0:
        a, e = ref_inv(f, a), -e
    result = (1,) + (0,) * (f.n - 1)
    while e:
        if e & 1:
            result = ref_mul(f, result, a)
        a = ref_mul(f, a, a)
        e >>= 1
    return result


def _check_against_reference(f, a, b, exponents):
    assert (a * b).coeffs == ref_mul(f, a.coeffs, b.coeffs)
    for e in exponents:
        if a or e >= 0:
            assert (a ** e).coeffs == ref_pow(f, a.coeffs, e), (a, e)
    if a:
        assert a.inv().coeffs == ref_inv(f, a.coeffs)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inv()


@pytest.mark.parametrize("q", [9, 16, 25, 27, 81])
def test_fe_ops_match_the_reference_on_every_pair(q):
    f = field_of_order(q)
    els = list(f.elements())
    for a in els:
        for b in els:
            assert (a * b).coeffs == ref_mul(f, a.coeffs, b.coeffs)
        _check_against_reference(
            f, a, a, (0, 1, 2, 3, q - 2, q - 1, q, 5 * q + 3, -1, -q - 1))


@pytest.mark.parametrize("p, n", [(3, 13), (2, 20), (1048573, 2)])
def test_fe_ops_match_the_reference_sampled(p, n):
    f = make_field(p, n)
    rng = random.Random(p * 100 + n)
    for _ in range(150):
        a, b = (f([rng.randrange(p) for _ in range(n)]) for _ in range(2))
        _check_against_reference(
            f, a, b, (rng.randrange(f.q), -rng.randrange(1, f.q),
                      rng.randrange(f.q ** 2)))


@pytest.mark.parametrize("p, n", [(5, 9), (1048573, 2), (1048571, 2)])
def test_sqrt_above_the_enumeration_cap(p, n):
    # q = 1 mod 4 over 2^20: Tonelli-Shanks needs a non-residue, and
    # finding it must not enumerate the field.  For p = 3 mod 4 the
    # first p elements of GF(p^2) in lex order are squares.
    f = make_field(p, n)
    assert f.q > DEFAULT_ENUMERATION_CAP and f.q % 4 == 1
    rng = random.Random(p)
    for _ in range(20):
        a = f([rng.randrange(p) for _ in range(n)])
        r = sqrt(a * a)
        assert r in (a, -a) and r.coeffs <= (-r).coeffs
    z = _first_nonresidue(f)
    assert quadratic_character(z) == -1 and sqrt(z) is None


@pytest.mark.parametrize("q", ODD_Q_121 + [343, 625, 961, 2187, 2401])
def test_first_nonresidue_matches_the_chi_table_scan(q):
    f = field_of_order(q)
    chi = f._chi_codes()
    want = next(c for c in f._lex_codes() if c and chi[c] == -1)
    assert f.code(_first_nonresidue(f)) == want
    assert _first_nonsquare_code(f) == want


def test_every_cached_table_is_a_sized_list():
    # perfbench sizes what `Field._get` builds with len(), element-wise
    # for a tuple, so each stored value is a list or a tuple of lists
    odd = [make_field(7), make_field(3, 2)]
    for f in odd:
        stats.verify_stats(f.q)
        curve.verify_twist_counts(f)
        curve.verify_group_law(f)
        curve.verify_shift_sums(f)
        curve.verify_two_descent_kernel(f)
        curve.verify_four_torsion_equivalence(f)
        classify.census(f.q)
        e = legendre(f, f.from_code(2))
        e.points()
        e.group_structure()
    f16 = make_field(2, 4)
    assert char2.verify_char2_prop(4) and char2.verify_odd_intersection(4)
    assert char2.frobenius_image_check(f16.from_code(3))
    for f in odd + [f16]:
        assert f._tab
        for name, value in f._tab.items():
            assert (isinstance(value, list)
                    or (isinstance(value, tuple)
                        and all(isinstance(v, list) for v in value))), name
