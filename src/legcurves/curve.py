"""Elliptic curves with full rational 2-torsion over odd-characteristic
fields, stored in split-root form: delta*y^2 = (x-alpha)(x-beta)(x-gamma).

Nonsingularity is the statement that the three roots are distinct, so it
is checked at construction.  The isomorphism test looks for an explicit
coordinate change x -> s*x + t between the monic models; an affine map
is fixed by where it sends two roots, so it tries six candidates, and
it has no special cases at j = 0 or 1728.

The sweeps share four primitives of the monic model y^2 = f(x) =
(x-ra)(x-rb)(x-rc) on integer element codes, with the field's O(q)
lookup tables (extension fields add by Zech's logarithm):
`_cubic_codes` (f at every x), `_affine_codes` (the affine points, in
`Curve.points` order), `_chord_tangent` (the group law on (x, y)
pairs, written once; `_ladder` multiplies) and `_double_x_codes`
(x(2P) from x alone, for the 2-descent and four-torsion sweeps).
The group structure comes from generators and the lattice of their
relations: the multiples of each new generator are walked until they
land in the span of the earlier ones, and the Smith form of the
relation matrix gives the invariant factors (`_group_structure_codes`;
a supersingular (d, d) group takes two walks and no enumeration).
`Curve.add` and `Curve.multiply` run `_chord_tangent` on `Fe` elements
of the monic model, (x, y) -> (d*x, d^2*y), so they build no table and
work on every field the package builds; `verify_group_law` checks the
code law and the x-only map against it.  The lambda-line count table
and the all-curves oracle of `classify` share `_chi_shift_sums`: the
character sums sum_v w[v] * chi(v + b) for every b at once, as one
cyclic correlation (`_correlate`, one exact product of two packed
integers): over Z/p directly, and over F_q^* in log order for an
extension field, so no operand holds more than q slots.  The self-twist
sweep reads its q + 1 prefilter from that table too.  The one literal
(x, y) count of the family, `_literal_legendre_counts`, backs them in
the twist check and in `stats`: it walks x = g^k through the
`Field._explog` tables, one builtin sum per lambda, and reads no
character table.  The verify_* sweeps at the bottom are exhaustive
oracles used by the test suite and the CLI.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb, gcd
import operator

from .field import (Fe, _first_nonresidue, _pack, _unpack, check_cap,
                    check_hasse)


class Point:
    """A rational point: affine (x, y) or the point at infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x=None, y=None):
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        self.x = x
        self.y = y

    @property
    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x!r}, {self.y!r})"


INFINITY = Point()


def _short(e):
    return str(e.coeffs[0]) if e.field.n == 1 else str(tuple(e.coeffs))


class Curve:
    """delta*y^2 = (x-alpha)(x-beta)(x-gamma) with pairwise distinct roots."""

    __slots__ = ("field", "alpha", "beta", "gamma", "delta")

    def __init__(self, field, alpha, beta, gamma, delta=1):
        if field.p == 2:
            raise ValueError("split-root curves need odd characteristic")
        a, b, c = field(alpha), field(beta), field(gamma)
        if a == b or a == c or b == c:
            raise ValueError("singular: the cubic has a repeated root")
        d = field(delta)
        if not d:
            raise ValueError("twist coefficient must be nonzero")
        self.field = field
        self.alpha, self.beta, self.gamma = a, b, c
        self.delta = d

    @property
    def roots(self):
        return (self.alpha, self.beta, self.gamma)

    @property
    def legendre_lambda(self):
        """gamma when the curve is y^2 = x(x-1)(x-lambda), else None."""
        f = self.field
        if self.alpha == f.zero and self.beta == f.one and self.delta == f.one:
            return self.gamma
        return None

    def __eq__(self, other):
        return (isinstance(other, Curve) and self.field == other.field
                and self.roots == other.roots and self.delta == other.delta)

    def __hash__(self):
        return hash((self.field.q, self.roots, self.delta))

    def __repr__(self):
        rr = ", ".join(_short(r) for r in self.roots)
        if self.delta == self.field.one:
            return f"Curve({self.field!r}, roots=({rr}))"
        return f"Curve({self.field!r}, roots=({rr}), delta={_short(self.delta)})"

    # -- equation ------------------------------------------------------

    def rhs(self, x):
        x = self.field(x)
        return (x - self.alpha) * (x - self.beta) * (x - self.gamma)

    def contains(self, point):
        if point.is_infinity:
            return True
        return self.delta * point.y * point.y == self.rhs(point.x)

    def monic_roots(self):
        """Roots of the isomorphic monic model Y^2 = product(X - d*root),
        reached by (x, y) -> (d*x, d^2*y)."""
        d = self.delta
        return (d * self.alpha, d * self.beta, d * self.gamma)

    def _monic_codes(self):
        """The element codes of `monic_roots`, as the code-level
        primitives take them."""
        return tuple(map(self.field.code, self.monic_roots()))

    # -- group law -----------------------------------------------------

    def neg(self, point):
        if point.is_infinity:
            return point
        return Point(point.x, -point.y)

    def add(self, p1, p2):
        if not (self.contains(p1) and self.contains(p2)):
            raise ValueError("point is not on the curve")
        return self._from_monic(
            _fe_law(self)(self._to_monic(p1), self._to_monic(p2)))

    def _to_monic(self, point):
        """The (d*x, d^2*y) pair of a point on the monic model, None for
        infinity."""
        if point.is_infinity:
            return None
        d = self.delta
        if d == self.field.one:
            return point.x, point.y
        return d * point.x, d * d * point.y

    def _from_monic(self, pair):
        if pair is None:
            return INFINITY
        if self.delta == self.field.one:
            return Point(*pair)
        e = self.delta.inv()
        return Point(e * pair[0], e * e * pair[1])

    def multiply(self, point, k):
        if not self.contains(point):
            raise ValueError("point is not on the curve")
        if k < 0:
            point, k = self.neg(point), -k
        return self._from_monic(
            _ladder(_fe_law(self), self._to_monic(point), k))

    # -- enumeration ---------------------------------------------------

    def points(self, cap=None):
        """All rational points: infinity first, then affine points with x
        in lexicographic order and the canonical square root first."""
        f = self.field
        check_cap(f.q, cap, "point enumeration", f)
        roots = tuple(f.code(r) for r in self.roots)
        dinv = f.code(self.delta.inv())
        fc = f.from_code
        return [INFINITY] + [Point(fc(x), fc(y))
                             for x, y in _affine_codes(f, roots, dinv)]

    def count_points(self, cap=None):
        """q + 1 + sum over x of chi(delta * f(x)), taken on the monic
        model: chi(d^3 f(x/d)) = chi(d f(x)) because chi(d^2) = 1."""
        f = self.field
        q = f.q
        check_cap(q, cap, "counting", f)
        chi = f._chi_codes()
        n = q + 1 + sum(chi[v] for v in _cubic_codes(f, self._monic_codes()))
        check_hasse(n, q)
        return n

    def group_structure(self, cap=None):
        """Invariant factors (d1, d2), d1 | d2, of the point group: the
        Smith form of the relation lattice of a few generators, found
        by walking their multiples (`_group_structure_codes`), so no
        point needs its own order.

        Works on the isomorphic monic model with integer element codes;
        the model change is a group isomorphism, so the factors carry
        over unchanged."""
        f = self.field
        check_cap(f.q, cap, "group structure", f)
        return _group_structure_codes(f, self._monic_codes())

    # -- invariants ----------------------------------------------------

    def j_invariant(self):
        """Via the cross-ratio c = (gamma-alpha)/(beta-alpha):
        j = 256 (c^2-c+1)^3 / (c^2 (c-1)^2).  Twist-invariant."""
        return j_of_lambda((self.gamma - self.alpha) / (self.beta - self.alpha))


# ---------------------------------------------------------------------------
# constructors and lambda-line helpers


def legendre(field, lam):
    """y^2 = x(x-1)(x-lambda); lambda outside {0, 1}."""
    lam = field(lam)
    if lam == field.zero or lam == field.one:
        raise ValueError("lambda in {0, 1} gives a singular cubic")
    return Curve(field, 0, 1, lam)


def twist(curve, d):
    """Same cubic, twist coefficient multiplied by d."""
    d = curve.field(d)
    if not d:
        raise ValueError("twist coefficient must be nonzero")
    return Curve(curve.field, curve.alpha, curve.beta, curve.gamma,
                 curve.delta * d)


def orbit(lam):
    """{lam, 1-lam, 1/lam, 1-1/lam, 1/(1-lam), lam/(lam-1)} as a set."""
    f = lam.field
    if lam == f.zero or lam == f.one:
        raise ValueError("lambda in {0, 1} has no curve orbit")
    one = f.one
    inv = lam.inv()
    w = (one - lam).inv()
    return {lam, one - lam, inv, one - inv, w, lam * (lam - one).inv()}


def j_of_lambda(lam):
    f = lam.field
    num = lam * lam - lam + f.one
    den = lam * lam * (lam - f.one) * (lam - f.one)
    return f(256) * num * num * num / den


def full_four_torsion_rational(curve):
    """Whether -1, lambda and 1-lambda are all squares; equivalent to the
    4-torsion being rational with invariant factors (4, 4)."""
    lam = curve.legendre_lambda
    if lam is None:
        raise ValueError("the 4-torsion square test is for Legendre curves")
    f = curve.field
    chi = f._chi_codes()
    return (chi[f.code(f(-1))] == 1 and chi[f.code(lam)] == 1
            and chi[f.code(f.one - lam)] == 1)


def count_four_torsion(curve, cap=None):
    """Points killed by 4, on the monic model: infinity, the three with
    y = 0, and +-P for every x whose x(2P) is a root."""
    f = curve.field
    check_cap(f.q, cap, "point enumeration", f)
    roots = curve._monic_codes()
    halves = sum(x2 in roots for x2 in _double_x_codes(f, roots).values())
    return 4 + 2 * halves


# ---------------------------------------------------------------------------
# isomorphism testing


def _root_transform_exists(field, roots1, roots2):
    """Whether x -> s*x + t with s a nonzero square carries the root
    codes roots2 = (a, b, c) onto roots1.  The map is fixed by where it
    sends a and b, so the only candidates send them to an ordered pair
    (u, v) of roots1: s = (v - u)/(b - a), and the map works when s is
    a square and s*(c - a) + u is the third root w."""
    chi = field._chi_codes()
    add, sub, mul = field._add_func(), field._sub_func(), field._mul_func()
    a, b, c = roots2
    inv_ba = field._inv_codes()[sub(b, a)]
    ca = sub(c, a)
    for u, v, w in itertools.permutations(roots1):
        s = mul(sub(v, u), inv_ba)
        if chi[s] == 1 and add(mul(s, ca), u) == w:
            return True
    return False


def is_isomorphic(curve1, curve2, cap=None):
    """Whether a coordinate change x -> s*x + t, s a nonzero square,
    carries the monic model of curve2 onto that of curve1.  Six
    candidate maps decide it, so the test reads no invariant and is
    uniform in j, including the extra-automorphism cases."""
    f = curve1.field
    if f != curve2.field:
        raise ValueError("isomorphism testing needs a common base field")
    check_cap(f.q, cap, "isomorphism test", f)
    return _root_transform_exists(f, curve1._monic_codes(),
                                  curve2._monic_codes())


def is_legendre_isomorphic(curve, cap=None):
    """Whether the curve is isomorphic to y^2 = x(x-1)(x-mu) for some mu.
    A map onto a Legendre model sends two roots u, v of the monic model
    to 0 and 1, so mu = (w - u)/(v - u) for one of the six orderings
    (u, v, w) of the roots; those six candidates decide it."""
    f = curve.field
    check_cap(f.q, cap, "isomorphism test", f)
    sub, mul, inv = f._sub_func(), f._mul_func(), f._inv_codes()
    roots = curve._monic_codes()
    mus = (mul(sub(w, u), inv[sub(v, u)])
           for u, v, w in itertools.permutations(roots))
    return any(_root_transform_exists(f, roots, (0, 1, mu)) for mu in mus)


# ---------------------------------------------------------------------------
# bulk point counts over the lambda line


def legendre_count_table(field, cap=None):
    """{lambda code: point count} for every lambda outside {0, 1}, keys
    in lexicographic element order.  The count is q + 1 + the sum over
    x of chi(x(x-1)) * chi(x - lambda), so the whole table is one call
    of `_chi_shift_sums` with w[x] = chi(x(x-1)), read at b = -lambda.
    Raises RuntimeError if a count breaks the Hasse bound."""
    q = field.q
    check_cap(q, cap, "lambda sweep", field)
    p = field.p
    chi = field._chi_codes()
    mul = field._mul_func()
    # x - 1 on codes: only the constant digit changes, and 0 - 1 = p - 1
    sums = _chi_shift_sums(
        field, [chi[mul(x, x - 1 if x % p else x + p - 1)] for x in range(q)])
    neg = field._neg_codes()
    out = {}
    for lam in field._lex_codes():
        if lam == 0 or lam == 1:
            continue
        n = q + 1 + sums[neg[lam]]
        check_hasse(n, q, f" at lambda code {lam}")
        out[lam] = n
    return out


# ---------------------------------------------------------------------------
# integer-code engine shared by the exhaustive sweeps


def _correlate(a, c):
    """r[l] = sum over k of a[k] * c[(k + l) mod m] for every l, where
    m = len(a) = len(c) and each c[j] is in {-1, 0, 1}, from one exact
    product of two m-slot packed integers (Kronecker substitution).

    a[k] - min(a) sits at slot -k mod m and c[j] + 1 at slot j, so
    folding the product's slots s and s + m gathers every pair with
    j = k + s mod m.  That gives r[s] + sum(a - min(a)) - min(a) * sum(c).
    The 32-bit slots hold at most 2 * sum(a - min(a)), 4q for a
    character weight and 2q for a histogram."""
    m = len(a)
    floor = min(a)
    a = [x - floor for x in a]
    bias = sum(a)
    if 2 * bias >> 32:
        raise ValueError("weights too large for 32-bit slots")
    prod = _pack(a[:1] + a[:0:-1], "I") * _pack([x + 1 for x in c], "I")
    slots = _unpack(prod, 2 * m, "I").tolist()
    bias -= floor * sum(c)
    return [s + t - bias for s, t in zip(slots[:m], slots[m:])]


def _chi_shift_sums(field, w):
    """T[b] = sum over v of w[v] * chi(v + b) for every code b, as one
    cyclic correlation (`_correlate`).

    A prime field's codes are Z/p itself, so T is the correlation of w
    with chi, and no log table is read.  An extension field indexes
    F_q^* by log: for v = g^k and b = g^l, chi(v + b) = chi(b) *
    chi(1 + g^(k-l)), so T[g^l] = chi(g^l) * (w[0] + r[-l mod m]) with r
    the correlation of w[g^k] with chi(1 + g^j), m = q - 1.  1 + g^j only
    changes the constant digit of the code, as in `Field._zech`.  T[0]
    is summed directly."""
    chi = field._chi_codes()
    if field.n == 1:
        return _correlate(w, chi)
    p, q = field.p, field.q
    m = q - 1
    exp, _ = field._explog()
    top = p - 1
    r = _correlate([w[u] for u in exp],
                   [chi[u - top if u % p == top else u + 1] for u in exp])
    out = [0] * q
    out[0] = sum(map(operator.mul, w, chi))
    w0 = w[0]
    for l, u in enumerate(exp):
        out[u] = chi[u] * (w0 + r[-l % m])
    return out


def _cubic_codes(field, roots):
    """v[x] = (x-ra)(x-rb)(x-rc) for every element code x."""
    ra, rb, rc = roots
    if field.n == 1:
        p = field.p
        return [(x - ra) * (x - rb) * (x - rc) % p for x in range(p)]
    sub = field._sub_func()
    mul = field._mul_func()
    return [mul(mul(sub(x, ra), sub(x, rb)), sub(x, rc))
            for x in range(field.q)]


def _double_x_codes(field, roots):
    """{x: x(2P)} for the affine P = (x, y), y != 0, of the monic curve
    y^2 = f(x) = (x-ra)(x-rb)(x-rc), so where chi(f(x)) = 1 (+-P share
    it): x(2P) = f'(x)^2 / (4 f(x)) + s1 - 2x, s1 the root sum."""
    chi, inv = field._chi_codes(), field._inv_codes()
    ra, rb, rc = roots
    p = field.p
    if field.n == 1:
        s1, s2 = ra + rb + rc, ra * rb + ra * rc + rb * rc
        # f inline, not from `_cubic_codes`: this is the descent's hot loop
        return {x: (((3 * x - 2 * s1) * x + s2) ** 2 * inv[4 * c % p]
                    + s1 - 2 * x) % p for x in range(p)
                if chi[c := (x - ra) * (x - rb) * (x - rc) % p] == 1}
    add, sub, mul = field._add_func(), field._sub_func(), field._mul_func()
    s1 = add(add(ra, rb), rc)
    s2 = add(add(mul(ra, rb), mul(ra, rc)), mul(rb, rc))
    three, four, twos1 = 3 % p, 4 % p, add(s1, s1)  # as element codes
    return {x: sub(sub(add(mul(mul(fp, fp), inv[mul(four, c)]), s1), x), x)
            for x, c in enumerate(_cubic_codes(field, roots)) if chi[c] == 1
            for fp in [add(mul(sub(mul(three, x), twos1), x), s2)]}


def _literal_legendre_counts(field, d):
    """L[lambda] = |{(x, y) : d*y^2 = x(x-1)(x-lambda)}| for every
    lambda code, 0 and 1 included: the literal (x, y) count, grouped by
    the value v of the cubic.  hist[v] = |{y : d*y^2 = v}| is filled by
    squaring every y.  The sum walks x = g^k in `Field._explog` order:
    with b = x(x-1) the cubic is b*(x - lambda), and x - lambda =
    x*(1 - lambda/x), so at lambda = g^l its log is C[k] + Z[k - l],
    with C[k] = log(b) + k and Z[j] = log(1 - g^-j).  Both lists take
    O(q) field operations; each lambda is then one builtin sum over hist
    read at C plus a rotated slice of Z, and one index past every sum of
    two logs stands for a zero cubic (x = 1 or x = lambda).  x = 0 adds
    hist[0] to every lambda, and lambda = 0 is summed directly.  Reads
    no quadratic-character or square-root table, so it stays an oracle
    for the character-sum routes."""
    q = field.q
    m = q - 1
    sub = field._sub_func()
    mul = field._mul_func()
    exp, log = field._explog()
    hist = [0] * q
    for y in range(q):
        hist[mul(d, mul(y, y))] += 1
    # a sum of two logs lies in [0, 2m - 2]; a sum holding `zero` lies
    # in [2m, 4m], where by_log reads hist[0]
    zero = 2 * m
    by_log = [hist[v] for v in exp] * 2 + [hist[0]] * (2 * m + 1)
    c = []
    for k, x in enumerate(exp):
        b = mul(x, sub(x, 1))
        c.append(zero if b == 0 else (log[b] + k) % m)
    z = [zero] + [log[sub(1, exp[m - j])] for j in range(1, m)]
    z += z
    read, h0 = by_log.__getitem__, hist[0]
    out = [0] * q
    out[0] = sum(hist[mul(x, mul(x, sub(x, 1)))] for x in range(q))
    for l, lam in enumerate(exp):
        out[lam] = h0 + sum(map(read, map(operator.add, c,
                                              z[m - l:2 * m - l])))
    return out


def _affine_codes(field, roots, dinv=1):
    """Affine points of delta*y^2 = (x-ra)(x-rb)(x-rc) as (x, y) code
    pairs, dinv the code of 1/delta: x in lexicographic order, and the
    canonical square root before its negative."""
    chi = field._chi_codes()
    sq = field._sqrt_codes()
    neg = field._neg_codes()
    v = _cubic_codes(field, roots)
    if dinv != 1:
        mul = field._mul_func()
        v = [mul(dinv, c) for c in v]
    out = []
    for x in field._lex_codes():
        c = v[x]
        s = chi[c]
        if s == 0:
            out.append((x, 0))
        elif s == 1:
            y = sq[c]
            out.append((x, y))
            out.append((x, neg[y]))
    return out


class _Apply:
    """A unary function read by index, view[a] = fn(a): the stand-in for
    the inverse and negation tables when the law runs on `Fe` elements."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return self.fn(a)


# add, sub, mul, inverse and negation of `Fe` elements, table-free
_FE_ARITH = (operator.add, operator.sub, operator.mul,
             _Apply(Fe.inv), _Apply(operator.neg))


def _chord_tangent(field, roots, arith=None):
    """The group law of y^2 = (x-ra)(x-rb)(x-rc) on (x, y) pairs, with
    None for infinity.  Coordinates are element codes with the field's
    lookup tables, or the elements of `arith` = (add, sub, mul, inverse,
    negation), the last two read by index.  A pair with x1 == x2 that is
    not P, -P holds a point off the curve, and raises RuntimeError."""
    if arith is None:
        arith = (field._add_func(), field._sub_func(), field._mul_func(),
                 field._inv_codes(), field._neg_codes())
    add, sub, mul, inv, neg = arith
    ra, rb, rc = roots
    s1 = add(add(ra, rb), rc)
    s2 = add(add(mul(ra, rb), mul(ra, rc)), mul(rb, rc))
    twos1 = add(s1, s1)

    def eadd(p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:
            if y1 == neg[y2]:
                return None
            if y1 != y2:
                raise RuntimeError(
                    f"({x1}, {y1}) and ({x2}, {y2}) share x but are neither "
                    f"equal nor opposite: one is not on the curve")
            x1s = mul(x1, x1)
            fp = add(sub(add(add(x1s, x1s), x1s), mul(twos1, x1)), s2)
            m = mul(fp, inv[add(y1, y1)])
        else:
            m = mul(sub(y2, y1), inv[sub(x2, x1)])
        x3 = sub(sub(add(mul(m, m), s1), x1), x2)
        return x3, neg[add(y1, mul(m, sub(x3, x1)))]
    return eadd


@lru_cache(maxsize=256)
def _fe_law(curve):
    """`_chord_tangent` of a curve's monic model on `Fe` elements, kept
    for the curves used last, so repeated `Curve.add` calls build it
    once."""
    return _chord_tangent(curve.field, curve.monic_roots(), _FE_ARITH)


def _ladder(eadd, point, k):
    """[k]point for k >= 0 by double-and-add with the law eadd."""
    acc = None
    while k:
        if k & 1:
            acc = eadd(acc, point)
        k >>= 1
        if k:
            point = eadd(point, point)
    return acc


def _group_structure_codes(field, roots):
    """(d1, d2) with the point group Z/d1 x Z/d2, d1 | d2, from
    generators and the lattice of their relations (Buchmann and
    Schmidt, Math. Comp. 74 (2005)).  The span S of the generators found
    so far is a dict from point to index, the generators' exponents in
    mixed radix.  The next generator P is a point outside S; the walk
    P, 2P, ... stops at the first j0 P in S, say on t, which gives the
    relation j0 P = t.  These relations form a triangular matrix of
    determinant |S|, so they span every relation, and the Smith form of
    that matrix gives the invariant factors.  From P1 alone (S = {O})
    the walk is the order o1 of P1; if o1 j0 = #E for the second point,
    the group is (d1, #E/d1) with d1 = gcd(o1, t, j0).  Otherwise S is
    enumerated coset by coset and the next point outside it follows.
    Points with y != 0 go first, as (0, 0) has order 2.  A walk stops
    with a raise once j0 |S| would pass #E, so a wrong law that cycles
    outside S is caught, and so are overlapping cosets and points that
    do not fill #E."""
    affine = _affine_codes(field, roots)
    eadd = _chord_tangent(field, roots)
    n = len(affine) + 1
    span = {None: 0}
    size = 1            # |<generators>|, the product of the radices
    radices = []
    relations = []
    for pt in sorted(affine, key=lambda pt: pt[1] == 0):
        if size == n:
            break
        if pt in span:
            continue
        walk = [None]
        r = pt
        while r not in span:
            if (len(walk) + 1) * size > n:
                raise RuntimeError(
                    "a point's multiples find no relation within the "
                    "group order")
            walk.append(r)
            r = eadd(r, pt)
        t = span[r]
        row = []
        for m in radices:
            t, v = divmod(t, m)
            row.append(-v)
        relations.append(row + [len(walk)])
        radices.append(len(walk))
        if size * len(walk) < n:
            span = {eadd(m, s): i + j * size
                    for j, m in enumerate(walk) for s, i in span.items()}
            if len(span) != size * len(walk):
                raise RuntimeError("the cosets of a subgroup overlap")
        size *= len(walk)
    if size != n:
        raise RuntimeError("the points do not fill the group order")
    k = len(relations)
    factors = [d for d in _smith_diagonal(
        [row + [0] * (k - len(row)) for row in relations]) if d != 1]
    if len(factors) > 2:
        raise RuntimeError("the point group needs more than two generators")
    d1, d2 = ([1, 1] + factors)[-2:]
    if d2 % d1:
        raise RuntimeError("invariant factors are inconsistent with a group")
    return (d1, d2)


def _smith_diagonal(a):
    """The Smith form diagonal of a square nonsingular integer matrix
    (a list of rows, reduced in place), each entry dividing the next
    (Cohen, *A Course in Computational Algebraic Number Theory*, section
    2.4.3).  Row and column steps with the least entry as pivot make a
    diagonal; then (a, b) -> (gcd, lcm) on each pair, which keeps
    Z/a x Z/b, orders it by divisibility."""
    k = len(a)
    diag = []
    for i in range(k):
        while True:
            _, r, c = min((abs(a[r][c]), r, c) for r in range(i, k)
                          for c in range(i, k) if a[r][c])
            a[i], a[r] = a[r], a[i]
            for row in a[i:]:
                row[i], row[c] = row[c], row[i]
            piv = a[i][i]
            for row in a[i + 1:]:
                f = row[i] // piv
                for c in range(i, k):
                    row[c] -= f * a[i][c]
            for c in range(i + 1, k):
                f = a[i][c] // piv
                for row in a[i:]:
                    row[c] -= f * row[i]
            if not any(a[i][i + 1:]) and not any(row[i] for row in a[i + 1:]):
                break
        diag.append(abs(a[i][i]))
    for i in range(k):
        for j in range(i + 1, k):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


# ---------------------------------------------------------------------------
# exhaustive verification sweeps; each returns a list of failure strings


def _unrank_triple(q, r):
    """The r-th 3-subset of range(q) in `itertools.combinations` order."""
    a = 0
    while r >= comb(q - 1 - a, 2):
        r -= comb(q - 1 - a, 2)
        a += 1
    b = a + 1
    while r >= q - 1 - b:
        r -= q - 1 - b
        b += 1
    return (a, b, b + 1 + r)


def verify_group_law(field, curves=40, triples=60, seed=0):
    """Associativity, commutativity, inverses, identity and closure of
    `_chord_tangent` on code points, the law every sweep runs, and the
    x-only map `_double_x_codes` against its doubling.  Each drawn curve
    delta*y^2 = (x-ra)(x-rb)(x-rc) is checked through its monic model
    (x, y) -> (d*x, d^2*y), as `Curve.add` runs it; failure messages
    name points by their monic codes.

    Exhaustive over curves and point triples while the totals stay below
    the `curves` / `triples` budgets, seeded random samples beyond that.
    A sampled root triple is unranked from one random index, so memory
    stays O(q) where the C(q, 3) triples would not.
    """
    q = field.q
    rng = random.Random(seed * 0x9E3779B1 + q)
    failures = []
    n_triples = comb(q, 3)
    if n_triples * (q - 1) <= curves:
        chosen = [(t, d) for t in itertools.combinations(range(q), 3)
                  for d in range(1, q)]
    else:
        # the draws of rng.choice on the list of all triples and on
        # range(1, q), without building the list
        chosen = [(_unrank_triple(q, rng.randrange(n_triples)),
                   1 + rng.randrange(q - 1)) for _ in range(curves)]
    mul = field._mul_func()
    inv = field._inv_codes()
    neg = field._neg_codes()
    for roots, dc in chosen:
        # validates the roots and delta
        Curve(field, *map(field.from_code, roots), field.from_code(dc))
        monic = tuple(mul(dc, r) for r in roots)
        eadd = _chord_tangent(field, monic)
        cubic = _cubic_codes(field, monic)
        doubled = _double_x_codes(field, monic)
        # the drawn curve's points in `Curve.points` order, carried over
        pts = [None] + [(mul(dc, x), mul(dc, mul(dc, y)))
                        for x, y in _affine_codes(field, roots, inv[dc])]
        tag = f"q={q} roots=({roots[0]},{roots[1]},{roots[2]}) delta={dc}"
        for pt in pts:
            if eadd(pt, None) != pt:
                failures.append(f"{tag}: infinity is not neutral at {pt}")
            minus = None if pt is None else (pt[0], neg[pt[1]])
            if eadd(pt, minus) is not None:
                failures.append(f"{tag}: {pt} plus its negative is affine")
        for x, y in pts[1:]:
            if y and doubled.get(x) != (eadd((x, y), (x, y)) or [None])[0]:
                failures.append(f"{tag}: x-only doubling of {(x, y)} "
                                f"differs from the law")
        n = len(pts)
        if n ** 3 <= triples:
            trips = itertools.product(pts, pts, pts)
        else:
            trips = ((rng.choice(pts), rng.choice(pts), rng.choice(pts))
                     for _ in range(triples))
        for a, b, c in trips:
            # both partial sums must be points before they are added again
            ab, bc = eadd(a, b), eadd(b, c)
            if any(s is not None and mul(s[1], s[1]) != cubic[s[0]]
                   for s in (ab, bc)):
                failures.append(f"{tag}: sum of two points left the curve")
                continue
            if ab != eadd(b, a):
                failures.append(f"{tag}: addition is not commutative")
            if eadd(ab, c) != eadd(a, bc):
                failures.append(f"{tag}: addition is not associative")
    return failures


def verify_shift_sums(field):
    """`_chi_shift_sums` against the plain double loop over (b, v) with
    the field's addition, which shares none of the kernel's packing.
    The weights are the count table's chi(x(x-1)) and the histogram of
    x^3 + x, a family of the all-curves oracle in every odd
    characteristic."""
    f = field
    q = f.q
    chi = f._chi_codes()
    add = f._add_func()
    sub = f._sub_func()
    mul = f._mul_func()
    cubic = [0] * q
    for x in range(q):
        cubic[add(mul(mul(x, x), x), x)] += 1
    failures = []
    for name, w in (("chi(x(x-1))", [chi[mul(x, sub(x, 1))] for x in range(q)]),
                    ("x^3 + x histogram", cubic)):
        got = _chi_shift_sums(f, w)
        for b in range(q):
            want = sum(w[v] * chi[add(v, b)] for v in range(q))
            if got[b] != want:
                failures.append(f"q={q} {name}: shift sum at b={b} is "
                                f"{got[b]}, the double loop gives {want}")
                break
    return failures


def _first_nonsquare_code(field):
    return field.code(_first_nonresidue(field))


def verify_twist_counts(field):
    """count(E) + count(nonsquare twist of E) = 2q + 2 on every Legendre
    curve, with the twist counted by the literal (x, y) count
    `_literal_legendre_counts`, plus a check that the count only depends
    on the square class of the twist."""
    f = field
    q = f.q
    failures = []
    d0c = _first_nonsquare_code(f)
    d0 = f.from_code(d0c)
    table = legendre_count_table(f)
    chi = f._chi_codes()
    literal = _literal_legendre_counts(f, d0c)
    for lamc, n in table.items():
        total = n + literal[lamc] + 1
        if total != 2 * q + 2:
            failures.append(f"q={q} lambda={lamc}: twist counts sum to {total}")
        tw = twist(legendre(f, f.from_code(lamc)), d0)
        if twist(tw, d0).count_points() != n:
            failures.append(f"q={q} lambda={lamc}: square twist changed the count")
    # square-class independence on five curves, every nonsquare delta
    lams = list(table)[:5]
    nonsquares = [c for c in range(1, q) if chi[c] == -1]
    for lamc in lams:
        e = legendre(f, f.from_code(lamc))
        want = twist(e, d0).count_points()
        for dc in nonsquares:
            got = twist(e, f.from_code(dc)).count_points()
            if got != want:
                failures.append(
                    f"q={q} lambda={lamc}: twist count depends on the "
                    f"choice of non-square ({dc})")
                break
    return failures


def verify_two_descent_kernel(field):
    """Both halves of the 2-descent picture, against doubling as oracle
    (a point is a double exactly when its x is some x(2P) of
    `_double_x_codes`, as 2E is closed under negation):

    (a) on every monic curve, a 2-torsion point (g, 0) is a double
        exactly when its two root differences are both squares;
    (b) on every Legendre curve, the square-class triple of an affine
        point is trivial exactly when the point is a double."""
    f = field
    q = f.q
    sub = f._sub_func()
    chi = f._chi_codes()
    failures = []
    for roots in itertools.combinations(range(q), 3):
        doubled = set(_double_x_codes(f, roots).values())
        ra, rb, rc = roots
        for g, o1, o2 in ((ra, rb, rc), (rb, ra, rc), (rc, ra, rb)):
            member = g in doubled
            squares = (chi[sub(g, o1)] == 1 and chi[sub(g, o2)] == 1)
            if member != squares:
                failures.append(
                    f"q={q} roots={roots}: 2-torsion point at {g} is "
                    f"{'a' if member else 'not a'} double but the square "
                    f"test says otherwise")
        if (ra, rb) != (0, 1):
            continue
        # (b) on the Legendre curve at lambda = rc
        for x, y in _affine_codes(f, roots):
            vals = [chi[sub(x, r)] for r in roots]
            if 0 in vals:
                i = vals.index(0)
                vals[i] = vals[(i + 1) % 3] * vals[(i + 2) % 3]
            trivial = vals == [1, 1, 1]
            if trivial != (x in doubled):
                failures.append(
                    f"q={q} lambda={rc}: kernel mismatch at ({x},{y})")
    return failures


def _trace_zero_triples(field):
    """The root-code triples a < b < c of the monic curves with q + 1
    points.  x = a + (b - a)X carries the curve to the twist by b - a of
    the Legendre curve at lambda = (c - a)/(b - a), and a twist keeps a
    count of q + 1, so one count table decides every triple."""
    table = legendre_count_table(field)
    sub = field._sub_func()
    mul = field._mul_func()
    inv = field._inv_codes()
    target = field.q + 1
    for a, b, c in itertools.combinations(range(field.q), 3):
        if table[mul(sub(c, a), inv[sub(b, a)])] == target:
            yield a, b, c


def verify_nonsquare_twist_isomorphism(field):
    """A curve isomorphic to its own nonsquare twist forces j = 1728,
    and the ambient field must have -1 as a non-square (q = 3 mod 4).
    Swept over every monic curve.  A self-twist-isomorphic curve has
    q + 1 points, so only the triples of `_trace_zero_triples` (read
    from the Legendre count table) are tested.  The prefilter still pays
    with a six-candidate test: over odd q <= 49 the sweep took 0.15-0.25
    s with it and 0.5-0.9 s over every triple (2-core Xeon VM, Python
    3.11)."""
    f = field
    q = f.q
    failures = []
    mul = f._mul_func()
    d0c = _first_nonsquare_code(f)
    j1728 = f(1728)
    for roots in _trace_zero_triples(f):
        if not _root_transform_exists(f, roots,
                                      tuple(mul(d0c, r) for r in roots)):
            continue
        if Curve(f, *map(f.from_code, roots)).j_invariant() != j1728:
            failures.append(
                f"q={q} roots={roots}: isomorphic to its non-square twist "
                f"with j != 1728")
        if q % 4 != 3:
            failures.append(
                f"q={q} roots={roots}: isomorphic to its non-square twist "
                f"although -1 is a square")
    return failures


def verify_four_torsion_equivalence(field):
    """Three independently computed conditions must agree for every
    lambda outside {0, 1, -1, 2, 1/2}:

    (a) E_lambda is isomorphic to every curve in its orbit;
    (b) -1, lambda and 1 - lambda are all squares;
    (c) exactly 16 rational points are killed by 4.

    The count behind (c) must also be 4(1 + h), h the number of roots g
    whose two differences g - g' are squares: (g, 0) is then a double,
    with 4 halves.  When (a)-(c) fail, every nonsquare twist must still
    be isomorphic to some Legendre curve: `is_legendre_isomorphic` tries
    the six mu = (w - u)/(v - u) over the orderings of its roots.
    """
    f = field
    q = f.q
    failures = []
    chi = f._chi_codes()
    excluded = {f.code(f(v)) for v in (0, 1, -1, 2)}
    two = f(2)
    excluded.add(f.code(two.inv()))
    sub = f._sub_func()
    d0 = f.from_code(_first_nonsquare_code(f))
    for lamc in f._lex_codes():
        if lamc in excluded:
            continue
        lam = f.from_code(lamc)
        e = legendre(f, lam)
        roots = (0, 1, lamc)
        a = all(_root_transform_exists(f, roots, (0, 1, f.code(mu)))
                for mu in orbit(lam))
        b = full_four_torsion_rational(e)
        count = count_four_torsion(e)
        h = sum(all(chi[sub(g, g2)] == 1 for g2 in roots if g2 != g)
                for g in roots)
        if count != 4 * (1 + h):
            failures.append(
                f"q={q} lambda={lamc}: {count} points killed by 4, not "
                f"4(1 + {h}) from the halvable 2-torsion")
        c = count == 16
        if not (a == b == c):
            failures.append(
                f"q={q} lambda={lamc}: orbit-isomorphism={a}, "
                f"squares={b}, 16-point 4-torsion={c}")
        if not b and not is_legendre_isomorphic(twist(e, d0)):
            failures.append(
                f"q={q} lambda={lamc}: non-square twist escapes the "
                f"Legendre family")
    return failures


def isomorphism_classes(field, cap=None):
    """Partition of the lambda line into isomorphism classes, each a
    lex-ordered list of lambda codes."""
    f = field
    table = legendre_count_table(f, cap)
    classes = []
    for lamc, n in table.items():
        for cls in classes:
            rep = cls[0]
            if table[rep] == n and _root_transform_exists(
                    f, (0, 1, rep), (0, 1, lamc)):
                cls.append(lamc)
                break
        else:
            classes.append([lamc])
    return classes


def verify_class_sizes(field):
    """Over F_q with q = 3 mod 4 and p > 3, every isomorphism class of
    Legendre curves with j != 0 has exactly three members."""
    f = field
    q = f.q
    if q % 4 != 3 or f.p <= 3:
        raise ValueError("the class-size count needs q = 3 mod 4 and p > 3")
    failures = []
    for cls in isomorphism_classes(field):
        j = j_of_lambda(f.from_code(cls[0]))
        if j != f.zero and len(cls) != 3:
            failures.append(
                f"q={q}: class {cls} has {len(cls)} members with j != 0")
    return failures
