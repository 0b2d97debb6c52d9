"""Elliptic curves with full rational 2-torsion over odd-characteristic
fields, stored in split-root form: delta*y^2 = (x-alpha)(x-beta)(x-gamma).

Nonsingularity is the statement that the three roots are distinct, so it
is checked at construction.  The chord-tangent group law is evaluated
directly on the twisted model (the twist coefficient enters the slope
term only), point counting goes through the quadratic character, and the
isomorphism test does an explicit coordinate-change search, which stays
affordable at desk scale and has no special cases at j = 0 or 1728.

The verify_* sweeps at the bottom are exhaustive oracles used by the
test suite and the CLI; they work on integer element codes with the
field lookup tables to keep full sweeps over all curves cheap.
"""

from __future__ import annotations

import itertools
import random
from math import lcm

from .field import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    prime_factors,
    sqrt,
)


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

    # -- group law -----------------------------------------------------

    def neg(self, point):
        if point.is_infinity:
            return point
        return Point(point.x, -point.y)

    def add(self, p1, p2):
        if not (self.contains(p1) and self.contains(p2)):
            raise ValueError("point is not on the curve")
        return self._add(p1, p2)

    def _add(self, p1, p2):
        if p1.is_infinity:
            return p2
        if p2.is_infinity:
            return p1
        f = self.field
        x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
        s1 = self.alpha + self.beta + self.gamma
        if x1 == x2:
            if y1 == -y2:
                return INFINITY
            if y1 != y2:
                raise RuntimeError("impossible point pair; inputs off-curve?")
            # tangent: implicit differentiation of delta*y^2 = f(x)
            fp = (f(3) * x1 * x1 - f(2) * s1 * x1
                  + self.alpha * self.beta + self.alpha * self.gamma
                  + self.beta * self.gamma)
            m = fp / (f(2) * self.delta * y1)
        else:
            m = (y2 - y1) / (x2 - x1)
        x3 = self.delta * m * m + s1 - x1 - x2
        y3 = -(y1 + m * (x3 - x1))
        return Point(x3, y3)

    def multiply(self, point, k):
        if not self.contains(point):
            raise ValueError("point is not on the curve")
        return self._multiply(point, k)

    def _multiply(self, point, k):
        if k < 0:
            point, k = self.neg(point), -k
        acc = INFINITY
        while k:
            if k & 1:
                acc = self._add(acc, point)
            point = self._add(point, point)
            k >>= 1
        return acc

    # -- enumeration ---------------------------------------------------

    def points(self, cap=None):
        """All rational points: infinity first, then affine points with x
        in lexicographic order and the canonical square root first."""
        f = self.field
        if f.q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
            raise EnumerationCapError(
                f"point enumeration over {f!r} exceeds the cap")
        chi = f._chi_codes()
        sq = f._sqrt_codes()
        dinv = None if self.delta == f.one else self.delta.inv()
        out = [INFINITY]
        for x in f.elements(cap):
            v = self.rhs(x)
            if dinv is not None:
                v = v * dinv
            c = f.code(v)
            s = chi[c]
            if s == 0:
                out.append(Point(x, f.zero))
            elif s == 1:
                y = f.from_code(sq[c])
                out.append(Point(x, y))
                out.append(Point(x, -y))
        return out

    def count_points(self, cap=None):
        """q + 1 + sum over x of chi(delta * f(x))."""
        f = self.field
        q = f.q
        if q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
            raise EnumerationCapError(f"counting over {f!r} exceeds the cap")
        chi = f._chi_codes()
        code = f.code
        d = None if self.delta == f.one else self.delta
        total = 0
        for x in f.elements(cap):
            v = self.rhs(x)
            if d is not None:
                v = v * d
            total += chi[code(v)]
        n = q + 1 + total
        t = q + 1 - n
        if t * t > 4 * q:
            raise RuntimeError(f"count {n} violates the Hasse bound for q={q}")
        return n

    def group_structure(self, cap=None):
        """Invariant factors (d1, d2), d1 | d2, of the point group.

        Works on the isomorphic monic model with integer element codes;
        the model change is a group isomorphism, so the factors carry
        over unchanged."""
        f = self.field
        if f.q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
            raise EnumerationCapError(
                f"group structure over {f!r} exceeds the cap")
        codes = tuple(f.code(r) for r in self.monic_roots())
        return _group_structure_codes(f, codes)

    # -- invariants ----------------------------------------------------

    def j_invariant(self):
        """Via the cross-ratio c = (gamma-alpha)/(beta-alpha):
        j = 256 (c^2-c+1)^3 / (c^2 (c-1)^2).  Twist-invariant."""
        f = self.field
        c = (self.gamma - self.alpha) / (self.beta - self.alpha)
        num = c * c - c + f.one
        den = c * c * (c - f.one) * (c - f.one)
        return f(256) * num * num * num / den

    def descent_image(self, point):
        """Square classes of (x-alpha, x-beta, x-gamma) at an affine point
        of a monic curve, as a (+1|-1) triple.  The zero slot at a
        2-torsion point is the product of the other two."""
        f = self.field
        if self.delta != f.one:
            raise ValueError("the descent map is defined on the monic model")
        if point.is_infinity:
            raise ValueError("the descent image is taken at affine points")
        if not self.contains(point):
            raise ValueError("point is not on the curve")
        chi = f._chi_codes()
        vals = [chi[f.code(point.x - r)] for r in self.roots]
        if 0 in vals:
            i = vals.index(0)
            vals[i] = vals[(i + 1) % 3] * vals[(i + 2) % 3]
        return tuple(vals)

    def two_isogeny(self):
        """For a Legendre curve with square lambda: the parameter of the
        curve isogenous through the kernel {infinity, (0,0)}, computed
        with the canonical square root s as ((s+1)/(s-1))^2.  None when
        lambda is a non-square."""
        lam = self.legendre_lambda
        if lam is None:
            raise ValueError("the 2-isogeny image is for Legendre curves")
        s = sqrt(lam)
        if s is None:
            return None
        one = self.field.one
        t = (s + one) / (s - one)
        return t * t


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
    """Number of rational points killed by 4 (including infinity)."""
    total = 1
    for pt in curve.points(cap)[1:]:
        d = curve._add(pt, pt)
        if d.is_infinity or not d.y:
            total += 1
    return total


# ---------------------------------------------------------------------------
# isomorphism testing


def _root_transform_exists(field, roots1, roots2):
    # x -> s*x + t with s a nonzero square must carry roots2 onto roots1
    chi = field._chi_codes()
    target = set(roots1)
    r2 = list(roots2)
    for c in range(1, field.q):
        if chi[c] != 1:
            continue
        s = field.from_code(c)
        im = [s * r for r in r2]
        for r in roots1:
            t = r - im[0]
            if {im[0] + t, im[1] + t, im[2] + t} == target:
                return True
    return False


def is_isomorphic(curve1, curve2, cap=None):
    """Same j, same point count, and an explicit coordinate change
    between the monic models.  The search over scale factors makes the
    test uniform in j, including the extra-automorphism cases."""
    if curve1.field != curve2.field:
        raise ValueError("isomorphism testing needs a common base field")
    if curve1.j_invariant() != curve2.j_invariant():
        return False
    if curve1.count_points(cap) != curve2.count_points(cap):
        return False
    return _root_transform_exists(curve1.field, curve1.monic_roots(),
                                  curve2.monic_roots())


def is_legendre_isomorphic(curve, cap=None):
    """Whether the curve is isomorphic to y^2 = x(x-1)(x-mu) for some mu."""
    f = curve.field
    j = curve.j_invariant()
    n = curve.count_points(cap)
    roots = curve.monic_roots()
    table = legendre_count_table(f, cap)
    for mc, count in table.items():
        if count != n:
            continue
        mu = f.from_code(mc)
        if j_of_lambda(mu) != j:
            continue
        if _root_transform_exists(f, roots, (f.zero, f.one, mu)):
            return True
    return False


# ---------------------------------------------------------------------------
# bulk point counts over the lambda line


def legendre_count_table(field, cap=None):
    """{lambda code: point count} for every lambda outside {0, 1}, keys
    in lexicographic element order.  x(x-1)(x-lambda) is evaluated as
    A(x) - lambda*B(x) with A = x^2(x-1), B = x(x-1), so the sweep costs
    one multiply and one character lookup per (lambda, x) pair."""
    q = field.q
    if q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
        raise EnumerationCapError(f"lambda sweep over {field!r} exceeds the cap")
    chi = field._chi_codes()
    out = {}
    if field.n == 1:
        p = field.p
        chi2 = chi + chi
        ab = []
        for x in range(p):
            b = x * (x - 1) % p
            ab.append((x * b % p, b))
        for lam in range(2, p):
            out[lam] = p + 1 + sum(chi2[a - lam * b % p] for a, b in ab)
        return out
    mul = field._mul_func()
    add = field._add_func()
    neg = field._neg_codes()
    ab = []
    for x in range(q):
        b = mul(x, add(x, neg[1]))
        ab.append((mul(x, b), b))
    for lam in field._lex_codes():
        if lam == 0 or lam == 1:
            continue
        out[lam] = q + 1 + sum(chi[add(a, neg[mul(lam, b)])] for a, b in ab)
    return out


# ---------------------------------------------------------------------------
# integer-code engine shared by the exhaustive sweeps


def _code_ops(field):
    if field.n == 1:
        p = field.p

        def add(a, b):
            return (a + b) % p

        def sub(a, b):
            return (a - b) % p

        def mul(a, b):
            return a * b % p
    else:
        add = field._add_func()
        mul = field._mul_func()
        negl = field._neg_codes()

        def sub(a, b, _add=add, _n=negl):
            return _add(a, _n[b])
    return add, sub, mul


def _group_structure_codes(field, roots):
    add, sub, mul = _code_ops(field)
    chi = field._chi_codes()
    sq = field._sqrt_codes()
    inv = field._inv_codes()
    neg = field._neg_codes()
    ra, rb, rc = roots
    two = field.code(field(2))
    s1 = add(add(ra, rb), rc)
    s2 = add(add(mul(ra, rb), mul(ra, rc)), mul(rb, rc))
    affine = []
    for x in range(field.q):
        v = mul(mul(sub(x, ra), sub(x, rb)), sub(x, rc))
        s = chi[v]
        if s == 0:
            affine.append((x, 0))
        elif s == 1:
            y = sq[v]
            affine.append((x, y))
            affine.append((x, neg[y]))

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
            x1s = mul(x1, x1)
            fp = add(sub(add(add(x1s, x1s), x1s), mul(two, mul(s1, x1))), s2)
            m = mul(fp, inv[mul(two, y1)])
        else:
            m = mul(sub(y2, y1), inv[sub(x2, x1)])
        x3 = sub(sub(add(mul(m, m), s1), x1), x2)
        return x3, neg[add(y1, mul(m, sub(x3, x1)))]

    def emul(point, k):
        acc = None
        while k:
            if k & 1:
                acc = eadd(acc, point)
            point = eadd(point, point)
            k >>= 1
        return acc

    n = len(affine) + 1
    fac = prime_factors(n) if n > 1 else []
    exponent = 1
    for pt in affine:
        o = n
        for f in fac:
            while o % f == 0:
                if emul(pt, o // f) is None:
                    o //= f
                else:
                    break
        exponent = lcm(exponent, o)
        if exponent == n:
            break
    d1 = n // exponent
    if exponent % d1:
        raise RuntimeError("point orders are inconsistent with a group")
    return (d1, exponent)


def _doubling_image(field, roots, ops):
    """(affine point set, image of doubling) for the monic curve with the
    given root codes; points are (x, y) code pairs, infinity is None."""
    add, sub, mul = ops
    chi = field._chi_codes()
    sq = field._sqrt_codes()
    inv = field._inv_codes()
    neg = field._neg_codes()
    ra, rb, rc = roots
    two = field.code(field(2))
    s1 = add(add(ra, rb), rc)
    s2 = add(add(mul(ra, rb), mul(ra, rc)), mul(rb, rc))
    affine = []
    half = []
    for x in range(field.q):
        v = mul(mul(sub(x, ra), sub(x, rb)), sub(x, rc))
        s = chi[v]
        if s == 0:
            affine.append((x, 0))
        elif s == 1:
            y = sq[v]
            affine.append((x, y))
            affine.append((x, neg[y]))
            half.append((x, y))
    image = {None}
    for x, y in half:
        x2 = mul(x, x)
        fp = add(sub(add(add(x2, x2), x2), mul(two, mul(s1, x))), s2)
        m = mul(fp, inv[mul(two, y)])
        x3 = sub(add(mul(m, m), s1), add(x, x))
        y3 = neg[add(y, mul(m, sub(x3, x)))]
        image.add((x3, y3))
        image.add((x3, neg[y3]))
    return affine, image


# ---------------------------------------------------------------------------
# exhaustive verification sweeps; each returns a list of failure strings


def verify_group_law(field, curves=40, triples=60, seed=0, cap=None):
    """Associativity, commutativity, inverses, identity and closure.

    Exhaustive over curves and point triples while the totals stay below
    the `curves` / `triples` budgets, seeded random samples beyond that.
    """
    q = field.q
    rng = random.Random(seed * 0x9E3779B1 + q)
    failures = []
    all_triples = list(itertools.combinations(range(q), 3))
    deltas = list(range(1, q))
    if len(all_triples) * len(deltas) <= curves:
        chosen = [(t, d) for t in all_triples for d in deltas]
    else:
        chosen = [(rng.choice(all_triples), rng.choice(deltas))
                  for _ in range(curves)]
    for (ra, rb, rc), dc in chosen:
        e = Curve(field, field.from_code(ra), field.from_code(rb),
                  field.from_code(rc), field.from_code(dc))
        pts = e.points(cap)
        tag = f"q={q} roots=({ra},{rb},{rc}) delta={dc}"
        for pt in pts:
            if e._add(pt, INFINITY) != pt:
                failures.append(f"{tag}: infinity is not neutral at {pt!r}")
            if not e._add(pt, e.neg(pt)).is_infinity:
                failures.append(f"{tag}: {pt!r} plus its negative is affine")
        n = len(pts)
        if n ** 3 <= triples:
            trips = itertools.product(pts, pts, pts)
        else:
            trips = ((rng.choice(pts), rng.choice(pts), rng.choice(pts))
                     for _ in range(triples))
        for a, b, c in trips:
            ab = e._add(a, b)
            if not e.contains(ab):
                failures.append(f"{tag}: sum of two points left the curve")
                continue
            if ab != e._add(b, a):
                failures.append(f"{tag}: addition is not commutative")
            if e._add(ab, c) != e._add(a, e._add(b, c)):
                failures.append(f"{tag}: addition is not associative")
    return failures


def _first_nonsquare_code(field):
    chi = field._chi_codes()
    for c in field._lex_codes():
        if c and chi[c] == -1:
            return c
    raise RuntimeError("no non-square found; is the field trivial?")


def verify_twist_counts(field, cap=None, sample=5):
    """count(E) + count(nonsquare twist of E) = 2q + 2 on every Legendre
    curve, with the twist counted by brute-force point enumeration, plus
    a check that the count only depends on the square class of the twist."""
    f = field
    q = f.q
    failures = []
    d0 = f.from_code(_first_nonsquare_code(f))
    table = legendre_count_table(f, cap)
    add, sub, mul = _code_ops(f)
    chi = f._chi_codes()
    d0c = f.code(d0)
    # independent count: hits[v] = |{y : delta*y^2 = v}| over every y, so
    # the literal (x, y) scan of each twist is a sum of lookups by x
    hits = [0] * q
    for y in range(q):
        hits[mul(d0c, mul(y, y))] += 1
    for lamc, n in table.items():
        e = legendre(f, f.from_code(lamc))
        tw = twist(e, d0)
        affine = sum(hits[mul(mul(x, sub(x, 1)), sub(x, lamc))]
                     for x in range(q))
        if n + affine + 1 != 2 * q + 2:
            failures.append(
                f"q={q} lambda={lamc}: twist counts sum to {n + affine + 1}")
        if twist(tw, d0).count_points(cap) != n:
            failures.append(f"q={q} lambda={lamc}: square twist changed the count")
    # square-class independence on a few curves, every nonsquare delta
    lams = list(table)[:sample]
    nonsquares = [c for c in range(1, q) if chi[c] == -1]
    for lamc in lams:
        e = legendre(f, f.from_code(lamc))
        want = twist(e, d0).count_points(cap)
        for dc in nonsquares:
            got = twist(e, f.from_code(dc)).count_points(cap)
            if got != want:
                failures.append(
                    f"q={q} lambda={lamc}: twist count depends on the "
                    f"choice of non-square ({dc})")
                break
    return failures


def verify_two_descent_kernel(field):
    """Both halves of the 2-descent picture, against doubling as oracle:

    (a) on every monic curve, a 2-torsion point (g, 0) is a double
        exactly when its two root differences are both squares;
    (b) on every Legendre curve, the square-class triple of an affine
        point is trivial exactly when the point is a double.
    """
    f = field
    q = f.q
    ops = _code_ops(f)
    chi = f._chi_codes()
    failures = []
    for roots in itertools.combinations(range(q), 3):
        _, image = _doubling_image(f, roots, ops)
        ra, rb, rc = roots
        for g, o1, o2 in ((ra, rb, rc), (rb, ra, rc), (rc, ra, rb)):
            member = (g, 0) in image
            squares = (chi[ops[1](g, o1)] == 1 and chi[ops[1](g, o2)] == 1)
            if member != squares:
                failures.append(
                    f"q={q} roots={roots}: 2-torsion point at {g} is "
                    f"{'a' if member else 'not a'} double but the square "
                    f"test says otherwise")
    sub = ops[1]
    for lamc in range(q):
        if lamc in (0, 1):
            continue
        roots = (0, 1, lamc)
        affine, image = _doubling_image(f, roots, ops)
        for x, y in affine:
            vals = [chi[sub(x, r)] for r in roots]
            if 0 in vals:
                i = vals.index(0)
                vals[i] = vals[(i + 1) % 3] * vals[(i + 2) % 3]
            trivial = vals == [1, 1, 1]
            if trivial != ((x, y) in image):
                failures.append(
                    f"q={q} lambda={lamc}: kernel mismatch at ({x},{y})")
    return failures


def verify_nonsquare_twist_isomorphism(field, cap=None):
    """A curve isomorphic to its own nonsquare twist forces j = 1728,
    and the ambient field must have -1 as a non-square (q = 3 mod 4).
    Swept over every monic curve; count equality prefilters the search,
    since a self-twist-isomorphic curve must have q + 1 points."""
    f = field
    q = f.q
    add, sub, mul = _code_ops(f)
    chi = f._chi_codes()
    failures = []
    d0c = _first_nonsquare_code(f)
    d0 = f.from_code(d0c)
    j1728 = f(1728)
    for roots in itertools.combinations(range(q), 3):
        ra, rb, rc = roots
        total = 0
        for x in range(q):
            total += chi[mul(mul(sub(x, ra), sub(x, rb)), sub(x, rc))]
        if q + 1 + total != q + 1:
            continue
        e = Curve(f, f.from_code(ra), f.from_code(rb), f.from_code(rc))
        if not _root_transform_exists(f, e.roots,
                                      tuple(d0 * r for r in e.roots)):
            continue
        if e.j_invariant() != j1728:
            failures.append(
                f"q={q} roots={roots}: isomorphic to its non-square twist "
                f"with j != 1728")
        if q % 4 != 3:
            failures.append(
                f"q={q} roots={roots}: isomorphic to its non-square twist "
                f"although -1 is a square")
    return failures


def verify_four_torsion_equivalence(field, cap=None):
    """Three independently computed conditions must agree for every
    lambda outside {0, 1, -1, 2, 1/2}:

    (a) E_lambda is isomorphic to every curve in its orbit;
    (b) -1, lambda and 1 - lambda are all squares;
    (c) exactly 16 rational points are killed by 4.

    When they fail, every nonsquare twist must still be isomorphic to
    some Legendre curve.
    """
    f = field
    q = f.q
    failures = []
    table = legendre_count_table(f, cap)
    excluded = {f.code(f(v)) for v in (0, 1, -1, 2)}
    two = f(2)
    excluded.add(f.code(two.inv()))
    d0 = f.from_code(_first_nonsquare_code(f))
    for lamc, n in table.items():
        if lamc in excluded:
            continue
        lam = f.from_code(lamc)
        e = legendre(f, lam)
        a = True
        for mu in orbit(lam):
            muc = f.code(mu)
            if table[muc] != n or not _root_transform_exists(
                    f, e.roots, (f.zero, f.one, mu)):
                a = False
                break
        b = full_four_torsion_rational(e)
        c = count_four_torsion(e, cap) == 16
        if not (a == b == c):
            failures.append(
                f"q={q} lambda={lamc}: orbit-isomorphism={a}, "
                f"squares={b}, 16-point 4-torsion={c}")
        if not b and not is_legendre_isomorphic(twist(e, d0), cap):
            failures.append(
                f"q={q} lambda={lamc}: non-square twist escapes the "
                f"Legendre family")
    return failures


def isomorphism_classes(field, cap=None):
    """Partition of the lambda line into isomorphism classes, each a
    lex-ordered list of lambda codes."""
    f = field
    table = legendre_count_table(f, cap)
    curves = {c: legendre(f, f.from_code(c)) for c in table}
    classes = []
    for lamc, e in curves.items():
        n = table[lamc]
        j = e.j_invariant()
        for cls in classes:
            rep = cls[0]
            if table[rep] != n or curves[rep].j_invariant() != j:
                continue
            if _root_transform_exists(f, curves[rep].roots, e.roots):
                cls.append(lamc)
                break
        else:
            classes.append([lamc])
    return classes


def verify_class_sizes(field, cap=None):
    """Over F_q with q = 3 mod 4 and p > 3, every isomorphism class of
    Legendre curves with j != 0 has exactly three members."""
    f = field
    q = f.q
    if q % 4 != 3 or f.p <= 3:
        raise ValueError("the class-size count needs q = 3 mod 4 and p > 3")
    failures = []
    for cls in isomorphism_classes(field, cap):
        j = j_of_lambda(f.from_code(cls[0]))
        if j != f.zero and len(cls) != 3:
            failures.append(
                f"q={q}: class {cls} has {len(cls)} members with j != 0")
    return failures
