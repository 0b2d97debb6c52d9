"""The even-characteristic counterpart of the family.

Over F_{2^n} the curves of interest are y^2 + xy = x^3 + beta*x^2 +
lambda with lambda != 0 (ordinary, j = 1/lambda).  Counting is a trace
computation: dividing the equation at nonzero x by x^2 turns the fiber
into an Artin-Schreier condition, so each x contributes 2 points when
Tr(x + beta + lambda/x^2) vanishes and 0 otherwise, with one point at
x = 0 and one at infinity.  The count is divisible by 4 exactly on the
beta-trace-zero class, which is the twist classification.  Wherever
the field is small enough (q <= _LITERAL_CAP) a literal count backs the
trace route on every call: it reads a per-field fiber table,
fib[x][v] = |{y : y^2 + xy = v}|, built once by full (x, y) enumeration.
"""

from __future__ import annotations

from .field import DEFAULT_ENUMERATION_CAP, EnumerationCapError, make_field, trace2

_LITERAL_CAP = 256


class Char2Curve:
    """y^2 + xy = x^3 + beta*x^2 + lambda over a field of characteristic 2."""

    __slots__ = ("field", "beta", "lam")

    def __init__(self, field, beta, lam):
        if field.p != 2:
            raise ValueError("this family lives in characteristic 2")
        lam = field(lam)
        if not lam:
            raise ValueError("lambda = 0 is singular")
        self.field = field
        self.beta = field(beta)
        self.lam = lam

    def j_invariant(self):
        return self.lam.inv()

    def __eq__(self, other):
        return (isinstance(other, Char2Curve) and self.field == other.field
                and self.beta == other.beta and self.lam == other.lam)

    def __hash__(self):
        return hash((self.field.q, self.beta, self.lam))

    def __repr__(self):
        return (f"Char2Curve(GF(2^{self.field.n}), beta={self.beta.coeffs}, "
                f"lam={self.lam.coeffs})")


def char2_sqrt(a):
    """The unique square root: squaring is a field automorphism."""
    if a.field.p != 2:
        raise ValueError("use the quadratic-character root in odd characteristic")
    return a ** (a.field.q // 2) if a.field.q > 2 else a


def fourth_root(a):
    return char2_sqrt(char2_sqrt(a))


def _literal_fibers(f):
    """fib[x][v] = |{y : y^2 + x*y = v}|, filled by enumerating every
    (x, y) pair once.  Cached on the field; only the literal
    cross-checks (q <= _LITERAL_CAP) read it."""
    def build():
        q = f.q
        mul = f._mul_func()
        fib = []
        for x in range(q):
            row = [0] * q
            for y in range(q):
                row[mul(y, y) ^ mul(x, y)] += 1
            fib.append(row)
        return fib
    return f._get("literal_fibers", build)


def _literal_affine_count(curve):
    """Affine points of the curve: the literal (x, y) scan, regrouped by
    x through the fiber table."""
    f = curve.field
    mul = f._mul_func()
    bc = f.code(curve.beta)
    lc = f.code(curve.lam)
    return sum(row[mul(mul(x, x), x ^ bc) ^ lc]
               for x, row in enumerate(_literal_fibers(f)))


def _literal_image_count(lam):
    """Affine points of eta^2 + xi*eta = xi^3 + lambda*xi, read off the
    same fiber table."""
    f = lam.field
    mul = f._mul_func()
    lc = f.code(lam)
    return sum(row[mul(mul(x, x), x) ^ mul(lc, x)]
               for x, row in enumerate(_literal_fibers(f)))


def char2_count(curve, cap=None):
    """2 + 2*|{x != 0 : Tr(x + beta + lambda/x^2) = 0}|, checked against
    a literal (x, y) scan on small fields."""
    f = curve.field
    q = f.q
    if q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
        raise EnumerationCapError(f"counting over {f!r} exceeds the cap")
    tr = f._trace_codes()
    mul = f._mul_func()
    inv = f._inv_codes()
    lc = f.code(curve.lam)
    tb = tr[f.code(curve.beta)]
    hits = 0
    for x in range(1, q):
        ix = inv[x]
        if tr[x] ^ tb ^ tr[mul(lc, mul(ix, ix))] == 0:
            hits += 1
    n = 2 + 2 * hits
    if q <= _LITERAL_CAP:
        literal = 1 + _literal_affine_count(curve)
        if literal != n:
            raise RuntimeError(
                f"trace count {n} and literal count {literal} disagree "
                f"for {curve!r}")
    if (n - q - 1) ** 2 > 4 * q:
        raise RuntimeError(f"count {n} violates the Hasse bound for q={q}")
    return n


def char2_twist(curve, alpha):
    """Quadratic twist: beta moves by alpha; proper exactly when
    trace2(alpha) = 1, isomorphic when trace2(alpha) = 0."""
    return Char2Curve(curve.field, curve.beta + curve.field(alpha), curve.lam)


def char2_is_isomorphic(curve1, curve2):
    if curve1.field != curve2.field:
        raise ValueError("isomorphism testing needs a common base field")
    if curve1.lam != curve2.lam:
        return False
    return trace2(curve1.beta + curve2.beta) == 0


def verify_char2_prop(n, cap=None):
    """Divisibility-by-4 classification over F_{2^n}:

    (i) every beta of trace 0 (the E_lambda class) gives 4 | count;
    (ii) every beta of trace 1 gives count = 2 mod 4;
    (iii) x -> sqrt(lambda)/x has exactly one fixed point in F^*, which
    makes the trace intersection count odd.

    Both trace classes are counted per lambda (the fiber condition
    depends on beta only through its trace, which (i)/(ii) exercise for
    every beta via the literal sweep on small n).
    """
    f = make_field(2, n)
    q = f.q
    if q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
        raise EnumerationCapError(f"sweep over {f!r} exceeds the cap")
    tr = f._trace_codes()
    mul = f._mul_func()
    inv = f._inv_codes()
    sq_inv = [0] + [mul(inv[x], inv[x]) for x in range(1, q)]
    for lc in range(1, q):
        z0 = 0
        for x in range(1, q):
            if tr[x] == tr[mul(lc, sq_inv[x])]:
                z0 += 1
        count0 = 2 + 2 * z0
        count1 = 2 + 2 * (q - 1 - z0)
        if count0 % 4:
            return False
        if count1 % 4 == 0:
            return False
        s = f.code(char2_sqrt(f.from_code(lc)))
        fixed = [x for x in range(1, q) if mul(x, x) == s]
        if len(fixed) != 1 or fixed[0] != f.code(fourth_root(f.from_code(lc))):
            return False
    if q <= 64:
        # literal per-(beta, lambda) sweep, including the twist sum
        for lc in range(1, q):
            lam = f.from_code(lc)
            counts = {}
            for bc in range(q):
                e = Char2Curve(f, f.from_code(bc), lam)
                counts[bc] = char2_count(e, cap)
                if (counts[bc] % 4 == 0) != (tr[bc] == 0):
                    return False
            for bc in range(q):
                for ac in range(1, q):
                    if tr[ac] == 1 and counts[bc] + counts[bc ^ ac] != 2 * q + 2:
                        return False
    return True


def verify_odd_intersection(n, cap=None):
    """|{x : Tr(x) = Tr(sqrt(lambda)/x)}| is odd for every lambda; the
    scan walks exponents of a generator so each test is one shifted
    lookup."""
    f = make_field(2, n)
    q = f.q
    if q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
        raise EnumerationCapError(f"sweep over {f!r} exceeds the cap")
    if q == 2:
        return True  # single lambda, single x
    exp, log = f._explog()
    tr = f._trace_codes()
    m = q - 1
    half = (m + 1) // 2  # doubling exponents inverts to this multiplier
    bits = 0
    for k in range(m):
        bits |= tr[exp[k]] << k
    rev = 0
    for j in range(m):
        rev |= ((bits >> (m - 1 - j)) & 1) << j
    mask = (1 << m) - 1
    for lc in range(1, q):
        ls = log[f.code(char2_sqrt(f.from_code(lc)))]
        if ls != log[lc] * half % m:
            raise RuntimeError("square-root exponent mismatch in the scan")
        # hits(lambda) = |{k : bits[k] == bits[(ls - k) mod m]}|, realized
        # as a rotation of the reversed sequence
        r = (m - 1 - ls) % m
        rot = ((rev >> r) | (rev << (m - r))) & mask
        if (m - (bits ^ rot).bit_count()) % 2 == 0:
            return False
    return True


def frobenius_image_check(lam, cap=None):
    """The count of the lambda^2 curve equals the count of the model
    eta^2 + xi*eta = xi^3 + lambda*xi, each enumerated separately."""
    f = lam.field
    if f.p != 2:
        raise ValueError("this family lives in characteristic 2")
    if not lam:
        raise ValueError("lambda = 0 is singular")
    q = f.q
    if q > (DEFAULT_ENUMERATION_CAP if cap is None else cap):
        raise EnumerationCapError(f"counting over {f!r} exceeds the cap")
    n1 = char2_count(Char2Curve(f, 0, lam * lam), cap)
    tr = f._trace_codes()
    mul = f._mul_func()
    inv = f._inv_codes()
    lc = f.code(lam)
    hits = 0
    for x in range(1, q):
        if tr[x ^ mul(lc, inv[x])] == 0:
            hits += 1
    n2 = 2 + 2 * hits
    if q <= _LITERAL_CAP and 1 + _literal_image_count(lam) != n2:
        raise RuntimeError(
            f"trace and literal counts disagree on the image model "
            f"for lambda code {lc} over GF(2^{f.n})")
    return n1 == n2
