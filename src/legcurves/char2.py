"""The even-characteristic counterpart of the family.

Over F_{2^n} the curves of interest are y^2 + xy = x^3 + beta*x^2 +
lambda with lambda != 0 (ordinary, j = 1/lambda).  Counting is a trace
computation: dividing the equation at nonzero x by x^2 turns the fiber
into an Artin-Schreier condition, so each x contributes 2 points when
Tr(x + beta + lambda/x^2) vanishes and 0 otherwise, with one point at
x = 0 and one at infinity; 4 | count exactly on the beta-trace-zero
class, the twist classification.  Trace and square root are F_2-linear,
so n basis images per field fix each (`Field._trace_mask`, `_sqrt_code`).
Every trace count is one kernel, `_trace_hits`: one rotation of the
m-sequence Tr(g^k) of a generator g compared bitwise with Tr(g^-k).
Wherever q <= _LITERAL_CAP a literal count backs the trace route on
every call: `_fiber_sum` reads a per-field fiber table, fib[x][v] =
|{y : y^2 + xy = v}|, built once by full (x, y) enumeration.
"""

from __future__ import annotations

from .field import check_cap, check_hasse, make_field, trace2

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


def _sqrt_code(f, c):
    """The code of sqrt(c): squaring is F_2-linear, so the root is the XOR
    of sqrt(t)^i over the bits i set in c, n codes kept by `Field._get`."""
    def build():
        s = f.from_code(min(2, f.q - 1)) ** (f.q // 2)  # sqrt(t); 1 in GF(2)
        powers = [f.one]
        while len(powers) < f.n:
            powers.append(powers[-1] * s)
        return [f.code(a) for a in powers]
    r = 0
    for i, image in enumerate(f._get("sqrt_images", build)):
        r ^= image * (c >> i & 1)
    return r


def char2_sqrt(a):
    """The unique square root: squaring is a field automorphism."""
    if a.field.p != 2:
        raise ValueError("use the quadratic-character root in odd characteristic")
    return a.field.from_code(_sqrt_code(a.field, a.field.code(a)))


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


def _fiber_sum(f, rhs):
    """Affine points of y^2 + xy = rhs[x]: the literal (x, y) scan,
    regrouped by x through the fiber table."""
    return sum(map(list.__getitem__, _literal_fibers(f), rhs))


def _literal_affine_count(curve):
    """Affine points of the curve, by `_fiber_sum`: x^2 (x + beta) is
    kept per (field, beta) by `Field._get`, and lambda XORs in per curve."""
    f = curve.field
    bc = f.code(curve.beta)

    def build():
        mul = f._mul_func()
        return [mul(mul(x, x), x ^ bc) for x in range(f.q)]
    rhs = f._get(f"literal_cubic{bc}", build)
    return _fiber_sum(f, map(f.code(curve.lam).__xor__, rhs))


def _literal_image_count(lam):
    """Affine points of eta^2 + xi*eta = xi^3 + lambda*xi, by `_fiber_sum`."""
    f = lam.field
    mul = f._mul_func()
    lc = f.code(lam)
    return _fiber_sum(f, [mul(mul(x, x), x) ^ mul(lc, x) for x in range(f.q)])


def _trace_bits(f, e):
    """Tr(g^(e*k)) for k < q - 1 (the m-sequence of the generator g,
    decimated by e = 1 or -1) as one int, bit k the k-th term; kept by
    `Field._get` as a one-entry list."""
    def build():
        exp, _ = f._explog()
        mask = f._trace_mask()
        m = f.q - 1
        return [int("".join([str((exp[e * k % m] & mask).bit_count() & 1)
                             for k in range(m - 1, -1, -1)]), 2)]
    return f._get(f"trace_bits{e}", build)[0]


def _trace_hits(f, c, e):
    """|{x != 0 : Tr(x) = Tr(c * x^e)}| for e in {-1, -2}, the one trace
    count.  With c = g^l, x = g^(u - s) and s = l / e mod q - 1 (q - 1 is
    odd), Tr(c * x^e) = Tr(g^(e*u)) = Tr(g^-u) as Tr(x^2) = Tr(x): count
    the bits where Tr(g^k), rotated by s, agrees with Tr(g^-k)."""
    m = f.q - 1
    s = f._explog()[1][c] * pow(e, -1, m) % m
    t = _trace_bits(f, 1)
    rot = ((t << s) | (t >> (m - s))) & ((1 << m) - 1)
    return m - (rot ^ _trace_bits(f, -1)).bit_count()


def char2_count(curve, cap=None):
    """2 + 2*|{x != 0 : Tr(x + beta + lambda/x^2) = 0}|, checked against
    a literal (x, y) scan on small fields.  The set has z = `_trace_hits`
    (c = lambda, e = -2) elements, or q - 1 - z when Tr(beta) = 1."""
    f = curve.field
    q = f.q
    check_cap(q, cap, "counting", f)
    z = _trace_hits(f, f.code(curve.lam), -2)
    if trace2(curve.beta):
        z = q - 1 - z
    n = 2 + 2 * z
    if q <= _LITERAL_CAP:
        literal = 1 + _literal_affine_count(curve)
        if literal != n:
            raise RuntimeError(
                f"trace count {n} and literal count {literal} disagree "
                f"for {curve!r}")
    check_hasse(n, q)
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


def verify_char2_prop(n):
    """Divisibility-by-4 classification over F_{2^n}:

    (i) every beta of trace 0 (the E_lambda class) gives 4 | count;
    (ii) every beta of trace 1 gives count = 2 mod 4;
    (iii) x -> sqrt(lambda)/x has exactly one fixed point in F^*, which
    makes the trace intersection count odd: sqrt(sqrt(lambda)) is one,
    the only one once every lambda has a root (squaring is then onto F^*).

    Both trace classes are counted per lambda (the fiber condition
    depends on beta only through its trace, which (i)/(ii) exercise for
    every beta via the literal sweep on small n).
    """
    f = make_field(2, n)
    q = f.q
    mask = f._trace_mask()
    mul = f._mul_func()
    for lc in range(1, q):
        # the counts 2 + 2z of the two beta classes: (i) and (ii)
        z0 = _trace_hits(f, lc, -2)
        if (2 + 2 * z0) % 4 or (2 + 2 * (q - 1 - z0)) % 4 == 0:
            return False
        s = _sqrt_code(f, lc)
        x = _sqrt_code(f, s)
        if mul(s, s) != lc or mul(x, x) != s:
            return False
    if q <= 64:
        # literal per-(beta, lambda) sweep, including the twist sum
        for lc in range(1, q):
            lam = f.from_code(lc)
            by_trace = (set(), set())
            for bc in range(q):
                count = char2_count(Char2Curve(f, f.from_code(bc), lam))
                t = (bc & mask).bit_count() % 2
                if (count % 4 == 0) != (t == 0):
                    return False
                by_trace[t].add(count)
            # beta + alpha with Tr(alpha) = 1 runs over the other trace
            # class, and both classes are nonempty: every such twist pair
            # sums to 2q + 2 exactly when each class has one count and
            # the two counts sum to 2q + 2
            if ([len(c) for c in by_trace] != [1, 1]
                    or by_trace[0].pop() + by_trace[1].pop() != 2 * q + 2):
                return False
    return True


def verify_odd_intersection(n):
    """|{x : Tr(x) = Tr(sqrt(lambda)/x)}| is odd for every lambda, by
    `_trace_hits`."""
    f = make_field(2, n)
    mul = f._mul_func()
    for lc in range(1, f.q):
        s = _sqrt_code(f, lc)
        if mul(s, s) != lc:
            raise RuntimeError("a char-2 square root does not square back")
        if _trace_hits(f, s, -1) % 2 == 0:
            return False
    return True


def frobenius_image_check(lam):
    """The count of the lambda^2 curve equals the count of the model
    eta^2 + xi*eta = xi^3 + lambda*xi, each enumerated separately."""
    f = lam.field
    if f.p != 2:
        raise ValueError("this family lives in characteristic 2")
    if not lam:
        raise ValueError("lambda = 0 is singular")
    n1 = char2_count(Char2Curve(f, 0, lam * lam))
    # Tr(x + lambda/x) = 0 exactly when Tr(x) = Tr(lambda * x^-1)
    lc = f.code(lam)
    n2 = 2 + 2 * _trace_hits(f, lc, -1)
    if f.q <= _LITERAL_CAP and 1 + _literal_image_count(lam) != n2:
        raise RuntimeError(
            f"trace and literal counts disagree on the image model "
            f"for lambda code {lc} over GF(2^{f.n})")
    return n1 == n2
