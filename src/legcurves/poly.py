"""Dense univariate polynomials over a finite field.

Coefficients are stored constant term first with no trailing zeros, so
the zero polynomial is the empty tuple and the leading coefficient of
anything else is nonzero.  Root finding is exhaustive evaluation, which
is exact and deterministic at the field sizes this package sweeps.

Includes the one special polynomial the package is built around: the
characteristic-p polynomial whose roots are exactly the supersingular
Legendre parameters (degree (p-1)/2, squared-binomial coefficients).
"""

from __future__ import annotations

from .field import Fe, _ppowmod, make_field


class Poly:
    """Polynomial over a fixed field; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        out = [field(c) for c in coeffs]
        while out and not out[-1]:
            out.pop()
        self.field = field
        self.coeffs = tuple(out)

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _same(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise ValueError("polynomials over different fields")
        return other

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.q, tuple(c.coeffs for c in self.coeffs)))

    def __add__(self, other):
        other = self._same(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        other = self._same(other)
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Fe):
            return Poly(self.field, tuple(c * other for c in self.coeffs))
        other = self._same(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(self.field)
        out = [self.field.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return Poly(self.field, out)

    def __divmod__(self, other):
        other = self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        linv = other.leading().inv()
        quot = [self.field.zero] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] * linv
            if c:
                quot[i - d] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i - d + j] = rem[i - d + j] - c * oc
        return Poly(self.field, quot), Poly(self.field, rem[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self * self.leading().inv()

    def __call__(self, a):
        """Horner evaluation at a field element."""
        a = self.field(a)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def __repr__(self):
        if not self.coeffs:
            return f"Poly(0 over {self.field!r})"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = repr(c).split(" (")[0]
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if cs == "1" else f"{cs}*{xs}")
        return f"Poly({' + '.join(terms)} over {self.field!r})"


def poly_gcd(f, g):
    """Monic greatest common divisor; gcd(0, 0) is the zero polynomial."""
    f._same(g)
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def divides(f, g):
    """Whether f divides g."""
    if f.is_zero():
        raise ValueError("divisibility by the zero polynomial")
    return (g % f).is_zero()


def substitute_neg(f):
    """f(-x): negate the odd-index coefficients."""
    return Poly(f.field, tuple(-c if i % 2 else c
                               for i, c in enumerate(f.coeffs)))


def pow_x_mod(f, e):
    """x**e mod f, by repeated squaring; f must have degree >= 1.

    Over a prime field the squaring runs on bare Z/p coefficient lists
    (`field._ppowmod`) against the monic associate of f, which leaves
    every remainder unchanged; extension-field coefficients go through
    `Poly` arithmetic."""
    if f.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    field = f.field
    if field.n == 1:
        p = field.p
        m = [int(c) for c in f.coeffs]
        linv = pow(m[-1], p - 2, p)
        m = [c * linv % p for c in m]
        x = [0, 1] if len(m) > 2 else [-m[0] % p]   # x mod (x + m0)
        return Poly(field, _ppowmod(x, e, m, p))
    result = Poly(field, (1,))
    base = Poly.x(field) % f
    while e:
        if e & 1:
            result = (result * base) % f
        base = (base * base) % f
        e >>= 1
    return result


def distinct_root_count(f, order):
    """Number of distinct roots of f in the field with `order` elements
    (a power of the coefficient characteristic), counted as
    deg gcd(f, x**order - x) without materializing x**order."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return 0
    frob = pow_x_mod(f, order) - (Poly.x(f.field) % f)
    return poly_gcd(f, frob).degree


def deuring(p):
    """The degree-(p-1)/2 supersingularity polynomial over F_p: the sign
    (-1)**m times the sum of squared binomials C(m, k)**2 x**k, with
    m = (p-1)/2.  Binomials come from an additive Pascal row, so no
    modular inversions are involved."""
    if p < 3 or p % 2 == 0:
        raise ValueError("odd prime characteristic required")
    field = make_field(p)
    m = (p - 1) // 2
    row = [1]
    for _ in range(m):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    sign = 1 if m % 2 == 0 else p - 1
    return Poly(field, [sign * c * c % p for c in row])


def roots_in(f, field, cap=None):
    """Distinct roots of f in `field`, sorted lexicographically.

    The coefficient field must be `field` itself or its prime subfield
    (constant embedding).  Exhaustive scan over the field.
    """
    if f.is_zero():
        raise ValueError("every element is a root of the zero polynomial")
    if f.field == field:
        codes = [field.code(c) for c in f.coeffs]
    elif f.field.n == 1 and f.field.p == field.p:
        # prime subfield embeds as the constant coefficient; with
        # little-endian codes the code value is unchanged
        codes = [c.coeffs[0] for c in f.coeffs]
    else:
        raise ValueError(f"cannot embed {f.field!r} coefficients into {field!r}")

    field.elements(cap).close()  # cap check only
    q = field.q
    if f.degree == 0:
        return []

    rev = list(reversed(codes))
    hits = []
    if codes[0] == 0:
        hits.append(0)
    if field.n == 1:
        p = field.p
        for x in range(1, q):
            acc = 0
            for c in rev:
                acc = (acc * x + c) % p
            if acc == 0:
                hits.append(x)
    else:
        exp, log = field._explog()
        add = field._add_func()
        m = q - 1
        for x in range(1, q):
            lx = log[x]
            acc = 0
            for c in rev:
                if acc:
                    acc = exp[(log[acc] + lx) % m]
                if c:
                    acc = add(acc, c)
            if acc == 0:
                hits.append(x)
    out = [field.from_code(c) for c in hits]
    out.sort()
    return out
