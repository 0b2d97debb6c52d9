"""Finite fields F_{p^n} at desk scale: exact, deterministic, stdlib only.

Elements are coefficient vectors over Z/p reduced modulo a monic
irreducible polynomial.  The modulus is chosen deterministically (first
irreducible polynomial in the constant-term-first scan), so the same
(p, n) always produces the same field and every element has exactly one
representation.  Intended for exhaustive sweeps over small fields, not
for cryptography: q is capped at 2**63 and enumeration at 2**20.

All polynomial arithmetic over Z/p lives in one kernel on bare
coefficient lists (`_pmulmod`, `_pdivmod`, `_ppowmod`, `_pgcd`,
`_pinvmod`).  `Fe` multiplies, inverts and powers extension-field
elements there, and `poly` runs the supersingularity polynomial on it.
A lone product is the schoolbook `_pmulmod`; a long power modulo f of
high degree multiplies by `_barrett_mulmod` instead, one big-int
product of packed coefficients (`_pack`, `_unpack`, which `curve`'s
character sums share) reduced by Barrett's method.

Fast lookup tables (discrete log, Zech logarithm, quadratic character,
square roots), each of O(q) entries, and the n-bit trace mask of
characteristic 2 are built lazily per field and shared by the sweep
code in the sibling modules.  They are an implementation detail; the
public surface is `Field`, `Fe` and the helper functions at the bottom.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from functools import lru_cache
from math import gcd, isqrt

DEFAULT_ENUMERATION_CAP = 1 << 20
MAX_CHARACTERISTIC = 1 << 20
MAX_ORDER = 1 << 63


class EnumerationCapError(ValueError):
    """An exhaustive operation would touch more elements than its cap."""


def check_cap(size, cap, what, where):
    """Raise EnumerationCapError when the operation `what` over the field
    `where` would touch `size` elements, more than `cap`; a cap of None
    is DEFAULT_ENUMERATION_CAP.  The message is built only on failure."""
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if size > limit:
        raise EnumerationCapError(
            f"{what} over {where} needs {size} elements, cap is {limit}")


def check_hasse(n, q, at=""):
    """Raise RuntimeError when the point count n over F_q breaks the
    Hasse bound (q + 1 - n)^2 <= 4q; `at` names the curve."""
    t = q + 1 - n
    if t * t > 4 * q:
        raise RuntimeError(f"count {n}{at} violates the Hasse bound for q={q}")


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n):
    """Sorted distinct prime factors of n, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Bare coefficient-list arithmetic over Z/p, the one polynomial kernel.
# It picks and checks the modulus, multiplies, inverts and powers `Fe`
# elements of extension fields, builds the matrix that steps the exp
# table, and `poly` runs deuring(p) and its factors on it.  Lists are
# constant-term first and results carry no trailing zeros; `_pmulmod`,
# `_ppowmod` and `_pinvmod` also take the zero-padded coefficient tuples
# of `Fe`.  A lone product (`_pmulmod`) is the schoolbook double loop
# and its reduction, the reference the packed path is tested against; a
# long power modulo f of high degree (`_ppowmod`) multiplies by one
# big-int product of packed coefficients and reduces it by Barrett's
# method (`_barrett_mulmod`), which `poly`'s root counts and splits run.

def _digits(code, p, n):
    """The n base-p digits of code, least significant first."""
    out = []
    for _ in range(n):
        code, d = divmod(code, p)
        out.append(d)
    return out


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _pmulmod(a, b, f, p):
    if not a or not b:
        return []
    # products accumulate unreduced; one % p per coefficient at the end
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    # reduce by monic f
    df = len(f) - 1
    for i in range(len(out) - 1, df - 1, -1):
        c = out[i] % p
        if c:
            for j in range(df):
                out[i - df + j] -= c * f[j]
    return _ptrim([c % p for c in out[:df]])


def _pack(slots, code):
    """The nonnegative ints `slots` as one int, one fixed-width slot of
    the array type `code` each ("I" 32 bits, "Q" 64 bits), slot 0 the
    least significant (Kronecker substitution): the product of two
    packed lists is their polynomial product while no slot overflows."""
    return int.from_bytes(array(code, slots), sys.byteorder)


def _unpack(value, count, code):
    """The first `count` slots of a value packed by `_pack`, as an array
    of type `code`; `count` must cover every nonzero slot."""
    out = array(code)
    out.frombytes(value.to_bytes(count * out.itemsize, sys.byteorder))
    return out


# `_ppowmod` multiplies by `_barrett_mulmod` when the modulus degree df
# has df * (p - 1) / p >= _PACKED_MIN_TERMS and the exponent has at
# least _PACKED_MIN_BITS bits; the 64-bit slots must also hold
# df * (p - 1)^2.  The schoolbook skips zero coefficients, a 1/p share
# of them, so the measured crossover moves with p: degree 13 at p = 2,
# 10 at p = 3 and 7 from p = 31 (2-core Xeon VM, Python 3.11.7).  The
# reducer costs about three products, repaid within eight bits.
_PACKED_MIN_TERMS = 6.5
_PACKED_MIN_BITS = 8


def _barrett_mulmod(f, p):
    """(a, b) -> a * b mod f, for monic f of degree df >= 1 and a, b of
    length at most df with coefficients in [0, p), the same lists as
    `_pmulmod`.  The product is one big-int product of 64-bit-slot
    packed lists, reduced by Barrett's method (von zur Gathen and
    Gerhard, Modern Computer Algebra, sections 8.4 and 9.1): with g =
    1/rev(f) mod x^(df-1), computed once here by Newton iteration, the
    quotient by f of a product c of degree df + h - 1 is the reverse of
    rev(c div x^df) * g mod x^h, and the remainder is c - quotient * f
    mod x^df, two more packed products.  Every slot sums at most df
    products of two coefficients, so df * (p - 1)^2 < 2^64 is the
    caller's to check."""
    df = len(f) - 1
    k = df - 1

    def low(a, b, n):
        # a * b mod x^n, for len(a) + len(b) > n
        prod = _pack(a, "Q") * _pack(b, "Q")
        return [c % p for c in _unpack(prod, len(a) + len(b) - 1, "Q")[:n]]

    # rev(f) * g = 1 mod x^n, doubling n: g <- g * (2 - rev(f) * g)
    rev = f[::-1]
    g = [1]
    n = 1
    while n < k:
        n = min(2 * n, k)
        u = [-c % p for c in low(rev[:n], g, n)]
        u[0] += 2
        g = low(g, u, n)
    g_packed = _pack(g[:k], "Q")
    f_packed = _pack(f[:df], "Q")

    def mul(a, b):
        if not a or not b:
            return []
        m = len(a) + len(b) - 1
        a_packed = _pack(a, "Q")
        prod = _unpack(a_packed * (a_packed if a is b else _pack(b, "Q")),
                       m, "Q")
        h = m - df
        if h <= 0:
            return _ptrim([c % p for c in prod])
        top = [c % p for c in prod[:df - 1:-1]]
        quot = [c % p for c in _unpack(_pack(top, "Q") * g_packed,
                                       h + k - 1, "Q")[h - 1::-1]]
        qf = _unpack(_pack(quot, "Q") * f_packed, h + k, "Q")
        return _ptrim([(c - d) % p for c, d in zip(prod[:df], qf)])
    return mul


def _ppowmod(a, e, f, p):
    """a^e mod monic f by repeated squaring, on `_barrett_mulmod` for a
    long power modulo f of high degree, else on `_pmulmod`."""
    df = len(f) - 1
    result = [1]
    base = list(a)
    mul = None
    if (df * (p - 1) >= _PACKED_MIN_TERMS * p
            and e.bit_length() >= _PACKED_MIN_BITS
            and not df * (p - 1) ** 2 >> 64):
        mul = _barrett_mulmod(f, p)
        base = [c % p for c in base]
        if len(base) > df:
            base = _pdivmod(base, f, p)[1]
    while e:
        if e & 1:
            result = mul(result, base) if mul else _pmulmod(result, base, f, p)
        base = mul(base, base) if mul else _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pdivmod(a, b, p):
    """(quotient, remainder) of a by nonzero b, long division with b
    made monic on the fly."""
    linv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    r = list(a)
    quot = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * linv % p
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _ptrim(quot), _ptrim(r)


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        linv = pow(a[-1], p - 2, p)
        a = [c * linv % p for c in a]
    return a


def _pinvmod(a, f, p):
    """a^-1 modulo f, by the extended Euclidean algorithm: s * a = r
    (mod f) holds for each remainder r, down to a nonzero constant.
    ZeroDivisionError when a and f have a common factor."""
    r0, r1 = list(f), _ptrim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quot, rem = _pdivmod(r0, r1, p)
        r0, r1, s0, s1 = r1, rem, s1, _psub(s0, _pmulmod(quot, s1, f, p), p)
    if not r1:
        raise ZeroDivisionError("not invertible modulo f")
    c = pow(r1[0], p - 2, p)
    return [x * c % p for x in s1]


def _is_irreducible(f, p):
    """Monic f of degree >= 2 over Z/p."""
    n = len(f) - 1
    x = [0, 1]
    g = x
    for _ in range(1, n):
        g = _ppowmod(g, p, f, p)
        if _pgcd(_psub(g, x, p), f, p) != [1]:
            return False
    g = _ppowmod(g, p, f, p)
    return _psub(g, x, p) == []


def _find_modulus(p, n):
    # Scan monic candidates with the constant term varying fastest:
    # x^n, x^n + 1, x^n + 2, ..., x^n + x, ...
    for k in range(p ** n):
        f = _digits(k, p, n) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class Field:
    """Finite field of order p**n with a fixed monic irreducible modulus.

    `modulus` is a coefficient tuple, constant term first, leading 1
    included; it is empty for prime fields.  Calling the field coerces
    ints (canonical image of Z) and coefficient sequences to elements.
    """

    __slots__ = ("p", "n", "q", "modulus", "_tab", "_nonresidue")

    def __init__(self, p, n=1, modulus=None):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"characteristic {p!r} is not prime")
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} exceeds cap {MAX_CHARACTERISTIC}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"extension degree {n!r} must be a positive integer")
        q = p ** n
        if q > MAX_ORDER:
            raise ValueError(f"field order p^n = {q} exceeds cap {MAX_ORDER}")
        self.p = p
        self.n = n
        self.q = q
        if n == 1:
            self.modulus = ()
        elif modulus is None:
            self.modulus = _find_modulus(p, n)
        else:
            m = tuple(int(c) % p for c in modulus)
            if len(m) != n + 1 or m[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if not _is_irreducible(list(m), p):
                raise ValueError("modulus is reducible")
            self.modulus = m
        self._tab = {}
        self._nonresidue = None

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.p == other.p and self.n == other.n
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n})"

    # -- element construction -----------------------------------------

    def __call__(self, value):
        if isinstance(value, Fe):
            if value.field != self:
                raise ValueError(f"element of {value.field!r} used in {self!r}")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.n - 1)
            return Fe(self, coeffs)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.n:
            raise ValueError(f"coefficient vector longer than degree {self.n}")
        coeffs += [0] * (self.n - len(coeffs))
        return Fe(self, tuple(coeffs))

    @property
    def zero(self):
        return Fe(self, (0,) * self.n)

    @property
    def one(self):
        return Fe(self, (1,) + (0,) * (self.n - 1))

    def elements(self, cap=None):
        """All elements in lexicographic coefficient order (constant term
        most significant), as an iterator.  Raises EnumerationCapError
        when q exceeds the cap (default 2**20)."""
        check_cap(self.q, cap, "enumeration", self)

        def gen():
            for coeffs in itertools.product(range(self.p), repeat=self.n):
                yield Fe(self, coeffs)

        return gen()

    # -- integer codes -------------------------------------------------
    # code = sum(c_i * p**i): a bijection onto range(q) used by the
    # lookup tables.  Code order is not lexicographic order for n > 1.

    def code(self, a):
        if a.field != self:
            raise ValueError(f"element of {a.field!r} used in {self!r}")
        c = 0
        for d in reversed(a.coeffs):
            c = c * self.p + d
        return c

    def from_code(self, code):
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for {self!r}")
        return Fe(self, tuple(_digits(code, self.p, self.n)))

    # -- lazy lookup tables (package internal) -------------------------

    def _get(self, name, builder):
        try:
            return self._tab[name]
        except KeyError:
            value = builder()
            self._tab[name] = value
            return value

    def _check_cap(self):
        check_cap(self.q, None, "table construction", self)

    def _lex_codes(self):
        """Codes listed in lexicographic element order."""
        def build():
            self._check_cap()
            if self.n == 1:
                return list(range(self.q))
            p = self.p
            out = []
            for coeffs in itertools.product(range(p), repeat=self.n):
                c = 0
                for d in reversed(coeffs):
                    c = c * p + d
                out.append(c)
            return out
        return self._get("lex_codes", build)

    def _explog(self):
        """(exp, log) tables for a deterministic multiplicative generator:
        the lexicographically first element whose order is q - 1.  The
        powers step on coefficient lists: multiplying by g is the linear
        map whose column j holds coefficient j of t^i * g for every i."""
        def build():
            self._check_cap()
            p, n, m = self.p, self.n, self.q - 1
            # a prime field reduces modulo t: its elements are constants
            mod = list(self.modulus) or [0, 1]
            fac = prime_factors(m) if m > 1 else []
            powers = [p ** i for i in range(n)]
            for code in self._lex_codes():
                g = _ptrim(_digits(code, p, n))
                if g and all(_ppowmod(g, m // f, mod, p) != [1] for f in fac):
                    break
            rows = [_pmulmod([0] * i + [1], g, mod, p) for i in range(n)]
            cols = [[r[j] if j < len(r) else 0 for r in rows]
                    for j in range(n)]
            exp = [0] * m
            log = [None] * self.q
            acc = [1] + [0] * (n - 1)
            for k in range(m):
                c = sum(map(operator.mul, acc, powers))
                exp[k] = c
                log[c] = k
                acc = [sum(map(operator.mul, acc, col)) % p for col in cols]
            return exp, log
        return self._get("explog", build)

    def _zech(self):
        """Zech's logarithm z[k] = log(1 + g^k), None where g^k = -1; odd
        extension fields.  Adding 1 to a code only changes its constant
        digit, so the table is one pass over exp."""
        def build():
            exp, log = self._explog()
            top = self.p - 1
            return [log[c - top if c % self.p == top else c + 1] for c in exp]
        return self._get("zech", build)

    # The arithmetic closures are built once per field and kept by `_get`
    # as one-entry lists, so every value it stores is a sized table.
    # Prime fields add with % p and characteristic 2 with XOR; the other
    # extension fields add through Zech's logarithm, with O(q) tables.

    def _mul_func(self):
        def build():
            if self.n == 1:
                p = self.p
                return [lambda a, b: a * b % p]
            exp, log = self._explog()
            m = self.q - 1

            def mul(a, b):
                if a == 0 or b == 0:
                    return 0
                return exp[(log[a] + log[b]) % m]
            return [mul]
        return self._get("mul_func", build)[0]

    def _add_func(self):
        def build():
            if self.n == 1:
                p = self.p
                return [lambda a, b: (a + b) % p]
            if self.p == 2:
                return [lambda a, b: a ^ b]
            return [self._zech_add(0)]
        return self._get("add_func", build)[0]

    def _sub_func(self):
        def build():
            if self.n == 1:
                p = self.p
                return [lambda a, b: (a - b) % p]
            if self.p == 2:
                return [lambda a, b: a ^ b]
            # -1 = g^(m/2), so log(-b) = log(b) + m/2
            return [self._zech_add((self.q - 1) // 2)]
        return self._get("sub_func", build)[0]

    def _zech_add(self, shift):
        """(a, b) -> a + g^shift * b on codes: a + c = a * (1 + c/a), so
        log(a + c) = log(a) + z[log(c) - log(a)], and c = -a gives 0."""
        exp, log = self._explog()
        z = self._zech()
        m = self.q - 1

        def add(a, b):
            if b == 0:
                return a
            if a == 0:
                return exp[(log[b] + shift) % m]
            la = log[a]
            k = z[(log[b] + shift - la) % m]
            return 0 if k is None else exp[(la + k) % m]
        return add

    def _neg_codes(self):
        def build():
            self._check_cap()
            p = self.p
            if self.n == 1:
                return [(-c) % p for c in range(p)]
            if p == 2:
                return list(range(self.q))
            exp, log = self._explog()
            m = self.q - 1
            return [0] + [exp[(log[c] + m // 2) % m] for c in range(1, self.q)]
        return self._get("neg_codes", build)

    def _inv_codes(self):
        def build():
            exp, log = self._explog()
            m = self.q - 1
            out = [None] * self.q
            for c in range(1, self.q):
                out[c] = exp[(m - log[c]) % m]
            return out
        return self._get("inv_codes", build)

    def _chi_codes(self):
        """chi[code] in {-1, 0, +1}; odd characteristic only."""
        def build():
            if self.p == 2:
                raise ValueError("quadratic character needs odd characteristic")
            self._check_cap()
            if self.n == 1:
                p = self.p
                chi = [-1] * p
                chi[0] = 0
                for v in range(1, p):
                    chi[v * v % p] = 1
                return chi
            exp, _ = self._explog()
            chi = [0] * self.q
            for k, c in enumerate(exp):
                chi[c] = 1 if k % 2 == 0 else -1
            return chi
        return self._get("chi_codes", build)

    def _sqrt_codes(self):
        """sqrt[code] = code of the canonical square root, None for
        non-residues.  Canonical = lexicographically smaller root; odd
        characteristic only (characteristic 2 roots by `char2_sqrt`)."""
        def build():
            if self.p == 2:
                raise ValueError("square-root table needs odd characteristic")
            exp, _ = self._explog()
            m = self.q - 1
            out = [None] * self.q
            out[0] = 0
            neg = self._neg_codes()
            rank = [0] * self.q
            for i, c in enumerate(self._lex_codes()):
                rank[c] = i
            for k in range(0, m, 2):
                r = exp[k // 2]
                out[exp[k]] = r if rank[r] <= rank[neg[r]] else neg[r]
            return out
        return self._get("sqrt_codes", build)

    def _trace_mask(self):
        """Tr(t^k) as bit k of one int; characteristic 2 only.  Tr(t^k) is
        the k-th power sum p_k of the modulus's roots, and Newton's
        identities mod 2 give p_k = e_1 p_(k-1) + ... + e_(k-1) p_1 + k e_k,
        with e_j the coefficient of t^(n-j) and p_0 = n."""
        def build():
            n, f = self.n, self.modulus
            sums = [n % 2]
            for k in range(1, n):
                sums.append((k * f[n - k] + sum(f[n - j] * sums[k - j]
                                                 for j in range(1, k))) % 2)
            return [sum(b << k for k, b in enumerate(sums))]
        return self._get("trace_mask", build)[0]


class Fe:
    """Immutable field element: a coefficient tuple, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, Fe):
            if other.field is not self.field and other.field != self.field:
                raise ValueError(
                    f"mixed fields: {self.field!r} and {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        if self.field.n == 1:
            return Fe(self.field, ((self.coeffs[0] + other.coeffs[0]) % p,))
        return Fe(self.field, tuple((a + b) % p
                                    for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return Fe(self.field, tuple((a - b) % p
                                    for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        p = self.field.p
        return Fe(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        if f.n == 1:
            return Fe(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        return _element(f, _pmulmod(self.coeffs, other.coeffs, f.modulus, f.p))

    __rmul__ = __mul__

    def inv(self):
        f = self.field
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        if f.n == 1:
            return Fe(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        return _element(f, _pinvmod(self.coeffs, f.modulus, f.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self.inv() if e < 0 else self
        f = self.field
        if f.n == 1:
            return Fe(f, (pow(base.coeffs[0], abs(e), f.p),))
        return _element(f, _ppowmod(base.coeffs, abs(e), f.modulus, f.p))

    def __eq__(self, other):
        if isinstance(other, Fe):
            return ((self.field is other.field or self.field == other.field)
                    and self.coeffs == other.coeffs)
        if isinstance(other, int):
            return self.coeffs == self.field(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.field.q))

    def __bool__(self):
        return any(self.coeffs)

    def _cmp_key(self, other):
        if not isinstance(other, Fe) or other.field != self.field:
            raise ValueError("ordering is defined within a single field")
        return other.coeffs

    def __lt__(self, other):
        return self.coeffs < self._cmp_key(other)

    def __le__(self, other):
        return self.coeffs <= self._cmp_key(other)

    def __gt__(self, other):
        return self.coeffs > self._cmp_key(other)

    def __ge__(self, other):
        return self.coeffs >= self._cmp_key(other)

    def __int__(self):
        if self.field.n != 1:
            raise ValueError("only prime-field elements convert to int")
        return self.coeffs[0]

    def __repr__(self):
        if self.field.n == 1:
            return f"{self.coeffs[0]} (mod {self.field.p})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c) + "*"
                terms.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
        body = " + ".join(terms) if terms else "0"
        return f"{body} ({self.field!r})"


def _element(field, coeffs):
    """The element of `field` with the kernel list `coeffs`, padded with
    zeros to the field degree."""
    return Fe(field, tuple(coeffs) + (0,) * (field.n - len(coeffs)))


@lru_cache(maxsize=None)
def _make_field(p, n):
    return Field(p, n)


def make_field(p, n=1):
    """Deterministic field constructor; equal (p, n) give the same object."""
    return _make_field(p, n)


def odd_primes(limit):
    """Ascending list of the odd primes p <= limit, by the sieve of
    Eratosthenes: O(limit) bytes and no trial division."""
    sieve = bytearray([1]) * (limit + 1)
    for f in range(3, isqrt(max(limit, 0)) + 1, 2):
        if sieve[f]:
            sieve[f * f::2 * f] = bytes(len(range(f * f, limit + 1, 2 * f)))
    return [p for p in range(3, limit + 1, 2) if sieve[p]]


def odd_prime_powers(limit):
    """Ascending list of p^n <= limit with p an odd prime, n >= 1."""
    out = []
    for p in odd_primes(limit):
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    out.sort()
    return out


def field_of_order(q):
    """The deterministic field with exactly q elements."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in prime_factors(q):
        n = 0
        m = q
        while m % p == 0:
            m //= p
            n += 1
        if m == 1:
            return make_field(p, n)
    raise ValueError(f"{q} is not a prime power")


def quadratic_character(a):
    """+1 for nonzero squares, -1 for non-squares, 0 for zero.

    Euler criterion a**((q-1)/2); odd characteristic only.
    """
    f = a.field
    if f.p == 2:
        raise ValueError("quadratic character needs odd characteristic")
    if not a:
        return 0
    r = a ** ((f.q - 1) // 2)
    if r == f.one:
        return 1
    if r == -f.one:
        return -1
    raise RuntimeError("Euler criterion returned a non-sign value")


def is_nth_power(a, m):
    """Whether nonzero a is an m-th power, via a**((q-1)/gcd(m, q-1))."""
    f = a.field
    if f.p == 2:
        raise ValueError("is_nth_power needs odd characteristic")
    if not a:
        raise ValueError("is_nth_power is for nonzero elements")
    if m < 1:
        raise ValueError("power index must be positive")
    g = gcd(m, f.q - 1)
    return a ** ((f.q - 1) // g) == f.one


def _first_nonresidue(field):
    """The lexicographically first non-square of an odd-characteristic
    field, by the Euler criterion on a lazy scan of the nonzero elements
    in lex order, so no enumeration cap applies.  For even n every
    element of F_p is a square, so c * a has the character of a: only
    elements whose first nonzero coefficient is 1 are tested, and a
    non-square turns up within a few tries for every n."""
    if field._nonresidue is None:
        p, n = field.p, field.n
        # lex order is ascending r = sum c_i p^(n-1-i); r in
        # [c p^k, (c+1) p^k) has c as its first nonzero coefficient,
        # with k coefficients after it
        top = 2 if n % 2 == 0 else p
        for k in range(n):
            for r in range(p ** k, top * p ** k):
                a = Fe(field, tuple(reversed(_digits(r, p, n))))
                if quadratic_character(a) == -1:
                    field._nonresidue = a
                    return a
    return field._nonresidue


def sqrt(a):
    """Canonical square root (lexicographically smaller of the pair), or
    None for non-residues.  Odd characteristic only."""
    f = a.field
    if f.p == 2:
        raise ValueError("sqrt here is for odd characteristic")
    if not a:
        return a
    if quadratic_character(a) == -1:
        return None
    q = f.q
    if q % 4 == 3:
        r = a ** ((q + 1) // 4)
    else:
        # Tonelli-Shanks with a deterministic non-residue
        m = q - 1
        s = 0
        while m % 2 == 0:
            m //= 2
            s += 1
        z = _first_nonresidue(f)
        c = z ** m
        r = a ** ((m + 1) // 2)
        t = a ** m
        e = s
        while t != f.one:
            i = 0
            t2 = t
            while t2 != f.one:
                t2 = t2 * t2
                i += 1
            b = c ** (1 << (e - i - 1))
            r = r * b
            c = b * b
            t = t * c
            e = i
    mr = -r
    return r if r.coeffs <= mr.coeffs else mr


def trace2(a):
    """Absolute trace F_{2^n} -> F_2, 0 or 1: the parity of code & mask."""
    f = a.field
    if f.p != 2:
        raise ValueError("trace2 needs characteristic 2")
    return (f.code(a) & f._trace_mask()).bit_count() & 1
