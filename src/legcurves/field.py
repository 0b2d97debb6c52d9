"""Finite fields F_{p^n} at desk scale: exact, deterministic, stdlib only.

Elements are coefficient vectors over Z/p reduced modulo a monic
irreducible polynomial.  The modulus is chosen deterministically (first
irreducible polynomial in the constant-term-first scan), so the same
(p, n) always produces the same field and every element has exactly one
representation.  Intended for exhaustive sweeps over small fields, not
for cryptography: q is capped at 2**63 and enumeration at 2**20.

Fast lookup tables (discrete log, quadratic character, square roots) are
built lazily per field and shared by the sweep code in the sibling
modules.  They are an implementation detail; the public surface is
`Field`, `Fe` and the helper functions at the bottom.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

DEFAULT_ENUMERATION_CAP = 1 << 20
MAX_CHARACTERISTIC = 1 << 20
MAX_ORDER = 1 << 63

# q*q tables are affordable up to this order; beyond it addition falls
# back to digit arithmetic.
_ADD_TABLE_MAX = 2100


class EnumerationCapError(ValueError):
    """An exhaustive operation would touch more elements than its cap."""


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
# Bare coefficient-list arithmetic over Z/p, used only to pick and check
# the modulus.  Lists are constant-term first with no trailing zeros.

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
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by monic f
    df = len(f) - 1
    for i in range(len(out) - 1, df - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(df):
                out[i - df + j] = (out[i - df + j] - c * f[j]) % p
    return _ptrim(out[:df])


def _ppowmod(a, e, f, p):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b, with b made monic on the fly
        linv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        r = list(a)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] * linv % p
            if c:
                for j in range(db + 1):
                    r[i - db + j] = (r[i - db + j] - c * b[j]) % p
        _ptrim(r)
        a, b = b, r
    if a:
        linv = pow(a[-1], p - 2, p)
        a = [c * linv % p for c in a]
    return a


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
        digits = []
        kk = k
        for _ in range(n):
            digits.append(kk % p)
            kk //= p
        f = digits + [1]
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
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        if self.q > cap:
            raise EnumerationCapError(
                f"enumerating {self!r} needs {self.q} elements, cap is {cap}")

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
        coeffs = []
        for _ in range(self.n):
            coeffs.append(code % self.p)
            code //= self.p
        return Fe(self, tuple(coeffs))

    # -- lazy lookup tables (package internal) -------------------------

    def _get(self, name, builder):
        try:
            return self._tab[name]
        except KeyError:
            value = builder()
            self._tab[name] = value
            return value

    def _check_cap(self, what="table construction"):
        if self.q > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"{what} for {self!r} exceeds cap {DEFAULT_ENUMERATION_CAP}")

    def _digits(self):
        """digits[code] = coefficient tuple."""
        def build():
            self._check_cap()
            return [tuple(self.from_code(c).coeffs) for c in range(self.q)]
        return self._get("digits", build)

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
        the lexicographically first element whose order is q - 1."""
        def build():
            self._check_cap()
            m = self.q - 1
            fac = prime_factors(m) if m > 1 else []
            gen = None
            for code in self._lex_codes():
                if code == 0:
                    continue
                g = self.from_code(code)
                if all((g ** (m // f)).coeffs != self.one.coeffs for f in fac):
                    gen = g
                    break
            exp = [0] * m
            log = [None] * self.q
            acc = self.one
            for k in range(m):
                c = self.code(acc)
                exp[k] = c
                log[c] = k
                acc = acc * gen
            return exp, log
        return self._get("explog", build)

    def _mul_func(self):
        if self.n == 1:
            p = self.p
            return lambda a, b: a * b % p
        exp, log = self._explog()
        m = self.q - 1

        def mul(a, b):
            if a == 0 or b == 0:
                return 0
            return exp[(log[a] + log[b]) % m]
        return mul

    def _add_func(self):
        if self.n == 1:
            p = self.p
            return lambda a, b: (a + b) % p
        if self.p == 2:
            return lambda a, b: a ^ b
        if self.q <= _ADD_TABLE_MAX:
            table = self._add_table()
            return lambda a, b: table[a][b]
        digits = self._digits()
        p = self.p
        n = self.n

        def add(a, b):
            da, db = digits[a], digits[b]
            c = 0
            for i in range(n - 1, -1, -1):
                c = c * p + (da[i] + db[i]) % p
            return c
        return add

    def _add_table(self):
        def build():
            self._check_cap()
            digits = self._digits()
            p = self.p
            powers = [p ** i for i in range(self.n)]
            rows = []
            for da in digits:
                row = []
                for db in digits:
                    c = 0
                    for i, pw in enumerate(powers):
                        c += ((da[i] + db[i]) % p) * pw
                    row.append(c)
                rows.append(row)
            return rows
        return self._get("add_table", build)

    def _neg_codes(self):
        def build():
            self._check_cap()
            if self.n == 1:
                p = self.p
                return [(-c) % p for c in range(p)]
            digits = self._digits()
            p = self.p
            powers = [p ** i for i in range(self.n)]
            out = []
            for d in digits:
                c = 0
                for i, pw in enumerate(powers):
                    c += ((-d[i]) % p) * pw
                out.append(c)
            return out
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
        non-residues.  Canonical = lexicographically smaller root."""
        def build():
            if self.p == 2:
                exp, log = self._explog()
                m = self.q - 1
                out = [0] * self.q
                half = (m + 1) // 2  # 2*half = 1 mod m, m odd
                for c in range(1, self.q):
                    out[c] = exp[log[c] * half % m]
                return out
            exp, log = self._explog()
            m = self.q - 1
            out = [None] * self.q
            out[0] = 0
            neg = self._neg_codes()
            if self.n == 1:
                smaller = min
            else:
                digits = self._digits()

                def smaller(a, b):
                    return a if digits[a] <= digits[b] else b
            for k in range(0, m, 2):
                r = exp[k // 2]
                out[exp[k]] = smaller(r, neg[r])
            return out
        return self._get("sqrt_codes", build)

    def _trace_codes(self):
        """Absolute trace to F_2, as a 0/1 list; characteristic 2 only."""
        def build():
            if self.p != 2:
                raise ValueError("trace table is for characteristic 2")
            exp, log = self._explog()
            m = self.q - 1
            out = [0] * self.q
            for c in range(1, self.q):
                acc = c
                t = c
                for _ in range(self.n - 1):
                    t = exp[2 * log[t] % m] if t else 0
                    acc ^= t
                # acc is 0 or 1 here for a correct trace
                out[c] = acc
            return out
        return self._get("trace_codes", build)


class Fe:
    """Immutable field element: a coefficient tuple, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, Fe):
            if other.field != self.field:
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
        p = f.p
        if f.n == 1:
            return Fe(f, (self.coeffs[0] * other.coeffs[0] % p,))
        a, b = self.coeffs, other.coeffs
        n = f.n
        out = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        mod = f.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(n):
                    out[i - n + j] = (out[i - n + j] - c * mod[j]) % p
        return Fe(f, tuple(out[:n]))

    __rmul__ = __mul__

    def inv(self):
        f = self.field
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        if f.n == 1:
            return Fe(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        # extended Euclid against the modulus
        p = f.p
        r0, r1 = list(f.modulus), _ptrim(list(self.coeffs))
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
        return Fe(f, tuple(out[:f.n]))

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
        base = self
        if e < 0:
            base = self.inv()
            e = -e
        result = self.field.one
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Fe):
            return self.field == other.field and self.coeffs == other.coeffs
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


@lru_cache(maxsize=None)
def _make_field(p, n):
    return Field(p, n)


def make_field(p, n=1, seed=0):
    """Deterministic field constructor; `seed` is reserved and unused."""
    return _make_field(p, n)


def odd_prime_powers(limit):
    """Ascending list of p^n <= limit with p an odd prime, n >= 1."""
    out = []
    for p in range(3, limit + 1, 2):
        if not _is_prime(p):
            continue
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
    if field._nonresidue is None:
        for a in field.elements():
            if a and quadratic_character(a) == -1:
                field._nonresidue = a
                break
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
    """Absolute trace F_{2^n} -> F_2, returned as 0 or 1."""
    f = a.field
    if f.p != 2:
        raise ValueError("trace2 needs characteristic 2")
    acc = a
    t = a
    for _ in range(f.n - 1):
        t = t * t
        acc = acc + t
    if acc == f.zero:
        return 0
    if acc == f.one:
        return 1
    raise RuntimeError("trace landed outside the prime subfield")
