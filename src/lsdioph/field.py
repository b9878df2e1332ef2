"""Exact arithmetic in the finite field F_q and its polynomial ring.

Field elements are plain ints in ``[0, q)``.  For a prime field (r = 1) the
int is the residue itself; for an extension field F_{p^r} the base-p digits
of the int are the coefficients of the element in the power basis of a fixed
irreducible modulus.  All operations are exact; nothing here ever rounds.

``Magnitude`` is the value group of the non-Archimedean absolute value: zero
or a symbolic power k^e.  Attained norms always have integer exponents, kept
as ``int``; derived thresholds may have fractional ones, kept as
``Fraction``.  Both compare exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero

# Irreducible moduli (coefficients ascending, monic) for the small extension
# fields used in practice.  Users may pass their own modulus for other (p, r).
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 0, 1),        # x^2 + 2
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """The finite field of k = p^r elements.

    Acts as the arithmetic provider for int-encoded elements; every other
    object in the package holds a reference to its FieldSpec.
    """

    __slots__ = ("p", "r", "k", "modulus", "_mul_table", "_inv_table")

    def __init__(self, p: int, r: int = 1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if r < 1:
            raise ValueError("r must be a positive integer")
        self.p = p
        self.r = r
        self.k = p**r
        if r == 1:
            self.modulus = None
        else:
            if modulus is None:
                try:
                    modulus = BUILTIN_MODULI[(p, r)]
                except KeyError:
                    raise ValueError(
                        f"no built-in modulus for GF({p}^{r}); pass one explicitly"
                    ) from None
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] == 0:
                raise ValueError("modulus must have degree r")
            if modulus[-1] != 1:
                inv = pow(modulus[-1], p - 2, p)
                modulus = tuple(c * inv % p for c in modulus)
            if not _poly_irreducible_mod_p(modulus, p):
                raise ValueError("modulus is reducible")
            self.modulus = modulus
        self._mul_table = None
        self._inv_table = None

    # -- element arithmetic (ints in [0, k)) --------------------------------

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.r):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.r):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        if self._mul_table is None:
            self._build_tables()
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero field element")
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is None:
            self._build_tables()
        return self._inv_table[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.k)

    # -- helpers -------------------------------------------------------------

    def digits(self, a: int):
        """Base-p coefficient vector (ascending powers of the generator)."""
        p, out = self.p, []
        for _ in range(self.r):
            out.append(a % p)
            a //= p
        return out

    def from_digits(self, digits) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.p + c % self.p
        return out

    def format_element(self, a: int) -> str:
        if self.r == 1:
            return str(a)
        return "(" + ",".join(str(c) for c in reversed(self.digits(a))) + ")"

    def _mul_raw(self, a: int, b: int) -> int:
        p = self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.r - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce modulo the (monic) modulus
        for i in range(len(prod) - 1, self.r - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.r):
                    prod[i - self.r + j] = (prod[i - self.r + j] - c * self.modulus[j]) % p
        return self.from_digits(prod[: self.r])

    def _build_tables(self):
        k = self.k
        table = [[0] * k for _ in range(k)]
        for a in range(1, k):
            for b in range(a, k):
                v = self._mul_raw(a, b)
                table[a][b] = v
                table[b][a] = v
        inv = [0] * k
        for a in range(1, k):
            row = table[a]
            for b in range(1, k):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._mul_table = table
        self._inv_table = inv

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"FieldSpec({self.p})"
        return f"FieldSpec({self.p}^{self.r})"


def _poly_irreducible_mod_p(coeffs, p: int) -> bool:
    """Brute-force irreducibility over F_p (degrees are tiny in practice)."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for ddeg in range(1, deg // 2 + 1):
        # monic candidate divisors of degree ddeg
        for idx in range(p**ddeg):
            cand = []
            v = idx
            for _ in range(ddeg):
                cand.append(v % p)
                v //= p
            cand.append(1)
            if _poly_mod_rem_is_zero(coeffs, cand, p):
                return False
    return True


def _poly_mod_rem_is_zero(num, den, p: int) -> bool:
    rem = list(num)
    dd = len(den) - 1
    while len(rem) - 1 >= dd:
        c = rem[-1]
        if c:
            shift = len(rem) - 1 - dd
            for j in range(dd + 1):
                rem[shift + j] = (rem[shift + j] - c * den[j]) % p
        rem.pop()
    return all(c == 0 for c in rem)


class Magnitude:
    """Zero or an exact power k^e of the residue field size.

    Totally ordered; multiplication adds exponents.  Zero is the least
    element and absorbs multiplication.
    """

    __slots__ = ("k", "exp")

    def __init__(self, k: int, exp):
        self.k = k
        if exp is not None and type(exp) is not int:
            exp = Fraction(exp)
            exp = exp.numerator if exp.denominator == 1 else exp
        self.exp = exp

    @classmethod
    def zero(cls, k: int) -> "Magnitude":
        return cls(k, None)

    @classmethod
    def power(cls, k: int, exp) -> "Magnitude":
        return cls(k, exp)

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    def exponent(self) -> int | Fraction:
        """The exponent e of k^e: an ``int`` when integral, else a ``Fraction``."""
        if self.exp is None:
            raise ValueError("zero magnitude has no exponent")
        return self.exp

    def as_fraction(self) -> Fraction:
        if self.exp is None:
            return Fraction(0)
        if self.exp.denominator != 1:
            raise ValueError(f"k^{self.exp} is not rational")
        e = int(self.exp)
        return Fraction(self.k**e) if e >= 0 else Fraction(1, self.k**-e)

    def root(self, n: int) -> "Magnitude":
        if self.exp is None:
            return self
        return Magnitude(self.k, Fraction(self.exp, n))

    def _check(self, other):
        if not isinstance(other, Magnitude):
            raise TypeError(f"cannot combine Magnitude with {type(other).__name__}")
        if other.k != self.k:
            raise ValueError("magnitudes over different fields")

    def __mul__(self, other):
        self._check(other)
        if self.exp is None or other.exp is None:
            return Magnitude.zero(self.k)
        return Magnitude(self.k, self.exp + other.exp)

    def __truediv__(self, other):
        self._check(other)
        if other.exp is None:
            raise DivisionByZero("division by zero magnitude")
        if self.exp is None:
            return self
        return Magnitude(self.k, self.exp - other.exp)

    def __pow__(self, n: int):
        if self.exp is None:
            if n <= 0:
                raise DivisionByZero("0 ** nonpositive")
            return self
        return Magnitude(self.k, self.exp * n)

    def __lt__(self, other):
        self._check(other)
        if self.exp is None:
            return other.exp is not None
        if other.exp is None:
            return False
        return self.exp < other.exp

    def __le__(self, other):
        return self < other or self == other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __eq__(self, other):
        return (
            isinstance(other, Magnitude) and self.k == other.k and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.k, self.exp))

    def __repr__(self):
        if self.exp is None:
            return "0"
        return f"{self.k}^{self.exp}"


def floor_log(value, k: int) -> int:
    """Largest integer e with k^e <= value, for an exact positive rational."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return floor_log_ratio(value.numerator, value.denominator, k)


def floor_log_ratio(a: int, b: int, k: int) -> int:
    """Largest integer e with k^e <= a/b, for integers a and b > 0 that
    need not be coprime."""
    if a <= 0:
        raise ValueError("floor_log of a nonpositive value")
    # a/b lies within a factor 2 of 2^bits: the estimate is off by at most 1
    e = math.floor((a.bit_length() - b.bit_length()) / math.log2(k))
    while not _power_at_most(k, e, a, b):
        e -= 1
    while _power_at_most(k, e + 1, a, b):
        e += 1
    return e


def _power_at_most(k: int, e: int, a: int, b: int) -> bool:
    """k^e <= a/b, in integers."""
    return k**e * b <= a if e >= 0 else b <= a * k**-e


class Poly:
    """Dense polynomial over F_q; coefficients ascending, top one nonzero.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.spec = spec
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, spec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec) -> "Poly":
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec) -> "Poly":
        return cls(spec, (0, 1))

    @classmethod
    def monomial(cls, spec, c: int, d: int) -> "Poly":
        if c == 0:
            return cls.zero(spec)
        return cls(spec, (0,) * d + (c,))

    @classmethod
    def constant(cls, spec, c: int) -> "Poly":
        return cls(spec, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def norm(self) -> Magnitude:
        if self.is_zero:
            return Magnitude.zero(self.spec.k)
        return Magnitude.power(self.spec.k, self.degree)

    def __add__(self, other):
        f = self.spec
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __neg__(self):
        f = self.spec
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.spec
        if self.is_zero or other.is_zero:
            return Poly.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(other.coeffs):
                    if cb:
                        out[i + j] = f.add(out[i + j], f.mul(ca, cb))
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.spec
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def shift(self, d: int) -> "Poly":
        """Multiply by X^d (d >= 0)."""
        if self.is_zero:
            return self
        return Poly(self.spec, (0,) * d + self.coeffs)

    def __divmod__(self, other):
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        f = self.spec
        dd = other.degree
        inv_lead = f.inv(other.lead)
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd:
            c = rem[-1]
            if c:
                c = f.mul(c, inv_lead)
                sft = len(rem) - 1 - dd
                quo[sft] = c
                for j, b in enumerate(other.coeffs):
                    rem[sft + j] = f.sub(rem[sft + j], f.mul(c, b))
            rem.pop()
        return Poly(f, quo), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.lead == 1:
            return self
        return self.scale(self.spec.inv(self.lead))

    def gcd(self, other) -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        f = self.spec
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            cs = f.format_element(c)
            if d == 0:
                terms.append(cs)
            else:
                xs = "X" if d == 1 else f"X^{d}"
                if f.r == 1 and c == 1:
                    terms.append(xs)
                else:
                    terms.append(f"{cs}*{xs}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self})"
