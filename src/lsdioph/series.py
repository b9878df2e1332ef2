"""Truncated formal Laurent series over F_q, exact rational functions, and
the vectors and matrices built from them.

A series is stored sparsely as ``{exponent: coefficient}`` together with a
precision floor ``known_below``: every coefficient at an exponent >=
``known_below`` is exact, lower ones are unknown.  ``known_below is None``
means the support is finite and the value exact.  Any operation whose result
norm cannot be certified raises :class:`PrecisionExhausted` instead of
guessing; nothing in this module silently truncates.

The absolute value is ||x|| = k^(leading exponent), ||0|| = 0; the induced
metric is non-Archimedean, with equality in the ultrametric inequality
whenever the two norms differ.
"""

from __future__ import annotations

from .errors import (
    CoefficientOutOfRange,
    DivisionByZero,
    PrecisionExhausted,
    SeriesSyntaxError,
)
from .field import FieldSpec, Magnitude, Poly

DEFAULT_DIV_PRECISION = 64
# Largest |exponent| the text grammar accepts: a polynomial part is stored
# densely, so memory grows with the exponents a term names.
MAX_EXPONENT = 10**6


class LaurentSeries:
    """An element of the Laurent series field, exact or truncated."""

    __slots__ = ("spec", "coeffs", "known_below")

    def __init__(self, spec: FieldSpec, coeffs, known_below=None):
        clean = dict(coeffs)
        if known_below is not None:
            clean = {e: c for e, c in clean.items() if c and e >= known_below}
        elif 0 in clean.values():  # a scan in C: most inputs hold no zero
            clean = {e: c for e, c in clean.items() if c}
        if not clean and known_below is not None:
            raise PrecisionExhausted(
                f"series is zero to precision {known_below}; norm undeterminable"
            )
        self.spec = spec
        self.coeffs = clean
        self.known_below = known_below

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec) -> "LaurentSeries":
        return cls(spec, {})

    @classmethod
    def one(cls, spec) -> "LaurentSeries":
        return cls(spec, {0: 1})

    @classmethod
    def monomial(cls, spec, c: int, e: int) -> "LaurentSeries":
        return cls(spec, {e: c})

    @classmethod
    def from_poly(cls, p: Poly) -> "LaurentSeries":
        return cls(p.spec, {e: c for e, c in enumerate(p.coeffs) if c})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True for the exact zero series only."""
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return self.known_below is None

    @property
    def lead_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero series has no leading exponent")
        return max(self.coeffs)

    def norm(self) -> Magnitude:
        if not self.coeffs:
            return Magnitude.zero(self.spec.k)
        return Magnitude.power(self.spec.k, self.lead_exp)

    def coefficient(self, e: int) -> int:
        """Exact coefficient at exponent e; raises if e is below precision."""
        if self.known_below is not None and e < self.known_below:
            raise PrecisionExhausted(f"coefficient at X^{e} unknown")
        return self.coeffs.get(e, 0)

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.spec != other.spec:
            raise ValueError("mixed field specs")

    @staticmethod
    def _merge_floor(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    def __add__(self, other):
        if isinstance(other, Poly):
            other = LaurentSeries.from_poly(other)
        self._check(other)
        floor = self._merge_floor(self.known_below, other.known_below)
        f = self.spec
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = f.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentSeries(f, out, floor)

    def __neg__(self):
        f = self.spec
        return LaurentSeries(
            f, {e: f.neg(c) for e, c in self.coeffs.items()}, self.known_below
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = LaurentSeries.from_poly(other)
        self._check(other)
        f = self.spec
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.zero(f)
        floor = None
        if other.known_below is not None:
            floor = self.lead_exp + other.known_below
        if self.known_below is not None:
            cand = other.lead_exp + self.known_below
            floor = cand if floor is None else max(floor, cand)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if floor is not None and e < floor:
                    continue
                s = f.add(out.get(e, 0), f.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentSeries(f, out, floor)

    def scale(self, c: int) -> "LaurentSeries":
        f = self.spec
        if c == 0:
            return LaurentSeries.zero(f)
        return LaurentSeries(
            f, {e: f.mul(c, a) for e, a in self.coeffs.items()}, self.known_below
        )

    def shift(self, d: int) -> "LaurentSeries":
        """Multiply by X^d; exact for any integer d."""
        floor = None if self.known_below is None else self.known_below + d
        return LaurentSeries(self.spec, {e + d: c for e, c in self.coeffs.items()}, floor)

    def __truediv__(self, other):
        return self.divide(other)

    def divide(self, other, precision: int = DEFAULT_DIV_PRECISION) -> "LaurentSeries":
        """Long division; truncates the expansion to ``precision`` coefficient
        positions unless it terminates exactly."""
        if isinstance(other, Poly):
            other = LaurentSeries.from_poly(other)
        self._check(other)
        f = self.spec
        if not other.coeffs:
            raise DivisionByZero("series division by zero")
        if not self.coeffs:
            return LaurentSeries.zero(f)

        rel_self = self._rel_precision()
        rel_other = other._rel_precision()
        rel_out = min(rel_self, rel_other, precision)
        lead_out = self.lead_exp - other.lead_exp
        floor_out = lead_out - rel_out + 1

        le_d = other.lead_exp
        inv_lead = f.inv(other.coeffs[le_d])
        rem = dict(self.coeffs)
        out = {}
        exact = self.is_exact and other.is_exact
        while rem:
            e_top = max(rem)
            s = e_top - le_d
            if s < floor_out:
                break
            c = f.mul(rem[e_top], inv_lead)
            out[s] = c
            for e2, c2 in other.coeffs.items():
                e = s + e2
                v = f.sub(rem.get(e, 0), f.mul(c, c2))
                if v:
                    rem[e] = v
                else:
                    rem.pop(e, None)
        if exact and not rem:
            return LaurentSeries(f, out)
        return LaurentSeries(f, out, floor_out)

    def _rel_precision(self):
        if self.known_below is None:
            return float("inf")
        return self.lead_exp - self.known_below + 1

    # -- lattice structure ---------------------------------------------------

    def polynomial_part(self) -> Poly:
        """Truncation to exponents >= 0 (zero when the norm is < 1)."""
        if not self.coeffs:
            return Poly.zero(self.spec)
        if self.lead_exp < 0:
            return Poly.zero(self.spec)
        if self.known_below is not None and self.known_below > 0:
            raise PrecisionExhausted("coefficients at exponent 0 unknown")
        out = [0] * (self.lead_exp + 1)
        for e, c in self.coeffs.items():
            if e >= 0:
                out[e] = c
        return Poly(self.spec, out)

    def frac_norm(self) -> Magnitude:
        """Norm of the fractional part x - [x]; always < 1."""
        neg = [e for e in self.coeffs if e < 0]
        if neg:
            return Magnitude.power(self.spec.k, max(neg))
        if self.known_below is None:
            return Magnitude.zero(self.spec.k)
        raise PrecisionExhausted(
            f"fractional part is zero to precision {self.known_below}"
        )

    def truncate_below(self, e: int) -> "LaurentSeries":
        """Exact series keeping the coefficients at exponents >= e."""
        if self.known_below is not None and self.known_below > e:
            raise PrecisionExhausted(f"coefficients above X^{e} not all known")
        return LaurentSeries(self.spec, {x: c for x, c in self.coeffs.items() if x >= e})

    # -- identity ------------------------------------------------------------

    def _key(self):
        return (self.spec, tuple(sorted(self.coeffs.items())), self.known_below)

    def __eq__(self, other):
        return isinstance(other, LaurentSeries) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        if self.known_below is None:
            return f"LaurentSeries({format_series(self)})"
        return f"LaurentSeries({format_series(self)}, known_below={self.known_below})"


class RationalFn:
    """Exact rational function num/den over F_q[X], reduced, monic denominator.

    Supports the same value-level protocol as LaurentSeries (norm,
    polynomial_part, frac_norm) but never loses precision.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        g = num.gcd(den)
        if not g.is_zero and g.degree > 0:
            num = num // g
            den = den // g
        if den.lead != 1:
            inv = den.spec.inv(den.lead)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFn":
        return cls(p, Poly.one(p.spec))

    @classmethod
    def from_series_exact(cls, x: "LaurentSeries") -> "RationalFn":
        """Exact conversion of a finite-support series p(X)/X^s."""
        if not x.is_exact:
            raise ValueError("only finite-support series convert exactly")
        if x.is_zero:
            return cls.from_poly(Poly.zero(x.spec))
        shift = max(0, -min(x.coeffs))
        num = x.shift(shift).polynomial_part()
        return cls(num, Poly.monomial(x.spec, 1, shift))

    @property
    def spec(self):
        return self.den.spec

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_exact(self) -> bool:
        return True

    def norm(self) -> Magnitude:
        if self.num.is_zero:
            return Magnitude.zero(self.spec.k)
        return Magnitude.power(self.spec.k, self.num.degree - self.den.degree)

    def polynomial_part(self) -> Poly:
        return self.num // self.den

    def frac_norm(self) -> Magnitude:
        r = self.num % self.den
        if r.is_zero:
            return Magnitude.zero(self.spec.k)
        return Magnitude.power(self.spec.k, r.degree - self.den.degree)

    def __add__(self, other):
        if isinstance(other, Poly):
            other = RationalFn.from_poly(other)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = RationalFn.from_poly(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, Poly):
            other = RationalFn.from_poly(other)
        if other.num.is_zero:
            raise DivisionByZero("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def scale(self, c: int) -> "RationalFn":
        return RationalFn(self.num.scale(c), self.den)

    def shift(self, d: int) -> "RationalFn":
        if d >= 0:
            return RationalFn(self.num.shift(d), self.den)
        return RationalFn(self.num, self.den.shift(-d))

    def to_series(self, precision: int = DEFAULT_DIV_PRECISION) -> LaurentSeries:
        num = LaurentSeries.from_poly(self.num)
        den = LaurentSeries.from_poly(self.den)
        if num.is_zero:
            return num
        return num.divide(den, precision=precision)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == Poly.one(self.spec):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFn({self})"


def lift_poly(p: Poly, like):
    """Embed a polynomial into the scalar type of ``like``."""
    if isinstance(like, RationalFn):
        return RationalFn.from_poly(p)
    return LaurentSeries.from_poly(p)


def scalar_one(spec: FieldSpec, like):
    if isinstance(like, RationalFn):
        return RationalFn.from_poly(Poly.one(spec))
    return LaurentSeries.one(spec)


def scalar_zero(spec: FieldSpec, like):
    if isinstance(like, RationalFn):
        return RationalFn.from_poly(Poly.zero(spec))
    return LaurentSeries.zero(spec)


# ---------------------------------------------------------------------------
# Vectors and matrices
# ---------------------------------------------------------------------------


class SeriesMatrix:
    """Immutable rectangular matrix of series (or rational) scalars sharing
    one FieldSpec."""

    __slots__ = ("spec", "entries", "rows", "cols", "_exact")

    def __init__(self, spec: FieldSpec, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        width = len(entries[0])
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for x in row:
                if x.spec != spec:
                    raise ValueError("mixed field specs in matrix")
        self.spec = spec
        self.entries = entries
        self.rows = len(entries)
        self.cols = width
        self._exact = None

    @property
    def is_exact(self) -> bool:
        """Is every entry an exact finite-support series?  Found once per
        matrix, which is immutable."""
        if self._exact is None:
            self._exact = all(
                isinstance(x, LaurentSeries) and x.is_exact for row in self.entries for x in row
            )
        return self._exact

    @classmethod
    def zero(cls, spec, rows: int, cols: int) -> "SeriesMatrix":
        z = LaurentSeries.zero(spec)
        return cls(spec, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, spec, d: int) -> "SeriesMatrix":
        z, o = LaurentSeries.zero(spec), LaurentSeries.one(spec)
        return cls(spec, [[o if i == j else z for j in range(d)] for i in range(d)])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def col(self, j: int):
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix(
            self.spec,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __add__(self, other):
        self._check_shape(other)
        return SeriesMatrix(
            self.spec,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check_shape(other)
        return SeriesMatrix(
            self.spec,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")

    def map(self, fn) -> "SeriesMatrix":
        return SeriesMatrix(self.spec, [[fn(x) for x in row] for row in self.entries])

    def height(self) -> Magnitude:
        out = Magnitude.zero(self.spec.k)
        for row in self.entries:
            for x in row:
                out = max(out, x.norm())
        return out

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_series(x) if isinstance(x, LaurentSeries) else str(x) for x in row)
            for row in self.entries
        )
        return f"SeriesMatrix[{body}]"


def vec_height(vec) -> Magnitude:
    """Height of a vector of scalars or polynomials: max coordinate norm."""
    out = None
    for x in vec:
        n = x.norm()
        out = n if out is None else max(out, n)
    if out is None:
        raise ValueError("empty vector")
    return out


def lattice_distance(vec) -> Magnitude:
    """Distance to the polynomial lattice: max fractional-part norm.

    Minimisation over the lattice is separable by coordinate, so the best
    lattice point is the vector of polynomial parts.
    """
    out = None
    for x in vec:
        n = x.frac_norm()
        out = n if out is None else max(out, n)
    if out is None:
        raise ValueError("empty vector")
    return out


def vec_dot(q, column):
    """The linear form sum_i a_i * q_i, for a vector q of polynomials or
    scalars and a column a of scalars.

    Zero q_i are skipped: a zero factor contributes an exact zero, so the
    value and its precision floor are those of the full sum.  The exact zero
    scalar is returned when every q_i is zero.
    """
    if len(q) != len(column):
        raise ValueError("dimension mismatch")
    out = None
    for qi, a in zip(q, column):
        if qi.is_zero:
            continue
        term = a * qi
        out = term if out is None else out + term
    if out is None:
        return scalar_zero(column[0].spec, column[0])
    return out


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------
#
#   series := term ("+" term)*
#   term   := [coeff "*"] "X" ["^" integer] | coeff
#   coeff  := integer in [0, p)                        (r = 1)
#           | "(" c_{r-1} "," ... "," c_0 ")"          (r > 1)
#
# Terms may appear in any order; duplicate exponents are summed in F_q.


def parse_series(text: str, spec: FieldSpec, terms: dict | None = None) -> LaurentSeries:
    """Parse the grammar above.  ``terms``, a dict kept by the caller for one
    field, maps each term text already read to its (coefficient, exponent),
    so that a text seen before is not parsed again."""
    if terms is None:
        terms = {}
    coeffs: dict = {}
    for chunk, offset in _split_top(text, "+"):
        key = chunk.strip()
        term = terms.get(key)
        if term is None:
            term = terms[key] = _parse_term(chunk, offset, spec)
        c, e = term
        if e in coeffs:
            c = spec.add(coeffs[e], c)
            if not c:
                del coeffs[e]
                continue
        if c:
            coeffs[e] = c
    return LaurentSeries(spec, coeffs)


def parse_poly(text: str, spec: FieldSpec) -> Poly:
    s = parse_series(text, spec)
    if s.is_zero:
        return Poly.zero(spec)
    if min(s.coeffs) < 0:
        raise SeriesSyntaxError("negative exponent in polynomial", 0)
    out = [0] * (s.lead_exp + 1)
    for e, c in s.coeffs.items():
        out[e] = c
    return Poly(spec, out)


def _split_top(text: str, sep: str):
    """Split at ``sep`` outside parentheses, as (chunk, offset) pairs.  Only
    text with a parenthesis needs the character walk, which skips separators
    inside them and places an unbalanced one."""
    if "(" not in text and ")" not in text:
        out, start = [], 0
        for chunk in text.split(sep):
            out.append((chunk, start))
            start += len(chunk) + 1
        return out
    terms = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SeriesSyntaxError("unbalanced parenthesis", i)
        elif ch == sep and depth == 0:
            terms.append((text[start:i], start))
            start = i + 1
    if depth:
        raise SeriesSyntaxError("unbalanced parenthesis", len(text))
    terms.append((text[start:], start))
    return terms


def _parse_term(chunk: str, offset: int, spec: FieldSpec):
    raw = chunk.strip()
    if not raw:
        raise SeriesSyntaxError("empty term", offset)
    pos = offset + chunk.index(raw[0])

    coeff = None
    rest = raw
    if raw[0] == "(":
        close = raw.find(")")
        if close < 0:
            raise SeriesSyntaxError("unterminated coefficient tuple", pos)
        coeff = _parse_coeff_tuple(raw[: close + 1], pos, spec)
        rest = raw[close + 1 :].lstrip()
    elif raw[0].isdigit():
        i = 0
        while i < len(raw) and raw[i].isdigit():
            i += 1
        coeff = _parse_coeff_int(raw[:i], pos, spec)
        rest = raw[i:].lstrip()

    if coeff is not None and rest.startswith("*"):
        rest = rest[1:].lstrip()
        if not rest:
            raise SeriesSyntaxError("dangling '*'", pos + len(raw) - 1)

    if not rest:
        if coeff is None:
            raise SeriesSyntaxError("empty term", pos)
        return coeff, 0

    if rest[0] != "X":
        raise SeriesSyntaxError(f"expected 'X', found {rest[0]!r}", pos + raw.find(rest))
    rest = rest[1:].lstrip()
    exp = 1
    if rest:
        if rest[0] != "^":
            raise SeriesSyntaxError("expected '^' after X", pos + raw.rfind(rest[0]))
        try:
            exp = int(rest[1:].strip())
        except ValueError:
            raise SeriesSyntaxError("bad exponent", pos + len(raw) - len(rest)) from None
        if abs(exp) > MAX_EXPONENT:
            raise SeriesSyntaxError(
                f"exponent {exp} beyond +-{MAX_EXPONENT}", pos + len(raw) - len(rest)
            )
    if coeff is None:
        coeff = 1
    return coeff, exp


def _parse_coeff_int(tok: str, pos: int, spec: FieldSpec) -> int:
    value = int(tok)
    if spec.r > 1:
        if value == 0:
            return 0  # the literal zero series needs no tuple
        raise CoefficientOutOfRange(
            f"plain integer coefficient {value} in an extension field; use a tuple",
            pos,
        )
    if not 0 <= value < spec.p:
        raise CoefficientOutOfRange(
            f"coefficient {value} outside [0, {spec.p})", pos
        )
    return value


def _parse_coeff_tuple(tok: str, pos: int, spec: FieldSpec) -> int:
    if spec.r == 1:
        raise SeriesSyntaxError("tuple coefficient in a prime field", pos)
    inner = tok[1:-1]
    parts = [p.strip() for p in inner.split(",")]
    if len(parts) != spec.r:
        raise SeriesSyntaxError(
            f"coefficient tuple must have {spec.r} entries", pos
        )
    digits = []
    for p_ in parts:
        if not p_.isdigit():
            raise SeriesSyntaxError(f"bad tuple entry {p_!r}", pos)
        v = int(p_)
        if not 0 <= v < spec.p:
            raise CoefficientOutOfRange(
                f"tuple entry {v} outside [0, {spec.p})", pos
            )
        digits.append(v)
    # listed high digit first
    return spec.from_digits(reversed(digits))


def format_series(x: LaurentSeries, terms: dict | None = None) -> str:
    """Highest exponent first.  ``terms``, a dict kept by the caller for one
    field, maps each (exponent, coefficient) already formatted to its text."""
    if x.is_zero:
        return "0"
    if terms is None:
        terms = {}
    f, coeffs = x.spec, x.coeffs
    out = []
    for e in sorted(coeffs, reverse=True):
        key = (e, coeffs[e])
        text = terms.get(key)
        if text is None:
            text = terms[key] = _format_term(f, *key)
        out.append(text)
    return " + ".join(out)


def _format_term(f: FieldSpec, e: int, c: int) -> str:
    if e == 0:
        return f.format_element(c)
    xs = "X" if e == 1 else f"X^{e}"
    if f.r == 1 and c == 1:
        return xs
    return f"{f.format_element(c)}*{xs}"


def parse_field(text: str) -> FieldSpec:
    """Parse a field flag: "p" or "p^r" (built-in modulus) or "p^r:modulus"."""
    text = text.strip()
    mod_text = None
    if ":" in text:
        text, mod_text = text.split(":", 1)
    if "^" in text:
        p_s, r_s = text.split("^", 1)
        p, r = int(p_s), int(r_s)
    else:
        p, r = int(text), 1
    if mod_text is None:
        return FieldSpec(p, r)
    base = FieldSpec(p, 1)
    mod = parse_poly(mod_text, base)
    return FieldSpec(p, r, modulus=mod.coeffs)


def parse_matrix(text: str, spec: FieldSpec) -> SeriesMatrix:
    """Rows separated by ";", entries within a row by ","; both only outside
    the parentheses of extension-field coefficients."""
    return SeriesMatrix(
        spec,
        [
            [parse_series(cell, spec) for cell, _ in _split_top(row, ",")]
            for row, _ in _split_top(text, ";")
        ],
    )


def format_matrix(m: SeriesMatrix) -> str:
    return "; ".join(", ".join(format_series(x) for x in row) for row in m.entries)
