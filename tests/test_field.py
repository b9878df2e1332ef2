import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsdioph.approx import _exp_or_none
from lsdioph.errors import DivisionByZero
from lsdioph.field import BUILTIN_MODULI, FieldSpec, Magnitude, Poly, floor_log
from oracles import OracleMagnitude


def test_prime_field_axioms_exhaustive():
    for p in (2, 3, 5):
        f = FieldSpec(p)
        for a in f.elements():
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            for b in f.elements():
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in f.elements():
                    left = f.mul(a, f.add(b, c))
                    right = f.add(f.mul(a, b), f.mul(a, c))
                    assert left == right


def test_extension_field_inverses_exhaustive():
    for (p, r) in ((2, 2), (2, 3), (3, 2)):
        f = FieldSpec(p, r)
        assert f.k == p**r
        for a in range(1, f.k):
            inv = f.inv(a)
            assert f.mul(a, inv) == 1
        with pytest.raises(DivisionByZero):
            f.inv(0)


def test_extension_field_frobenius():
    # x -> x^p is additive in characteristic p
    f = FieldSpec(2, 3)

    def power(a, e):
        out = 1
        for _ in range(e):
            out = f.mul(out, a)
        return out

    for a in f.elements():
        for b in f.elements():
            assert power(f.add(a, b), 2) == f.add(power(a, 2), power(b, 2))


def test_builtin_moduli_are_irreducible():
    for (p, r) in BUILTIN_MODULI:
        FieldSpec(p, r)  # constructor validates


def test_bad_field_parameters_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(0, 0, 1))  # x^2 = x*x reducible
    with pytest.raises(ValueError):
        FieldSpec(2, 0)


def test_magnitude_total_order_and_arithmetic():
    z = Magnitude.zero(2)
    a = Magnitude.power(2, -3)
    b = Magnitude.power(2, 1)
    assert z < a < b
    assert max(z, a, b) == b
    assert a * b == Magnitude.power(2, -2)
    assert (a / b) == Magnitude.power(2, -4)
    assert a**3 == Magnitude.power(2, -9)
    assert z * b == z
    assert a.as_fraction() == Fraction(1, 8)
    assert b.as_fraction() == 2
    assert Magnitude.power(2, Fraction(3, 2)).root(3) == Magnitude.power(2, Fraction(1, 2))
    with pytest.raises(ValueError):
        Magnitude.power(2, Fraction(1, 2)).as_fraction()
    with pytest.raises(DivisionByZero):
        a / z


def test_magnitude_mixed_fields_rejected():
    with pytest.raises(ValueError):
        Magnitude.power(2, 1) * Magnitude.power(3, 1)


def test_poly_division_random():
    rng = random.Random(11)
    for p in (2, 3):
        f = FieldSpec(p)
        for _ in range(300):
            a = Poly(f, [rng.randrange(p) for _ in range(rng.randint(0, 7))])
            b = Poly(f, [rng.randrange(p) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


def test_poly_gcd_properties():
    f = FieldSpec(2)
    x = Poly.x(f)
    one = Poly.one(f)
    a = (x + one) * (x * x + x + one)
    b = (x + one) * x
    g = a.gcd(b)
    assert g == x + one
    assert one.gcd(a) == one
    assert Poly.zero(f).gcd(b) == b.monic()


def test_poly_norm_and_str():
    f = FieldSpec(3)
    p = Poly(f, (1, 0, 2))
    assert p.norm() == Magnitude.power(3, 2)
    assert str(p) == "2*X^2 + 1"
    assert str(Poly.zero(f)) == "0"
    assert Poly.zero(f).norm().is_zero


def test_floor_log_exact():
    assert floor_log(Fraction(7, 10), 2) == -1
    assert floor_log(Fraction(1, 8), 2) == -3
    assert floor_log(Fraction(1), 2) == 0
    assert floor_log(Fraction(9), 3) == 2
    assert floor_log(Fraction(26, 27), 3) == -1
    with pytest.raises(ValueError):
        floor_log(Fraction(0), 2)
    assert floor_log(1, 2) == 0 and floor_log(26, 3) == 2


def test_floor_log_accepts_what_fraction_accepts():
    assert floor_log("1/2", 2) == -1
    assert floor_log(0.125, 2) == -3
    assert floor_log(Decimal("26"), 3) == 2
    with pytest.raises(ValueError):
        floor_log("-1/3", 3)


EXPONENTS = st.one_of(
    st.none(),
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)),
)


def _outcome(op):
    """What an operation gives, comparable across the two classes: the
    value's repr, hash and exponent JSON, or the exception type."""
    try:
        x = op()
    except (ValueError, DivisionByZero) as exc:
        return type(exc)
    if isinstance(x, (Magnitude, OracleMagnitude)):
        return repr(x), hash(x), x.is_zero, json.dumps(_exp_or_none(x), default=str)
    return x


@given(
    k=st.sampled_from([2, 3, 4, 9]),
    a=EXPONENTS,
    b=EXPONENTS,
    power=st.integers(-3, 3),
    root=st.integers(1, 6),
)
def test_magnitude_matches_the_fraction_oracle(k, a, b, power, root):
    new = (Magnitude(k, a), Magnitude(k, b))
    old = (OracleMagnitude(k, a), OracleMagnitude(k, b))
    ops = [
        lambda x, y: x,
        lambda x, y: x < y,
        lambda x, y: x <= y,
        lambda x, y: x == y,
        lambda x, y: hash(x) == hash(y),
        lambda x, y: x * y,
        lambda x, y: x / y,
        lambda x, y: x**power,
        lambda x, y: x.root(root),
        lambda x, y: x.as_fraction(),
        lambda x, y: x.exponent(),
    ]
    for op in ops:
        assert _outcome(lambda: op(*new)) == _outcome(lambda: op(*old))
    for x in new:
        if not x.is_zero and x.exponent().denominator == 1:
            assert type(x.exponent()) is int
