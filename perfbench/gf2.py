"""GF(2)[X] arithmetic on bit-packed ints (bit e is the X^e coefficient).

The benchmark's own small implementation, so that output checks do not rest
on the code they check.
"""

from __future__ import annotations


def gf2_deg(a: int) -> int:
    return a.bit_length() - 1


def gf2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_divmod(a: int, b: int):
    if not b:
        raise ZeroDivisionError("GF(2) division by zero")
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_divmod(a, b)[1]
    return a


def gf2_quotients(num: int, den: int) -> list:
    """Partial quotients [a0, a1, ...] of the continued fraction of num/den."""
    out = []
    while den:
        q, r = gf2_divmod(num, den)
        out.append(q)
        num, den = den, r
    return out


def gf2_parse(text: str) -> int:
    """Inverse of workloads.gf2_text for the formatter's GF(2) output."""
    text = text.strip()
    if text == "0":
        return 0
    out = 0
    for term in text.split("+"):
        term = term.strip()
        if term == "1":
            e = 0
        elif term == "X":
            e = 1
        elif term.startswith("X^"):
            e = int(term[2:])
        else:
            raise ValueError(f"not a GF(2) polynomial term: {term!r}")
        if e < 0:
            raise ValueError(f"negative exponent in a polynomial: {term!r}")
        out ^= 1 << e
    return out


def gf2_frac_exp(qs, bits, depth: int):
    """Exponent of the fractional norm of sum q_i * (bits_i / X^depth), or
    None when the sum is a polynomial."""
    acc = 0
    for q, b in zip(qs, bits):
        acc ^= gf2_mul(q, b)
    rem = acc & ((1 << depth) - 1)
    return None if rem == 0 else gf2_deg(rem) - depth
