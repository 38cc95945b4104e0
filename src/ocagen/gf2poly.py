"""Arithmetic for polynomials over GF(2).

A polynomial is represented as a nonnegative Python integer: bit i is the
coefficient of X^i, so hex literals read directly as coefficient masks
(0x7 = X^2+X+1, 0xB = X^3+X+1).  Python integers are unbounded, so any
degree is supported; every nonzero polynomial is monic by construction.

The zero polynomial has degree -infinity, returned as the sentinel
``DEGREE_OF_ZERO`` (a float, never confused with a valid integer degree
but still ordered below all of them).
"""

from __future__ import annotations

from typing import Iterator, Union

Poly = int

DEGREE_OF_ZERO = float("-inf")

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

_NEGATIVE = "negative value is not a GF(2) polynomial"


def degree(p: Poly) -> Union[int, float]:
    """Degree of p: index of the highest set bit, DEGREE_OF_ZERO for p = 0."""
    return p.bit_length() - 1 if p else DEGREE_OF_ZERO


def constant_term(p: Poly) -> int:
    """Coefficient of X^0."""
    return p & 1


def mul(a: Poly, b: Poly) -> Poly:
    """Carry-less product of a and b: the package's one multiply, called by
    ``dilcue``.  The enumeration core forms the same products for whole
    lists at once, one shifted XOR per quotient bit, and ``latin_square``
    spans all products i·p of one rule from its shifts p << t."""
    if a < b:
        a, b = b, a
    if b < 0:
        raise ValueError(_NEGATIVE)
    c = 0
    while b:
        lsb = b & -b
        c ^= a * lsb
        b ^= lsb
    return c


def divmod_(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a divided by b, with degree(r) < degree(b).

    The package's quotient-keeping division, called by ``euclid_trace``;
    ``gcd`` writes the remainder-only division inline.  Raises
    ZeroDivisionError for b = 0.
    """
    if (a | b) < 0:
        raise ValueError(_NEGATIVE)
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    n = b.bit_length()
    q = 0
    while (shift := a.bit_length() - n) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a


def gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor of a and b (monic, unique over GF(2)).

    gcd(a, 0) = a.  Raises ValueError when both arguments are zero or
    either is negative.  Each step reduces a by shifted copies of b to the
    remainder, then swaps.
    """
    if (a | b) <= 0:
        raise ValueError(_NEGATIVE if a < 0 or b < 0 else "gcd(0, 0) is undefined")
    while b:
        n = b.bit_length()
        while (shift := a.bit_length() - n) >= 0:
            a ^= b << shift
        a, b = b, a
    return a


def parse_poly(text: str) -> Poly:
    """Parse a polynomial from hex form ("0x2b") or symbolic form ("x^3+x+1").

    The hex prefix is case-insensitive.  Symbolic terms are '0', '1', 'x' or
    'x^k', joined by '+'; repeated terms are rejected.  Malformed input
    raises ValueError naming the offending position.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s[:2].lower() == "0x":
        return _parse_hex(s)
    return _parse_symbolic(s)


def _parse_hex(s: str) -> Poly:
    digits = s[2:]
    if not digits:
        raise ValueError(f"missing hex digits after prefix at position 2 in {s!r}")
    for i, ch in enumerate(digits):
        if ch not in _HEX_DIGITS:
            raise ValueError(f"invalid hex digit {ch!r} at position {2 + i} in {s!r}")
    return int(digits, 16)


def _parse_symbolic(s: str) -> Poly:
    p = 0
    pos = 0
    for chunk in s.split("+"):
        term = chunk.strip()
        at = pos + chunk.index(term) if term else pos
        pos += len(chunk) + 1
        bit = _parse_term(term, at, s)
        if bit is None:
            continue
        if p & bit:
            raise ValueError(f"repeated term {term!r} at position {at} in {s!r}")
        p |= bit
    return p


def _parse_term(term: str, at: int, s: str) -> Union[Poly, None]:
    if term == "0":
        return None
    if term == "1":
        return 1
    if term in ("x", "X"):
        return 2
    # isdigit alone admits "²" (int() rejects it) and "٣" (int() reads 3).
    if term[:2] in ("x^", "X^") and term[2:].isascii() and term[2:].isdigit():
        return 1 << int(term[2:])
    raise ValueError(f"malformed term {term!r} at position {at} in {s!r}")


def format_poly(p: Poly, style: str = "hex") -> str:
    """Render p as "0x…" (style="hex") or as a sum of powers (style="symbolic")."""
    if p < 0:
        raise ValueError(_NEGATIVE)
    if style == "hex":
        return format(p, "#x")
    if style == "symbolic":
        if p == 0:
            return "0"
        powers = (i for i in reversed(range(p.bit_length())) if p >> i & 1)
        return "+".join("1" if i == 0 else "x" if i == 1 else f"x^{i}" for i in powers)
    raise ValueError(f"unknown style {style!r}; expected 'hex' or 'symbolic'")


def unit_polys(n: int) -> Iterator[Poly]:
    """All 2^(n-1) degree-n polynomials with constant term 1, ascending:
    the odd integers of bit length n + 1, so 1 alone for n = 0."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return iter(range(1 << n | 1, 2 << n, 2))
