"""Cellular-automaton layer: linear local rules and their Latin squares.

A linear local rule of diameter d XORs the cells of a d-cell window picked
by a coefficient mask; bit i of the mask is the multiplier of cell x_i and
also the coefficient of X^i in the rule's polynomial p.  The rule must XOR
both outermost cells (p has degree d-1 and constant term 1), which makes it
bipermutive.

Sliding the window over 2(d-1) cells gives d-1 output cells.  Read the
input as the polynomial x = i·X^(d-1) + j, where the left and right
(d-1)-cell blocks i and j are decoded most-significant-bit first (leftmost
cell = highest bit).  The output block, decoded the same way, is then the
middle d-1 coefficients of x·p: the global map is multiplication by p.
Indexed by row i and column j, it forms a Latin square of order 2^(d-1).

Two linear rules yield orthogonal Latin squares exactly when their
polynomials are coprime.  are_orthogonal checks this by the definition,
never by gcd.  The square of a linear rule is an affine map of
GF(2)^m x GF(2)^m, N = 2^m; superposing two such squares gives an affine
map of GF(2)^2m, which hits all N^2 pairs exactly when the images of its
2m unit inputs are linearly independent (the Sylvester-rank view of
Mariot, Gadouleau, Formenti & Leporati, Des. Codes Cryptogr. 2020).
Whether a square is affine, and those images, are decided once, when the
square is built; any pair with a square that is not goes through the set
of superposed cells.
"""

from __future__ import annotations

from itertools import chain
from struct import Struct
from typing import NamedTuple

from .gf2poly import Poly, constant_term, degree

# Degree 12 (order 4096) builds in ~1.5 s with a ~625 MiB peak on a 2-CPU
# Python 3.11 host; time and memory grow 4x per degree.
SQUARE_DEGREE_LIMIT = 12


class LocalRule(NamedTuple("LocalRule", [("diameter", int), ("coeffs", int)])):
    """A linear CA local rule of diameter d.

    ``coeffs`` is the coefficient mask (bit i = multiplier of cell x_i,
    cells numbered left to right); it must XOR both outermost cells
    (bits 0 and d-1 set).
    """

    __slots__ = ()

    def __new__(cls, diameter: int, coeffs: int) -> "LocalRule":
        d = diameter
        if d < 1:
            raise ValueError(f"diameter must be positive, got {d}")
        if not 0 <= coeffs < (1 << d):
            raise ValueError(f"coefficient mask {coeffs:#x} does not fit diameter {d}")
        if not (coeffs & 1 and (coeffs >> (d - 1)) & 1):
            raise ValueError("linear rules must XOR both outermost cells")
        return super().__new__(cls, diameter, coeffs)

    @classmethod
    def _make(cls, iterable) -> "LocalRule":
        # namedtuple's _make (and _replace, which calls it) skips __new__.
        return cls(*iterable)


def _span(start: int, images: list[int]) -> list[int]:
    """Entry x is start XORed with images[t] for each set bit t of x, for x
    in 0..2^len(images)-1: the affine map with those unit images."""
    values = [start]
    for image in images:
        values += [v ^ image for v in values]
    return values


def _lane_codec(n: int):
    """(pack, unpack, ONES) for n values below 2^16 as one int of n 16-bit
    lanes, value k in bits 16k to 16k+15; ONES holds 1 in every lane."""
    lanes = Struct(f"<{n}H")

    def pack(values) -> int:
        return int.from_bytes(lanes.pack(*values), "little")

    def unpack(packed: int) -> tuple[int, ...]:
        return lanes.unpack(packed.to_bytes(lanes.size, "little"))

    return pack, unpack, pack([1] * n)


def _affine_basis(n: int, entries: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[int, ...]] | None:
    """(m, the images L(1 << t) then R(1 << t) for t < m) if N = 2^m and
    entry (i, j) = e00 ^ L(i) ^ R(j) for linear maps L and R, else None."""
    m = n.bit_length() - 1
    if n != 1 << m or m > 16:
        return None
    row0, column0 = entries[0], tuple(row[0] for row in entries)
    e00 = row0[0]
    lefts = [column0[1 << t] ^ e00 for t in range(m)]
    rights = [row0[1 << t] ^ e00 for t in range(m)]
    if tuple(_span(e00, rights)) != row0 or tuple(_span(e00, lefts)) != column0:
        return None
    # Row i must be row 0 with L(i) = row[0] ^ e00 XORed into every lane.
    pack, _, ones = _lane_codec(n)
    base = pack(row0)
    if any(pack(row) != base ^ (row[0] ^ e00) * ones for row in entries):
        return None
    return m, (*lefts, *rights)


class LatinSquare(NamedTuple("LatinSquare", [("order", int), ("entries", tuple[tuple[int, ...], ...])])):
    """An order-N array over {0, .., N-1}; validity is checked by is_latin.

    The square also keeps ``_basis``: (m, the images of the 2m unit inputs)
    when it is an affine map of GF(2)^m x GF(2)^m, as every square
    latin_square builds is, else None.  That is 2m + 1 ints at any order.
    """

    def __new__(cls, order: int, entries: tuple[tuple[int, ...], ...]) -> "LatinSquare":
        n = order
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries must form an {n}x{n} array")
        # are_orthogonal's key e1·N + e2 tells pairs apart only over 0..N-1.
        if not all(map(set(range(n)).issuperset, entries)):
            raise ValueError(f"entries must lie in 0..{n - 1}")
        self = super().__new__(cls, order, entries)
        self._basis = _affine_basis(n, entries)
        return self

    @classmethod
    def _make(cls, iterable) -> "LatinSquare":
        return cls(*iterable)

    def __reduce__(self):
        # copy and pickle rebuild through __new__ on every protocol, which
        # checks the entries and recomputes _basis instead of carrying it.
        return type(self), tuple(self)


def rule_from_poly(p: Poly) -> LocalRule:
    """Linear rule of diameter degree(p)+1 with cell coefficients read off p.

    Requires p of degree >= 1 with constant term 1 (so the rule XORs both
    outermost cells and is bipermutive).
    """
    if p == 0 or degree(p) < 1:
        raise ValueError(f"polynomial {p:#x} must have degree at least 1")
    if not constant_term(p):
        raise ValueError(f"polynomial {p:#x} must have constant term 1")
    return LocalRule(p.bit_length(), p)


def latin_square(rule: LocalRule) -> LatinSquare:
    """Tabulate the rule's global map on 2(d-1) cells as a Latin square.

    Entry (i, j) is the middle d-1 coefficients of (i·X^(d-1) + j)·p.  The
    product is linear in the input, so the entry splits as left[i] ^ right[j]:
    left[i] is the low d-1 bits of i·p and right[j] is j·p shifted down by
    d-1.  Both are linear, so each is spanned from its images of 1 << t, the
    low and the high bits of p << t.  Row i is right's 16-bit lanes with
    left[i] XORed into every lane.  Refuses rules of diameter < 2 and
    degrees above SQUARE_DEGREE_LIMIT.
    """
    d = rule.diameter
    if d < 2:
        raise ValueError(f"Latin squares need diameter >= 2, got {d}")
    nbits = d - 1
    if nbits > SQUARE_DEGREE_LIMIT:
        raise ValueError(f"Latin squares are limited to degree {SQUARE_DEGREE_LIMIT}, got {nbits}")
    n = 1 << nbits
    p = rule.coeffs
    left = _span(0, [p << t & (n - 1) for t in range(nbits)])
    pack, unpack, ones = _lane_codec(n)
    right = pack(_span(0, [p << t >> nbits for t in range(nbits)]))
    return LatinSquare(n, tuple(unpack(right ^ a * ones) for a in left))


def is_latin(square: LatinSquare) -> bool:
    """Whether every row and every column is a permutation of {0, .., N-1}:
    LatinSquare holds N lines of N entries in that range, so whether each
    line's entries are distinct."""
    n = square.order
    return all(len(set(line)) == n for line in chain(square.entries, zip(*square.entries)))


def are_orthogonal(first: LatinSquare, second: LatinSquare) -> bool:
    """Whether superposing the two squares yields all N^2 ordered pairs.

    When both squares are affine (decided when each was built), the
    superposed square maps (i, j) to (e00 ^ L(i) ^ R(j), e00' ^ L'(i) ^
    R'(j)), an affine map of GF(2)^2m.  It is a bijection, i.e. hits every
    pair, iff the images a | b << m of its 2m unit inputs are linearly
    independent: inserted one by one into an XOR basis keyed by top bit,
    none reduces to 0.  That is O(m^2) word operations at any order.  Other
    squares, which can still be orthogonal (permute the cells of an
    orthogonal pair), go through the set of superposed cells.
    """
    n = first.order
    if second.order != n:
        raise ValueError(f"orders differ: {n} vs {second.order}")
    if first._basis is not None and second._basis is not None:
        m, images = first._basis
        basis = {}
        for a, b in zip(images, second._basis[1]):
            v = a | b << m
            while v.bit_length() in basis:
                v ^= basis[v.bit_length()]
            if not v:
                return False
            basis[v.bit_length()] = v
        return True
    seen = set()
    add = seen.add
    for row1, row2 in zip(first.entries, second.entries):
        for e1, e2 in zip(row1, row2):
            key = e1 * n + e2
            if key in seen:
                return False
            add(key)
    return True
