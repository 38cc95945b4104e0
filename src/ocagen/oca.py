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
polynomials are coprime; no check here calls gcd.  A linear rule's square
is an affine map of GF(2)^m x GF(2)^m, N = 2^m: entry (i, j) is
e00 ^ L(i) ^ R(j) for linear maps L and R.  A square keeps the images of
its 2m unit inputs when it is affine, decided once, when it is built, and
every check reads them: is_latin asks whether L and R are bijections,
are_orthogonal whether the superposed map of GF(2)^2m is (the
Sylvester-rank view of Mariot, Gadouleau, Formenti & Leporati, Des. Codes
Cryptogr. 2020); each is a GF(2) independence test.  Any other square is
checked through its entries.
"""

from __future__ import annotations

from itertools import chain, repeat
from struct import error as struct_error, pack, unpack
from typing import Iterator, NamedTuple

from .gf2poly import Poly, constant_term, degree

# Degree 12 (order 4096) builds in ~0.8 s with a ~625 MiB peak on a 2-CPU
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


def _lane_rows(m: int, e00: int, images) -> Iterator[bytes]:
    """The rows of entry (i, j) = e00 ^ L(i) ^ R(j), N = 2^m, with L(1 << t)
    = images[t] and R(1 << t) = images[m + t], each as N little-endian
    16-bit lanes: row 0 with L(i) XORed into every lane."""
    n = 1 << m
    row0 = int.from_bytes(pack(f"<{n}H", *_span(e00, images[m:])), "little")
    ones = ((1 << 16 * n) - 1) // 0xFFFF
    return ((row0 ^ a * ones).to_bytes(2 * n, "little") for a in _span(0, images[:m]))


def _affine_basis(n: int, entries: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[int, ...]] | None:
    """(m, the images L(1 << t) then R(1 << t) for t < m) if N = 2^m and
    entry (i, j) = e00 ^ L(i) ^ R(j) in 0..N-1 for linear L and R, else None."""
    m = n.bit_length() - 1
    if n != 1 << m or m > 16:
        return None
    e00 = entries[0][0]
    units = [entries[1 << t][0] for t in range(m)] + [entries[0][1 << t] for t in range(m)]
    if not all(isinstance(v, int) and 0 <= v < n for v in (e00, *units)):
        return None
    images = tuple(v ^ e00 for v in units)
    try:  # pack refuses a non-int, a negative value or one >= 2^16
        same = all(pack(f"<{n}H", *row) == lanes for row, lanes in zip(entries, _lane_rows(m, e00, images)))
    except struct_error:
        return None
    return (m, images) if same else None


class LatinSquare(NamedTuple("LatinSquare", [("order", int), ("entries", tuple[tuple[int, ...], ...])])):
    """An order-N array of ints in 0..N-1; validity is checked by is_latin.

    ``_basis`` is (m, the images of the 2m unit inputs) when the square is
    an affine map of GF(2)^m x GF(2)^m, as every latin_square is, else
    None; is_latin and are_orthogonal read it whenever it is there.
    """

    def __new__(cls, order: int, entries: tuple[tuple[int, ...], ...]) -> "LatinSquare":
        n = order
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries must form an {n}x{n} array")
        basis = _affine_basis(n, entries)
        # are_orthogonal's key e1·N + e2 tells pairs apart only over 0..N-1;
        # an affine square is already known to lie there.  1.0 is in
        # range(n) as a set member, so the types are checked apart.
        if basis is None and not (all(map(set(range(n)).issuperset, entries))
                                  and all(map(isinstance, chain.from_iterable(entries), repeat(int)))):
            raise ValueError(f"entries must be ints in 0..{n - 1}")
        self = super().__new__(cls, order, entries)
        self._basis = basis
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
    product is linear in the input, so the entry is L(i) ^ R(j), where L(i)
    is the low d-1 bits of i·p and R(j) is j·p shifted down by d-1; the
    images of 1 << t are the low and the high bits of p << t.  Refuses
    rules of diameter < 2 and degrees above SQUARE_DEGREE_LIMIT.
    """
    d = rule.diameter
    if d < 2:
        raise ValueError(f"Latin squares need diameter >= 2, got {d}")
    nbits = d - 1
    if nbits > SQUARE_DEGREE_LIMIT:
        raise ValueError(f"Latin squares are limited to degree {SQUARE_DEGREE_LIMIT}, got {nbits}")
    n = 1 << nbits
    p = rule.coeffs
    images = [p << t & (n - 1) for t in range(nbits)] + [p << t >> nbits for t in range(nbits)]
    return LatinSquare(n, tuple(unpack(f"<{n}H", row) for row in _lane_rows(nbits, 0, images)))


def _independent(vectors) -> bool:
    """Whether the ints are independent GF(2) vectors: inserted one by one
    into an XOR basis keyed by top bit, none reduces to 0."""
    basis = {}
    for v in vectors:
        while v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if not v:
            return False
        basis[v.bit_length()] = v
    return True


def is_latin(square: LatinSquare) -> bool:
    """Whether every row and every column is a permutation of {0, .., N-1}:
    of an affine square, whether R and L are bijections (each map's m unit
    images independent); of any other, whether each line's N entries, all
    in range, are distinct."""
    if square._basis is not None:
        m, images = square._basis
        return _independent(images[:m]) and _independent(images[m:])
    n = square.order
    return all(len(set(line)) == n for line in chain(square.entries, zip(*square.entries)))


def are_orthogonal(first: LatinSquare, second: LatinSquare) -> bool:
    """Whether superposing the two squares yields all N^2 ordered pairs.

    Two affine squares superpose to an affine map of GF(2)^2m, (i, j) ->
    (e00 ^ L(i) ^ R(j), e00' ^ L'(i) ^ R'(j)), which hits every pair iff its
    2m unit images a | b << m are independent: O(m^2) word operations at
    any order.  Any other pair, which can still be orthogonal (permute the
    cells of an orthogonal pair), goes through the set of superposed cells.
    """
    n = first.order
    if second.order != n:
        raise ValueError(f"orders differ: {n} vs {second.order}")
    if first._basis is not None and second._basis is not None:
        m, images = first._basis
        return _independent(a | b << m for a, b in zip(images, second._basis[1]))
    seen = set()
    add = seen.add
    for row1, row2 in zip(first.entries, second.entries):
        for e1, e2 in zip(row1, row2):
            key = e1 * n + e2
            if key in seen:
                return False
            add(key)
    return True
