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
never by gcd: with byte translation tables in C when the order is at most
256 and every row of both squares is a permutation (as in every square
latin_square builds), else with the set of superposed cells.  Whether a
square's rows qualify is decided once, when the square is built.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

from .gf2poly import Poly, constant_term, degree, mul

# Degree 12 (order 4096) builds in ~2.5 s with a ~625 MiB peak on a 2-CPU
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


class LatinSquare(NamedTuple("LatinSquare", [("order", int), ("entries", tuple[tuple[int, ...], ...])])):
    """An order-N array over {0, .., N-1}; validity is checked by is_latin.

    For N <= 256 the square also keeps its rows as ``bytes`` in ``_rows``
    when every row is a permutation of 0..N-1 (else None), for
    are_orthogonal's table path: about N^2 + 41·N bytes.  Above 256 it
    keeps nothing more.
    """

    def __new__(cls, order: int, entries: tuple[tuple[int, ...], ...]) -> "LatinSquare":
        n = order
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"entries must form an {n}x{n} array")
        # are_orthogonal's key e1·N + e2 tells pairs apart only over 0..N-1,
        # and rows of order <= 256 then fit in bytes for its table path.
        if not all(map(set(range(n)).issuperset, entries)):
            raise ValueError(f"entries must lie in 0..{n - 1}")
        rows = None
        if n <= 256:
            rows = tuple(map(bytes, entries))
            # Deleting a row's bytes from 0..N-1 leaves nothing iff the row
            # holds every symbol, i.e. is a permutation.
            if any(map(bytes(range(n)).translate, repeat(None), rows)):
                rows = None
        self = super().__new__(cls, order, entries)
        self._rows = rows
        return self

    @classmethod
    def _make(cls, iterable) -> "LatinSquare":
        return cls(*iterable)

    def __reduce__(self):
        # copy and pickle rebuild through __new__ on every protocol, which
        # checks the entries and recomputes _rows instead of carrying it.
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
    d-1.  Refuses rules of diameter < 2 and degrees above
    SQUARE_DEGREE_LIMIT.
    """
    d = rule.diameter
    if d < 2:
        raise ValueError(f"Latin squares need diameter >= 2, got {d}")
    nbits = d - 1
    if nbits > SQUARE_DEGREE_LIMIT:
        raise ValueError(f"Latin squares are limited to degree {SQUARE_DEGREE_LIMIT}, got {nbits}")
    n = 1 << nbits
    p = rule.coeffs
    left = [mul(i, p) & (n - 1) for i in range(n)]
    right = [mul(j, p) >> nbits for j in range(n)]
    return LatinSquare(n, tuple(tuple(a ^ b for b in right) for a in left))


def is_latin(square: LatinSquare) -> bool:
    """Whether every row and every column is a permutation of {0, .., N-1}:
    LatinSquare holds N lines of N entries in that range, so whether each
    line's entries are distinct."""
    n = square.order
    return all(len(set(line)) == n for line in chain(square.entries, zip(*square.entries)))


def are_orthogonal(first: LatinSquare, second: LatinSquare) -> bool:
    """Whether superposing the two squares yields all N^2 ordered pairs.

    When both squares kept their rows as bytes (N <= 256, every row a
    permutation of 0..N-1; decided when each square was built), row i of
    ``first`` holds symbol a in exactly one cell, so
    ``bytes.maketrans(row1, row2)`` is a table T_i with T_i[a] the entry of
    ``second`` there.  The pair (a, b) occurs iff some T_i[a] = b, so the
    squares are orthogonal iff for each a the N bytes T_i[a] cover 0..N-1,
    i.e. deleting them from it with ``translate`` leaves nothing; each a's
    bytes are sliced only when reached, so the check stops at the first a
    they miss.  Other squares, which can still be orthogonal (permute the
    cells of an orthogonal pair), go through the set of superposed cells.
    """
    n = first.order
    if second.order != n:
        raise ValueError(f"orders differ: {n} vs {second.order}")
    if first._rows and second._rows:
        tables = b"".join(map(bytes.maketrans, first._rows, second._rows))
        return not any(map(bytes(range(n)).translate, repeat(None), (tables[a::256] for a in range(n))))
    seen = set()
    add = seen.add
    for row1, row2 in zip(first.entries, second.entries):
        for e1, e2 in zip(row1, row2):
            key = e1 * n + e2
            if key in seen:
                return False
            add(key)
    return True
