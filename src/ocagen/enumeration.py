"""Exhaustive streaming of coprime equal-degree pairs with unit constant terms.

A pair of degree n is synthesized from three independent choices:

  * a k-composition of n (the quotient degrees, k >= 2),
  * a free bit string of length n-k (the quotients' intermediate terms),
  * a valid constant-term word of length k.

The three pieces assemble into a quotient sequence [p_1, .., p_k, 1] (the
trailing unit quotient is forced by the equal degrees), which dilcuE replays
from the seed (1, 0) into the pair itself.  Every pair is produced exactly
once; the stream is deterministically ordered: k ascending, then
compositions, intermediate strings and constant words each in
lexicographic order.  It is built in chunks of at most block_cap(n) pairs,
so its memory is bounded in bytes at any degree.

One lane-packed core generates every pair: it runs dilcuE once per chunk,
for all of the chunk's valid words at once, as lanes of one int read out
as bytes.  Within a composition the pairs are a plain product of the
intermediate strings and the valid words, taken in that order, so a
record's generating triple is fixed by its position in the stream:
provenance is read off the core's output, never replayed.

``enumerate_pairs`` is the full stream and ``pair_chunks`` the same
stream one chunk at a time, as the core's lane bytes: lane p holds f_p and
g_p and stands for the two lines (f_p, g_p) and (g_p, f_p).
``pairs_for_composition`` is the independently consumable partition for
one quotient degree sequence.  A brute-force ``oracle_pairs`` (direct gcd
filtering) and the two exact counting forms are provided for verification.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain, combinations, islice, product, repeat
from math import comb
from typing import Iterator, NamedTuple, Optional

from .compositions import Composition, compositions
from .const_lang import block_cap, completions, count_words, is_valid_word, spell, word_blocks
from .gf2poly import Poly, gcd, unit_polys

# ``oracle --degree 12`` takes 11-12 s and peaks near 360 MiB on a 2-CPU
# Python 3.11 host, both growing 4x per degree; ``count --method oracle``
# takes 3 s and holds no pairs (15 MiB).
ORACLE_DEGREE_LIMIT = 12

Provenance = tuple[Composition, str, str]


class PairRecord(NamedTuple):
    f: Poly
    g: Poly
    provenance: Optional[Provenance] = None


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")


def count_pairs(n: int) -> int:
    """Number of coprime ordered pairs of degree n with unit constant terms.

    Closed form 2*(4^(n-1) - 1)/3, exact; 0 for n = 1.
    """
    _check_degree(n)
    return 2 * ((1 << (2 * (n - 1))) - 1) // 3


def count_pairs_sum(n: int) -> int:
    """Same count as ``count_pairs`` via the triple decomposition.

    Sums, over sequence lengths k = 2..n, the product of the number of
    compositions, free intermediate strings, and valid constant-term words.
    """
    _check_degree(n)
    return sum(
        (1 << (n - k)) * comb(n - 1, k - 1) * count_words(k)
        for k in range(2, n + 1)
    )


def intermediate_sequences(parts: Composition) -> Iterator[str]:
    """All free intermediate-term strings for one composition, lexicographic.

    A k-composition of n leaves n-k free coefficient slots; each 0/1 string
    of that length is emitted exactly once.
    """
    _validate_parts(parts)
    return _bit_strings(sum(parts) - len(parts))


def _bit_strings(length: int) -> Iterator[str]:
    """Every 0/1 string of ``length`` bits, in lexicographic order: the
    order of the intermediate strings throughout the stream."""
    return map("".join, product("01", repeat=length))


def assemble_quotients(parts: Composition, intermediates: str, word: str) -> tuple[Poly, ...]:
    """Build the quotient sequence [p_1, .., p_k, 1] from its three pieces.

    p_j is monic of degree parts[j]; its X^1..X^(d_j - 1) coefficients are
    consumed left-to-right from ``intermediates`` through one contiguous
    cursor, and its constant term is word[j].  The forced trailing unit
    quotient is appended.  Raises ValueError on length mismatches, an
    invalid word or an intermediate bit other than 0 and 1.
    """
    k = len(parts)
    n = sum(parts)
    _validate_parts(parts)
    if k < 2:
        raise ValueError("quotient degree sequences have at least two parts")
    if len(word) != k:
        raise ValueError(f"word length {len(word)} does not match sequence length {k}")
    if len(intermediates) != n - k:
        raise ValueError(
            f"expected {n - k} intermediate bits for this composition, got {len(intermediates)}"
        )
    if not is_valid_word(word):
        raise ValueError(f"constant-term word {word!r} is not valid")
    if not set(intermediates) <= {"0", "1"}:
        raise ValueError(f"bit strings must consist of 0s and 1s, got {intermediates!r}")
    # p_j below X^d_j, high bit first: its d_j - 1 intermediate bits reversed, then s_j.
    bits = iter(intermediates)
    lows = ("".join(islice(bits, d - 1))[::-1] + s for d, s in zip(parts, word))
    return (*(1 << d | int(low, 2) for d, low in zip(parts, lows)), 1)


def enumerate_pairs(n: int, with_provenance: bool = False) -> Iterator[PairRecord]:
    """Stream every coprime ordered pair of degree n with unit constant terms.

    Exactly count_pairs(n) records are emitted, each exactly once, in the
    pinned deterministic order; the stream is empty for n = 1.  With
    ``with_provenance`` each record carries its generating triple
    (composition, intermediate string, constant-term word).
    """
    return chain.from_iterable(pairs_for_composition(parts, with_provenance) for parts in _compositions(n))


def pair_chunks(n: int) -> Iterator[bytes]:
    """The pairs of ``enumerate_pairs(n)``, in the same order, one chunk of
    at most block_cap(n) pairs at a time, as its lanes' bytes: the f's, then
    the g's, each a lane_bytes(n)-byte little-endian int.  Lane p stands for
    the chunk's lines 2p, (f_p, g_p), and 2p + 1, (g_p, f_p)."""
    return (_lanes(parts, *block) for parts in _compositions(n)
            for block in word_blocks(len(parts), block_cap(n), n - len(parts)))


def _compositions(n: int) -> Iterator[Composition]:
    """The quotient degree sequences of the degree-n stream, in stream order."""
    _check_degree(n)
    return chain.from_iterable(compositions(n, k) for k in range(2, n + 1))


def pairs_for_composition(parts: Composition, with_provenance: bool = False) -> Iterator[PairRecord]:
    """The slice of the pair stream whose quotient degrees equal ``parts``.

    Slices for distinct compositions are disjoint, so they can be consumed
    independently (or concurrently) and concatenated in composition order
    to reproduce ``enumerate_pairs``.
    """
    _validate_parts(parts)
    if len(parts) < 2:
        raise ValueError("quotient degree sequences have at least two parts")
    # Records are built in C.  A chunk's triples are its intermediate strings,
    # counting up from its fixed bits, times the words of its word prefix.
    n, k = sum(parts), len(parts)
    return chain.from_iterable(
        map(tuple.__new__, repeat(PairRecord), zip(pairs, pairs, triples or repeat(None)))
        for fixed, state in word_blocks(k, block_cap(n), n - k)
        for f, g in [lane_columns(_lanes(parts, fixed, state), n)]
        for pairs in [chain.from_iterable(zip(f, g, g, f))]
        for mids, prefix in [(fixed[:n - k], fixed[n - k:])]
        for triples in [with_provenance and product(
            (parts,), map(mids.__add__, _bit_strings(n - k - len(mids))), spell(k, prefix, state))]
    )


# The only pair generator.  dilcuE advances (A, B) -> (q·A + B, A) per
# quotient from (1, 0), and the forced unit quotient ends it at
# (f, g) = (A + B, A).  Each quotient bit enters one step linearly, so a
# chunk runs dilcuE once for all its candidates, as lanes of one int
# (broadword, Knuth TAOCP 4A §7.1.3): a free bit or symbol adds A·X^pos
# into the lanes that have it set, through its lane mask.  Every value has
# degree at most n, below the lane width, so no lane carries into the next.
# A slice's free string, its n - k intermediate bits then its word, is cut
# by ``word_blocks`` into chunks of at most block_cap(n) pairs: a chunk is
# one fixed prefix of that string and the automaton state it reads to.  A
# valid word ends in a free symbol, and the last step of dilcuE gives its
# ending-1 twin the pair of its ending-0 twin swapped, so lane hi·C + j is
# the hi-th setting of the unfixed bits with the j-th of the C ending-0
# completions from that state: the lanes are the chunk's pairs without
# their twins, in stream order.  A cap of at least 2 keeps the last symbol
# out of the prefix.  The lanes come out as bytes, f's then g's, and every
# reader takes them as they are: lane p is written as its two lines.

# Lane sizes in bytes that a memoryview reads natively (little-endian hosts).
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def lane_bytes(n: int) -> int:
    """Bytes per polynomial in the lanes of the degree-n stream: the least
    of 1, 2, 4 and 8 that holds degree n, past degree 63 the least number."""
    return next((size for size in _LANE_FORMATS if size << 3 > n), n // 8 + 1)


def lane_columns(buf: bytes, n: int) -> tuple[list[int], list[int]]:
    """The f's and the g's of a degree-n chunk's lane bytes, as ints."""
    size = lane_bytes(n)
    if size in _LANE_FORMATS and sys.byteorder == "little":
        ints = memoryview(buf).cast(_LANE_FORMATS[size]).tolist()
    else:
        ints = [int.from_bytes(buf[i:i + size], "little") for i in range(0, len(buf), size)]
    return ints[:len(ints) >> 1], ints[len(ints) >> 1:]


@lru_cache(maxsize=3)
def _layout(state: int, rest: int, k: int, size: int) -> tuple:
    """(ONES, the lane masks of a chunk's last ``rest`` positions but the
    last, in order, the number of lanes): the rest - k unfixed bits' masks,
    if any, are periodic; each word symbol's is its bit in one lane int of
    the ending-0 completions from ``state``, widened to the whole lane.  At
    a cap of 2^m, m >= 3, all chunks of one k in a degree's stream share
    ``rest`` (every state has under 2^m completions of length m + 1 and over
    2^m of length m + 2), so they need at most one layout per state."""
    depth, w = min(rest, k), size << 3
    leaves = completions(state, depth)[::2]
    lanes, off, on = len(leaves) << rest - depth, bytes(size), b"\xff" * size

    def mask(period: bytes) -> int:
        return int.from_bytes(period * (lanes * size // len(period)), "little")

    ones, words = mask(b"\1" + off[1:]), mask(b"".join(leaf.to_bytes(size, "little") for leaf in leaves))
    bits = [mask(off * (lanes >> t) + on * (lanes >> t)) for t in range(1, rest - depth + 1)]
    return ones, bits + [(Q << w) - Q for t in reversed(range(1, depth)) for Q in [words >> t & ones]], lanes


def _lanes(parts: Composition, fixed: str, state: int) -> bytes:
    """One chunk's lanes, f's then g's, as bytes."""
    n, k, size = sum(parts), len(parts), lane_bytes(sum(parts))
    ones, masks, lanes = _layout(state, n - len(fixed), k, size)
    # A fixed 1 is in every lane (-1); a fixed 0 and the completions' last symbol in none.
    terms = [-1 if b == "1" else 0 for b in fixed] + masks + [0]
    mids = iter(terms[:n - k])
    A, B = ones, 0
    for d, c in zip(parts, terms[n - k:]):
        P = (A << d) ^ B
        for pos, m in zip(range(1, d), mids):
            if m:
                P ^= (A << pos) & m
        if c:
            P ^= A & c
        A, B = P, A
    width = lanes * size
    return ((A ^ B) | A << (width << 3)).to_bytes(2 * width, "little")


def _coprime_pairs(n: int) -> Iterator[tuple[Poly, Poly]]:
    """Brute force: each unordered coprime pair of degree n with unit
    constant terms once, by gcd-filtering all about 4^(n-1)/2 pairs (f = g
    is never coprime at degree >= 1).  Guarded at ORACLE_DEGREE_LIMIT on
    the call, before any pair is read.
    """
    _check_degree(n)
    if n > ORACLE_DEGREE_LIMIT:
        raise ValueError(
            f"oracle degree {n} exceeds the guard {ORACLE_DEGREE_LIMIT}; "
            f"it would need {(1 << (n - 2)) * ((1 << (n - 1)) - 1):,} gcd computations"
        )
    return ((f, g) for f, g in combinations(unit_polys(n), 2) if gcd(f, g) == 1)


def oracle_pairs(n: int) -> set[tuple[Poly, Poly]]:
    """Brute-force reference: every coprime pair of degree n with unit
    constant terms, both orders, as a set of count_pairs(n) tuples, so each
    degree costs about four times the last in time and memory.  Guarded at
    degree ORACLE_DEGREE_LIMIT.
    """
    return {pair for f, g in _coprime_pairs(n) for pair in ((f, g), (g, f))}


def _validate_parts(parts: Composition) -> None:
    if not parts:
        raise ValueError("composition has no parts")
    for d in parts:
        if d < 1:
            raise ValueError(f"composition parts must be positive, got {d}")
