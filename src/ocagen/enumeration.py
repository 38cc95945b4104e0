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
lexicographic order.  It is built in chunks of at most CHUNK_PAIRS pairs,
so its memory is bounded at any degree.

One vectorised core generates every pair.  Within a composition the pairs
are a plain product of the intermediate strings and the valid words, taken
in that order, so a record's generating triple is fixed by its position in
the stream: provenance is read off the core's output, never replayed.

``enumerate_pairs`` is the full stream and ``pair_tuples`` the same stream
as plain (f, g) tuples; ``pairs_for_composition`` is the independently
consumable partition for one quotient degree sequence.  A
brute-force ``oracle_pairs`` (direct gcd filtering) and the two exact
counting forms are provided for verification.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, product, repeat
from math import comb
from operator import lshift, xor
from typing import Iterable, Iterator, NamedTuple, Optional

from .compositions import Composition, compositions
from .const_lang import Levels, count_words, is_valid_word, spell, word_blocks
from .gf2poly import Poly, gcd, unit_polys

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
    quotient is appended.  Raises ValueError on length mismatches or an
    invalid word.
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
    quotients = []
    cursor = 0
    for d, s in zip(parts, word):
        p = (1 << d) | _bit(s)
        for i in range(1, d):
            p |= _bit(intermediates[cursor]) << i
            cursor += 1
        quotients.append(p)
    quotients.append(1)
    return tuple(quotients)


def _bit(ch: str) -> int:
    if ch == "0":
        return 0
    if ch == "1":
        return 1
    raise ValueError(f"bit strings must consist of 0s and 1s, got {ch!r}")


def enumerate_pairs(n: int, with_provenance: bool = False) -> Iterator[PairRecord]:
    """Stream every coprime ordered pair of degree n with unit constant terms.

    Exactly count_pairs(n) records are emitted, each exactly once, in the
    pinned deterministic order; the stream is empty for n = 1.  With
    ``with_provenance`` each record carries its generating triple
    (composition, intermediate string, constant-term word).
    """
    return chain.from_iterable(pairs_for_composition(parts, with_provenance) for parts in _compositions(n))


def pair_tuples(n: int) -> Iterator[tuple[Poly, Poly]]:
    """The pairs of ``enumerate_pairs(n)`` as plain (f, g) tuples, in the same
    order, without building records: the form the CLI writes."""
    return chain.from_iterable(
        zip(*_slice(parts, *chunk)) for parts in _compositions(n) for chunk in _chunks(parts)
    )


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
    # counting up from the fixed bits, times its words, the trie's leaves.
    free = sum(parts) - len(parts)
    return chain.from_iterable(
        map(tuple.__new__, repeat(PairRecord),
            zip(*_slice(parts, mids, prefix, levels), triples or repeat(None)))
        for mids, prefix, levels in _chunks(parts)
        for triples in [with_provenance and product(
            (parts,), map(mids.__add__, _bit_strings(free - len(mids))), spell(prefix, levels))]
    )


# The only pair generator.  dilcuE advances (A, B) -> (q·A + B, A) per
# quotient from (1, 0), and the forced unit quotient ends it at
# (f, g) = (A + B, A).  A slice is a product of base tuples (the quotients'
# degrees and intermediate terms, outermost) and constant-term words.  The
# core walks the word trie of ``const_lang.word_blocks`` a level at a time
# and keeps the values of A and B over every (trie node, base tuple), so a
# level is a few list-wide passes (the continuants are multilinear in the
# quotients), not a walk per base tuple.  At the leaves, f and g per
# (word, base tuple) are transposed into stream order by zip.  A slice is
# cut into chunks of at most CHUNK_PAIRS pairs by fixing leading
# intermediate bits and, when the words alone are more, a word prefix.

CHUNK_PAIRS = 1 << 16


def _chunks(parts: Composition) -> Iterator[tuple[str, str, Levels]]:
    """(fixed intermediate bits, word prefix, trie levels below it) of each
    chunk of the slice, in stream order."""
    k = len(parts)
    free = sum(parts) - k
    words = count_words(k)
    fixed = free
    while fixed and words << (free - fixed + 1) <= CHUNK_PAIRS:
        fixed -= 1
    for mids in _bit_strings(fixed):
        blocks = _whole(k, CHUNK_PAIRS) if words <= CHUNK_PAIRS else word_blocks(k, CHUNK_PAIRS)
        for prefix, levels in blocks:
            yield mids, prefix, levels


@lru_cache(maxsize=1)
def _whole(k: int, cap: int) -> list[tuple[str, Levels]]:
    """The one word block of k, kept while consecutive compositions share k."""
    return list(word_blocks(k, cap))


def _slice(parts: Composition, mids: str, prefix: str, levels: Levels) -> tuple[Iterable[Poly], Iterable[Poly]]:
    """f and g of one chunk's pairs, in stream order."""
    trie = [[(0, int(s))] for s in prefix] + levels
    offsets = accumulate((d - 1 for d in parts), initial=0)
    steps = zip(parts, trie, [mids[o:o + d - 1] for o, d in zip(offsets, parts)])
    # While each trie node has one base tuple, A and B are flat lists over
    # the nodes, and a level gathers its children from one _step of all of
    # them: per-node lists of length 1 would cost a _step call per node.
    A, B = [1], [0]
    for d, level, fixed in steps:
        PX = _step(A, B, d, fixed)
        size = len(PX[2]) // len(A)
        if size > 1:
            nodes = [(PX[s][i * size:(i + 1) * size], PX[1 - s][i * size:(i + 1) * size],
                      PX[2][i * size:(i + 1) * size]) for i, s in level]
            break
        A = [PX[s][i] for i, s in level]
        B = [PX[2][i] for i, _ in level]
    else:
        return list(map(xor, A, B)), A
    # Then each node keeps (A, A + B, B) over its own base tuples.
    for d, level, fixed in steps:
        rows = [_step(a, b, d, fixed) for a, _, b in nodes]
        nodes = [(rows[i][s], rows[i][1 - s], rows[i][2]) for i, s in level]
    return (chain.from_iterable(zip(*[f for _, f, _ in nodes])),
            chain.from_iterable(zip(*[g for g, _, _ in nodes])))


def _step(A: list[Poly], B: list[Poly], d: int, fixed: str) -> tuple[list[Poly], list[Poly], list[Poly]]:
    """One quotient of degree d applied to every entry of (A, B).

    Returns (P, P + A', A'): P = b·a + b' for each entry (a, b') outermost
    and each base b innermost, A' = a repeated to match.  A base is X^d plus
    intermediate terms whose leading X^1.. coefficients are ``fixed`` and
    whose others run in lexicographic order, X^1 most significant: doubling
    along them from X^1 up gives that order with no multiply.  The children
    for constant terms 0 and 1 are (P, A') and (P + A', A').
    """
    P = list(map(xor, map(lshift, A, repeat(d)), B))
    for pos, bit in enumerate(fixed, 1):
        if bit == "1":
            P = list(map(xor, P, map(lshift, A, repeat(pos))))
    for pos in range(len(fixed) + 1, d):
        Q = P * 2
        Q[::2] = P
        Q[1::2] = map(xor, P, map(lshift, A, repeat(pos)))
        P = Q
        Q = A * 2
        Q[::2] = Q[1::2] = A
        A = Q
    return P, list(map(xor, P, A)), A


def oracle_pairs(n: int) -> set[tuple[Poly, Poly]]:
    """Brute-force reference: gcd-filter all ordered pairs of degree n with
    unit constant terms.  The search space is 4^(n-1) gcd computations and
    the result set holds count_pairs(n) tuples, so each degree costs about
    four times the last in time and memory.  Guarded at degree
    ORACLE_DEGREE_LIMIT.
    """
    _check_degree(n)
    if n > ORACLE_DEGREE_LIMIT:
        raise ValueError(
            f"oracle degree {n} exceeds the guard {ORACLE_DEGREE_LIMIT}; "
            f"it would need {4 ** (n - 1):,} gcd computations"
        )
    polys = list(unit_polys(n))
    return {(f, g) for f in polys for g in polys if gcd(f, g) == 1}


def _validate_parts(parts: Composition) -> None:
    if not parts:
        raise ValueError("composition has no parts")
    for d in parts:
        if d < 1:
            raise ValueError(f"composition parts must be positive, got {d}")
