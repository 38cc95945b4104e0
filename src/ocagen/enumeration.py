"""Exhaustive streaming of coprime equal-degree pairs with unit constant terms.

A pair of degree n is synthesized from three independent choices:

  * a k-composition of n (the quotient degrees, k >= 2),
  * a free bit string of length n-k (the quotients' intermediate terms),
  * a valid constant-term word of length k.

The three pieces assemble into a quotient sequence [p_1, .., p_k, 1] (the
trailing unit quotient is forced by the equal degrees), which dilcuE replays
from the seed (1, 0) into the pair itself.  Every pair is produced exactly
once; the stream is constant-memory and deterministically ordered: k
ascending, then compositions, intermediate strings and constant words each
in lexicographic order.

One fused core generates every pair.  Within a composition the pairs are a
plain product of the intermediate strings and the valid words, taken in
that order, so a record's generating triple is fixed by its position in the
stream: provenance is read off the core's output, never replayed.

``enumerate_pairs`` is the full stream; ``pairs_for_composition`` is the
independently consumable partition for one quotient degree sequence.  A
brute-force ``oracle_pairs`` (direct gcd filtering) and the two exact
counting forms are provided for verification.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterator, NamedTuple, Optional

from .compositions import Composition, compositions
from .const_lang import INV, START_INDEX, count_words, is_valid_word, reach_masks, words_of_length
from .gf2poly import Poly, gcd, mul, unit_polys

ORACLE_DEGREE_LIMIT = 12

Provenance = tuple[Composition, str, str]


class PairRecord(NamedTuple):
    f: Poly
    g: Poly
    provenance: Optional[Provenance] = None


def count_pairs(n: int) -> int:
    """Number of coprime ordered pairs of degree n with unit constant terms.

    Closed form 2*(4^(n-1) - 1)/3, exact; 0 for n = 1.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    return 2 * ((1 << (2 * (n - 1))) - 1) // 3


def count_pairs_sum(n: int) -> int:
    """Same count as ``count_pairs`` via the triple decomposition.

    Sums, over sequence lengths k = 2..n, the product of the number of
    compositions, free intermediate strings, and valid constant-term words.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    return sum(
        (1 << (n - k)) * comb(n - 1, k - 1) * count_words(k)
        for k in range(2, n + 1)
    )


def intermediate_sequences(parts: Composition) -> Iterator[str]:
    """All free intermediate-term strings for one composition, lexicographic.

    A k-composition of n leaves n-k free coefficient slots; each 0/1 string
    of that length is emitted exactly once.
    """
    k = len(parts)
    n = sum(parts)
    _validate_parts(parts)
    return ("".join(bits) for bits in product("01", repeat=n - k))


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
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    return _all_pairs(n, with_provenance)


def _all_pairs(n: int, with_provenance: bool) -> Iterator[PairRecord]:
    for k in range(2, n + 1):
        for parts in compositions(n, k):
            yield from pairs_for_composition(parts, with_provenance)


def pairs_for_composition(parts: Composition, with_provenance: bool = False) -> Iterator[PairRecord]:
    """The slice of the pair stream whose quotient degrees equal ``parts``.

    Slices for distinct compositions are disjoint, so they can be consumed
    independently (or concurrently) and concatenated in composition order
    to reproduce ``enumerate_pairs``.
    """
    _validate_parts(parts)
    if len(parts) < 2:
        raise ValueError("quotient degree sequences have at least two parts")
    pairs = _fused_pairs(parts)
    if not with_provenance:
        return pairs
    k = len(parts)
    triples = (
        (parts, mids, word) for mids in intermediate_sequences(parts) for word in words_of_length(k)
    )
    return (PairRecord(f, g, triple) for (f, g, _), triple in zip(pairs, triples, strict=True))


# The only pair generator.  The constant-term word loop is fused with the
# dilcuE replay, so quotient applications shared by words with a common
# prefix are computed once.  It walks const_lang's INV with the same pruning
# and symbol order as ``words_of_length``, so each base tuple yields exactly
# count_words(k) pairs, in word order: the position-based provenance above
# relies on that.  Invariant: prod[lvl] = base·va + vb, computed by ``mul``
# once on entering a level (prod[0] = base, as va = 1 and vb = 0), and
# symbol s reads prod + s·va.  Sharing it matters: one ``mul`` per (level,
# symbol) made the degree-11 drain about 20% slower.

def _base_table(d: int) -> list[Poly]:
    """Monic degree-d quotient skeletons (constant bit clear), ordered so the
    table index follows lexicographic order of the intermediate slot string."""
    top = 1 << d
    table = []
    for v in range(1 << (d - 1)):
        bits = 0
        for t in range(d - 1):
            if (v >> (d - 2 - t)) & 1:
                bits |= 1 << (t + 1)
        table.append(top | bits)
    return table


def _fused_pairs(parts: Composition) -> Iterator[PairRecord]:
    k = len(parts)
    inv = INV
    masks = reach_masks(k)
    ok = tuple(
        tuple(bool((masks[k - lvl - 1] >> i) & 1) for i in range(len(inv)))
        for lvl in range(k)
    )
    tables = [_base_table(d) for d in parts]
    record = PairRecord
    top = k - 1
    # Per-level dilcuE state: va, prod (above), automaton state, next symbol.
    va = [0] * k
    prod = [0] * k
    st = [0] * k
    nxt = [0] * k
    for bases in product(*tables):
        va[0] = 1
        prod[0] = bases[0]
        st[0] = START_INDEX
        nxt[0] = 0
        lvl = 0
        while lvl >= 0:
            s = nxt[lvl]
            if s == 2:
                lvl -= 1
                continue
            nxt[lvl] = s + 1
            ns = inv[st[lvl]][s]
            if not ok[lvl][ns]:
                continue
            a = va[lvl]
            acc = prod[lvl] ^ a if s else prod[lvl]
            if lvl == top:
                yield record(acc ^ a, acc, None)
            else:
                lvl += 1
                va[lvl] = acc
                prod[lvl] = mul(bases[lvl], acc) ^ a
                st[lvl] = ns
                nxt[lvl] = 0


def oracle_pairs(n: int) -> set[tuple[Poly, Poly]]:
    """Brute-force reference: gcd-filter all ordered pairs of degree n with
    unit constant terms.  The search space is 4^(n-1) gcd computations and
    the result set holds count_pairs(n) tuples, so each degree costs about
    four times the last in time and memory.  Guarded at degree
    ORACLE_DEGREE_LIMIT.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
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
