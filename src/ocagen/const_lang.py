"""The finite automaton over constant-term pairs and its word language.

During a division step r_i = q*r_{i+1} + r_{i+2}, the constant terms
(c_i, c_{i+1}) of the current dividend and divisor become (c_{i+1}, c_{i+2})
with c_{i+2} = c_i + s·c_{i+1} over GF(2), where s is the quotient's
constant term.  The pair (0, 0) cannot occur for inputs with unit constant
terms, so the state space has three elements.

``delta`` is that recurrence, the forward (division-order) transition; each
symbol induces a permutation of the states, so the automaton is invertible
symbol by symbol and ``inverse_delta`` is total.  A constant-term word
s_1..s_k is *valid* (it belongs to the language of sequences that synthesize
a coprime pair with unit constant terms) exactly when the inverse automaton,
started at (1, 0), reads the word back to (1, 0).  The equivalent regular
expression is

    (0(0+1) + (10*1(0+1)))*

and the number of valid words of length k is (2^k + 2*(-1)^k) / 3.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterator

CtState = tuple[int, int]

STATES: tuple[CtState, ...] = ((1, 1), (1, 0), (0, 1))

START: CtState = (1, 0)
ACCEPT: CtState = (1, 0)

START_INDEX = STATES.index(START)


def _checked(state: CtState, s: int) -> CtState:
    if state not in STATES or s not in (0, 1):
        raise ValueError(f"invalid state/symbol pair ({state!r}, {s!r})")
    return state


def delta(state: CtState, s: int) -> CtState:
    """One division step with quotient constant term s: (c1, c2) -> (c2, c1 + s·c2)."""
    c1, c2 = _checked(state, s)
    return c2, c1 ^ (s & c2)


def inverse_delta(state: CtState, s: int) -> CtState:
    """The unique predecessor under ``delta``: (c1, c2) -> (c2 + s·c1, c1)."""
    c1, c2 = _checked(state, s)
    return c2 ^ (s & c1), c1


# The inverse automaton on state indices, which every walk below reads:
# INV[i][s] is the index of inverse_delta(STATES[i], s).
INV: tuple[tuple[int, int], ...] = tuple(
    tuple(STATES.index(inverse_delta(state, s)) for s in (0, 1)) for state in STATES
)


def is_valid_word(word: str) -> bool:
    """Whether a 0/1 string is a valid constant-term word.

    Runs the inverse automaton from (1, 0); accepts in (1, 0).  The empty
    word is valid.  Raises ValueError on characters other than 0 and 1.
    """
    state = START_INDEX
    for ch in word:
        if ch not in "01":
            raise ValueError(f"word must consist of 0s and 1s, got {ch!r}")
        state = INV[state][int(ch)]
    return STATES[state] == ACCEPT


def count_words(k: int) -> int:
    """Number of valid constant-term words of length k, exactly.

    Closed form (2^k + 2*(-1)^k) / 3; equivalently the coefficient of X^k
    in the series (1 - X) / (1 - X - 2X^2).
    """
    if k < 0:
        raise ValueError("word length must be nonnegative")
    return ((1 << k) + (2 if k % 2 == 0 else -2)) // 3


# The package's one automaton walk.  The completions of length r + 1 from
# a state are each symbol followed by the completions of length r from the
# state it reads to, so with the first symbol highest they come out in
# ascending (lexicographic) order.  ``word_blocks`` cuts the words, behind
# any free bits, by their closed-form count.  A block is a prefix and the
# state it reads to: ``spell`` writes out its words, the package's only
# speller, and the core lays out one lane per ending-0 completion of its state.


def count_completions(state: int, length: int) -> int:
    """len(completions(state, length)), in closed form: from ACCEPT the
    valid words; from (0, 1), where both symbols read to ACCEPT, twice the
    valid words one shorter; and from (1, 1) the rest of the 2^length
    strings, because each symbol permutes the states, so every string reads
    exactly one state to ACCEPT."""
    words = count_words(length)
    after_one = 2 * count_words(length - 1) if length else 0
    return {ACCEPT: words, (0, 1): after_one, (1, 1): (1 << length) - words - after_one}[STATES[state]]


def completions(state: int, length: int) -> list[int]:
    """The strings of ``length`` symbols that read STATES[state] back to
    ACCEPT, as ascending ints (first symbol highest).  For length >= 1 the
    last symbol is free, so they come in twins w, w | 1 at even indices."""
    tails = [[0] if st == ACCEPT else [] for st in STATES]
    for left in range(length):
        tails = [[s << left | w for s, nxt in enumerate(on) for w in tails[nxt]] for on in INV]
    return tails[state]


def word_blocks(k: int, cap: int, bits: int = 0) -> Iterator[tuple[str, int]]:
    """The strings of ``bits`` free bits then a valid word of length k, in
    lexicographic order, as blocks of at most ``cap`` strings (cap >= 1).

    A block is (prefix, state): the strings that start with ``prefix``,
    whose word part the inverse automaton reads from START to
    STATES[state]; a free bit leaves the state as it is, and with no bits
    ``spell`` lists a block's words.  Starting from the empty prefix, a
    prefix with more than ``cap`` completions splits into its two
    one-symbol extensions, and a prefix with none is dropped.  So the
    blocks are all the strings at once when there are at most ``cap`` of
    them, and nothing is emitted when no word has length k.
    """
    # Depth first on an explicit stack, the 0-extension on top: a prefix can
    # be longer than Python's recursion limit.  A pending extension is (length,
    # last symbol, state) over one shared ``prefix``, so memory is linear in k.
    prefix: list[str] = []
    stack = [(0, "", START_INDEX)]
    while stack:
        length, symbol, state = stack.pop()
        prefix[length - 1:] = symbol  # the root (0, "") pops on an empty list
        # Of the bits + k - length positions left, the last min(that, k) are symbols.
        count = count_completions(state, min(k, bits + k - length)) << max(0, bits - length)
        if count > cap:
            stack += [(length + 1, s, INV[state][s == "1"] if length >= bits else state) for s in "10"]
        elif count:
            yield "".join(prefix), state


@lru_cache(maxsize=1)  # one block (< 2^22 symbols), which each composition of a k spells
def spell(k: int, prefix: str, state: int) -> tuple[str, ...]:
    """The words of length k of one block of ``word_blocks``, in order."""
    top = 1 << (k - len(prefix))
    return tuple(prefix + bin(top | w)[3:] for w in completions(state, k - len(prefix)))


# Items per block below 64 bits, for chunks of pairs and word listings alike.
BLOCK_CAP = 1 << 16


def block_cap(length: int) -> int:
    """BLOCK_CAP items of ``length`` bits or symbols below 64, halved for each
    doubling of ``length`` past 63, down to 2: a block totals < 64·BLOCK_CAP."""
    return max(2, BLOCK_CAP >> (length >> 6).bit_length())


def words_of_length(k: int) -> Iterator[str]:
    """All valid words of length k, in lexicographic order (0 < 1).

    Emits exactly count_words(k) words, spelled out one block of
    ``word_blocks`` at a time, of at most block_cap(k) words.
    """
    if k < 0:
        raise ValueError("word length must be nonnegative")
    return chain.from_iterable(spell(k, *block) for block in word_blocks(k, block_cap(k)))
