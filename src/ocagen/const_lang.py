"""The finite automaton over constant-term pairs and its word language.

During a division step r_i = q*r_{i+1} + r_{i+2}, the pair of constant
terms (c_i, c_{i+1}) of the current dividend and divisor changes only as a
function of the quotient's constant term s.  The pair (0, 0) cannot occur
for inputs with unit constant terms, so the state space has three elements.

``delta`` is the forward (division-order) transition; each symbol induces a
permutation of the states, so the automaton is invertible symbol by symbol
and ``inverse_delta`` is total.  A constant-term word s_1..s_k is *valid*
(it belongs to the language of sequences that synthesize a coprime pair
with unit constant terms) exactly when the inverse automaton, started at
(1, 0), reads the word back to (1, 0).  The equivalent regular expression is

    (0(0+1) + (10*1(0+1)))*

and the number of valid words of length k is (2^k + 2*(-1)^k) / 3.
"""

from __future__ import annotations

from typing import Iterator

CtState = tuple[int, int]

STATES: tuple[CtState, ...] = ((1, 1), (1, 0), (0, 1))

START: CtState = (1, 0)
ACCEPT: CtState = (1, 0)

# Forward transition: (state, quotient constant term) -> next state.
DELTA: dict[tuple[CtState, int], CtState] = {
    ((1, 1), 0): (1, 1),
    ((1, 1), 1): (1, 0),
    ((1, 0), 0): (0, 1),
    ((1, 0), 1): (0, 1),
    ((0, 1), 0): (1, 0),
    ((0, 1), 1): (1, 1),
}

# Arrows reversed; well-defined because delta(., s) is injective per symbol.
INVERSE_DELTA: dict[tuple[CtState, int], CtState] = {
    (dst, s): src for (src, s), dst in DELTA.items()
}

# The same inverse automaton indexed by integers, for the walkers: state i is
# STATES[i] and INV[i][s] is the index of inverse_delta(STATES[i], s).
# ``words_of_length`` and the enumerator's fused core both walk this table,
# so they share transitions, pruning and symbol order.
INV: tuple[tuple[int, int], ...] = tuple(
    tuple(STATES.index(INVERSE_DELTA[(state, s)]) for s in (0, 1)) for state in STATES
)
START_INDEX = STATES.index(START)


def delta(state: CtState, s: int) -> CtState:
    """Forward transition for one division step with quotient constant term s."""
    try:
        return DELTA[(state, s)]
    except KeyError:
        raise ValueError(f"invalid state/symbol pair ({state!r}, {s!r})") from None


def inverse_delta(state: CtState, s: int) -> CtState:
    """Unique predecessor of ``state`` under ``delta`` for symbol s."""
    try:
        return INVERSE_DELTA[(state, s)]
    except KeyError:
        raise ValueError(f"invalid state/symbol pair ({state!r}, {s!r})") from None


def is_valid_word(word: str) -> bool:
    """Whether a 0/1 string is a valid constant-term word.

    Runs the inverse automaton from (1, 0); accepts in (1, 0).  The empty
    word is valid.  Raises ValueError on characters other than 0 and 1.
    """
    state = START
    for ch in word:
        if ch not in "01":
            raise ValueError(f"word must consist of 0s and 1s, got {ch!r}")
        state = INVERSE_DELTA[(state, int(ch))]
    return state == ACCEPT


def count_words(k: int) -> int:
    """Number of valid constant-term words of length k, exactly.

    Closed form (2^k + 2*(-1)^k) / 3; equivalently the coefficient of X^k
    in the series (1 - X) / (1 - X - 2X^2).
    """
    if k < 0:
        raise ValueError("word length must be nonnegative")
    return ((1 << k) + (2 if k % 2 == 0 else -2)) // 3


def reach_masks(k: int) -> list[int]:
    """mask[r] = bitmask of the state indices that reach ACCEPT in exactly r symbols."""
    masks = [1 << STATES.index(ACCEPT)]
    for _ in range(k):
        prev = masks[-1]
        masks.append(sum(
            1 << i for i, (on0, on1) in enumerate(INV) if ((prev >> on0) | (prev >> on1)) & 1
        ))
    return masks


def words_of_length(k: int) -> Iterator[str]:
    """All valid words of length k, in lexicographic order (0 < 1).

    Backtracking over the inverse automaton with remaining-length
    feasibility pruning; emits exactly count_words(k) words.
    """
    if k < 0:
        raise ValueError("word length must be nonnegative")
    return _words(k)


def _words(k: int) -> Iterator[str]:
    masks = reach_masks(k)
    if not (masks[k] >> START_INDEX) & 1:
        return
    prefix: list[str] = []

    def extend(state: int, remaining: int) -> Iterator[str]:
        if remaining == 0:
            yield "".join(prefix)
            return
        feasible = masks[remaining - 1]
        for s in (0, 1):
            nxt = INV[state][s]
            if (feasible >> nxt) & 1:
                prefix.append("01"[s])
                yield from extend(nxt, remaining - 1)
                prefix.pop()

    yield from extend(START_INDEX, k)
