import os
import re
from bisect import bisect_left
from functools import reduce
import subprocess
import sys
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocagen import const_lang
from ocagen.const_lang import (
    ACCEPT,
    BLOCK_CAP,
    INV,
    START,
    START_INDEX,
    STATES,
    block_cap,
    completions,
    count_completions,
    count_words,
    delta,
    inverse_delta,
    is_valid_word,
    spell,
    word_blocks,
    words_of_length,
)

# Independent membership oracle: the language as a regular expression,
# translated term by term from (0(0+1)+(10*1(0+1)))*.
WORD_RE = re.compile(r"(?:0[01]|10*1[01])*")


def re_valid(word):
    return WORD_RE.fullmatch(word) is not None


class TestTransitions:
    def test_forward_table(self):
        assert {(q, s): delta(q, s) for q in STATES for s in (0, 1)} == {
            ((1, 1), 0): (1, 1),
            ((1, 1), 1): (1, 0),
            ((1, 0), 0): (0, 1),
            ((1, 0), 1): (0, 1),
            ((0, 1), 0): (1, 0),
            ((0, 1), 1): (1, 1),
        }

    def test_delta_examples(self):
        assert delta((1, 1), 0) == (1, 1)
        assert delta((1, 0), 1) == (0, 1)
        assert delta((0, 1), 1) == (1, 1)

    def test_inverse_examples(self):
        assert inverse_delta((1, 0), 1) == (1, 1)
        assert inverse_delta((1, 0), 0) == (0, 1)
        assert inverse_delta((1, 1), 0) == (1, 1)

    def test_permutative_per_symbol(self):
        for s in (0, 1):
            images = {delta(state, s) for state in STATES}
            assert images == set(STATES)

    def test_inverse_undoes_delta(self):
        for state in STATES:
            for s in (0, 1):
                assert inverse_delta(delta(state, s), s) == state
                assert delta(inverse_delta(state, s), s) == state

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            delta((0, 0), 0)
        with pytest.raises(ValueError):
            inverse_delta((1, 1), 2)

    def test_division_semantics(self):
        # One division replaces (dividend, divisor) constant terms (a, b)
        # with (b, a XOR s*b) for quotient constant term s.
        for a, b in STATES:
            for s in (0, 1):
                assert delta((a, b), s) == (b, a ^ (s & b))


class TestMembership:
    def test_examples(self):
        assert is_valid_word("")
        assert is_valid_word("01")
        assert not is_valid_word("10")

    def test_bad_symbol(self):
        with pytest.raises(ValueError):
            is_valid_word("012")

    @pytest.mark.parametrize("k", range(0, 15))
    def test_agrees_with_regex(self, k):
        for bits in product("01", repeat=k):
            word = "".join(bits)
            assert is_valid_word(word) == re_valid(word)

    @given(st.text(alphabet="01", max_size=64))
    def test_agrees_with_regex_random(self, word):
        assert is_valid_word(word) == re_valid(word)


class TestWords:
    def test_examples(self):
        assert list(words_of_length(0)) == [""]
        assert list(words_of_length(2)) == ["00", "01"]
        assert list(words_of_length(3)) == ["110", "111"]

    def test_no_single_symbol_words(self):
        assert list(words_of_length(1)) == []

    @pytest.mark.parametrize("k", range(0, 15))
    def test_complete_sorted_valid(self, k):
        words = list(words_of_length(k))
        assert words == sorted(words)
        assert len(words) == len(set(words)) == count_words(k)
        assert all(len(w) == k and is_valid_word(w) for w in words)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            words_of_length(-1)

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 64])
    def test_blocks_partition_the_words(self, cap):
        # The strings are ``bits`` free bits then a valid word, sorted, so
        # the strings that start with a prefix are one run, found by bisection.
        for bits, k in product(range(0, 4), range(0, 13)):
            words = list(words_of_length(k))
            strings = [b + w for b in map("".join, product("01", repeat=bits)) for w in words]
            blocks = list(word_blocks(k, cap, bits))
            runs = [(bisect_left(strings, prefix), bisect_left(strings, prefix + "2")) for prefix, _ in blocks]
            assert [s for lo, hi in runs for s in strings[lo:hi]] == strings
            assert all(1 <= hi - lo <= cap for lo, hi in runs)
            if not bits:
                assert [w for block in blocks for w in spell(k, *block)] == words
            if len(strings) <= cap:
                assert [prefix for prefix, _ in blocks] == ([""] if strings else [])
            for prefix, state in blocks:
                # a block's state is the word part of its prefix read from START
                assert state == reduce(lambda st, ch: INV[st][int(ch)], prefix[bits:], START_INDEX)
                # the split rule: a prefix is cut only when it holds more than cap strings
                if prefix:
                    assert bisect_left(strings, prefix[:-1] + "2") - bisect_left(strings, prefix[:-1]) > cap

    def test_real_cap_blocks_share_one_depth(self):
        # Every state has under 2^16 completions of length 17 and over 2^16
        # of length 18, so at that cap a block of k >= 18 is a 17-symbol suffix.
        for k in range(18, 61):
            blocks = list(islice(word_blocks(k, 1 << 16), 500))
            assert {len(prefix) for prefix, _ in blocks} == {k - 17}

    @pytest.mark.parametrize("m", range(3, 16))
    def test_smaller_power_of_two_caps_share_one_depth(self, m):
        # The same at the caps that wide lanes get: at a cap of 2^m, m >= 3,
        # every state has under 2^m completions of length m + 1 and over 2^m
        # of length m + 2, so a block of k >= m + 2 is an (m + 1)-symbol suffix.
        for k in range(m + 2, m + 45):
            blocks = list(islice(word_blocks(k, 1 << m), 500))
            assert {len(prefix) for prefix, _ in blocks} == {k - m - 1}

    def test_block_cap(self):
        lengths = (0, 63, 64, 127, 128, 255, 256, 4000)
        assert [block_cap(n) for n in lengths] == [1 << s for s in (16, 16, 15, 15, 14, 14, 13, 10)]
        assert block_cap(1 << 40) == 2

    @pytest.mark.parametrize("k", [64, 66, 200, 4000])
    def test_blocks_bounded_in_symbols(self, k, monkeypatch):
        # A block of words_of_length holds fewer than BLOCK_CAP·64 symbols
        # at any length: the word cap halves as the words double past 63.
        spelled = []
        monkeypatch.setattr(const_lang, "spell", lambda *block: spelled.append(spell(*block)) or spelled[-1])
        assert next(words_of_length(k)) == "0" * k
        assert 0 < len(spelled[0]) * k < BLOCK_CAP * 64

    def test_first_block_in_linear_memory(self):
        # Reaching the first block keeps one prefix, not a prefix per pending
        # extension: about 150 MiB at this length when each was a string.  A
        # process takes its parent's peak RSS into its own ru_maxrss when it
        # starts, so a fresh interpreter starts the measured child and reads
        # the child's peak back as RUSAGE_CHILDREN, clear of the test run's.
        src = str(Path(const_lang.__file__).resolve().parents[1])
        child = "from ocagen.const_lang import words_of_length; assert next(words_of_length(16000)) == '0' * 16000"
        code = ("import resource, subprocess, sys; "
                f"subprocess.run([sys.executable, '-c', {child!r}], check=True); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        peak = int(proc.stdout) * (1 if sys.platform == "darwin" else 1024)  # ru_maxrss is KiB on Linux
        assert peak < 64 << 20

    def test_prefixes_past_the_recursion_limit(self):
        prefix, state = next(word_blocks(3000, 1 << 16))
        assert len(prefix) == 3000 - 17
        assert is_valid_word(prefix + format(completions(state, 17)[0], "017b"))

    @pytest.mark.parametrize("length", range(0, 13))
    def test_completions_match_brute_force(self, length):
        # Every string of the length, as an int with its first symbol
        # highest, read through inverse_delta from each state.
        for i, state in enumerate(STATES):
            expected = []
            for w, bits in enumerate(product((0, 1), repeat=length)):
                s = state
                for b in bits:
                    s = inverse_delta(s, b)
                if s == ACCEPT:
                    expected.append(w)
            got = completions(i, length)
            assert got == expected
            if length:
                # twins (w, w | 1), w at the even indices: what the
                # enumeration core's lane picker relies on
                assert got == [w | b for w in got[::2] for b in (0, 1)]
                assert not any(w & 1 for w in got[::2])

    def test_count_completions(self):
        # completions is checked by brute force above; beyond its reach the
        # closed form must follow the automaton's one-symbol recurrence.
        for length in range(21):
            for i in range(len(STATES)):
                assert count_completions(i, length) == len(completions(i, length))
        for length in range(61):
            assert count_completions(START_INDEX, length) == count_words(length)
            assert sum(count_completions(i, length) for i in range(len(STATES))) == 1 << length
            for i, on in enumerate(INV):
                assert count_completions(i, length + 1) == sum(count_completions(nxt, length) for nxt in on)


class TestCounts:
    def test_examples(self):
        assert count_words(0) == 1
        assert count_words(4) == 6
        assert count_words(5) == 10

    def test_recurrence(self):
        # generating function (1-X)/(1-X-2X^2) gives l_k = l_{k-1} + 2 l_{k-2}
        assert count_words(0) == 1
        assert count_words(1) == 0
        for k in range(2, 61):
            assert count_words(k) == count_words(k - 1) + 2 * count_words(k - 2)

    def test_negative(self):
        with pytest.raises(ValueError):
            count_words(-1)


def test_start_accept_states():
    assert START == ACCEPT == (1, 0)
    assert (0, 0) not in STATES
