import hashlib
import random
from itertools import chain, islice, product
from math import comb

import pytest

from ocagen import const_lang, enumeration
from ocagen.compositions import compositions
from ocagen.const_lang import (
    INV,
    START_INDEX,
    block_cap,
    completions,
    count_completions,
    count_words,
    spell,
    word_blocks,
    words_of_length,
)
from ocagen.enumeration import (
    ORACLE_DEGREE_LIMIT,
    PairRecord,
    assemble_quotients,
    count_pairs,
    count_pairs_sum,
    enumerate_pairs,
    intermediate_sequences,
    lane_bytes,
    lane_columns,
    oracle_pairs,
    pair_chunks,
    pairs_for_composition,
)
from ocagen.euclid import dilcue, euclid_trace
from ocagen.gf2poly import constant_term, degree, gcd

# Full degree-3 stream in pinned order, from the quotient synthesis done by
# hand and cross-checked against the brute-force oracle below.
GOLDEN_3 = [
    (0xB, 0x9), (0x9, 0xB), (0xF, 0xD), (0xD, 0xF), (0xD, 0x9),
    (0x9, 0xD), (0xB, 0xD), (0xD, 0xB), (0xF, 0xB), (0xB, 0xF),
]

# sha256 of the degree-10 stream written as "%#x %#x\n" lines: the pinned
# order, as `ocagen enumerate --degree 10 --format text` prints it.
REFERENCE_SHA256_10 = "4e062eec03ea37c6cc389e023ced22fd9cb7fd9f247665e1e572123d6602fe6f"


def replay_record(parts, mids, word):
    """The record of one (composition, intermediates, word) triple,
    assembled and replayed through dilcue from scratch."""
    f, g = dilcue(assemble_quotients(parts, mids, word))
    return PairRecord(f, g, (parts, mids, word))


def replay_pairs(parts):
    """Reference slice for one composition: every (intermediates, word)
    triple in lexicographic order, each replayed by ``replay_record``."""
    for mids in intermediate_sequences(parts):
        for word in words_of_length(len(parts)):
            yield replay_record(parts, mids, word)


def assert_same(got, expected):
    """Assert that two sequences are equal, reporting only the first index
    where they differ and their lengths: pytest's diff of two large
    listings can take minutes to report."""
    if got != expected:
        i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        raise AssertionError(f"first difference at index {i} (lengths {len(got)} and {len(expected)}): "
                             f"{got[i:i + 1]!r} != {expected[i:i + 1]!r}")


def lane_pairs(buf, n):
    """The pairs of one chunk of degree-n lanes, as a flat tuple
    (f0, g0, f1, g1, ..): lane p, holding f_p and g_p, gives the lines
    (f_p, g_p) and (g_p, f_p)."""
    f, g = lane_columns(buf, n)
    return tuple(chain.from_iterable(zip(f, g, g, f)))


def chunk_plan(parts):
    """The chunks of one slice, as the core cuts them: (a fixed prefix of the
    slice's free string, intermediate bits then word, the automaton state
    after it), in stream order."""
    n, k = sum(parts), len(parts)
    return word_blocks(k, block_cap(n), n - k)


def reference_chunk_plan(parts):
    """The same plan by two rules: fix the fewest leading intermediate bits
    that leave at most block_cap(n) pairs with every word, and, when the
    words alone are more, fix every bit and cut the words by ``word_blocks``."""
    k, cap = len(parts), block_cap(sum(parts))
    free = sum(parts) - k
    words = count_words(k)
    fixed = free
    while fixed and words << (free - fixed + 1) <= cap:
        fixed -= 1
    mids = map("".join, product("01", repeat=fixed))
    return ((bits + prefix, state) for bits in mids for prefix, state in word_blocks(k, cap))


def chunk_pairs(parts, fixed, state):
    """One chunk's pairs, in stream order, as a flat tuple (f0, g0, f1, g1, ..)."""
    return lane_pairs(enumeration._lanes(parts, fixed, state), sum(parts))


def seeded_chunks(n, rng):
    """One seeded chunk (parts, fixed, state) from each of three
    compositions of n (two parts, a random number of parts, n parts), as
    the enumeration core cuts it: random fixed intermediate bits and a
    random word prefix, found by the split rule of ``word_blocks``.  Needs
    n >= 4."""
    for k in (2, rng.randrange(3, n), n):
        cuts = sorted(rng.sample(range(1, n), k - 1))
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        mids = "".join(rng.choice("01") for _ in next(chunk_plan(parts))[0][:n - k])
        prefix, state = "", START_INDEX
        while count_completions(state, k - len(prefix)) > block_cap(n):
            s = rng.choice([s for s in (0, 1) if count_completions(INV[state][s], k - len(prefix) - 1)])
            prefix, state = prefix + "01"[s], INV[state][s]
        yield parts, mids + prefix, state


class TestIntermediateSequences:
    def test_examples(self):
        assert list(intermediate_sequences((1, 1))) == [""]
        assert list(intermediate_sequences((2, 1))) == ["0", "1"]
        assert list(intermediate_sequences((2, 2))) == ["00", "01", "10", "11"]

    def test_lengths(self):
        for parts in compositions(7, 3):
            seqs = list(intermediate_sequences(parts))
            assert len(seqs) == 1 << 4
            assert all(len(s) == 4 for s in seqs)
            assert seqs == sorted(seqs)

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            intermediate_sequences((2, 0))


class TestAssemble:
    def test_examples(self):
        assert assemble_quotients((1, 1), "", "01") == (0x2, 0x3, 0x1)
        assert assemble_quotients((2, 1), "1", "01") == (0x6, 0x3, 0x1)

    def test_single_part_rejected(self):
        with pytest.raises(ValueError):
            assemble_quotients((2,), "0", "0")

    def test_length_mismatches(self):
        with pytest.raises(ValueError):
            assemble_quotients((1, 1), "0", "01")
        with pytest.raises(ValueError):
            assemble_quotients((1, 1), "", "011")

    def test_invalid_word(self):
        with pytest.raises(ValueError):
            assemble_quotients((1, 1), "", "10")

    @pytest.mark.parametrize("bad", ["2", "x", " ", "_"])
    def test_invalid_intermediate_bit(self, bad):
        with pytest.raises(ValueError, match="0s and 1s"):
            assemble_quotients((2, 1), bad, "01")
        with pytest.raises(ValueError, match="0s and 1s"):
            assemble_quotients((3, 2), "1" + bad + "0", "00")

    def test_quotient_shape(self):
        qs = assemble_quotients((3, 2, 1), "101", "110")
        assert qs[-1] == 1
        for d, q, s in zip((3, 2, 1), qs, "110"):
            assert degree(q) == d
            assert constant_term(q) == int(s)


class TestEnumerate:
    def test_degree_1_empty(self):
        assert list(enumerate_pairs(1)) == []

    def test_degree_2_order(self):
        assert [(r.f, r.g) for r in enumerate_pairs(2)] == [(0x7, 0x5), (0x5, 0x7)]

    def test_degree_3_golden_order(self):
        assert [(r.f, r.g) for r in enumerate_pairs(3)] == GOLDEN_3

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            enumerate_pairs(0)
        with pytest.raises(ValueError):
            pair_chunks(0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_oracle_without_duplicates(self, n):
        got = [(r.f, r.g) for r in enumerate_pairs(n)]
        assert len(got) == len(set(got)) == count_pairs(n)
        assert set(got) == oracle_pairs(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_record_invariants(self, n):
        for rec in enumerate_pairs(n):
            assert degree(rec.f) == degree(rec.g) == n
            assert constant_term(rec.f) == constant_term(rec.g) == 1
            assert gcd(rec.f, rec.g) == 1
            assert rec.provenance is None

    @pytest.mark.parametrize("n", range(2, 10))
    def test_provenance_path_matches_fast_path(self, n):
        for k in range(2, n + 1):
            for parts in compositions(n, k):
                replay = list(replay_pairs(parts))
                assert list(pairs_for_composition(parts, True)) == replay
                assert [(r.f, r.g) for r in pairs_for_composition(parts)] == [(r.f, r.g) for r in replay]

    @pytest.mark.parametrize("cap", [3, 40])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_chunk_boundaries(self, n, cap, monkeypatch):
        # The cap is 2^16, which no slice reaches below degree 18.  A small
        # cap splits the slices at fixed intermediate bits (40) and, as soon
        # as the words alone exceed it, at word prefixes too (3).
        monkeypatch.setattr(const_lang, "BLOCK_CAP", cap)
        for k in range(2, n + 1):
            for parts in compositions(n, k):
                assert list(pairs_for_composition(parts, True)) == list(replay_pairs(parts))
                for chunk in chunk_plan(parts):
                    assert 0 < len(chunk_pairs(parts, *chunk)) <= 2 * cap

    @pytest.mark.parametrize("cap", [3, 40, 1 << 16])
    def test_chunk_plan_matches_the_two_rule_reference(self, cap, monkeypatch):
        # One split rule over the whole free string cuts each slice where
        # the fixed-bit loop and the word split did.  Both plans read only
        # the degree and the number of parts, so one slice per (n, k) covers
        # every slice of the degree.
        monkeypatch.setattr(const_lang, "BLOCK_CAP", cap)
        for n in range(2, 13):
            for k in range(2, n + 1):
                parts = (n - k + 1,) + (1,) * (k - 1)
                assert_same(list(chunk_plan(parts)), list(reference_chunk_plan(parts)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_pair_tuples_match_records(self, n):
        flat = chain.from_iterable(lane_pairs(buf, n) for buf in pair_chunks(n))
        assert list(zip(flat, flat)) == [(r.f, r.g) for r in enumerate_pairs(n)]

    @pytest.mark.parametrize("n", [20, 40, 64, 100])
    def test_lane_widths_beyond_exhaustive_reach(self, n):
        # 32- and 64-bit lanes (n = 20, 40) and the generic wider lanes
        # (n = 64, 100), at the real cap: the first records of seeded
        # compositions against their replay, and the first chunk's size.
        rng = random.Random(n)
        for k in (2, rng.randrange(3, n), n):
            cuts = sorted(rng.sample(range(1, n), k - 1))
            parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
            head = list(islice(pairs_for_composition(parts, True), 2000))
            assert_same(head, list(islice(replay_pairs(parts), 2000)))
            first = next(chunk_plan(parts))
            assert 0 < len(chunk_pairs(parts, *first)) <= 2 * block_cap(n)

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_chunks_bounded_in_bytes(self, n):
        # At the real cap a chunk's column holds at most 2^18 lane bytes at
        # any degree, as 8-byte lanes do: the cap halves as the lanes double.
        assert const_lang.BLOCK_CAP == 1 << 16
        assert all(block_cap(m) // 2 * lane_bytes(m) <= 1 << 18 for m in range(1, 1 << 15))
        chunk = next(pair_chunks(n))
        assert 0 < len(chunk) >> 1 <= 1 << 18
        head = list(islice(replay_pairs((1, n - 1)), 100))
        assert lane_pairs(chunk, n)[:200] == tuple(chain.from_iterable(rec[:2] for rec in head))

    def test_blocks_from_every_state_at_the_real_cap(self, monkeypatch):
        # k = 19: the words alone exceed the cap, so each of the two
        # intermediate strings is cut at the four 2-symbol word prefixes,
        # whose blocks start from all three automaton states.  The leading
        # records of every chunk match their replay, and each state's lane
        # layout is built once for the whole slice.
        parts = (1,) * 9 + (2,) + (1,) * 9
        n, k = sum(parts), len(parts)
        builds = []

        def counted(state, length):
            builds.append(state)
            return completions(state, length)

        monkeypatch.setattr(enumeration, "completions", counted)
        enumeration._layout.cache_clear()
        records = iter(pairs_for_composition(parts, True))
        chunks = list(chunk_plan(parts))
        assert len(chunks) == 8
        assert {state for _, state in chunks} == {0, 1, 2}
        for fixed, state in chunks:
            mids, prefix = fixed[:n - k], fixed[n - k:]
            words = spell(k, prefix, state)
            assert 0 < len(words) <= const_lang.BLOCK_CAP
            head = list(islice(records, 300))
            assert head == [replay_record(parts, mids, word) for word in words[:300]]
            tail = list(islice(records, len(words) - 301, len(words) - 300))
            assert tail == [replay_record(parts, mids, words[-1])]
        assert next(records, None) is None
        assert sorted(builds) == [0, 1, 2]

    @pytest.mark.parametrize("with_provenance", [False, True])
    def test_degree_10_order_pinned(self, with_provenance):
        digest = hashlib.sha256()
        for rec in enumerate_pairs(10, with_provenance):
            digest.update(b"%#x %#x\n" % (rec.f, rec.g))
        assert digest.hexdigest() == REFERENCE_SHA256_10

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trace_inverts_assembly(self, n):
        for rec in enumerate_pairs(n, with_provenance=True):
            parts, mids, word = rec.provenance
            assembled = assemble_quotients(parts, mids, word)
            trace = euclid_trace(rec.f, rec.g)
            assert tuple(reversed(trace.quotients)) == assembled

    def test_partitions_concatenate(self):
        n = 5
        by_parts = []
        for k in range(2, n + 1):
            for parts in compositions(n, k):
                by_parts.extend(pairs_for_composition(parts))
        assert by_parts == list(enumerate_pairs(n))

    def test_partition_rejects_single_part(self):
        with pytest.raises(ValueError):
            pairs_for_composition((4,))


class TestLaneColumns:
    @pytest.mark.parametrize("n, size", [(7, 1), (15, 2), (31, 4), (63, 8), (64, 9)])
    @pytest.mark.parametrize("byteorder", ["little", "big"])
    def test_every_lane_width(self, n, size, byteorder, monkeypatch):
        # The memoryview path at 1, 2, 4 and 8 bytes and the generic one at
        # 9 (and at every width on a big-endian host) against int.from_bytes
        # per lane: the first half of the lanes are the f's, the rest the g's.
        monkeypatch.setattr(enumeration.sys, "byteorder", byteorder)
        assert lane_bytes(n) == size
        buf = random.Random(n).randbytes(2 * 37 * size)
        ints = [int.from_bytes(buf[i:i + size], "little") for i in range(0, len(buf), size)]
        assert lane_columns(buf, n) == (ints[:37], ints[37:])


class TestLayout:
    @pytest.mark.parametrize("size", [1, 2, 4, 9])
    def test_masks_lane_by_lane(self, size):
        # Each mask against its definition, lane by lane: lane hi·C + j is
        # all ones where the position's bit is set in the hi-th setting of
        # the unfixed bits (first bit highest) or in the j-th of the C
        # ending-0 completions, and zero elsewhere, with nothing past the
        # last lane.  So widening by (Q << w) - Q borrows nothing across lanes.
        w = size << 3
        full = (1 << w) - 1
        for rest in range(1, min(w, 13)):
            for k in range(2, rest + 3):
                depth, unfixed = min(rest, k), max(0, rest - k)
                for state in range(3):
                    leaves = completions(state, depth)[::2]
                    if not leaves:  # the splitter drops empty blocks
                        continue
                    ones, masks, lanes = enumeration._layout(state, rest, k, size)
                    assert lanes == len(leaves) << unfixed
                    assert len(masks) == rest - 1
                    for p in range(lanes):
                        hi, j = divmod(p, len(leaves))
                        bits = [hi >> (unfixed - t) & 1 for t in range(1, unfixed + 1)]
                        bits += [leaves[j] >> t & 1 for t in reversed(range(1, depth))]
                        assert ones >> p * w & full == 1
                        assert [m >> p * w & full for m in masks] == [full * b for b in bits]
                    assert all(m >> lanes * w == 0 for m in [ones, *masks])


class TestOracle:
    def test_examples(self):
        assert oracle_pairs(1) == set()
        assert oracle_pairs(2) == {(0x7, 0x5), (0x5, 0x7)}
        assert len(oracle_pairs(4)) == 42

    def test_guard(self):
        with pytest.raises(ValueError):
            oracle_pairs(ORACLE_DEGREE_LIMIT + 1)
        with pytest.raises(ValueError):
            oracle_pairs(0)

    def test_guard_states_the_gcds_it_would_run(self):
        # One gcd per unordered pair of distinct unit polynomials of degree 13.
        assert (1 << 11) * ((1 << 12) - 1) == comb(1 << 12, 2) == 8_386_560
        with pytest.raises(ValueError, match="it would need 8,386,560 gcd computations$"):
            oracle_pairs(13)


class TestCounts:
    def test_closed_form(self):
        assert count_pairs(1) == 0
        assert count_pairs(2) == 2
        assert count_pairs(3) == 10
        assert count_pairs(5) == 170

    def test_sum_form(self):
        assert count_pairs_sum(1) == 0
        assert count_pairs_sum(2) == 2
        assert count_pairs_sum(3) == 10   # 2*2*2 for k=2 plus 1*1*2 for k=3

    def test_forms_agree(self):
        for n in range(1, 31):
            assert count_pairs_sum(n) == count_pairs(n)

    def test_invalid(self):
        with pytest.raises(ValueError):
            count_pairs(0)
        with pytest.raises(ValueError):
            count_pairs_sum(0)


def test_pair_record_defaults():
    rec = PairRecord(5, 7)
    assert rec.f == 5 and rec.g == 7 and rec.provenance is None
