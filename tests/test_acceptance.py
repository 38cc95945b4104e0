"""Acceptance gate.

Each test runs one acceptance criterion at its stated (exact) tolerance and
prints a single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.  The full-stream counting criterion
walks all 44,739,242 pairs of degree 14 and takes about half a minute.
"""

import random
import re
import time
from itertools import product

from ocagen.compositions import compositions, count_compositions
from ocagen.const_lang import STATES, count_words, delta, inverse_delta, is_valid_word
from ocagen.enumeration import (
    assemble_quotients,
    count_pairs,
    count_pairs_sum,
    enumerate_pairs,
    oracle_pairs,
)
from ocagen.euclid import bijection_flip, dilcue, euclid_trace
from ocagen.gf2poly import constant_term, gcd, unit_polys
from ocagen.oca import are_orthogonal, is_latin, latin_square, rule_from_poly

WORD_RE = re.compile(r"(?:0[01]|10*1[01])*")


def _report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name} failed ({detail})"


def test_a1_counting_full_stream():
    expected_prefix = [0, 2, 10, 42, 170, 682]
    ok = [count_pairs(n) for n in range(1, 7)] == expected_prefix
    detail = ""
    for n in range(1, 15):
        start = time.perf_counter()
        streamed = sum(1 for _ in enumerate_pairs(n))
        elapsed = time.perf_counter() - start
        ok = ok and streamed == count_pairs(n)
        if n == 14:
            ok = ok and streamed == 44_739_242
            detail = f"degree 14: {streamed} pairs in {elapsed:.1f}s"
    _report("A1 counting vs full stream, degrees 1..14", ok, detail)


def test_a2_oracle_equivalence():
    ok = True
    detail = ""
    for n in range(1, 11):
        start = time.perf_counter()
        brute = oracle_pairs(n)
        elapsed = time.perf_counter() - start
        ok = ok and {(r.f, r.g) for r in enumerate_pairs(n)} == brute
        if n == 10:
            detail = f"degree-10 oracle in {elapsed:.1f}s"
    _report("A2 stream equals brute-force oracle, degrees 1..10", ok, detail)


def test_a3_word_counts():
    ok = count_words(2) == 2 and count_words(3) == 2 and count_words(4) == 6
    for k in range(0, 19):
        by_dfa = 0
        by_regex = 0
        for bits in product("01", repeat=k):
            word = "".join(bits)
            by_dfa += is_valid_word(word)
            by_regex += WORD_RE.fullmatch(word) is not None
        ok = ok and by_dfa == by_regex == count_words(k)
    for k in range(2, 61):
        ok = ok and count_words(k) == count_words(k - 1) + 2 * count_words(k - 2)
    _report("A3 word counts: exhaustive to length 18, recurrence to 60", ok)


def test_a4_composition_counts():
    ok = True
    for n in range(1, 17):
        for k in range(1, n + 1):
            ok = ok and sum(1 for _ in compositions(n, k)) == count_compositions(n, k)
    _report("A4 composition stream cardinality = C(n-1,k-1), n <= 16", ok)


def test_a5_count_identity():
    ok = all(
        count_pairs_sum(n) == count_pairs(n) == 2 * (4 ** (n - 1) - 1) // 3
        for n in range(1, 31)
    )
    _report("A5 sum form = closed form = 2(4^(n-1)-1)/3, n <= 30", ok)


def test_a6_flip_bijection():
    ok = True
    for n in range(1, 9):
        polys = list(unit_polys(n))
        outputs = set()
        flips = 0
        for f in polys:
            for g in polys:
                if gcd(f, g) == 1:
                    continue
                out = bijection_flip(f, g)
                flips += 1
                outputs.add(out)
                ok = ok and gcd(*out) == 1
                ok = ok and constant_term(out[0]) + constant_term(out[1]) >= 1
        ok = ok and len(outputs) == flips == 4 ** (n - 1) - count_pairs(n)
    _report("A6 flip of every non-coprime pair: distinct coprime outputs, n <= 8", ok)


def test_a7_round_trips():
    ok = True
    for n in range(1, 9):
        for rec in enumerate_pairs(n, with_provenance=True):
            assembled = assemble_quotients(*rec.provenance)
            ok = ok and dilcue(assembled) == (rec.f, rec.g)
            trace = euclid_trace(rec.f, rec.g)
            ok = ok and tuple(reversed(trace.quotients)) == assembled
    rng = random.Random(20240917)
    done = 0
    while done < 10_000:
        d = rng.randint(1, 64)
        f = (1 << d) | rng.getrandbits(d)
        g = (1 << d) | rng.getrandbits(d)
        if gcd(f, g) != 1:
            continue
        done += 1
        trace = euclid_trace(f, g)
        ok = ok and dilcue(reversed(trace.quotients), (1, 0)) == (f, g)
    _report("A7 trace/dilcuE round trips: exhaustive n <= 8 plus 10^4 random", ok)


def test_a8_orthogonality_iff_coprime():
    ok = True
    for n in range(1, 7):
        polys = list(unit_polys(n))
        squares = {}
        for p in polys:
            square = latin_square(rule_from_poly(p))
            ok = ok and is_latin(square)
            squares[p] = square
        for f in polys:
            for g in polys:
                ortho = are_orthogonal(squares[f], squares[g])
                ok = ok and ortho == (gcd(f, g) == 1)
    _report("A8 squares orthogonal iff polynomials coprime, degrees 1..6", ok)


def test_a9_generating_function_series():
    # long division of (1 - X) by (1 - X - 2X^2), ascending powers, over Z
    order = 20
    numerator = [1, -1] + [0] * order
    denominator = [1, -1, -2]
    series = []
    for k in range(order + 1):
        c = numerator[k]
        series.append(c)
        for i, d in enumerate(denominator):
            if k + i <= order + 1:
                numerator[k + i] -= c * d
    ok = series == [count_words(k) for k in range(order + 1)]
    _report("A9 series of (1-X)/(1-X-2X^2) matches word counts to order 20", ok)


def test_a10_automaton_permutativity():
    ok = True
    for s in (0, 1):
        images = [delta(state, s) for state in STATES]
        ok = ok and len(set(images)) == len(STATES)
    for state in STATES:
        for s in (0, 1):
            ok = ok and inverse_delta(delta(state, s), s) == state
    _report("A10 per-symbol transitions injective and exactly inverted", ok)
