import random

import pytest

from ocagen.euclid import bijection_flip, dilcue, euclid_trace
from ocagen.gf2poly import constant_term, degree, gcd, mul, unit_polys


def random_pair(rng, max_degree=64):
    d = rng.randint(1, max_degree)
    top = 1 << d
    return top | rng.getrandbits(d), top | rng.getrandbits(d)


def random_coprime_pair(rng, max_degree=64):
    while True:
        f, g = random_pair(rng, max_degree)
        if gcd(f, g) == 1:
            return f, g


class TestTrace:
    def test_worked_example(self):
        trace = euclid_trace(0x5, 0x7)
        assert trace.quotients == (1, 3, 2)
        assert trace.remainders == (5, 7, 2, 1, 0)
        assert trace.gcd == 1

    def test_equal_inputs(self):
        trace = euclid_trace(13, 13)
        assert trace.quotients == (1,)
        assert trace.gcd == 13

    def test_matches_gcd(self):
        assert euclid_trace(0x9, 0x5).gcd == gcd(0x9, 0x5) == 3

    def test_zero_divisor_side(self):
        trace = euclid_trace(13, 0)
        assert trace.quotients == ()
        assert trace.remainders == (13, 0)
        assert trace.gcd == 13

    def test_both_zero(self):
        with pytest.raises(ValueError):
            euclid_trace(0, 0)

    def test_remainder_chain_recurrence(self):
        rng = random.Random(7)
        for _ in range(200):
            f, g = random_pair(rng, 32)
            trace = euclid_trace(f, g)
            r = trace.remainders
            for i, q in enumerate(trace.quotients):
                assert mul(q, r[i + 1]) ^ r[i + 2] == r[i]
            assert trace.gcd == next(x for x in reversed(r) if x)

    def test_first_quotient_is_unit_for_equal_degrees(self):
        rng = random.Random(11)
        for _ in range(300):
            f, g = random_pair(rng, 48)
            assert euclid_trace(f, g).quotients[0] == 1

    def test_coprime_trace_ends_at_one_zero(self):
        rng = random.Random(13)
        for _ in range(200):
            f, g = random_coprime_pair(rng, 32)
            assert euclid_trace(f, g).remainders[-2:] == (1, 0)


class TestDilcue:
    def test_worked_examples(self):
        assert dilcue([2, 3, 1], (1, 0)) == (5, 7)
        assert dilcue([1], (1, 0)) == (1, 1)
        assert dilcue([2, 2, 1], (1, 0)) == (7, 5)

    def test_default_seed(self):
        assert dilcue([2, 3, 1]) == (5, 7)

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            dilcue([])

    def test_round_trip_random_coprime(self):
        rng = random.Random(20240917)
        for _ in range(2_000):
            f, g = random_coprime_pair(rng)
            trace = euclid_trace(f, g)
            assert dilcue(reversed(trace.quotients), (1, 0)) == (f, g)


class TestBijectionFlip:
    def test_equal_pair(self):
        out = bijection_flip(7, 7)
        assert out == (6, 7)
        assert gcd(*out) == 1

    def test_shared_factor_pair(self):
        out = bijection_flip(0b1001, 0b1111)   # both divisible by x+1
        assert gcd(*out) == 1
        assert degree(out[0]) == degree(out[1]) == 3

    def test_rejects_coprime(self):
        with pytest.raises(ValueError):
            bijection_flip(5, 7)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_injective_and_coprime(self, n):
        polys = list(unit_polys(n))
        flipped = {}
        for f in polys:
            for g in polys:
                if gcd(f, g) == 1:
                    continue
                out = bijection_flip(f, g)
                assert gcd(*out) == 1
                assert constant_term(out[0]) + constant_term(out[1]) >= 1
                assert out not in flipped, f"collision with {flipped[out]}"
                flipped[out] = (f, g)
        if n == 2:
            assert len(flipped) == 2
