import random
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocagen.enumeration import pair_chunks
from ocagen.euclid import euclid_trace
from ocagen.gf2poly import (
    DEGREE_OF_ZERO,
    constant_term,
    degree,
    divmod_,
    format_poly,
    gcd,
    mul,
    parse_poly,
    unit_polys,
)
from test_enumeration import lane_pairs

polys = st.integers(min_value=0, max_value=(1 << 65) - 1)
wide_polys = st.integers(min_value=0, max_value=(1 << 513) - 1)


def reference_gcd(a, b):
    """Euclid with one ``divmod_`` call per remainder, the reference that
    ``gcd`` and its inline division are compared against."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, divmod_(a, b)[1]
    return a


class TestParse:
    def test_hex(self):
        assert parse_poly("0x7") == 0b111
        assert parse_poly("0X7") == 0b111
        assert parse_poly("0x0") == 0
        assert parse_poly("0xB") == parse_poly("0xb") == 11

    def test_symbolic(self):
        assert parse_poly("x^3+x+1") == 0xB
        assert parse_poly("x^2+x+1") == 7
        assert parse_poly("1") == 1
        assert parse_poly("0") == 0
        assert parse_poly("x") == 2
        assert parse_poly(" x^2 + 1 ") == 5
        assert parse_poly("X^2+X") == 6
        assert parse_poly("x^03") == 8

    @pytest.mark.parametrize("bad", ["", "0x", "0xZZ", "x^", "x^2+?", "2x", "x**3"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad)

    def test_error_names_position(self):
        with pytest.raises(ValueError, match="position 3"):
            parse_poly("0x5G")
        with pytest.raises(ValueError, match="position 4"):
            parse_poly("x^2+y")
        # str.isdigit admits both exponents; int() refuses "²" and reads "٣" as 3.
        with pytest.raises(ValueError, match="malformed term 'x\\^²' at position 0"):
            parse_poly("x^²")
        with pytest.raises(ValueError, match="malformed term 'x\\^٣' at position 0"):
            parse_poly("x^٣+1")
        with pytest.raises(ValueError, match="malformed term 'x\\^٣' at position 2"):
            parse_poly("1+x^٣")

    def test_repeated_term_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_poly("x+x")


class TestFormat:
    def test_examples(self):
        assert format_poly(5, "hex") == "0x5"
        assert format_poly(0, "symbolic") == "0"
        assert format_poly(7, "symbolic") == "x^2+x+1"
        assert format_poly(0) == "0x0"
        assert format_poly(2, "symbolic") == "x"

    def test_bad_style(self):
        with pytest.raises(ValueError):
            format_poly(5, "binary")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_poly(-1)

    @given(wide_polys)
    def test_round_trip_hex(self, p):
        assert parse_poly(format_poly(p, "hex")) == p

    @given(polys)
    def test_round_trip_symbolic(self, p):
        assert parse_poly(format_poly(p, "symbolic")) == p

    def test_round_trip_bulk(self):
        rng = random.Random(20240917)
        for _ in range(10_000):
            p = rng.getrandbits(rng.randint(0, 65))
            assert parse_poly(format_poly(p, "hex")) == p
            assert parse_poly(format_poly(p, "symbolic")) == p


class TestArithmetic:
    def test_mul_examples(self):
        assert mul(3, 3) == 5              # (x+1)^2 = x^2+1 in characteristic 2
        assert mul(13, 1) == 13
        assert mul(2, 7) == 0b1110         # x*(x^2+x+1)

    def test_divmod_examples(self):
        assert divmod_(0xB, 0x5) == (2, 1)   # x^3+x+1 = x*(x^2+1) + 1
        assert divmod_(13, 1) == (13, 0)
        assert divmod_(5, 7) == (1, 2)       # equal degrees force quotient 1
        assert divmod_(0, 5) == (0, 0)
        assert divmod_(0x3, 0xB) == (0, 0x3)  # lower-degree dividend is the remainder

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod_(5, 0)

    def test_gcd_examples(self):
        assert gcd(0x9, 0x5) == 3            # (x+1)(x^2+x+1) vs (x+1)^2
        assert gcd(13, 0) == 13
        assert gcd(0, 13) == 13
        assert gcd(5, 7) == 1

    def test_gcd_of_zeros(self):
        with pytest.raises(ValueError):
            gcd(0, 0)

    def test_beyond_exhaustive_reach(self):
        rng = random.Random(20261018)

        def monic(d):
            return (1 << d) | rng.getrandbits(d)

        for _ in range(200):
            a = monic(rng.randint(64, 1000))
            b = monic(rng.randint(64, 1000))
            h = monic(rng.randint(1, 64))
            q, r = divmod_(a, b)
            assert mul(q, b) ^ r == a
            assert degree(r) < degree(b)
            g = gcd(a, b)
            assert g == gcd(b, a) == reference_gcd(a, b)
            assert gcd(mul(h, a), mul(h, b)) == mul(h, g)
            assert g == euclid_trace(a, b).gcd

    # Without a sign check each of these calls loops forever instead of failing.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: mul(-3, 5),
            lambda: mul(5, -3),
            lambda: divmod_(-1, 1),
            lambda: divmod_(5, -3),
            lambda: divmod_(-1, 0),
            lambda: gcd(-1, 3),
            lambda: gcd(5, -3),
            lambda: gcd(-1, 0),
            lambda: gcd(0, -1),
        ],
    )
    def test_negative_rejected(self, call):
        with pytest.raises(ValueError, match="negative value is not a GF\\(2\\) polynomial"):
            call()

    def test_gcd_matches_reference_exhaustive(self):
        for a in range(1 << 8):
            for b in range(1 << 8):
                if a or b:
                    assert gcd(a, b) == reference_gcd(a, b), (a, b)

    def test_gcd_recovers_common_factor(self):
        rng = random.Random(6)
        flat = chain.from_iterable(lane_pairs(buf, 6) for buf in pair_chunks(6))
        for f, g in zip(flat, flat):
            d = rng.randint(0, 64)
            h = (1 << d) | rng.getrandbits(d)
            hf, hg = mul(h, f), mul(h, g)
            assert gcd(hf, hg) == gcd(hg, hf) == reference_gcd(hf, hg) == h

    @given(polys, polys.filter(bool))
    def test_divmod_identity(self, a, b):
        q, r = divmod_(a, b)
        assert mul(q, b) ^ r == a
        assert degree(r) < degree(b)

    @given(polys, polys)
    def test_gcd_commutes(self, a, b):
        if a == 0 and b == 0:
            return
        assert gcd(a, b) == gcd(b, a)

    @given(polys.filter(bool), polys.filter(bool))
    def test_gcd_euclid_step(self, a, b):
        _, r = divmod_(a, b)
        if b == 0 and r == 0:
            return
        assert gcd(a, b) == gcd(b, r)

    @given(polys, polys, polys)
    def test_mul_associates_and_distributes(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)

    @given(polys.filter(bool), polys.filter(bool))
    def test_mul_degree_law(self, a, b):
        assert degree(mul(a, b)) == degree(a) + degree(b)


class TestDegree:
    def test_sentinel(self):
        assert degree(0) == DEGREE_OF_ZERO
        assert degree(0) < 0
        assert not isinstance(degree(0), int)

    def test_values(self):
        assert degree(1) == 0
        assert degree(0b101) == 2
        assert degree(1 << 512) == 512

    def test_constant_term(self):
        assert constant_term(5) == 1
        assert constant_term(6) == 0
        assert constant_term(0) == 0


class TestUnitPolys:
    def test_small(self):
        assert list(unit_polys(3)) == [0b1001, 0b1011, 0b1101, 0b1111]
        assert list(unit_polys(1)) == [0b11]
        assert list(unit_polys(0)) == [1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shape(self, n):
        seen = list(unit_polys(n))
        assert len(seen) == len(set(seen)) == 1 << (n - 1)
        assert all(degree(p) == n and constant_term(p) == 1 for p in seen)

    @pytest.mark.parametrize("n", range(17))
    def test_odd_integers_of_bit_length_n_plus_1(self, n):
        assert list(unit_polys(n)) == [p for p in range(1 << n, 2 << n) if p & 1]

    def test_negative(self):
        # raised at the call, before any value is asked for
        with pytest.raises(ValueError):
            unit_polys(-1)
