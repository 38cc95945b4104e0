import copy
import math
import pickle
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocagen import const_lang
from ocagen.gf2poly import degree, gcd, mul, unit_polys
from ocagen.oca import (
    SQUARE_DEGREE_LIMIT,
    LatinSquare,
    LocalRule,
    are_orthogonal,
    is_latin,
    latin_square,
    rule_from_poly,
)
from test_enumeration import chunk_pairs, seeded_chunks

RULE_150 = LocalRule(3, 0b111)   # x0 ^ x1 ^ x2
RULE_90 = LocalRule(3, 0b101)    # x0 ^ x2


# Reference: the sliding-window definition of a CA, independent of the
# multiply-by-p construction that `latin_square` uses.

def evaluate(rule, window):
    """Apply the rule to one window of ``diameter`` cells."""
    d = rule.diameter
    if len(window) != d:
        raise ValueError(f"window has {len(window)} cells, rule diameter is {d}")
    out = 0
    for i in range(d):
        if (rule.coeffs >> i) & 1:
            out ^= window[i] & 1
    return out


def global_map(rule, cells):
    """Slide the rule over ``cells``; output has len(cells) - diameter + 1 bits."""
    d = rule.diameter
    m = len(cells)
    if m < d:
        raise ValueError(f"input length {m} is below the rule diameter {d}")
    return [evaluate(rule, cells[i:i + d]) for i in range(m - d + 1)]


def bits_msb_first(value, width):
    return [(value >> (width - 1 - t)) & 1 for t in range(width)]


def reference_square(rule):
    """Global map on 2(d-1) cells, blocks decoded most-significant-bit first."""
    nbits = rule.diameter - 1
    n = 1 << nbits
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            out = global_map(rule, bits_msb_first(i, nbits) + bits_msb_first(j, nbits))
            row.append(sum(bit << (nbits - 1 - t) for t, bit in enumerate(out)))
        rows.append(tuple(row))
    return tuple(rows)


def wolfram_number(rule):
    return sum(evaluate(rule, bits_msb_first(v, 3)) << v for v in range(8))


def flips_with_outermost_cells(rule):
    """Whether flipping x_0 or x_{d-1} flips the output in every window."""
    d = rule.diameter
    for v in range(1 << d):
        window = bits_msb_first(v, d)
        out = evaluate(rule, window)
        for edge in (0, d - 1):
            flipped = list(window)
            flipped[edge] ^= 1
            if evaluate(rule, flipped) == out:
                return False
    return True


def random_unit_poly(rng, n):
    """A uniformly random polynomial of degree n >= 1 with constant term 1."""
    return (1 << n) | (rng.getrandbits(n - 1) << 1) | 1


# Reference: orthogonality by its definition, for any two N x N arrays.

def reference_orthogonal(a, b):
    """Whether superposing the squares gives N^2 distinct pairs (e1, e2)."""
    cells = {(e1, e2) for r1, r2 in zip(a.entries, b.entries) for e1, e2 in zip(r1, r2)}
    return len(cells) == a.order ** 2


# Reference: orthogonality of two linear rules with no Euclid and no
# square.  Superposed, the rules of two degree-n polynomials map 2n cells to
# 2n cells, and their squares are orthogonal exactly when that linear map
# is a bijection: when its matrix over GF(2), the Sylvester matrix of the
# pair, has full rank (Mariot, Gadouleau, Formenti & Leporati, Des. Codes
# Cryptogr. 2020).

def window_rows(rule, cells):
    """The global map on ``cells`` cells as GF(2) rows, one per output cell:
    output i reads cell i + j with weight coefficient j (see ``evaluate``),
    so its row is the rule's coefficient mask shifted up by i."""
    return [rule.coeffs << i for i in range(cells - rule.diameter + 1)]


def gf2_rank(rows):
    """Rank over GF(2) of int bit-rows, by XOR-basis elimination."""
    basis = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def superposed_rank(f, g):
    """Rank of the superposed global map of two equal-degree rules, on 2n cells."""
    a, b = rule_from_poly(f), rule_from_poly(g)
    assert a.diameter == b.diameter
    cells = 2 * (a.diameter - 1)
    return gf2_rank(window_rows(a, cells) + window_rows(b, cells))


def sampled_chunk_pairs(n, rng):
    """Two seeded pairs of each chunk of ``seeded_chunks(n, rng)``, as the
    enumeration core makes them.  Call with BLOCK_CAP patched small, so
    the chunks stay cheap at any degree."""
    pairs = []
    for chunk in seeded_chunks(n, rng):
        flat = chunk_pairs(*chunk)
        pairs += rng.sample(list(zip(flat[::2], flat[1::2])), 2)
    return pairs


def cyclic_square(n, s):
    """Entry (i, j) = s·i + j mod n; Latin iff s is a unit mod n."""
    return LatinSquare(n, tuple(tuple((s * i + j) % n for j in range(n)) for i in range(n)))


def stripes(n):
    """An orthogonal pair whose first square is not Latin: rows all i, then rows 0..N-1."""
    return (LatinSquare(n, tuple((i,) * n for i in range(n))),
            LatinSquare(n, (tuple(range(n)),) * n))


def scrambled(pair, rng, duplicate=False):
    """Move the cells of both squares by one random permutation.

    That keeps orthogonality and usually breaks Latinity; ``duplicate``
    then copies one cell's pair over another's, which breaks orthogonality.
    """
    a, b = pair
    n = a.order
    cells = [cell for r1, r2 in zip(a.entries, b.entries) for cell in zip(r1, r2)]
    rng.shuffle(cells)
    if duplicate:
        src, dst = rng.sample(range(n * n), 2)
        cells[dst] = cells[src]
    rows = [cells[i * n:(i + 1) * n] for i in range(n)]
    return tuple(LatinSquare(n, tuple(tuple(cell[k] for cell in row) for row in rows))
                 for k in (0, 1))


def orthogonality_cases(n, rng):
    """Pairs of order n: Latin pairs, Latin against random, the square whose
    rows are all 0..N-1 (affine when N is a power of two, but not Latin)
    against a Latin square and itself, and scrambled orthogonal pairs."""
    units = [s for s in range(1, n + 1) if math.gcd(s, n) == 1][:3]
    pairs = [(cyclic_square(n, s), cyclic_square(n, t)) for s in units for t in units]
    if n > 1 and n & (n - 1) == 0:
        d = n.bit_length() - 1
        polys = [random_unit_poly(rng, d) for _ in range(2)] + [(1 << d) | 1]
        squares = [latin_square(rule_from_poly(p)) for p in polys]
        pairs += [(sq_f, sq_g) for sq_f in squares for sq_g in squares]
    latin = pairs[-1][0]
    noise = LatinSquare(n, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))
    shuffled = list(pairs[-1][1].entries)
    rng.shuffle(shuffled)
    rows_constant, rows_identity = stripes(n)
    pairs += [(latin, noise), (latin, LatinSquare(n, tuple(shuffled))),
              (rows_identity, latin), (rows_identity, rows_identity),
              (rows_constant, rows_identity)]
    orthogonal = [pair for pair in pairs if reference_orthogonal(*pair)]
    for pair in orthogonal[:2] + orthogonal[-1:]:
        pairs.append(scrambled(pair, rng))
        if n > 1:
            pairs.append(scrambled(pair, rng, duplicate=True))
    return pairs


# Reference: affinity by its definition, for any N x N array.

def reference_affine(square):
    """Whether N = 2^m and entry (i, j) is an affine function of the 2m bits
    of (i, j): row 0 and column 0 are affine (f(x ^ y) = f(x) ^ f(y) ^ f(0))
    and every entry is e(i, 0) ^ e(0, j) ^ e(0, 0)."""
    n, e = square
    if n & (n - 1):
        return False

    def affine(f):
        return all(f[x ^ y] == f[x] ^ f[y] ^ f[0] for x in range(n) for y in range(n))

    return (affine(e[0]) and affine([row[0] for row in e])
            and all(e[i][j] == e[i][0] ^ e[0][j] ^ e[0][0] for i in range(n) for j in range(n)))


# Reference: Latinity by its definition, for any N x N array.

def reference_latin(square):
    """Whether every row and every column holds each of 0..N-1 once."""
    n, e = square
    return all(sorted(line) == list(range(n)) for line in (*e, *zip(*e)))


def affine_square(m, images, offset):
    """Entry (i, j) = offset ^ L(i) ^ R(j), N = 2^m, for the linear maps
    with L(1 << t) = images[t] and R(1 << t) = images[m + t]."""
    def image(x, first):
        return reduce(xor, (images[first + t] for t in range(m) if x >> t & 1), 0)

    right = [image(j, m) for j in range(1 << m)]
    return LatinSquare(1 << m, tuple(tuple(offset ^ image(i, 0) ^ r for r in right) for i in range(1 << m)))


@st.composite
def affine_pairs(draw):
    """Two affine squares of one order 2^m, m <= 9, with random offsets and
    unit images; when ``singular`` the superposed image of one unit input is
    the XOR of others, so the linear part of the pair is singular."""
    m = draw(st.integers(0, 9))
    images = st.lists(st.integers(0, (1 << m) - 1), min_size=2 * m, max_size=2 * m)
    first, second = draw(images), draw(images)
    if m and draw(st.booleans(), label="singular"):
        k = draw(st.integers(0, 2 * m - 1))
        others = draw(st.lists(st.integers(0, 2 * m - 1).filter(lambda s: s != k), max_size=3))
        first[k] = reduce(xor, (first[s] for s in others), 0)
        second[k] = reduce(xor, (second[s] for s in others), 0)
    offsets = st.integers(0, (1 << m) - 1)
    return affine_square(m, first, draw(offsets)), affine_square(m, second, draw(offsets))


class TestLocalRule:
    def test_wolfram_numbers(self):
        assert wolfram_number(RULE_150) == 150
        assert wolfram_number(RULE_90) == 90

    def test_linear_needs_outermost_cells(self):
        with pytest.raises(ValueError):
            LocalRule(3, 0b110)   # misses x0
        with pytest.raises(ValueError):
            LocalRule(3, 0b011)   # misses x2

    def test_coeffs_checked(self):
        with pytest.raises(TypeError):
            LocalRule(diameter=3)
        with pytest.raises(ValueError):
            LocalRule(3, 0b1011)  # wider than the diameter
        with pytest.raises(ValueError):
            LocalRule(0, 0b1)

    def test_replace_and_make_are_checked(self):
        with pytest.raises(ValueError):
            LocalRule(3, 7)._replace(coeffs=0)
        with pytest.raises(ValueError):
            LocalRule._make([3, 2])
        with pytest.raises(ValueError):
            LatinSquare(2, ((0, 1), (1, 0)))._replace(order=5)
        assert RULE_150._replace(coeffs=0b101) == RULE_90
        assert type(RULE_150._replace(coeffs=0b101)) is LocalRule
        assert LocalRule._make([2, 0b11]) == LocalRule(2, 0b11)
        square = LatinSquare(1, ((0,),))._replace(order=2, entries=((0, 1), (1, 0)))
        assert square == latin_square(LocalRule(2, 0b11))

    def test_evaluate(self):
        assert evaluate(RULE_150, [1, 1, 0]) == 0
        assert evaluate(RULE_150, [1, 0, 0]) == 1
        assert evaluate(RULE_90, [1, 1, 0]) == 1
        with pytest.raises(ValueError):
            evaluate(RULE_150, [1, 0])


class TestRulePolyMap:
    def test_examples(self):
        assert rule_from_poly(0x7) == RULE_150
        assert rule_from_poly(0x5) == RULE_90
        assert rule_from_poly(0x3) == LocalRule(2, 0b11)

    def test_inverse_examples(self):
        assert RULE_90.coeffs == 0x5
        assert LocalRule(2, 0b11).coeffs == 0x3
        assert LocalRule(4, 0b1011).coeffs == 0xB

    @pytest.mark.parametrize("n", range(1, 13))
    def test_round_trip(self, n):
        for p in unit_polys(n):
            rule = rule_from_poly(p)
            assert rule.diameter == n + 1
            assert rule.coeffs == p
            assert rule_from_poly(rule.coeffs) == rule

    def test_invalid_polynomials(self):
        with pytest.raises(ValueError):
            rule_from_poly(0)
        with pytest.raises(ValueError):
            rule_from_poly(1)     # degree 0
        with pytest.raises(ValueError):
            rule_from_poly(0x6)   # constant term 0


class TestGlobalMap:
    def test_example(self):
        assert global_map(RULE_150, [0, 1, 1, 0]) == [0, 0]

    def test_zero_input(self):
        assert global_map(RULE_90, [0] * 8) == [0] * 6

    def test_single_output_cell(self):
        assert global_map(RULE_150, [1, 0, 1]) == [0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            global_map(RULE_150, [1, 0])

    def test_linear_rules_are_additive(self):
        rng = random.Random(3)
        rule = rule_from_poly(0xB)
        for _ in range(100):
            x = [rng.randint(0, 1) for _ in range(10)]
            y = [rng.randint(0, 1) for _ in range(10)]
            xy = [a ^ b for a, b in zip(x, y)]
            fx, fy = global_map(rule, x), global_map(rule, y)
            assert global_map(rule, xy) == [a ^ b for a, b in zip(fx, fy)]


class TestBipermutivity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_poly_rules_always_are(self, n):
        assert all(flips_with_outermost_cells(rule_from_poly(p)) for p in unit_polys(n))


class TestLatinSquare:
    def test_xor_square(self):
        square = latin_square(RULE_90)
        assert square.order == 4
        assert square.entries == tuple(tuple(i ^ j for j in range(4)) for i in range(4))

    def test_diameter_2(self):
        square = latin_square(LocalRule(2, 0b11))
        assert square.entries == ((0, 1), (1, 0))

    def test_refuses_non_bipermutive(self):
        # a rule that ignores an outermost cell cannot be built at all
        with pytest.raises(ValueError):
            latin_square(LocalRule(3, 0b110))
        with pytest.raises(ValueError):
            latin_square(LocalRule(1, 0b1))

    def test_guard(self):
        with pytest.raises(ValueError, match="limited to degree"):
            latin_square(rule_from_poly((1 << (SQUARE_DEGREE_LIMIT + 1)) | 1))

    def test_matches_global_map_definition(self):
        rule = rule_from_poly(0xB)
        square = latin_square(rule)
        n = square.order
        for i in range(n):
            for j in range(n):
                cells = [(i >> 2) & 1, (i >> 1) & 1, i & 1,
                         (j >> 2) & 1, (j >> 1) & 1, j & 1]
                out = global_map(rule, cells)
                assert square.entries[i][j] == (out[0] << 2) | (out[1] << 1) | out[2]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_reference_exhaustive(self, n):
        for p in unit_polys(n):
            rule = rule_from_poly(p)
            assert latin_square(rule).entries == reference_square(rule)

    @pytest.mark.parametrize("n, samples", [(6, 4), (7, 3), (8, 1)])
    def test_matches_reference_sampled(self, n, samples):
        rng = random.Random(n)
        for _ in range(samples):
            rule = rule_from_poly(random_unit_poly(rng, n))
            assert latin_square(rule).entries == reference_square(rule)

    def test_all_linear_middle_rules_are_latin(self):
        for d in range(2, 8):
            for gmask in range(1 << (d - 2)):
                rule = LocalRule(d, 1 | (gmask << 1) | (1 << (d - 1)))
                assert is_latin(latin_square(rule))


class TestChecks:
    def test_is_latin(self):
        assert is_latin(LatinSquare(2, ((0, 1), (1, 0))))
        assert not is_latin(LatinSquare(2, ((0, 0), (1, 1))))
        # rows that are permutations, columns that are not
        assert not is_latin(LatinSquare(2, ((0, 1), (0, 1))))
        assert is_latin(latin_square(RULE_150))

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            LatinSquare(2, ((0, 1),))
        with pytest.raises(ValueError):
            LatinSquare(0, ())

    def test_entries_in_range(self):
        # Out-of-range entries would make are_orthogonal's key collide-free
        # where the squares are not orthogonal: ((0, 0), (0, 0)) against
        # ((0, 1), (2, 3)) read as orthogonal.
        with pytest.raises(ValueError):
            LatinSquare(2, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            LatinSquare(2, ((0, -1), (1, 0)))
        with pytest.raises(ValueError):
            LatinSquare(2, ((0, 1), (1, 0)))._replace(entries=((0, 1), (2, 3)))
        assert LatinSquare(2, ((0, 0), (0, 0))).entries == ((0, 0), (0, 0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1), (-1, -1)], ids=str)
    def test_non_int_entry(self, n, i, j):
        # (0, 1) and (1, 0) are unit positions of an affine square, (1, 1)
        # and (-1, -1) are not; 1.0 == 1 hides in a set of range(n).
        entries = [[i0 ^ j0 if n & (n - 1) == 0 else (i0 + j0) % n for j0 in range(n)] for i0 in range(n)]
        assert LatinSquare(n, tuple(map(tuple, entries)))._basis is not None or n == 3
        entries[i][j] = float(entries[i][j])
        with pytest.raises(ValueError, match="must be ints"):
            LatinSquare(n, tuple(map(tuple, entries)))

    def test_bool_entries_are_accepted(self):
        assert is_latin(LatinSquare(2, ((False, True), (True, False))))
        assert is_latin(LatinSquare(3, ((0, True, 2), (True, 2, 0), (2, 0, True))))

    @pytest.mark.parametrize("n", [2, 4, 256])
    @pytest.mark.parametrize("value", ["N", 1 << 16, -1])
    def test_out_of_range_entry_of_an_affine_square(self, n, value):
        # Row 0 and column 0 are in range, so only the row comparison (or
        # pack refusing the value) sends the square to the range scan.
        square = latin_square(rule_from_poly(n | 1))
        assert square._basis is not None
        entries = [list(row) for row in square.entries]
        entries[-1][-1] = n if value == "N" else value
        with pytest.raises(ValueError, match="must be ints"):
            LatinSquare(n, tuple(map(tuple, entries)))

    def test_orthogonality_examples(self):
        sq90, sq150 = latin_square(RULE_90), latin_square(RULE_150)
        assert are_orthogonal(sq90, sq150)
        assert not are_orthogonal(sq90, sq90)
        shared_factor = (latin_square(rule_from_poly(0x9)),
                         latin_square(rule_from_poly(0xF)))
        assert not are_orthogonal(*shared_factor)

    @pytest.mark.parametrize("n", [*range(1, 10), 256, 257])
    def test_orthogonal_matches_reference(self, n):
        # The path is chosen from both squares: a pair of affine squares
        # takes the rank path, Latin or not (the rows_identity pairs), and
        # any other pair, such as a scrambled one, the set path.  Every
        # order-1 square is affine; no square of an order that is not a
        # power of two, such as 257, is.
        rng = random.Random(1000 + n)
        cases = orthogonality_cases(n, rng)
        outcomes = set()
        for a, b in cases:
            expected = reference_orthogonal(a, b)
            assert are_orthogonal(a, b) == are_orthogonal(b, a) == expected
            outcomes.add(expected)
        assert outcomes == ({True} if n == 1 else {True, False})
        assert n == 1 or not all(map(is_latin, (sq for pair in cases for sq in pair)))
        affine = [a._basis is not None and b._basis is not None for a, b in cases]
        if n & (n - 1):
            assert not any(affine)
        elif n == 1:
            assert all(affine)
        else:
            assert any(affine) and not all(affine)
            assert any(t and not is_latin(a) for t, (a, _) in zip(affine, cases))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 256, 257])
    def test_non_latin_orthogonal_pair(self, n):
        rows_constant, rows_identity = stripes(n)
        assert are_orthogonal(rows_constant, rows_identity)
        assert are_orthogonal(rows_identity, rows_constant)
        assert are_orthogonal(rows_constant, rows_constant) == (n == 1)

    @pytest.mark.parametrize("n, polys", [(4, (0x7, 0x5)), (256, (0x11b, 0x11d)), (257, None)])
    def test_rebuilt_squares_keep_everything(self, n, polys):
        # copy, pickle, _replace and _make all rebuild through __new__.
        if polys is None:
            square, other = cyclic_square(n, 1), cyclic_square(n, 2)
        else:
            square, other = (latin_square(rule_from_poly(p)) for p in polys)
        assert (square._basis is None) == (n == 257)
        pickles = [pickle.dumps(square, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        rebuilt = [copy.copy(square), copy.deepcopy(square), square._replace(),
                   LatinSquare._make(square), *map(pickle.loads, pickles)]
        for sq in rebuilt:
            assert type(sq) is LatinSquare
            assert sq == square and hash(sq) == hash(square)
            assert sq._basis == square._basis
            order, entries = sq
            assert order == n and entries == square.entries
            assert type(entries) is tuple and all(type(row) is tuple for row in entries)
            for a, b in ((sq, other), (other, sq), (sq, square)):
                assert are_orthogonal(a, b) == reference_orthogonal(a, b)
        assert reference_orthogonal(square, other) and not reference_orthogonal(square, square)
        # A pickle carries the order and entries only; loading rebuilds _basis.
        assert not any(b"_basis" in data for data in pickles)

    def test_order_512_pairs(self):
        # Degrees 9 and 10 give orders 512 and 1024, decided on the rank
        # path, with no set of N^2 cells.
        h = 0x7
        for f, g, coprime in ((0x211, 0x203, True), (mul(h, 0x83), mul(h, 0x89), False),
                              (0x409, 0x40f, True), (mul(h, 0x11b), mul(h, 0x11d), False)):
            assert (gcd(f, g) == 1) == coprime
            sq_f, sq_g = latin_square(rule_from_poly(f)), latin_square(rule_from_poly(g))
            assert sq_f.order == 1 << degree(f)
            assert sq_f._basis is not None and sq_g._basis is not None
            assert are_orthogonal(sq_f, sq_g) == are_orthogonal(sq_g, sq_f) == coprime

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            are_orthogonal(latin_square(RULE_90), latin_square(LocalRule(2, 0b11)))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_orthogonal_iff_coprime(self, n):
        polys = list(unit_polys(n))
        squares = {p: latin_square(rule_from_poly(p)) for p in polys}
        for f in polys:
            for g in polys:
                assert are_orthogonal(squares[f], squares[g]) == (gcd(f, g) == 1)

    @pytest.mark.parametrize("n", range(7, 10))
    def test_orthogonal_iff_coprime_sampled(self, n):
        # half the pairs share a factor h of degree >= 1 by construction
        rng = random.Random(n)
        pairs = [(random_unit_poly(rng, n), random_unit_poly(rng, n)) for _ in range(3)]
        for _ in range(3):
            dh = rng.randint(1, n - 1)
            h = random_unit_poly(rng, dh)
            pairs.append((mul(h, random_unit_poly(rng, n - dh)),
                          mul(h, random_unit_poly(rng, n - dh))))
        for f, g in pairs:
            sq_f, sq_g = latin_square(rule_from_poly(f)), latin_square(rule_from_poly(g))
            assert is_latin(sq_f) and is_latin(sq_g)
            assert are_orthogonal(sq_f, sq_g) == (gcd(f, g) == 1)
        assert {gcd(f, g) == 1 for f, g in pairs} == {True, False}


class TestAffinePath:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_built_square_is_affine(self, n):
        # L(1 << t) is the low n bits of p << t, R(1 << t) the rest of it.
        for p in unit_polys(n):
            images = (*(p << t & ((1 << n) - 1) for t in range(n)), *(p << t >> n for t in range(n)))
            assert latin_square(rule_from_poly(p))._basis == (n, images)

    @settings(max_examples=40)
    @given(affine_pairs(), st.data())
    def test_matches_reference(self, pair, data):
        # A one-entry mutant is never affine; a row-shuffled copy is affine
        # exactly when the reference says so.  A pair with a square that is
        # not affine goes through the set path.
        a, b = pair
        n = a.order
        assert a._basis is not None and b._basis is not None
        rows = data.draw(st.permutations(range(n)), label="rows")
        shuffled = [LatinSquare(n, tuple(sq.entries[r] for r in rows)) for sq in pair]
        assert (shuffled[0]._basis is not None) == reference_affine(shuffled[0])
        cases = [pair, shuffled, (shuffled[0], b)]
        if n > 1:
            i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1), label="j")
            entries = [list(row) for row in b.entries]
            entries[i][j] ^= data.draw(st.integers(1, n - 1), label="flip")
            mutant = LatinSquare(n, tuple(map(tuple, entries)))
            assert mutant._basis is None
            cases.append((a, mutant))
        for x, y in cases:
            assert are_orthogonal(x, y) == are_orthogonal(y, x) == reference_orthogonal(x, y)


class TestIsLatin:
    # An affine square is decided by its unit images, any other line by
    # line; both must agree with the definition.

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_built_square(self, n):
        for p in unit_polys(n):
            square = latin_square(rule_from_poly(p))
            assert square._basis is not None
            assert is_latin(square) and reference_latin(square)

    def test_singular_maps_are_not_latin(self):
        # L(1) = L(2) repeats entries down every column; R(1) = 0 along every row.
        for images, latin in (([1, 1, 1, 2], False), ([1, 2, 0, 2], False), ([1, 2, 3, 2], True)):
            square = affine_square(2, images, 3)
            assert is_latin(square) == reference_latin(square) == latin

    @settings(max_examples=40)
    @given(affine_pairs())
    def test_affine_squares(self, pair):
        for square in pair:
            assert square._basis is not None
            assert is_latin(square) == reference_latin(square)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 256, 257])
    def test_orthogonality_cases(self, n):
        # Cyclic, built, random, row-shuffled, striped and scrambled squares.
        cases = orthogonality_cases(n, random.Random(2000 + n))
        squares = [square for pair in cases for square in pair]
        assert all(is_latin(square) == reference_latin(square) for square in squares)
        seen = {(square._basis is not None, reference_latin(square)) for square in squares}
        if n in (4, 8, 256):
            assert seen == {(True, True), (True, False), (False, True), (False, False)}
        assert n & (n - 1) == 0 or not any(affine for affine, _ in seen)


class TestSuperposedRank:
    def test_window_rows_are_the_global_map(self):
        rng = random.Random(5)
        for p in (0x3, 0x5, 0x7, 0xB, 0x1F, 0x211):
            rule = rule_from_poly(p)
            for cells in (rule.diameter, 2 * rule.diameter + 3):
                for _ in range(20):
                    x = rng.getrandbits(cells)
                    bits = [(x >> j) & 1 for j in range(cells)]
                    parities = [bin(row & x).count("1") & 1 for row in window_rows(rule, cells)]
                    assert parities == global_map(rule, bits)

    def test_rank_examples(self):
        assert gf2_rank([]) == gf2_rank([0]) == 0
        assert gf2_rank([0b110, 0b011, 0b101]) == 2
        assert gf2_rank([0b100, 0b110, 0b111]) == 3
        assert superposed_rank(0x5, 0x7) == 4
        assert superposed_rank(0x9, 0xF) == 5    # gcd X + 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_are_orthogonal(self, n):
        polys = list(unit_polys(n))
        squares = {p: latin_square(rule_from_poly(p)) for p in polys}
        for f in polys:
            for g in polys:
                assert (superposed_rank(f, g) == 2 * n) == are_orthogonal(squares[f], squares[g])

    @pytest.mark.parametrize("n", [64, 256, 1000])
    def test_beyond_exhaustive_reach(self, n, monkeypatch):
        # Enumerated pairs are full rank; a shared factor h of degree dh
        # leaves rank at most 2n - dh.
        monkeypatch.setattr(const_lang, "BLOCK_CAP", 64)
        rng = random.Random(n)
        for f, g in sampled_chunk_pairs(n, rng):
            assert f.bit_length() == g.bit_length() == n + 1
            assert superposed_rank(f, g) == 2 * n
        dh = rng.randrange(1, n - 3)  # sampled_chunk_pairs needs degree 4 or more
        h = random_unit_poly(rng, dh)
        for f, g in sampled_chunk_pairs(n - dh, rng)[::2]:
            assert superposed_rank(mul(h, f), mul(h, g)) <= 2 * n - dh
