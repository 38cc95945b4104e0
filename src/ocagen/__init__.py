"""Exhaustive generation of linear binary orthogonal cellular automata.

The package enumerates, counts and verifies all ordered pairs of coprime
polynomials over GF(2) of equal degree n with unit constant terms; each
such pair is a linear orthogonal cellular automaton of diameter n+1, and
the CA layer materializes the corresponding pair of orthogonal Latin
squares.
"""

from .compositions import compositions, count_compositions
from .const_lang import (
    ACCEPT,
    START,
    STATES,
    count_words,
    delta,
    inverse_delta,
    is_valid_word,
    words_of_length,
)
from .enumeration import (
    ORACLE_DEGREE_LIMIT,
    PairRecord,
    assemble_quotients,
    count_pairs,
    count_pairs_sum,
    enumerate_pairs,
    intermediate_sequences,
    oracle_pairs,
    pairs_for_composition,
)
from .euclid import bijection_flip, dilcue, euclid_trace
from .gf2poly import (
    DEGREE_OF_ZERO,
    Poly,
    constant_term,
    degree,
    divmod_,
    format_poly,
    gcd,
    mul,
    parse_poly,
    unit_polys,
)
from .oca import (
    LatinSquare,
    LocalRule,
    are_orthogonal,
    is_latin,
    latin_square,
    rule_from_poly,
)

__version__ = "0.1.0"

__all__ = [
    "ACCEPT",
    "DEGREE_OF_ZERO",
    "LatinSquare",
    "LocalRule",
    "ORACLE_DEGREE_LIMIT",
    "PairRecord",
    "Poly",
    "START",
    "STATES",
    "are_orthogonal",
    "assemble_quotients",
    "bijection_flip",
    "compositions",
    "constant_term",
    "count_compositions",
    "count_pairs",
    "count_pairs_sum",
    "count_words",
    "degree",
    "delta",
    "dilcue",
    "divmod_",
    "enumerate_pairs",
    "euclid_trace",
    "format_poly",
    "gcd",
    "intermediate_sequences",
    "inverse_delta",
    "is_latin",
    "is_valid_word",
    "latin_square",
    "mul",
    "oracle_pairs",
    "pairs_for_composition",
    "parse_poly",
    "rule_from_poly",
    "unit_polys",
    "words_of_length",
]
