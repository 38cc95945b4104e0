"""Command-line front end.

Polynomials appear everywhere in the hex wire format "0x…" (bit i =
coefficient of X^i).  Pair listings stream in the pinned deterministic
order; counts are printed as exact decimal integers.  Each subcommand's
handler checks its arguments and returns its output as an iterable of text
blocks; ``run`` alone opens the output and writes each block with one
write and one flush.  Exit codes: 0 on success, 1 on domain errors (bad
polynomial, k > n, guarded sizes) or an output that cannot be written, 2
on usage errors.
"""

from __future__ import annotations

import argparse
import binascii
import json
import sys
from contextlib import nullcontext
from itertools import islice
from typing import Iterable, Iterator

from .compositions import compositions, count_compositions
from .const_lang import block_cap, count_words, words_of_length
from .enumeration import _coprime_pairs, count_pairs, count_pairs_sum, lane_bytes, lane_columns, oracle_pairs, pair_chunks
from .euclid import euclid_trace
from .gf2poly import constant_term, degree, format_poly, gcd, parse_poly
from .oca import are_orthogonal, latin_square, rule_from_poly


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, run one subcommand, write its text blocks to the
    output, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        blocks = args.handler(args)  # argument and guard errors come before the output is opened
        with nullcontext(sys.stdout) if args.output == "-" else open(args.output, "w", encoding="utf-8") as out:
            for block in blocks:
                out.write(block)
                out.flush()
        return 0
    except BrokenPipeError:
        return 0
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocagen",
        description="Exhaustively generate linear binary orthogonal cellular automata "
                    "(equivalently: coprime equal-degree polynomial pairs over GF(2) "
                    "with unit constant terms).",
    )
    parser.set_defaults(output="-")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream all pairs of one degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--limit", type=int, default=None, help="emit at most this many pairs")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--check", action="store_true",
                   help="verify the gcd and degrees of every pair in each chunk before it is written "
                        "(with --limit, the whole of the last chunk)")
    p.add_argument("--output", default="-", help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("count", help="count the pairs of one degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--method", choices=("closed", "sum", "oracle"), default="closed")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("oracle", help="brute-force pair listing (guarded)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", default="-")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="analyze one polynomial pair")
    p.add_argument("--f", required=True, metavar="HEX")
    p.add_argument("--g", required=True, metavar="HEX")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("words", help="valid constant-term words of one length")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--output", default="-")
    p.set_defaults(handler=_cmd_words)

    p = sub.add_parser("compositions", help="ordered part sequences summing to n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--output", default="-")
    p.set_defaults(handler=_cmd_compositions)

    p = sub.add_parser("square", help="render the Latin square(s) of linear rules")
    p.add_argument("--poly", required=True, metavar="HEX")
    p.add_argument("--poly2", default=None, metavar="HEX")
    p.add_argument("--check-orthogonal", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default="-")
    p.set_defaults(handler=_cmd_square)

    return parser


def _checked(chunks: Iterable[bytes], n: int) -> Iterator[bytes]:
    """The chunks of lanes, each passed on once every lane in it is checked:
    a lane's twin line (g, f) has the same gcd and degrees as (f, g)."""
    for lanes in chunks:
        for f, g in zip(*lane_columns(lanes, n)):
            if gcd(f, g) != 1:
                raise ValueError(f"check failed: gcd({f:#x}, {g:#x}) != 1")
            if degree(f) != n or degree(g) != n:
                raise ValueError(f"check failed: ({f:#x}, {g:#x}) is not of degree {n}")
        yield lanes


def _lines(lines: Iterator[str], cap: int) -> Iterator[str]:
    """The lines joined in blocks of at most ``cap`` lines."""
    return iter(lambda: "".join(islice(lines, cap)), "")


def _decimal(value: int) -> str:
    """The exact decimal digits of a count: str() of an int past 4,300
    digits raises on current Pythons, str() of a Decimal does not."""
    from decimal import Decimal  # imported here to keep the pair stream's start-up light

    return str(Decimal(value))


def _pair_texts(chunks: Iterable[bytes], fmt: str, n: int, total: int,
                rows: tuple[tuple[int, int], ...]) -> Iterator[str]:
    """The first ``total`` lines of ``chunks`` as a listing in ``fmt``: the
    head with the first block, the separator with each later block, then the
    tail (with the head if no block was made); no chunk is pulled once the
    lines are made, and chunks that run out first raise ValueError.  A chunk
    is two columns of lane_bytes(n)-byte little-endian ints, and its i-th
    value of each column gives one line per row of ``rows``, which names the
    columns that the line's f and g read.  A degree-n polynomial has
    n // 4 + 1 hex digits, so the lines of one value are one template with
    two holes a row: two strided copies per digit and row fill them."""
    head, line, sep, tail = {
        "text": ("", "0x%s 0x%s\n", "", ""),
        "csv": ("f,g\n", "0x%s,0x%s\n", "", ""),
        "json": ('{"degree": %d, "count": %s, "pairs": [', '{"f": "0x%s", "g": "0x%s"}', ", ", "]}\n"),
    }[fmt]
    if fmt == "json":
        head %= (n, _decimal(total))
    size, digits = lane_bytes(n), n // 4 + 1
    lasts = line.index("%s") + digits - 1, line.rindex("%s") + 2 * digits - 3  # each number's last digit
    line = (line % ("0" * digits, "0" * digits) + sep).encode()
    holes = [(r * len(line) + last, col) for r, row in enumerate(rows) for last, col in zip(lasts, row)]
    unit = line * len(rows)
    chunks, left, lead, end = iter(chunks), total, head, head + tail
    while left > 0 and (cols := next(chunks, None)) is not None:
        hexed = binascii.hexlify(cols)
        half = len(hexed) >> 1
        out = bytearray(unit * (half // (2 * size)))
        for hole, col in holes:
            for j in range(digits):  # nibble j: the high one of byte j // 2 comes first
                out[hole - j::len(unit)] = hexed[col * half + (j ^ 1):(col + 1) * half:2 * size]
        lines = min(len(out) // len(line), left)
        left -= lines
        del out[lines * len(line) - len(sep):]
        yield lead + out.decode("ascii")
        lead, end = sep, tail
    if left > 0:
        raise ValueError(f"the stream ended {left} lines short of {total}")
    if end:
        yield end


def _cmd_enumerate(args: argparse.Namespace) -> Iterator[str]:
    n = args.degree
    limit = args.limit
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    total = count_pairs(n) if limit is None else min(count_pairs(n), limit)
    chunks = _checked(pair_chunks(n), n) if args.check else pair_chunks(n)
    return _pair_texts(chunks, args.format, n, total, ((0, 1), (1, 0)))


def _cmd_count(args: argparse.Namespace) -> list[str]:
    count = {"closed": count_pairs, "sum": count_pairs_sum,
             "oracle": lambda n: sum(2 for _ in _coprime_pairs(n))}[args.method]
    return [_decimal(count(args.degree)) + "\n"]


def _cmd_oracle(args: argparse.Namespace) -> Iterator[str]:
    n = args.degree
    pairs = sorted(oracle_pairs(n))
    size, cap = lane_bytes(n), block_cap(n)
    chunks = (b"".join(pair[x].to_bytes(size, "little") for x in (0, 1) for pair in pairs[i:i + cap])
              for i in range(0, len(pairs), cap))
    return _pair_texts(chunks, args.format, n, len(pairs), ((0, 1),))


def _cmd_verify(args: argparse.Namespace) -> list[str]:
    f = parse_poly(args.f)
    g = parse_poly(args.g)
    trace = euclid_trace(f, g)
    deg_f, deg_g = degree(f), degree(g)
    coprime = trace.gcd == 1
    member = (
        coprime
        and deg_f == deg_g
        and deg_f >= 1
        and constant_term(f) == 1
        and constant_term(g) == 1
    )
    if args.format == "json":
        return [json.dumps({
            "f": format_poly(f),
            "g": format_poly(g),
            "degree_f": None if f == 0 else deg_f,
            "degree_g": None if g == 0 else deg_g,
            "constant_term_f": constant_term(f),
            "constant_term_g": constant_term(g),
            "gcd": format_poly(trace.gcd),
            "coprime": coprime,
            "orthogonal_pair": member,
            "euclid_quotients": [format_poly(q) for q in trace.quotients],
        }) + "\n"]
    return [
        f"f: {format_poly(f)} = {format_poly(f, 'symbolic')} (degree {deg_f}, constant term {constant_term(f)})\n",
        f"g: {format_poly(g)} = {format_poly(g, 'symbolic')} (degree {deg_g}, constant term {constant_term(g)})\n",
        f"gcd: {format_poly(trace.gcd)} = {format_poly(trace.gcd, 'symbolic')}\n",
        f"coprime: {'yes' if coprime else 'no'}\n",
        f"orthogonal pair (equal degree, unit constant terms, coprime): {'yes' if member else 'no'}\n",
        "euclid quotients: " + " ".join(format_poly(q) for q in trace.quotients) + "\n",
    ]


def _cmd_words(args: argparse.Namespace) -> Iterable[str]:
    k = args.length
    if args.count_only:
        return [_decimal(count_words(k)) + "\n"]
    return _lines(map("%s\n".__mod__, words_of_length(k)), block_cap(k))


def _cmd_compositions(args: argparse.Namespace) -> Iterable[str]:
    if args.count_only:
        return [_decimal(count_compositions(args.n, args.k)) + "\n"]
    return _lines((",".join(map(str, parts)) + "\n" for parts in compositions(args.n, args.k)), block_cap(args.n))


def _render_square(entries: tuple[tuple[int, ...], ...], order: int) -> str:
    width = len(str(order - 1))
    return "\n".join(" ".join(f"{e:>{width}}" for e in row) for row in entries)


def _cmd_square(args: argparse.Namespace) -> list[str]:
    if args.check_orthogonal and args.poly2 is None:
        raise ValueError("--check-orthogonal needs --poly2")
    first_rule = rule_from_poly(parse_poly(args.poly))
    second_rule = rule_from_poly(parse_poly(args.poly2)) if args.poly2 is not None else None
    if args.check_orthogonal and second_rule.diameter != first_rule.diameter:
        raise ValueError(f"orders differ: {1 << (first_rule.diameter - 1)} vs "
                         f"{1 << (second_rule.diameter - 1)}")
    first = latin_square(first_rule)
    second = latin_square(second_rule) if second_rule is not None else None
    orthogonal = are_orthogonal(first, second) if args.check_orthogonal else None
    if args.format == "json":
        doc = {"order": first.order, "poly": format_poly(first_rule.coeffs),
               "square": [list(r) for r in first.entries]}
        if second is not None:
            doc["poly2"] = format_poly(second_rule.coeffs)
            doc["square2"] = [list(r) for r in second.entries]
        if orthogonal is not None:
            doc["orthogonal"] = orthogonal
        return [json.dumps(doc) + "\n"]
    texts = [_render_square(first.entries, first.order) + "\n"]
    if second is not None:
        texts.append("\n" + _render_square(second.entries, second.order) + "\n")
    if orthogonal is not None:
        texts.append(f"\northogonal: {'yes' if orthogonal else 'no'}\n")
    return texts


if __name__ == "__main__":
    main()
