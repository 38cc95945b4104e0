"""Command-line front end.

Polynomials appear everywhere in the hex wire format "0x…" (bit i =
coefficient of X^i).  Pair listings stream in the pinned deterministic
order; counts are printed as exact decimal integers.  Exit codes: 0 on
success, 1 on domain errors (bad polynomial, k > n, guarded sizes) or an
output that cannot be written, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import binascii
import json
import sys
from contextlib import contextmanager
from itertools import islice
from typing import Iterable, Iterator, TextIO

from .compositions import compositions, count_compositions
from .const_lang import count_words, words_of_length
from .enumeration import count_pairs, count_pairs_sum, lane_bytes, lane_columns, oracle_pairs, pair_chunks
from .euclid import euclid_trace
from .gf2poly import constant_term, degree, format_poly, gcd, parse_poly
from .oca import are_orthogonal, latin_square, rule_from_poly

FLUSH_EVERY = 1024  # lines per block of a words, compositions or oracle listing


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
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


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


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


def _write_lines(path: str, lines: Iterator[str]) -> None:
    """Write the lines in blocks of at most FLUSH_EVERY lines."""
    with _open_out(path) as out:
        _write_blocks(out, iter(lambda: "".join(islice(lines, FLUSH_EVERY)), ""))


def _write_blocks(out: TextIO, blocks: Iterable[str], head: str = "", sep: str = "", tail: str = "") -> None:
    """Write ``head``, the blocks joined by ``sep``, then ``tail``: one write
    and one flush per block."""
    lead = head
    for block in blocks:
        out.write(lead + block)
        out.flush()
        lead = sep
    if lead != sep:  # no block was written, so neither was the head
        tail = head + tail
    if tail:
        out.write(tail)


def _write_pairs(path: str, chunks: Iterable[bytes], fmt: str, n: int, total: int,
                 rows: tuple[tuple[int, int], ...]) -> None:
    """Write the first ``total`` lines of ``chunks`` as a listing in ``fmt``;
    no chunk is pulled once they are written.  A chunk is two columns of
    lane_bytes(n)-byte little-endian ints, and its i-th value of each column
    gives one line per row of ``rows``, which names the columns that the
    line's f and g read.  A degree-n polynomial has n // 4 + 1 hex digits,
    so the lines of one value are one template with two holes a row: two
    strided copies per digit and row fill them."""
    head, line, sep, tail = {
        "text": ("", "0x%s 0x%s\n", "", ""),
        "csv": ("f,g\n", "0x%s,0x%s\n", "", ""),
        "json": ('{"degree": %d, "count": %d, "pairs": [' % (n, total), '{"f": "0x%s", "g": "0x%s"}', ", ", "]}\n"),
    }[fmt]
    size, digits = lane_bytes(n), n // 4 + 1
    lasts = line.index("%s") + digits - 1, line.rindex("%s") + 2 * digits - 3  # each number's last digit
    line = (line % ("0" * digits, "0" * digits) + sep).encode()
    holes = [(r * len(line) + last, col) for r, row in enumerate(rows) for last, col in zip(lasts, row)]
    unit = line * len(rows)

    def texts(chunks: Iterator[bytes], left: int) -> Iterator[str]:
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
            yield out.decode("ascii")

    with _open_out(path) as out:
        _write_blocks(out, texts(iter(chunks), total), head, sep, tail)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.degree
    limit = args.limit
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    total = count_pairs(n) if limit is None else min(count_pairs(n), limit)
    chunks = _checked(pair_chunks(n), n) if args.check else pair_chunks(n)
    _write_pairs(args.output, chunks, args.format, n, total, ((0, 1), (1, 0)))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    n = args.degree
    if args.method == "closed":
        value = count_pairs(n)
    elif args.method == "sum":
        value = count_pairs_sum(n)
    else:
        value = len(oracle_pairs(n))
    print(value)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    n = args.degree
    pairs = sorted(oracle_pairs(n))
    size = lane_bytes(n)
    chunks = (b"".join(pair[x].to_bytes(size, "little") for x in (0, 1) for pair in pairs[i:i + FLUSH_EVERY])
              for i in range(0, len(pairs), FLUSH_EVERY))
    _write_pairs(args.output, chunks, args.format, n, len(pairs), ((0, 1),))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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
        print(json.dumps({
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
        }))
        return 0
    print(f"f: {format_poly(f)} = {format_poly(f, 'symbolic')} "
          f"(degree {deg_f}, constant term {constant_term(f)})")
    print(f"g: {format_poly(g)} = {format_poly(g, 'symbolic')} "
          f"(degree {deg_g}, constant term {constant_term(g)})")
    print(f"gcd: {format_poly(trace.gcd)} = {format_poly(trace.gcd, 'symbolic')}")
    print(f"coprime: {'yes' if coprime else 'no'}")
    print(f"orthogonal pair (equal degree, unit constant terms, coprime): "
          f"{'yes' if member else 'no'}")
    print("euclid quotients: " + " ".join(format_poly(q) for q in trace.quotients))
    return 0


def _cmd_words(args: argparse.Namespace) -> int:
    k = args.length
    if args.count_only:
        print(count_words(k))
        return 0
    _write_lines(args.output, map("%s\n".__mod__, words_of_length(k)))
    return 0


def _cmd_compositions(args: argparse.Namespace) -> int:
    if args.count_only:
        print(count_compositions(args.n, args.k))
        return 0
    _write_lines(args.output, (",".join(map(str, parts)) + "\n" for parts in compositions(args.n, args.k)))
    return 0


def _render_square(entries: tuple[tuple[int, ...], ...], order: int) -> str:
    width = len(str(order - 1))
    return "\n".join(" ".join(f"{e:>{width}}" for e in row) for row in entries)


def _cmd_square(args: argparse.Namespace) -> int:
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
    with _open_out(args.output) as out:
        if args.format == "json":
            doc = {"order": first.order, "poly": args.poly,
                   "square": [list(r) for r in first.entries]}
            if second is not None:
                doc["poly2"] = args.poly2
                doc["square2"] = [list(r) for r in second.entries]
            if orthogonal is not None:
                doc["orthogonal"] = orthogonal
            out.write(json.dumps(doc) + "\n")
            return 0
        out.write(_render_square(first.entries, first.order) + "\n")
        if second is not None:
            out.write("\n" + _render_square(second.entries, second.order) + "\n")
        if orthogonal is not None:
            out.write(f"\northogonal: {'yes' if orthogonal else 'no'}\n")
    return 0


if __name__ == "__main__":
    main()
