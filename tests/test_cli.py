import hashlib
import json
import os
import random
import subprocess
import sys
import time
from bisect import bisect_left
from decimal import Decimal
from itertools import accumulate, count, islice
from pathlib import Path

import pytest

import ocagen
from ocagen import const_lang, enumeration
from ocagen.cli import _pair_texts, run
from ocagen.compositions import count_compositions
from ocagen.const_lang import block_cap, count_words
from ocagen.enumeration import (
    ORACLE_DEGREE_LIMIT,
    count_pairs,
    pair_chunks,
    pairs_for_composition,
)
from ocagen.gf2poly import gcd, parse_poly
from ocagen.oca import SQUARE_DEGREE_LIMIT
from test_enumeration import assert_same, chunk_pairs, lane_pairs, replay_pairs, seeded_chunks

ABOVE_SQUARE_GUARD = hex((1 << (SQUARE_DEGREE_LIMIT + 1)) | 1)


# sha256 of the CLI's output for each writer format, taken from the line-by-
# line writer that the block writer replaced; the words and compositions
# listings pin the automaton's word order and the composition order.
WRITER_SHA256 = {
    ("enumerate", "--degree", "8", "--format", "csv"):
        "2e5394ea9f98bdc3d16a5d961078f8ae6d947141518e9c9ef22026ce6f434886",
    ("enumerate", "--degree", "8", "--format", "json"):
        "2ca30bbc219295569970579da928c9e99860b128bfebaa44c34ecc361277ecbe",
    ("enumerate", "--degree", "8", "--limit", "1000", "--check"):
        "f90cded70c149462a3a6bf1d73f38d017d0107055154744bdc6d2868f6f902a9",
    # the ROADMAP's degree-10 reference hash of the text listing
    ("enumerate", "--degree", "10"):
        "4e062eec03ea37c6cc389e023ced22fd9cb7fd9f247665e1e572123d6602fe6f",
    # 300,000 lines: the slice (1, 17) is two chunks at the real cap, and the
    # listing goes on into (2, 16); checked against the assemble + dilcuE replay
    ("enumerate", "--degree", "18", "--limit", "300000"):
        "8c68902a38f4d10ed3a3a88b5cce1d5888e5e4ddcdbbec7309576385eab261e4",
    ("oracle", "--degree", "6"):
        "a97f669c81de56147544da28b3c4cfa293c484a89bde365d9dd0bce0f20754f0",
    # 87,382 words: two 2^16-word blocks
    ("words", "--length", "18"):
        "aa4c25fd1bdbc97e02c0a741919a6fea57502a8332b649f46040df021f029b99",
    # 349,526 words: eight 3-symbol-prefix blocks, from all three states
    ("words", "--length", "20"):
        "8ec19832df9cf2ad6a4f68305dcfeab40b9d5eef7da7439c738d996e360a5f6b",
    ("words", "--length", "12"):
        "7a909cf4dd70ad12c8e6b08ac4f310167b78904eb159d7aa0eab8b417268adfd",
    ("compositions", "--n", "9", "--k", "4"):
        "64d1daab4915d66dc67ee6a1e82f2d17e24e8b9aca8d53718e1ee4aeeac98e95",
    # empty listings: '{"degree": 1, "count": 0, "pairs": []}\n' and 'f,g\n'
    ("enumerate", "--degree", "1", "--format", "json"):
        "2a01253aa09730f026a27471e351dcc10d02bfb4d92878ad9a762d68d195e96d",
    ("enumerate", "--degree", "3", "--limit", "0", "--format", "csv"):
        "6102db8ed55d97bf00cf73ff80c5f7b138b126a91ec359cdf1c1e4665f898ab2",
    ("oracle", "--degree", "1", "--format", "json"):
        "2a01253aa09730f026a27471e351dcc10d02bfb4d92878ad9a762d68d195e96d",
    # Every lane width, each cut at an odd line: 32-bit lanes, the cut inside
    # a twin pair past the first chunk; 64-bit lanes; generic wider lanes.
    ("enumerate", "--degree", "20", "--limit", "70001", "--format", "json"):
        "d510f468ac32426c8addd875b8f3a03fbbae928d0e2463c37a6acdc046bf12a3",
    ("enumerate", "--degree", "40", "--limit", "5000", "--format", "csv"):
        "7abe6f4fb805d5f5cac2cdc8bf3fd3f4c732f92bd56ce5cbb69f78f0aa10439c",
    ("enumerate", "--degree", "65", "--limit", "3001"):
        "6ff13376bbb165092178954182ffbc69ae41a37db3a8e0412bad988c25558b16",
    ("enumerate", "--degree", "13", "--limit", "3", "--format", "json"):
        "91e8c2683c609081d52a77c2b33112e7c4c0bb63bd5854947f3068d29faea013",
    ("oracle", "--degree", "7", "--format", "csv"):
        "cf714fbe7fdbcc62697c7cab8e0bed04201e247f0c7cdfb1a8139a6922950a66",
}


# The reference pair writer: one % call per chunk of ints, on the line
# template repeated.
PERCENT_FORMATS = {
    "text": ("", "%#x %#x\n", "", ""),
    "csv": ("f,g\n", "%#x,%#x\n", "", ""),
    "json": ('{"degree": %d, "count": %d, "pairs": [', '{"f": "%#x", "g": "%#x"}', ", ", "]}\n"),
}


def percent_listing(chunks, fmt, n, total):
    head, line, sep, tail = PERCENT_FORMATS[fmt]
    if fmt == "json":
        head %= (n, total)
    return head + sep.join(sep.join([line] * (len(flat) >> 1)) % flat for flat in chunks) + tail


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv", list(WRITER_SHA256), ids=" ".join)
def test_writer_output_pinned(argv, capsys):
    assert run(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == WRITER_SHA256[argv]


# Each lane of a chunk is written as its two lines, (f, g) and (g, f).
TWIN_ROWS = ((0, 1), (1, 0))


class TestPairWriter:
    # Every chunk of the stream, written from its lanes, equals its ints
    # written by the reference writer, in every format.

    @pytest.mark.parametrize("cap", [3, 40])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_chunk_under_small_caps(self, n, cap, monkeypatch):
        monkeypatch.setattr(const_lang, "BLOCK_CAP", cap)
        chunks = list(pair_chunks(n))
        flats = [lane_pairs(buf, n) for buf in chunks]
        for fmt in PERCENT_FORMATS:
            text = "".join(_pair_texts(chunks, fmt, n, count_pairs(n), TWIN_ROWS))
            assert_same(text, percent_listing(flats, fmt, n, count_pairs(n)))

    @pytest.mark.parametrize("n", [20, 40, 64, 100])
    def test_seeded_chunks_at_every_lane_width(self, n, monkeypatch):
        monkeypatch.setattr(const_lang, "BLOCK_CAP", 256)  # small chunks keep the test quick
        for chunk in seeded_chunks(n, random.Random(n)):
            flat = chunk_pairs(*chunk)
            for fmt in PERCENT_FORMATS:
                text = "".join(_pair_texts([enumeration._lanes(*chunk)], fmt, n, len(flat) >> 1, TWIN_ROWS))
                assert_same(text, percent_listing([flat], fmt, n, len(flat) >> 1))

    def test_json_head_past_the_int_digit_limit(self):
        # The head goes out with the first block (a listing that ends short
        # is an error), so the first block of the real stream is read, closed.
        total, top = count_pairs(7144), 1 << 7144
        first = next(_pair_texts(pair_chunks(7144), "json", 7144, total, TWIN_ROWS))
        doc = json.loads(first + "]}", parse_int=Decimal)
        assert (doc["degree"], doc["count"], len(doc["pairs"])) == (7144, total, block_cap(7144))
        assert doc["pairs"][:2] == [{"f": f"{top | 3:#x}", "g": f"{top | 1:#x}"},
                                    {"f": f"{top | 1:#x}", "g": f"{top | 3:#x}"}]


class TestCount:
    def test_closed(self, capsys):
        assert run(["count", "--degree", "3", "--method", "closed"]) == 0
        assert lines_of(capsys) == ["10"]

    def test_default_method(self, capsys):
        assert run(["count", "--degree", "3"]) == 0
        assert lines_of(capsys) == ["10"]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_methods_agree(self, n, capsys):
        results = []
        for method in ("closed", "sum", "oracle"):
            assert run(["count", "--degree", str(n), "--method", method]) == 0
            results.append(lines_of(capsys))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("argv", [
        ["enumerate"],
        ["count", "--method", "closed"],
        ["count", "--method", "sum"],
        ["count", "--method", "oracle"],
        ["oracle"],
    ], ids=["enumerate", "count-closed", "count-sum", "count-oracle", "oracle"])
    def test_zero_degree_is_domain_error(self, argv, capsys):
        assert run(argv + ["--degree", "0"]) == 1
        assert "degree must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, value", [
        (["count", "--degree", "7144"], count_pairs(7144)),
        (["words", "--length", "15000", "--count-only"], count_words(15000)),
        (["compositions", "--n", "20000", "--k", "10000", "--count-only"], count_compositions(20000, 10000)),
    ], ids=["count", "words", "compositions"])
    def test_counts_past_the_int_digit_limit(self, argv, value, capsys):
        # str() of an int refuses more than 4,300 digits on current Pythons
        assert len(str(Decimal(value))) > 4300
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert Decimal(out) == value


class TestEnumerate:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_checked_stream_matches_count(self, n, capsys):
        assert run(["enumerate", "--degree", str(n), "--check"]) == 0
        emitted = lines_of(capsys)
        assert run(["count", "--degree", str(n)]) == 0
        assert len(emitted) == int(lines_of(capsys)[0])

    def test_text_format(self, capsys):
        assert run(["enumerate", "--degree", "2"]) == 0
        assert lines_of(capsys) == ["0x7 0x5", "0x5 0x7"]

    def test_csv_format(self, capsys):
        assert run(["enumerate", "--degree", "2", "--format", "csv"]) == 0
        assert lines_of(capsys) == ["f,g", "0x7,0x5", "0x5,0x7"]

    def test_json_schema_round_trips(self, capsys):
        assert run(["enumerate", "--degree", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degree"] == 4
        assert doc["count"] == count_pairs(4) == len(doc["pairs"])
        for pair in doc["pairs"]:
            f, g = parse_poly(pair["f"]), parse_poly(pair["g"])
            assert gcd(f, g) == 1
            assert pair["f"] == format(f, "#x") and pair["g"] == format(g, "#x")

    def test_limit(self, capsys):
        assert run(["enumerate", "--degree", "5", "--limit", "3"]) == 0
        assert len(lines_of(capsys)) == 3

    def test_limit_in_json_count(self, capsys):
        assert run(["enumerate", "--degree", "5", "--limit", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 3 == len(doc["pairs"])

    def test_negative_limit(self, capsys):
        assert run(["enumerate", "--degree", "5", "--limit", "-1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_first_pairs_at_degree_64(self):
        # the first chunk is bounded, so the first pairs come at once at any degree
        src = str(Path(ocagen.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ocagen", "enumerate", "--degree", "64", "--limit", "2"],
                              capture_output=True, text=True, timeout=30, env=env)
        elapsed = time.perf_counter() - start
        top = 1 << 64
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"{top | 3:#x} {top | 1:#x}", f"{top | 1:#x} {top | 3:#x}"]
        assert elapsed < 5

    def test_check_fails_inside_a_chunk(self, capsys, monkeypatch):
        # Each composition of 6 is one chunk; the pair made to fail sits
        # inside the second, so the first chunk is written and the rest is not.
        # The check reads each lane once, as its even line (f, g).
        assert run(["enumerate", "--degree", "6"]) == 0
        unchecked = capsys.readouterr().out
        first = len(list(pairs_for_composition((1, 5))))
        bad = next(islice(pairs_for_composition((2, 4)), 2, None))
        monkeypatch.setattr("ocagen.cli.gcd", lambda f, g: 2 if (f, g) == bad[:2] else gcd(f, g))
        assert run(["enumerate", "--degree", "6", "--check"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: check failed: gcd({bad.f:#x}, {bad.g:#x}) != 1\n"
        assert unchecked.startswith(captured.out)
        assert captured.out.count("\n") == first
        assert f"{bad.f:#x} {bad.g:#x}\n" not in captured.out

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_short_stream_is_an_error(self, fmt, capsys, monkeypatch):
        # A core whose chunks run dry before the count is made is an error,
        # not a short listing with exit 0: here every chunk after two is empty.
        written = sum(1 for parts in ((1, 4), (2, 3)) for _ in pairs_for_composition(parts))
        lanes, made = enumeration._lanes, count()
        monkeypatch.setattr(enumeration, "_lanes", lambda *chunk: lanes(*chunk) if next(made) < 2 else b"")
        assert run(["enumerate", "--degree", "5", "--format", fmt]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: the stream ended {count_pairs(5) - written} lines short of {count_pairs(5)}"]

    def test_checked_limit_crosses_a_chunk(self, capsys):
        # (1, 19) leads the degree-20 stream and is 8 chunks at the real cap.
        assert 65536 == const_lang.BLOCK_CAP < 70000
        assert run(["enumerate", "--degree", "20", "--limit", "70000", "--check"]) == 0
        expected = "".join("%#x %#x\n" % rec[:2] for rec in islice(replay_pairs((1, 19)), 70000))
        assert_same(capsys.readouterr().out, expected)

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_every_limit_cuts_at_its_line(self, fmt, check, capsys, monkeypatch):
        # At a cap of 3 the 170 pairs of degree 5 are 85 chunks of one lane,
        # so every odd limit cuts a chunk between a line and its twin.  Each
        # limit writes the full listing cut to that many lines and makes no
        # chunk past the cut, with or without the check.
        monkeypatch.setattr(const_lang, "BLOCK_CAP", 3)
        total = count_pairs(5)
        argv = ["enumerate", "--degree", "5", "--format", fmt] + ["--check"] * check
        assert run(argv) == 0
        full = capsys.readouterr().out
        lines = full.splitlines(keepends=True)
        pairs = json.loads(full)["pairs"] if fmt == "json" else None
        ends = list(accumulate(len(lane_pairs(buf, 5)) >> 1 for buf in pair_chunks(5)))
        assert ends[-1] == total
        made = []
        lanes = enumeration._lanes
        monkeypatch.setattr(enumeration, "_lanes", lambda *chunk: made.append(chunk) or lanes(*chunk))
        for limit in range(total + 2):
            made.clear()
            assert run(argv + ["--limit", str(limit)]) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                doc = json.loads(out)
                assert doc["count"] == min(limit, total)
                assert doc["pairs"] == pairs[:limit]
            else:
                assert out == "".join(lines[:(fmt == "csv") + limit])
            assert len(made) == bisect_left(ends, min(limit, total)) + (limit > 0)

    def test_check_reads_one_gcd_per_lane(self, capsys, monkeypatch):
        assert run(["enumerate", "--degree", "8"]) == 0
        unchecked = capsys.readouterr().out
        calls = []
        monkeypatch.setattr("ocagen.cli.gcd", lambda f, g: calls.append(f) or gcd(f, g))
        assert run(["enumerate", "--degree", "8", "--check"]) == 0
        assert_same(capsys.readouterr().out, unchecked)
        assert len(calls) == count_pairs(8) // 2

    def test_output_file(self, tmp_path):
        target = tmp_path / "pairs.csv"
        assert run(["enumerate", "--degree", "3", "--format", "csv",
                    "--output", str(target)]) == 0
        rows = target.read_text().splitlines()
        assert rows[0] == "f,g"
        assert len(rows) == 11


class TestOracle:
    def test_matches_enumerate_as_set(self, capsys):
        assert run(["oracle", "--degree", "3"]) == 0
        oracle_lines = set(lines_of(capsys))
        assert run(["enumerate", "--degree", "3"]) == 0
        assert set(lines_of(capsys)) == oracle_lines

    def test_guard(self, capsys):
        assert run(["oracle", "--degree", str(ORACLE_DEGREE_LIMIT + 1)]) == 1
        assert "guard" in capsys.readouterr().err
        assert run(["oracle", "--degree", "17"]) == 1
        assert "guard" in capsys.readouterr().err

    def test_guard_states_the_gcds_it_would_run(self, capsys):
        assert run(["oracle", "--degree", "13"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: oracle degree 13 exceeds the guard 12; it would need 8,386,560 gcd computations"]


class TestVerify:
    def test_coprime_pair(self, capsys):
        assert run(["verify", "--f", "0x5", "--g", "0x7"]) == 0
        out = capsys.readouterr().out
        assert "gcd: 0x1" in out
        assert "coprime: yes" in out
        assert "orthogonal pair (equal degree, unit constant terms, coprime): yes" in out
        assert "euclid quotients: 0x1 0x3 0x2" in out

    def test_non_coprime_pair(self, capsys):
        assert run(["verify", "--f", "0x9", "--g", "0xf"]) == 0
        out = capsys.readouterr().out
        assert "gcd: 0x3" in out
        assert "coprime: no" in out

    def test_symbolic_input_accepted(self, capsys):
        assert run(["verify", "--f", "x^2+1", "--g", "x^2+x+1"]) == 0
        assert "coprime: yes" in capsys.readouterr().out

    def test_json(self, capsys):
        assert run(["verify", "--f", "0x5", "--g", "0x7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gcd"] == "0x1"
        assert doc["coprime"] is True
        assert doc["orthogonal_pair"] is True
        assert doc["euclid_quotients"] == ["0x1", "0x3", "0x2"]

    def test_bad_polynomial(self, capsys):
        assert run(["verify", "--f", "0xZZ", "--g", "0x7"]) == 1
        assert "error" in capsys.readouterr().err


class TestWords:
    def test_listing(self, capsys):
        assert run(["words", "--length", "2"]) == 0
        assert lines_of(capsys) == ["00", "01"]

    def test_count_only(self, capsys):
        assert run(["words", "--length", "4", "--count-only"]) == 0
        assert lines_of(capsys) == ["6"]

    def test_negative_length(self, capsys):
        assert run(["words", "--length", "-2"]) == 1


class TestCompositions:
    def test_listing(self, capsys):
        assert run(["compositions", "--n", "3", "--k", "2"]) == 0
        assert lines_of(capsys) == ["1,2", "2,1"]

    def test_count_only(self, capsys):
        assert run(["compositions", "--n", "4", "--k", "2", "--count-only"]) == 0
        assert lines_of(capsys) == ["3"]

    def test_k_above_n(self, capsys):
        assert run(["compositions", "--n", "3", "--k", "4"]) == 1
        assert "error" in capsys.readouterr().err


class TestSquare:
    def test_render(self, capsys):
        assert run(["square", "--poly", "0x5"]) == 0
        assert lines_of(capsys) == ["0 1 2 3", "1 0 3 2", "2 3 0 1", "3 2 1 0"]

    def test_orthogonal_check(self, capsys):
        assert run(["square", "--poly", "0x5", "--poly2", "0x7",
                    "--check-orthogonal"]) == 0
        assert "orthogonal: yes" in capsys.readouterr().out

    def test_non_orthogonal(self, capsys):
        assert run(["square", "--poly", "0x9", "--poly2", "0xf",
                    "--check-orthogonal"]) == 0
        assert "orthogonal: no" in capsys.readouterr().out

    def test_json(self, capsys):
        assert run(["square", "--poly", "0x5", "--poly2", "0x7",
                    "--check-orthogonal", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 4
        assert (doc["poly"], doc["poly2"]) == ("0x5", "0x7")
        assert doc["square"][1] == [1, 0, 3, 2]
        assert len(doc["square2"]) == 4
        assert doc["orthogonal"] is True

    def test_json_polys_in_wire_format(self, capsys):
        assert run(["square", "--poly", "x^2+1", "--poly2", " 0X7 ", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["poly"], doc["poly2"]) == ("0x5", "0x7")

    def test_check_needs_second_poly(self, capsys):
        assert run(["square", "--poly", "0x5", "--check-orthogonal"]) == 1
        capsys.readouterr()
        # the arguments are checked before any square is built
        assert run(["square", "--poly", ABOVE_SQUARE_GUARD, "--check-orthogonal"]) == 1
        assert "--poly2" in capsys.readouterr().err

    def test_orders_differ_before_build(self, capsys, monkeypatch):
        def refuse(rule):
            raise AssertionError("no square may be built")

        monkeypatch.setattr("ocagen.cli.latin_square", refuse)
        at_guard = hex((1 << SQUARE_DEGREE_LIMIT) | 1)
        assert run(["square", "--poly", at_guard, "--poly2", "0x3",
                    "--check-orthogonal"]) == 1
        assert "orders differ" in capsys.readouterr().err

    def test_mixed_orders_render_without_check(self, capsys):
        assert run(["square", "--poly", "0x3", "--poly2", "0x5"]) == 0
        assert lines_of(capsys) == ["0 1", "1 0", "", "0 1 2 3", "1 0 3 2", "2 3 0 1", "3 2 1 0"]

    def test_guard(self, capsys):
        assert run(["square", "--poly", ABOVE_SQUARE_GUARD]) == 1
        assert "limited to degree" in capsys.readouterr().err

    def test_invalid_polynomial(self, capsys):
        assert run(["square", "--poly", "0x6"]) == 1
        assert "error" in capsys.readouterr().err


def first_line_in_child(argv):
    """Run ``python -m ocagen *argv`` into a pipe whose reader closes after
    one line.  Returns the line, the exit code, stderr and the run's peak
    RSS in bytes.  A process takes its parent's peak RSS into its own
    ru_maxrss when it starts, so a fresh interpreter starts the measured
    run and reads its peak back as RUSAGE_CHILDREN, clear of the test run's."""
    src = str(Path(ocagen.__file__).resolve().parents[1])
    code = ("import json, resource, subprocess, sys; "
            f"proc = subprocess.Popen([sys.executable, '-m', 'ocagen', *{argv!r}], "
            "stdout=subprocess.PIPE, stderr=subprocess.PIPE); "
            "line = proc.stdout.readline().decode(); proc.stdout.close(); err = proc.stderr.read().decode(); "
            "print(json.dumps([line, proc.wait(), err, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    line, returncode, err, peak = json.loads(proc.stdout)
    return line, returncode, err, peak * (1 if sys.platform == "darwin" else 1024)  # ru_maxrss is KiB on Linux


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--degree", "3"],
        ["words", "--length", "4"],
        ["oracle", "--degree", "3"],
        ["compositions", "--n", "4", "--k", "2"],
        ["square", "--poly", "0x5"],
    ], ids=" ".join)
    def test_unwritable_output(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert run(argv + ["--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err

    @pytest.mark.parametrize("argv", [
        ["square", "--poly", "0x5", "--check-orthogonal"],
        ["enumerate", "--degree", "0"],
        ["enumerate", "--degree", "3", "--limit", "-1"],
        ["words", "--length", "-1"],
        ["compositions", "--n", "3", "--k", "4"],
        ["oracle", "--degree", "13"],
    ], ids=" ".join)
    def test_errors_before_the_output_is_opened(self, argv, tmp_path, capsys):
        path = tmp_path / "x"
        assert run(argv + ["--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("argv, first", [
        (["words", "--length", "64000"], "0" * 64000 + "\n"),
        (["compositions", "--n", "20000", "--k", "19999"], "1," * 19998 + "2\n"),
    ], ids=["words", "compositions"])
    def test_first_line_of_a_long_listing_in_bounded_memory(self, argv, first):
        # A block holds at most block_cap(line length) lines, so a listing of
        # long lines holds a few MB before its first line is written.
        line, code, err, peak = first_line_in_child(argv)
        assert (line, code, err) == (first, 0, "")
        assert peak < 64 << 20

    def test_oracle_count_holds_no_pairs(self):
        # The brute-force count walks each unordered coprime pair once and
        # keeps none; holding both orders of every pair peaked at 101 MiB.
        line, code, err, peak = first_line_in_child(["count", "--method", "oracle", "--degree", "11"])
        assert (line, code, err) == (f"{count_pairs(11)}\n", 0, "")
        assert peak < 40 << 20

    @pytest.mark.parametrize("argv", [["enumerate", "--degree", "14"], ["words", "--length", "40"]], ids=" ".join)
    def test_reader_closing_a_real_pipe_exits_0(self, argv):
        line, code, err, _ = first_line_in_child(argv)
        assert line.endswith("\n") and (code, err) == (0, "")

    def test_closed_reader_exits_0(self, monkeypatch):
        def closed(*args):
            raise BrokenPipeError

        monkeypatch.setattr("ocagen.cli._pair_texts", closed)
        assert run(["enumerate", "--degree", "3"]) == 0


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["count", "--degree", "3", "--frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert run(["count"]) == 2

    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_non_integer_degree(self, capsys):
        assert run(["count", "--degree", "three"]) == 2
