"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD MODE SIZE SEED OUTDIR

``run.py`` starts this file once per pass, with ``PYTHONPATH`` set to the
checkout's ``src``.  MODE is one of

* ``run``: the workload as a user runs it, untraced, with its checks;
* ``setup``: stop at the workload's first unit of output (a set-up probe);
* ``traced``: the same inputs and checks, with each layer's public function
  called and timed on its own, spans kept in a ``Tracer``.

The last line on stdout is one JSON object: the pass's timings, its check
counts and, when traced, the per-layer values, their bases and the spans.
The clock starts before the first ``ocagen`` import, so set-up covers the
import; nothing from ``ocagen`` is imported at module level for that reason.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from math import comb
from pathlib import Path

perf = time.perf_counter

# "full" is what the benchmark measures; "smoke" runs the same code and
# checks at degrees 4-6 in well under a second.
SIZES = {
    "full": {"stream": 12, "audit": 11, "oracle": 9, "sample": 10_000, "squares": 7},
    "smoke": {"stream": 6, "audit": 5, "oracle": 4, "sample": 20, "squares": 5},
}

# sha256 of the pair stream in `ocagen enumerate --format text` form
# ("%#x %#x\n" per pair), taken from the output of seed commit e7917f8.
# The degree-12 value is the ROADMAP's reference hash.
PINNED_SHA256 = {
    5: "a7298e5851211d1096680aa72761145b23312525cfa777cc5b67ecd58627cf59",
    6: "295f0e6d38312bf88c4d0bf488743708dc2ee58e3b74c121cd7f9565d2175fff",
    11: "08f12997795a39d27b88a0fd5ac2a8259ab263cbf8b09e3b0cde34b766972ed1",
    12: "6175d3a9cf403813c357db48ea5c6252abb62771949375c363bbcc99716bdf7e",
}

AUDIT_CHUNK = 4096  # records per gcd batch in the untraced audit


class FirstOutput(Exception):
    """Raised by a set-up probe at the workload's first unit of output."""


class Checks:
    """Counts correctness checks attempted and failed, with a few messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 20:
            self.errors.append(f"{what}: {failed} of {attempted} failed")

    def expect(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


class Tracer:
    """Spans kept in memory and returned when the pass ends.

    A span records its name, the id of the span it ran under, its first
    start and last end, its total seconds and the items it handled.
    ``span`` times one block.  ``total`` folds a batch of calls of one
    layer into a single span per (parent, name), so calls made once per
    record are totalled rather than kept one by one.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._totals: dict[tuple, dict] = {}

    def _new(self, name: str, start: float) -> dict:
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "name": name, "start": start, "end": start, "seconds": 0.0, "items": 0}
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        rec = self._new(name, perf())
        self._open.append(rec["id"])
        try:
            yield
        finally:
            self._open.pop()
            rec["end"] = perf()
            rec["seconds"] = rec["end"] - rec["start"]
            rec["items"] = 1

    def total(self, name: str, start: float, end: float, items: int = 1) -> None:
        key = (self._open[-1] if self._open else None, name)
        rec = self._totals.get(key)
        if rec is None:
            rec = self._totals[key] = self._new(name, start)
        rec["end"] = end
        rec["seconds"] += end - start
        rec["items"] += items

    def seconds(self, name: str, under: str | None = None) -> float:
        """Total seconds of the spans called ``name``; with ``under``, only
        of those that ran directly inside a span called ``under``."""
        return sum(s["seconds"] for s in self._named(name, under))

    def items(self, name: str) -> int:
        return sum(s["items"] for s in self._named(name, None))

    def _named(self, name: str, under: str | None) -> list[dict]:
        parents = None if under is None else {s["id"] for s in self.spans if s["name"] == under}
        return [s for s in self.spans
                if s["name"] == name and (parents is None or s["parent"] in parents)]


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_result(t0: float, first: float, end: float, units: int, checks: Checks) -> dict:
    """Result of an untraced pass; the rate counts the units after the first."""
    return {"setup": first - t0, "wall": end - t0, "units": units,
            "rate": units / (end - first), "rss_mib": rss_mib(),
            "attempted": checks.attempted, "failed": checks.failed, "errors": checks.errors}


def traced_result(t0: float, end: float, checks: Checks, tr: Tracer, layers: dict, bases: dict) -> dict:
    return {"wall": end - t0, "attempted": checks.attempted, "failed": checks.failed,
            "errors": checks.errors, "layers": layers, "bases": bases, "spans": tr.spans}


# --------------------------------------------------------------------------
# stream: `ocagen enumerate --degree 12 --format text` into a file.


class FirstWrite:
    """Stands in for stdout while the CLI writes the pair stream to a file.

    The first ``write`` notes the time of the first pair written, then
    installs the file's own ``write`` as an instance attribute, which
    shadows this method: every later pair goes straight to the file.
    """

    def __init__(self, fh, stop: bool) -> None:
        self._fh = fh
        self._stop = stop
        self.flush = fh.flush
        self.first: float | None = None

    def write(self, text: str) -> int:
        self.first = perf()
        if self._stop:
            raise FirstOutput
        self.write = self._fh.write
        return self._fh.write(text)


def stream_cli(cli, n: int, path: Path, probe_only: bool = False) -> tuple[int, FirstWrite]:
    """Run ``enumerate --degree n --format text`` with its output in ``path``.

    The CLI writes through ``--output -`` into a file opened here exactly as
    ``--output PATH`` would open it, so that the first write can be timed.
    """
    with open(path, "w", encoding="utf-8") as fh:
        probe = FirstWrite(fh, probe_only)
        sys.stdout = probe
        try:
            code = cli.run(["enumerate", "--degree", str(n), "--format", "text", "--output", "-"])
        except FirstOutput:
            code = 0
        finally:
            sys.stdout = sys.__stdout__
    return code, probe


def check_stream_file(checks: Checks, code: int, path: Path, n: int, count: int) -> int:
    """Exit code, line count and sha256 of the written stream; returns its size."""
    checks.expect(code == 0, f"enumerate exit code {code}")
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    checks.expect(lines == count, f"{lines} lines written, count_pairs({n}) = {count}")
    checks.expect(h.hexdigest() == PINNED_SHA256[n], f"sha256 of the degree-{n} stream")
    size = path.stat().st_size
    path.unlink()
    return size


def stream(sizes: dict, seed: int, out: Path, mode: str) -> dict:
    t0 = perf()
    from ocagen import cli
    from ocagen.compositions import compositions
    from ocagen.enumeration import count_pairs, pairs_for_composition

    n = sizes["stream"]
    count = count_pairs(n)
    path = out / "stream.txt"
    checks = Checks()
    if mode == "setup":
        _, probe = stream_cli(cli, n, path, probe_only=True)
        path.unlink()
        return {"setup": probe.first - t0}
    if mode == "run":
        code, probe = stream_cli(cli, n, path)
        end = perf()
        check_stream_file(checks, code, path, n, count)
        return run_result(t0, probe.first, end, count, checks)

    # Traced: compositions and the fused core drained on their own, then the
    # CLI run; the writer's self time is the CLI run minus the other two.
    tr = Tracer()
    with tr.span("compositions"):
        comps = [parts for k in range(2, n + 1) for parts in compositions(n, k)]
    with tr.span("enumeration.fused"):
        pairs = sum(len(list(pairs_for_composition(parts))) for parts in comps)
    with tr.span("cli"):
        code, _ = stream_cli(cli, n, path)
    end = perf()
    checks.expect(len(comps) == 2 ** (n - 1) - 1, f"{len(comps)} compositions of {n} with k >= 2")
    checks.expect(pairs == count, f"fused core drained {pairs} pairs, count_pairs({n}) = {count}")
    size = check_stream_file(checks, code, path, n, count)
    comp_s, fused_s, cli_s = tr.seconds("compositions"), tr.seconds("enumeration.fused"), tr.seconds("cli")
    layers = {
        "compositions.self_s": comp_s,
        "compositions.tuples": len(comps),
        "enumeration.fused.self_s": fused_s,
        "enumeration.fused.pairs_per_s": pairs / fused_s,
        "cli.writer.self_s": cli_s - fused_s - comp_s,
        "cli.bytes_out": size,
    }
    bases = {
        "enumeration.fused.pairs_per_s": {"pairs": pairs, "seconds": fused_s},
        "cli.writer.self_s": {"cli_run_s": cli_s, "minus_fused_s": fused_s,
                              "minus_compositions_s": comp_s},
    }
    return traced_result(t0, end, checks, tr, layers, bases)


# --------------------------------------------------------------------------
# audit: the traced stream of degree 11 with every check a spec reader runs.


class StreamAudit:
    """Checks on the provenance stream that need all of it: gcd of every
    record, the count per k, the sha256 of the (f, g) order, and a seeded
    sample of records kept for the Euclid round trip."""

    def __init__(self, n: int, total: int, sample_size: int, seed: int) -> None:
        self.n = n
        self.total = total
        self.seen = 0
        self.per_k: Counter = Counter()
        self.hash = hashlib.sha256()
        self.sample: list = []
        self._want = sorted(random.Random(seed).sample(range(total), min(sample_size, total)))
        self._next = 0

    def add(self, checks: Checks, recs: list, gcds: list) -> None:
        checks.count(len(recs), sum(g != 1 for g in gcds), "gcd(f, g) == 1")
        self.per_k.update(len(r.provenance[0]) for r in recs)
        self.hash.update(b"".join(b"%#x %#x\n" % (r.f, r.g) for r in recs))
        end = self.seen + len(recs)
        want = self._want
        while self._next < len(want) and want[self._next] < end:
            self.sample.append(recs[want[self._next] - self.seen])
            self._next += 1
        self.seen = end

    def finish(self, checks: Checks) -> None:
        from ocagen.const_lang import count_words

        n = self.n
        checks.expect(self.seen == self.total, f"{self.seen} records, count_pairs({n}) = {self.total}")
        for k in range(2, n + 1):
            expected = comb(n - 1, k - 1) * 2 ** (n - k) * count_words(k)
            checks.expect(self.per_k[k] == expected, f"{self.per_k[k]} records with k = {k}, expected {expected}")
        checks.expect(self.hash.hexdigest() == PINNED_SHA256[n], f"sha256 of the degree-{n} traced stream")


def decode(quotients: tuple) -> tuple:
    """The generating triple of a quotient sequence [p_1, .., p_k, 1]."""
    qs = quotients[:-1]
    parts = tuple(q.bit_length() - 1 for q in qs)
    mids = "".join(str(q >> i & 1) for q in qs for i in range(1, q.bit_length() - 1))
    word = "".join(str(q & 1) for q in qs)
    return parts, mids, word


def verify_sample(checks: Checks, sample: list, tr: Tracer | None = None) -> None:
    """Euclid on each sampled pair; its reversed quotients, replayed through
    dilcue, must give back the pair, and they must decode to the record's
    provenance triple."""
    from ocagen.euclid import dilcue, euclid_trace

    bad = 0
    for rec in sample:
        a = perf()
        trace = euclid_trace(rec.f, rec.g)
        b = perf()
        quotients = trace.quotients[::-1]
        pair = dilcue(quotients)
        c = perf()
        if tr is not None:
            tr.total("euclid.euclid_trace", a, b)
            tr.total("euclid.dilcue", b, c)
        bad += not (trace.gcd == 1 and quotients[-1] == 1 and pair == (rec.f, rec.g)
                    and decode(quotients) == rec.provenance)
    checks.count(len(sample), bad, "euclid_trace/dilcue round trip")


def oracle_check(checks: Checks, m: int, tr: Tracer | None = None) -> None:
    """The brute-force oracle and the fused stream of degree m are set-equal."""
    from ocagen.enumeration import count_pairs, enumerate_pairs, oracle_pairs

    a = perf()
    oracle = oracle_pairs(m)
    if tr is not None:
        tr.total("enumeration.oracle", a, perf(), 4 ** (m - 1))
    streamed = [(r.f, r.g) for r in enumerate_pairs(m)]
    checks.expect(len(streamed) == len(set(streamed)) == count_pairs(m),
                  f"degree-{m} stream has {len(streamed)} pairs, count_pairs = {count_pairs(m)}")
    checks.expect(set(streamed) == oracle, f"degree-{m} stream and oracle are set-equal")


def audit(sizes: dict, seed: int, out: Path, mode: str) -> dict:
    t0 = perf()
    from ocagen.enumeration import count_pairs, enumerate_pairs
    from ocagen.gf2poly import gcd

    n = sizes["audit"]
    total = count_pairs(n)
    checks = Checks()
    stream_audit = StreamAudit(n, total, sizes["sample"], seed)
    if mode == "traced":
        return audit_traced(t0, sizes, checks, stream_audit)
    records = enumerate_pairs(n, with_provenance=True)
    chunk = list(islice(records, 1))
    first = None
    while chunk:
        stream_audit.add(checks, chunk, [gcd(r.f, r.g) for r in chunk])
        if first is None:
            first = perf()
            if mode == "setup":
                return {"setup": first - t0}
        chunk = list(islice(records, AUDIT_CHUNK))
    stream_audit.finish(checks)
    verify_sample(checks, stream_audit.sample)
    oracle_check(checks, sizes["oracle"])
    return run_result(t0, first, perf(), total, checks)


def audit_traced(t0: float, sizes: dict, checks: Checks, stream_audit: StreamAudit) -> dict:
    """The audit one composition at a time.  Each slice of the traced path
    is drained and gcd-checked, then its layer calls (words, assembly,
    dilcue) are replayed on the same inputs from here and timed on their
    own; the traced path's self time is its drain time minus theirs."""
    from ocagen.compositions import compositions
    from ocagen.const_lang import words_of_length
    from ocagen.enumeration import assemble_quotients, intermediate_sequences, pairs_for_composition
    from ocagen.euclid import dilcue
    from ocagen.gf2poly import gcd

    n = stream_audit.n
    tr = Tracer()
    with tr.span("audit.stream"):
        for k in range(2, n + 1):
            for parts in compositions(n, k):
                a = perf()
                recs = list(pairs_for_composition(parts, with_provenance=True))
                b = perf()
                gcds = [gcd(r.f, r.g) for r in recs]
                c = perf()
                tr.total("enumeration.traced", a, b, len(recs))
                tr.total("gf2poly.gcd", b, c, len(recs))
                stream_audit.add(checks, recs, gcds)
                pairs = []
                with tr.span("replay"):
                    for mids in intermediate_sequences(parts):
                        a = perf()
                        words = list(words_of_length(k))
                        b = perf()
                        quotients = [assemble_quotients(parts, mids, w) for w in words]
                        c = perf()
                        pairs += [dilcue(q) for q in quotients]
                        d = perf()
                        tr.total("const_lang.words_of_length", a, b, len(words))
                        tr.total("enumeration.assemble_quotients", b, c, len(words))
                        tr.total("euclid.dilcue", c, d, len(words))
                checks.expect(pairs == [(r.f, r.g) for r in recs], f"replay of composition {parts}")
    stream_audit.finish(checks)
    with tr.span("verify"):
        verify_sample(checks, stream_audit.sample, tr)
    with tr.span("oracle"):
        oracle_check(checks, sizes["oracle"], tr)
    end = perf()

    traced_s = tr.seconds("enumeration.traced")
    words_s = tr.seconds("const_lang.words_of_length")
    assemble_s = tr.seconds("enumeration.assemble_quotients")
    replay_dilcue_s = tr.seconds("euclid.dilcue", under="replay")
    layers = {
        "enumeration.traced.self_s": traced_s - words_s - assemble_s - replay_dilcue_s,
        "enumeration.traced.pairs_per_s": stream_audit.seen / traced_s,
        "const_lang.words_of_length.self_s": words_s,
        "const_lang.words": tr.items("const_lang.words_of_length"),
        "enumeration.assemble_quotients.self_s": assemble_s,
        "euclid.dilcue.self_s": tr.seconds("euclid.dilcue"),
        "euclid.dilcue.calls": tr.items("euclid.dilcue"),
        "euclid.euclid_trace.self_s": tr.seconds("euclid.euclid_trace"),
        "gf2poly.gcd.self_s": tr.seconds("gf2poly.gcd"),
        "gf2poly.gcd.calls": tr.items("gf2poly.gcd"),
        "enumeration.oracle.self_s": tr.seconds("enumeration.oracle"),
        "enumeration.oracle.gcds": tr.items("enumeration.oracle"),
    }
    bases = {
        "enumeration.traced.self_s": {"drain_s": traced_s, "minus_words_s": words_s,
                                      "minus_assemble_s": assemble_s,
                                      "minus_dilcue_s": replay_dilcue_s},
        "enumeration.traced.pairs_per_s": {"pairs": stream_audit.seen, "seconds": traced_s},
        "enumeration.oracle.gcds": {"formula": f"4^({sizes['oracle']}-1), one gcd per candidate pair"},
    }
    return traced_result(t0, end, checks, tr, layers, bases)


# --------------------------------------------------------------------------
# squares: Latin squares of every degree-7 unit polynomial, all pairs checked.


def squares(sizes: dict, seed: int, out: Path, mode: str) -> dict:
    t0 = perf()
    from ocagen.enumeration import count_pairs
    from ocagen.gf2poly import gcd, unit_polys
    from ocagen.oca import are_orthogonal, is_latin, latin_square, rule_from_poly

    d = sizes["squares"]
    checks = Checks()
    tr = Tracer() if mode == "traced" else None
    polys = list(unit_polys(d))
    built = []
    first = None
    for p in polys:
        a = perf()
        built.append(latin_square(rule_from_poly(p)))
        b = perf()
        if tr is not None:
            tr.total("oca.latin_square", a, b, built[-1].order ** 2)
        if first is None:
            first = b
            if mode == "setup":
                return {"setup": first - t0}
    checks.count(len(built), sum(not is_latin(s) for s in built), "is_latin")
    # The seed only picks the visiting order; every ordered pair is decided.
    order = [(i, j) for i in range(len(polys)) for j in range(len(polys))]
    random.Random(seed).shuffle(order)
    mismatched = orthogonal = 0
    for i, j in order:
        a = perf()
        orth = are_orthogonal(built[i], built[j])
        b = perf()
        coprime = gcd(polys[i], polys[j]) == 1
        c = perf()
        if tr is not None:
            tr.total("oca.are_orthogonal", a, b)
            tr.total("gf2poly.gcd", b, c)
        mismatched += orth != coprime
        orthogonal += orth
    checks.count(len(order), mismatched, "are_orthogonal == (gcd == 1)")
    checks.expect(orthogonal == count_pairs(d), f"{orthogonal} orthogonal pairs, count_pairs({d}) = {count_pairs(d)}")
    end = perf()
    if tr is None:
        return run_result(t0, first, end, len(order), checks)
    layers = {
        "oca.latin_square.self_s": tr.seconds("oca.latin_square"),
        "oca.latin_square.entries": tr.items("oca.latin_square"),
        "oca.are_orthogonal.self_s": tr.seconds("oca.are_orthogonal"),
        "oca.are_orthogonal.calls": tr.items("oca.are_orthogonal"),
        "gf2poly.gcd.self_s": tr.seconds("gf2poly.gcd"),
        "gf2poly.gcd.calls": tr.items("gf2poly.gcd"),
    }
    return traced_result(t0, end, checks, tr, layers, {})


WORKLOADS = {"stream": stream, "audit": audit, "squares": squares}


def main(argv: list[str]) -> None:
    workload, mode, size, seed, out = argv
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = WORKLOADS[workload](SIZES[size], int(seed), out_dir, mode)
    import ocagen

    result["ocagen_file"] = ocagen.__file__
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
