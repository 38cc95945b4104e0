"""The ocagen benchmark: three batch workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run it from anywhere in a checkout; it measures the ``ocagen`` under the
checkout's ``src``.  Every pass of a workload runs in a fresh interpreter
(``child.py``), one at a time: a closed loop with one client, single
threaded.  Passes repeat until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the untraced passes, with set-up also probed separately several
times.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, every one of them, 0 for a layer the workload never
calls; it also prints the per-layer table with the end-to-end metric each
layer should move and the base of every ratio, and writes that table with
the spans to ``perfbench/.out/``.

Before the result the run prints one ``{"meta": ...}`` line: Python
version, nproc, git SHA, load average at start, pass counts and the
failed-check ratio.  The last line is the result the BENCHMARK.json
contract defines.  ``--smoke`` runs every workload at degrees 4-6 in both
modes and checks the result schema, not the timings; it exits 1 on any
problem.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

perf = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / ".out"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_PROBES = 10  # set-up-only passes per untraced run, besides the timed passes
CHILD_TIMEOUT_S = 170

# Per-layer metric -> (workloads that call the layer, end-to-end metric it
# should move).  Decided before measuring; see perfbench/README.md.
LAYER_MAP = {
    "enumeration.fused.self_s": ("stream", "stream.pairs_per_s, stream.wall_s"),
    "enumeration.fused.pairs_per_s": ("stream", "stream.pairs_per_s, stream.wall_s"),
    "cli.writer.self_s": ("stream", "stream.wall_s"),
    "cli.bytes_out": ("stream", "none: the bytes must not change"),
    "compositions.self_s": ("stream", "none: predicted ~0 share of stream.wall_s"),
    "compositions.tuples": ("stream", "none: predicted ~0 share of stream.wall_s"),
    "enumeration.traced.self_s": ("audit", "audit.pairs_per_s"),
    "enumeration.traced.pairs_per_s": ("audit", "audit.pairs_per_s"),
    "const_lang.words_of_length.self_s": ("audit", "audit.pairs_per_s"),
    "const_lang.words": ("audit", "audit.pairs_per_s"),
    "enumeration.assemble_quotients.self_s": ("audit", "audit.pairs_per_s"),
    "euclid.dilcue.self_s": ("audit", "audit.pairs_per_s"),
    "euclid.dilcue.calls": ("audit", "audit.pairs_per_s"),
    "euclid.euclid_trace.self_s": ("audit", "audit.wall_s"),
    "gf2poly.gcd.self_s": ("audit squares", "audit.pairs_per_s; none on squares"),
    "gf2poly.gcd.calls": ("audit squares", "audit.pairs_per_s; none on squares"),
    "enumeration.oracle.self_s": ("audit", "audit.wall_s, audit.peak_rss_mib"),
    "enumeration.oracle.gcds": ("audit", "audit.wall_s, audit.peak_rss_mib"),
    "oca.latin_square.self_s": ("squares", "squares.pairs_per_s"),
    "oca.latin_square.entries": ("squares", "squares.pairs_per_s"),
    "oca.are_orthogonal.self_s": ("squares", "squares.pairs_per_s"),
    "oca.are_orthogonal.calls": ("squares", "squares.pairs_per_s"),
    "trace.overhead_ratio": ("all", "none: the cost of tracing"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {exc}") from None


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def run_child(workload: str, mode: str, size: str, seed: int) -> tuple[dict | None, float]:
    """One pass in a fresh interpreter; (its result or None on failure, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload, mode, size, str(seed), str(OUT)]
    start = perf()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode} pass timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None, perf() - start
    elapsed = perf() - start
    if proc.returncode != 0:
        print(f"{workload} {mode} pass exited with {proc.returncode}", file=sys.stderr)
        return None, elapsed
    result = json.loads(proc.stdout.splitlines()[-1])
    imported = Path(result.pop("ocagen_file")).resolve()
    if ROOT / "src" not in imported.parents:
        raise BenchError(f"ocagen was imported from {imported}, not from this checkout")
    return result, elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """All passes of one run; returns the raw results and their tallies."""
    deadline = perf() + seconds
    if run_child(workload, "setup", size, seed)[0] is None:  # also compiles the bytecode
        raise BenchError(f"{workload} could not start")
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            result, _ = run_child(workload, "setup", size, seed)
            if result is not None:
                setups.append(result["setup"])
    modes = ("run", "traced") if trace else ("run",)
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    durations: dict[str, list[float]] = {m: [] for m in modes}
    attempted = failed = crashed = 0
    errors: list[str] = []
    while not crashed:
        for mode in modes:
            result, elapsed = run_child(workload, mode, size, seed)
            durations[mode].append(elapsed)
            if result is None:
                crashed += 1
                continue
            passes[mode].append(result)
            attempted += result["attempted"]
            failed += result["failed"]
            errors += result["errors"]
        if perf() + sum(median(durations[m]) for m in modes) > deadline:
            break
    if any(not passes[m] for m in modes):
        raise BenchError(f"no {workload} pass completed")
    return {"passes": passes, "setups": setups, "attempted": attempted + crashed,
            "failed": failed + crashed, "errors": errors}


def end_to_end(raw: dict) -> dict:
    runs = raw["passes"]["run"]
    return {
        "pairs_per_s": median(r["rate"] for r in runs),
        "wall_s": median(r["wall"] for r in runs),
        "setup_s": median(raw["setups"] + [r["setup"] for r in runs]),
        "peak_rss_mib": median(r["rss_mib"] for r in runs),
    }


def per_layer(raw: dict, names: list[str], workload: str) -> tuple[dict, list[dict]]:
    """Median of each layer metric over the traced passes, and the table of
    the layers this workload calls."""
    runs, traced = raw["passes"]["run"], raw["passes"]["traced"]
    untraced_wall = median(r["wall"] for r in runs)
    traced_wall = median(r["wall"] for r in traced)
    values = {name: median(t["layers"].get(name, 0.0) for t in traced) for name in names}
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    bases = {name: [t["bases"][name] for t in traced] for name in traced[0]["bases"]}
    bases["trace.overhead_ratio"] = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    table = [{"metric": name, "value": values[name], "workloads": LAYER_MAP[name][0],
              "should_move": LAYER_MAP[name][1], "base": bases.get(name)}
             for name in names if {workload, "all"} & set(LAYER_MAP[name][0].split())]
    return values, table


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "loadavg_start": os.getloadavg()}


def bench(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
          size: str = "full") -> tuple[dict, dict]:
    """One benchmark run: (the result line, the metadata line)."""
    meta = metadata(workload, seed, seconds, trace)
    raw = measure(workload, seed, seconds, trace, size)
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    if trace:
        values, table = per_layer(raw, names, workload)
        OUT.mkdir(exist_ok=True)
        report = OUT / f"trace-{workload}-seed{seed}.json"
        spans = [t["spans"] for t in raw["passes"]["traced"]]
        report.write_text(json.dumps({"meta": meta, "table": table, "spans": spans}))
        meta["trace_report"] = str(report.relative_to(ROOT))
        for row in table:
            base = "" if row["base"] is None else f"  base {json.dumps(row['base'])}"
            print(f"{row['metric']:<38} {row['value']:>14.6g}  [{row['workloads']}] "
                  f"-> {row['should_move']}{base}")
    else:
        values = end_to_end(raw)
    meta.update({
        "passes": len(raw["passes"]["run"]),
        "pass_walls_s": [r["wall"] for r in raw["passes"]["run"]],
        "traced_passes": len(raw["passes"].get("traced", [])),
        "setup_samples": len(raw["setups"]) + len(raw["passes"]["run"]),
        "failed_ratio": raw["failed"] / max(raw["attempted"], 1),
        "errors": raw["errors"],
    })
    units = {m["name"]: m["unit"] for m in spec[kind]}
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    return result, meta


def schema_problems(result: dict, spec: dict, trace: bool) -> list[str]:
    kind = "per_layer" if trace else "end_to_end"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number of at least 1")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name}: {entry}")
    return problems


def smoke(spec: dict) -> int:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, meta = bench(spec, workload, seed=1, seconds=0, trace=trace, size="smoke")
            found = schema_problems(result, spec, trace)
            problems += [f"{workload} trace={int(trace)}: {p}" for p in found]
            print(f"{workload} trace={int(trace)}: {'ok' if not found else 'FAILED'} "
                  f"({result['attempted']} checks, {meta['passes']} passes)")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check the schema only")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "ocagen" / "__init__.py").is_file():
            raise BenchError(f"no ocagen source under {ROOT / 'src'}")
        spec = load_spec()
        if args.smoke:
            return smoke(spec)
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            raise BenchError(f"--workload must be one of {', '.join(workloads)}")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result, meta = bench(spec, args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
