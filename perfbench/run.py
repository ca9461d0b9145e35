"""Benchmark of the lhom toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the seeded corpus of one workload at least SETUP_REPEATS times and
for at least SETUP_SECONDS (setup_s is the median; the copies must be
identical, which checks that the seed fixes the inputs), then runs passes
over its fixed op list in fresh processes.  The number of passes is
--seconds divided by the workload's nominal pass time, and at least
MIN_PASSES: a count, not a deadline, so every run of one seed attempts the
same ops and fails the same ones.

setup_s, wall_s and cpu_s are in reference seconds (calib.py): every timed
process runs a probe loop every 10 ms of its CPU time and each stretch of
its time is scaled by the probe's speed, because the host's speed flips
by up to twofold for seconds to minutes at a time.  The raw seconds of
each pass are printed too.  Every end-to-end metric but
setup_s is the median over the run's passes.

With --trace 1 each untraced pass is followed by a traced one; the
per-layer metrics come from the traced passes and trace.overhead_ratio
compares the two.  Prints a table, then as the last line one JSON object
with the keys correct, attempted, failed and metrics.  Exits 2 without a
result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calib
import spans
from workloads import ROOT, SRC, WORKLOADS

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0  # so that millisecond set-ups get a steady median
MIN_PASSES = 1
RUN_DEADLINE_S = 165.0  # every run must end within 180 s

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_ok_ratio": ("ratio", "higher"),
    "output_size": ("count", "lower"),
}


def pass_count(name: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds // WORKLOADS[name].pass_s))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, mutate_corpus=None) -> dict:
    """Set up, run the passes and return the result with per-metric samples."""
    wl = WORKLOADS[name]
    clock = time.perf_counter
    start = clock()
    workroot = ROOT / ".perfbench_work" / str(os.getpid())
    corpus_dir = workroot / "corpus"
    try:
        spans_s, digests = [], set()
        sampler = calib.Sampler().start()
        try:
            while (len(spans_s) < SETUP_REPEATS
                   or sum(b - a for a, b in spans_s) < SETUP_SECONDS):
                shutil.rmtree(corpus_dir, ignore_errors=True)
                corpus_dir.mkdir(parents=True)
                t0 = clock()
                corpus, digest = wl.setup(seed, corpus_dir, tiny)
                spans_s.append((t0, clock()))
                digests.add(digest)
        finally:
            scale = calib.Scale(sampler.stop())
        setup_s = [scale.program(a, b)[1] for a, b in spans_s]
        if mutate_corpus is not None:
            corpus = mutate_corpus(corpus, corpus_dir)
        hard_end = start + RUN_DEADLINE_S
        plain, traced, last = [], [], 0.0
        for _ in range(pass_count(name, seconds)):
            if plain and clock() + last > hard_end:
                break
            t0 = clock()
            plain.append(wl.run_pass(corpus, corpus_dir, False, hard_end, clock))
            if trace:
                traced.append(wl.run_pass(corpus, corpus_dir, True, hard_end,
                                          clock))
            last = clock() - t0
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass
    return _result(setup_s, len(digests) == 1, plain, traced)


def _result(setup_s, deterministic, plain, traced) -> dict:
    passes = plain + traced
    attempted = sum(len(p.statuses) for p in passes)
    ok = sum(p.count("ok") for p in plain)
    samples = {
        "setup_s": setup_s,
        "wall_s": [p.wall for p in plain],
        "cpu_s": [p.cpu for p in plain],
        "peak_rss_mb": [p.rss_mb for p in plain],
        "ops_ok_ratio": [ok / sum(len(p.statuses) for p in plain)],
        "output_size": [p.output_size for p in plain],
    }
    units = {k: u for k, (u, _) in END_TO_END.items()}
    if traced:
        per_pass = [spans.layer_metrics(p.spans, p.cli_startup_s) for p in traced]
        samples = {k: [m[k] for m in per_pass] for k in per_pass[0]}
        samples["trace.overhead_ratio"] = [
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in plain) - 1]
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    failures = Counter(msg for p in passes for state, msg in p.statuses
                       if state != "ok")
    return {
        "correct": deterministic and not any(p.count("wrong") for p in passes),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": statistics.median(v), "unit": units[k]}
                    for k, v in samples.items()},
        "samples": samples,
        "passes": len(plain),
        "raw": [(p.raw_wall, p.raw_cpu) for p in plain],
        "failures": failures,
        "deterministic": deterministic,
    }


def _print(result: dict) -> None:
    for msg, count in sorted(result["failures"].items()):
        print(f"failed x{count}: {msg}")
    if not result["deterministic"]:
        print("wrong: setup gave different corpora for one seed")
    print(f"ops attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print("raw pass seconds (wall, CPU): " + ", ".join(
        f"({w:.4f}, {c:.4f})" for w, c in result["raw"]))
    print(f"{'metric':34s} {'value':>14s} {'unit':6s} {'n':>3s} "
          f"{'sample min':>12s} {'sample max':>12s}")
    for name, m in result["metrics"].items():
        vals = result["samples"][name]
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:6s} {len(vals):3d} "
              f"{min(vals):12.6g} {max(vals):12.6g}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lhom" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "lhom"), quiet=1)
    _print(run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
