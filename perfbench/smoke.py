"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs one tiny pass of every workload of BENCHMARK.json, untraced and
traced, and asserts that every end-to-end and per-layer metric appears with
its unit and that every op passes the correctness gate.  Then it adds a
deliberately failing op to each workload and asserts that the op is counted
as failed and lowers ops_ok_ratio.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEED = 7


def _inject_failure(corpus, corpus_dir):
    """One more op that must fail: a missing file, or an invalid request."""
    if isinstance(corpus, list):
        missing = str(corpus_dir / "missing.lh")
        return corpus + [workloads.CliOp(
            ["solve", missing, "--target", missing, "--json"],
            lambda payload, code: ("ok", "", 0))]
    ops_path, checks = corpus
    spec = json.loads(ops_path.read_text(encoding="utf-8"))
    spec["items"].append({"kind": "forbid", "target": "C5", "l": 1,
                          "lists": [2], "colors": [0], "sample": False})
    ops_path.write_text(json.dumps(spec), encoding="utf-8")
    return ops_path, checks + [{"forbid": lambda out, outs: ("ok", "", 0)}]


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(workloads.SRC))
    for wl in spec["workloads"]:
        name = wl["name"]
        plain = None
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run_workload(name, SEED, 0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name}: {kind} metrics {got} != {want}"
            assert res["correct"], f"{name}: {dict(res['failures'])}"
            plain = plain or res
        broken = run.run_workload(name, SEED, 0, False, tiny=True,
                                  mutate_corpus=_inject_failure)
        # The injected op fails once in every pass.
        assert broken["failed"] == plain["failed"] + broken["passes"], (
            name, broken["failures"])
        ratio = broken["metrics"]["ops_ok_ratio"]["value"]
        assert ratio < plain["metrics"]["ops_ok_ratio"]["value"], name
        print(f"{name}: ok ({plain['attempted']} ops, {plain['failed']} failed; "
              f"injected failure counted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
