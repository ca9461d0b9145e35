"""Benchmark-owned child process: one pass of a library-style workload, or
one traced CLI op.

    python worker.py pass <ops.json> <results.jsonl> <spans.json or ->
    python worker.py cli <meta.json> <spans.json or -> <op id> <lhom argument>...

In `pass` mode every op is one call into the package, timed and guarded by
an interval timer; one JSON line per op is appended to the results file as
soon as the op ends, so a pass killed by its deadline still reports what it
finished.  Answers are checked by the parent, not here.  In `cli` mode the
child calls `lhom.cli.main(argv)` as `python -m lhom` would.  With a spans
path the module-level names are wrapped first (see spans.py).  Both modes
run a calib.Sampler from their start and write its probes, and the time
the program's work ended, last: in the results file's "done" line or the
meta file.
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
import time

import calib
from spans import Recorder


class OpTimeout(Exception):
    pass


def _expire(signum, frame):
    raise OpTimeout("op timed out")


class Pass:
    def __init__(self, spec: dict, out, recorder: Recorder | None):
        self.lhom = {m: importlib.import_module("lhom." + m) for m in (
            "forbid", "graphs", "invariants", "kernels", "reductions", "solver")}
        graphs = self.lhom["graphs"]
        self.targets = {name: graphs.Graph(len(adj), tuple(adj))
                        for name, adj in spec["targets"].items()}
        self.hints = {name: tuple(h) if h else None
                      for name, h in spec["hints"].items()}
        self.timeout = spec["op_timeout"]
        self.out = out
        self.recorder = recorder
        self.item = -1
        self.lbs = None

    def attempt(self, step: str, fn, *args, result=None):
        """Run fn(*args); record ok/err, seconds and `result(value)`."""
        rec = {"item": self.item, "step": step, "ok": False, "err": None,
               "out": None}
        if self.recorder is not None:
            self.recorder.op += 1
        signal.setitimer(signal.ITIMER_REAL, self.timeout)
        t0 = time.perf_counter()
        value = None
        try:
            value = fn(*args)
            rec["ok"] = True
        except Exception as exc:
            rec["err"] = f"{type(exc).__name__}: {str(exc)[:200]}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["dt"] = time.perf_counter() - t0
        if rec["ok"] and result is not None:
            rec["out"] = result(value)
        self.out.write(json.dumps(rec) + "\n")
        self.out.flush()
        return value if rec["ok"] else None

    def instance(self, d: dict):
        graphs = self.lhom["graphs"]
        return graphs.Instance(graphs.Graph.from_edges(d["n"], d["edges"]),
                               tuple(d["lists"]), d["cover"])

    # --- op kinds -------------------------------------------------------

    def forbid(self, it: dict) -> None:
        fb = self.lhom["forbid"]
        hg = self.targets[it["target"]]

        def run():
            req = fb.ForbidRequest(hg, it["l"], tuple(it["lists"]),
                                   tuple(range(len(it["colors"]))),
                                   tuple(it["colors"]))
            res = fb.forbid(req, cycle_power=self.hints[it["target"]])
            return res, fb.certify_forbid(req, res.poly)

        def result(value):
            res, certified = value
            out = {"degree": res.degree, "terms": len(res.poly.monomials),
                   "certified": certified}
            if it["sample"]:
                out["poly"] = [sorted(m) for m in res.poly.monomials]
            return out

        self.attempt("forbid", run, result=result)

    def probe(self, it: dict) -> None:
        inv = self.lhom["invariants"]
        self.attempt("degree_probe", inv.degree_probe, self.targets[it["target"]],
                     result=lambda r: {"all_ok": r["all_ok"],
                                       "cases": len(r["cases"])})

    def gadgets(self, it: dict) -> None:
        inv, red = self.lhom["invariants"], self.lhom["reductions"]
        hg = self.targets[it["target"]]
        d_lbs = self.attempt(
            "d_star", inv.compute_d_star, hg,
            result=lambda r: {"order": r[0], "xs": list(r[1].xs),
                              "xps": list(r[1].xps)})
        self.lbs = None if d_lbs is None else d_lbs[1]

        def pair(g):
            return {"n": g.graph.n, "edges": g.graph.edges(),
                    "lists": list(g.lists), "u": g.u, "v": g.v}

        for i, j in it["pairs"]:
            step = f"neq{i}" if j is None else f"comp{i}{j}"
            if self.lbs is None:
                self.attempt(step, _upstream_failed)
            elif j is None:
                self.attempt(step, red.build_neq, hg, self.lbs, i, result=pair)
            else:
                self.attempt(step, red.build_comp, hg, self.lbs, i, j, result=pair)
        if self.lbs is None:
            self.attempt("variable", _upstream_failed)
        else:
            self.attempt("variable", red.build_variable_gadget, hg, self.lbs,
                         result=lambda g: {"n": g.graph.n})

    def cnf(self, it: dict) -> None:
        red = self.lhom["reductions"]
        hg = self.targets[it["target"]]
        if self.lbs is None:
            inst = self.attempt("reduce_sat", _upstream_failed)
        else:
            inst = self.attempt("reduce_sat", red.reduce_sat, it["nvars"],
                                it["clauses"], hg, self.lbs,
                                result=lambda i: {"n": i.graph.n})
        self.pipeline(inst, hg, None, witness=False)

    def sweep(self, it: dict) -> None:
        self.pipeline(self.instance(it["inst"]), self.targets[it["target"]],
                      self.hints[it["target"]], witness=True)

    def pipeline(self, inst, hg, hint, witness: bool) -> None:
        """decide, both kernels, then decide on each kernel."""
        solver, kernels = self.lhom["solver"], self.lhom["kernels"]

        def answer(r):
            out = {"answer": r[0]}
            if witness and r[0]:
                out["witness"] = list(r[1])
            return out

        def report(r):
            return {"vout": r.vertices_out, "eout": r.edges_out,
                    "vin": r.vertices_in, "bound_ok": r.bound_formula_ok}

        if inst is None:
            for step in ("decide", "marking", "poly", "decide_marking",
                         "decide_poly"):
                self.attempt(step, _upstream_failed)
            return
        self.attempt("decide", solver.decide, inst, hg, result=answer)
        km = self.attempt("marking", kernels.kernel_marking, inst, hg,
                          result=report)
        kp = self.attempt("poly", lambda: kernels.kernel_poly(
            inst, hg, cycle_power=hint), result=report)
        for step, rep in (("decide_marking", km), ("decide_poly", kp)):
            if rep is None:
                self.attempt(step, _upstream_failed)
            else:
                self.attempt(step, solver.decide, rep.kernel, hg,
                             result=lambda r: {"answer": r[0]})


def _upstream_failed():
    raise RuntimeError("input of this op was not produced")


def run_pass(ops_path: str, results_path: str, spans_path: str) -> None:
    sampler = calib.Sampler().start()
    with open(ops_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = None
    if spans_path != "-":
        recorder = Recorder()
        recorder.install()
    signal.signal(signal.SIGALRM, _expire)
    with open(results_path, "w", encoding="utf-8") as out:
        p = Pass(spec, out, recorder)
        for i, it in enumerate(spec["items"]):
            p.item = i
            getattr(p, it["kind"])(it)
        probes, t_end = sampler.stop(), time.perf_counter()
        dump_s = recorder.dump(spans_path) if recorder is not None else 0.0
        out.write(json.dumps({"done": True, "dump_s": dump_s, "t_end": t_end,
                              "probes": probes}) + "\n")


def run_cli(meta_path: str, spans_path: str, op_id: str, argv: list[str]) -> int:
    sampler = calib.Sampler().start()
    recorder = None
    if spans_path != "-":
        recorder = Recorder()
        recorder.install()
        recorder.op = int(op_id)
    cli = importlib.import_module("lhom.cli")
    try:
        return cli.main(argv)
    finally:
        probes, t_end = sampler.stop(), time.perf_counter()
        dump_s = recorder.dump(spans_path) if recorder is not None else 0.0
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump({"dump_s": dump_s, "t_end": t_end, "probes": probes}, fh)


if __name__ == "__main__":
    if sys.argv[1] == "pass":
        run_pass(*sys.argv[2:5])
    else:
        sys.exit(run_cli(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]))
