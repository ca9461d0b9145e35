"""The four workloads: seeded corpus, reference answers, one pass, checks.

A workload's setup draws every input from `lhom.generators` (instances,
target graphs and the splitmix64 stream for CNFs and request shapes) and
computes reference answers with reference.py.  A pass runs the fixed op
list once in fresh processes, so module caches start empty and peak RSS is
not inherited, then checks every op against the references.  An op ends in
one of three states: "ok", "failed" (crash, timeout, limit, exit code,
missing JSON) or "wrong" (an answer that contradicts the reference).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import calib
import reference as ref
import spans
from procs import run_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

# name -> (k, p): every target is a cycle power; K4 is the square of C4.
TARGETS = {"C5": (5, 1), "C6": (6, 1), "C13^2": (13, 2), "C19^3": (19, 3),
           "K4": (4, 2)}
OP_TIMEOUT_S = 60.0


@dataclass
class PassResult:
    wall: float = 0.0  # reference seconds (calib.py)
    cpu: float = 0.0
    raw_wall: float = 0.0  # seconds as measured
    raw_cpu: float = 0.0
    rss_mb: float = 0.0
    output_size: int = 0
    statuses: list = field(default_factory=list)  # (state, message) per op
    spans: list = field(default_factory=list)
    cli_startup_s: float = 0.0

    def count(self, state: str) -> int:
        return sum(1 for s, _ in self.statuses if s == state)


def _add_child_time(res: PassResult, child, done: dict | None) -> float:
    """Add a child's seconds, without its probes, to the pass: raw and in
    reference seconds (calib.py).  `done` is what the child wrote last
    (its probes and when its work ended), None if it wrote nothing.
    Returns the child's wall seconds up to the end of its work."""
    scale = calib.Scale(done["probes"] if done else [])
    end = done["t_end"] if done else child.start + child.wall
    raw, ref = scale.program(child.start, end)
    cpu = max(child.cpu - scale.probe_s, 0.0)
    res.raw_wall += raw
    res.wall += ref
    res.raw_cpu += cpu
    res.cpu += cpu * ref / raw if raw else cpu
    return end - child.start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("LHOM_NODE_BUDGET", None)
    return env


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _lhom():
    import lhom.formats
    import lhom.generators
    return lhom.generators, lhom.formats


def _target(name: str):
    gen, _ = _lhom()
    k, p = TARGETS[name]
    return gen.gen_cycle_power(k, p)


def _planted_ok(inst, hadj, seed: int) -> bool:
    """Replay the generator's planted coloring (its first n draws)."""
    gen, _ = _lhom()
    rng = gen.SplitMix64(seed)
    plant = [rng.below(len(hadj)) for _ in range(inst.graph.n)]
    return ref.is_list_hom(list(inst.graph.adj), list(inst.lists), hadj, plant)


def _instance(name: str, n: int, k: int, seed: int, mode: str):
    gen, _ = _lhom()
    return gen.gen_instance(_target(name), n, k, seed, mode)


def _answer(inst, name: str, seed: int, mode: str) -> bool:
    """Reference answer: the replayed planted coloring, else a search."""
    hadj = list(_target(name).adj)
    if mode == "planted-yes" and _planted_ok(inst, hadj, seed):
        return True
    return ref.list_hom(list(inst.graph.adj), list(inst.lists), inst.cover,
                        hadj) is not None


def _tuple_counts(inst, name: str, with_minimal: bool = True):
    return ref.tuple_counts(list(inst.graph.adj), list(inst.lists), inst.cover,
                            list(_target(name).adj), ref.INVARIANTS[name][0],
                            with_minimal)


def _seed32(rng) -> int:
    return rng.next() & 0xFFFFFFFF


def _ok(size: int = 0):
    return "ok", "", size


# --- cli-kernel ------------------------------------------------------------

@dataclass
class CliOp:
    args: list
    check: object  # (payload, exit code) -> (state, message, output size)


class CliKernel:
    """A fresh process per op: what a CLI user pays, cold caches.

    The process is worker.py's `cli` mode, which calls `lhom.cli.main` as
    `python -m lhom` does, so that it can run the calibration sampler.
    """

    name = "cli-kernel"
    pass_s = 12.0  # raw untraced pass at full speed on a 2-vCPU VM
    # (target, n, k, constraints, minimal): the kernels' time follows the
    # number of forbidden tuples and the poly kernel's memory the number of
    # minimal full-width ones (each gets a large special polynomial).  With
    # 4 or 5 cover vertices both hang on a few list sizes and vary threefold
    # between seeds, so each case takes, of DRAWS seeded random instances,
    # the one whose counts are nearest to their medians over seeds, in
    # units of TOLERANCE (None: not constrained).  A fixed number of draws
    # keeps set-up time the same for every seed.  54k is the roadmap's
    # C13^2 n=400 baseline case.
    KERNEL_CASES = (("C13^2", 400, 4, 54_000, 700), ("C6", 800, 5, 42_000, None),
                    ("C5", 400, 5, 4_000, None), ("K4", 400, 5, 2_500, None))
    TOLERANCE = (0.04, 0.08)
    DRAWS = 40
    VERIFY_CASES = (("C6", 300, 4), ("C13^2", 300, 4))
    SOLVE_CASE = ("C6", 1200, 5)

    def setup(self, seed: int, workdir: Path, tiny: bool):
        gen, formats = _lhom()
        scale = 10 if tiny else 1
        rng = gen.SplitMix64(seed)
        texts = {}
        tfile = {}
        ops: list[CliOp] = []
        for name, (k, p) in TARGETS.items():
            tfile[name] = str(workdir / f"{name}.hg")
            texts[tfile[name]] = formats.write_hgraph(
                _target(name), (f"gen: cycle-power k={k} p={p}",))
            ops.append(CliOp(["invariants", tfile[name], "--json"],
                             self._check_invariants(name)))

        def instance_file(tag, name, n, k, mode, counts=(None, None)):
            counts = [c and c / scale for c in counts]
            draws = [(s, _instance(name, n // scale, k, s, mode)) for s in (
                _seed32(rng) for _ in range(self.DRAWS if any(counts) else 1))]
            s, inst = min(draws, key=lambda d: self._distance(d[1], name, counts))
            answer = _answer(inst, name, s, mode)
            path = str(workdir / f"{tag}.lh")
            texts[path] = formats.write_instance(
                inst, _target(name).n, (f"gen: instance seed={s} mode={mode}",))
            return path, inst, answer

        hadjs = {name: list(_target(name).adj) for name in TARGETS}
        for i, (name, n, k, *counts) in enumerate(self.KERNEL_CASES):
            path, inst, answer = instance_file(f"kernel{i}", name, n, k,
                                               "random", counts)
            for method in ("poly", "marking"):
                kpath = str(workdir / f"kernel{i}.{method}.lh")
                ops.append(CliOp(
                    ["kernel", path, "--target", tfile[name], "--method", method,
                     "--emit", kpath, "--json"],
                    self._check_kernel(method, inst.graph.n, kpath, hadjs[name],
                                       answer)))
        for i, (name, n, k) in enumerate(self.VERIFY_CASES):
            path, _, answer = instance_file(f"verify{i}", name, n, k, "planted-yes")
            ops.append(CliOp(["verify-kernel", path, "--target", tfile[name],
                              "--method", "poly", "--json"],
                             self._check_verify(answer)))
        name, n, k = self.SOLVE_CASE
        path, inst, answer = instance_file("solve", name, n, k, "planted-yes")
        ops.append(CliOp(["solve", path, "--target", tfile[name], "--json",
                          "--witness"],
                         self._check_solve(inst, hadjs[name], answer)))
        for path, text in texts.items():
            Path(path).write_text(text, encoding="utf-8")
        return ops, _digest([texts, [op.args for op in ops]])

    def _distance(self, inst, name: str, counts) -> float:
        """Largest deviation of a constrained count, in TOLERANCE units."""
        if not any(counts):
            return 0.0
        got = _tuple_counts(inst, name, counts[1] is not None)
        return max(abs(got[j] / want - 1) / self.TOLERANCE[j]
                   for j, want in enumerate(counts) if want is not None)

    @staticmethod
    def _check_invariants(name):
        def check(payload, code):
            got = (payload.get("c_star"), payload.get("d_star"))
            if got != ref.INVARIANTS[name]:
                return "wrong", f"{name}: c*, d* = {got}", 0
            return _ok() if code == 0 else ("failed", f"exit {code}", 0)
        return check

    @staticmethod
    def _check_kernel(method, n, kpath, hadj, answer):
        def check(payload, code):
            if code != 0:
                return "failed", f"exit {code}", 0
            if payload.get("method") != method or payload.get("vertices_in") != n:
                return "wrong", "report does not describe the input", 0
            if payload.get("bound_formula_ok") is not True:
                return "wrong", "bound_formula_ok is not true", 0
            adj, lists, cover = ref.parse_instance_text(
                Path(kpath).read_text(encoding="utf-8"))
            edges = sum(bin(a).count("1") + (a >> v & 1) for v, a in enumerate(adj)) // 2
            if (len(adj), edges) != (payload["vertices_out"], payload["edges_out"]):
                return "wrong", "emitted kernel differs from the report", 0
            if (ref.list_hom(adj, lists, cover, hadj) is not None) != answer:
                return "wrong", f"{method} kernel answer differs from input", 0
            return _ok(payload["vertices_out"] + payload["edges_out"])
        return check

    @staticmethod
    def _check_verify(answer):
        def check(payload, code):
            got = (payload.get("input"), payload.get("kernel"), payload.get("agree"))
            if got != (answer, answer, True):
                return "wrong", f"input/kernel/agree = {got}", 0
            return _ok() if code == 0 else ("failed", f"exit {code}", 0)
        return check

    @staticmethod
    def _check_solve(inst, hadj, answer):
        def check(payload, code):
            if payload.get("answer") != answer:
                return "wrong", f"answer {payload.get('answer')}", 0
            if answer and not ref.is_list_hom(list(inst.graph.adj),
                                              list(inst.lists), hadj,
                                              payload.get("witness", [])):
                return "wrong", "witness is not a list homomorphism", 0
            return _ok() if code == (0 if answer else 1) else (
                "failed", f"exit {code}", 0)
        return check

    def run_pass(self, ops, workdir: Path, traced: bool, deadline: float,
                 clock) -> PassResult:
        res = PassResult()
        env = child_env()
        for i, op in enumerate(ops):
            remaining = deadline - clock()
            if remaining < 1.0:
                res.statuses.append(("failed", "run deadline reached"))
                continue
            out, err = workdir / "op.out", workdir / "op.err"
            span_path = str(workdir / f"op{i}.spans.json")
            meta = workdir / f"op{i}.meta.json"
            argv = [sys.executable, str(WORKER), "cli", str(meta),
                    span_path if traced else "-", str(i)]
            child = run_child(argv + op.args, env, str(out), str(err),
                              min(OP_TIMEOUT_S, remaining))
            state, msg, size = _cli_state(child, out.read_text(errors="replace"),
                                          err.read_text(errors="replace"), op.check)
            res.statuses.append((state, f"{op.args[0]} {msg}".strip()))
            res.output_size += size if state == "ok" else 0
            res.rss_mb = max(res.rss_mb, child.rss_mb)
            done = json.loads(meta.read_text()) if meta.exists() else None
            wall = _add_child_time(res, child, done)
            if traced and done is not None:
                op_spans = spans.load(span_path)
                res.cli_startup_s += wall - spans.cli_main_s(op_spans)
                res.spans.extend(_reindex(op_spans, len(res.spans)))
        return res


def _reindex(op_spans: list, offset: int) -> list:
    for rec in op_spans:
        if rec[1] >= 0:
            rec[1] += offset
    return op_spans


def _cli_state(child, stdout: str, stderr: str, check):
    if child.timed_out:
        return "failed", "timeout", 0
    if "Traceback (most recent call last)" in stderr:
        return "failed", "crash: " + stderr.strip().splitlines()[-1][:200], 0
    if child.exit_code < 0:
        return "failed", f"killed by signal {-child.exit_code}", 0
    lines = stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except ValueError:
        payload = None
    if not isinstance(payload, dict) or payload.get("schema") != "lhom/1":
        return "failed", f"no lhom/1 JSON (exit {child.exit_code})", 0
    return _checked(check, payload, child.exit_code)


def _checked(check, *args):
    """A check that cannot read the program's output reports a wrong answer."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return "wrong", f"unreadable output: {exc!r}"[:200], 0


# --- library-style workloads ------------------------------------------------

class InProcess:
    """One fresh worker process per pass runs the items as library calls.

    Subclasses build `items` (JSON op descriptions for worker.py) and, per
    item, `checks`: {step: check(out, outs_of_item) -> (state, msg, size)}.
    """

    name = ""

    def setup(self, seed: int, workdir: Path, tiny: bool):
        gen, _ = _lhom()
        items, checks = self.build(gen.SplitMix64(seed), tiny)
        spec = {"targets": {n: list(_target(n).adj) for n in TARGETS},
                "hints": TARGETS, "op_timeout": OP_TIMEOUT_S, "items": items}
        path = workdir / "ops.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return (path, checks), _digest(spec)

    def run_pass(self, corpus, workdir: Path, traced: bool, deadline: float,
                 clock) -> PassResult:
        ops_path, checks = corpus
        results = workdir / "results.jsonl"
        results.unlink(missing_ok=True)
        span_path = workdir / "pass.spans.json"
        argv = [sys.executable, str(WORKER), "pass", str(ops_path), str(results),
                str(span_path) if traced else "-"]
        child = run_child(argv, child_env(), str(workdir / "pass.out"),
                          str(workdir / "pass.err"), max(deadline - clock(), 1.0))
        records, done = {}, None
        lines = results.read_text(encoding="utf-8") if results.exists() else ""
        for line in lines.splitlines():
            rec = json.loads(line)
            if rec.get("done"):
                done = rec
            else:
                records[(rec["item"], rec["step"])] = rec
        res = PassResult(rss_mb=child.rss_mb)
        _add_child_time(res, child, done)
        lost = "timeout" if child.timed_out else f"worker exit {child.exit_code}"
        for i, item_checks in enumerate(checks):
            outs = {step: records[(i, step)]["out"] for step in item_checks
                    if (i, step) in records}
            for step, check in item_checks.items():
                rec = records.get((i, step))
                if rec is None:
                    state, msg, size = "failed", f"not run ({lost})", 0
                elif not rec["ok"]:
                    state, msg, size = "failed", rec["err"], 0
                else:
                    state, msg, size = _checked(check, rec["out"], outs)
                res.statuses.append((state, f"{step} {msg}".strip()))
                res.output_size += size if state == "ok" else 0
        if traced and span_path.exists():
            res.spans = spans.load(span_path)
        return res


def _answer_check(answer, adj=None, lists=None, hadj=None):
    def check(out, outs):
        if out["answer"] != answer:
            return "wrong", f"answer {out['answer']}, reference {answer}", 0
        if "witness" in out and not ref.is_list_hom(adj, lists, hadj,
                                                    out["witness"]):
            return "wrong", "witness is not a list homomorphism", 0
        return _ok()
    return check


def _kernel_check(n_in):
    def check(out, outs):
        if out["vin"] != n_in or out["bound_ok"] is not True:
            return "wrong", f"report vin={out['vin']} bound_ok={out['bound_ok']}", 0
        return _ok(out["vout"] + out["eout"])
    return check


def _pipeline_checks(answer, n_in, adj=None, lists=None, hadj=None) -> dict:
    return {"decide": _answer_check(answer, adj, lists, hadj),
            "marking": _kernel_check(n_in), "poly": _kernel_check(n_in),
            "decide_marking": _answer_check(answer),
            "decide_poly": _answer_check(answer)}


class ForbidCertify(InProcess):
    """forbid() then certify_forbid() on the dominating request family."""

    name = "forbid-certify"
    pass_s = 18.0
    CASES = ("C13^2", "C19^3")
    SUBREQUESTS = 60
    SAMPLE_EVERY = 25

    def build(self, rng, tiny: bool):
        items, checks = [], []
        for name in self.CASES:
            hadj = ref.cycle_power_adj(*TARGETS[name])
            c_star, d_star = ref.INVARIANTS[name]
            full = (1 << len(hadj)) - 1
            family = []
            for s in ref.all_essential_sets(hadj, c_star):
                maximal = full & ~ref.common_nbrs(hadj, s, full)
                for l_mask in sorted({maximal, ref.surplus_list(hadj, s)}):
                    family.append((l_mask, [full] * len(s), list(s)))
            if tiny:
                family = [f for f in family if len(f[2]) < c_star][:20]
            subs = []
            for _ in range(self.SUBREQUESTS // (10 if tiny else 1)):
                l_mask, _, colors = family[rng.below(len(family))]
                sub_l = l_mask & rng.next() or l_mask
                subs.append((sub_l, [rng.next() & full | 1 << c for c in colors],
                             colors))
            for l_mask, lists, colors in family + subs:
                sample = len(items) % self.SAMPLE_EVERY == 0
                items.append({"kind": "forbid", "target": name, "l": l_mask,
                              "lists": lists, "colors": colors, "sample": sample})
                checks.append({"forbid": self._check_forbid(
                    hadj, d_star, l_mask, lists, colors, len(items))})
            items.append({"kind": "probe", "target": name})
            checks.append({"degree_probe": lambda out, outs: _ok() if
                           out["all_ok"] else ("wrong", "probe failed", 0)})
        return items, checks

    @staticmethod
    def _check_forbid(hadj, cap, l_mask, lists, colors, salt):
        def check(out, outs):
            if out["degree"] > cap:
                return "wrong", f"degree {out['degree']} above {cap}", 0
            if out["certified"] is not True:
                return "wrong", "certify_forbid rejected forbid's output", 0
            if "poly" in out:
                mono = [[tuple(x) for x in m] for m in out["poly"]]
                at = lambda tup: ref.poly_value(mono, dict(enumerate(tup)))  # noqa: E731
                if at(colors) != 1:
                    return "wrong", "polynomial vanishes on the forbidden tuple", 0
                rnd = random.Random(salt)
                for _ in range(32):
                    tup = [rnd.choice(ref.bits(f)) for f in lists]
                    if ref.common_nbrs(hadj, tup, l_mask) and at(tup):
                        return "wrong", f"polynomial fires on allowed {tup}", 0
            return _ok(out["terms"])
        return check


class SatOracle(InProcess):
    """K4 gadgets, then reduce_sat -> decide -> both kernels -> decide.

    Each rung of the ladder takes as many satisfiable as unsatisfiable
    CNFs (by the reference DPLL).  The solver's work, and whether it dies
    of recursion depth on the large rungs, depends on the answer, so a
    fixed split gives every seed the same mix of cheap and costly cases
    and the same count of the known failures.
    """

    name = "sat-oracle"
    pass_s = 16.0
    LADDER = (8, 10, 12, 14, 16, 18, 19, 21, 23)  # 402 .. 1156 vertices
    PER_RUNG = 16
    RATIO = 4.26

    def build(self, rng, tiny: bool):
        c_star, d_star = ref.INVARIANTS["K4"]
        hadj = ref.cycle_power_adj(*TARGETS["K4"])
        pairs = [[i, None] for i in range(d_star)]
        pairs += [[i, j] for i in range(d_star) for j in range(d_star) if i != j]
        items = [{"kind": "gadgets", "target": "K4", "pairs": pairs}]
        gadget_checks = {"d_star": lambda out, outs: _ok() if out["order"] == d_star
                         else ("wrong", f"d* = {out['order']}", 0)}
        for i, j in pairs:
            step = f"neq{i}" if j is None else f"comp{i}{j}"
            gadget_checks[step] = self._check_pair(hadj, i, j)
        gadget_checks["variable"] = lambda out, outs: _ok() if (
            out["n"] == 18 * d_star - 8) else ("wrong", f"{out['n']} vertices", 0)
        checks = [gadget_checks]
        ladder = (4, 6) if tiny else self.LADDER
        for nvars in ladder:
            per_rung = 2 if tiny else self.PER_RUNG
            wanted = {True: per_rung // 2, False: per_rung - per_rung // 2}
            while any(wanted.values()):
                clauses = []
                for _ in range(round(self.RATIO * nvars)):
                    vs: list[int] = []
                    while len(vs) < 3:
                        v = rng.below(nvars) + 1
                        if v not in vs:
                            vs.append(v)
                    clauses.append([v if rng.chance(1, 2) else -v for v in vs])
                answer = ref.sat(nvars, clauses)
                if not wanted[answer]:
                    continue
                wanted[answer] -= 1
                n_red = (18 * d_star - 8) * nvars + len(clauses)
                items.append({"kind": "cnf", "target": "K4", "nvars": nvars,
                              "clauses": clauses})
                item_checks = {"reduce_sat": lambda out, outs, n=n_red: _ok() if
                               out["n"] == n else ("wrong", f"{out['n']} vertices", 0)}
                item_checks.update(_pipeline_checks(answer, n_red))
                checks.append(item_checks)
        return items, checks

    @staticmethod
    def _check_pair(hadj, i, j):
        def check(out, outs):
            lbs = outs.get("d_star")
            if lbs is None:
                return "failed", "no structure to check against", 0
            xs, xps = lbs["xs"], lbs["xps"]
            want = ({(xs[i], xps[i]), (xps[i], xs[i])} if j is None
                    else {(xs[i], xs[j]), (xps[i], xps[j])})
            got = ref.restrictions(out["edges"], out["lists"], hadj,
                                   (out["u"], out["v"]))
            if out["n"] != 10 or got != want:
                return "wrong", f"restrictions {sorted(got)}", 0
            return _ok()
        return check


class LibrarySweep(InProcess):
    """Many small instances per target in one process; caches carry over.

    Sizes come from a fixed grid and only the instances' contents from the
    seed.  The poly kernel's time follows an instance's forbidden tuples
    (about 0.1 ms each on C13^2) and its memory the minimal full-width ones
    (each gets a large special polynomial); a few heavy C13^2 instances
    make most of a pass and set its peak RSS.  So each grid cell first sets
    typical counts, the medians over REF_DRAWS instances drawn from a fixed
    seed, and then takes, for each of its PER_CELL slots, the one of DRAWS
    seeded instances whose counts are nearest to them.  Every seed then
    does about the same work in about the same memory.
    """

    name = "library-sweep"
    pass_s = 3.5
    CASES = ("C5", "C6", "C13^2", "K4")
    GRID = tuple((n, k) for k in range(2, 7) for n in (8, 13, 18))
    MAX_K = {"C13^2": 5}
    PER_CELL = 2  # instances per grid cell and mode
    REF_SEED = 0
    REF_DRAWS = 7
    DRAWS = 12
    TOLERANCE = (0.05, 0.2)

    def build(self, rng, tiny: bool):
        gen, _ = _lhom()
        ref_rng = gen.SplitMix64(self.REF_SEED)
        items, checks = [], []
        for name in self.CASES:
            hadj = list(_target(name).adj)
            grid = [(n, k) for n, k in self.GRID if k <= self.MAX_K.get(name, k)]
            for n, k in grid[::5] if tiny else grid:
                for mode in ("random", "planted-yes"):
                    pool = [_tuple_counts(_instance(name, n, k, _seed32(ref_rng),
                                                    mode), name)
                            for _ in range(self.REF_DRAWS)]
                    typical = [sorted(c)[len(c) // 2] for c in zip(*pool)]
                    for _ in range(self.PER_CELL):
                        draws = [(s, _instance(name, n, k, s, mode))
                                 for s in (_seed32(rng) for _ in range(self.DRAWS))]
                        s, inst = min(draws, key=lambda d: self._distance(
                            _tuple_counts(d[1], name), typical))
                        answer = _answer(inst, name, s, mode)
                        adj, lists = list(inst.graph.adj), list(inst.lists)
                        items.append({"kind": "sweep", "target": name, "inst": {
                            "n": n, "edges": inst.graph.edges(), "lists": lists,
                            "cover": inst.cover}})
                        checks.append(_pipeline_checks(answer, n, adj, lists, hadj))
        return items, checks

    def _distance(self, counts, typical) -> float:
        """Largest relative deviation of (forbidden, minimal) counts from
        typical, in TOLERANCE units."""
        return max(abs(c - t) / (t + 1) / tol
                   for c, t, tol in zip(counts, typical, self.TOLERANCE))


WORKLOADS = {w.name: w for w in (CliKernel(), ForbidCertify(), SatOracle(),
                                 LibrarySweep())}
