"""Spans recorded from outside the program, and the per-layer metrics.

A traced child replaces the module-level names that each caller looks up at
call time with timing wrappers, so no file of the package changes.  A span
records its name, parent span, op id, start, end, whether it raised and a
note of counts.  Spans stay in memory and are written out when the child
ends; load() turns them into rows [name, parent span index, op id, start,
end, raised, note].  Self time is a span's duration minus the duration of
its direct children (the program is single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (module, attribute, span name, note on (args, result)).  Modules are looked
# up with importlib because `lhom.forbid` as an attribute of the package is
# the function, not the module.
WRAPS = (
    ("lhom.cli", "main", "cli.main", None),
    ("lhom.cli", "decide", "solver.decide", None),
    ("lhom.solver", "decide", "solver.decide", None),
    ("lhom.reductions", "enumerate_restricted", "solver.enumerate", None),
    ("lhom.reductions", "reduce_sat", "reductions.reduce_sat", None),
    ("lhom.reductions", "build_neq", "reductions.gadget", None),
    ("lhom.reductions", "build_comp", "reductions.gadget", None),
    ("lhom.reductions", "build_variable_gadget", "reductions.gadget", None),
    ("lhom.kernels", "kernel_poly", "kernels.poly",
     lambda a, r: (r.constraints_total, r.constraints_retained)),
    ("lhom.kernels", "kernel_marking", "kernels.marking", None),
    ("lhom.kernels", "forbid", "forbid.synth", None),
    ("lhom.kernels", "forbid_monomial", "forbid.synth", None),
    ("lhom.forbid", "forbid", "forbid.synth", None),
    ("lhom.kernels", "minimal_subrequest", "forbid.minimal_subrequest", None),
    ("lhom.forbid", "minimal_subrequest", "forbid.minimal_subrequest", None),
    ("lhom.forbid", "certify_forbid", "forbid.certify", None),
    ("lhom.forbid", "forbid_linear_system", "forbid.linear_system", None),
    ("lhom.forbid", "poly_local", "gf2.poly_local", None),
    ("lhom.gf2", "solve_linear_system", "gf2.solve_linear_system", None),
    ("lhom.kernels", "extract_basis", "gf2.extract_basis",
     lambda a, r: (len(a[0]), len(r))),
    ("lhom.kernels", "reduce_lists", "graphs.reduce_lists", None),
    ("lhom.forbid", "is_incomparable_set", "graphs.incomparable_check", None),
    ("lhom.kernels", "compute_c_star", "invariants.c_star", None),
    ("lhom.invariants", "compute_c_star", "invariants.c_star", None),
    ("lhom.forbid", "compute_d_star", "invariants.d_star", None),
    ("lhom.invariants", "compute_d_star", "invariants.d_star", None),
    ("lhom.invariants", "classify", "invariants.classify", None),
    ("lhom.invariants", "degree_probe", "invariants.degree_probe", None),
    ("lhom.formats", "parse_hgraph", "formats.parse", None),
    ("lhom.formats", "parse_instance", "formats.parse", None),
    ("lhom.formats", "parse_dimacs", "formats.parse", None),
    ("lhom.formats", "write_hgraph", "formats.write", None),
    ("lhom.formats", "write_instance", "formats.write", None),
)


class Recorder:
    """In-memory span log; `op` tags every span opened while it is set.

    Spans are kept in columns of typed arrays, so recording allocates no
    objects the garbage collector has to trace (a list per span made the
    collector rescan the program's own heap and inflated traced runs).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.notes: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, note=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack, clock, notes = self.stack, time.perf_counter, self.notes
        names, parent, op_of = self.name, self.parent, self.op_of
        start, end, raised = self.start, self.end, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            raised.append(0)
            end.append(0.0)
            start.append(clock())
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                notes[i] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, note in WRAPS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), note))
        gf2 = importlib.import_module("lhom.gf2")
        gf2.Gf2Poly.remap_vertices = self.wrap(
            "gf2.remap", gf2.Gf2Poly.remap_vertices)

    def dump(self, path: str) -> float:
        """Write the spans as JSON columns; returns the seconds it took."""
        t0 = time.perf_counter()
        cols = {"names": self.names, "notes": list(self.notes.items())}
        for key in ("name", "parent", "op_of", "start", "end", "raised"):
            cols[key] = getattr(self, key).tolist()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cols, fh, separators=(",", ":"))
        return time.perf_counter() - t0


def load(path) -> list[list]:
    """Spans as [name, parent, op, start, end, raised, note] rows."""
    with open(path, encoding="utf-8") as fh:
        cols = json.load(fh)
    notes = dict((i, note) for i, note in cols["notes"])
    return [[cols["names"][n], p, op, s, e, bool(r), notes.get(i)]
            for i, (n, p, op, s, e, r) in enumerate(zip(
                cols["name"], cols["parent"], cols["op_of"], cols["start"],
                cols["end"], cols["raised"]))]


# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "graphs.incomparable_check_s": ("s", "lower"),
    "graphs.incomparable_check_calls": ("count", "lower"),
    "graphs.reduce_lists_s": ("s", "lower"),
    "forbid.minimal_subrequest_s": ("s", "lower"),
    "forbid.synth_self_s": ("s", "lower"),
    "forbid.synth_calls": ("count", "lower"),
    "forbid.certify_s": ("s", "lower"),
    "forbid.certify_calls": ("count", "lower"),
    "forbid.linear_system_s": ("s", "lower"),
    "gf2.remap_s": ("s", "lower"),
    "gf2.solve_linear_system_s": ("s", "lower"),
    "gf2.poly_local_s": ("s", "lower"),
    "gf2.extract_basis_s": ("s", "lower"),
    "gf2.basis_rows_in": ("count", "lower"),
    "gf2.basis_rows_kept": ("count", "lower"),
    "kernels.marking_s": ("s", "lower"),
    "kernels.poly_s": ("s", "lower"),
    "kernels.poly_self_s": ("s", "lower"),
    "kernels.constraints_total": ("count", "lower"),
    "kernels.retained_ratio": ("ratio", "higher"),
    "kernels.forbid_cache_hit_ratio": ("ratio", "higher"),
    "solver.decide_s": ("s", "lower"),
    "solver.decide_calls": ("count", "lower"),
    "solver.enumerate_s": ("s", "lower"),
    "solver.enumerate_calls": ("count", "lower"),
    "solver.failed": ("count", "lower"),
    "reductions.reduce_sat_s": ("s", "lower"),
    "reductions.gadget_build_s": ("s", "lower"),
    "invariants.c_star_s": ("s", "lower"),
    "invariants.d_star_s": ("s", "lower"),
    "invariants.d_star_calls": ("count", "lower"),
    "invariants.classify_s": ("s", "lower"),
    "invariants.degree_probe_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "formats.parse_s": ("s", "lower"),
    "formats.write_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class _Totals:
    """Inclusive time (outermost span of a name only), self time and counts."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child_time[rec[1]] += rec[4] - rec[3]
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        for i, rec in enumerate(spans):
            name, dur = rec[0], rec[4] - rec[3]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time[i]
            if not self._nested_in_same(i):
                self.incl[name] = self.incl.get(name, 0.0) + dur
                self.failed[name] = self.failed.get(name, 0) + rec[5]

    def _nested_in_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def notes(self, name: str) -> list:
        return [rec[6] for rec in self.spans if rec[0] == name and rec[6]]

    def calls_under(self, name: str, parent_name: str) -> int:
        return sum(1 for rec in self.spans if rec[0] == name and rec[1] >= 0
                   and self.spans[rec[1]][0] == parent_name)


def layer_metrics(spans: list[list], cli_startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace.overhead_ratio)."""
    t = _Totals(spans)
    incl = lambda n: t.incl.get(n, 0.0)  # noqa: E731
    calls = lambda n: t.calls.get(n, 0)  # noqa: E731
    poly_notes = t.notes("kernels.poly")
    total = sum(n[0] for n in poly_notes)
    retained = sum(n[1] for n in poly_notes)
    basis = t.notes("gf2.extract_basis")
    remaps = t.calls_under("gf2.remap", "kernels.poly")
    misses = t.calls_under("forbid.synth", "kernels.poly")
    return {
        "graphs.incomparable_check_s": incl("graphs.incomparable_check"),
        "graphs.incomparable_check_calls": calls("graphs.incomparable_check"),
        "graphs.reduce_lists_s": incl("graphs.reduce_lists"),
        "forbid.minimal_subrequest_s": incl("forbid.minimal_subrequest"),
        "forbid.synth_self_s": t.self_s.get("forbid.synth", 0.0),
        "forbid.synth_calls": calls("forbid.synth"),
        "forbid.certify_s": incl("forbid.certify"),
        "forbid.certify_calls": calls("forbid.certify"),
        "forbid.linear_system_s": incl("forbid.linear_system"),
        "gf2.remap_s": incl("gf2.remap"),
        "gf2.solve_linear_system_s": incl("gf2.solve_linear_system"),
        "gf2.poly_local_s": incl("gf2.poly_local"),
        "gf2.extract_basis_s": incl("gf2.extract_basis"),
        "gf2.basis_rows_in": sum(n[0] for n in basis),
        "gf2.basis_rows_kept": sum(n[1] for n in basis),
        "kernels.marking_s": incl("kernels.marking"),
        "kernels.poly_s": incl("kernels.poly"),
        "kernels.poly_self_s": t.self_s.get("kernels.poly", 0.0),
        "kernels.constraints_total": total,
        "kernels.retained_ratio": retained / total if total else 0.0,
        "kernels.forbid_cache_hit_ratio": 1 - misses / remaps if remaps else 0.0,
        "solver.decide_s": incl("solver.decide"),
        "solver.decide_calls": calls("solver.decide"),
        "solver.enumerate_s": incl("solver.enumerate"),
        "solver.enumerate_calls": calls("solver.enumerate"),
        "solver.failed": (t.failed.get("solver.decide", 0)
                          + t.failed.get("solver.enumerate", 0)),
        "reductions.reduce_sat_s": incl("reductions.reduce_sat"),
        "reductions.gadget_build_s": incl("reductions.gadget"),
        "invariants.c_star_s": incl("invariants.c_star"),
        "invariants.d_star_s": incl("invariants.d_star"),
        "invariants.d_star_calls": calls("invariants.d_star"),
        "invariants.classify_s": incl("invariants.classify"),
        "invariants.degree_probe_s": incl("invariants.degree_probe"),
        "cli.startup_s": cli_startup_s,
        "formats.parse_s": incl("formats.parse"),
        "formats.write_s": incl("formats.write"),
    }


def cli_main_s(spans: list[list]) -> float:
    return sum(rec[4] - rec[3] for rec in spans if rec[0] == "cli.main")
