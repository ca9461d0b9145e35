"""Command-line entry point.

Every subcommand but gen accepts --json and then emits exactly one JSON
object on stdout (schema tag "lhom/1").  Exit codes: 0 success, 1 for a
negative decision answer, 2 usage or input-format errors, 3 exhausted
budgets or failed certifications.  Every budget is fixed in the code, and
gen refuses a target above formats.MAX_COLORS before it generates one.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats, generators, invariants, kernels, reductions
from .bitset import mask_of
from .errors import BudgetExceededError, CertificationError, FormatError
from .forbid import ForbidRequest, forbid
from .graphs import Graph, Instance, common_neighbors
from .solver import decide

SCHEMA = "lhom/1"


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _load_target(path: str) -> tuple[Graph, tuple[int, int] | None]:
    return formats.parse_hgraph(_read(path))


def _load_problem(args) -> tuple[Graph, tuple[int, int] | None, Instance]:
    """The --target graph, its hint, and the instance file checked against it."""
    hg, hint = _load_target(args.target)
    inst, h = formats.parse_instance(_read(args.instance))
    if h != hg.n:
        raise FormatError("instance and target disagree on the color count")
    return hg, hint, inst


def _cmd_invariants(args) -> int:
    hg, hint = _load_target(args.hgraph)
    report = invariants.classify(hg, cycle_power=hint)
    nba = invariants.find_non_bi_arc_witness(hg)
    report["non_bi_arc_witness"] = None if nba is None else list(nba)
    human = (f"c_star={report['c_star']} d_star={report['d_star']} "
             f"delta={report['delta']} recommended_degree="
             f"{report['recommended_degree']} ({report['recommended_by']})")
    _emit(args, report, human)
    return 0


def _cmd_solve(args) -> int:
    hg, _, inst = _load_problem(args)
    yes, witness = decide(inst, hg)
    payload = {"answer": yes}
    if yes and args.witness:
        payload["witness"] = list(witness)
    human = "yes" if yes else "no"
    if yes and args.witness:
        human += " " + " ".join(f"{v}->{c}" for v, c in enumerate(witness))
    _emit(args, payload, human)
    return 0 if yes else 1


def _cmd_kernel(args) -> int:
    hg, hint, inst = _load_problem(args)
    report = kernels.kernelize(inst, hg, args.method, cycle_power=hint)
    if args.emit:
        comments = (f"method={report.method} degree={report.degree_used} "
                    f"vin={report.vertices_in} vout={report.vertices_out}",)
        _write(args.emit, formats.write_instance(report.kernel, hg.n, comments))
    payload = {
        "method": report.method, "degree": report.degree_used,
        "vertices_in": report.vertices_in, "edges_in": report.edges_in,
        "vertices_out": report.vertices_out, "edges_out": report.edges_out,
        "bound_k": report.bound_k, "bound_formula_ok": report.bound_formula_ok,
        "constraints_total": report.constraints_total,
        "constraints_retained": report.constraints_retained,
    }
    human = (f"{report.method}: {report.vertices_in}v/{report.edges_in}e -> "
             f"{report.vertices_out}v/{report.edges_out}e "
             f"(degree {report.degree_used}, k={report.bound_k})")
    _emit(args, payload, human)
    return 0


def _cmd_verify_kernel(args) -> int:
    hg, hint, inst = _load_problem(args)
    report = kernels.kernelize(inst, hg, args.method, cycle_power=hint)
    before, _ = decide(inst, hg)
    after, _ = decide(report.kernel, hg)
    agree = before == after
    _emit(args, {"input": before, "kernel": after, "agree": agree},
          f"input={before} kernel={after} agree={agree}")
    return 0 if agree else 1


def _parse_colors(text: str, h: int, what: str) -> list[int]:
    """The colors of a --tuple, --list or --lists part, checked against V(H)."""
    colors = []
    for part in text.replace(",", " ").split():
        try:
            c = int(part)
        except ValueError as exc:
            raise FormatError(
                f"{what} color {part!r} is not an integer") from exc
        if not 0 <= c < h:
            raise FormatError(f"{what} color {c} is out of range 0..{h - 1}")
        colors.append(c)
    return colors


def _default_list_for(hg: Graph, color: int) -> int:
    kept = above = 0  # above: colors whose neighborhood holds a kept color's
    for v in (color, *range(hg.n)):
        if not above >> v & 1:
            up = common_neighbors(hg, hg.adj[v], hg.full_mask)
            if not up & kept:
                kept, above = kept | 1 << v, above | up
    return kept


def _cmd_forbid(args) -> int:
    hg, hint = _load_target(args.target)
    colors = tuple(_parse_colors(args.tuple, hg.n, "tuple"))
    l_mask = mask_of(_parse_colors(args.list, hg.n, "list"))
    if args.lists:
        lists = tuple(mask_of(_parse_colors(part, hg.n, "candidate list"))
                      for part in args.lists.split(";"))
    else:
        lists = tuple(_default_list_for(hg, c) for c in colors)
    verts = tuple(range(len(colors)))
    req = ForbidRequest(hg, l_mask, lists, verts, colors)
    result = forbid(req, cycle_power=hint)
    if args.degree is not None and result.degree > args.degree:
        raise CertificationError(
            f"no certified polynomial of degree <= {args.degree}; "
            f"best construction has degree {result.degree}")
    payload = {"method": result.method, "degree": result.degree,
               "polynomial": str(result.poly)}
    _emit(args, payload, f"{result.poly}  (degree {result.degree}, "
                         f"{result.method})")
    return 0


def _cmd_reduce_sat(args) -> int:
    hg, _ = _load_target(args.target)
    nvars, clauses = formats.parse_dimacs(_read(args.cnf))
    if args.lbs_order is not None:
        lbs = invariants.find_lbs(hg, args.lbs_order)
        if lbs is None:
            raise FormatError(f"no lower bound structure of order {args.lbs_order}")
    else:
        _, lbs = invariants.compute_d_star(hg)
    if lbs is None or lbs.order < 3:
        raise FormatError("target admits no structure of order >= 3; "
                          "pick another target or pass --lbs-order")
    inst = reductions.reduce_sat(nvars, clauses, hg, lbs)
    comments = (f"reduce-sat vars={nvars} clauses={len(clauses)} "
                f"order={lbs.order}",)
    text = formats.write_instance(inst, hg.n, comments)
    n, cover = inst.graph.n, inst.cover.bit_count()
    if args.out:
        _write(args.out, text)
        _emit(args, {"vertices": n, "cover_size": cover, "out": args.out},
              f"wrote {args.out}: {n} vertices, cover {cover}")
    else:  # the text itself, or under --json inside the one object
        _emit(args, {"vertices": n, "cover_size": cover, "instance": text},
              text.removesuffix("\n"))
    return 0


def _cmd_gadget_check(args) -> int:
    hg, _ = _load_target(args.target)
    d, lbs = invariants.compute_d_star(hg)
    if lbs is None or d < 3:
        raise FormatError("gadgets need a lower bound structure of order >= 3")
    gadgets = [reductions.build_neq(hg, lbs, i) for i in range(d)]
    gadgets += [reductions.build_comp(hg, lbs, i, j)
                for i in range(d) for j in range(d) if i != j]
    results = [{"kind": g.kind, "params": list(g.params),
                "vertices": g.graph.n, "certified": True} for g in gadgets]
    vg = reductions.build_variable_gadget(hg, lbs)
    results.append({"kind": "VAR", "params": [], "vertices": vg.graph.n,
                    "certified": True})
    payload = {"order": d, "gadgets": results}
    _emit(args, payload,
          f"order {d}: {len(results)} gadgets certified "
          f"({len(results) - 1} pair gadgets, variable gadget "
          f"{vg.graph.n} vertices)")
    return 0


def _refuse_above(count: int, limit: int, what: str) -> None:
    if count > limit:
        raise FormatError(f"{what.format(count)}, above the limit of {limit}")


def _cmd_gen(args) -> int:
    if args.what == "hgraph":
        cycle = args.kind == "cycle-power"
        if cycle and (args.k is None or args.p is None):
            raise FormatError("cycle-power needs --k and --p")
        if not cycle and args.r is None:
            raise FormatError("subdivided-star needs --r")
        _refuse_above(args.k if cycle else 3 * args.r + 1, formats.MAX_COLORS,
                      "target has {} colors")  # parse_hgraph's limit
        if cycle:
            _refuse_above(generators.cycle_power_edges(args.k, args.p),
                          generators.MAX_EDGES, "target has {} edges")
            g = generators.gen_cycle_power(args.k, args.p)
            comments = (f"gen: cycle-power k={args.k} p={args.p}",)
        else:
            g = generators.gen_subdivided_star(args.r)
            comments = (f"gen: subdivided-star r={args.r}",)
        text = formats.write_hgraph(g, comments)
    else:
        _refuse_above(args.n, generators.MAX_EDGES, "instance has {} vertices")
        _refuse_above(generators.cover_edges(args.n, args.k),
                      generators.MAX_EDGES, "instance can have {} edges")
        hg, _ = _load_target(args.target)
        inst = generators.gen_instance(hg, args.n, args.k, args.seed, args.mode)
        comments = (f"gen: instance seed={args.seed} mode={args.mode}",)
        text = formats.write_instance(inst, hg.n, comments)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhom",
        description="List homomorphism kernelization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariants and kernel degrees")
    p.add_argument("hgraph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("solve", help="decide list-homomorphism existence")
    p.add_argument("instance")
    p.add_argument("--target", required=True)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kernel", help="shrink an instance")
    p.add_argument("instance")
    p.add_argument("--target", required=True)
    p.add_argument("--method", required=True, choices=["marking", "poly"])
    p.add_argument("--emit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("verify-kernel", help="oracle check input vs kernel")
    p.add_argument("instance")
    p.add_argument("--target", required=True)
    p.add_argument("--method", required=True, choices=["marking", "poly"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_kernel)

    p = sub.add_parser("forbid", help="certified forbidding polynomial")
    p.add_argument("--target", required=True)
    p.add_argument("--list", required=True, help="target list colors")
    p.add_argument("--tuple", required=True, help="forbidden colors")
    p.add_argument("--lists", help="semicolon-separated candidate lists")
    p.add_argument("--degree", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_forbid)

    p = sub.add_parser("reduce-sat", help="CNF to list-homomorphism instance")
    p.add_argument("cnf")
    p.add_argument("--target", required=True)
    p.add_argument("--lbs-order", dest="lbs_order", type=int)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce_sat)

    p = sub.add_parser("gadget-check", help="build and certify all gadgets")
    p.add_argument("--target", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gadget_check)

    p = sub.add_parser("gen", help="write seeded graphs and instances")
    gsub = p.add_subparsers(dest="what", required=True)
    g = gsub.add_parser("hgraph")
    g.add_argument("kind", choices=["cycle-power", "subdivided-star"])
    g.add_argument("--k", type=int)
    g.add_argument("--p", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("instance")
    g.add_argument("--target", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--mode", default="random",
                   choices=["random", "planted-yes"])
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
