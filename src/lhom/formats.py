"""Line-oriented file formats for target graphs, instances, and DIMACS CNF.

Target graph file: header ``p hgraph <h>`` followed by edge lines
``e <u> <v>`` (0-indexed, ``e v v`` is a loop).  Instance file: header
``p lhom <n> <m> <h>``, edge lines, one mandatory list line ``l <v> <c...>``
per vertex and an optional cover line ``x <v...>``.  Lines starting with
``#`` or ``c`` are comments in both formats; unknown line types are an
error.  Generator provenance is carried in comments of the form
``gen: <name> key=value ...`` and surfaced as hints.
"""

from __future__ import annotations

from .bitset import bit_list, mask_of
from .errors import FormatError
from .graphs import Graph, Instance


def _data_lines(text: str):
    comments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or line.split()[0] == "c":
            comments.append(line.lstrip("#c").strip())
            continue
        yield lineno, line.split(), comments


def _hints_from_comments(comments: list[str]) -> dict:
    hints: dict = {}
    for comment in comments:
        if not comment.startswith("gen:"):
            continue
        fields = comment[4:].split()
        if not fields:
            continue
        name, kv = fields[0], {}
        for item in fields[1:]:
            if "=" in item:
                key, _, val = item.partition("=")
                try:
                    kv[key] = int(val)
                except ValueError:
                    kv[key] = val
        k, p = kv.get("k"), kv.get("p")
        # a hint with a missing or non-integer k or p is ignored
        if name == "cycle-power" and isinstance(k, int) and isinstance(p, int):
            hints["cycle_power"] = (k, p)
    return hints


def _ints(fields, lineno, expect=None):
    try:
        vals = [int(f) for f in fields]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: expected integers") from exc
    if expect is not None and len(vals) != expect:
        raise FormatError(f"line {lineno}: expected {expect} integers")
    return vals


def parse_hgraph(text: str) -> tuple[Graph, dict]:
    """Parse a target graph file; returns the graph and generator hints."""
    h = None
    edges = []
    all_comments: list[str] = []
    for lineno, fields, comments in _data_lines(text):
        all_comments = comments
        kind = fields[0]
        if kind == "p":
            if h is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(fields) != 3 or fields[1] != "hgraph":
                raise FormatError(f"line {lineno}: expected 'p hgraph <h>'")
            (h,) = _ints(fields[2:], lineno, 1)
        elif kind == "e":
            if h is None:
                raise FormatError(f"line {lineno}: edge before header")
            u, v = _ints(fields[1:], lineno, 2)
            edges.append((u, v))
        else:
            raise FormatError(f"line {lineno}: unknown line type {kind!r}")
    if h is None:
        raise FormatError("missing 'p hgraph' header")
    try:
        graph = Graph.from_edges(h, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return graph, _hints_from_comments(all_comments)


def write_hgraph(g: Graph, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"p hgraph {g.n}")
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[Instance, int]:
    """Parse an instance file; returns the instance and the target size h."""
    header = None
    edges = []
    lists: dict[int, int] = {}
    cover = None
    for lineno, fields, _ in _data_lines(text):
        kind = fields[0]
        if kind == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(fields) != 5 or fields[1] != "lhom":
                raise FormatError(f"line {lineno}: expected 'p lhom <n> <m> <h>'")
            header = _ints(fields[2:], lineno, 3)
        elif header is None:
            raise FormatError(f"line {lineno}: data before header")
        elif kind == "e":
            u, v = _ints(fields[1:], lineno, 2)
            edges.append((u, v))
        elif kind == "l":
            vals = _ints(fields[1:], lineno)
            if not vals:
                raise FormatError(f"line {lineno}: list line needs a vertex")
            v, colors = vals[0], vals[1:]
            if v in lists:
                raise FormatError(f"line {lineno}: duplicate list for vertex {v}")
            lists[v] = mask_of(colors)
        elif kind == "x":
            if cover is not None:
                raise FormatError(f"line {lineno}: duplicate cover line")
            cover = mask_of(_ints(fields[1:], lineno))
        else:
            raise FormatError(f"line {lineno}: unknown line type {kind!r}")
    if header is None:
        raise FormatError("missing 'p lhom' header")
    n, m, h = header
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    if sorted(lists) != list(range(n)):
        raise FormatError("exactly one list line per vertex is required")
    for v, mask in lists.items():
        if mask >> h:
            raise FormatError(f"list of vertex {v} mentions colors >= {h}")
    try:
        graph = Graph.from_edges(n, edges)
        inst = Instance(graph, tuple(lists[v] for v in range(n)), cover)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return inst, h


def write_instance(inst: Instance, h: int, comments: tuple[str, ...] = ()) -> str:
    g = inst.graph
    lines = [f"c {c}" for c in comments]
    lines.append(f"p lhom {g.n} {g.edge_count()} {h}")
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    for v in range(g.n):
        lines.append("l " + " ".join(str(x) for x in [v] + bit_list(inst.lists[v])))
    if inst.cover is not None:
        lines.append("x " + " ".join(str(v) for v in bit_list(inst.cover)))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Parse DIMACS CNF; returns (variable count, clauses as literal lists)."""
    header = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, fields, _ in _data_lines(text):
        if fields[0] == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(fields) != 4 or fields[1] != "cnf":
                raise FormatError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
            header = _ints(fields[2:], lineno, 2)
            continue
        if header is None:
            raise FormatError(f"line {lineno}: clause before header")
        for lit in _ints(fields, lineno):
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > header[0]:
                    raise FormatError(f"line {lineno}: literal {lit} out of range")
                current.append(lit)
    if header is None:
        raise FormatError("missing 'p cnf' header")
    if current:
        raise FormatError("last clause not terminated by 0")
    nvars, nclauses = header
    if len(clauses) != nclauses:
        raise FormatError(f"header declares {nclauses} clauses, found {len(clauses)}")
    return nvars, clauses
