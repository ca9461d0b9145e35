"""Line-oriented file formats for target graphs, instances, and DIMACS CNF.

Target graph file: header ``p hgraph <h>`` followed by edge lines
``e <u> <v>`` (0-indexed, ``e v v`` is a loop).  Instance file: header
``p lhom <n> <m> <h>``, edge lines, one mandatory list line ``l <v> <c...>``
per vertex and an optional cover line ``x <v...>``.  DIMACS: header
``p cnf <vars> <clauses>``, then literals, each clause ended by ``0``.
One header rule, kept by `_read`, holds in all three: exactly one ``p``
line, naming the format and giving its count of non-negative integers,
and no data line ahead of it.  Blank lines are skipped; lines starting
with ``#`` or ``c`` are comments; other unknown line types are an error.
The last ``gen: cycle-power k=<k> p=<p>`` comment whose k and p are both
integers is surfaced as the cycle-power hint (k, p).  A target has at most
MAX_COLORS vertices (colors), checked before its adjacency is allocated,
and an instance header at most MAX_COLORS colors, checked before any list
mask is built.
"""

from __future__ import annotations

from .bitset import bit_list, mask_of
from .errors import FormatError
from .graphs import Graph, Instance

MAX_COLORS = 1 << 16  # the largest target in tests, CI or the benchmark has 37


def _read(text: str, usage: str, line) -> tuple[list[int], list[str]]:
    """The one reading loop: returns the header's numbers and the comments.

    Skips blank lines, collects comments and owns the ``p <usage>`` header;
    every other line goes to ``line(lineno, fields, header)``, with header
    None ahead of the header line, so errors are raised in line order.
    """
    name, *counts = usage.split()
    header = None
    comments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if fields[0][0] == "#" or fields[0] == "c":
            comments.append(raw.strip().lstrip("#c").strip())
        elif fields[0] != "p":
            line(lineno, fields, header)
        elif header is not None:
            raise FormatError(f"line {lineno}: duplicate header")
        elif fields[1:2] != [name] or len(fields) != 2 + len(counts):
            raise FormatError(f"line {lineno}: expected 'p {usage}'")
        else:
            header = _naturals(fields[2:], lineno)
    if header is None:
        raise FormatError(f"missing 'p {name}' header")
    return header, comments


def _cycle_power_hint(comments: list[str]) -> tuple[int, int] | None:
    """(k, p) of the last ``gen: cycle-power`` comment where both are ints."""
    hint = None
    for comment in comments:
        fields = comment[4:].split() if comment.startswith("gen:") else []
        if fields[:1] == ["cycle-power"]:
            kv = dict(item.partition("=")[::2] for item in fields if "=" in item)
            try:
                hint = int(kv["k"]), int(kv["p"])
            except (KeyError, ValueError):
                pass
    return hint


def _ints(fields, lineno, expect=None):
    try:
        vals = [int(f) for f in fields]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: expected integers") from exc
    if expect is not None and len(vals) != expect:
        raise FormatError(f"line {lineno}: expected {expect} integers")
    return vals


def _naturals(fields, lineno):
    vals = _ints(fields, lineno)
    if any(v < 0 for v in vals):
        raise FormatError(f"line {lineno}: expected non-negative integers")
    return vals


def _edge(fields, lineno, n):
    u, v = _ints(fields, lineno, 2)
    if not (0 <= u < n and 0 <= v < n):
        raise FormatError(f"line {lineno}: edge ({u}, {v}) out of range")
    return u, v


def parse_hgraph(text: str) -> tuple[Graph, tuple[int, int] | None]:
    """Parse a target graph file: the graph, and the cycle-power hint (k, p)
    of its comments (module docstring) or None."""
    edges = []

    def line(lineno, fields, header):
        if fields[0] != "e":
            raise FormatError(f"line {lineno}: unknown line type {fields[0]!r}")
        if header is None:
            raise FormatError(f"line {lineno}: edge before header")
        edges.append(_edge(fields[1:], lineno, header[0]))

    (h,), comments = _read(text, "hgraph <h>", line)
    if h > MAX_COLORS:
        raise FormatError(f"target has {h} colors, above the limit of "
                          f"{MAX_COLORS}")
    return Graph.from_edges(h, edges), _cycle_power_hint(comments)


def write_hgraph(g: Graph, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"p hgraph {g.n}")
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[Instance, int]:
    """Parse an instance file; returns the instance and the target size h."""
    edges = []
    lists: dict[int, list[int]] = {}  # vertex -> its colors
    covers = []  # the cover line, when there is one

    def line(lineno, fields, header):
        kind = fields[0]
        if header is None:
            raise FormatError(f"line {lineno}: data before header")
        if kind == "e":
            edges.append(_edge(fields[1:], lineno, header[0]))
        elif kind == "l":
            vals = _naturals(fields[1:], lineno)
            if not vals:
                raise FormatError(f"line {lineno}: list line needs a vertex")
            v, *colors = vals
            if v in lists:
                raise FormatError(f"line {lineno}: duplicate list for vertex {v}")
            lists[v] = colors
        elif kind == "x":
            if covers:
                raise FormatError(f"line {lineno}: duplicate cover line")
            covers.append(_naturals(fields[1:], lineno))
        else:
            raise FormatError(f"line {lineno}: unknown line type {kind!r}")

    (n, m, h), _ = _read(text, "lhom <n> <m> <h>", line)
    if h > MAX_COLORS:
        raise FormatError(f"header declares {h} colors, above the limit of "
                          f"{MAX_COLORS}")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    # counted, and masks built after their checks: work follows the file's length
    if len(lists) != n or any(v >= n for v in lists):
        raise FormatError("exactly one list line per vertex is required")
    for v, colors in lists.items():
        if any(c >= h for c in colors):
            raise FormatError(f"list of vertex {v} mentions colors >= {h}")
    if any(v >= n for cover in covers for v in cover):
        raise FormatError("cover vertex out of range")
    try:
        inst = Instance(Graph.from_edges(n, edges),
                        tuple(mask_of(lists[v]) for v in range(n)),
                        *map(mask_of, covers))
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
        lines.append("x" + "".join(f" {v}" for v in bit_list(inst.cover)))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Parse DIMACS CNF; returns (variable count, clauses as literal lists)."""
    clauses: list[list[int]] = [[]]  # the last one is still open

    def line(lineno, fields, header):
        if header is None:
            raise FormatError(f"line {lineno}: clause before header")
        for lit in _ints(fields, lineno):
            if lit == 0:
                clauses.append([])
            elif abs(lit) > header[0]:
                raise FormatError(f"line {lineno}: literal {lit} out of range")
            else:
                clauses[-1].append(lit)

    (nvars, nclauses), _ = _read(text, "cnf <vars> <clauses>", line)
    if clauses.pop():
        raise FormatError("last clause not terminated by 0")
    if len(clauses) != nclauses:
        raise FormatError(f"header declares {nclauses} clauses, found {len(clauses)}")
    return nvars, clauses
