import hashlib
import tracemalloc

import pytest

from lhom.errors import FormatError
from lhom.formats import (parse_dimacs, parse_hgraph, parse_instance,
                          write_hgraph, write_instance)
from lhom.generators import SplitMix64, gen_cycle_power, gen_instance
from lhom.graphs import Graph, Instance
from lhom.invariants import compute_d_star
from lhom.reductions import reduce_sat

from oracle import has_edge


def test_hgraph_roundtrip():
    g = gen_cycle_power(7, 2)
    g2, hint = parse_hgraph(write_hgraph(g, ("gen: cycle-power k=7 p=2",)))
    assert g2 == g
    assert hint == (7, 2)


def test_hgraph_comment_styles():
    text = "# a comment\nc another comment\np hgraph 2\ne 0 1\n"
    g, _ = parse_hgraph(text)
    assert g.n == 2 and has_edge(g, 0, 1)


def test_hgraph_unknown_line_type():
    with pytest.raises(FormatError):
        parse_hgraph("p hgraph 2\nq 0 1\n")


def test_hgraph_missing_header():
    with pytest.raises(FormatError):
        parse_hgraph("e 0 1\n")


def test_hgraph_at_the_vertex_limit():
    g, _ = parse_hgraph("p hgraph 65536\ne 0 65535\n")
    assert (g.n, g.edges()) == (65536, [(0, 65535)])


def test_instance_at_the_color_limit():
    inst, h = parse_instance("p lhom 1 0 65536\nl 0 65535\n")
    assert (h, inst.lists) == (65536, (1 << 65535,))


def test_hgraph_loop():
    g, _ = parse_hgraph("p hgraph 1\ne 0 0\n")
    assert has_edge(g, 0, 0)


def test_instance_roundtrip():
    hg = gen_cycle_power(6, 1)
    rng = SplitMix64(3)
    for seed in range(10):
        inst = gen_instance(hg, 4 + rng.below(8), 2 + rng.below(3), seed)
        text = write_instance(inst, hg.n, ("gen: instance seed=%d" % seed,))
        back, h = parse_instance(text)
        assert h == hg.n
        assert back == inst


def test_instance_requires_all_lists():
    with pytest.raises(FormatError):
        parse_instance("p lhom 2 1 3\ne 0 1\nl 0 0\n")


def test_instance_edge_count_validated():
    with pytest.raises(FormatError):
        parse_instance("p lhom 2 2 3\ne 0 1\nl 0 0\nl 1 1\n")


def test_instance_rejects_out_of_range_color():
    with pytest.raises(FormatError):
        parse_instance("p lhom 1 0 3\nl 0 5\n")


def test_instance_unknown_line_type():
    with pytest.raises(FormatError):
        parse_instance("p lhom 1 0 3\nl 0 0\nz 1\n")


def test_instance_cover_line_must_cover():
    text = "p lhom 3 2 2\ne 0 1\ne 1 2\nl 0 0\nl 1 0\nl 2 0\nx 0\n"
    with pytest.raises(FormatError):
        parse_instance(text)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_instance_lines_end_without_whitespace(k, k4):
    cases = [(gen_instance(hg, 5, k, seed), hg.n)
             for hg in (gen_cycle_power(6, 1), k4) for seed in (1, 2)]
    if k == 0:
        # no variables and no clauses: no vertex, and an empty cover
        cases.append((reduce_sat(0, [], k4, compute_d_star(k4)[1]), k4.n))
    for inst, h in cases:
        text = write_instance(inst, h)
        assert all(line == line.rstrip() for line in text.splitlines()), text
        assert parse_instance(text) == (inst, h)


def test_instance_cover_line_roundtrip():
    text = "p lhom 3 2 2\ne 0 1\ne 1 2\nl 0 0\nl 1 0 1\nl 2 0\nx 1\n"
    inst, _ = parse_instance(text)
    assert inst.cover == 0b010


def test_dimacs_parse():
    nvars, clauses = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 -1 0\n")
    assert nvars == 3
    assert clauses == [[1, -2], [2, 3, -1]]


def test_dimacs_literal_range():
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 1\n3 0\n")


def test_dimacs_unterminated_clause():
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_dimacs_clause_count_checked():
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 2\n1 0\n")


@pytest.mark.parametrize("text, message", [
    ("p hgraph 2\np hgraph 2\n", "line 2: duplicate header"),
    ("p hgraph 2\np lhom 1 0 1\n", "line 2: duplicate header"),
    ("p hgraph\n", "line 1: expected 'p hgraph <h>'"),
    ("p hgraph 2 3\n", "line 1: expected 'p hgraph <h>'"),
    ("p lhom 2\n", "line 1: expected 'p hgraph <h>'"),
    ("p hgraph x\n", "line 1: expected integers"),
    ("p hgraph -1\n", "line 1: expected non-negative integers"),
    ("e 0 1\np hgraph 2\n", "line 1: edge before header"),
    ("q 0 1\np hgraph 2\n", "line 1: unknown line type 'q'"),
    ("p hgraph 2\nq 0 1\n", "line 2: unknown line type 'q'"),
    ("p hgraph 2\ne 0\n", "line 2: expected 2 integers"),
    ("p hgraph 2\ne 0 x\n", "line 2: expected integers"),
    ("p hgraph 2\ne 0 2\n", "line 2: edge (0, 2) out of range"),
    ("p hgraph 1000000000\n",
     "target has 1000000000 colors, above the limit of 65536"),
    ("p hgraph 65537\ne 0 1\n",
     "target has 65537 colors, above the limit of 65536"),
    ("", "missing 'p hgraph' header"),
    ("# gen: cycle-power k=3 p=1\n\n", "missing 'p hgraph' header"),
])
def test_hgraph_error_messages(text, message):
    with pytest.raises(FormatError) as err:
        parse_hgraph(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("p lhom 1 0 1\np lhom 1 0 1\n", "line 2: duplicate header"),
    ("p lhom 1 0 1\nl 0 0\np cnf 1 1\n", "line 3: duplicate header"),
    ("p lhom 1 0\n", "line 1: expected 'p lhom <n> <m> <h>'"),
    ("p hgraph 1 0 1\n", "line 1: expected 'p lhom <n> <m> <h>'"),
    ("p lhom 1 0 x\n", "line 1: expected integers"),
    ("p lhom 1 0 -1\n", "line 1: expected non-negative integers"),
    ("l 0 0\np lhom 1 0 1\n", "line 1: data before header"),
    ("z 1\np lhom 1 0 1\n", "line 1: data before header"),
    ("p lhom 1 0 1\nl 0 0\nz 1\n", "line 3: unknown line type 'z'"),
    ("p lhom 2 1 1\ne 0 1 1\n", "line 2: expected 2 integers"),
    ("p lhom 2 1 1\ne 0 2\n", "line 2: edge (0, 2) out of range"),
    ("p lhom 1 0 1\nl\n", "line 2: list line needs a vertex"),
    ("p lhom 1 0 1\nl 0 x\n", "line 2: expected integers"),
    ("p lhom 1 0 1\nl 0 0\nl 0 0\n", "line 3: duplicate list for vertex 0"),
    ("p lhom 1 0 1\nl 0 0\nx 0\nx 0\n", "line 4: duplicate cover line"),
    ("p lhom 1 0 1\nl 0 0\nx -1\n", "line 3: expected non-negative integers"),
    ("c only a comment\n", "missing 'p lhom' header"),
    ("p lhom 2 2 1\ne 0 1\nl 0 0\nl 1 0\n", "header declares 2 edges, found 1"),
    ("p lhom 2 0 1\nl 0 0\n", "exactly one list line per vertex is required"),
    ("p lhom 1 0 1\nl 1 0\n", "exactly one list line per vertex is required"),
    ("p lhom 1 0 3\nl 0 5\n", "list of vertex 0 mentions colors >= 3"),
    ("p lhom 1 0 1\nl 0 0\nx 3\n", "cover vertex out of range"),
    ("p lhom 1 0 65537\nl 0 65536\n",
     "header declares 65537 colors, above the limit of 65536"),
    ("p lhom 3 2 1\ne 0 1\ne 1 2\nl 0 0\nl 1 0\nl 2 0\nx 0\n",
     "designated cover does not cover all edges"),
])
def test_instance_error_messages(text, message):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("p cnf 1 1\np cnf 1 1\n", "line 2: duplicate header"),
    ("p cnf 1\n", "line 1: expected 'p cnf <vars> <clauses>'"),
    ("p dnf 1 1\n", "line 1: expected 'p cnf <vars> <clauses>'"),
    ("p cnf 1 x\n", "line 1: expected integers"),
    ("p cnf -1 0\n", "line 1: expected non-negative integers"),
    ("1 0\np cnf 1 1\n", "line 1: clause before header"),
    ("p cnf 1 1\n1 x 0\n", "line 2: expected integers"),
    ("p cnf 2 1\n1 -3 0\n", "line 2: literal -3 out of range"),
    ("c only a comment\n", "missing 'p cnf' header"),
    ("p cnf 2 1\n1 2\n", "last clause not terminated by 0"),
    ("p cnf 2 2\n1 0\n", "header declares 2 clauses, found 1"),
])
def test_dimacs_error_messages(text, message):
    with pytest.raises(FormatError) as err:
        parse_dimacs(text)
    assert str(err.value) == message


def test_blank_and_comment_lines_between_data_lines():
    spaced = "\n# one\np hgraph 3\n\n   \nc two\ne 0 1\n\t\n#three\ne 1 2\n"
    assert parse_hgraph(spaced) == parse_hgraph("p hgraph 3\ne 0 1\ne 1 2\n")
    # blank and comment lines still count toward the line numbers
    with pytest.raises(FormatError, match="^line 6: edge \\(0, 5\\) out of range$"):
        parse_hgraph("p hgraph 2\n\n  \n# c\nc x\ne 0 5\n")
    inst = "p lhom 2 1 2\n\ne 0 1\nc between\nl 0 0\n\n# again\nl 1 1\n"
    assert parse_instance(inst) == parse_instance(
        "p lhom 2 1 2\ne 0 1\nl 0 0\nl 1 1\n")
    cnf = "c head\np cnf 3 2\n1 -2\n\nc split clause\n0 2 3 -1 0\n"
    assert parse_dimacs(cnf) == (3, [[1, -2], [2, 3, -1]])


HINT_CASES = [
    (["gen:"], None),
    (["gen:", "gen: cycle-power k=7 p=2"], (7, 2)),
    (["gen: cycle-power k=7 p=2", "gen:"], (7, 2)),
    (["gen: cycle-power k=7 p=2", "gen: cycle-power k=9 p=3"], (9, 3)),
    (["gen: cycle-power k=7 p=2", "gen: cycle-power k=9 p=x"], (7, 2)),
    (["gen: cycle-power k=7 p=2 k=x"], None),
    (["gen: cycle-power k=7"], None),
    (["gen: instance k=7 p=2"], None),
    (["gen:cycle-power k=7 p=2"], (7, 2)),
]


# explicit ids, so that a case expecting None is not named "None"
@pytest.mark.parametrize("comments, hint", HINT_CASES, ids=[
    f"comments{i}-hints{i}" for i in range(len(HINT_CASES))])
def test_cycle_power_hint_from_comments(comments, hint):
    text = "".join(f"# {c}\n" for c in comments) + "p hgraph 1\n"
    assert parse_hgraph(text)[1] == hint
    # c-style comments and comments after the data carry hints as well
    text = "p hgraph 1\n" + "".join(f"c {c}\n" for c in comments)
    assert parse_hgraph(text)[1] == hint


@pytest.mark.parametrize("text, message", [
    # a huge vertex count and one list line
    ("p lhom 2000000 0 6\nl 0 1\n",
     "exactly one list line per vertex is required"),
    # a huge color
    ("p lhom 1 0 6\nl 0 999999999\n", "list of vertex 0 mentions colors >= 6"),
    # a huge cover vertex
    ("p lhom 1 0 6\nl 0 1\nx 999999999\n", "cover vertex out of range"),
    # a huge color count, and a list line that uses it
    ("p lhom 1 0 1000000000\nl 0 999999999\n",
     "header declares 1000000000 colors, above the limit of 65536"),
])
def test_instance_work_follows_file_length(text, message):
    """Large numbers in a short file are rejected without building
    anything of their size."""
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 1 << 20


STRAY_TOKENS = ("x", "e", "l", "p", "0", "-1", "1.5", "#", "c", "cnf", "hgraph")


def _mutant(text: str, rng: SplitMix64) -> str:
    """text with one to three seeded edits: a line dropped, duplicated or
    swapped with the next, a number's sign flipped, a number moved away
    from zero by 1, 6, 13 or 1000 (often past its range; never by more,
    so that no parse builds much), or a stray token put into a line."""
    lines = text.splitlines()
    for _ in range(1 + rng.below(3)):
        if not lines:
            break
        i, kind = rng.below(len(lines)), rng.below(6)
        fields = lines[i].split()
        numbers = [j for j, f in enumerate(fields) if f.lstrip("-").isdigit()]
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            lines[i:i + 2] = lines[i:i + 2][::-1]
        elif kind in (3, 4) and numbers:
            j = numbers[rng.below(len(numbers))]
            value = int(fields[j])
            step = (1, 6, 13, 1000)[rng.below(4)]
            fields[j] = str(-value if kind == 3 else
                            value + step if value >= 0 else value - step)
            lines[i] = " ".join(fields)
        else:
            fields.insert(rng.below(len(fields) + 1),
                          STRAY_TOKENS[rng.below(len(STRAY_TOKENS))])
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def test_parsers_on_mutated_texts_are_pinned(c6):
    """Each parser's outcome on seeded mutants of its own valid texts (the
    result's repr, or the exception's type and message), folded into one
    SHA-256 pinned before the kernels' walk kept its types.  Only
    FormatError is raised, and some mutants still parse."""
    hgraphs = [write_hgraph(gen_cycle_power(k, p),
                            (f"gen: cycle-power k={k} p={p}",))
               for k, p in ((5, 1), (6, 1), (9, 2))]
    instances = [write_instance(gen_instance(c6, n, k, seed, mode), 6,
                                (f"gen: instance seed={seed}",))
                 for n, k, seed, mode in ((8, 2, 1, "random"),
                                          (12, 3, 2, "planted-yes"))]
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    instances.append(write_instance(Instance(path, (1, 3, 6)), 3))
    cnfs = ["c a comment\np cnf 4 3\n1 -2 3 0\n-1 2\n0\n4 -3 0\n",
            "p cnf 3 2\n1 2 3 0 -1 -2 -3 0\n"]
    rng = SplitMix64(2801)
    digest, outcomes = hashlib.sha256(), set()
    for parse, texts in ((parse_hgraph, hgraphs), (parse_instance, instances),
                         (parse_dimacs, cnfs)):
        for _ in range(200):
            text = _mutant(texts[rng.below(len(texts))], rng)
            try:
                outcome = repr(parse(text))
            except FormatError as err:
                outcome = f"FormatError: {err}"
            outcomes.add((parse.__name__, outcome.startswith("FormatError")))
            digest.update(text.encode() + b"\0" + outcome.encode() + b"\0")
    assert len(outcomes) == 6, outcomes
    assert digest.hexdigest() == (
        "121af6c298d7c10d9932ddb7a69c7a74d00f65a441e90d6ef360da5b4817b793")
