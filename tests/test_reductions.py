import collections
import hashlib
import itertools
import re
import tracemalloc

import pytest

from lhom import reductions
from lhom.bitset import mask_of
from lhom.cli import main
from lhom.errors import BudgetExceededError, CertificationError
from lhom.formats import write_hgraph
from lhom.generators import SplitMix64, gen_cycle_power
from lhom.graphs import Graph
from lhom.invariants import LowerBoundStructure, compute_d_star, find_lbs
from lhom.reductions import (_splice, build_comp, build_neq,
                             build_variable_gadget, reduce_sat,
                             variable_gadget_states)
from lhom.solver import decide, enumerate_restricted

from oracle import brute_sat, has_edge, random_graph, replaced


@pytest.fixture(scope="module")
def k4_lbs(k4):
    d, lbs = compute_d_star(k4)
    assert d == 3
    return lbs


def test_neq_all_indices(k4, k4_lbs):
    for i in range(3):
        g = build_neq(k4, k4_lbs, i)
        assert g.graph.n == 10
        x, xp = k4_lbs.xs[i], k4_lbs.xps[i]
        got = enumerate_restricted(g.instance(), k4, [g.u, g.v])
        assert got == {(x, xp), (xp, x)}
        assert g.lists[g.u] == g.lists[g.v] == mask_of([x, xp])


def test_comp_all_pairs(k4, k4_lbs):
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            g = build_comp(k4, k4_lbs, i, j)
            assert g.graph.n == 10
            a, ap = k4_lbs.xs[i], k4_lbs.xps[i]
            b, bp = k4_lbs.xs[j], k4_lbs.xps[j]
            got = enumerate_restricted(g.instance(), k4, [g.u, g.v])
            assert got == {(a, b), (ap, bp)}


def test_gadgets_require_order_three(k4, k4_lbs):
    small = LowerBoundStructure(2, k4_lbs.l_mask, k4_lbs.xs[:2], k4_lbs.xps[:2])
    with pytest.raises(ValueError):
        build_neq(k4, small, 0)
    with pytest.raises(ValueError):
        build_comp(k4, small, 0, 1)


@pytest.mark.parametrize("build, idx, message", [
    (build_neq, (3,), "index out of range"),
    (build_neq, (-1,), "index out of range"),
    (build_comp, (1, 1), "indices must be distinct and in range"),
    (build_comp, (0, 3), "indices must be distinct and in range"),
    (build_comp, (-1, 0), "indices must be distinct and in range"),
])
def test_gadget_indices_are_checked(k4, k4_lbs, build, idx, message):
    with pytest.raises(ValueError, match=message):
        build(k4, k4_lbs, *idx)


def test_invalid_structure_is_rejected(k4):
    # claims order 3 but the replacement patterns have no witnesses
    fake = LowerBoundStructure(3, 0, (0, 1, 2), (1, 2, 3))
    with pytest.raises((ValueError, CertificationError)):
        build_neq(k4, fake, 0)


def test_variable_gadget(k4, k4_lbs):
    vg = build_variable_gadget(k4, k4_lbs)
    assert vg.graph.n == 18 * 3 - 8 == 46
    targets = list(vg.specials_a) + list(vg.specials_abar)
    got = enumerate_restricted(vg.instance(), k4, targets)
    phi_false, phi_true = variable_gadget_states(k4_lbs)
    assert got == {phi_false, phi_true}
    # false state maps a_i to the base colors, true state to the primed ones
    assert phi_false[:3] == k4_lbs.xs
    assert phi_true[:3] == k4_lbs.xps


def test_reduce_sat_single_tautology(k4, k4_lbs):
    inst = reduce_sat(1, [[1, 1, 1]], k4, k4_lbs)
    assert decide(inst, k4)[0] is True
    assert inst.cover.bit_count() == 46


def test_reduce_sat_contradiction(k4, k4_lbs):
    inst = reduce_sat(1, [[1], [-1]], k4, k4_lbs)
    assert decide(inst, k4)[0] is False


def test_reduce_sat_empty_clause(k4, k4_lbs):
    inst = reduce_sat(2, [[1], []], k4, k4_lbs)
    assert decide(inst, k4)[0] is False


def test_reduce_sat_wide_clause_rejected(k4, k4_lbs):
    with pytest.raises(ValueError):
        reduce_sat(4, [[1, 2, 3, 4]], k4, k4_lbs)


def test_reduce_sat_bad_literal(k4, k4_lbs):
    with pytest.raises(ValueError):
        reduce_sat(1, [[2]], k4, k4_lbs)


def test_reduce_sat_negative_variable_count(k4, k4_lbs):
    with pytest.raises(ValueError, match="variable count must be >= 0, got -1"):
        reduce_sat(-1, [], k4, k4_lbs)


def test_reduce_sat_cover_is_linear_in_vars(k4, k4_lbs):
    for nvars in (1, 2, 4):
        inst = reduce_sat(nvars, [[1, -1]], k4, k4_lbs)
        assert inst.cover.bit_count() == 46 * nvars


def test_reduction_budget_boundary(monkeypatch, tmp_path, capsys, k4, k4_lbs):
    """reduce_sat, and `lhom reduce-sat`, build a reduction of exactly
    REDUCTION_BUDGET vertices, and one past it fails with exit code 3, a
    message naming both counts and no file written; the input checks come
    first."""
    clauses = [[1, -2, 3], [-1, 2]]
    n = 46 * 3 + len(clauses)
    cnf, hg = tmp_path / "f.cnf", tmp_path / "k4.hg"
    cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    hg.write_text(write_hgraph(k4))
    message = f"reduction needs {n} vertices, budget is {n - 1}"
    for budget, code in ((n, 0), (n - 1, 3)):
        monkeypatch.setattr(reductions, "REDUCTION_BUDGET", budget)
        out = tmp_path / f"{budget}.lh"
        assert main(["reduce-sat", str(cnf), "--target", str(hg),
                     "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(BudgetExceededError) as err:
        reduce_sat(3, clauses, k4, k4_lbs)
    assert str(err.value) == message
    with pytest.raises(ValueError, match="bad literal"):
        reduce_sat(3, clauses + [[4]], k4, k4_lbs)
    monkeypatch.setattr(reductions, "REDUCTION_BUDGET", n)
    assert reduce_sat(3, clauses, k4, k4_lbs).graph.n == n


def test_a_huge_variable_count_builds_nothing(tmp_path, capsys, k4):
    """A 15-byte CNF that declares 100,000 variables asks for 4.6M vertices;
    `lhom reduce-sat` exits 3 without building them."""
    cnf, hg = tmp_path / "f.cnf", tmp_path / "k4.hg"
    cnf.write_text("p cnf 100000 0\n")
    hg.write_text(write_hgraph(k4))
    tracemalloc.start()
    try:
        code = main(["reduce-sat", str(cnf), "--target", str(hg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == (
        "error: reduction needs 4600000 vertices, budget is 50000\n")
    assert peak < 1 << 20


def test_reduce_sat_clause_vertices_independent(k4, k4_lbs):
    inst = reduce_sat(3, [[1, 2, 3], [-1, -2, -3]], k4, k4_lbs)
    outside = [v for v in range(inst.graph.n) if not inst.cover >> v & 1]
    assert len(outside) == 2
    for u in outside:
        for v in outside:
            assert not has_edge(inst.graph, u, v)


def test_reduce_sat_matches_bruteforce(k4, k4_lbs):
    rng = SplitMix64(71)
    for _ in range(8):
        nvars = 3 + rng.below(3)
        clauses = []
        for _ in range(3 + rng.below(7)):
            clauses.append([(1 if rng.below(2) else -1) * (1 + rng.below(nvars))
                            for _ in range(1 + rng.below(3))])
        inst = reduce_sat(nvars, clauses, k4, k4_lbs)
        assert decide(inst, k4)[0] == brute_sat(nvars, clauses)


def test_gadget_layout_is_pinned():
    """Vertex ids, edges and lists of every gadget and of one reduction,
    on K4 and K5 (orders 3 and 4), hashed in a fixed order."""
    digest = hashlib.sha256()
    for k in (4, 5):
        hg = gen_cycle_power(k, 2)
        d, lbs = compute_d_star(hg)
        assert d == k - 1
        built = [build_neq(hg, lbs, i) for i in range(d)]
        built += [build_comp(hg, lbs, i, j)
                  for i, j in itertools.permutations(range(d), 2)]
        built.append(build_variable_gadget(hg, lbs))
        built.append(reduce_sat(3, [[1, 2, -3], [-1, 2], [-2, 3], [1, -3]],
                                hg, lbs))
        for item in built:
            digest.update(repr(item).encode())
    assert digest.hexdigest() == (
        "4bbe05fa87a8e2bed85816ae92664e978b24928bb84cce15ddfc2f3d1660153c")


def test_gadgets_on_another_target():
    # the 5-clique carries order-3 structures too; the whole gadget stack
    # must certify against it as well
    k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    lbs = find_lbs(k5, 3)
    assert lbs is not None
    vg = build_variable_gadget(k5, lbs)
    assert vg.graph.n == 46


def test_order_four_reduction_on_k5():
    """Width-4 clauses with padding, using the 5-clique's full order."""
    k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    d, lbs = compute_d_star(k5)
    assert d == 4
    vg = build_variable_gadget(k5, lbs)
    assert vg.graph.n == 18 * 4 - 8
    rng = SplitMix64(72)
    for _ in range(6):
        nvars = 3 + rng.below(3)
        clauses = [[(1 if rng.below(2) else -1) * (1 + rng.below(nvars))
                    for _ in range(1 + rng.below(4))]
                   for _ in range(3 + rng.below(8))]
        inst = reduce_sat(nvars, clauses, k5, lbs)
        assert inst.cover.bit_count() == 64 * nvars
        assert decide(inst, k5)[0] == brute_sat(nvars, clauses)


@pytest.mark.parametrize("change, message", [
    ({"xs": (-1, 1, 2)}, "structure color -1 is not a vertex of the target"),
    ({"xs": (0, 1)}, "structure of order 3 has 2 xs and 3 xps"),
    ({"xps": (7, 1, 2)}, "structure color 7 is not a vertex of the target"),
    ({"l_mask": 1 << 9}, "structure list L is not inside the target's vertices"),
], ids=["negative-color", "short-xs", "color-7", "l-mask"])
@pytest.mark.parametrize("build", [
    lambda hg, lbs: build_neq(hg, lbs, 0),
    lambda hg, lbs: build_comp(hg, lbs, 0, 1),
    build_variable_gadget,
    lambda hg, lbs: reduce_sat(1, [[1]], hg, lbs),
], ids=["neq", "comp", "variable", "reduce-sat"])
def test_structure_is_checked_against_the_target(k4, k4_lbs, change, message,
                                                 build):
    bad = replaced(k4_lbs, **change)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(k4, bad)


def test_reduce_sat_outcomes_are_pinned(k4):
    """`reduce_sat` on seeded CNFs over K4 and K5 (d* = 3 and 4): nvars
    0..6, clause widths 0..d+1, and literals that may be 0 or out of range.
    Each CNF and its outcome ((n, edge count, lists, cover), or the
    exception's type and message) is folded into one SHA-256, pinned before
    the certification budget became a module constant."""
    rng = SplitMix64(2901)
    digest, kinds = hashlib.sha256(), collections.Counter()
    for hg in (k4, gen_cycle_power(5, 2)):  # C5^2 is K5
        d, lbs = compute_d_star(hg)
        for _ in range(150):
            nvars = rng.below(7)
            clauses = []
            for _ in range(rng.below(5)):
                clause = []
                for _ in range(rng.below(d + 2)):
                    roll = rng.below(12)
                    lit = (0 if roll == 0 else nvars + 1 + rng.below(3)
                           if roll == 1 else 1 + rng.below(nvars or 1))
                    clause.append(-lit if rng.below(2) else lit)
                clauses.append(clause)
            try:
                inst = reduce_sat(nvars, clauses, hg, lbs)
                outcome = repr((inst.graph.n, inst.graph.edge_count(),
                                inst.lists, inst.cover))
                kinds["empty" if inst.graph.n == 1 else "built"] += 1
            except ValueError as err:
                outcome = f"ValueError: {err}"
                kinds[str(err).split()[0]] += 1  # "clause" wider, "bad" literal
            digest.update(f"{d} {nvars} {clauses}\0{outcome}\0".encode())
    assert d == 4 and min(kinds.values()) >= 30 and len(kinds) == 4, kinds
    assert digest.hexdigest() == (
        "d0d362dd3f95e25192bcab2d012cf9cb7b656fffaae4db7e1b563c45128eba44")


def test_gadget_outcomes_are_pinned():
    """Lower bound structures of order 3 and 4 on K4, K5, C13^2 and seeded
    looped random targets of 4 to 7 colors, each with up to two seeded
    edits: a base or primed color moved (to -1, past the target, or to
    another color), xs and xps swapped, two slots swapped, L redrawn (maybe
    past the target) or the order one off.  Each goes through `build_neq`,
    `build_comp` (indices up to d, so some repeat or fall out of range) and
    `build_variable_gadget`.  Each input and outcome (the gadget's repr, or
    the exception's type and message) is folded into one SHA-256, pinned
    before `decide` kept its last answer on the graph."""
    rng = SplitMix64(3002)
    pool = [(hg, find_lbs(hg, d)) for hg in (
        gen_cycle_power(4, 2), gen_cycle_power(5, 2), gen_cycle_power(13, 2))
        for d in (3, 4)]
    pool = [(hg, lbs) for hg, lbs in pool if lbs is not None]
    while len(pool) < 12:
        hg = random_graph(rng, 4 + rng.below(4), 2, 3, 1, 3)
        lbs = find_lbs(hg, 3 + rng.below(2))
        if lbs is not None:
            pool.append((hg, lbs))

    def color(hg):
        roll = rng.below(8)
        if roll < 2:
            return hg.n + rng.below(2) if roll else -1
        return rng.below(hg.n)

    digest, kinds = hashlib.sha256(), collections.Counter()
    for _ in range(200):
        hg, lbs = pool[rng.below(len(pool))]
        d, l_mask, xs, xps = lbs.order, lbs.l_mask, list(lbs.xs), list(lbs.xps)
        for _ in range(rng.below(3)):
            roll = rng.below(6)
            if roll == 0:
                xs[rng.below(len(xs))] = color(hg)
            elif roll == 1:
                xps[rng.below(len(xps))] = color(hg)
            elif roll == 2:
                xs, xps = xps, xs
            elif roll == 3:
                l_mask = rng.below(2 << hg.n)
            elif roll == 4:
                d += (-1, 1)[rng.below(2)]
            else:
                i, j = rng.below(len(xs)), rng.below(len(xs))
                xs[i], xs[j] = xs[j], xs[i]
                xps[i], xps[j] = xps[j], xps[i]
        lbs = LowerBoundStructure(d, l_mask, tuple(xs), tuple(xps))
        width = len(xs)
        calls = ((build_neq, (rng.below(width + 2) - 1,)),
                 (build_comp, (rng.below(width + 1), rng.below(width + 1))),
                 (build_variable_gadget, ()))
        for build, indices in calls:
            name = build.__name__
            try:
                outcome = repr(build(hg, lbs, *indices))
                kinds[name, "built"] += 1
            except (ValueError, CertificationError) as err:
                outcome = f"{type(err).__name__}: {err}"
                kinds[name, type(err).__name__] += 1
            digest.update(f"{hg.adj} {lbs} {name}{indices}\0{outcome}\0"
                          .encode())
    assert len(kinds) == 9 and min(kinds.values()) >= 5, kinds
    assert digest.hexdigest() == (
        "043b4a59e61501e149da25c72ca5c0def4970b10a1562cb65d24bf79732ac60f")


def test_a_third_variable_state_fails_certification(monkeypatch, k4, k4_lbs):
    """The variable gadget is certified on its restrictions: with fresh
    builder caches, a third state seen by `enumerate_restricted` makes
    `build_variable_gadget` raise."""
    for builder in (build_neq, build_comp, build_variable_gadget):
        builder.cache_clear()
    real = reductions.enumerate_restricted
    seen = []

    def with_a_third_state(inst, hg, targets):
        got = real(inst, hg, targets)
        if len(targets) > 2:  # the variable gadget's, not a pair gadget's
            got.add(tuple(reversed(max(got))))
            seen.append(len(got))
        return got

    monkeypatch.setattr(reductions, "enumerate_restricted", with_a_third_state)
    with pytest.raises(CertificationError,
                       match="differ from the two admissible states"):
        build_variable_gadget(k4, k4_lbs)
    assert seen == [3]


def test_splice_checks_the_lists_of_its_join_points():
    """A part joins where the lists agree, and a disagreement raises."""
    lists, edges = [1, 2], [(0, 1)]
    _splice(lists, edges, [1, 4, 2], [(0, 1), (1, 2)], (0, 2), (0, 1))
    assert (lists, edges) == ([1, 2, 4], [(0, 1), (0, 2), (2, 1)])
    with pytest.raises(ValueError, match="^join points disagree on lists$"):
        _splice(lists, edges, [1, 4, 3], [(0, 1), (1, 2)], (0, 2), (0, 1))
