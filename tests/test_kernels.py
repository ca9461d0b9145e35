import collections
import hashlib
import importlib
import itertools
import json
import math
import tracemalloc
import weakref

import pytest

from lhom import kernels
from lhom.bitset import bit_list, mask_of
from lhom.errors import BudgetExceededError, CertificationError
from lhom.forbid import CERT_BUDGET, ForbidRequest, construct
from lhom.generators import SplitMix64, gen_cycle_power, gen_instance
from lhom.gf2 import Gf2Poly, extract_basis
from lhom.graphs import Graph, Instance, cover_certificate, greedy_vertex_cover
from lhom.kernels import _restrict, kernel_marking, kernel_poly, kernelize
from lhom.solver import decide

from oracle import has_edge, replaced

# `lhom.forbid` as a package attribute is the function; tests patch its
# CERT_BUDGET, which every charge reads at call time
forbid_module = importlib.import_module("lhom.forbid")


def test_marking_drops_duplicate_type():
    hg = Graph.from_edges(2, [(0, 1)])
    # two outside vertices with the same list and the same single neighbor
    g = Graph.from_edges(4, [(0, 1), (2, 0), (3, 0)])
    inst = Instance(g, (3, 3, 3, 3), cover=mask_of([0, 1]))
    report = kernel_marking(inst, hg)
    assert report.vertices_out == 3
    assert report.bound_formula_ok


def test_marking_bound_counts_every_type(c6, k4):
    """The marking bound counts the (cover subset, list) types, the empty
    subset among them: k + (2^h - 1) * sum_{i <= c} C(k, i) vertices."""
    for hg, n, k, want in ((c6, 10, 0, 9), (k4, 40, 1, 20)):
        report = kernel_marking(gen_instance(hg, n, k, 1), hg)
        assert (report.bound_k, report.vertices_out) == (k, want)
        assert report.bound_formula_ok


def test_marking_small_outside_unchanged(c6):
    g = Graph.from_edges(3, [(0, 1), (2, 0), (2, 1)])
    inst = Instance(g, (c6.full_mask,) * 3, cover=mask_of([0, 1]))
    report = kernel_marking(inst, c6)
    assert report.vertices_out == 3 and report.edges_out == 3


def test_marking_oracle_agreement(c6):
    rng = SplitMix64(61)
    for seed in range(60):
        inst = gen_instance(c6, 8 + rng.below(9), 2 + rng.below(4), seed,
                            "planted-yes" if seed % 4 == 0 else "random")
        report = kernel_marking(inst, c6)
        assert decide(inst, c6)[0] == decide(report.kernel, c6)[0]
        assert report.bound_formula_ok


def test_marking_is_fixed_point(c6, k4):
    rng = SplitMix64(62)
    for hg in (c6, k4):
        for seed in range(20):
            inst = gen_instance(hg, 8 + rng.below(9), 2 + rng.below(4), seed)
            once = kernel_marking(inst, hg)
            twice = kernel_marking(once.kernel, hg)
            assert (twice.vertices_out, twice.edges_out) == \
                (once.vertices_out, once.edges_out)


def test_marking_retains_exactly_one_vertex_per_type(c6):
    import itertools
    from lhom.invariants import compute_c_star
    rng = SplitMix64(68)
    c = compute_c_star(c6).value
    for seed in range(10):
        inst = gen_instance(c6, 12 + rng.below(5), 3 + rng.below(3), seed)
        report = kernel_marking(inst, c6)
        back = {m: i for i, m in enumerate(report.vertex_map)}
        cover = inst.cover
        outside = [v for v in range(inst.graph.n) if not cover >> v & 1]
        pairs = {}
        for v in outside:
            nbrs = [u for u in range(inst.graph.n)
                    if has_edge(inst.graph, u, v)]
            for r in range(0, min(c, len(nbrs)) + 1):
                for combo in itertools.combinations(nbrs, r):
                    pairs.setdefault((combo, inst.lists[v]), []).append(v)
        for (combo, _), candidates in pairs.items():
            retained = [v for v in candidates if v in back
                        and all(has_edge(report.kernel.graph, back[v], back[u])
                                for u in combo)]
            assert retained, (combo, candidates)
            assert min(candidates) in retained


def test_poly_kernel_drops_edges_outside_surviving_sequences(c6):
    rng = SplitMix64(69)
    for seed in range(10):
        inst = gen_instance(c6, 12 + rng.below(5), 3 + rng.below(3), seed)
        report = kernel_poly(inst, c6)
        back = {m: i for i, m in enumerate(report.vertex_map)}
        cover = inst.cover
        for v in range(report.kernel.graph.n):
            orig = report.vertex_map[v]
            if cover >> orig & 1:
                continue
            # a retained constraint vertex keeps a subset of its old edges
            old = {u for u in range(inst.graph.n)
                   if has_edge(inst.graph, u, orig)}
            new = {report.vertex_map[u]
                   for u in range(report.kernel.graph.n)
                   if has_edge(report.kernel.graph, u, v)}
            assert new <= old


def test_marking_keeps_cover_subgraph(c6):
    inst = gen_instance(c6, 12, 4, 9)
    report = kernel_marking(inst, c6)
    # every cover edge survives, indices mapped through vertex_map
    back = {m: i for i, m in enumerate(report.vertex_map)}
    for u, v in inst.graph.edges():
        if inst.cover >> u & 1 and inst.cover >> v & 1:
            assert has_edge(report.kernel.graph, back[u], back[v])


def test_kernel_is_subgraph(c6):
    rng = SplitMix64(63)
    for method in ("marking", "poly"):
        for seed in range(15):
            inst = gen_instance(c6, 10 + rng.below(6), 3, seed)
            report = kernelize(inst, c6, method)
            vm = report.vertex_map
            for u, v in report.kernel.graph.edges():
                assert has_edge(inst.graph, vm[u], vm[v])
            for v in range(report.kernel.graph.n):
                if method == "marking":
                    assert report.kernel.lists[v] == inst.lists[vm[v]]
                else:
                    assert report.kernel.lists[v] & ~inst.lists[vm[v]] == 0


def test_poly_oracle_agreement(c6, k3):
    rng = SplitMix64(64)
    for hg in (c6, k3):
        for seed in range(40):
            inst = gen_instance(hg, 8 + rng.below(9), 2 + rng.below(4), seed,
                                "planted-yes" if seed % 4 == 0 else "random")
            report = kernel_poly(inst, hg)
            assert decide(inst, hg)[0] == decide(report.kernel, hg)[0]
            assert report.bound_formula_ok


def test_poly_degree_two_on_c6(c6):
    rng = SplitMix64(65)
    degrees = set()
    for seed in range(20):
        inst = gen_instance(c6, 12 + rng.below(5), 4, seed)
        report = kernel_poly(inst, c6)
        degrees.add(report.degree_used)
        assert report.degree_used <= 2
    assert 2 in degrees


def test_poly_degree_p_on_cycle_power(c13p2):
    inst = gen_instance(c13p2, 12, 4, 3)
    report = kernel_poly(inst, c13p2, cycle_power=(13, 2))
    assert report.degree_used <= 2
    assert decide(inst, c13p2)[0] == decide(report.kernel, c13p2)[0]


def test_empty_list_short_circuits(c6):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = Instance(g, (c6.full_mask, 0, c6.full_mask), cover=mask_of([1]))
    for method in ("marking", "poly"):
        report = kernelize(inst, c6, method)
        assert report.vertices_out == 1
        assert decide(report.kernel, c6)[0] is False


def test_poly_keeps_only_marking_representatives(c6, k3, k4):
    """Every kept outside vertex of the poly kernel is a marking representative.

    The first vertex of a (subset, reduced list) type is also the first of
    its (subset, list) type, since equal lists reduce to equal lists.
    """
    rng = SplitMix64(66)
    for hg in (c6, k3, k4):
        for seed in range(12):
            inst = gen_instance(hg, 10 + rng.below(7), 2 + rng.below(4), seed)
            cover = cover_certificate(inst)
            marking = kernel_marking(inst, hg)
            poly = kernel_poly(inst, hg)
            outside = {v for v in poly.vertex_map if not cover >> v & 1}
            assert outside <= set(marking.vertex_map), (hg, seed)
            assert poly.vertices_out <= marking.vertices_out


@pytest.mark.parametrize("last", [0b111111, 0])
def test_both_methods_reject_unknown_colors(c6, last):
    """Raised as decide raises it, also when another list is empty."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = Instance(g, (c6.full_mask, c6.full_mask | 1 << 7, last),
                    cover=mask_of([1]))
    for method in ("marking", "poly"):
        with pytest.raises(ValueError,
                           match="^list of vertex 1 mentions unknown colors$"):
            kernelize(inst, c6, method)


def test_kernelize_rejects_unknown_method(c6):
    inst = gen_instance(c6, 6, 2, 0)
    with pytest.raises(ValueError):
        kernelize(inst, c6, "nope")


def test_reports_are_deterministic(c6):
    inst = gen_instance(c6, 12, 4, 17)
    a = kernel_poly(inst, c6)
    b = kernel_poly(inst, c6)
    assert a == b


def test_both_methods_on_random_irregular_targets():
    """Targets with dominated colors, loops, isolated vertices."""
    from oracle import random_graph
    rng = SplitMix64(67)
    for trial in range(150):
        hg = random_graph(rng, 2 + rng.below(4))
        inst = gen_instance(hg, 6 + rng.below(7), 2 + rng.below(3),
                            70000 + trial,
                            "planted-yes" if trial % 5 == 0 else "random")
        want = decide(inst, hg)[0]
        assert decide(kernel_marking(inst, hg).kernel, hg)[0] == want
        assert decide(kernel_poly(inst, hg).kernel, hg)[0] == want


def test_poly_budget_is_not_masked_by_the_forbid_cache(monkeypatch, c6):
    inst = gen_instance(c6, 14, 4, 7)
    message = "certification needs 6 evaluations, budget is 5"
    monkeypatch.setattr(forbid_module, "CERT_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as first:
        kernel_poly(inst, c6)
    assert str(first.value) == message
    monkeypatch.setattr(forbid_module, "CERT_BUDGET", CERT_BUDGET)
    kernel_poly(inst, c6)  # caches the same patterns under the default budget
    monkeypatch.setattr(forbid_module, "CERT_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as again:
        kernel_poly(inst, c6)
    assert str(again.value) == message


@pytest.mark.parametrize("target, n, k, hint", [
    ("c13p2", 150, 4, (13, 2)), ("c6", 200, 3, (6, 1))])
def test_poly_basis_gets_distinct_rows(monkeypatch, request, target, n, k,
                                       hint):
    """One row per distinct (cover subset, polynomial) reaches the basis.

    A repeat could never be kept.  Both cases repeat rows across types:
    deduplicated per type only, the basis would get 4,463 rows of which 302
    are distinct, and 294 of which 26 are.
    """
    hg = request.getfixturevalue(target)
    given = []

    def spy(rows):
        given.append(rows)
        return extract_basis(rows)

    monkeypatch.setattr(kernels, "extract_basis", spy)
    kernel_poly(gen_instance(hg, n, k, 1), hg, cycle_power=hint)
    (rows,) = given
    assert len({frozenset(row) for row in rows}) == len(rows)


def test_poly_memory_follows_the_distinct_rows(c13p2):
    """The kernel's own state grows with the distinct rows, not the tuples.

    With the target memos warm, a second call holds little beyond its 302
    rows; a row or memo entry per tuple takes the peak here past 5 MB.
    """
    inst = gen_instance(c13p2, 150, 4, 1)
    kernel_poly(inst, c13p2, cycle_power=(13, 2))
    tracemalloc.start()
    try:
        kernel_poly(inst, c13p2, cycle_power=(13, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def test_walk_memory_follows_the_distinct_types(c6):
    """Both kernels hold one outside vertex's subsets at a time, not every
    neighborhood's.

    150 outside vertices each meet a different 10 of a 16-vertex cover:
    176 subsets of at most c* = 3 each, 697 distinct ones in all.  Keeping
    the subsets of every neighborhood takes the peaks here to 1.6 MB
    (marking) and 4.7 MB (poly); the kernels' own state stays under 0.25 MB.
    """
    rng = SplitMix64(7)
    k, outside = 16, 150
    edges = []
    for v in range(k, k + outside):
        nbrs = set()
        while len(nbrs) < 10:
            nbrs.add(rng.below(k))
        edges += [(u, v) for u in sorted(nbrs)]
    inst = Instance(Graph.from_edges(k + outside, edges),
                    (0b11,) * k + (0b110,) * outside, (1 << k) - 1)
    for kernel in (kernel_marking, kernel_poly):
        kernel(inst, c6)
        tracemalloc.start()
        try:
            report = kernel(inst, c6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000, (kernel.__name__, peak)
    assert report.constraints_total == 304


def _poly_outcome(kernel, *args):
    try:
        return kernel(*args)
    except BudgetExceededError as err:
        return str(err)


def test_poly_matches_reference_enumeration(monkeypatch, c5, c6, c13p2, k4,
                                            k4_reductions):
    """Minimal, first-seen rows give the kernel of every forbidden tuple's row.

    Only constraints_total may differ, and only downwards; under a small
    budget both raise the same error or return the same report.  On the K4
    reductions, where list rows dominate, the whole report is equal.
    """
    from oracle import random_graph, reference_kernel_poly
    for inst in k4_reductions:
        assert kernel_poly(inst, k4) == reference_kernel_poly(inst, k4)
    # a row here has a monomial of degree >= 2 on a color missing from a
    # cover vertex's list; only degree-1 list monomials may leave the row
    for adj, n, k, seed in (((10, 13, 6, 11), 22, 5, 90382),
                            ((6, 13, 11, 6), 27, 5, 90398),
                            ((39, 9, 17, 26, 44, 17), 15, 4, 90342)):
        hg = Graph(len(adj), adj)
        inst = gen_instance(hg, n, k, seed, "random")
        assert replaced(kernel_poly(inst, hg), constraints_total=0) \
            == replaced(reference_kernel_poly(inst, hg),
                        constraints_total=0), seed
    rng = SplitMix64(71)
    targets = ((None, None), (c5, None), (c6, None), (c13p2, (13, 2)),
               (k4, None))
    cases = smaller = raised = 0
    for trial in range(300):
        hg, hint = targets[trial % 5]
        n, k = 6 + rng.below(19), 1 + rng.below(4)
        if hg is None:
            # larger instances: a polynomial cache keyed without the lists
            # gave wrong kernels only on random targets of this size
            hg = random_graph(rng, 2 + rng.below(6))
            n, k = n + 6, k + 1
        inst = gen_instance(hg, n, k, 71000 + trial,
                            "planted-yes" if trial % 2 else "random")
        for budget in (2_000_000, 1 + rng.below(12)):
            monkeypatch.setattr(forbid_module, "CERT_BUDGET", budget)
            got = _poly_outcome(kernel_poly, inst, hg, hint)
            want = _poly_outcome(reference_kernel_poly, inst, hg, hint,
                                 budget)
            if isinstance(want, str):
                assert got == want, (trial, budget)
                raised += 1
                continue
            assert not isinstance(got, str), (trial, budget, got)
            assert got.constraints_total <= want.constraints_total
            smaller += got.constraints_total < want.constraints_total
            cases += 1
            assert replaced(got, constraints_total=0) == \
                replaced(want, constraints_total=0), (trial, budget)
    assert cases >= 400 and raised >= 100 and smaller >= 150, \
        (cases, raised, smaller)


def test_route_rows_drop_their_off_list_variables(monkeypatch):
    """On P5 and C4 the width-2 route is the linear system, whose
    polynomials have degree-1 monomials; some name a color missing from
    their position's reduced list.  `_poly_rows` drops those (the list row
    of that variable spans them), and the report equals the reference's,
    which keeps them and the list rows in one basis."""
    from oracle import reference_kernel_poly
    spied = []

    def spy(req, route):
        result = construct(req, route)
        spied.append(sum(len(mono) == 1 and not all(
            req.lists[pos] >> color & 1 for pos, color in mono)
            for mono in result.poly.monomials))
        return result

    monkeypatch.setattr(kernels, "construct", spy)
    p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    c4 = gen_cycle_power(4, 1)
    for hg in (p5, c4):
        spied.clear()
        for k, seed in itertools.product((2, 3), range(1, 6)):
            inst = gen_instance(hg, 20, k, seed, "random")
            got, want = kernel_poly(inst, hg), reference_kernel_poly(inst, hg)
            assert replaced(got, constraints_total=0) == \
                replaced(want, constraints_total=0), (hg.n, k, seed)
        assert sum(spied) >= 1, hg.n


def test_kernels_that_keep_everything_share_the_input_graph(k4,
                                                            k4_reductions):
    """A kernel that keeps every vertex and edge of a K4 reduction is the
    input's own `Graph`, with an identity vertex map and the cover mask as
    its cover; without a designated cover that is the greedy one.  A kernel
    that drops a vertex, or only an edge, is built as `reference_restrict`
    builds it."""
    from oracle import reference_restrict
    for inst in k4_reductions:
        bare = Instance(inst.graph, inst.lists)
        for case, cover in ((inst, inst.cover),
                            (bare, greedy_vertex_cover(inst.graph))):
            for kernel in (kernel_marking, kernel_poly):
                report = kernel(case, k4)
                assert report.kernel.graph is inst.graph, kernel
                assert report.vertex_map == tuple(range(inst.graph.n))
                assert report.kernel.cover == cover
    # a copy of the last outside vertex, same list and neighbors, is dropped
    inst = k4_reductions[0]
    g, n, cover = inst.graph, inst.graph.n, inst.cover
    v = (g.full_mask & ~cover).bit_length() - 1
    twin = Instance(Graph.from_edges(n + 1, g.edges() + [
        (u, n) for u in bit_list(g.adj[v])]), inst.lists + (inst.lists[v],),
        cover)
    kept = {u: g.adj[u] for u in range(n) if not cover >> u & 1}
    report = kernel_marking(twin, k4)
    assert report.kernel.graph is not twin.graph
    assert (report.kernel, report.vertex_map) == \
        reference_restrict(twin, cover, kept)
    # every vertex kept, one edge of v dropped
    kept[v] &= kept[v] - 1
    got = _restrict(inst, cover, [(m, u) for u, m in kept.items()])
    assert got[0].graph is not g and got[0].graph.edge_count() == \
        g.edge_count() - 1
    assert got == reference_restrict(inst, cover, kept)


def test_an_equal_kernel_is_decided_without_a_search(k4, k4_ladder,
                                                     searches):
    """On the K4 ladder rungs where both kernels drop vertices, the poly
    kernel equals the marking one on a graph of its own, and `decide` on it
    after `decide` on the marking kernel builds no `_Search`.  Built afresh,
    the poly kernel's report is the same."""
    dropped = 0
    for inst in k4_ladder:
        marking = kernel_marking(inst, k4)
        if marking.kernel.graph is inst.graph:
            continue
        poly = kernel_poly(inst, k4)
        assert poly.kernel == marking.kernel
        assert poly.kernel.graph is not marking.kernel.graph
        searches.clear()
        assert decide(poly.kernel, k4) == decide(marking.kernel, k4)
        assert len(searches) == 1
        kernels._minimal_memo.cache_clear()
        assert kernel_poly(inst, k4) == poly
        dropped += 1
    assert dropped == 2, dropped


def test_restrict_builds_afresh_for_another_cover_or_picks(k4_reductions):
    """Each call builds its kernel as `reference_restrict` builds it, with
    the lists of the instance at hand: for the same kept edges split over
    other picks, for other lists, and for another cover or other picks."""
    from oracle import reference_restrict
    inst = k4_reductions[0]
    g, cover = inst.graph, inst.cover
    outside = bit_list(g.full_mask & ~cover)
    kept = {v: g.adj[v] for v in outside[:-1]}
    first = _restrict(inst, cover, [(m, v) for v, m in kept.items()])
    assert first == reference_restrict(inst, cover, kept)
    # the same union of edges, split over other picks
    split = [(m & -m, v) for v, m in kept.items()] + \
        [(m & m - 1, v) for v, m in kept.items()]
    assert _restrict(inst, cover, split) == first
    relisted = Instance._built(g, tuple(m ^ (m & -m) or m
                                        for m in inst.lists), cover)
    got = _restrict(relisted, cover, split)
    assert got == reference_restrict(relisted, cover, kept)
    assert got[0].lists != first[0].lists
    fewer = dict(kept)
    del fewer[outside[0]]
    wider = cover | 1 << outside[-1]
    for case, other in ((cover, fewer), (wider, kept), (cover, kept)):
        built = _restrict(inst, case, [(m, v) for v, m in other.items()])
        assert built == reference_restrict(inst, case, other)


def test_a_restricted_kernel_keeps_no_graph_alive():
    """After a kernel and a `decide` on it, neither the input graph nor the
    kernel graph stays alive once the caller drops them."""
    hg = Graph.from_edges(2, [(0, 1)])
    g = Graph.from_edges(4, [(0, 1), (2, 0), (3, 0)])
    report = kernel_marking(Instance(g, (3, 3, 3, 3), cover=mask_of([0, 1])),
                            hg)
    assert report.vertices_out == 3
    assert decide(report.kernel, hg)[0] is True
    graph_ref, kernel_ref = weakref.ref(g), weakref.ref(report.kernel.graph)
    del g, report
    assert graph_ref() is None and kernel_ref() is None


def test_restrict_matches_edge_list_reference():
    """Mask-based restriction equals the edge-list one on non-prefix covers.

    Covers are greedy ones and designated ones with holes, kept outside
    vertices sit between cover vertices, and cover vertices carry loops.
    Each kept vertex's mask is split over several shuffled picks.
    """
    from oracle import random_graph, reference_restrict
    rng = SplitMix64(73)
    holes = interleaved = looped = split = 0
    for trial in range(200):
        n = 1 + rng.below(24)
        if trial % 2:
            g = random_graph(rng, n, 1, 3, 1, 3)
            cover = greedy_vertex_cover(g)
            designated = None
        else:
            cover = rng.below(1 << n)
            edges = [(u, v) for u in range(n) for v in range(u, n)
                     if (cover >> u & 1 or (cover >> v & 1 and u != v))
                     and rng.below(3) == 0]
            g = Graph.from_edges(n, edges)
            designated = cover
        inst = Instance(g, tuple(1 + rng.below(7) for _ in range(n)),
                        designated)
        kept_nbrs = {v: g.adj[v] & rng.below(1 << n) for v in range(n)
                     if not cover >> v & 1 and rng.below(2)}
        # each kept vertex's mask arrives as 1-3 shuffled picks, which may
        # overlap or be empty; `_restrict` keeps their union
        picks = []
        for v, nbrs in kept_nbrs.items():
            parts = [0] * (1 + rng.below(3))
            for u in bit_list(nbrs):
                parts[rng.below(len(parts))] |= 1 << u
                parts[rng.below(len(parts))] |= 1 << u
            split += sum(map(bool, parts)) > 1
            picks.extend((part, v) for part in parts)
        for i in reversed(range(1, len(picks))):
            j = rng.below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        got = _restrict(inst, cover, picks)
        assert got == reference_restrict(inst, cover, kept_nbrs), trial
        for graph in (g, got[0].graph):
            assert graph.edge_count() == len(graph.edges())
        top = cover.bit_length() - 1
        dropped = [v for v in range(n) if v not in got[1]]
        holes += bool(dropped) and dropped[0] < top
        interleaved += any(v < top for v in kept_nbrs)
        looped += any(g.adj[v] >> v & 1 for v in range(n))
    assert holes >= 100 and interleaved >= 100 and looped >= 150, \
        (holes, interleaved, looped)
    assert split >= 100, split


def test_minimal_tuples_match_the_full_product(c13p2, k4):
    """The pruned walk yields the full product's minimal tuples, in order.

    Candidate lists are random incomparable sets of widths 1 to 4, L is a
    random non-empty list, and the targets are C13^2, C19^3, K4 and random
    graphs on up to 7 vertices.
    """
    from lhom.graphs import dominant_subset
    from oracle import random_graph, reference_minimal_tuples
    rng = SplitMix64(74)
    fixed = (c13p2, gen_cycle_power(19, 3), k4)
    found = 0
    for trial in range(600):
        hg = fixed[trial % 4] if trial % 4 < 3 else \
            random_graph(rng, 1 + rng.below(7))
        full = hg.full_mask
        cands = tuple(bit_list(dominant_subset(hg, 1 + rng.below(full)))
                      for _ in range(1 + rng.below(4)))
        l_mask = 1 + rng.below(full)
        want = reference_minimal_tuples(hg.adj, full, l_mask, cands)
        got = list(kernels._minimal_tuples(hg.adj, full, l_mask, cands))
        assert got == want, (trial, hg, l_mask, cands)
        found += len(want) > 1
    assert found >= 100, found


def test_poly_calls_forbid_only_where_the_list_matters(monkeypatch, c13p2):
    """Only width-3 tuples take C13^2's cycle-power route, which reads L.

    Every narrower minimal tuple becomes its plain monomial without a
    call, so 320 of the 4,737 minimal tuples reach `construct`, each on
    its route; the walk has proved them minimal, so the kernel neither
    shrinks nor routes them again through `forbid`.  The report is pinned
    byte for byte.
    """
    widths = []

    def counting(req, route):
        widths.append((req.width, route))
        return construct(req, route)

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel called forbid or minimal_subrequest")

    monkeypatch.setattr(kernels, "construct", counting)
    monkeypatch.setattr(kernels, "forbid", refuse)
    monkeypatch.setattr(kernels, "minimal_subrequest", refuse)
    monkeypatch.setattr(forbid_module, "forbid", refuse)
    monkeypatch.setattr(forbid_module, "minimal_subrequest", refuse)
    report = kernel_poly(gen_instance(c13p2, 150, 4, 1), c13p2,
                         cycle_power=(13, 2))
    assert set(widths) == {(3, "cycle-power")} and len(widths) == 320
    assert (report.degree_used, report.vertices_out, report.edges_out,
            report.constraints_total, report.constraints_retained) == \
        (2, 45, 91, 4761, 326)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        "8bb436e6ef92eabf831b9183259f050857684218bd293497971ca7873450bc29")


@pytest.mark.parametrize("k, p, hint, budget, want", [
    (13, 2, True, 200, 240),
    (13, 2, True, 3000, (2674, 235)),
    (6, 1, False, 30, 50),
    (4, 2, False, 8, 12),
    (19, 3, True, 3000, 7200),
], ids=["c13p2-200", "c13p2-3000", "c6-30", "k4-8", "c19p3-3000"])
def test_poly_budget_errors_are_pinned(monkeypatch, k, p, hint, budget, want):
    """The first budget error of the walk, or the report when none is hit."""
    hg = gen_cycle_power(k, p)
    args = gen_instance(hg, 120, 4, 3), hg, (k, p) if hint else None
    monkeypatch.setattr(forbid_module, "CERT_BUDGET", budget)
    if isinstance(want, tuple):
        report = kernel_poly(*args)
        assert (report.constraints_total, report.constraints_retained) == want
        return
    with pytest.raises(BudgetExceededError) as err:
        kernel_poly(*args)
    assert str(err.value) == \
        f"certification needs {want} evaluations, budget is {budget}"


def test_both_kernels_without_a_designated_cover(c6, k4, c13p2):
    """With no cover line both kernels fall back to the greedy cover; the
    poly kernel still matches the reference and every kernel keeps the
    answer."""
    from oracle import reference_kernel_poly
    rng = SplitMix64(53)
    checked = 0
    for hg, hint in ((c6, None), (k4, None), (c13p2, (13, 2))):
        for trial in range(6):
            planted = gen_instance(hg, 8 + rng.below(10), 2 + rng.below(3),
                                   5300 + trial,
                                   "planted-yes" if trial % 2 else "random")
            inst = Instance(planted.graph, planted.lists)
            greedy = greedy_vertex_cover(inst.graph)
            assert cover_certificate(inst) == greedy
            got = kernel_poly(inst, hg, cycle_power=hint)
            want = reference_kernel_poly(inst, hg, cycle_power=hint)
            assert got.constraints_total <= want.constraints_total
            assert replaced(got, constraints_total=0) == \
                replaced(want, constraints_total=0), (hg, trial)
            answer = decide(inst, hg)[0]
            for report in (got, kernel_marking(inst, hg)):
                assert report.bound_k == greedy.bit_count()
                assert decide(report.kernel, hg)[0] == answer, (hg, trial)
            checked += 1
    assert checked == 18


def _pinned_cases(c5, c6, c13p2, k4, k4_ladder):
    """(instance, target, hint, budget) for the kernel pins: the K4 ladder,
    seeded C5, C6 and C13^2 instances (random and planted-yes, with and
    without the hint), random targets, and one small budget each."""
    from oracle import random_graph
    cases = [(inst, k4, None, 2_000_000) for inst in k4_ladder]
    rng = SplitMix64(2501)
    for hg, hint in ((c5, (5, 1)), (c6, (6, 1)), (c13p2, (13, 2))):
        for trial in range(8):
            n, k = 20 + rng.below(60), 2 + rng.below(3)
            inst = gen_instance(hg, n, k, 2500 + trial,
                                "planted-yes" if trial % 2 else "random")
            for h in (hint, None):
                cases.append((inst, hg, h, 2_000_000))
            cases.append((inst, hg, hint, 1 + rng.below(40)))
    for trial in range(24):
        hg = random_graph(rng, 2 + rng.below(6))
        inst = gen_instance(hg, 10 + rng.below(20), 1 + rng.below(5),
                            2600 + trial,
                            "planted-yes" if trial % 2 else "random")
        cases.append((inst, hg, None, 2_000_000))
        cases.append((inst, hg, None, 1 + rng.below(40)))
    return cases


def test_both_kernels_are_pinned(monkeypatch, c5, c6, c13p2, k4, k4_ladder):
    """`repr(KernelReport)` of both kernels and every budget error, folded
    into one SHA-256 pinned before the walk skipped barren list tuples."""
    digest = hashlib.sha256()
    for inst, hg, hint, budget in _pinned_cases(c5, c6, c13p2, k4, k4_ladder):
        digest.update(repr(kernel_marking(inst, hg)).encode())
        monkeypatch.setattr(forbid_module, "CERT_BUDGET", budget)
        digest.update(
            repr(_poly_outcome(kernel_poly, inst, hg, hint)).encode())
    assert digest.hexdigest() == (
        "acc75e0e8879b08495ea866ae099870a97a92e2f952b580093b223c8375cf609")


def _route_cases(c6, c13p2, k4, k4_reductions):
    """(instance, target, hint) for the kernel's unchecked requests: the
    cycle-power routes of C13^2 and C19^3, C6's triples, K4's linear system
    and the K4 reductions."""
    c19p3 = gen_cycle_power(19, 3)
    return [(gen_instance(c13p2, 150, 4, 1), c13p2, (13, 2)),
            (gen_instance(c19p3, 120, 4, 2), c19p3, (19, 3)),
            (gen_instance(c6, 200, 3, 5), c6, None),
            (gen_instance(k4, 400, 5, 3), k4, None),
            *((inst, k4, None) for inst in k4_reductions)]


def test_the_kernels_requests_are_ones_the_checked_constructor_accepts(
        monkeypatch, c6, c13p2, k4, k4_reductions):
    """With `ForbidRequest._built` made the checked constructor, no route
    request raises and every report is the unpatched one."""
    cases = _route_cases(c6, c13p2, k4, k4_reductions)
    want = [kernel_poly(*case) for case in cases]
    monkeypatch.setattr(ForbidRequest, "_built",
                        classmethod(lambda cls, *fields: cls(*fields)))
    assert [kernel_poly(*case) for case in cases] == want


def test_the_kernel_builds_no_checked_request(monkeypatch, c6, c13p2, k4,
                                              k4_reductions):
    """The kernel's route requests skip the checked constructor; each
    family still reaches `construct` with some.  `record` calls the
    `__post_init__` it found when it made the class, so the count patches
    `__init__`, which every checked construction looks up."""
    checks, routed = [], collections.Counter()
    init = ForbidRequest.__init__

    def counting(req, route):
        routed[req.target.n, route] += 1
        return construct(req, route)

    monkeypatch.setattr(ForbidRequest, "__init__",
                        lambda req, *args: checks.append(req) or init(req, *args))
    monkeypatch.setattr(kernels, "construct", counting)
    for case in _route_cases(c6, c13p2, k4, k4_reductions):
        kernel_poly(*case)
    assert checks == []
    assert set(routed) == {(13, "cycle-power"), (19, "cycle-power"),
                           (6, "c6"), (4, "linear-system")}, routed


@pytest.mark.parametrize("k, p, n, seed, tup, calls", [
    (13, 2, 150, 1, (2, 1, 3), 1),
    (13, 2, 150, 2, (0, 1, 2), 10),
    (19, 3, 120, 2, (0, 1, 3, 2), 1),
], ids=["c13p2-seed1", "c13p2-seed2", "c19p3-seed2"])
def test_a_broken_route_polynomial_fails_at_the_same_tuple(
        monkeypatch, k, p, n, seed, tup, calls):
    """A cycle-power polynomial with y[0,0] y[1,1] XORed in fails
    certification at the tuple, and after the `_cycle_power_poly` calls,
    pinned when each route request was built checked."""
    hg, made = gen_cycle_power(k, p), []
    stray = Gf2Poly.product_of_vars([(0, 0), (1, 1)])
    right = forbid_module._cycle_power_poly

    def broken(*args):
        made.append(args)
        return Gf2Poly.sum_of([right(*args), stray])

    monkeypatch.setattr(forbid_module, "_cycle_power_poly", broken)
    with pytest.raises(CertificationError) as err:
        kernel_poly(gen_instance(hg, n, 4, seed), hg, cycle_power=(k, p))
    assert str(err.value) == ("cycle-power construction failed certification"
                              f" for tuple {tup}")
    assert len(made) == calls


def _width(adj: tuple[int, ...], l_mask: int) -> float:
    """The fewest colors that can have no common neighbor in L: a tuple
    without one covers L by the sets L - N(a) of its colors a."""
    most = max((l_mask & ~a).bit_count() for a in adj)
    return math.ceil(l_mask.bit_count() / most) if most else math.inf


def test_the_memo_serves_each_offered_list_tuple_its_minimal_tuples(
        monkeypatch, c5, c6, c13p2, k4, k4_ladder):
    """Every (L, list tuple) that `_walk` offers the poly kernel is either
    served the full product's minimal tuples, whether the memo made them in
    this call or kept them from an earlier one, or is narrower than L's
    width bound (`_width`) and has none; at least 100 of them are barren,
    and at least 100 are skipped.

    The memo is wrapped, not replaced, so every lookup, hit or miss, is
    checked against `reference_minimal_tuples`, and so is every pair the
    bound skips.  The family meets more distinct pairs than the memo's
    bound, and the memo stays within it.
    """
    from oracle import reference_minimal_tuples
    walk, memo = kernels._walk, kernels._minimal_memo
    offered, served, want = set(), {}, {}

    def recorded_walk(inst, cover, c):
        for v, l_mask, subsets in walk(inst, cover, c):
            offered.update(
                (l_mask, tuple(tuple(bit_list(inst.lists[u])) for u in combo))
                for combo in subsets)
            yield v, l_mask, subsets

    def recorded_memo(adj, full, l_mask, cands):
        found = memo(adj, full, l_mask, cands)
        key = (adj, l_mask, cands)
        if key not in want:
            want[key] = tuple(
                reference_minimal_tuples(adj, full, l_mask, cands))
        assert found == want[key], key
        served[l_mask, cands] = found
        return found

    monkeypatch.setattr(kernels, "_walk", recorded_walk)
    monkeypatch.setattr(kernels, "_minimal_memo", recorded_memo)
    barren = skipped = 0
    for inst, hg, hint, _ in _pinned_cases(c5, c6, c13p2, k4, k4_ladder):
        offered.clear()
        served.clear()
        kernel_poly(inst, hg, cycle_power=hint)
        for l_mask, cands in offered - served.keys():
            assert len(cands) < _width(hg.adj, l_mask), (l_mask, cands)
            assert not reference_minimal_tuples(hg.adj, hg.full_mask,
                                                l_mask, cands)
            skipped += 1
        barren += sum(not found for found in served.values())
        assert all(len(cands) >= _width(hg.adj, l_mask)
                   for l_mask, cands in served), (inst, hg)
    barren += skipped
    assert barren >= 100 and skipped >= 100, (barren, skipped)
    info = memo.cache_info()
    assert len(want) > info.maxsize >= info.currsize, (len(want), info)


def _lookups(monkeypatch) -> list:
    """The (L, list tuple) pairs that the poly kernel looks up in its memo,
    recorded as they are looked up."""
    memo, looked = kernels._minimal_memo, []

    def recorded_memo(adj, full, l_mask, cands):
        looked.append((l_mask, cands))
        return memo(adj, full, l_mask, cands)

    monkeypatch.setattr(kernels, "_minimal_memo", recorded_memo)
    return looked


def test_width_bound_boundary(monkeypatch, k4):
    """A type exactly as wide as L's bound is looked up, and one narrower
    is not.  On K4 each color misses one color of L, so L = {0, 1} needs
    two colors and L = {0, 1, 2} three; on seeded random targets every
    type at its bound is looked up and none one below it."""
    from lhom.graphs import reduce_lists
    from lhom.invariants import compute_c_star
    from oracle import random_graph, reference_kernel_poly
    looked = _lookups(monkeypatch)
    g = Graph.from_edges(5, [(0, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
    inst = Instance(g, (0b1, 0b10, 0b11, 0b111, 0b11), mask_of([0, 1]))
    report = kernel_poly(inst, k4)
    assert looked == [(0b11, ((0,), (1,)))]
    assert report == reference_kernel_poly(inst, k4)
    assert report.vertex_map == (0, 1, 2)
    rng = SplitMix64(3203)
    at = below = 0
    for trial in range(40):
        hg = random_graph(rng, 3 + rng.below(4))
        inst = gen_instance(hg, 10 + rng.below(20), 2 + rng.below(3),
                            3203 + trial, "random")
        looked.clear()
        offered = [(l_mask, len(combo)) for _, l_mask, subsets in
                   kernels._walk(reduce_lists(inst, hg),
                                 cover_certificate(inst),
                                 compute_c_star(hg).value)
                   for combo in subsets]
        kernel_poly(inst, hg)
        served = collections.Counter((l_mask, len(cands))
                                     for l_mask, cands in looked)
        for l_mask, r in offered:
            width = _width(hg.adj, l_mask)
            assert (r >= width) == bool(served[l_mask, r]), (trial, l_mask)
            at += r == width
            below += r == width - 1
    assert at >= 100 and below >= 100, (at, below)


def test_no_type_forbids_where_every_color_meets_all_of_l(monkeypatch):
    """On a looped star every color is adjacent to the looped center, so
    with L = {center} no tuple lacks a common neighbor in L: the bound
    skips every type without dividing by zero, and the report is the
    reference's."""
    from oracle import reference_kernel_poly
    looked = _lookups(monkeypatch)
    hg = Graph.from_edges(3, [(0, 0), (0, 1), (0, 2)])
    edges = [(v, u) for v in range(2, 9) for u in (0, 1) if (v + u) % 3]
    inst = Instance(Graph.from_edges(9, edges), (0b110, 0b111) + (1,) * 7,
                    mask_of([0, 1]))
    report = kernel_poly(inst, hg)
    assert looked == []
    assert report == reference_kernel_poly(inst, hg)
    assert report.vertices_out == 2


def test_walk_meets_the_types_in_first_seen_order(c5, c6, c13p2, k4,
                                                  k4_ladder):
    """`_walk` offers each (subset, list) once, and what it offers are the
    types of `reference_types`, in its order and each with its lowest
    vertex, on the input lists and on the reduced ones."""
    from lhom.graphs import reduce_lists
    from lhom.invariants import compute_c_star
    from oracle import reference_types
    for inst, hg, _, _ in _pinned_cases(c5, c6, c13p2, k4, k4_ladder):
        c = compute_c_star(hg).value
        for case in (inst, reduce_lists(inst, hg)):
            cover = cover_certificate(case)
            offered = [((mask_of(combo), l_mask), v)
                       for v, l_mask, subsets in kernels._walk(case, cover, c)
                       for combo in subsets]
            assert len(dict(offered)) == len(offered)
            assert offered == list(reference_types(case, cover, c).items())


def _walk_size(inst: Instance, c: int) -> int:
    """The cover subsets of at most c vertices that every outside vertex
    has, counted one by one."""
    cover = cover_certificate(inst)
    return sum(1 for v in range(inst.graph.n) if not cover >> v & 1
               for r in range(c + 1)
               for _ in itertools.combinations(bit_list(inst.graph.adj[v]), r))


def test_walk_budget_boundary(monkeypatch, tmp_path, capsys, c6):
    """Both kernels, and `lhom kernel`, run with the walk's subset count W
    at the budget and fail with exit code 3 and a message naming W one
    below it."""
    from lhom.cli import main
    from lhom.formats import write_hgraph, write_instance
    from lhom.invariants import compute_c_star
    inst = gen_instance(c6, 60, 5, 3)
    walk = _walk_size(inst, compute_c_star(c6).value)
    assert walk == 424
    hg_path, inst_path = tmp_path / "c6.hg", tmp_path / "i.lh"
    hg_path.write_text(write_hgraph(c6))
    inst_path.write_text(write_instance(inst, 6))
    message = f"type walk needs {walk} cover subsets, budget is {walk - 1}"
    for kernel, method in ((kernel_marking, "marking"), (kernel_poly, "poly")):
        monkeypatch.setattr(kernels, "WALK_BUDGET", walk)
        assert kernel(inst, c6).constraints_total > 0
        args = ["kernel", str(inst_path), "--target", str(hg_path),
                "--method", method]
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr(kernels, "WALK_BUDGET", walk - 1)
        with pytest.raises(BudgetExceededError) as err:
            kernel(inst, c6)
        assert str(err.value) == message
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cert_budget_boundary(monkeypatch, tmp_path, capsys, c13p2):
    """`lhom forbid` and `lhom kernel --method poly` run with CERT_BUDGET at
    N, the largest size that the call charges, and exit 3 with a message
    naming N one below it.  Both N are below 13^3, so the cycle-power
    polynomials are scanned on their candidate products, not read from a
    table."""
    from lhom.cli import main
    from lhom.formats import write_hgraph, write_instance
    hg_path, inst_path = tmp_path / "c13.hg", tmp_path / "i.lh"
    hg_path.write_text(write_hgraph(c13p2, ("gen: cycle-power k=13 p=2",)))
    inst_path.write_text(write_instance(gen_instance(c13p2, 30, 3, 1), 13))
    sizes, charge = [], forbid_module.charge

    def recording(size):
        sizes.append(size)
        charge(size)

    monkeypatch.setattr(forbid_module, "charge", recording)
    monkeypatch.setattr(kernels, "charge", recording)
    every = ",".join(map(str, range(13)))
    for args, n in (
            (["forbid", "--target", str(hg_path), "--list", every,
              "--tuple", "0,2,4", "--lists", "0,1;2,3;4,5", "--json"], 8),
            (["kernel", str(inst_path), "--target", str(hg_path),
              "--method", "poly"], 210)):
        monkeypatch.setattr(forbid_module, "CERT_BUDGET", n)
        sizes.clear()
        assert main(args) == 0
        assert max(sizes) == n
        out = capsys.readouterr().out
        if args[0] == "forbid":
            assert json.loads(out)["method"] == "cycle-power"
        monkeypatch.setattr(forbid_module, "CERT_BUDGET", n - 1)
        assert main(args) == 3
        assert capsys.readouterr().err == (
            f"error: certification needs {n} evaluations, budget is {n - 1}\n")
