import collections
import hashlib
import itertools
import re

import pytest

from lhom.bitset import bit_list, mask_of
from lhom.forbid import ForbidRequest, ForbidResult, forbid
from lhom.generators import SplitMix64, gen_cycle_power, gen_instance
from lhom.gf2 import Gf2Poly, poly_local
from lhom.graphs import (Graph, Instance, common_neighbors, cover_certificate,
                         dominant_subset, greedy_vertex_cover, incomparable,
                         is_incomparable_set, reduce_lists, validate_instance)
from lhom.invariants import (CStarWitness, LowerBoundStructure, compute_c_star,
                             compute_d_star)
from lhom.kernels import KernelReport, kernel_marking, kernel_poly
from lhom.reductions import (Gadget, VariableGadget, build_comp, build_neq,
                             build_variable_gadget, reduce_sat)
from lhom.solver import decide

from conftest import complete_graph
from oracle import (_is_incomparable_mask, brute_common, dataclass_twin,
                    exact_min_vertex_cover, random_graph,
                    reference_dominant_subset, reference_edges,
                    reference_greedy_cover, reference_nbrs)


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    # seeded adjacencies with bits flipped on either side of the diagonal:
    # the error names the pair an all-pairs scan in vertex order finds first
    rng = SplitMix64(16)
    rejected = 0
    for trial in range(300):
        adj = list(random_graph(rng, 1 + rng.below(12)).adj)
        n = len(adj)
        for _ in range(rng.below(3)):
            u, v = rng.below(n), rng.below(n)
            adj[u] ^= 1 << v
        first = next(((u, v) for v in range(n) for u in range(n)
                      if adj[v] >> u & 1 and not adj[u] >> v & 1), None)
        if first is None:
            assert Graph(n, tuple(adj)).adj == tuple(adj)
            continue
        rejected += 1
        with pytest.raises(ValueError, match=re.escape(
                f"adjacency not symmetric at {first[0], first[1]}")):
            Graph(n, tuple(adj))
    assert rejected >= 150, rejected


def test_graph_rejects_out_of_range_neighbors():
    with pytest.raises(ValueError):
        Graph(1, (0b10,))


def test_loop_contributes_one_to_degree():
    g = Graph.from_edges(2, [(0, 0), (0, 1)])
    assert g.degree(0) == 2
    assert g.degree(1) == 1
    assert g.edges() == [(0, 0), (0, 1)]


def test_common_neighbors_c6(c6):
    v_all = c6.full_mask
    assert common_neighbors(c6, mask_of([0, 2]), v_all) == mask_of([1])
    assert common_neighbors(c6, mask_of([0, 2, 4]), v_all) == 0
    assert common_neighbors(c6, 0, mask_of([3, 5])) == mask_of([3, 5])


def test_common_neighbors_loop_vertex():
    g = Graph.from_edges(1, [(0, 0)])
    assert common_neighbors(g, mask_of([0]), mask_of([0])) == mask_of([0])


def test_common_neighbors_matches_bruteforce():
    rng = SplitMix64(11)
    for _ in range(50):
        g = random_graph(rng, 1 + rng.below(6))
        s = rng.below(g.full_mask + 1)
        l = rng.below(g.full_mask + 1)
        assert common_neighbors(g, s, l) == brute_common(g, s, l)


def test_incomparable_c6(c6):
    assert incomparable(c6, 0, 2)
    assert not incomparable(c6, 0, 0)


def test_incomparable_star_center_vs_leaf():
    star = Graph.from_edges(3, [(0, 1), (0, 2)])
    # N(leaf) = {center}, N(center) = both leaves: incomparable
    assert incomparable(star, 0, 1)
    # two leaves have equal neighborhoods: comparable
    assert not incomparable(star, 1, 2)


def test_incomparable_symmetric():
    rng = SplitMix64(12)
    for _ in range(30):
        g = random_graph(rng, 2 + rng.below(5))
        for u, v in itertools.combinations(range(g.n), 2):
            assert incomparable(g, u, v) == incomparable(g, v, u)


def test_reduce_lists_drops_dominated_color():
    # 0 adjacent to 1; 2 adjacent to 1 and 3: N(0) strictly inside N(2)
    hg = Graph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
    inst = Instance(Graph.from_edges(1, []), (mask_of([0, 2]),))
    red = reduce_lists(inst, hg)
    assert red.lists == (mask_of([2]),)


def test_reduce_lists_tie_keeps_smaller_index():
    hg = Graph.from_edges(3, [(0, 2), (1, 2)])  # N(0) == N(1) == {2}
    inst = Instance(Graph.from_edges(1, []), (mask_of([0, 1]),))
    red = reduce_lists(inst, hg)
    assert red.lists == (mask_of([0]),)


def test_reduce_lists_c6_full_lists_unchanged(c6):
    # independent check first: all pairs of cycle vertices are incomparable
    for u, v in itertools.combinations(range(6), 2):
        assert brute_common(c6, 0, c6.adj[u] & ~c6.adj[v]) or True
        assert (c6.adj[u] & ~c6.adj[v]) and (c6.adj[v] & ~c6.adj[u])
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (c6.full_mask, c6.full_mask))
    assert reduce_lists(inst, c6).lists == inst.lists


def test_reduce_lists_idempotent():
    rng = SplitMix64(13)
    for _ in range(40):
        hg = random_graph(rng, 1 + rng.below(6))
        g = random_graph(rng, 1 + rng.below(5), loop_num=0)
        lists = tuple(rng.below(hg.full_mask + 1) for _ in range(g.n))
        inst = Instance(g, lists)
        once = reduce_lists(inst, hg)
        twice = reduce_lists(once, hg)
        assert once.lists == twice.lists
        assert once.lists == tuple(dominant_subset(hg, m) for m in lists)
        for mask in once.lists:
            assert is_incomparable_set(hg, mask)
            assert mask & ~hg.full_mask == 0


@pytest.mark.parametrize("bad", [(5, 3), (0,)])
def test_validate_instance_names_lowest_offending_vertex(c6, bad):
    lists = [c6.full_mask] * 7
    for v in bad:
        lists[v] |= 1 << 6 + v
    inst = Instance(Graph.from_edges(7, []), tuple(lists))
    for check in (validate_instance, reduce_lists):
        with pytest.raises(ValueError, match=f"^list of vertex {min(bad)} "
                                             "mentions unknown colors$"):
            check(inst, c6)
    validate_instance(Instance(inst.graph, (c6.full_mask,) * 7), c6)


def test_validate_instance_matches_the_walk_over_every_list(c6):
    """Negative, out-of-range and empty lists, on their own and mixed with
    valid ones, give the outcome and message of a walk over every list; a
    list that is not an int still raises `TypeError`."""
    def walked(inst, hg):
        for v, mask in enumerate(inst.lists):
            if mask & ~hg.full_mask:
                return f"list of vertex {v} mentions unknown colors"
        return None

    def outcome(inst, hg):
        try:
            validate_instance(inst, hg)
        except ValueError as err:
            return str(err)
        return None

    g = Graph.from_edges(3, [])
    cases = [Instance(Graph.from_edges(0, []), ()),
             Instance(g, (0, 0, 0)),
             Instance(g, (1, -1, 1)),
             Instance(g, (1, 1 << 6, -5)),
             Instance(g, (c6.full_mask, 0, c6.full_mask + 1))]
    rng = SplitMix64(271)
    pool = (0, 1, c6.full_mask, c6.full_mask + 1, 1 << 6, 1 << 200, -1,
            -(1 << 6), -(1 << 200))
    for _ in range(300):
        n = rng.below(8)
        cases.append(Instance(Graph.from_edges(n, []), tuple(
            pool[rng.below(len(pool))] if rng.chance(1, 4)
            else rng.below(c6.full_mask + 1) for _ in range(n))))
    outcomes = [outcome(inst, c6) for inst in cases]
    assert outcomes == [walked(inst, c6) for inst in cases]
    bad = "list of vertex {} mentions unknown colors".format
    assert outcomes[:5] == [None, None, bad(1), bad(1), bad(2)]
    assert 100 <= outcomes.count(None) <= 250, outcomes.count(None)
    with pytest.raises(TypeError):
        validate_instance(Instance(g, (1, 0.5, 1)), c6)


@pytest.mark.parametrize("target_key", ["c5", "c6", "k3"])
def test_reduce_lists_preserves_answer(target_key, request):
    hg = request.getfixturevalue(target_key)
    for seed in range(25):
        inst = gen_instance(hg, 6 + seed % 5, 3, seed,
                            "planted-yes" if seed % 3 == 0 else "random")
        red = reduce_lists(inst, hg)
        assert decide(inst, hg)[0] == decide(red, hg)[0]


def test_greedy_cover_single_edge():
    cover = greedy_vertex_cover(Graph.from_edges(2, [(0, 1)]))
    assert bit_list(cover) == [0, 1]


def test_greedy_cover_empty_graph():
    assert greedy_vertex_cover(Graph.from_edges(3, [])) == 0


def test_greedy_cover_five_leaf_star():
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert greedy_vertex_cover(star).bit_count() == 2
    assert exact_min_vertex_cover(star) == 1


def test_greedy_cover_always_covers_and_two_approximates():
    rng = SplitMix64(14)
    for _ in range(30):
        g = random_graph(rng, 2 + rng.below(11))  # up to 12 vertices
        cover = greedy_vertex_cover(g)
        for u, v in g.edges():
            assert cover >> u & 1 or cover >> v & 1
        assert cover.bit_count() <= 2 * exact_min_vertex_cover(g)


def test_greedy_cover_matches_the_edge_list_reference(k4_reductions):
    """The cover read off `Graph.loops` and `Graph.nbrs` is the one that
    shifting each mask and walking `edges()` gave, loops included."""
    rng = SplitMix64(2601)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, [(0, 0)]),
              *(inst.graph for inst in k4_reductions)]
    graphs += [random_graph(rng, 1 + rng.below(30), 1, 1 + rng.below(8))
               for _ in range(200)]
    for g in graphs:
        assert greedy_vertex_cover(g) == reference_greedy_cover(g), g


def test_cover_certificate_prefers_designated():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    inst = Instance(g, (1, 1, 1), cover=mask_of([0]))
    assert cover_certificate(inst) == mask_of([0])


def test_instance_rejects_non_cover():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Instance(g, (1, 1, 1), cover=mask_of([0]))


def test_instance_rejects_loop_outside_cover():
    g = Graph.from_edges(2, [(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        Instance(g, (1, 1), cover=mask_of([0]))


def _twinned_target(rng, h):
    """A seeded random looped target on h colors, then a twin of one of them
    (an equal neighborhood, a loop included) and an isolated color."""
    base = random_graph(rng, h)
    v = rng.below(h)
    edges = base.edges() + [(h, u) for u in bit_list(base.adj[v]) if u != v]
    if base.adj[v] >> v & 1:
        edges += [(h, v), (h, h)]
    hg = Graph.from_edges(h + 2, edges)
    assert hg.adj[h] == hg.adj[v] and hg.adj[h + 1] == 0
    return hg


def test_dominant_subset_is_incomparable():
    """dominant_subset and is_incomparable_set against the pairwise
    references: every mask for h <= 6, sampled masks for h <= 10 on targets
    with a twin and an isolated color, and cycle powers."""
    def check(hg, mask):
        sub = dominant_subset(hg, mask)
        assert sub == reference_dominant_subset(hg, mask), (hg, mask)
        assert is_incomparable_set(hg, sub)
        assert (is_incomparable_set(hg, mask)
                == _is_incomparable_mask(hg, mask)), (hg, mask)

    rng = SplitMix64(15)
    for _ in range(40):
        hg = random_graph(rng, 1 + rng.below(7))
        mask = rng.below(hg.full_mask + 1)
        assert dominant_subset(hg, mask) & ~mask == 0
        check(hg, mask)
    small = [random_graph(rng, h) for h in range(7) for _ in range(6)]
    small += [_twinned_target(rng, h) for h in range(1, 5) for _ in range(6)]
    for hg in small:
        for mask in range(hg.full_mask + 1):
            check(hg, mask)
    for _ in range(200):
        hg = _twinned_target(rng, 1 + rng.below(8))
        for _ in range(20):
            check(hg, rng.below(hg.full_mask + 1))
    for k, p in ((5, 1), (6, 1), (13, 2), (19, 3), (25, 4)):
        hg = gen_cycle_power(k, p)
        check(hg, hg.full_mask)
        for _ in range(50):
            check(hg, rng.below(hg.full_mask + 1))


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(2, (0,)), "adjacency length must equal vertex count"),
    (lambda: Graph.from_edges(2, [(0, 2)]), "edge (0, 2) out of range"),
    (lambda: Instance(Graph.from_edges(2, []), (1,)),
     "one list per vertex is required"),
    (lambda: Graph(1, (0b10,)), "neighbor of 0 out of range"),
    # the range pass runs first, though (1, 0) is also asymmetric
    (lambda: Graph(2, (0b10, 0b100)), "neighbor of 1 out of range"),
    # an explicit id: the message alone would repeat the first case's id
    pytest.param(lambda: Graph.from_edges(-1, []),
                 "adjacency length must equal vertex count",
                 id="from_edges-negative-n"),
    # with n < 0 the edge loop names the first edge before the length check
    (lambda: Graph.from_edges(-1, [(0, 0)]), "edge (0, 0) out of range"),
    (lambda: validate_instance(Instance(Graph.from_edges(2, []), (1, 0b100)),
                               Graph.from_edges(2, [])),
     "list of vertex 1 mentions unknown colors"),
    (lambda: Instance(Graph.from_edges(2, []), (1, 1), 0b100),
     "cover vertex out of range"),
])
def test_graph_and_instance_input_checks(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def _assert_checked(g: Graph) -> None:
    assert Graph(g.n, g.adj) == g


def _assert_checked_instance(inst: Instance) -> None:
    _assert_checked(inst.graph)
    assert Instance(inst.graph, inst.lists, inst.cover) == inst


def test_builders_make_graphs_the_checked_constructor_accepts(
        c5, c6, k4, c13p2, k4_reductions):
    """from_edges, gen_instance, both kernels, reduce_lists, reduce_sat and
    the gadgets build their graphs and instances without the check;
    Graph(n, adj) and Instance(graph, lists, cover) must accept each one
    as it is."""
    rng = SplitMix64(2001)
    for _ in range(200):
        n = 1 + rng.below(10)
        # loops and repeated edges included
        edges = [(rng.below(n), rng.below(n)) for _ in range(rng.below(3 * n))]
        edges += edges[:rng.below(len(edges) + 1)]
        _assert_checked(Graph.from_edges(n, edges))
    cases = [("small", hg, None, gen_instance(hg, 6 + rng.below(20),
                                              1 + rng.below(3), 2100 + trial))
             for hg in (c5, c6, k4) for trial in range(4)]
    cases += [("c13", c13p2, (13, 2), gen_instance(c13p2, 60, 3, 2200 + trial))
              for trial in range(2)]
    cases += [("sat", k4, None, inst) for inst in k4_reductions]
    shrunk: dict[str, set[bool]] = {}
    for hg in (c5, c6, k4, c13p2, random_graph(rng, 9)):
        for mode in ("random", "planted-yes"):
            for n, k in ((0, 0), (1, 1), (30, 4), (600, 30)):
                _assert_checked_instance(gen_instance(hg, n, k, 2300, mode))
    for name, hg, hint, inst in cases:
        # with the cover line, and without it (the greedy cover)
        for case in (inst, Instance(inst.graph, inst.lists)):
            _assert_checked_instance(reduce_lists(case, hg))
            for report in (kernel_marking(case, hg),
                           kernel_poly(case, hg, cycle_power=hint)):
                _assert_checked_instance(report.kernel)
                shrunk.setdefault(name, set()).add(
                    report.vertices_out < report.vertices_in)
    # C13^2 poly kernels drop and re-index vertices; K4 reductions drop none
    assert True in shrunk["c13"] and shrunk["sat"] == {False}, shrunk
    # an empty list gives the one-vertex no-instance
    empty = Instance(Graph.from_edges(2, [(0, 1)]), (0, 1), 1)
    for report in (kernel_marking(empty, k4), kernel_poly(empty, k4)):
        assert report.vertex_map == (-1,)
        _assert_checked_instance(report.kernel)
    for hg in (k4, complete_graph(5)):
        d, lbs = compute_d_star(hg)
        assert d == hg.n - 1  # orders 3 and 4
        nvars = 4
        clauses = [[(1 if rng.below(2) else -1) * (1 + rng.below(nvars))
                    for _ in range(3)] for _ in range(6)]
        for args in ((nvars, clauses), (0, []), (nvars, clauses + [[]])):
            _assert_checked_instance(reduce_sat(*args, hg, lbs))
        gadgets = [build_variable_gadget(hg, lbs)]
        for i in range(d):
            gadgets.append(build_neq(hg, lbs, i))
            gadgets += [build_comp(hg, lbs, i, j) for j in range(d) if j != i]
        for gadget in gadgets:
            _assert_checked_instance(gadget.instance())


def test_edges_match_the_digit_reference(c13p2, k4_reductions):
    """`edges()` equals the edges read off each row's binary digits on
    seeded looped graphs, instances of both modes, K4 reductions, a looped
    center with 10^5 neighbors and two 200,001-vertex cover rows; the
    wide rows once cost a pass over the row per neighbor."""
    rng = SplitMix64(3902)
    n = 100_001
    star = Graph._built(n, ((1 << n) - 1,) + (1,) * (n - 1))
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, [(0, 0)]), star,
              gen_instance(c13p2, 200_001, 2, 3902).graph,
              *(inst.graph for inst in k4_reductions)]
    graphs += [random_graph(rng, 1 + rng.below(90), 1, 1 + rng.below(6))
               for _ in range(100)]
    graphs += [gen_instance(random_graph(rng, 1 + rng.below(12)),
                            rng.below(300), rng.below(6), trial,
                            ("random", "planted-yes")[trial % 2]).graph
               for trial in range(40)]
    wide = looped = 0
    for g in graphs:
        assert g.edges() == reference_edges(g), g.n
        wide += max(map(int.bit_count, g.adj), default=0) >= 64
        looped += bool(g.loops)
    assert star.edges()[:2] == [(0, 0), (0, 1)] and len(star.edges()) == n
    assert wide >= 20 and looped >= 50, (wide, looped)


def test_edge_count_matches_the_edge_list(c5, c6, k4, c13p2, k4_reductions):
    """edge_count counts every edge once, a loop included, on the graphs
    of every builder: from_edges, looped random targets, the cycle powers,
    seeded instances, reduce_lists, both kernels, reduce_sat and the
    gadgets."""
    rng = SplitMix64(2503)
    graphs = [Graph.from_edges(0, [])]
    for _ in range(100):
        n = 1 + rng.below(10)
        graphs.append(Graph.from_edges(n, [(rng.below(n), rng.below(n))
                                           for _ in range(rng.below(3 * n))]))
        graphs.append(random_graph(rng, 1 + rng.below(8)))
    for hg, hint in ((c5, None), (c6, None), (k4, None), (c13p2, (13, 2))):
        for mode in ("random", "planted-yes"):
            inst = gen_instance(hg, 40, 3, 2500, mode)
            graphs += [hg, inst.graph, reduce_lists(inst, hg).graph,
                       kernel_marking(inst, hg).kernel.graph,
                       kernel_poly(inst, hg, cycle_power=hint).kernel.graph]
    for inst in k4_reductions:
        graphs += [inst.graph, kernel_marking(inst, k4).kernel.graph,
                   kernel_poly(inst, k4).kernel.graph]
    d, lbs = compute_d_star(k4)
    graphs.append(build_variable_gadget(k4, lbs).instance().graph)
    graphs += [build_neq(k4, lbs, i).instance().graph for i in range(d)]
    graphs += [build_comp(k4, lbs, i, j).instance().graph
               for i, j in itertools.permutations(range(d), 2)]
    looped = 0
    for g in graphs:
        assert g.edge_count() == len(g.edges()), g
        looped += any(a >> v & 1 for v, a in enumerate(g.adj))
    assert looped >= 100, looped


def test_neighbor_lists_loops_and_edge_count_match_the_bit_references(
        c13p2, k4_reductions):
    """`Graph.nbrs`, `Graph.loops` and `edge_count()` equal references read
    bit by bit: on the empty graph, a single looped vertex, isolated
    vertices, seeded looped graphs, instances, K4 reductions and a sparse
    1,200-vertex graph.  The lists are tuples, made once per graph,
    because the kernels and the searches share them."""
    rng = SplitMix64(2602)
    sparse = Graph.from_edges(1200, [(rng.below(1200), rng.below(1200))
                                     for _ in range(1800)])
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, [(0, 0)]),
              Graph.from_edges(6, [(1, 4), (4, 4)]), sparse, c13p2,
              gen_instance(c13p2, 300, 4, 2602).graph,
              *(inst.graph for inst in k4_reductions)]
    graphs += [random_graph(rng, 1 + rng.below(40), 1, 1 + rng.below(6))
               for _ in range(100)]
    isolated = looped = 0
    for g in graphs:
        want = reference_nbrs(g)
        loops = mask_of(v for v in range(g.n) if g.adj[v] >> v & 1)
        assert type(g.nbrs) is tuple and g.nbrs is g.nbrs
        assert all(type(ns) is tuple for ns in g.nbrs)
        assert list(map(list, g.nbrs)) == want, g
        assert g.loops == loops, g
        edges = sum(map(len, want)) // 2 + loops.bit_count()
        assert g.edge_count() == edges == len(g.edges()), g
        isolated += g.adj.count(0)
        looped += bool(loops)
    assert isolated >= 100 and looped >= 50, (isolated, looped)


def test_adjacency_outcomes_are_pinned():
    """Seeded looped graphs, given to `Graph(n, adj)` as masks (a tuple or
    a list) with bits flipped inside the range, set past n or made negative,
    and to `Graph.from_edges` as edge lists with ends reversed, edges
    repeated and ends moved to -1, n or n + 1; either may get n one off.
    Each input and outcome ((n, adj, nbrs, loops, edge count), or the
    exception's type and message) is folded into one SHA-256, pinned before
    `decide` kept its last answer on the graph."""
    rng = SplitMix64(3003)

    def end(n):
        roll = rng.below(10)
        if roll < 2:
            return n + rng.below(2) if roll else -1
        return rng.below(max(n, 1))

    digest, kinds = hashlib.sha256(), collections.Counter()
    for trial in range(400):
        g = random_graph(rng, rng.below(9))
        n = g.n
        if trial % 2:
            build, adj = Graph, list(g.adj)
            for _ in range(rng.below(4)):
                if not adj or not rng.below(8):
                    n += (-1, 1)[rng.below(2)]
                    continue
                u, roll = rng.below(len(adj)), rng.below(6)
                if roll < 4:
                    adj[u] ^= 1 << rng.below(max(n, 1))
                elif roll == 4:
                    adj[u] |= 1 << (n + rng.below(3))
                else:
                    adj[u] = -adj[u] - rng.below(2)
            args = n, tuple(adj) if rng.below(4) else adj
        else:
            build, edges = Graph.from_edges, g.edges()
            for _ in range(rng.below(4)):
                roll = rng.below(5)
                if roll == 0 or not edges:
                    n += (-1, 1)[rng.below(2)]
                    continue
                i = rng.below(len(edges))
                u, v = edges[i]
                if roll == 1:
                    edges.append((u, v))
                elif roll == 2:
                    edges[i] = v, u
                else:
                    edges[i] = (end(n), v) if rng.below(2) else (u, end(n))
            args = n, edges
        try:
            h = build(*args)
            outcome = repr((h.n, h.adj, h.nbrs, h.loops, h.edge_count()))
            kinds[build.__name__, "built"] += 1
        except ValueError as err:
            outcome = f"ValueError: {err}"
            # "adjacency" length or symmetry, "neighbor" or "edge" range
            kinds[build.__name__, str(err).split()[0]] += 1
        digest.update(f"{build.__name__} {args}\0{outcome}\0".encode())
    assert len(kinds) == 6 and min(kinds.values()) >= 5, kinds
    assert digest.hexdigest() == (
        "fbc172d8775c13139c78967cfa06c929f824105813f245a0305d3f1d7ac84f08")


def _record_samples(c6, k4, c13p2):
    """Seeded values of each of lhom's ten records, made by the library."""
    rng = SplitMix64(4001)
    samples = collections.defaultdict(list)
    for trial in range(12):
        hg = (k4, c6, c13p2, random_graph(rng, 2 + rng.below(5)))[trial % 4]
        inst = gen_instance(hg, 4 + rng.below(8), 1 + rng.below(3),
                            4001 + trial, ("random", "planted-yes")[trial % 2])
        r = 1 + rng.below(3)
        lists = tuple(dominant_subset(hg, 1 + rng.below(hg.full_mask))
                      for _ in range(r))
        colors = tuple(bit_list(f)[rng.below(f.bit_count())] for f in lists)
        l_mask = hg.full_mask & ~common_neighbors(hg, mask_of(colors),
                                                  hg.full_mask)
        req = ForbidRequest(hg, l_mask, lists, tuple(range(r)), colors)
        result = forbid(req)
        samples[Graph].append(hg)
        samples[Instance] += [inst, Instance(inst.graph, inst.lists)]
        samples[KernelReport] += [kernel_marking(inst, hg),
                                  kernel_poly(inst, hg)]
        samples[CStarWitness].append(compute_c_star(hg))
        samples[ForbidRequest].append(req)
        samples[ForbidResult].append(result)
        width = len(set(colors)) + 1
        samples[Gf2Poly] += [result.poly, poly_local(colors, range(width), hg.n)]
    for hg in (k4, complete_graph(5)):
        d, lbs = compute_d_star(hg)
        samples[LowerBoundStructure].append(lbs)
        samples[VariableGadget].append(build_variable_gadget(hg, lbs))
        samples[Gadget] += [build_neq(hg, lbs, i) for i in range(d)]
        samples[Gadget] += [build_comp(hg, lbs, 0, j) for j in range(1, d)]
    return samples


def test_records_match_their_dataclass_twins(c6, k4, c13p2):
    """Each record, on seeded values, against its frozen-dataclass twin
    (`oracle.dataclass_twin`): repr, ==, != and hash, equality against the
    other class, AttributeError on setting and deleting, TypeError on wrong
    arguments, and keyword construction with the defaults.  The unchecked
    `_built(*values)` that `record` gives each one makes the same record,
    with omitted trailing fields at their defaults, and skips the check."""
    samples = _record_samples(c6, k4, c13p2)
    assert len(samples) == 10
    for cls, objs in samples.items():
        twin = dataclass_twin(cls)
        assert cls.fields == cls.__match_args__ == twin.__match_args__
        pairs = []
        for obj in objs:
            values = {name: getattr(obj, name) for name in cls.fields}
            rec, dc = cls(*values.values()), twin(**values)
            pairs.append((rec, dc))
            assert rec == obj == cls(**values) and hash(rec) == hash(obj)
            assert repr(rec) == repr(obj) == repr(dc)
            built = cls._built(*values.values())
            assert type(built) is cls and vars(built) == values
            assert built == rec and repr(built) == repr(rec)
            assert hash(built) == hash(rec)
            assert hash(rec) == hash(dc) == hash(tuple(values.values()))
            assert rec != dc and dc != rec and not rec == dc
            assert rec.__eq__(dc) is NotImplemented is dc.__eq__(rec)
            given = {name: value for name, value in values.items()
                     if name not in vars(cls)}  # the defaults left out
            assert repr(cls(**given)) == repr(twin(**given))
            positional = tuple(values.values())
            for build, made in ((cls, rec), (twin, dc)):
                for args, kwargs in (((), {}), (positional + (None,), {}),
                                     ((), {**values, "other": None}),
                                     (positional[:1], values),
                                     ((), dict(list(values.items())[1:]))):
                    with pytest.raises(TypeError):
                        build(*args, **kwargs)
                for name in cls.fields + ("other",):
                    with pytest.raises(AttributeError):
                        setattr(made, name, None)
                    with pytest.raises(AttributeError):
                        delattr(made, name)
        for (a, ta), (b, tb) in itertools.product(pairs, repeat=2):
            assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    inst = samples[Instance][0]
    short = Instance._built(inst.graph, inst.lists)
    assert short.cover is None and short == Instance(inst.graph, inst.lists)
    assert vars(short) == {"graph": inst.graph, "lists": inst.lists,
                           "cover": None}
    assert vars(Graph._built(2, (1,))) == {"n": 2, "adj": (1,)}
    with pytest.raises(ValueError, match="adjacency length must equal"):
        Graph(2, (1,))
    uncanonical = frozenset({((0, 1), (0, 1)), ((2, 1), (1, 0))})
    assert Gf2Poly._built(uncanonical).monomials is uncanonical
    assert Gf2Poly(uncanonical).monomials == {((0, 1),), ((1, 0), (2, 1))}


@pytest.mark.parametrize("cls, args, message", [
    (Graph, (2, (1,)), "adjacency length must equal vertex count"),
    (Graph, (2, (0b100, 0)), "neighbor of 0 out of range"),
    (Graph, (2, (0b10, 0)), "adjacency not symmetric at (1, 0)"),
    (Instance, (Graph(2, (0, 0)), (1,)), "one list per vertex is required"),
    (Instance, (Graph(2, (0b10, 0b1)), (1, 1), 0),
     "designated cover does not cover all edges"),
    (ForbidRequest, (complete_graph(4), 0, (), (), ()),
     "a request needs at least one position"),
    (ForbidRequest, (complete_graph(4), 0, (1,), (0,), (1,)),
     "color 1 not in candidate list 0"),
    (ForbidRequest, (complete_graph(4), 0b10, (1,), (0,), (0,)),
     "the forbidden tuple has a common neighbor in L"),
], ids=["graph-length", "graph-range", "graph-symmetry", "instance-lists",
        "instance-cover", "request-empty", "request-color", "request-common"])
def test_checked_records_keep_their_messages(cls, args, message):
    """The checks run after construction, with the messages the frozen
    dataclass gave, on the record and on its twin alike."""
    for build in (cls, dataclass_twin(cls)):
        with pytest.raises(ValueError) as err:
            build(*args)
        assert str(err.value) == message
