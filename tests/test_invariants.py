import itertools
import sys

import pytest

from lhom import invariants
from lhom.bitset import bit_list
from lhom.generators import SplitMix64, gen_cycle_power, gen_subdivided_star
from lhom.graphs import Graph, dominant_subset
from lhom.invariants import (all_essential_sets, automorphism_generators,
                             classify, compute_c_star, compute_d_star,
                             degree_probe, find_lbs, find_non_bi_arc_witness)

from oracle import (brute_c_star, brute_lbs_exists, has_edge,
                    max_degree_exchange_holds, random_graph,
                    reference_all_essential_sets,
                    reference_automorphism_generators, reference_d_star,
                    reference_degree_probe, reference_find_lbs,
                    verify_c_star_witness, verify_lbs)


def test_c_star_cycles(c5, c6, c7):
    assert compute_c_star(c5).value == 2
    assert compute_c_star(c6).value == 3
    assert compute_c_star(c7).value == 2
    assert compute_c_star(gen_cycle_power(9, 1)).value == 2


def test_c_star_c6_witness_is_bipartition_class(c6):
    w = compute_c_star(c6)
    assert bit_list(w.s_mask) in ([0, 2, 4], [1, 3, 5])
    assert verify_c_star_witness(c6, w)


def test_c_star_k4(k4):
    # pinned by literal enumeration over every (L, S) pair
    assert brute_c_star(k4) == 4
    w = compute_c_star(k4)
    assert w.value == 4 and verify_c_star_witness(k4, w)


def test_c_star_cycle_powers(c13p2):
    assert compute_c_star(c13p2).value == 3
    assert compute_c_star(gen_cycle_power(19, 3)).value == 4


def test_c_star_subdivided_star():
    star = gen_subdivided_star(3)
    assert compute_c_star(star).value == 2
    assert star.max_degree() == 3


def test_c_star_matches_literal_definition():
    rng = SplitMix64(31)
    for _ in range(80):
        hg = random_graph(rng, 1 + rng.below(5))
        w = compute_c_star(hg)
        assert verify_c_star_witness(hg, w)
        assert w.value == brute_c_star(hg)
        assert w.value == brute_c_star(hg, incomparable_only=True)


def test_c_star_reflexive_clique_is_zero():
    g = Graph.from_edges(2, [(0, 0), (1, 1), (0, 1)])
    assert compute_c_star(g).value == 0
    assert brute_c_star(g) == 0


def test_find_lbs_c6(c6):
    assert find_lbs(c6, 3) is None
    lbs = find_lbs(c6, 2)
    assert lbs is not None and verify_lbs(c6, lbs)


def test_find_lbs_c5_order_two(c5):
    lbs = find_lbs(c5, 2)
    assert lbs is not None and lbs.order == 2 and verify_lbs(c5, lbs)


def test_find_lbs_rejects_bad_order(c5):
    with pytest.raises(ValueError):
        find_lbs(c5, 0)


def test_find_lbs_matches_literal_definition():
    rng = SplitMix64(32)
    for _ in range(50):
        hg = random_graph(rng, 1 + rng.below(4))
        for d in (1, 2):
            got = find_lbs(hg, d)
            want = brute_lbs_exists(hg, d)
            assert (got is not None) == want
            if got is not None:
                assert verify_lbs(hg, got)


def test_d_star_values(c5, c6, k4):
    assert compute_d_star(c5)[0] == 2
    assert compute_d_star(c6)[0] == 2
    assert compute_d_star(gen_cycle_power(9, 1))[0] == 2
    assert compute_d_star(k4)[0] == 3


def test_d_star_bracketed_by_c_star():
    rng = SplitMix64(33)
    for _ in range(60):
        hg = random_graph(rng, 1 + rng.below(6))
        c = compute_c_star(hg).value
        d, lbs = compute_d_star(hg)
        assert c - 1 <= d <= c
        assert c <= hg.max_degree() + 1
        if lbs is not None:
            assert verify_lbs(hg, lbs)


def test_incomparable_list_restriction_preserves_witnesses():
    # reducing the witness list to its dominant members keeps it valid
    rng = SplitMix64(34)
    for _ in range(60):
        hg = random_graph(rng, 1 + rng.below(6))
        w = compute_c_star(hg)
        reduced = type(w)(w.value, dominant_subset(hg, w.l_mask), w.s_mask)
        assert verify_c_star_witness(hg, reduced)
        d, lbs = compute_d_star(hg)
        if lbs is not None:
            reduced_lbs = type(lbs)(lbs.order, dominant_subset(hg, lbs.l_mask),
                                    lbs.xs, lbs.xps)
            assert verify_lbs(hg, reduced_lbs)


def test_non_bi_arc_witness_cycles(c5, c6):
    for hg in (c5, c6):
        w = find_non_bi_arc_witness(hg)
        assert w is not None
        v1, v2, v3, v4, v5 = w
        assert has_edge(hg, v1, v2) and has_edge(hg, v2, v3)
        assert has_edge(hg, v3, v4) and has_edge(hg, v4, v5)
        assert not has_edge(hg, v1, v4) and not has_edge(hg, v2, v5)
        from lhom.graphs import incomparable
        assert incomparable(hg, v3, v1) and incomparable(hg, v3, v5)


def test_non_bi_arc_witness_absent_on_single_edge():
    assert find_non_bi_arc_witness(Graph.from_edges(2, [(0, 1)])) is None


def test_non_bi_arc_targets_have_order_two_structures(c5, c6, c7, k3, k4):
    for hg in (c5, c6, c7, k3, k4):
        assert find_lbs(hg, 2) is not None


def test_all_essential_sets_downward_closed(c6, k4):
    for hg in (c6, k4):
        family = {s for s in all_essential_sets(hg)}
        for s in family:
            for v in bit_list(s):
                assert s ^ (1 << v) in family


def test_all_essential_sets_match_reference(c5, c6, k4, c13p2):
    """The DFS that carries each prefix's neighborhoods against the filter
    that tests every candidate set from scratch, sets and order alike."""
    rng = SplitMix64(92)
    targets = [c5, c6, k4, c13p2, gen_cycle_power(19, 3),
               gen_subdivided_star(3)]
    targets += [random_graph(rng, 1 + rng.below(9), 1 + rng.below(3), 4)
                for _ in range(200)]
    sizes = set()
    for hg in targets:
        family = all_essential_sets(hg)
        assert family == reference_all_essential_sets(hg), hg
        sizes.add(max(map(int.bit_count, family)))
    assert sizes >= {0, 1, 2, 3, 4}, sizes


def test_classify_c6(c6):
    report = classify(c6)
    assert report["c_star"] == 3 and report["d_star"] == 2
    assert report["delta"] == 2
    assert report["recommended_degree"] == 2
    assert report["bounded_degree_regime"]


def test_classify_c5_marking_optimal(c5):
    report = classify(c5)
    assert report["c_equals_d"]
    assert report["recommended_degree"] == 2
    assert report["recommended_by"] == "marking"


def test_classify_cycle_power_hint(c13p2):
    report = classify(c13p2, cycle_power=(13, 2))
    assert report["recommended_degree"] == 2
    assert report["recommended_by"] == "cycle-power"


def test_classify_k4_experiment(k4):
    report = classify(k4)
    assert report["recommended_degree"] == 3
    assert report["recommended_by"] == "experiment"


@pytest.mark.parametrize("edges, c, d, probe_ok, rec", [
    ([(0, 3), (1, 2), (1, 5), (2, 5), (3, 5)], 3, 2, True, (2, "max-degree")),
    ([(0, 2), (0, 4), (1, 2), (2, 5), (3, 5)], 2, 1, False,
     (2, "marking-fallback")),
], ids=["max-degree", "marking-fallback"])
def test_classify_max_degree_and_fallback_routes(edges, c, d, probe_ok, rec):
    hg = Graph.from_edges(6, edges)
    report = classify(hg)
    assert (report["c_star"], report["d_star"], report["delta"]) == (c, d, 3)
    assert degree_probe(hg)["all_ok"] is probe_ok
    assert (report["recommended_degree"], report["recommended_by"]) == rec


def test_classify_and_forbid_share_the_route(c5, c6, c13p2, k4):
    """classify recommends the method and degree that forbid returns on a
    minimal width-c* tuple of the widest request, forged hints included."""
    from lhom.bitset import mask_of
    from lhom.forbid import ForbidRequest, forbid
    from lhom.graphs import common_neighbors
    c19p3 = gen_cycle_power(19, 3)
    relabelled_c6 = Graph.from_edges(
        6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    cases = [(c5, None), (c5, (5, 1)), (c6, None), (c6, (6, 1)),
             (c13p2, None), (c13p2, (13, 2)), (c19p3, None), (c19p3, (19, 3)),
             (k4, None), (relabelled_c6, None),
             (c13p2, (13, 3)), (c13p2, (12, 2))]
    method_of = {"cycle-power": "cycle-power", "c6": "c6",
                 "experiment": "linear-system", "marking": "monomial"}
    routes = set()
    for hg, hint in cases:
        report = classify(hg, cycle_power=hint)
        colors = tuple(report["c_star_witness"]["s"])
        full = hg.full_mask
        req = ForbidRequest(
            hg, full & ~common_neighbors(hg, mask_of(colors), full),
            (full,) * len(colors), tuple(range(len(colors))), colors)
        res = forbid(req, cycle_power=hint)
        assert (res.method, res.degree) == (
            method_of[report["recommended_by"]],
            report["recommended_degree"]), (hg, hint)
        routes.add(report["recommended_by"])
    assert routes == set(method_of)


def test_degree_probe_k4(k4):
    probe = degree_probe(k4)
    assert probe["all_ok"] and probe["cases"]


def test_degree_probe_columns_are_the_occurring_sets(monkeypatch):
    """The probe's shadow systems get one column per 3-subset of a pinned
    set on C19^3, not one per 3-subset of the 19 colors."""
    from lhom import gf2
    pinned, columns = [], []
    shadow, solve = gf2.shadow_solution, gf2.solve_linear_system

    def record_shadow(d, zero_sets, one_set):
        zero_sets, one_set = list(zero_sets), list(one_set)
        pinned.append({combo for colors in zero_sets + [sorted(one_set)]
                       for combo in itertools.combinations(colors, d)})
        return shadow(d, zero_sets, one_set)

    def record_solve(rows, rhs, n_cols):
        columns.append(n_cols)
        return solve(rows, rhs, n_cols)

    monkeypatch.setattr(invariants, "shadow_solution", record_shadow)
    monkeypatch.setattr(gf2, "solve_linear_system", record_solve)
    hg = gen_cycle_power(19, 3)
    assert degree_probe(hg) == reference_degree_probe(hg)
    assert columns and columns == [len(sets) for sets in pinned]
    assert max(columns) < 969  # C(19, 3)


def test_max_degree_exchange_in_regime():
    # triangle plus a pendant and an isolated vertex: c* = delta = 3, d* = 2
    hg = Graph.from_edges(5, [(0, 1), (0, 4), (1, 4), (3, 4)])
    assert compute_c_star(hg).value == 3 == hg.max_degree()
    assert compute_d_star(hg)[0] == 2
    assert max_degree_exchange_holds(hg)


def test_k12_path_regime():
    # the two-leaf star: smallest graph with c* = delta = d* + 1
    hg = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert compute_c_star(hg).value == 2 == hg.max_degree()
    assert compute_d_star(hg)[0] == 1
    assert max_degree_exchange_holds(hg)


def _all_graphs(h):
    """Every graph on h labelled vertices, loops included."""
    pairs = [(u, v) for u in range(h) for v in range(u, h)]
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            h, [p for i, p in enumerate(pairs) if bits >> i & 1])


def _relabelled(hg, seed):
    perm = list(range(hg.n))
    rng = SplitMix64(seed)
    for i in range(hg.n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Graph.from_edges(hg.n, [(perm[u], perm[v]) for u, v in hg.edges()])


def _is_automorphism(hg, perm):
    return sorted(perm) == list(range(hg.n)) and all(
        has_edge(hg, perm[u], perm[v]) == has_edge(hg, u, v)
        for u in range(hg.n) for v in range(hg.n))


def _generated(gens, n):
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple(g[v] for v in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def _assert_matches_reference(hg):
    for g in automorphism_generators(hg):
        assert _is_automorphism(hg, g), (hg, g)
    for d in range(1, hg.n + 1):
        assert find_lbs(hg, d) == reference_find_lbs(hg, d), (hg, d)
    assert compute_d_star.__wrapped__(hg) == reference_d_star(hg), hg
    assert degree_probe(hg) == reference_degree_probe(hg), hg


def test_automorphism_generators_generate_the_group():
    for h in range(1, 5):
        for hg in _all_graphs(h):
            want = {p for p in itertools.permutations(range(h))
                    if _is_automorphism(hg, p)}
            assert _generated(automorphism_generators(hg), h) == want, hg


def test_symmetry_reduced_search_matches_reference_small_graphs():
    for h in range(1, 5):
        for hg in _all_graphs(h):
            _assert_matches_reference(hg)


def test_symmetry_reduced_search_matches_reference_random_graphs():
    rng = SplitMix64(35)
    for _ in range(30):
        _assert_matches_reference(random_graph(rng, 5 + rng.below(4)))


def test_symmetry_reduced_search_matches_reference_relabelled(c13p2):
    for hg in (_relabelled(c13p2, 13), _relabelled(gen_cycle_power(19, 3), 19)):
        # Aut(C_k^p) is the dihedral group of order 2k
        assert len(_generated(automorphism_generators(hg), hg.n)) == 2 * hg.n
        assert compute_d_star.__wrapped__(hg) == reference_d_star(hg)
        assert degree_probe(hg) == reference_degree_probe(hg)


def test_automorphism_generators_match_the_recursive_reference(monkeypatch):
    """The explicit stack finds the recursive search's generators, in order,
    at the default budget and at small ones, on seeded random looped
    targets and cycle powers."""
    rng = SplitMix64(41)
    graphs = [random_graph(rng, 1 + rng.below(9)) for _ in range(300)]
    graphs += [gen_cycle_power(k, p)
               for k, p in ((5, 1), (6, 1), (13, 2), (19, 3), (60, 1))]
    for hg in graphs:
        assert (automorphism_generators.__wrapped__(hg)
                == reference_automorphism_generators(hg)), hg
    for budget in (0, 1, 2, 5, 17, 60):
        monkeypatch.setattr(invariants, "_AUT_NODE_BUDGET", budget)
        for hg in graphs[:40] + graphs[-5:]:
            assert (automorphism_generators.__wrapped__(hg)
                    == reference_automorphism_generators(hg, budget)), hg


def test_automorphism_generators_need_no_recursion_per_vertex():
    """C200 under a recursion limit of 150, which the reference's one frame
    per mapped vertex overflows; the reference runs at the default limit."""
    c200 = gen_cycle_power(200, 1)
    want = reference_automorphism_generators(c200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        got = automorphism_generators.__wrapped__(c200)
        with pytest.raises(RecursionError):
            reference_automorphism_generators(c200)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want and len(got) == 2


@pytest.fixture
def no_automorphisms(monkeypatch):
    monkeypatch.setattr(invariants, "_AUT_NODE_BUDGET", 0)
    automorphism_generators.cache_clear()
    yield
    automorphism_generators.cache_clear()


def test_results_do_not_depend_on_automorphisms(no_automorphisms, c6, k4,
                                                c13p2):
    rng = SplitMix64(36)
    graphs = [c6, k4, _relabelled(c13p2, 13)]
    graphs += [random_graph(rng, 5 + rng.below(4)) for _ in range(10)]
    for hg in graphs:
        assert automorphism_generators(hg) == ()
        _assert_matches_reference(hg)


def test_c_star_needs_a_target_vertex():
    with pytest.raises(ValueError) as err:
        compute_c_star(Graph.from_edges(0, []))
    assert str(err.value) == "target graph must have at least one vertex"
