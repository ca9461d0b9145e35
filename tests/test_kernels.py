import dataclasses
import hashlib
import tracemalloc

import pytest

from lhom import kernels
from lhom.bitset import bit_list, mask_of
from lhom.errors import BudgetExceededError
from lhom.forbid import construct
from lhom.generators import SplitMix64, gen_cycle_power, gen_instance
from lhom.gf2 import extract_basis
from lhom.graphs import Graph, Instance, cover_certificate, greedy_vertex_cover
from lhom.kernels import _restrict, kernel_marking, kernel_poly, kernelize
from lhom.solver import decide


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
            nbrs = [u for u in range(inst.graph.n) if inst.graph.has_edge(u, v)]
            for r in range(0, min(c, len(nbrs)) + 1):
                for combo in itertools.combinations(nbrs, r):
                    pairs.setdefault((combo, inst.lists[v]), []).append(v)
        for (combo, _), candidates in pairs.items():
            retained = [v for v in candidates if v in back
                        and all(report.kernel.graph.has_edge(back[v], back[u])
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
                   if inst.graph.has_edge(u, orig)}
            new = {report.vertex_map[u]
                   for u in range(report.kernel.graph.n)
                   if report.kernel.graph.has_edge(u, v)}
            assert new <= old


def test_marking_keeps_cover_subgraph(c6):
    inst = gen_instance(c6, 12, 4, 9)
    report = kernel_marking(inst, c6)
    # every cover edge survives, indices mapped through vertex_map
    back = {m: i for i, m in enumerate(report.vertex_map)}
    for u, v in inst.graph.edges():
        if inst.cover >> u & 1 and inst.cover >> v & 1:
            assert report.kernel.graph.has_edge(back[u], back[v])


def test_kernel_is_subgraph(c6):
    rng = SplitMix64(63)
    for method in ("marking", "poly"):
        for seed in range(15):
            inst = gen_instance(c6, 10 + rng.below(6), 3, seed)
            report = kernelize(inst, c6, method)
            vm = report.vertex_map
            for u, v in report.kernel.graph.edges():
                assert inst.graph.has_edge(vm[u], vm[v])
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
            cover = cover_certificate(inst).cover
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


def test_poly_budget_is_not_masked_by_the_forbid_cache(c6):
    inst = gen_instance(c6, 14, 4, 7)
    message = "certification needs 6 evaluations, budget is 5"
    with pytest.raises(BudgetExceededError) as first:
        kernel_poly(inst, c6, budget=5)
    assert str(first.value) == message
    kernel_poly(inst, c6)  # caches the same patterns under the default budget
    with pytest.raises(BudgetExceededError) as again:
        kernel_poly(inst, c6, budget=5)
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

    def spy(rows, m, d):
        given.append(rows)
        return extract_basis(rows, m=m, d=d)

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


def _poly_outcome(kernel, inst, hg, hint, budget):
    try:
        return kernel(inst, hg, cycle_power=hint, budget=budget)
    except BudgetExceededError as err:
        return str(err)


def test_poly_matches_reference_enumeration(c5, c6, c13p2, k4, k4_reductions):
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
        assert dataclasses.replace(kernel_poly(inst, hg), constraints_total=0) \
            == dataclasses.replace(reference_kernel_poly(inst, hg),
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
            got = _poly_outcome(kernel_poly, inst, hg, hint, budget)
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
            assert dataclasses.replace(got, constraints_total=0) == \
                dataclasses.replace(want, constraints_total=0), (trial, budget)
    assert cases >= 400 and raised >= 100 and smaller >= 150, \
        (cases, raised, smaller)


def test_restrict_matches_edge_list_reference():
    """Mask-based restriction equals the edge-list one on non-prefix covers.

    Covers are greedy ones and designated ones with holes, kept outside
    vertices sit between cover vertices, and cover vertices carry loops.
    """
    from oracle import random_graph, reference_restrict
    rng = SplitMix64(73)
    holes = interleaved = looped = 0
    for trial in range(200):
        n = 1 + rng.below(24)
        if trial % 2:
            g = random_graph(rng, n, 1, 3, 1, 3)
            cover = greedy_vertex_cover(g).cover
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
        got = _restrict(inst, cover, kept_nbrs)
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
    import importlib
    forbid_module = importlib.import_module("lhom.forbid")
    widths = []

    def counting(req, route, cycle_power, budget):
        widths.append((req.width, route))
        return construct(req, route, cycle_power, budget)

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
def test_poly_budget_errors_are_pinned(k, p, hint, budget, want):
    """The first budget error of the walk, or the report when none is hit."""
    hg = gen_cycle_power(k, p)
    args = gen_instance(hg, 120, 4, 3), hg, (k, p) if hint else None, budget
    if isinstance(want, tuple):
        report = kernel_poly(*args)
        assert (report.constraints_total, report.constraints_retained) == want
        return
    with pytest.raises(BudgetExceededError) as err:
        kernel_poly(*args)
    assert str(err.value) == \
        f"certification needs {want} evaluations, budget is {budget}"
