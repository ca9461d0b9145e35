import hashlib
import tracemalloc
import weakref

import pytest

from lhom.bitset import bit_list, mask_of
from lhom.errors import BudgetExceededError
from lhom.formats import parse_instance, write_instance
from lhom import solver
from lhom.generators import SplitMix64, gen_cycle_power, gen_instance
from lhom.graphs import Graph, Instance
from lhom.solver import NODE_BUDGET, _Search, decide, enumerate_restricted

from oracle import (brute_decide, brute_restrictions, decide_two_phase,
                    extendable, extendable_bounded, has_edge, random_graph,
                    reference_search)


def test_decide_single_edge(c5):
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (mask_of([0]), mask_of([1])))
    yes, witness = decide(inst, c5)
    assert yes and witness == (0, 1)


def test_decide_triangle_into_c5(c5):
    tri = Instance(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
                   (c5.full_mask,) * 3)
    assert decide(tri, c5) == (False, None)


def test_decide_witness_is_valid(c6):
    rng = SplitMix64(21)
    cases = [(seed, 4 + rng.below(8), 3) for seed in range(30)]
    # the search keeps one frame per vertex; 1200 is past the recursion limit
    cases.append((3, 1200, 5))
    for seed, n, k in cases:
        inst = gen_instance(c6, n, k, seed, "planted-yes")
        yes, witness = decide(inst, c6)
        assert yes
        for v, color in enumerate(witness):
            assert inst.lists[v] >> color & 1
        for u, v in inst.graph.edges():
            assert has_edge(c6, witness[u], witness[v])


def test_decide_matches_bruteforce():
    rng = SplitMix64(22)
    for _ in range(60):
        hg = random_graph(rng, 1 + rng.below(4))
        g = random_graph(rng, 1 + rng.below(4), loop_num=1, loop_den=6)
        lists = tuple(rng.below(hg.full_mask + 1) for _ in range(g.n))
        inst = Instance(g, lists)
        assert decide(inst, hg)[0] == brute_decide(inst, hg)


def test_decide_conflicting_singletons(c5):
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (mask_of([0]), mask_of([0])))
    assert decide(inst, c5)[0] is False


def test_g_loop_forces_looped_image():
    h_loop = Graph.from_edges(2, [(0, 0), (0, 1)])
    g = Graph.from_edges(1, [(0, 0)])
    assert decide(Instance(g, (h_loop.full_mask,)), h_loop) == (True, (0,))
    h_plain = Graph.from_edges(2, [(0, 1)])
    assert decide(Instance(g, (h_plain.full_mask,)), h_plain)[0] is False


def test_budget_exceeded(monkeypatch, k4):
    inst = gen_instance(k4, 14, 6, 5, "random")
    monkeypatch.setattr(solver, "NODE_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        decide(inst, k4)


def _search(inst, hg, budget: int) -> _Search:
    """A search built while NODE_BUDGET is `budget`, which it keeps."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "NODE_BUDGET", budget)
        return _Search(inst, hg)


def _nodes_used(inst, hg) -> int:
    """Nodes the search takes to decide `inst`."""
    search = _Search(inst, hg)
    next(search.solutions(), None)
    return search.nodes


def test_budget_boundary(monkeypatch, k4, k4_reductions):
    """decide reads NODE_BUDGET at each call: at the search's node count it
    answers as under the default, one below it raises."""
    for inst in k4_reductions:
        assert inst.graph.n >= 400
        n = _nodes_used(inst, k4)
        want = decide(inst, k4)
        monkeypatch.setattr(solver, "NODE_BUDGET", n)
        assert decide(inst, k4) == want
        monkeypatch.setattr(solver, "NODE_BUDGET", n - 1)
        with pytest.raises(BudgetExceededError) as err:
            decide(inst, k4)
        assert str(err.value) == f"search exceeded {n - 1} nodes"
        monkeypatch.setattr(solver, "NODE_BUDGET", NODE_BUDGET)


def _outcome(run, budget: int, stop_first: bool):
    """(solutions in the order found, nodes, error message) of one search."""
    found: list[tuple[int, ...]] = []

    def on_solution(colors):
        found.append(colors)
        return stop_first

    try:
        nodes = run(budget, on_solution)
    except BudgetExceededError as err:
        return found, None, str(err)
    return found, nodes, None


def _check_against_reference(inst, hg, cap: int) -> list[bool]:
    """Compare `_Search` with `reference_search` on decide and enumerate at
    budgets N, N-1, N//2 and -1, where N is the reference's full node count
    (or cap + 1 when it passes cap); returns whether each run finished."""
    def current(budget, on_solution):
        search = _search(inst, hg, budget)
        try:
            for colors in search.solutions():
                if on_solution(colors):
                    break
        except BudgetExceededError:
            # one-by-one counting stops at the first node past the budget
            assert search.nodes == max(budget, 0) + 1
            raise
        return search.nodes

    def reference(budget, on_solution):
        return reference_search(inst, hg, budget, on_solution)

    finished = []
    for stop_first in (True, False):
        full = _outcome(reference, cap, stop_first)
        n = cap + 1 if full[1] is None else full[1]
        for budget in (n, n - 1, n // 2, -1):
            want = _outcome(reference, budget, stop_first)
            assert _outcome(current, budget, stop_first) == want
            finished.append(want[1] is not None)
    return finished


def test_search_matches_reference(c6, k4, c13p2, k4_reductions):
    """The trail search finds the same solutions in the same order, counts
    the same nodes and stops at the same budget as the copying search."""
    rng = SplitMix64(25)
    # no vertices: one empty solution and no node, whatever the budget
    finished = _check_against_reference(Instance(Graph.from_edges(0, []), ()),
                                        c6, 1)
    for _ in range(300):
        hg = random_graph(rng, 1 + rng.below(6))
        g = random_graph(rng, 1 + rng.below(9), loop_num=1, loop_den=6)
        lists = tuple(rng.below(hg.full_mask + 1) for _ in range(g.n))
        finished += _check_against_reference(Instance(g, lists), hg, 20000)
    for hg in (c6, k4, c13p2):
        for seed in range(20):
            n = 4 + rng.below(12)
            inst = gen_instance(hg, n, min(n, 2 + rng.below(4)), seed,
                                ("random", "planted-yes")[seed % 2])
            finished += _check_against_reference(inst, hg, 2000)
    for inst in k4_reductions:
        finished += _check_against_reference(inst, k4, 2000)
    # stale bits in _Search.seen: with k >= 4 many lists of three or more
    # colors shrink in a branch that is then abandoned, and _pick meets
    # (and drops) their bits on each of these targets
    stale = SplitMix64(28)
    for hg in (c6, k4, c13p2):
        for seed in range(8):
            inst = gen_instance(hg, 8 + stale.below(5), 4 + stale.below(2),
                                seed, "planted-yes")
            finished += _check_against_reference(inst, hg, 2000)
    assert finished.count(True) >= 400 and finished.count(False) >= 400


def test_root_open_mask_matches_the_lists(c6, k4, c13p2, k4_reductions):
    """The root open mask that `_Search` reads off its start's trail is the
    mask of the lists with two or more colors, as a pass over all n lists
    finds it: on n=0, on an empty list, on starts whose propagation fails
    and on starts that close vertices."""
    rng = SplitMix64(27)
    cases = [(Instance(Graph.from_edges(0, []), ()), c6),
             (Instance(Graph.from_edges(2, [(0, 1)]), (0, 0b11)), c6)]
    for trial in range(300):
        hg = random_graph(rng, 1 + rng.below(6))
        g = random_graph(rng, 1 + rng.below(12), loop_num=1, loop_den=6)
        # every other trial ORs two draws, so that more starts succeed
        lists = tuple(rng.below(hg.full_mask + 1) | trial % 2 * rng.below(
            hg.full_mask + 1) for _ in range(g.n))
        cases.append((Instance(g, lists), hg))
    for hg in (c6, k4, c13p2):
        for seed in range(20):
            n = 4 + rng.below(30)
            cases.append((gen_instance(hg, n, min(n, 2 + rng.below(4)), seed,
                                       ("random", "planted-yes")[seed % 2]),
                          hg))
    cases += [(inst, k4) for inst in k4_reductions]
    failed = closed = 0
    for inst, hg in cases:
        search = _Search(inst, hg)
        want = mask_of(v for v, mask in enumerate(search.cand)
                       if mask & (mask - 1))
        assert search.open_ == want, (inst, hg)
        failed += not search.consistent
        closed += search.consistent and any(
            mask & (mask - 1) and not cand & (cand - 1)
            for mask, cand in zip(inst.lists, search.cand))
    assert failed >= 100 and closed >= 40, (failed, closed)


def test_decide_memory_does_not_grow_with_depth(c6):
    """A planted C6 instance of 5,000 vertices branches thousands of frames
    deep; a frame holds its open vertices as one int mask, not a list."""
    inst = gen_instance(c6, 5000, 5, 7, "planted-yes")
    tracemalloc.start()
    try:
        assert decide(inst, c6)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_two_phase_agrees_with_decide(c6, k4):
    rng = SplitMix64(23)
    for hg in (c6, k4):
        for seed in range(40):
            n = 4 + rng.below(15)
            k = min(n, 2 + rng.below(5))
            inst = gen_instance(hg, n, k, seed)
            assert decide(inst, hg)[0] == decide_two_phase(inst, hg)


def test_extendable_direct(c6):
    # middle vertex sees colors 0, 2, 4: no common neighbor, not extendable
    g = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    inst = Instance(g, (c6.full_mask,) * 4, cover=mask_of([0, 1, 2]))
    assert not extendable(inst, c6, {0: 0, 1: 2, 2: 4})
    assert extendable(inst, c6, {0: 0, 1: 2, 2: 2})


def test_extendable_rejects_bad_phi(c6):
    g = Graph.from_edges(2, [(0, 1)])
    inst = Instance(g, (c6.full_mask, c6.full_mask), cover=mask_of([0, 1]))
    with pytest.raises(ValueError):
        extendable(inst, c6, {0: 0, 1: 3})  # not an edge of the 6-cycle


def test_extendable_bounded_equivalence(c6, c5, k4):
    """Checking neighbor subsets only up to the marking degree is exact."""
    from lhom.invariants import compute_c_star
    rng = SplitMix64(24)
    for hg in (c5, c6, k4):
        cap = compute_c_star(hg).value
        checked = 0
        seed = 0
        while checked < 1000:
            seed += 1
            inst = gen_instance(hg, 4 + rng.below(7), 2 + rng.below(3), seed)
            cover = bit_list(inst.cover)
            phi = {}
            ok = True
            for v in cover:
                choices = inst.lists[v]
                for u in cover:
                    if u in phi and has_edge(inst.graph, u, v):
                        choices &= hg.adj[phi[u]]
                if not choices:
                    ok = False
                    break
                pick = choices & (~choices + 1)
                phi[v] = pick.bit_length() - 1
            if not ok:
                continue
            checked += 1
            assert extendable(inst, hg, phi) == \
                extendable_bounded(inst, hg, phi, cap)


def test_enumerate_restricted_empty_list(c5):
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (0, c5.full_mask))
    assert enumerate_restricted(inst, c5, [0, 1]) == set()


def test_enumerate_restricted_path(c5):
    # path 0-1 with lists {0}, {1,4}: neighbors of 0 are exactly 1 and 4
    inst = Instance(Graph.from_edges(2, [(0, 1)]),
                    (mask_of([0]), c5.full_mask))
    assert enumerate_restricted(inst, c5, [1]) == {(1,), (4,)}
    assert enumerate_restricted(inst, c5, [0, 1]) == {(0, 1), (0, 4)}


def test_enumerate_restricted_rejects_bad_target(k4):
    # -1 must not wrap around to the last vertex, nor may an index past the
    # end be ignored when the instance has no solution
    for lists in ((1, 2), (1, 1)):
        inst = Instance(Graph.from_edges(2, [(0, 1)]), lists)
        for target in (-1, 2):
            with pytest.raises(ValueError, match=f"target {target} "):
                enumerate_restricted(inst, k4, [0, target])


def test_enumerate_restricted_matches_bruteforce():
    rng = SplitMix64(27)
    nonempty = 0
    for _ in range(200):
        hg = random_graph(rng, 1 + rng.below(5))
        g = random_graph(rng, 1 + rng.below(6), loop_num=1, loop_den=6)
        lists = tuple(rng.below(hg.full_mask + 1) for _ in range(g.n))
        inst = Instance(g, lists)
        targets = [rng.below(g.n) for _ in range(rng.below(4))]
        want = brute_restrictions(inst, hg, targets)
        assert enumerate_restricted(inst, hg, targets) == want
        nonempty += bool(want)
    assert 50 <= nonempty <= 150


def _pinned_cases(c6, c13p2, k4, k4_ladder):
    """(instance, target) pairs: the K4 ladder, each rung followed by its
    poly and marking kernels, then seeded C6 and C13^2 instances."""
    from lhom.kernels import kernel_marking, kernel_poly
    cases = [(inst, k4) for ladder in k4_ladder for inst in (
        ladder, kernel_poly(ladder, k4).kernel,
        kernel_marking(ladder, k4).kernel)]
    rng = SplitMix64(2502)
    for hg in (c6, c13p2):
        for seed in range(16):
            # small random instances, a few with solutions
            n = 20 + rng.below(300) if seed % 2 else 6 + rng.below(12)
            inst = gen_instance(hg, n, 2 + rng.below(4), 2500 + seed,
                                ("random", "planted-yes")[seed % 2])
            cases.append((inst, hg))
    return cases


def test_decide_is_pinned(c6, c13p2, k4, k4_ladder):
    """(answer, witness, nodes) of the search on the K4 ladder, on both of
    its kernels, and on seeded C6 and C13^2 instances, folded into one
    SHA-256 pinned before `_propagate` skipped full supports."""
    digest = hashlib.sha256()
    for inst, hg in _pinned_cases(c6, c13p2, k4, k4_ladder):
        search = _Search(inst, hg)
        colors = next(search.solutions(), None)
        digest.update(repr((colors is not None, colors, search.nodes)).encode())
    assert digest.hexdigest() == (
        "764dcd2c0f1d6026f1902f55e324699bda0150baee36b17f6794067f1a52a33c")


def test_seen_holds_every_open_vertex_at_each_pick(monkeypatch, c6, c13p2,
                                                  k4, k4_ladder):
    """Only tries that stand write `seen`, yet at every pick each open
    vertex's bit is in seen[its size]: on the K4 ladder and both of its
    kernels, the seeded C6 and C13^2 instances, seeded instances on looped
    random targets, and K3 colorings of loop-free random graphs of mean
    degree 5, where most tries fail.  Each search yields up to 50
    solutions within 20,000 nodes."""
    pick, propagate = _Search._pick, _Search._propagate
    picks, failed = [], []

    def checked_pick(self, open_):
        for v in bit_list(open_):
            assert self.seen[self.cand[v].bit_count()] >> v & 1, v
        picks.append(None)
        return pick(self, open_)

    def counted_propagate(self, queue):
        consistent = propagate(self, queue)
        failed.append(not consistent)
        return consistent

    monkeypatch.setattr(_Search, "_pick", checked_pick)
    monkeypatch.setattr(_Search, "_propagate", counted_propagate)
    cases = _pinned_cases(c6, c13p2, k4, k4_ladder)
    rng = SplitMix64(3202)
    for trial in range(120):
        hg = random_graph(rng, 2 + rng.below(5), loop_num=1, loop_den=2)
        if trial % 2:
            g = random_graph(rng, 4 + rng.below(30), 5, 30, 1, 8)
            inst = Instance(g, tuple(1 + rng.below(hg.full_mask)
                                     for _ in range(g.n)))
        else:
            inst = gen_instance(hg, 6 + rng.below(24), 2 + rng.below(4),
                                3200 + trial, ("random", "planted-yes")[
                                    trial // 2 % 2])
        cases.append((inst, hg))
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    for n in range(20, 60, 2):
        cases.append((Instance(random_graph(rng, n, 5, n, 0, 1), (7,) * n),
                      k3))
    for inst, hg in cases:
        search = _search(inst, hg, 20_000)
        try:
            for _, _ in zip(range(50), search.solutions()):
                pass
        except BudgetExceededError:
            pass
    assert len(picks) >= 3_000 and sum(failed) >= 1_000, \
        (len(picks), sum(failed))


def _fresh(inst, hg):
    """decide's result from a search built for this call alone."""
    colors = next(_Search(inst, hg).solutions(), None)
    return colors is not None, colors


def test_decide_matches_a_fresh_search_twice(c6, c13p2, k4, k4_ladder,
                                              searches):
    """Every pinned case, decided twice in a row, reads what a fresh search
    reads; a case equal to the one before it (a kernel that kept its rung,
    or a poly kernel equal to its marking one) searches no more."""
    cases = _pinned_cases(c6, c13p2, k4, k4_ladder)
    wants = [_fresh(inst, hg) for inst, hg in cases]
    searches.clear()
    for (inst, hg), want in zip(cases, wants):
        assert decide(inst, hg) == want
        assert decide(inst, hg) == want
    keys = [(inst.graph.adj, inst.lists, hg.adj) for inst, hg in cases]
    repeats = sum(a == b for a, b in zip(keys, keys[1:]))
    assert len(searches) == len(cases) - repeats == len(set(keys))
    assert repeats > 0


def test_decide_answers_an_equal_instance_parsed_again(k4, searches):
    """Two parses of one text are two graphs with equal content: one
    search answers both."""
    text = write_instance(gen_instance(k4, 30, 4, 7, "planted-yes"), k4.n)
    first, second = parse_instance(text)[0], parse_instance(text)[0]
    assert first.graph is not second.graph
    assert decide(second, k4) == decide(first, k4)
    assert len(searches) == 1


def test_decide_keeps_one_answer(c6, searches):
    """decide on A, then B, then A searches three times: only the last
    answer is kept."""
    a = gen_instance(c6, 40, 4, 3, "planted-yes")
    b = gen_instance(c6, 40, 4, 4, "random")
    wants = [_fresh(inst, c6) for inst in (a, b)]
    searches.clear()
    assert [decide(inst, c6) for inst in (a, b, a)] == wants + wants[:1]
    assert len(searches) == 3


def test_decide_sees_lists_and_targets_changed_in_place(c5, searches):
    """decide keys its answer on copies, so lists held in a Python list
    and changed between two calls get a fresh answer."""
    lists = [mask_of([0]), mask_of([1])]
    inst = Instance(Graph.from_edges(2, [(0, 1)]), lists)
    assert decide(inst, c5) == _fresh(inst, c5) == (True, (0, 1))
    lists[1] = mask_of([0])
    assert decide(inst, c5) == _fresh(inst, c5) == (False, None)
    # so does a target whose list adjacency gains an edge
    adj = [0, 0]
    hg = Graph(2, adj)
    inst = Instance(Graph.from_edges(2, [(0, 1)]), (1, 2))
    assert decide(inst, hg) == _fresh(inst, hg) == (False, None)
    adj[:] = [2, 1]
    assert decide(inst, hg) == _fresh(inst, hg) == (True, (0, 1))
    assert len(searches) == 8


def test_decide_on_a_list_adjacency(c5, searches):
    """A Graph whose adjacency is a list cannot be hashed; decide never
    hashes one, so it decides, and answers a repeat from its last call."""
    inst = Instance(Graph(3, [6, 1, 1]), (3, 3, 3))
    assert decide(inst, c5) == (True, (0, 1, 1))
    assert decide(inst, c5) == (True, (0, 1, 1))
    assert len(searches) == 1


def test_decide_searches_again_for_another_budget_or_target(monkeypatch, c6,
                                                            searches):
    inst = gen_instance(c6, 40, 4, 3, "planted-yes")
    want = decide(inst, c6)
    monkeypatch.setattr(solver, "NODE_BUDGET", 10**6)  # read at each call
    assert decide(inst, c6) == want
    assert len(searches) == 2
    # an equal target is the same question; another is a new one
    assert decide(inst, gen_cycle_power(6, 1)) == want
    assert len(searches) == 2
    c6p2 = gen_cycle_power(6, 2)
    assert decide(inst, c6p2) == _fresh(inst, c6p2)
    assert len(searches) == 4


def test_decide_out_of_budget_stores_nothing(monkeypatch, k4, searches):
    inst = gen_instance(k4, 14, 6, 5, "random")
    want = decide(inst, k4)
    monkeypatch.setattr(solver, "NODE_BUDGET", 2)
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            decide(inst, k4)
    # the failed searches left the first answer in place
    monkeypatch.setattr(solver, "NODE_BUDGET", NODE_BUDGET)
    assert decide(inst, k4) == want
    assert len(searches) == 3


def test_decide_keeps_no_graph_alive(c6):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    hg = gen_cycle_power(6, 1)
    assert decide(Instance(g, (c6.full_mask,) * 3), hg)[0] is True
    graph_ref, target_ref = weakref.ref(g), weakref.ref(hg)
    del g, hg
    assert graph_ref() is None and target_ref() is None
