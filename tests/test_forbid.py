import importlib
import itertools
import math

import pytest

from lhom.bitset import bit_list, mask_of
from lhom.errors import BudgetExceededError, CertificationError
from lhom.forbid import (CERT_BUDGET, ForbidRequest, certify_forbid,
                         construct, forbid, forbid_linear_system,
                         forbid_monomial, minimal_subrequest)
from lhom.generators import SplitMix64, gen_cycle_power
from lhom.gf2 import Gf2Poly, poly_local
from lhom.graphs import Graph, common_neighbors
from lhom.invariants import cycle_frame

from oracle import ONE, poly_degree, poly_eval, poly_mul

# `lhom.forbid` as a package attribute is the function; tests patch its
# CERT_BUDGET, which every charge reads at call time
forbid_module = importlib.import_module("lhom.forbid")


def full_request(hg, colors, l_mask=None):
    v_all = hg.full_mask
    if l_mask is None:
        l_mask = v_all & ~common_neighbors(hg, mask_of(colors), v_all)
    r = len(colors)
    return ForbidRequest(hg, l_mask, (v_all,) * r, tuple(range(r)), tuple(colors))


def test_request_validation(c6):
    v_all = c6.full_mask
    with pytest.raises(ValueError):  # tuple has a common neighbor
        ForbidRequest(c6, v_all, (v_all, v_all), (0, 1), (0, 2))
    with pytest.raises(ValueError):  # color outside its list
        ForbidRequest(c6, v_all, (mask_of([1]),), (0,), (0,))
    # a negative color is outside every list, not a negative shift count
    with pytest.raises(ValueError, match="color -1 not in candidate list 0"):
        ForbidRequest(c6, v_all, (v_all,), (0,), (-1,))
    with pytest.raises(ValueError):  # repeated vertex
        ForbidRequest(c6, v_all, (v_all, v_all), (0, 0), (0, 3))


def test_monomial_always_certifies(c6, k4):
    rng = SplitMix64(51)
    for hg in (c6, k4):
        v_all = hg.full_mask
        done = 0
        for _ in range(200):
            if done >= 25:
                break
            r = 1 + rng.below(3)
            colors = tuple(rng.below(hg.n) for _ in range(r))
            if common_neighbors(hg, mask_of(colors), v_all):
                continue
            done += 1
            res = forbid_monomial(full_request(hg, colors))
            assert res.degree == r and res.method == "monomial"


def test_zero_polynomial_fails_certification(c6):
    req = full_request(c6, (0, 2, 4))
    assert not certify_forbid(req, Gf2Poly(frozenset()))


def test_monomial_on_c6_triple_is_valid_but_degree_three(c6):
    res = forbid_monomial(full_request(c6, (0, 2, 4)))
    assert res.degree == 3


def test_c6_construction(c6):
    res = forbid(full_request(c6, (0, 2, 4)))
    assert res.method == "c6" and res.degree == 2
    res = forbid(full_request(c6, (1, 3, 5)))
    assert res.method == "c6" and res.degree == 2
    # order of the tuple does not matter
    res = forbid(full_request(c6, (4, 0, 2)))
    assert res.method == "c6" and res.degree == 2
    assert res.poly == forbid(full_request(c6, (0, 2, 4))).poly
    # every ordering of each parity class, on C6 and on a relabelled C6, at
    # two vertex tuples, gives the reference's polynomial, whose pair blocks
    # are taken in cycle order
    from oracle import reference_forbid
    perm = (3, 0, 5, 1, 4, 2)
    relabelled = Graph.from_edges(6, [(perm[u], perm[v])
                                      for u, v in c6.edges()])
    for hg, frame in ((c6, range(6)), (relabelled, perm)):
        for triple in (tuple(frame)[0::2], tuple(frame)[1::2]):
            for colors in itertools.permutations(triple):
                for verts in ((0, 1, 2), (5, 2, 9)):
                    req = ForbidRequest(hg, hg.full_mask, (hg.full_mask,) * 3,
                                        verts, colors)
                    res = forbid(req)
                    assert res.method == "c6" and res.degree == 2
                    assert res.poly == reference_forbid(req).poly, (hg, colors)


def test_c6_pair_falls_back_to_monomial(c6):
    res = forbid(full_request(c6, (0, 3)))
    assert res.method == "monomial" and res.degree == 2


def test_c6_rejects_non_minimal_triple(c6):
    # (0, 1, 3) misses every bipartition class; 0 and 1 already clash, so
    # the triple is shrunk to that pair and gets its monomial
    req = full_request(c6, (0, 1, 3))
    res = forbid(req)
    assert res.method == "monomial" and res.degree == 2
    assert res.poly == Gf2Poly.product_of_vars([(0, 0), (1, 1)])
    assert certify_forbid(req, res.poly)


def test_c6_rejects_wrong_graph(c5):
    # the 5-cycle takes no 6-cycle route, whatever the width
    for colors in ((0, 2), (0, 1)):
        assert forbid(full_request(c5, colors)).method == "monomial"


def test_cycle_frame_detection(c5, c6, k4):
    assert cycle_frame(c6) == (0, 1, 2, 3, 4, 5)
    assert cycle_frame(c5) is not None
    assert cycle_frame(k4) is None
    two_cycles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                      (3, 4), (4, 5), (3, 5)])
    assert cycle_frame(two_cycles) is None


def test_cycle_power_firing_counts(c13p2):
    """Anchor-block firing counts on width-3 tuples of the squared 13-cycle."""
    verts = (0, 1, 2)
    blocks = {}
    for i in range(13):
        for j in range(13):
            d = min(abs(i - j), 13 - abs(i - j))
            dj = min(abs(i - (j + 1) % 13), 13 - abs(i - (j + 1) % 13))
            if 2 <= d <= 4 and d < dj:
                blocks[(i, j)] = poly_local({i, j}, verts, 13)

    def firing(assignment):
        colors = dict(zip(verts, assignment))
        return [(i, j) for (i, j), p in blocks.items()
                if poly_eval(p, colors) == 1]

    assert len(firing((0, 1, 2))) == 1      # consecutive: single anchor pair
    assert len(firing((0, 2, 4))) == 3      # spread: three anchor pairs
    assert len(firing((0, 1, 4))) == 2      # has a common neighbor: even


def test_cycle_power_construction(c13p2):
    for colors in [(0, 1, 2), (0, 2, 4), (5, 7, 9)]:
        res = forbid(full_request(c13p2, colors), cycle_power=(13, 2))
        assert res.method == "cycle-power" and res.degree == 2


def test_cycle_power_memo_is_bounded(c13p2):
    """Each new vertex tuple is a new memo entry; at most maxsize are kept."""
    from lhom.forbid import _cycle_power_poly
    _cycle_power_poly.cache_clear()
    maxsize = _cycle_power_poly.cache_info().maxsize
    full = c13p2.full_mask
    l_mask = full & ~common_neighbors(c13p2, mask_of((0, 2, 4)), full)
    tuples = itertools.combinations(range(20), 3)
    for verts in itertools.islice(tuples, maxsize + 8):
        req = ForbidRequest(c13p2, l_mask, (full,) * 3, verts, (0, 2, 4))
        res = forbid(req, cycle_power=(13, 2))
        assert res.method == "cycle-power" and res.degree == 2
        assert {v for mono in res.poly.monomials for v, _ in mono} == set(verts)
    assert _cycle_power_poly.cache_info().currsize <= maxsize


def test_cycle_power_rejects_small_k(c13p2):
    # k = 13 is not above 6p = 18, so the hint (13, 3) is turned down and
    # the request takes the route of the unhinted target
    req = full_request(c13p2, (0, 1, 2))
    res = forbid(req, cycle_power=(13, 3))
    assert res.method == "linear-system" and res == forbid(req)


def test_cycle_power_rejects_wrong_graph(c6):
    # (6, 2) does not name the 6-cycle, which keeps its own route
    res = forbid(full_request(c6, (0, 2, 4)), cycle_power=(6, 2))
    assert res.method == "c6" and res.degree == 2


def test_c19_cubed_samples():
    c19 = gen_cycle_power(19, 3)
    for colors in [(0, 1, 2, 3), (0, 2, 3, 5), (4, 6, 7, 9)]:
        res = forbid(full_request(c19, colors), cycle_power=(19, 3))
        assert res.method == "cycle-power" and res.degree == 3


def test_linear_system_c6_paper_solution(c6):
    """The three-pair coefficient vector solves the width-3 system."""
    req = full_request(c6, (0, 2, 4))
    chosen = {(0, 2), (2, 4), (0, 4)}
    # rows: every achievable 3-set with a common neighbor in L (there are
    # none in a 6-cycle, every vertex having degree 2), plus the forbidden
    # set whose shadow sum is pinned to 1
    assert not any(
        common_neighbors(c6, mask_of(combo), req.l_mask)
        for combo in itertools.combinations(range(6), 3))
    want = 0
    for pair in itertools.combinations((0, 2, 4), 2):
        if pair in chosen:
            want ^= 1
    assert want == 1
    res = forbid_linear_system(req)
    assert res is not None and res.degree == 2 and res.method == "linear-system"
    # the dedicated construction satisfies the same linear constraints
    c6_poly = forbid(req).poly
    assert certify_forbid(req, c6_poly) and certify_forbid(req, res.poly)


def test_linear_system_agrees_with_c6_on_pinned_tuples(c6):
    req = full_request(c6, (0, 2, 4))
    a = forbid(req).poly
    b = forbid_linear_system(req).poly
    v_all = c6.full_mask
    for tup in itertools.product(range(6), repeat=3):
        pinned = tup == (0, 2, 4) or common_neighbors(c6, mask_of(tup), req.l_mask)
        if pinned:
            colors = dict(zip((0, 1, 2), tup))
            assert poly_eval(a, colors) == poly_eval(b, colors)


def test_linear_system_k4_rainbow(k4):
    res = forbid_linear_system(full_request(k4, (0, 1, 2, 3)))
    assert res is not None and res.degree == 3


def test_linear_system_guaranteed_in_bounded_degree_regime():
    # triangle {0,1,4} plus pendant 3-4 plus the isolated vertex 2: the
    # marking degree equals the maximum degree and exceeds the order by one,
    # so the width-3 synthesis must solve at degree 2
    from lhom.invariants import compute_c_star, compute_d_star
    hg = Graph.from_edges(5, [(0, 1), (0, 4), (1, 4), (3, 4)])
    assert compute_c_star(hg).value == 3 == hg.max_degree()
    assert compute_d_star(hg)[0] == 2
    f_list = mask_of([0, 1, 4])  # pairwise incomparable, contains the tuple
    l_mask = mask_of([0, 1, 4])
    req = ForbidRequest(hg, l_mask, (f_list,) * 3, (0, 1, 2), (0, 1, 4))
    res = forbid_linear_system(req)
    assert res is not None and res.degree == 2
    assert forbid(req).degree == 2


def test_linear_system_narrow_request_delegates(c6):
    """A width-2 request asks a degree-1 system.  Forbidding (0, 2) on C6
    with L = {3, 5} pins x0 = x4 = x2 against x0 + x2 = 1, so the system
    has no solution and the route delegates to the degree-2 monomial."""
    req = full_request(c6, (0, 2), mask_of([3, 5]))
    assert forbid_linear_system(req) is None
    res = construct(req, "linear-system")
    assert (res.method, res.degree) == ("monomial", 2)
    assert certify_forbid(req, res.poly)


def test_linear_system_validates_width(c6):
    """The system's degree is the width less one, so a width-1 request,
    which would ask for degree 0, is refused."""
    with pytest.raises(ValueError, match="^width must be at least 2$"):
        forbid_linear_system(full_request(c6, (0,)))


def test_construct_falls_back_to_the_monomial(monkeypatch, k4):
    """A linear-system request whose system has no solution gets the
    certified plain monomial, of degree equal to the width."""
    req = full_request(k4, (0, 1, 2, 3))
    monkeypatch.setattr(forbid_module, "shadow_solution", lambda *args: None)
    assert forbid_linear_system(req) is None
    res = construct(req, "linear-system")
    assert (res.method, res.degree) == ("monomial", req.width)
    assert res.poly == Gf2Poly.product_of_vars(zip(req.verts, req.colors))
    assert certify_forbid(req, res.poly)


def test_k4_rainbow_triple_monomial(k4):
    # three distinct colors against the list missing their common neighbor
    req = full_request(k4, (0, 1, 2))
    assert req.l_mask == mask_of([0, 1, 2])
    res = forbid(req)
    assert res.method == "monomial" and res.degree == 3


def test_minimal_subrequest_drops_high_positions(c6):
    # (0, 3) already has no common neighbor; appending 1 keeps that
    v_all = c6.full_mask
    req = ForbidRequest(c6, v_all, (v_all,) * 3, (5, 6, 7), (0, 3, 1))
    sub = minimal_subrequest(req)
    assert sub.colors == (0, 3) and sub.verts == (5, 6)


def test_minimal_subrequest_removes_duplicates(k4):
    # (0, 0) against L = {0}: already the singleton (0) has no neighbor in L
    v_all = k4.full_mask
    req = ForbidRequest(k4, mask_of([0]), (v_all,) * 2, (0, 1), (0, 0))
    sub = minimal_subrequest(req)
    assert sub.verts == (0,) and sub.colors == (0,)


def test_minimal_subrequests_are_ones_the_checked_constructor_accepts(
        c6, c13p2, k4):
    """`minimal_subrequest` builds its result unchecked; on 600 seeded
    requests, most of which shrink, ForbidRequest(...) must accept each
    result as it is, and it must match the checked reference."""
    from lhom.graphs import dominant_subset
    from oracle import random_graph, reference_minimal_subrequest
    rng = SplitMix64(3801)
    targets = [c6, c13p2, k4, gen_cycle_power(19, 3)]
    targets += [random_graph(rng, 2 + rng.below(6)) for _ in range(8)]
    shrunk = made = 0
    while made < 600:
        hg = targets[rng.below(len(targets))]
        r = 1 + rng.below(5)
        lists = tuple(dominant_subset(hg, 1 + rng.below(hg.full_mask))
                      for _ in range(r))
        colors = tuple(bit_list(f)[rng.below(f.bit_count())] for f in lists)
        l_mask = rng.below(hg.full_mask + 1)
        if common_neighbors(hg, mask_of(colors), l_mask):
            continue
        verts = tuple(rng.below(3) + 3 * i for i in range(r))
        req = ForbidRequest(hg, l_mask, lists, verts, colors)
        sub = minimal_subrequest(req)
        fields = [getattr(sub, name) for name in sub.fields]
        assert ForbidRequest(*fields) == sub == \
            reference_minimal_subrequest(req), req
        shrunk += sub.width < req.width
        made += 1
    assert shrunk >= 100, shrunk


def test_forbid_dispatch(c5, c6, c13p2, k4):
    assert forbid(full_request(c6, (0, 2, 4))).degree == 2
    assert forbid(full_request(c5, (0, 2))).degree == 2
    assert forbid(full_request(c13p2, (0, 2, 4)), cycle_power=(13, 2)).degree == 2
    res = forbid(full_request(k4, (0, 1, 2, 3)))
    assert res.degree == 3 and res.method == "linear-system"


def test_hinted_cycle_powers_never_reach_d_star(c13p2, k4, monkeypatch):
    """A minimal request is no wider than c_star, so the linear system can
    only apply at width c_star; on a hinted cycle power the cycle-power
    route claims that width, and neither kernel_poly nor forbid reads d_star.
    K4, with no special route, still reaches the linear system."""
    from lhom.generators import gen_instance
    from lhom.kernels import kernel_poly
    compute_d_star = forbid_module.compute_d_star

    def refuse(hg):
        raise AssertionError("d_star was computed")

    monkeypatch.setattr(forbid_module, "compute_d_star", refuse)
    for (k, p), n, size, pinned in (((13, 2), 150, 4, (326, 4761, 45)),
                                    ((19, 3), 100, 4, (754, 5913, 54)),
                                    ((31, 5), 40, 3, (769, 3663, 21))):
        hg = gen_cycle_power(k, p)
        report = kernel_poly(gen_instance(hg, n, size, 1), hg,
                             cycle_power=(k, p))
        assert (report.constraints_retained, report.constraints_total,
                report.vertices_out) == pinned, (k, p)
    res = forbid(full_request(c13p2, (0, 2, 4)), cycle_power=(13, 2))
    assert res.method == "cycle-power" and res.degree == 2
    asked = []
    monkeypatch.setattr(forbid_module, "compute_d_star",
                        lambda hg: asked.append(hg) or compute_d_star(hg))
    res = forbid(full_request(k4, (0, 1, 2, 3)))
    assert res.method == "linear-system" and res.degree == 3
    assert asked == [k4]


def test_stated_degree_is_the_real_degree(c6, c13p2, k4):
    """Each construction states its degree; on seeded minimal requests of
    every route it equals the polynomial's degree, and the outcome equals
    the reference that scans every polynomial and reads its degree."""
    from lhom.graphs import dominant_subset
    from lhom.invariants import all_essential_sets
    from oracle import random_graph, reference_forbid
    rng = SplitMix64(57)
    fixed = [(c6, None), (c13p2, (13, 2)), (gen_cycle_power(19, 3), (19, 3)),
             (k4, None)]
    seen: dict = {}
    for done in range(200):
        if done % 5 == 4:
            hg, hint = random_graph(rng, 2 + rng.below(5)), None
        else:
            hg, hint = fixed[done % 5]
        full = hg.full_mask
        sets = [s for s in all_essential_sets(hg) if s]
        if rng.below(3):  # mostly the widest, where the special routes act
            widest = max(map(int.bit_count, sets))
            sets = [s for s in sets if s.bit_count() == widest]
        colors = bit_list(sets[rng.below(len(sets))])
        for i in range(len(colors) - 1, 0, -1):
            j = rng.below(i + 1)
            colors[i], colors[j] = colors[j], colors[i]
        lists = (full,) * len(colors)
        if rng.below(2):
            lists = tuple(dominant_subset(hg, (rng.below(full + 1) | 1 << c)
                                          & full) for c in colors)
        l_mask = full & ~common_neighbors(hg, mask_of(colors), full)
        try:
            req = ForbidRequest(hg, l_mask, lists, tuple(range(len(colors))),
                                tuple(colors))
        except ValueError:
            continue
        res = forbid(req, hint)
        assert (res.method, res.degree, res.poly) == _forbid_outcome(
            reference_forbid, req, hint, 2_000_000), req
        assert res.degree == poly_degree(res.poly), req
        seen[res.method] = seen.get(res.method, 0) + 1
    assert all(seen.get(method, 0) >= 20 for method in
               ("c6", "cycle-power", "linear-system", "monomial")), seen


def test_a_huge_hint_builds_no_cycle_power(c13p2, monkeypatch):
    """The order and edge-count tests come first, so a hint naming a huge
    cycle power is turned down without building it: one of another order,
    or one of the target's order (2,000 colors, p = 300) on a target of 3
    edges."""
    import lhom.invariants as invariants

    def refuse(k, p):
        raise AssertionError("a cycle power was built")

    monkeypatch.setattr(invariants, "gen_cycle_power", refuse)
    assert invariants._is_cycle_power(c13p2, 10**6, 2) is False
    assert invariants.special_construction(c13p2, (10**6, 2)) is None
    sparse = Graph.from_edges(2000, [(0, 1), (1, 2), (2, 3)])
    assert invariants._is_cycle_power(sparse, 2000, 300) is False
    assert invariants.special_construction(sparse, (2000, 300)) is None


def test_forbid_shrinks_padded_tuples(c6):
    v_all = c6.full_mask
    req = ForbidRequest(c6, v_all, (v_all,) * 3, (0, 1, 2), (0, 3, 3))
    res = forbid(req)
    assert res.degree == 2
    assert certify_forbid(req, res.poly)


def test_forbid_result_certifies_against_original_request(c6, k4):
    rng = SplitMix64(52)
    for hg in (c6, k4):
        v_all = hg.full_mask
        done = 0
        for _ in range(300):
            if done >= 20:
                break
            r = 2 + rng.below(2)
            colors = tuple(rng.below(hg.n) for _ in range(r))
            if common_neighbors(hg, mask_of(colors), v_all):
                continue
            done += 1
            req = full_request(hg, colors)
            res = forbid(req)
            assert certify_forbid(req, res.poly)


def test_certify_budget(monkeypatch, c6, c13p2):
    req = full_request(c13p2, (0, 2, 4))
    poly = forbid_monomial(req).poly
    monkeypatch.setattr(forbid_module, "CERT_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        certify_forbid(req, poly)
    # the size is the candidate product times n per stray vertex
    monkeypatch.setattr(forbid_module, "CERT_BUDGET", CERT_BUDGET)
    req = full_request(c6, (0, 2, 4))
    good = forbid(req).poly
    stray = Gf2Poly.sum_of([good, Gf2Poly.product_of_vars([(99, 0), (99, 1)])])
    for poly, size in ((good, 6 ** 3), (stray, 6 ** 4)):
        monkeypatch.setattr(forbid_module, "CERT_BUDGET", size)
        assert certify_forbid(req, poly)
        monkeypatch.setattr(forbid_module, "CERT_BUDGET", size - 1)
        with pytest.raises(BudgetExceededError, match=(
                f"certification needs {size} evaluations, budget is {size - 1}")):
            certify_forbid(req, poly)


def test_certify_handles_stray_vertices(c6):
    # a polynomial mentioning a vertex outside the request is still checked
    req = full_request(c6, (0, 2, 4))
    good = forbid(req).poly
    # the added monomial is always zero
    stray = Gf2Poly.sum_of([good, Gf2Poly.product_of_vars([(99, 0), (99, 1)])])
    assert certify_forbid(req, stray)


def test_forbid_on_random_irregular_targets():
    """Dominated colors and loops in play; every dispatch route certifies."""
    from lhom.graphs import dominant_subset
    from oracle import random_graph
    rng = SplitMix64(53)
    done = 0
    while done < 200:
        hg = random_graph(rng, 2 + rng.below(5))
        full = hg.full_mask
        r = 1 + rng.below(3)
        colors = tuple(rng.below(hg.n) for _ in range(r))
        lists = []
        ok = True
        for c in colors:
            lst = dominant_subset(hg, (rng.below(full + 1) | 1 << c) & full)
            if not lst >> c & 1:
                ok = False
                break
            lists.append(lst)
        if not ok:
            continue
        l_mask = rng.below(full + 1) & ~common_neighbors(hg, mask_of(colors), full)
        try:
            req = ForbidRequest(hg, l_mask, tuple(lists), tuple(range(r)), colors)
        except ValueError:
            continue
        res = forbid(req)
        assert certify_forbid(req, res.poly)
        done += 1


def _certify_mutations(req, poly, rng):
    """forbid's polynomial and edits of it that the certifier must judge."""
    monos = sorted(poly.monomials, key=sorted)
    pairs = list(zip(req.verts, req.colors))
    yield poly
    yield Gf2Poly(frozenset())
    yield ONE
    if monos:
        yield Gf2Poly(poly.monomials - {monos[rng.below(len(monos))]})
    last = req.target.n - 1
    tup = tuple(bit_list(f)[rng.below(f.bit_count())] for f in req.lists)
    if tup != req.colors:
        yield Gf2Poly.sum_of([poly, Gf2Poly.product_of_vars(zip(req.verts, tup))])
        yield Gf2Poly.sum_of([poly, Gf2Poly.product_of_vars(
            [*zip(req.verts, tup), (99, last)])])
    off = [c for c in range(req.target.n + 1) if not req.lists[0] >> c & 1]
    yield Gf2Poly.sum_of([poly, Gf2Poly.product_of_vars(
        [(req.verts[0], off[rng.below(len(off))])] + pairs[1:])])
    # vertex 99 is outside the request, so it takes every color of the target
    yield Gf2Poly.sum_of([poly, Gf2Poly.product_of_vars([(99, 0)])])
    yield Gf2Poly.sum_of([poly, Gf2Poly.product_of_vars([(99, last)])])
    yield poly_mul(poly, Gf2Poly.product_of_vars([(99, last)]))
    yield Gf2Poly.sum_of([poly, Gf2Poly.product_of_vars([(99, 0), (99, 1)])])


def test_certify_agrees_with_brute_force(c6, k4, c13p2):
    """The bit-parallel certifier against the literal definition."""
    from lhom.graphs import dominant_subset
    from oracle import brute_certify, random_graph
    rng = SplitMix64(54)
    fixed = [(c6, None), (k4, None), (c13p2, (13, 2))]
    verdicts = {True: 0, False: 0}
    done = 0
    while done < 90:
        if done % 3:
            hg, hint = random_graph(rng, 2 + rng.below(6)), None
        else:
            hg, hint = fixed[done // 3 % 3]
        full = hg.full_mask
        colors = tuple(rng.below(hg.n) for _ in range(1 + rng.below(3)))
        lists = tuple(dominant_subset(hg, (rng.below(full + 1) | 1 << c) & full)
                      for c in colors)
        l_mask = rng.below(full + 1) & ~common_neighbors(hg, mask_of(colors), full)
        try:
            req = ForbidRequest(hg, l_mask, lists, tuple(range(len(colors))),
                                colors)
        except ValueError:
            continue
        for poly in _certify_mutations(req, forbid(req, hint).poly, rng):
            want = brute_certify(req, poly)
            assert certify_forbid(req, poly) == want, (req, poly)
            verdicts[want] += 1
        done += 1
    assert min(verdicts.values()) >= 100, verdicts


def _forbid_outcome(fn, *args):
    try:
        res = fn(*args)
    except (BudgetExceededError, CertificationError, ValueError) as err:
        return type(err).__name__, str(err)
    return None if res is None else (res.method, res.degree, res.poly)


def _is_minimal(hg, colors, l_mask) -> bool:
    """No common neighbor in L, but one after dropping any position."""
    return not common_neighbors(hg, mask_of(colors), l_mask) and all(
        common_neighbors(hg, mask_of(colors[:i] + colors[i + 1:]), l_mask)
        for i in range(len(colors)))


def test_forbid_matches_always_scan_reference(monkeypatch, c6, c13p2):
    """Certification by construction and by the per-polynomial table against
    the scan of every polynomial on its own request, at budgets on both
    sides of each size a check can need."""
    from lhom.graphs import dominant_subset
    from oracle import random_graph, reference_forbid
    rng = SplitMix64(55)
    fixed = [(c6, None), (c13p2, (13, 2)), (gen_cycle_power(19, 3), (19, 3))]
    seen: dict = {}
    done = 0
    while done < 100:
        if done % 4 == 3:
            hg, hint = random_graph(rng, 2 + rng.below(6)), None
        else:
            hg, hint = fixed[done % 4]
        full = hg.full_mask
        width = 2 + rng.below(3)
        special = hint is not None or hg is c6
        if special:
            width = 3 if hint is None else hint[1] + 1
        any_tuple = not special or rng.below(5) == 0
        while True:
            colors = tuple(rng.below(hg.n) for _ in range(width))
            if any_tuple or _is_minimal(hg, colors, full):
                break
        lists = (full,) * width
        if rng.below(2):
            lists = tuple(dominant_subset(hg, (rng.below(full + 1) | 1 << c)
                                          & full) for c in colors)
        l_mask = full if rng.below(4) else rng.below(full + 1)
        l_mask &= ~common_neighbors(hg, mask_of(colors), full)
        try:
            req = ForbidRequest(hg, l_mask, lists, tuple(range(len(colors))),
                                colors)
        except ValueError:
            continue
        size = 1
        for f in lists:
            size *= f.bit_count()
        widest = hg.n ** len(colors)
        for budget in (2_000_000, size, size - 1, widest, widest - 1):
            want = _forbid_outcome(reference_forbid, req, hint, budget)
            monkeypatch.setattr(forbid_module, "CERT_BUDGET", budget)
            assert _forbid_outcome(forbid, req, hint) == want, (req, budget)
            seen[want[0]] = seen.get(want[0], 0) + 1
        done += 1
    mins = {"monomial": 100, "c6": 30, "cycle-power": 80,
            "linear-system": 20, "BudgetExceededError": 50}
    assert all(seen.get(key, 0) >= least for key, least in mins.items()), \
        sorted(seen.items())


def test_shadow_systems_match_reference(monkeypatch, c6, c13p2, k4):
    """`forbid_linear_system` and `degree_probe` against the shadow system
    built row by row in the oracle, on fixed and seeded random targets."""
    from lhom.graphs import dominant_subset, is_incomparable_set
    from lhom.invariants import degree_probe
    from oracle import (random_graph, reference_degree_probe,
                        reference_linear_system)
    rng = SplitMix64(91)
    pendant = Graph.from_edges(5, [(0, 1), (0, 4), (1, 4), (3, 4)])
    targets = [c6, c13p2, gen_cycle_power(19, 3), k4, pendant]
    targets += [random_graph(rng, 2 + rng.below(6)) for _ in range(60)]
    seen: dict = {}
    for hg in targets:
        probe = degree_probe(hg)
        assert probe == reference_degree_probe(hg), hg
        seen["probe cases"] = seen.get("probe cases", 0) + len(probe["cases"])
        seen["probe unsolvable"] = seen.get("probe unsolvable", 0) + sum(
            not case["solvable"] for case in probe["cases"])
        d = max(probe["d_star"], 1)
        full = hg.full_mask
        # the widest request on a base set asks the probe's own system
        widest = [full_request(hg, case["s0"]) for case in probe["cases"][:3]
                  if is_incomparable_set(hg, full)]
        done = 0
        while done < 6 + len(widest):
            if done < len(widest):
                req = widest[done]
            else:
                width = (d + 1, d + 1, d + 1, d + 1, d, d + 2)[done - len(widest)]
                colors = tuple(rng.below(hg.n) for _ in range(width))
                lists = (full,) * width
                if rng.below(2):
                    lists = tuple(dominant_subset(
                        hg, (rng.below(full + 1) | 1 << c) & full) for c in colors)
                l_mask = full if rng.below(3) else rng.below(full + 1)
                l_mask &= ~common_neighbors(hg, mask_of(colors), full)
                try:
                    req = ForbidRequest(hg, l_mask, lists, tuple(range(width)),
                                        colors)
                except ValueError:
                    continue
            size = 1
            for f in req.lists:
                size *= f.bit_count()
            for budget in (2_000_000, size - 1):
                want = _forbid_outcome(reference_linear_system, req, budget)
                monkeypatch.setattr(forbid_module, "CERT_BUDGET", budget)
                assert _forbid_outcome(forbid_linear_system, req) == want, \
                    (req, budget)
                key = "None" if want is None else want[0]
                seen[key] = seen.get(key, 0) + 1
            done += 1
    # the system's degree is the width less one, so no request falls back to
    # the monomial, and width-2 requests meet inconsistent systems (None)
    mins = {"probe cases": 150, "probe unsolvable": 5, "linear-system": 120,
            "None": 10, "ValueError": 200, "BudgetExceededError": 150}
    assert all(seen.get(key, 0) >= least for key, least in mins.items()), \
        sorted(seen.items())


def _certify_outcome(certify, *args):
    try:
        return certify(*args)
    except BudgetExceededError as err:  # the only error a check raises
        return type(err).__name__, str(err)


def _table_cases(hg, hint, wide, rng, deletions):
    """The polynomial forbid builds for `wide` and edits of it, each with
    requests on the same tuple with narrowed lists and subsets of its L,
    and with budgets on both sides of V(H)^r and of the request's product.
    A deletion changes no size, so it is checked at the budget V(H)^r, on
    the widest request and on the narrowest."""
    narrow = tuple(f & rng.below(hg.full_mask + 1) | 1 << c
                   for f, c in zip(wide.lists, wide.colors))
    l_sub = wide.l_mask & rng.below(hg.full_mask + 1)
    reqs = [ForbidRequest(hg, l_mask, lists, wide.verts, wide.colors)
            for lists in (wide.lists, narrow) for l_mask in (wide.l_mask, l_sub)]
    poly = forbid(wide, hint).poly
    monos = sorted(poly.monomials, key=sorted)
    if deletions is not None and deletions < len(monos):
        monos = [monos[rng.below(len(monos))] for _ in range(deletions)]
    widest = hg.n ** wide.width
    cases = []
    for req in reqs:
        size = math.prod(map(int.bit_count, req.lists))
        cases += [(req, budget) for budget in
                  (widest - 1, widest, size - 1, size, size + 1)]
    last = hg.n - 1
    for edited in (poly, Gf2Poly.sum_of(
                       [poly, Gf2Poly.product_of_vars([(99, 0), (99, 1)])]),
                   poly_mul(poly, Gf2Poly.product_of_vars([(99, last)]))):
        yield edited, cases
    for mono in monos:
        yield (Gf2Poly(poly.monomials - {mono}),
               [(reqs[0], widest), (reqs[-1], widest)])


def test_certify_matches_reference_scan(monkeypatch):
    """The table rule against the parent scan (`reference_certify_forbid`),
    verdicts and errors alike, with a cold memo and with the memo warmed by
    the wider request the polynomial was built for."""
    import contextlib

    from lhom.forbid import _boxes, _table
    from lhom.graphs import dominant_subset, is_incomparable_set
    from oracle import random_graph, reference_certify_forbid

    def current(req, poly, budget):
        with monkeypatch.context() as patched:
            patched.setattr(forbid_module, "CERT_BUDGET", budget)
            return _certify_outcome(certify_forbid, req, poly)

    rng = SplitMix64(56)
    k4 = gen_cycle_power(4, 2)
    fixed = [(gen_cycle_power(6, 1), None, [(0, 2, 4), (1, 3, 5), (0, 3)], None),
             (gen_cycle_power(13, 2), (13, 2), [(0, 2, 4)], None),
             # the same anchor-block sum as above, on another tuple and L
             (gen_cycle_power(13, 2), (13, 2), [(0, 1, 2)], 20),
             # 6,080 monomials: every deletion would take minutes
             (gen_cycle_power(19, 3), (19, 3), [(0, 1, 2, 3)], 6),
             (k4, None, [(0, 1, 2, 3), (3, 1, 0, 2), (0, 1, 2)], None)]
    targets = [(hg, hint, [full_request(hg, colors) for colors in tuples], dels)
               for hg, hint, tuples, dels in fixed]
    while len(targets) < len(fixed) + 30:
        hg = random_graph(rng, 5 + rng.below(4))
        full = hg.full_mask
        wides = []
        for _ in range(40):
            colors = tuple(rng.below(hg.n) for _ in range(2 + rng.below(2)))
            if not _is_minimal(hg, colors, full):
                continue
            lists = (full,) * len(colors)
            if not is_incomparable_set(hg, full):
                lists = tuple(dominant_subset(hg, full) | 1 << c for c in colors)
            try:
                wides.append(ForbidRequest(
                    hg, full & ~common_neighbors(hg, mask_of(colors), full),
                    lists, tuple(range(len(colors))), colors))
            except ValueError:
                continue
            if len(wides) == 2:
                break
        if wides:
            targets.append((hg, None, wides, None))
    seen: dict = {}
    for hg, hint, wides, deletions in targets:
        for wide in wides:
            for poly, cases in _table_cases(hg, hint, wide, rng, deletions):
                wants = [_certify_outcome(reference_certify_forbid, req, poly,
                                          budget) for req, budget in cases]
                for (req, budget), want in zip(cases, wants):
                    _table.cache_clear()
                    _boxes.cache_clear()
                    assert current(req, poly, budget) == want, \
                        (req, poly, budget)
                _table.cache_clear()
                _boxes.cache_clear()
                with contextlib.suppress(BudgetExceededError):
                    certify_forbid(wide, poly)
                for (req, budget), want in zip(cases, wants):
                    assert current(req, poly, budget) == want, \
                        (req, poly, budget)
                    key = str(want) if isinstance(want, bool) else want[0]
                    seen[key] = seen.get(key, 0) + 1
    assert min(seen.values()) >= 500 and len(seen) == 3, sorted(seen.items())


def test_table_never_passes_an_edited_polynomial(c6, c13p2, monkeypatch):
    """A table covers only the polynomial it was built for, and a memo hit
    evaluates nothing."""
    from lhom.forbid import _certified, _table
    from oracle import reference_certify_forbid
    for hg, hint, colors in ((c13p2, (13, 2), (0, 2, 4)),
                             (c6, None, (0, 2, 4))):
        req = full_request(hg, colors)
        good = forbid(req, hint)
        assert good.method in ("cycle-power", "c6")
        assert _table(hg, req.verts, good.poly) is not None
        narrow = ForbidRequest(hg, req.l_mask, tuple(
            mask_of([c, (c + 1) % hg.n]) for c in colors), req.verts, colors)
        with monkeypatch.context() as patched:
            patched.setattr(forbid_module, "_transform", None)  # would fail
            assert _certified(narrow, good.poly, good.degree,
                              good.method) == good
        failed = 0
        for mono in sorted(good.poly.monomials, key=sorted):
            edited = Gf2Poly(good.poly.monomials - {mono})
            if reference_certify_forbid(req, edited):
                assert certify_forbid(req, edited)
                continue
            failed += 1
            assert not certify_forbid(req, edited)
            with pytest.raises(CertificationError):
                _certified(req, edited, good.degree, good.method)
        assert failed


def test_table_falls_back_to_the_scan(c13p2, monkeypatch):
    """A polynomial that is 1 on a tuple inside N(w)^r for some w in L, but
    off the request's lists, passes by the scan alone."""
    from lhom.forbid import _table
    from oracle import reference_certify_forbid
    colors = (0, 2, 4)
    req = full_request(c13p2, colors)
    good = forbid(req, (13, 2)).poly
    w = 7  # in L: no color of the tuple is within distance 2 of 7
    assert req.l_mask >> w & 1
    extra = (5, 6, 8)  # inside N(7)^3
    bad = Gf2Poly.sum_of([good, Gf2Poly.product_of_vars(zip(req.verts, extra))])
    narrow = ForbidRequest(c13p2, req.l_mask, tuple(
        mask_of([c, (c + 1) % 13]) for c in colors), req.verts, colors)
    assert not narrow.lists[0] >> extra[0] & 1
    _, marked = _table(c13p2, req.verts, bad)
    assert marked & narrow.l_mask
    transforms = []
    transform = forbid_module._transform
    monkeypatch.setattr(forbid_module, "_transform",
                        lambda *args: transforms.append(1) or transform(*args))
    assert certify_forbid(narrow, bad) and reference_certify_forbid(narrow, bad)
    assert len(transforms) == 1  # the scan; the table was already built
    assert not certify_forbid(req, bad) and not reference_certify_forbid(req, bad)


def test_table_memo_is_bounded(c6):
    """Each new vertex tuple is a new table; at most maxsize are kept."""
    from lhom.forbid import _boxes, _table
    _table.cache_clear()
    _boxes.cache_clear()
    maxsize = _table.cache_info().maxsize
    assert maxsize is not None
    full = c6.full_mask
    l_mask = full & ~common_neighbors(c6, mask_of((0, 2, 4)), full)
    tuples = itertools.combinations(range(20), 3)
    for verts in itertools.islice(tuples, maxsize + 8):
        req = ForbidRequest(c6, l_mask, (full,) * 3, verts, (0, 2, 4))
        assert forbid(req).method == "c6"
    info = _table.cache_info()
    assert info.misses == maxsize + 8 and info.currsize == maxsize


def _table_polys(hg, hint, rng, polys, plain=False):
    """Each polynomial that `construct` gives a request on an all-essential
    set of hg (so at widths 1..c*), or the plain monomial when plain is set,
    then edits of some: a monomial added on a random tuple of the same
    vertices, which marks the colors around it, a monomial dropped, and
    a stray vertex, which gets no table."""
    from lhom.forbid import construct, forbid_route
    from lhom.graphs import dominant_subset, is_incomparable_set
    from lhom.invariants import all_essential_sets
    full = hg.full_mask
    built = []
    for s in all_essential_sets(hg)[1:]:
        colors = tuple(bit_list(s))
        r = len(colors)
        verts = ((0, 1, 2, 3, 4), (7, 3, 9, 1, 5))[rng.below(2)][:r]
        lists = (full,) * r
        if not is_incomparable_set(hg, full):
            lists = tuple(dominant_subset(hg, full) | 1 << c for c in colors)
        try:
            req = ForbidRequest(hg, full & ~common_neighbors(hg, s, full),
                                lists, verts, colors)
        except ValueError:
            continue
        route = None if plain else forbid_route(hg, hint, r)
        poly = construct(req, route).poly
        if (hg, verts, poly) not in polys:
            polys[hg, verts, poly] = None
            built.append((verts, poly))
    for verts, poly in built[::max(1, len(built) // 4)]:
        extra = Gf2Poly.product_of_vars((v, rng.below(hg.n)) for v in verts)
        monos = sorted(poly.monomials, key=sorted)
        for edited in (Gf2Poly.sum_of([poly, extra]),
                       Gf2Poly(poly.monomials - {monos[rng.below(len(monos))]}),
                       poly_mul(poly, Gf2Poly.product_of_vars([(99, 0)]))):
            polys[hg, verts, edited] = None


def test_table_matches_reference_table(c6, c13p2, k4):
    """`_table` against the table that builds its boxes anew for every
    polynomial (`reference_table`), values and marks bit for bit: every
    route's polynomial at widths 1..c* on C6, C13^2 and C19^3, the
    monomials on K4 and forbid's polynomials on seeded random targets on
    5-8 vertices, with their edits, from a cold box memo on."""
    from lhom.forbid import _boxes, _table
    from oracle import random_graph, reference_table
    _table.cache_clear()
    _boxes.cache_clear()
    rng = SplitMix64(24)
    polys: dict = {}  # (target, verts, polynomial), in first-built order
    for hg, hint in ((c6, None), (c13p2, (13, 2)),
                     (gen_cycle_power(19, 3), (19, 3))):
        _table_polys(hg, hint, rng, polys)
    _table_polys(k4, None, rng, polys, plain=True)
    for _ in range(12):
        _table_polys(random_graph(rng, 5 + rng.below(4)), None, rng, polys)
    seen = {"None": 0, "marked": 0, "unmarked": 0}
    for hg, verts, poly in polys:
        want = reference_table(hg, verts, poly)
        assert _table(hg, verts, poly) == want, (hg, verts, poly)
        seen["None" if want is None else
             "marked" if want[1] else "unmarked"] += 1
    info = _boxes.cache_info()
    assert info.hits >= 200 and info.misses >= 20, info
    assert min(seen.values()) >= 20, seen


def test_box_memo_is_capped():
    """The widest boxes C19^3 certifies against (width 4: 19^5 bits) fit
    BOX_CAP and are kept; C22^3's at width 4 (22^5 bits) do not, so every
    table on them builds its own, none is kept, and each verdict is the
    scan's (`reference_certify_forbid`)."""
    from lhom.forbid import BOX_CAP, _boxes, _table
    from oracle import reference_certify_forbid, reference_table
    c19p3 = gen_cycle_power(19, 3)
    assert 19 ** 4 <= CERT_BUDGET < 19 ** 5 <= BOX_CAP
    _table.cache_clear()
    _boxes.cache_clear()
    assert forbid(full_request(c19p3, (0, 1, 2, 3)), (19, 3)).degree == 3
    assert _boxes.cache_info().currsize == 1
    c22p3 = gen_cycle_power(22, 3)
    assert 22 ** 4 <= CERT_BUDGET and 22 ** 5 > BOX_CAP
    _boxes.cache_clear()
    rng = SplitMix64(25)
    verdicts = {True: 0, False: 0}
    for colors in ((0, 1, 2, 3), (5, 7, 8, 10), (12, 15, 13, 14)):
        wide = full_request(c22p3, colors)
        good = forbid(wide, (22, 3))
        assert good.method == "cycle-power"
        w = (colors[0] + 11) % 22  # in L; the tuple inside lies in N(w)^4
        inside = ((w + d) % 22 for d in (-1, 1, -2, 2))
        bad = Gf2Poly.sum_of([good.poly, Gf2Poly.product_of_vars(
            zip(wide.verts, inside))])
        for poly in (good.poly, bad):
            assert _table(c22p3, wide.verts, poly) == reference_table(
                c22p3, wide.verts, poly)
            for req in [wide] + [ForbidRequest(
                    c22p3, wide.l_mask & rng.next() or wide.l_mask,
                    tuple(f & rng.next() | 1 << c
                          for f, c in zip(wide.lists, colors)),
                    wide.verts, colors) for _ in range(3)]:
                want = reference_certify_forbid(req, poly)
                assert certify_forbid(req, poly) == want, (req, poly)
                verdicts[want] += 1
    assert verdicts[True] >= 12 and verdicts[False] >= 3, verdicts
    info = _boxes.cache_info()
    assert info.currsize == 0 and info.misses == 0, info


def test_over_cap_boxes_are_built_one_at_a_time():
    """On C600 a width-2 table fits the budget (600^2 tuples) but its boxes
    do not fit BOX_CAP (600^3 bits).  All 600 boxes of 360,000 bits built
    at once took the certification of a 2-color-list request to a 13.9 MiB
    peak; built one at a time, none kept, it stays under 1 MiB."""
    import tracemalloc

    from lhom.forbid import BOX_CAP, _boxes, _table
    c600 = gen_cycle_power(600, 1)
    assert 600 ** 2 <= CERT_BUDGET and 600 ** 3 > BOX_CAP
    req = ForbidRequest(c600, c600.full_mask,
                        (mask_of([0, 2]), mask_of([3, 5])), (0, 1), (0, 3))
    res = forbid_monomial(req)
    _table.cache_clear()
    _boxes.cache_clear()
    tracemalloc.start()
    try:
        assert certify_forbid(req, res.poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert _boxes.cache_info().currsize == 0


def test_width_one_route_reads_no_c_star(c13p2, monkeypatch):
    """A width-1 request can only get the monomial, so `forbid_route` gives
    it None before it reads c_star, which on a large target costs the
    whole all-essential family."""
    def refuse(hg):
        raise AssertionError("c_star was computed")

    monkeypatch.setattr(forbid_module, "compute_c_star", refuse)
    res = forbid(full_request(c13p2, (0,)), cycle_power=(13, 2))
    assert (res.method, res.degree, str(res.poly)) == ("monomial", 1,
                                                      "y[0,0]")


def test_certification_outcomes_are_pinned():
    """(degree, monomial count, certify_forbid verdict) of `forbid` on the
    dominating request family of C13^2 and C19^3, hashed in a fixed order:
    each all-essential set on full lists, with L the colors outside its
    common neighborhood and with its surplus list, the colors that one
    member's removal adds to that neighborhood."""
    import hashlib

    from lhom.invariants import all_essential_sets
    digest = hashlib.sha256()
    for k, p in ((13, 2), (19, 3)):
        hg = gen_cycle_power(k, p)
        full = hg.full_mask
        for s in all_essential_sets(hg)[1:]:
            common = common_neighbors(hg, s, full)
            surplus = 0
            for c in bit_list(s):
                surplus |= common_neighbors(hg, s & ~(1 << c), full) & ~common
            colors = tuple(bit_list(s))
            for l_mask in sorted({full & ~common, surplus}):
                req = ForbidRequest(hg, l_mask, (full,) * len(colors),
                                    tuple(range(len(colors))), colors)
                res = forbid(req, (k, p))
                digest.update(repr((k, l_mask, colors, res.degree,
                                    len(res.poly.monomials),
                                    certify_forbid(req, res.poly))).encode())
    assert digest.hexdigest() == (
        "190667362cf04a878df2d2cb5db51078bef2b9ef17b412985b1e05deae03f7dd")


@pytest.mark.parametrize("args, message", [
    ((0, (), (), ()), "a request needs at least one position"),
    ((1, (1, 4), (0,), (0,)), "lists, verts and colors must have equal length"),
    ((1 << 6, (0b111111,), (0,), (0,)), "target list out of range"),
    ((0b111111, (1 << 6,), (0,), (0,)), "candidate list 0 out of range"),
])
def test_request_input_checks(c6, args, message):
    with pytest.raises(ValueError) as err:
        ForbidRequest(c6, *args)
    assert str(err.value) == message
