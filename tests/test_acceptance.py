"""Acceptance suite: one numbered criterion per test, one report line each.

The report lines are printed in the terminal summary; run with -s to see
them inline as well.
"""

import itertools
import time

import conftest
from lhom.bitset import bit_list
from lhom.forbid import ForbidRequest, certify_forbid, forbid
from lhom.generators import (SplitMix64, gen_cycle_power, gen_instance,
                             gen_subdivided_star)
from lhom.graphs import Graph, common_neighbors, dominant_subset, incomparable
from lhom.invariants import (CStarWitness, all_essential_sets,
                             canonical_list_for, compute_c_star,
                             compute_d_star, degree_probe,
                             find_non_bi_arc_witness)
from lhom.kernels import kernel_marking, kernel_poly
from lhom.reductions import (build_comp, build_neq, build_variable_gadget,
                             reduce_sat, variable_gadget_states)
from lhom.solver import decide, enumerate_restricted

from conftest import complete_graph
from oracle import (brute_sat, max_degree_exchange_holds, packed_rows,
                    poly_eval, random_graph, verify_c_star_witness,
                    verify_lbs)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _named_corpus():
    return [
        ("C5", gen_cycle_power(5, 1), None),
        ("C6", gen_cycle_power(6, 1), None),
        ("C7", gen_cycle_power(7, 1), None),
        ("C9", gen_cycle_power(9, 1), None),
        ("C13^2", gen_cycle_power(13, 2), (13, 2)),
        ("C19^3", gen_cycle_power(19, 3), (19, 3)),
        ("star3x2", gen_subdivided_star(3), None),
        ("K3", complete_graph(3), None),
        ("K4", complete_graph(4), None),
    ]


def test_criterion_1_invariant_table():
    expected = {
        "C5": (2, 2), "C6": (3, 2), "C7": (2, 2), "C9": (2, 2),
        "C13^2": (3, None), "C19^3": (4, None),
        "star3x2": (2, None), "K4": (4, 3),
    }
    details = []
    ok = True
    for name, hg, _ in _named_corpus():
        if name not in expected:
            continue
        t0 = time.time()
        cw = compute_c_star(hg)
        want_c, want_d = expected[name]
        got_d = None
        if want_d is not None:
            got_d, lbs = compute_d_star(hg)
            ok &= lbs is None or verify_lbs(hg, lbs)
        elapsed = time.time() - t0
        ok &= verify_c_star_witness(hg, cw)
        ok &= cw.value == want_c and (want_d is None or got_d == want_d)
        ok &= elapsed < 60.0
        details.append(f"{name}:c*={cw.value}"
                       + (f",d*={got_d}" if got_d is not None else "")
                       + f"({elapsed:.1f}s)")
    star = gen_subdivided_star(3)
    ok &= star.max_degree() == 3
    _report(1, ok, "exact invariant table " + " ".join(details))


def test_criterion_2_sanity_inequalities():
    corpus = [(name, hg) for name, hg, _ in _named_corpus()]
    rng = SplitMix64(202)
    for i in range(200):
        h = 1 + rng.below(8)
        corpus.append((f"rand{i}", random_graph(rng, h)))
    violations = 0
    for name, hg in corpus:
        cw = compute_c_star(hg)
        d, lbs = compute_d_star(hg)
        delta = hg.max_degree()
        if not (cw.value - 1 <= d <= cw.value and cw.value <= delta + 1):
            violations += 1
            continue
        # restricting lists to incomparable sets changes neither value:
        # the witnesses survive reduction of L to its dominant members
        reduced_c = CStarWitness(cw.value, dominant_subset(hg, cw.l_mask),
                                 cw.s_mask)
        if not verify_c_star_witness(hg, reduced_c):
            violations += 1
            continue
        if lbs is not None:
            reduced_l = type(lbs)(lbs.order, dominant_subset(hg, lbs.l_mask),
                                  lbs.xs, lbs.xps)
            if not verify_lbs(hg, reduced_l):
                violations += 1
    _report(2, violations == 0,
            f"{len(corpus)} graphs, {violations} violations of the "
            "c*/d* bracket, the degree bound, and incomparable-list invariance")


def test_criterion_3_poly_local_contract():
    from lhom.gf2 import poly_local
    cases = failures = 0
    for h in range(1, 8):
        for size in range(0, 4):
            for colors in itertools.combinations(range(h), size):
                verts = tuple(range(size + 1))
                poly = poly_local(colors, verts, h)
                for assignment in itertools.product(range(h), repeat=size + 1):
                    want = int(all(assignment.count(c) == 1 for c in colors))
                    got = poly_eval(poly, dict(zip(verts, assignment)))
                    cases += 1
                    if got != want:
                        failures += 1
    _report(3, failures == 0,
            f"exactly-once contract: {cases} assignments across all color "
            f"sets of size <= 3 and h <= 7, {failures} failures")


def _forbid_request_family(hg):
    """Dominating certification family: full candidate lists, maximal L.

    The whole vertex set of each corpus target is pairwise incomparable, so
    (V, ..., V) dominates every incomparable candidate tuple, and the list
    V minus the common neighborhood of S0 dominates every admissible list:
    a polynomial certified here satisfies the contract for every smaller
    request with the same forbidden set.
    """
    v_all = hg.full_mask
    assert all(incomparable(hg, u, v)
               for u, v in itertools.combinations(range(hg.n), 2))
    c = compute_c_star(hg).value
    for size in range(1, c + 1):
        for s_mask in all_essential_sets(hg):
            if s_mask.bit_count() != size:
                continue
            colors = tuple(bit_list(s_mask))
            big_l = v_all & ~common_neighbors(hg, s_mask, v_all)
            for l_mask in {big_l, canonical_list_for(hg, s_mask)}:
                yield ForbidRequest(hg, l_mask, (v_all,) * size,
                                    tuple(range(size)), colors)


def test_criterion_4_forbidding_certification():
    targets = [(name, hg, hint) for name, hg, hint in _named_corpus()
               if name in ("C5", "C6", "C13^2", "C19^3", "K3", "K4")]
    want_degree = {"C6": 2, "C13^2": 2, "C19^3": 3}
    details = []
    ok = True
    probe_ok = True
    for name, hg, hint in targets:
        count = 0
        max_degree = 0
        for req in _forbid_request_family(hg):
            res = forbid(req, cycle_power=hint)
            if not certify_forbid(req, res.poly):
                ok = False
            max_degree = max(max_degree, res.degree)
            count += 1
        # seeded random sub-requests: smaller candidate lists and lists
        rng = SplitMix64(204)
        v_all = hg.full_mask
        extra = 0
        while extra < 15:
            size = 2 + rng.below(compute_c_star(hg).value - 1)
            sets = [s for s in all_essential_sets(hg) if s.bit_count() == size]
            s_mask = sets[rng.below(len(sets))]
            colors = tuple(bit_list(s_mask))
            lists = tuple((rng.below(v_all + 1) | 1 << c) for c in colors)
            l_mask = (v_all & ~common_neighbors(hg, s_mask, v_all)) \
                & rng.below(v_all + 1)
            if not l_mask:
                continue
            req = ForbidRequest(hg, l_mask, lists, tuple(range(len(colors))),
                                colors)
            res = forbid(req, cycle_power=hint)
            if not certify_forbid(req, res.poly):
                ok = False
            extra += 1
        if name in want_degree and max_degree != want_degree[name]:
            ok = False
        probe = degree_probe(hg)
        probe_ok &= probe["all_ok"]
        details.append(f"{name}:{count}+{extra}reqs,deg<={max_degree}")
    suffix = ("; degree-d* synthesis probe succeeded on all targets"
              if probe_ok else "; degree-d* probe FOUND UNSOLVABLE CASES")
    _report(4, ok, "certified " + " ".join(details) + suffix)


def test_criterion_5_basis_bound():
    import math
    from lhom.gf2 import Gf2Poly, extract_basis
    rng = SplitMix64(205)
    ok = True
    for trial in range(50):
        m = 4 + rng.below(17)   # up to 20 variables
        d = 1 + rng.below(3)
        polys = []
        for _ in range(20 + rng.below(60)):
            monos = []
            for _ in range(1 + rng.below(4)):
                monos.append(frozenset(
                    (rng.below(m), 1) for _ in range(1 + rng.below(d))))
            polys.append(Gf2Poly(frozenset(monos)))
        kept = extract_basis(packed_rows(polys))
        bound = sum(math.comb(m, i) for i in range(d + 1))
        ok &= len(kept) <= bound
        if m <= 12:
            sub = [p for i, p in enumerate(polys) if i in set(kept)]
            for bits in itertools.product((0, 1), repeat=m):
                colors = {v: b for v, b in enumerate(bits)}
                all_zero = all(poly_eval(p, colors) == 0 for p in polys)
                sub_zero = all(poly_eval(p, colors) == 0 for p in sub)
                if all_zero != sub_zero:
                    ok = False
                    break
    _report(5, ok, "50 random systems within the rank bound; exhaustive "
                   "solution-set equality on every system with m <= 12")


def test_criterion_6_kernel_equivalence():
    t0 = time.time()
    targets = [(name, hg, hint) for name, hg, hint in _named_corpus()
               if name in ("C5", "C6", "K3", "K4", "C13^2")]
    details = []
    ok = True
    for name, hg, hint in targets:
        agree = total = 0
        bound_fail = 0
        for idx in range(250):
            mode = "planted-yes" if idx >= 200 else "random"
            n = 8 + (idx * 7) % 11
            k = 2 + (idx * 5) % 5
            inst = gen_instance(hg, n, k, 9000 + idx, mode)
            want = decide(inst, hg)[0]
            marking = kernel_marking(inst, hg)
            poly = kernel_poly(inst, hg, cycle_power=hint)
            if not marking.bound_formula_ok:
                bound_fail += 1
            got_m = decide(marking.kernel, hg)[0]
            got_p = decide(poly.kernel, hg)[0]
            total += 1
            agree += got_m == want == got_p
        ok &= agree == total and bound_fail == 0
        details.append(f"{name}:{agree}/{total}")
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _report(6, ok, "oracle agreement both methods " + " ".join(details)
            + f", marking bounds asserted, {elapsed:.0f}s")


def test_criterion_7_gadget_certification():
    k4 = complete_graph(4)
    d, lbs = compute_d_star(k4)
    ok = d == 3
    checked = 0
    for i in range(3):
        g = build_neq(k4, lbs, i)
        ok &= g.graph.n == 10
        x, xp = lbs.xs[i], lbs.xps[i]
        got = enumerate_restricted(g.instance(), k4, [g.u, g.v])
        ok &= got == {(x, xp), (xp, x)}
        checked += 1
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            g = build_comp(k4, lbs, i, j)
            ok &= g.graph.n == 10
            pair = {(lbs.xs[i], lbs.xs[j]), (lbs.xps[i], lbs.xps[j])}
            got = enumerate_restricted(g.instance(), k4, [g.u, g.v])
            ok &= got == pair
            checked += 1
    vg = build_variable_gadget(k4, lbs)
    targets = list(vg.specials_a) + list(vg.specials_abar)
    restrictions = enumerate_restricted(vg.instance(), k4, targets)
    ok &= restrictions == set(variable_gadget_states(lbs))
    ok &= len(restrictions) == 2
    _report(7, ok, f"{checked} pair gadgets with 10 vertices each and the "
                   "designated restriction sets; variable gadget has exactly "
                   "2 admissible states")


def test_criterion_8_reduction_equivalence():
    k4 = complete_graph(4)
    _, lbs = compute_d_star(k4)
    rng = SplitMix64(208)
    agree = 0
    cover_ok = True
    for _ in range(20):
        nvars = 4 + rng.below(3)
        clauses = []
        for _ in range(4 + rng.below(10)):
            clauses.append([(1 if rng.below(2) else -1) * (1 + rng.below(nvars))
                            for _ in range(3)])
        inst = reduce_sat(nvars, clauses, k4, lbs)
        cover_ok &= inst.cover.bit_count() == 46 * nvars
        agree += decide(inst, k4)[0] == brute_sat(nvars, clauses)
    _report(8, agree == 20 and cover_ok,
            f"20 random 3-CNFs: satisfiability matches the oracle {agree}/20, "
            "cover size exactly 46 per variable")


def test_criterion_9_max_degree_exchange_regime():
    found = []
    # exhaustive over all graphs with loops on up to 4 vertices
    for h in range(1, 5):
        pairs = [(u, v) for u in range(h) for v in range(u, h)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            hg = Graph.from_edges(h, edges)
            delta = hg.max_degree()
            if delta < 2 or compute_c_star(hg).value != delta:
                continue
            if compute_d_star(hg)[0] == delta - 1:
                found.append(hg)
    exhaustive_hits = len(found)
    # seeded random sample at 5 to 7 vertices
    rng = SplitMix64(209)
    for _ in range(4500):
        hg = random_graph(rng, 5 + rng.below(3))
        delta = hg.max_degree()
        if delta < 2 or compute_c_star(hg).value != delta:
            continue
        if compute_d_star(hg)[0] == delta - 1:
            found.append(hg)
    ok = all(max_degree_exchange_holds(hg) for hg in found)
    nba = sum(1 for hg in found if find_non_bi_arc_witness(hg) is not None)
    if found:
        detail = (f"exchange property holds for all {len(found)} regime "
                  f"graphs found (exhaustive h<=4: {exhaustive_hits}, "
                  f"sampled h in 5..7: {len(found) - exhaustive_hits}; "
                  f"{nba} carry a non-bi-arc walk witness)")
    else:
        detail = ("no graph with equal marking and maximum degree and "
                  "lower-bound order one below was found at h <= 4 "
                  "(exhaustive) nor in 4500 samples at h in 5..7; "
                  "criterion passes vacuously")
    _report(9, ok, detail)
