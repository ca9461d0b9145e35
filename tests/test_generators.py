import tracemalloc

import pytest

from lhom.bitset import bit_list
from lhom.formats import write_hgraph, write_instance
from lhom.generators import (SplitMix64, cycle_power_edges, gen_cycle_power,
                             gen_instance, gen_subdivided_star)
from lhom.graphs import Graph, Instance
from lhom.invariants import all_essential_sets, compute_c_star
from lhom.solver import decide

from oracle import has_edge, random_graph, reference_gen_instance


def test_cycle_power_p1_is_cycle():
    c6 = gen_cycle_power(6, 1)
    assert c6.edges() == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_cycle_power_degrees():
    c13 = gen_cycle_power(13, 2)
    assert all(c13.degree(v) == 4 for v in range(13))


def test_cycle_power_distance_rule():
    # 0 and 4 are at cyclic distance 4 in a 13-cycle
    for p in (1, 2, 3):
        g = gen_cycle_power(13, p)
        assert has_edge(g, 0, 4) == (p >= 4)
    assert has_edge(gen_cycle_power(13, 4), 0, 4)


def test_cycle_power_matches_the_distance_definition():
    """The generator against every pair at cyclic distance <= p, graph and
    written file alike, for k in 3..30 and p in 1..k+1 (K4 is (4, 2)), and
    `cycle_power_edges` against the edges of each."""
    for k in range(3, 31):
        for p in range(1, k + 2):
            want = Graph.from_edges(k, [
                (u, v) for u in range(k) for v in range(u + 1, k)
                if min(v - u, k - (v - u)) <= p])
            got = gen_cycle_power(k, p)
            assert got == want and write_hgraph(got) == write_hgraph(want), \
                (k, p)
            assert cycle_power_edges(k, p) == want.edge_count(), (k, p)
    assert gen_cycle_power(4, 2).edge_count() == 6


def test_cycle_power_validates_input():
    with pytest.raises(ValueError):
        gen_cycle_power(2, 1)


def test_subdivided_star_shape():
    star = gen_subdivided_star(3)
    assert star.n == 10
    assert star.degree(0) == 3
    assert sorted(star.degree(v) for v in range(10)) == [1, 1, 1, 2, 2, 2, 2, 2, 2, 3]


def test_minimal_witnesses_of_cycle_power_match_known_forms():
    for k, p in ((13, 2), (19, 3)):
        g = gen_cycle_power(k, p)
        assert compute_c_star(g).value == p + 1
        consecutive = {frozenset((i + t) % k for t in range(p + 1))
                       for i in range(k)}
        gapped = {frozenset({i} | {(i + t) % k for t in range(2, p + 1)}
                            | {(i + p + 2) % k}) for i in range(k)}
        for s_mask in all_essential_sets(g):
            if s_mask.bit_count() != p + 1:
                continue
            s = frozenset(bit_list(s_mask))
            assert s in consecutive or s in gapped, sorted(s)


def test_instance_planted_yes_is_always_yes(c6, k4):
    for hg in (c6, k4):
        for seed in range(25):
            inst = gen_instance(hg, 12, 4, seed, "planted-yes")
            assert decide(inst, hg)[0] is True


def test_instance_random_mode_hits_both_answers(c6):
    answers = {decide(gen_instance(c6, 8, 3, seed), c6)[0]
               for seed in range(30)}
    assert answers == {True, False}


def test_instance_structure(c6):
    inst = gen_instance(c6, 15, 5, 3)
    assert inst.cover == (1 << 5) - 1
    for v in range(5, 15):
        assert inst.graph.adj[v] & ~inst.cover == 0  # outside is independent
        assert inst.lists[v]
    with pytest.raises(ValueError):
        gen_instance(c6, 4, 5, 0)
    with pytest.raises(ValueError):
        gen_instance(c6, 4, 2, 0, "bogus")


def test_instance_deterministic_bytes(c6):
    a = write_instance(gen_instance(c6, 14, 4, 99), 6, ("gen: instance seed=99",))
    b = write_instance(gen_instance(c6, 14, 4, 99), 6, ("gen: instance seed=99",))
    assert a == b
    c = write_instance(gen_instance(c6, 14, 4, 100), 6)
    assert a != c


def test_splitmix_reference_stream():
    # first outputs for seed 0; fixed by the permutation constants
    rng = SplitMix64(0)
    first = [rng.next() for _ in range(3)]
    assert first == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_lane_constants_match_their_sums():
    """`_ONES` and `_RAMP`, read from bytes, are the sums over the lanes
    that define them: bit 0 of each 128-bit lane, and (i + 1) * gamma
    mod 2^64 in lane i."""
    from lhom.generators import _GAMMA, _LANES, _ONES, _RAMP
    assert _ONES == sum(1 << 128 * i for i in range(_LANES))
    assert _RAMP == sum((i + 1) * _GAMMA % (1 << 64) << 128 * i
                        for i in range(_LANES))


STREAM_SEEDS = (0, 1, -1, 2**64 - 1, 2**64)


@pytest.mark.parametrize("m", [0, 1, 511, 512, 513, 2000])
def test_draws_and_coins_match_the_stream(m):
    """`draws(m)` is m calls of `next()`, `coins(m)` has bit j set iff the
    j-th of m calls of `chance(1, 2)` is true, and both leave the state
    where those calls do; so does a run of them across block boundaries."""
    for seed in STREAM_SEEDS:
        blocked, single = SplitMix64(seed), SplitMix64(seed)
        assert blocked.draws(m) == [single.next() for _ in range(m)], seed
        assert blocked.state == single.state
        want = sum(single.chance(1, 2) << j for j in range(m))
        assert blocked.coins(m) == want, seed
        assert blocked.state == single.state
        assert blocked.draws(1) == [single.next()]


def test_coins_build_one_block_at_a_time():
    """A million coins peak below 1 MiB, against 125 KB for the mask
    alone: the lanes are made a block at a time, not all at once."""
    rng = SplitMix64(1)
    tracemalloc.start()
    try:
        mask = rng.coins(1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert mask.bit_length() <= 1_000_000 and rng.state == \
        (1 + 1_000_000 * 0x9E3779B97F4A7C15) % 2**64


def _gen_targets():
    rng = SplitMix64(3901)
    looped = [random_graph(rng, h) for h in (3, 7, 12)]
    assert all(g.loops for g in looped)
    return [gen_cycle_power(5, 1), gen_cycle_power(6, 1),
            gen_cycle_power(13, 2), gen_cycle_power(4, 2),
            Graph.from_edges(1, [(0, 0)]), *looped]


@pytest.mark.parametrize("mode", ["random", "planted-yes"])
def test_gen_instance_matches_the_reference(mode):
    """`gen_instance` equals the per-draw `reference_gen_instance` in
    (adj, lists, cover) on n around the 512-draw blocks, k in {0, 1, n}
    and seeds that wrap the state, cycling through C5, C6, C13^2, K4, a
    looped one-color target and seeded looped random targets.  A cover of
    0 or 1 vertex runs every seed; k = n runs one seed, and not at
    n = 4100, where the reference draws 8.4M coins one by one."""
    targets = _gen_targets()
    turn = 0
    for n in (0, 1, 2, 511, 512, 513, 1030, 4100):
        for k in sorted({0, 1, n} - {4100}):
            if k > n:
                continue
            seeds = STREAM_SEEDS if k < 2 else STREAM_SEEDS[n % 5:][:1]
            for seed in seeds:
                hg = targets[turn % len(targets)]
                turn += 1
                got = gen_instance(hg, n, k, seed, mode)
                want = reference_gen_instance(hg, n, k, seed, mode)
                assert (got.graph.adj, got.lists, got.cover) == \
                    (want.graph.adj, want.lists, want.cover), (hg, n, k, seed)
    assert turn > 2 * len(targets)


def test_splitmix_below_range():
    rng = SplitMix64(7)
    vals = [rng.below(10) for _ in range(200)]
    assert set(vals) <= set(range(10))
    assert len(set(vals)) == 10


@pytest.mark.parametrize("call, message", [
    (lambda: SplitMix64(1).below(0), "range must be positive"),
    (lambda: gen_subdivided_star(0), "need at least one leaf"),
])
def test_generator_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("mode", ["random", "planted-yes"])
def test_instance_needs_a_target_vertex(mode):
    empty = Graph.from_edges(0, [])
    with pytest.raises(ValueError) as err:
        gen_instance(empty, 3, 1, 1, mode)
    assert str(err.value) == "target graph must have at least one vertex"
    # no vertex asks for no color
    assert gen_instance(empty, 0, 0, 1, mode) == Instance(empty, (), 0)
