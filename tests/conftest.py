import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lhom import kernels, solver
from lhom.generators import SplitMix64, gen_cycle_power
from lhom.graphs import Graph
from lhom.invariants import compute_d_star
from lhom.reductions import reduce_sat
from lhom.solver import _Search

from oracle import brute_sat

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def complete_graph(q: int) -> Graph:
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)])


@pytest.fixture(scope="session")
def c5():
    return gen_cycle_power(5, 1)


@pytest.fixture(scope="session")
def c6():
    return gen_cycle_power(6, 1)


@pytest.fixture(scope="session")
def c7():
    return gen_cycle_power(7, 1)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def c13p2():
    return gen_cycle_power(13, 2)


def _k4_pair(k4, rng, nvars: int):
    """K4 reductions of a satisfiable and an unsatisfiable seeded 3-CNF on
    nvars variables at clause ratio 4.26, the first of each drawn."""
    _, lbs = compute_d_star(k4)
    found = {}
    while len(found) < 2:
        clauses = []
        for _ in range(round(4.26 * nvars)):
            vs: list[int] = []
            while len(vs) < 3:
                v = rng.below(nvars) + 1
                if v not in vs:
                    vs.append(v)
            clauses.append([v if rng.chance(1, 2) else -v for v in vs])
        found.setdefault(brute_sat(nvars, clauses),
                         reduce_sat(nvars, clauses, k4, lbs))
    return found[True], found[False]


@pytest.fixture(scope="session")
def k4_reductions(k4):
    """K4 reductions (402 vertices) of a satisfiable and an unsatisfiable
    seeded 3-CNF on 8 variables at clause ratio 4.26."""
    return _k4_pair(k4, SplitMix64(26), 8)


@pytest.fixture(scope="session")
def k4_ladder(k4):
    """A satisfiable and an unsatisfiable K4 reduction at 8, 10 and 12
    variables (402 to 603 vertices), as the sat-oracle benchmark builds
    them."""
    rng = SplitMix64(25)
    return tuple(inst for nvars in (8, 10, 12)
                 for inst in _k4_pair(k4, rng, nvars))


@pytest.fixture
def searches(monkeypatch):
    """A list that gets one entry for each `_Search` built."""
    built: list[None] = []
    init = _Search.__init__

    def counting_init(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(_Search, "__init__", counting_init)
    return built


@pytest.fixture(autouse=True)
def _empty_minimal_tuple_memo():
    """Each test starts with the poly kernel's memo empty, so that no
    outcome depends on the order the tests run in."""
    kernels._minimal_memo.cache_clear()


@pytest.fixture(autouse=True)
def _no_last_answer():
    """Each test starts with no answer kept by `decide`, for the same
    reason."""
    solver._last = None, None
