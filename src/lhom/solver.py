"""Exact list-homomorphism oracle.

Backtracking search with arc-consistency propagation and smallest-list-first
vertex selection.  Meant for verification at desk scale; every search is
bounded by a node budget and raises when it is exhausted.
"""

from __future__ import annotations

import os

from .bitset import iter_bits, popcount
from .errors import BudgetExceededError
from .graphs import Graph, Instance, validate_instance

DEFAULT_NODE_BUDGET = 10**7


def node_budget_from_env(default: int = DEFAULT_NODE_BUDGET) -> int:
    raw = os.environ.get("LHOM_NODE_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError("LHOM_NODE_BUDGET must be an integer") from None


class _Search:
    """Shared backtracking machinery for decide/enumerate."""

    def __init__(self, inst: Instance, hg: Graph, budget: int):
        validate_instance(inst, hg)
        self.g = inst.graph
        self.hg = hg
        self.budget = budget
        self.nodes = 0
        cand = []
        for v in range(self.g.n):
            mask = inst.lists[v]
            if self.g.adj[v] >> v & 1:
                # a looped vertex needs a looped image
                mask &= sum(1 << c for c in range(hg.n) if hg.adj[c] >> c & 1)
            cand.append(mask)
        self.start = self._arc_reduce(cand)

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(f"search exceeded {self.budget} nodes")

    def _arc_reduce(self, cand: list[int]) -> list[int] | None:
        """Prune candidates until every value has a support on every edge."""
        queue = set(range(self.g.n))
        while queue:
            v = queue.pop()
            for u in iter_bits(self.g.adj[v]):
                if u == v:
                    continue
                support = 0
                for c in iter_bits(cand[v]):
                    support |= self.hg.adj[c]
                new = cand[u] & support
                if new != cand[u]:
                    cand[u] = new
                    if not new:
                        return None
                    queue.add(u)
        if any(not c for c in cand):
            return None
        return cand

    def _propagate(self, cand: list[int], v: int, color: int) -> list[int] | None:
        cand = cand[:]
        cand[v] = 1 << color
        queue = [v]
        while queue:
            w = queue.pop()
            if popcount(cand[w]) == 1:
                nbr_support = self.hg.adj[cand[w].bit_length() - 1]
            else:
                nbr_support = 0
                for c in iter_bits(cand[w]):
                    nbr_support |= self.hg.adj[c]
            for u in iter_bits(self.g.adj[w]):
                if u == w:
                    continue
                new = cand[u] & nbr_support
                if new != cand[u]:
                    if not new:
                        return None
                    cand[u] = new
                    queue.append(u)
        return cand

    def _pick(self, cand: list[int], assigned: list[bool]) -> int:
        best, best_size = -1, None
        for v in range(self.g.n):
            if assigned[v]:
                continue
            size = popcount(cand[v])
            if best_size is None or size < best_size:
                best, best_size = v, size
                if size == 1:
                    break
        return best

    def run(self, on_solution) -> None:
        """Depth-first search; on_solution(assignment) may return True to stop.

        The search path is an explicit stack of (vertex, candidates, colors
        left to try) frames, one per assigned vertex, so its depth is not
        bounded by the interpreter's recursion limit.
        """
        if self.start is None:
            return
        assigned = [False] * self.g.n
        stack: list = []
        cand = self.start
        while cand is not None:
            if len(stack) == self.g.n:
                if on_solution(tuple(c.bit_length() - 1 for c in cand)):
                    return
            else:
                v = self._pick(cand, assigned)
                assigned[v] = True
                stack.append((v, cand, iter_bits(cand[v])))
            cand = self._next_branch(stack, assigned)

    def _next_branch(self, stack, assigned) -> list[int] | None:
        """Candidates after the next consistent color of the deepest open
        frame, closing exhausted frames; None once the stack is empty."""
        while stack:
            v, cand, colors = stack[-1]
            for color in colors:
                self._tick()
                nxt = self._propagate(cand, v, color)
                if nxt is not None:
                    return nxt
            assigned[v] = False
            stack.pop()
        return None


def decide(inst: Instance, hg: Graph,
           node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[bool, tuple[int, ...] | None]:
    """Decide list-homomorphism existence; returns (answer, witness or None)."""
    found: list[tuple[int, ...]] = []

    def stop(colors):
        found.append(colors)
        return True

    _Search(inst, hg, node_budget).run(stop)
    if found:
        return True, found[0]
    return False, None


def enumerate_restricted(inst: Instance, hg: Graph, targets,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> set[tuple[int, ...]]:
    """Exact set of restrictions to `targets` over all list homomorphisms."""
    targets = list(targets)
    out: set[tuple[int, ...]] = set()

    def collect(colors):
        out.add(tuple(colors[t] for t in targets))
        return False

    _Search(inst, hg, node_budget).run(collect)
    return out


def _check_cover_mapping(inst: Instance, hg: Graph, phi: dict[int, int]) -> int:
    if inst.cover is None:
        raise ValueError("instance carries no designated cover")
    cover = inst.cover
    for v in iter_bits(cover):
        if v not in phi:
            raise ValueError(f"cover vertex {v} unassigned")
        if not inst.lists[v] >> phi[v] & 1:
            raise ValueError(f"phi violates the list of {v}")
        for u in iter_bits(inst.graph.adj[v] & cover):
            if u < v:
                continue
            if not hg.adj[phi[v]] >> phi[u] & 1:
                raise ValueError(f"phi violates edge ({v}, {u})")
    return cover


def extendable(inst: Instance, hg: Graph, phi: dict[int, int]) -> bool:
    """Can a cover coloring be completed on the outside independent set?

    True iff every vertex outside the cover keeps a list color adjacent to
    all of its (cover) neighbors' images.
    """
    cover = _check_cover_mapping(inst, hg, phi)
    for v in range(inst.graph.n):
        if cover >> v & 1:
            continue
        allowed = inst.lists[v]
        for u in iter_bits(inst.graph.adj[v]):
            allowed &= hg.adj[phi[u]]
            if not allowed:
                return False
    return True
