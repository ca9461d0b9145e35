"""Exact list-homomorphism oracle.

Backtracking search that maintains arc consistency, with smallest-list-first
vertex selection.  The search is one generator, `_Search.solutions`, that
yields each solution in turn: `decide` takes the first and
`enumerate_restricted` collects them all.  It keeps one candidate list and
undoes its changes from a trail on backtrack.  After each propagation every
vertex left with a single candidate is assigned in one step.  Meant for
verification at desk scale; every search is bounded by a node budget and
raises when it is exhausted.  A node is one assigned vertex or one color
tried, so a forced vertex counts as one node, as if it had been branched on.
"""

from __future__ import annotations

import os

from .bitset import iter_bits
from .errors import BudgetExceededError
from .graphs import Graph, Instance, validate_instance

DEFAULT_NODE_BUDGET = 10**7


def node_budget_from_env() -> int:
    raw = os.environ.get("LHOM_NODE_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError("LHOM_NODE_BUDGET must be an integer") from None
    if budget < 1:
        raise ValueError("LHOM_NODE_BUDGET must be a positive integer")
    return budget


class _Search:
    """One search over an instance; `solutions()` is the generator that
    decide and enumerate_restricted iterate, and `nodes` counts its work."""

    def __init__(self, inst: Instance, hg: Graph, budget: int):
        validate_instance(inst, hg)
        g = inst.graph
        self.adj = hg.adj
        self.budget = budget
        self.nodes = 0
        self.nbrs = [[u for u in iter_bits(g.adj[v]) if u != v] for v in range(g.n)]
        # a looped vertex needs a looped image
        looped = sum(1 << c for c in range(hg.n) if hg.adj[c] >> c & 1)
        self.cand = [mask & looped if g.adj[v] >> v & 1 else mask
                     for v, mask in enumerate(inst.lists)]
        self.trail: list[tuple[int, int]] = []
        self.supports: dict[int, int] = {}
        self.consistent = all(self.cand) and self._propagate(list(range(g.n)))
        self.trail.clear()  # the start's narrowing is never undone

    def _tick(self, count: int = 1) -> None:
        """Count `count` nodes; past the budget, stop where one-by-one
        counting would have stopped."""
        if count and self.nodes + count > self.budget:
            self.nodes = max(self.nodes, self.budget) + 1
            raise BudgetExceededError(f"search exceeded {self.budget} nodes")
        self.nodes += count

    def _propagate(self, queue: list[int]) -> bool:
        """Narrow the neighbours of queued vertices until every candidate
        has a support on every edge; False once a list runs empty.  Each
        change goes on the trail."""
        cand, adj, nbrs, trail = self.cand, self.adj, self.nbrs, self.trail
        supports = self.supports
        while queue:
            w = queue.pop()
            mask = cand[w]
            if mask & (mask - 1):
                support = supports.get(mask)
                if support is None:
                    support = 0
                    for c in iter_bits(mask):
                        support |= adj[c]
                    supports[mask] = support
            else:
                support = adj[mask.bit_length() - 1]
            for u in nbrs[w]:
                old = cand[u]
                new = old & support
                if new != old:
                    if not new:
                        return False
                    trail.append((u, old))
                    cand[u] = new
                    queue.append(u)
        return True

    def solutions(self):
        """Depth-first search, yielding each solution's colors in turn.

        Each frame of the explicit stack is one branch vertex: its colors
        left to try, the trail length to undo to, and the vertices still
        open (two or more candidates) when it was pushed.  A vertex with
        one candidate is assigned by propagation: it would have no other
        color to try, and under arc consistency its own propagation changes
        nothing.  A caller that stops iterating stops the search there.
        """
        if not self.consistent:
            return
        cand, trail = self.cand, self.trail
        open_ = [v for v, mask in enumerate(cand) if mask & (mask - 1)]
        self._tick(len(cand) - len(open_))
        stack: list = []
        while open_ is not None:
            if not open_:
                yield tuple(c.bit_length() - 1 for c in cand)
            else:
                sizes = list(map(int.bit_count, map(cand.__getitem__, open_)))
                v = open_[sizes.index(min(sizes))]
                stack.append((v, iter_bits(cand[v]), len(trail), open_))
            # advance the deepest frame to its next consistent color, closing
            # exhausted frames; open_ stays None once the stack is empty
            open_ = None
            while stack and open_ is None:
                v, colors, mark, pushed = stack[-1]
                for color in colors:
                    # undo to the candidates the frame was pushed with
                    for u, old in reversed(trail[mark:]):
                        cand[u] = old
                    del trail[mark:]
                    self._tick()
                    trail.append((v, cand[v]))
                    cand[v] = 1 << color
                    if self._propagate([v]):
                        open_ = [u for u in pushed if cand[u] & (cand[u] - 1)]
                        self._tick(len(pushed) - 1 - len(open_))
                        break
                else:
                    stack.pop()


def decide(inst: Instance, hg: Graph,
           node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[bool, tuple[int, ...] | None]:
    """Decide list-homomorphism existence; returns (answer, witness or None)."""
    colors = next(_Search(inst, hg, node_budget).solutions(), None)
    return colors is not None, colors


def enumerate_restricted(inst: Instance, hg: Graph, targets,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> set[tuple[int, ...]]:
    """Exact set of restrictions to `targets` over all list homomorphisms."""
    targets = list(targets)
    for t in targets:
        if not 0 <= t < inst.graph.n:
            raise ValueError(f"target {t} is not a vertex of the instance")
    return {tuple(colors[t] for t in targets)
            for colors in _Search(inst, hg, node_budget).solutions()}
