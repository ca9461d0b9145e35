"""Exact list-homomorphism oracle.

Backtracking search that maintains arc consistency, with smallest-list-first
vertex selection.  The search is one generator, `_Search.solutions`, that
yields each solution in turn: `decide` takes the first and
`enumerate_restricted` collects them all.  It keeps one candidate list and
undoes its changes from a trail on backtrack.  After each propagation every
vertex left with a single candidate is assigned in one step.  A vertex
whose support (the colors adjacent to one of its candidates) is every
color cannot narrow a neighbour, so propagation neither queues nor scans
it, as AC-3 revisits an arc only when its support can shrink; on K4
reductions that is about one queued vertex in four.  The open
vertices of a frame are one int mask, read off the trail of changes (at
the root, the start's), and the branch vertex comes from per-size masks
kept lazily, so a color tried costs work in proportion to the changes it
makes, not to the number of vertices.  Meant for
verification at desk scale; every search is bounded by a node budget and
raises when it is exhausted.  A node is one assigned vertex or one color
tried, so a forced vertex counts as one node, as if it had been branched on.
`decide` keeps its last answer on the instance's graph: a kernel that keeps
its input's graph and lists is answered from the input's decide.
"""

from __future__ import annotations

import os

from .bitset import iter_bits, mask_of
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
    decide and enumerate_restricted iterate, and `nodes` counts its work.
    It reads the neighbour lists and the loop masks off the instance's and
    the target's `Graph`, which make them once and share them.

    `seen[s]` holds every open vertex with s candidates, and may hold stale
    bits of vertices that now have more: the start fills it, `_propagate`
    adds a vertex whenever its list shrinks to two or more colors, and undo
    never touches it.  Sizes only fall along a search path, so a vertex
    with more than s candidates gets back to s only through `_propagate`,
    and `_pick` may drop such a bit for good.  The root's open mask `open_`
    is the start's `seen` less the vertices that its trail left closed.
    """

    def __init__(self, inst: Instance, hg: Graph, budget: int):
        validate_instance(inst, hg)
        g = inst.graph
        self.adj, self.full = hg.adj, hg.full_mask
        self.budget = budget
        self.nodes = 0
        self.nbrs = g.nbrs
        self.cand = list(inst.lists)
        for v in iter_bits(g.loops):  # a looped vertex needs a looped image
            self.cand[v] &= hg.loops
        self.seen = [0] * (hg.n + 1)
        for v, mask in enumerate(self.cand):
            if mask & (mask - 1):
                self.seen[mask.bit_count()] |= 1 << v
        self.open_ = sum(self.seen)  # one bit per open vertex: their union
        self.trail: list[tuple[int, int]] = []
        self.supports = {1 << c: mask for c, mask in enumerate(hg.adj)}
        self.consistent = all(self.cand) and self._propagate(list(range(g.n)))
        self.open_ &= ~mask_of(u for u, _ in self.trail  # those it closed
                               if not self.cand[u] & (self.cand[u] - 1))
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
        change goes on the trail, and a list left with s >= 2 colors puts
        its vertex in seen[s].  A vertex whose support is every color
        would narrow nothing, so it is not scanned: a changed list whose
        support is known to be full is not queued, and a popped vertex
        with a full support is passed over.  The start queues every vertex
        and passes those over as they are popped, so it computes no
        support that a failing start would not have reached.  Only pops
        that change nothing are dropped, so the trail, the lists and seen
        are as if every vertex were scanned."""
        cand, adj, nbrs, trail = self.cand, self.adj, self.nbrs, self.trail
        supports, seen, full = self.supports, self.seen, self.full
        while queue:
            w = queue.pop()
            mask = cand[w]
            support = supports.get(mask)
            if support is None:
                support = 0
                for c in iter_bits(mask):
                    support |= adj[c]
                supports[mask] = support
            if support == full:
                continue
            for u in nbrs[w]:
                old = cand[u]
                new = old & support
                if new != old:
                    if not new:
                        return False
                    trail.append((u, old))
                    cand[u] = new
                    if new & (new - 1):
                        seen[new.bit_count()] |= 1 << u
                        if supports.get(new) == full:
                            continue
                    queue.append(u)
        return True

    def _pick(self, open_: int) -> int:
        """The open vertex with the fewest candidates, the lowest first.

        Scans seen[s] & open_ for s = 2, 3, ...; a smaller list would have
        been met at a smaller s, so a bit whose vertex has not s candidates
        has more, and is stale.  open_ is non-empty, so some s finds one."""
        cand, seen = self.cand, self.seen
        for s in range(2, len(seen)):
            found = seen[s] & open_
            while found:
                low = found & -found
                v = low.bit_length() - 1
                if cand[v].bit_count() == s:
                    return v
                seen[s] ^= low
                found ^= low

    def solutions(self):
        """Depth-first search, yielding each solution's colors in turn.

        Each frame of the explicit stack is one branch vertex: its colors
        left to try, the trail length to undo to, and the mask of vertices
        open (two or more candidates) when it was pushed, `open_` at the
        root.  A vertex with one candidate is assigned by propagation: it
        would have no other color to try, and under arc consistency its own
        propagation changes nothing.  After a color's propagation the
        vertices that it closed are read off the trail, so a try costs the
        changes it makes, not a pass over the frame's open vertices.  A
        caller that stops iterating stops the search there.
        """
        if not self.consistent:
            return
        cand, trail, open_ = self.cand, self.trail, self.open_
        self._tick(len(cand) - open_.bit_count())
        stack: list = []
        while open_ is not None:
            if not open_:
                yield tuple(c.bit_length() - 1 for c in cand)
            else:
                v = self._pick(open_)
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
                        # every change since the mark was made to an open
                        # list; those now down to one color are closed
                        closed = 0
                        for u, old in trail[mark:]:
                            if not cand[u] & (cand[u] - 1):
                                closed |= 1 << u
                        open_ = pushed & ~closed
                        self._tick(closed.bit_count() - 1)
                        break
                else:
                    stack.pop()


def decide(inst: Instance, hg: Graph,
           node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[bool, tuple[int, ...] | None]:
    """Decide list-homomorphism existence; returns (answer, witness or None).

    The last answer is kept on the instance's graph, next to its `nbrs`,
    keyed on copies of what the search reads: the lists, the target's n and
    adjacency, and the budget.  A call that repeats them on the same graph
    object, as on a kernel that kept its input's graph and lists, returns
    that answer without searching again.  The graph is never hashed, and a
    search that runs out of budget stores nothing.
    """
    key = tuple(inst.lists), hg.n, tuple(hg.adj), node_budget
    memo = vars(inst.graph)
    last = memo.get("_decided")
    if last is not None and last[0] == key:
        return last[1]
    colors = next(_Search(inst, hg, node_budget).solutions(), None)
    memo["_decided"] = key, (colors is not None, colors)
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
