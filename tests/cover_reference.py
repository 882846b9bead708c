"""The cover search without a bound: the reference the bounded search in
``lspgen.complete`` is checked against.

It is the depth-first search as it stood before the per-skeleton demand
bound: it adds degree-3 vertices in slot order, puts a new v1 on the
outer edge of at most one slot, screens each boundary vertex once no
later slot can touch it, and cuts a branch only at the fourth forced
corner (the third once a new v1 is placed) or when the rate window is
out of reach.  It keeps its own copy of the corner demand, so it shares
no search code with what it checks; it reads only the completer's
skeleton data (walk, slot triples, degrees after the fills, rate window).
"""

from __future__ import annotations

from typing import Optional


def _corner_demand(deg: int, left: int, is_v1: bool = False) -> int:
    """The corners besides v1 that a screened boundary vertex must be;
    3 (more than there are) where it cannot be valid."""
    if left > 1:
        return 3
    if left == 0:
        return 3 if deg <= 4 or is_v1 else 0
    if is_v1:
        return 3 if deg <= 2 else 0
    return 1 if deg <= 3 else 0


class ReferenceSearch:
    """The covers of one completer's skeleton for the given v1 choices,
    each list in the order the search files it, and the nodes entered."""

    def __init__(self, comp, choices: list):
        g, m, occ, triples = comp.g, comp.m, comp.occ, comp.triples
        self.m, self.triples = m, triples
        self.rmin, self.rmax, self.quads = comp.rmin, comp.rmax, len(comp.quads)
        self.deg = list(comp.deg0)
        self.left = [occ.get(v, 0) for v in range(g.n)]
        self.vs = [x for kind, x in choices if kind == "v"]
        self.gslot = [("g", i) in choices for i in range(m)]
        self.ok = [len(set(t)) == 3 for t in triples]
        last = {v: i for i, t in enumerate(triples)
                for v in t[:3 if self.ok[i] else 2 * self.gslot[i]]}
        self.closing = [[v for v in occ if last.get(v, -1) + 1 == b]
                        for b in range(m + 2)]
        self.filed: dict = {c: [] for c in choices}
        self.grown = 0
        self._grow(0, (), self._demand(self.closing[0]), self._demand(occ),
                   None)

    def _demand(self, vertices) -> int:
        return sum(_corner_demand(self.deg[v], self.left[v])
                   for v in vertices)

    def _grow(self, i: int, chosen: tuple, forced: int, total: int,
              gs: Optional[int]) -> None:
        self.grown += 1
        m, closing, deg, left = self.m, self.closing, self.deg, self.left
        rate = 4 * self.quads + 2 * len(chosen) + (gs is not None)
        if rate + (m - i + 1) // 2 * 2 + 1 < self.rmin:
            return
        if self.rmin <= rate <= self.rmax:
            if gs is not None and total <= 2:
                self.filed[("g", gs)].append(chosen)
            elif gs is None and total <= 3:
                for x in self.vs:
                    if (total + _corner_demand(deg[x], left[x], True)
                            - _corner_demand(deg[x], left[x]) <= 2):
                        self.filed[("v", x)].append(chosen)
        if rate + 1 + (gs is not None) > self.rmax:
            return
        cover, cut = rate + 2 <= self.rmax, 3 if gs is None else 2
        cd = _corner_demand
        for j in range(i, m):
            if j > i and closing[j]:
                forced += self._demand(closing[j])
                if forced > cut:
                    return
            u, v, w = self.triples[j]
            t = total - cd(deg[u], left[u]) - cd(deg[v], left[v])
            deg[u] += 1
            deg[v] += 1
            t += cd(deg[u], left[u]) + cd(deg[v], left[v])
            if gs is None and self.gslot[j] and forced <= 2:
                f = forced + self._demand(closing[j + 1])
                if f <= 2:
                    self._grow(j + 1, chosen, f, t, j)
            # a degree-3 vertex at the last slot also takes slot 0
            if cover and self.ok[j] and (j + 1 < m or 0 not in chosen[:1]
                                         and gs != 0):
                t -= cd(deg[v], left[v]) + cd(deg[w], left[w])
                deg[w] += 1
                left[v] -= 1
                f = forced + self._demand(closing[j + 1] + closing[j + 2])
                if f <= cut:
                    t += cd(deg[v], left[v]) + cd(deg[w], left[w])
                    self._grow(j + 2, chosen + (j,), f, t, gs)
                left[v] += 1
                deg[w] -= 1
            deg[u] -= 1
            deg[v] -= 1
