"""Completion of predecorations into decorations.

A completion fills every inner quadrangle with a degree-4 type-1 vertex,
optionally adds one degree-2 type-1 vertex in the outer face (which must
be v1), and covers outer-walk slots with degree-3 type-1 vertices, each
attached to three consecutive boundary vertices.  The choice of v1 is
enumerated up to the symmetry of the predecoration.  For each choice a
depth-first search adds degree-3 vertices in slot order.  It screens a
boundary vertex once no later slot can touch it (`_corner_demand`), cuts
a branch at the first vertex that fails or the third forced corner, and
enters no branch that cannot reach the rate window.  The screen decides
validity alone: the disk is triangulated by construction, and it is
2-connected when no vertex is left twice on the outer walk.  The first
cover set of each orbit under the v1 choice's stabilizer is built, with
both bipartition type assignments and every placement of v0 and v2.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

# validate, decoration_identity: unused, kept for perfbench/spans.py
from .decorations import (Decoration, connectivity_class, corner_pairs,
                          decoration_identity, validate)
from .maps import PlaneGraph, vertex_mapping
from .predecorations import Predecoration, outer_vertex_occurrences
from .surgery import Surgeon

Choice = tuple[str, int]                       # ("v", vertex) or ("g", slot)


def bipartition(g: PlaneGraph) -> list[int]:
    col = [-1] * g.n
    col[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for d in g.darts_at(v):
            w = g.org[d ^ 1]
            if col[w] < 0:
                col[w] = 1 - col[v]
                stack.append(w)
            elif col[w] == col[v]:
                raise ValueError("predecoration is not bipartite")
    return col


def _corner_demand(deg: int, left: int, is_v1: bool) -> int:
    """The corners besides v1 that a screened boundary vertex of degree
    `deg`, with `left` outer-walk occurrences not cut off, must be: one
    if its degree is <= 3; 3 (more than there are) if it is left twice
    on the outer walk (a cut vertex), if it is cut off with degree <= 4
    or as v1, or if it is v1 of degree <= 2."""
    if left > 1:
        return 3
    if left == 0:
        return 3 if deg <= 4 or is_v1 else 0
    if is_v1:
        return 3 if deg <= 2 else 0
    return 1 if deg <= 3 else 0


class _Completer:
    """Completes one skeleton.  Search state for a v1 choice: ``deg[v]``,
    the degree of v so far; ``left[v]``, its outer-walk occurrences not
    cut off by a degree-3 vertex; ``used``, the slots taken;
    ``closing[b]`` and ``open[b]``, the boundary vertices whose last slot
    is b - 1 and b or later; ``fewest`` and ``most``, the numbers of
    degree-3 vertices the rate window allows."""

    def __init__(self, p: Predecoration, k: int, rmin: int, rmax: int):
        self.g = g = p.g
        self.k, self.rmin, self.rmax = k, rmin, rmax
        self.walk = walk = p.walk
        self.m = m = len(walk)
        # orientation-reversing symmetries must not be quotiented out:
        # they relate mirror completions, which are distinct decorations
        self.chiral = is_chiral(p)
        auts = [perm for perm, rev in p.automorphisms() if not rev]
        self.vmaps = [vertex_mapping(g, perm) for perm in auts]
        pos = {d: i for i, d in enumerate(walk)}
        self.smaps = [[pos[perm[d]] for d in walk] for perm in auts]
        self.col = bipartition(g)
        self.occ = outer_vertex_occurrences(g)
        self.quads = [f for f in range(len(g.faces)) if f != g.outer]
        # the boundary vertices a degree-3 vertex at slot i attaches to;
        # the middle one is cut off from the outer face
        self.triples = [(g.org[walk[i]], g.org[walk[(i + 1) % m]],
                         g.org[walk[(i + 1) % m] ^ 1]) for i in range(m)]

    # -- symmetry ----------------------------------------------------------

    def _choice_image(self, choice: Choice, ai: int) -> Choice:
        kind, x = choice
        if kind == "v":
            return ("v", self.vmaps[ai][x])
        return ("g", self.smaps[ai][x])

    def v1_choices(self) -> list[Choice]:
        cands: list[Choice] = [("v", v) for v in sorted(self.occ)]
        cands += [("g", i) for i in range(self.m)]
        reps, seen = [], set()
        for c in cands:
            key = min(self._choice_image(c, ai)
                      for ai in range(len(self.smaps)))
            if key not in seen:
                seen.add(key)
                reps.append(c)
        return reps

    def _stabilizer(self, choice: Choice) -> list[int]:
        return [ai for ai in range(len(self.smaps))
                if self._choice_image(choice, ai) == choice]

    # -- enumeration ---------------------------------------------------------

    def run(self, visitor: Callable[[Decoration], None]) -> int:
        """Visits each decoration of this embedding once; returns how many.

        An orientation-preserving symmetry fixing an outer dart is the
        identity, so a "g" choice has a trivial stabilizer; one fixing a
        "v" choice moves every walk occurrence of v1, and a valid cover
        keeps one, so only the identity fixes the cover.  Hence no two
        type flips or corner pairs of one build coincide."""
        visited = 0
        for choice in self.v1_choices():
            stab = self._stabilizer(choice)
            covers_seen = set()
            for cover in self._cover_sets(choice):
                if len(stab) > 1:
                    key = min(tuple(sorted(self.smaps[ai][i] for i in cover))
                              for ai in stab)
                    if key in covers_seen:
                        continue
                    covers_seen.add(key)
                for d in self._build(choice, cover):
                    visitor(d)
                    visited += 1
        return visited

    def _start(self, choice: Choice) -> None:
        """Search state for a v1 choice with no degree-3 vertex placed."""
        g = self.g
        self.v1 = choice[1] if choice[0] == "v" else None
        self.deg = [2 * g.degree(v) - self.occ.get(v, 0)
                    for v in range(g.n)]          # skeleton plus fills
        self.left = [self.occ.get(v, 0) for v in range(g.n)]
        self.used = [False] * self.m
        if choice[0] == "g":
            d = self.walk[choice[1]]
            self.deg[g.org[d]] += 1
            self.deg[g.org[d ^ 1]] += 1
            self.used[choice[1]] = True

    def _place(self, i: int, step: int) -> None:
        """Adds (step 1) or removes (step -1) the degree-3 vertex at i."""
        u, v, w = self.triples[i]
        self.deg[u] += step
        self.deg[v] += step
        self.deg[w] += step
        self.left[v] -= step
        self.used[i] = self.used[(i + 1) % self.m] = step > 0

    def _demand(self, vertices: Iterable[int]) -> int:
        deg, left, v1 = self.deg, self.left, self.v1
        return sum(_corner_demand(deg[v], left[v], v == v1)
                   for v in vertices)

    def _cover_sets(self, choice: Choice) -> Iterator[tuple[int, ...]]:
        """The slot sets of degree-3 vertices that pass the degree screen
        and give a rate in [rmin, rmax], in depth-first order."""
        self._start(choice)
        m, used = self.m, self.used
        extra = 4 * len(self.quads) + (choice[0] == "g")
        self.fewest = max(0, -((extra - self.rmin) // 2))
        self.most = (self.rmax - extra) // 2
        self.ok = [len(set(t)) == 3 and not used[i] and
                   not used[(i + 1) % m] for i, t in enumerate(self.triples)]
        last = {v: i for i, t in enumerate(self.triples) if self.ok[i]
                for v in t}
        self.closing = [[v for v in self.occ if last.get(v, -1) == b - 1]
                        for b in range(m + 2)]
        self.open = [sum(self.closing[b + 1:], []) for b in range(m + 2)]
        forced = self._demand(self.closing[0])
        if self.fewest <= self.most and forced <= 2:
            yield from self._extend(0, [], forced)

    def _extend(self, i: int, chosen: list[int], forced: int
                ) -> Iterator[tuple[int, ...]]:
        # the vertices closed before slot i force `forced` corners
        m, n, used, closing = self.m, len(chosen), self.used, self.closing
        if n + (m - i + 1) // 2 < self.fewest:
            return
        if n >= self.fewest and forced + self._demand(self.open[i]) <= 2:
            yield tuple(chosen)
        if n >= self.most:
            return
        for j in range(i, m):
            if j > i and closing[j]:
                forced += self._demand(closing[j])
                if forced > 2:
                    return
            if self.ok[j] and not used[j] and not used[(j + 1) % m]:
                self._place(j, 1)
                chosen.append(j)
                f = forced + self._demand(closing[j + 1] + closing[j + 2])
                if f <= 2:
                    yield from self._extend(j + 2, chosen, f)
                chosen.pop()
                self._place(j, -1)

    # -- construction --------------------------------------------------------

    def _build(self, choice: Choice, cover: Iterable[int]
               ) -> Iterator[Decoration]:
        g, walk, m = self.g, self.walk, self.m
        s = Surgeon(g)
        outer_candidates: list[int] = []

        def attach(targets: list[tuple[int, int, bool]]) -> int:
            toks = []
            for v, anchor, after in targets:
                t, tr = s.fresh_pair()
                if after:
                    s.insert_after(v, anchor, [t])
                else:
                    s.insert_before(v, anchor, [t])
                toks.append(tr)
            outer_candidates.append(toks[0] ^ 1)
            return s.new_vertex(toks)

        for f in self.quads:
            # walk dart x = (u -> v): fill edge enters at v, before x^1
            attach([(g.org[x ^ 1], x ^ 1, False) for x in g.faces[f]])
        for i in sorted(cover):
            d1, d2 = walk[i], walk[(i + 1) % m]
            u, v, w = g.org[d1], g.org[d2], g.org[d2 ^ 1]
            attach([(u, d1, True), (v, d2, True), (w, d2 ^ 1, False)])
        if choice[0] == "g":
            d = walk[choice[1]]
            u, v = g.org[d], g.org[d ^ 1]
            v1_vertex = attach([(u, d, True), (v, d ^ 1, False)])
        else:
            v1_vertex = choice[1]

        covered = {walk[j % m] for i in cover for j in (i, i + 1)}
        if choice[0] == "g":
            covered.add(walk[choice[1]])
        outer_token = next((d for d in walk if d not in covered), None)
        if outer_token is None:
            # fully covered boundary: the outer walk runs through the
            # first host token of the last attachments (u -> new darts)
            outer_token = outer_candidates[-1]
        built, trans = s.freeze(outer_token)
        vts = [tuple((self.col[v] ^ flip) * 2 if v < g.n else 1
                     for v in range(built.n)) for flip in (False, True)]
        # the 0 <-> 2 flip keeps the degrees and the type-1 vertices
        pairs = corner_pairs(built, vts[0], v1_vertex)
        for vt in vts:
            et = tuple(3 - vt[a] - vt[b]
                       for a, b in (built.edge_ends(e)
                                    for e in range(built.ne)))
            for v0, v2 in pairs:
                d = Decoration(built, vt, et, (v0, v1_vertex, v2))
                # every decoration has class >= 1: k=1 filters nothing
                if self.k == 1 or connectivity_class(d) >= self.k:
                    yield d


def complete(p: Predecoration, k: int = 1, rmin: int = 1,
             rmax: Optional[int] = None,
             visitor: Optional[Callable[[Decoration], None]] = None) -> int:
    """Visits every decoration with this type-1 skeleton exactly once
    (connectivity class >= k, rate within [rmin, rmax]); returns the count.

    A chiral skeleton hosts two disjoint mirror families of decorations;
    both its embeddings are completed.
    """
    if rmax is None:
        rmax = p.hi
    sink = visitor if visitor is not None else (lambda d: None)
    comp = _Completer(p, k, rmin, rmax)
    count = comp.run(sink)
    if comp.chiral:
        count += _Completer(Predecoration(p.g.mirrored()),
                            k, rmin, rmax).run(sink)
    return count


def is_chiral(p: Predecoration) -> bool:
    """True when the predecoration has no orientation-reversing symmetry."""
    return not any(rev for _, rev in p.automorphisms())
