"""Completion of predecorations into decorations.

A completion fills every inner quadrangle with a degree-4 type-1 vertex,
optionally adds one degree-2 type-1 vertex in the outer face (which must
be v1), and covers outer-walk slots with degree-3 type-1 vertices, each
attached to three consecutive boundary vertices.  The choice of v1 and
the cover set are enumerated up to the symmetry of the predecoration;
both bipartition type assignments of the skeleton are emitted.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .decorations import (Decoration, connectivity_class, corner_pairs,
                          decoration_identity, validate)
from .maps import PlaneGraph, automorphisms_flagged, vertex_mapping
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


class _Completer:
    def __init__(self, p: Predecoration, k: int, rmin: int, rmax: int):
        self.p = p
        self.g = p.g
        self.k = k
        self.rmin = rmin
        self.rmax = rmax
        self.walk = p.walk
        self.m = len(self.walk)
        # orientation-reversing symmetries must not be quotiented out:
        # they relate mirror completions, which are distinct decorations
        flagged = automorphisms_flagged(self.g, "full")
        self.chiral = not any(rev for _, rev in flagged)
        self.auts = [a for a in flagged if not a[1]]
        self.vmaps = [vertex_mapping(self.g, perm) for perm, _ in self.auts]
        self.pos = {d: i for i, d in enumerate(self.walk)}
        self.col = bipartition(self.g)
        self.occ = outer_vertex_occurrences(self.g)
        self.fills = [self.g.degree(v) - self.occ.get(v, 0)
                      for v in range(self.g.n)]
        self.quads = [f for f in range(len(self.g.faces))
                      if f != self.g.outer]

    # -- symmetry ----------------------------------------------------------

    def _slot_image(self, i: int, ai: int) -> int:
        perm, rev = self.auts[ai]
        d = perm[self.walk[i]]
        return self.pos[d ^ 1 if rev else d]

    def _choice_image(self, choice: Choice, ai: int) -> Choice:
        kind, x = choice
        if kind == "v":
            return ("v", self.vmaps[ai][x])
        return ("g", self._slot_image(x, ai))

    def v1_choices(self) -> list[Choice]:
        cands: list[Choice] = [("v", v) for v in sorted(self.occ)]
        cands += [("g", i) for i in range(self.m)]
        reps = []
        seen = set()
        for c in cands:
            key = min(self._choice_image(c, ai)
                      for ai in range(len(self.auts)))
            if key not in seen:
                seen.add(key)
                reps.append(c)
        return reps

    def _stabilizer(self, choice: Choice) -> list[int]:
        return [ai for ai in range(len(self.auts))
                if self._choice_image(choice, ai) == choice]

    def _cover_key(self, cover: Iterable[int], ai: int) -> tuple:
        out = []
        for i in cover:
            js = (self._slot_image(i, ai),
                  self._slot_image((i + 1) % self.m, ai))
            out.append(tuple(sorted(js)))
        return tuple(sorted(out))

    # -- enumeration ---------------------------------------------------------

    def run(self, visitor: Callable[[Decoration], None]) -> int:
        emitted = 0
        seen_codes = set()
        base_rate = 4 * len(self.quads)
        if base_rate > self.rmax:
            return 0
        for choice in self.v1_choices():
            stab = self._stabilizer(choice)
            blocked = {choice[1]} if choice[0] == "g" else set()
            budget = (self.rmax - base_rate - len(blocked)) // 2
            covers_seen = set()
            for cover in self._cover_sets(blocked, budget):
                key = min(self._cover_key(cover, ai) for ai in stab)
                if key in covers_seen:
                    continue
                covers_seen.add(key)
                rate = base_rate + 2 * len(cover) + len(blocked)
                if not self.rmin <= rate <= self.rmax:
                    continue
                for d in self._build(choice, cover):
                    code = decoration_identity(d)
                    if code in seen_codes:
                        continue
                    seen_codes.add(code)
                    emitted += 1
                    visitor(d)
        return emitted

    def _cover_sets(self, blocked: set[int], budget: int
                    ) -> Iterable[frozenset]:
        g, walk, m = self.g, self.walk, self.m
        ok_pair = []
        for i in range(m):
            j = (i + 1) % m
            if i in blocked or j in blocked:
                ok_pair.append(False)
                continue
            u, v = g.org[walk[i]], g.org[walk[j]]
            w = g.org[walk[j] ^ 1]
            ok_pair.append(len({u, v, w}) == 3)
        out: list[frozenset] = []

        def rec(i: int, used: set[int], chosen: list[int]) -> None:
            out.append(frozenset(chosen))
            if len(chosen) >= budget:
                return
            for j in range(i, m):
                nj = (j + 1) % m
                if ok_pair[j] and j not in used and nj not in used:
                    used.add(j)
                    used.add(nj)
                    chosen.append(j)
                    rec(j + 2, used, chosen)
                    chosen.pop()
                    used.discard(j)
                    used.discard(nj)

        if budget >= 0:
            rec(0, set(), [])
        return out

    # -- construction --------------------------------------------------------

    def _feasible(self, choice: Choice, cover: frozenset) -> bool:
        """Cheap degree screen before building the candidate graph."""
        g, walk, m = self.g, self.walk, self.m
        added = [0] * g.n
        mid_cut = [0] * g.n
        for i in cover:
            j = (i + 1) % m
            added[g.org[walk[i]]] += 1
            added[g.org[walk[j]]] += 1
            added[g.org[walk[j] ^ 1]] += 1
            mid_cut[g.org[walk[j]]] += 1
        if choice[0] == "g":
            i = choice[1]
            added[g.org[walk[i]]] += 1
            added[g.org[walk[i] ^ 1]] += 1
        v1v = choice[1] if choice[0] == "v" else None
        need_corner = 0
        for v, cnt in self.occ.items():
            deg = g.degree(v) + self.fills[v] + added[v]
            left = cnt - mid_cut[v]
            if left == 0:
                if deg <= 4 or v == v1v:
                    return False
            elif v == v1v:
                if deg <= 2:
                    return False
            elif deg <= 3:
                need_corner += 1
        return need_corner <= 2

    def _build(self, choice: Choice, cover: frozenset
               ) -> Iterator[Decoration]:
        if not self._feasible(choice, cover):
            return
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

        covered = set()
        for i in cover:
            covered.add(walk[i])
            covered.add(walk[(i + 1) % m])
        if choice[0] == "g":
            covered.add(walk[choice[1]])
        outer_token = next((d for d in walk if d not in covered), None)
        if outer_token is None:
            # fully covered boundary: the outer walk runs through the
            # first host token of the last attachments (u -> new darts)
            outer_token = outer_candidates[-1]
        built, trans = s.freeze(outer_token)
        n_old = g.n

        for flip in (False, True):
            vt = tuple((self.col[v] ^ flip) * 2 if v < n_old else 1
                       for v in range(built.n))
            et = tuple(3 - vt[a] - vt[b]
                       for a, b in (built.edge_ends(e)
                                    for e in range(built.ne)))
            if validate(built, vt, et, v1_vertex):
                continue
            for v0, v2 in corner_pairs(built, vt, v1_vertex):
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
    return not any(rev for _, rev in automorphisms_flagged(p.g, "full"))


def decorations_from_state(p: Predecoration, v1_choice: Choice,
                           cover: frozenset) -> list[Decoration]:
    """Builds the decorations determined by one completion state.

    The state names the v1 choice (existing vertex or a boundary slot
    for the new degree-2 vertex) and the set of slots that receive
    degree-3 boundary vertices; quadrangle fills are implied.  Both type
    assignments and all corner placements are returned; an invalid state
    yields the empty list.
    """
    comp = _Completer(p, 1, 1, p.hi)
    return list(comp._build(v1_choice, cover))
