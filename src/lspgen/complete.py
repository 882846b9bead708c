"""Completion of predecorations into decorations.

A completion fills every inner quadrangle with a degree-4 type-1 vertex,
optionally adds one degree-2 type-1 vertex in the outer face (which must
be v1), and covers outer-walk slots with degree-3 type-1 vertices, each
attached to three consecutive boundary vertices.  The choice of v1 is
enumerated up to the symmetry of the predecoration.  One depth-first
search per skeleton serves every choice: it adds degree-3 vertices in
slot order, and at most once puts a new v1 on the outer edge of a slot.
It screens a boundary vertex once no later slot can touch it
(`_corner_demand`, counted as for a vertex other than v1) and files each
cover under every choice it fits.  Being v1 saves a vertex at most one
corner, so a branch is cut at the fourth forced corner, or the third
once a new v1 is placed; it enters no branch that cannot reach the rate
window.  The screen decides validity alone: the disk is triangulated by
construction, and it is 2-connected when no vertex is left twice on the
outer walk.  The first cover set of each orbit under the v1 choice's
stabilizer becomes a disk, and the disk one completion record per
placement of v0 and v2, each with its 0 <-> 2 twin.  A record reads its
rate, its corner pairs and the facts of the class-1 rules off the
skeleton and the cover, so a count builds no map at k <= 2, where the
filter asks only "class 1 or not".  A record builds its Decoration
only for a sink that reads the graph: a visitor (identity codes, .deco
or planar_code output) or the class-2/3 gluing at cap 3.  Each disk's
map is built once, the same dart for dart whichever sink asks.

A chiral skeleton's mirror embedding is completed from the same search,
with the same automorphisms (mirroring keeps dart ids, and the skeleton
has only orientation-preserving ones).  Skeleton slot i (darts walk[i],
walk[i + 1]) is its slot at dart walk[i + 1] ^ 1, ("g", i) its "g"
choice at walk[i] ^ 1, and ("v", x) stays.  The search also files covers
under the preimages of its v1 choices, which it sorts in its own
coordinates.  The records of one v1 choice, cover (in the skeleton's
coordinates) and corner pair, the mirror's and the 0 <-> 2 twin among
them, share one verdict cell, which the classifier fills when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Callable, Iterable, Optional

# validate, decoration_identity: unused, kept for perfbench/spans.py
from .decorations import (Decoration, Facts, connectivity_class,
                          decoration_identity, swap02, validate,
                          walk_corner_pairs)
from .maps import PlaneGraph, freeze, vertex_mapping
from .predecorations import Predecoration, outer_vertex_occurrences

Choice = tuple[str, int]                       # ("v", vertex) or ("g", slot)
Covers = dict[Choice, list[tuple[int, ...]]]   # slot sets by v1 choice


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


@dataclass
class CompletionStats:
    """The completion funnel: cover searches (one per skeleton), mirrors
    completed from one, covers filed (over the v1 choices) and made into
    records (`built`, after the stabilizer dedup), decorations counted
    (`emitted`), verdicts computed (at k >= 2 only, one per cell, capped
    at k)."""
    searches: int = 0
    mirrored: int = 0
    covers: int = 0
    built: int = 0
    emitted: int = 0
    classified: int = 0


def _corner_demand(deg: int, left: int, is_v1: bool = False) -> int:
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
    """Completes one skeleton.  Search state: ``deg[v]``, the degree of v
    so far, fills included; ``left[v]``, its outer-walk occurrences not
    cut off by a degree-3 vertex; ``closing[b]``, the boundary vertices
    whose last slot (for a degree-3 vertex, or for v1 at a "g" choice) is
    b - 1; ``filed``, the covers found for each v1 choice."""

    def __init__(self, p: Predecoration, k: int, rmin: int, rmax: int,
                 auts: Optional[list[tuple[int, ...]]] = None):
        self.g = g = p.g
        self.k, self.rmin, self.rmax = k, rmin, rmax
        self.walk = walk = p.walk
        self.m = m = len(walk)
        # orientation-reversing symmetries must not be quotiented out:
        # they relate mirror completions, which are distinct decorations
        self.auts = auts = auts if auts is not None else [
            perm for perm, rev in p.automorphisms() if not rev]
        self.vmaps = [vertex_mapping(g, perm) for perm in auts]
        self.pos = pos = {d: i for i, d in enumerate(walk)}
        self.smaps = [[pos[perm[d]] for d in walk] for perm in auts]
        self.col = bipartition(g)
        self.occ = outer_vertex_occurrences(g)
        self.quads = [f for f in range(len(g.faces)) if f != g.outer]
        # the boundary vertices a degree-3 vertex at slot i attaches to;
        # the middle one is cut off from the outer face
        self.triples = [(g.org[walk[i]], g.org[walk[(i + 1) % m]],
                         g.org[walk[(i + 1) % m] ^ 1]) for i in range(m)]
        # each vertex's degree and type (of the first) once the fills are
        # in; the vertices that covers add are numbered from len(vt0)
        self.deg0 = [2 * g.degree(v) - self.occ.get(v, 0)
                     for v in range(g.n)] + [4] * len(self.quads)
        self.vt0 = tuple(2 * c for c in self.col) + (1,) * len(self.quads)
        self.cells: dict[tuple, list[int]] = {}   # verdict cells, by key
        self.pre: Optional[dict[Choice, Choice]] = None   # see `mirrored`

    @cached_property
    def t1(self) -> list[tuple[int, int, int]]:
        """The type-1 edges (id, type-0 end, type-2 end) of the first of
        each 0 <-> 2 pair, in the order the build numbers them."""
        g = self.g
        return [(e, *sorted(g.edge_ends(e), key=self.col.__getitem__))
                for e in dict.fromkeys(x >> 1 for v in range(g.n)
                                       for x in g.darts_at(v))]

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

    def mirrored(self) -> _Completer:
        """The mirror embedding's completer, with the automorphisms and
        verdict cells here.  Its `pre` and `back` map its v1 choices and
        slots to those here; `slot` is the inverse of `back`."""
        mirror = _Completer(Predecoration(self.g.mirrored()), self.k,
                            self.rmin, self.rmax, self.auts)
        mirror.cells, m, q = self.cells, self.m, mirror.walk
        mirror.back = [self.pos[q[(j + 1) % m] ^ 1] for j in range(m)]
        mirror.slot = sorted(range(m), key=mirror.back.__getitem__)
        mirror.pre = {c: c if c[0] == "v" else ("g", self.pos[q[c[1]] ^ 1])
                      for c in mirror.v1_choices()}
        return mirror

    # -- enumeration ---------------------------------------------------------

    def run(self, choices: list[Choice], covers: Covers,
            visitor: Optional[Callable[[Decoration], None]],
            stats: CompletionStats, tally: dict[int, int]) -> int:
        """Counts each decoration of this embedding once, by rate into
        `tally`, and visits it if a visitor is given; returns how many.

        An orientation-preserving symmetry fixing an outer dart is the
        identity, so a "g" choice has a trivial stabilizer; one fixing a
        "v" choice moves every walk occurrence of v1, and a valid cover
        keeps one, so only the identity fixes the cover.  Hence no two
        type flips or corner pairs of one cover coincide.  The 0 <-> 2
        flip keeps the degrees and the type-1 vertices, so the corner
        pairs; it is the dual operation, of the same class (see
        lspgen.classify), so each twin is counted with its first and
        takes its verdict cell."""
        before = stats.emitted
        for choice in choices:
            stab = [ai for ai in range(len(self.smaps))
                    if self._choice_image(choice, ai) == choice]
            covers_seen = set()
            stats.covers += len(covers[choice])
            for cover in covers[choice]:
                if len(stab) > 1:
                    key = min(tuple(sorted(self.smaps[ai][i] for i in cover))
                              for ai in stab)
                    if key in covers_seen:
                        continue
                    covers_seen.add(key)
                stats.built += 1
                firsts = self.records(choice, cover)
                if self.k > 1:
                    firsts = [r for r in firsts
                              if connectivity_class(r, self.k) >= self.k]
                if firsts:
                    rate = firsts[0].rate
                    tally[rate] = tally.get(rate, 0) + 2 * len(firsts)
                    stats.emitted += 2 * len(firsts)
                    if visitor is not None:
                        for r in firsts + [r.twin() for r in firsts]:
                            visitor(r.decoration)
        return stats.emitted - before

    def records(self, choice: Choice, cover: tuple[int, ...]
                ) -> list[Record]:
        """The first records of one cover (its first type assignment),
        one per corner pair, in the order the built map lists the pairs."""
        disk = _Disk(self, choice, cover)
        key = (choice, cover) if self.pre is None else (
            self.pre[choice], tuple(sorted(self.back[i] for i in cover)))
        cells = self.cells     # sorted pairs: a mirror image swaps v0, v2
        return [Record(disk, (v0, disk.v1, v2),
                       cells.setdefault((key, *sorted((v0, v2))), []))
                for v0, v2 in disk.pairs]

    def _demand(self, vertices: Iterable[int]) -> int:
        deg, left = self.deg, self.left
        return sum(_corner_demand(deg[v], left[v]) for v in vertices)

    def _covers(self, choices: list[Choice]) -> Covers:
        """The slot sets of degree-3 vertices that pass the degree screen
        with each of the choices as v1 and give a rate in [rmin, rmax], in
        depth-first order (the order of the sorted tuples)."""
        g, m, occ, triples = self.g, self.m, self.occ, self.triples
        self.deg = self.deg0[:]
        self.left = [occ.get(v, 0) for v in range(g.n)]
        self.vs = [x for kind, x in choices if kind == "v"]
        self.gslot = [("g", i) in choices for i in range(m)]
        self.ok = [len(set(t)) == 3 for t in triples]
        # the last slot that touches v, by a degree-3 vertex or by v1
        last = {v: i for i, t in enumerate(triples)
                for v in t[:3 if self.ok[i] else 2 * self.gslot[i]]}
        self.closing = closing = [[v for v in occ if last.get(v, -1) + 1 == b]
                                  for b in range(m + 2)]
        self.filed = {c: [] for c in choices}
        self._grow(0, (), self._demand(closing[0]), self._demand(occ), None)
        return {c: sorted(found) for c, found in self.filed.items()}

    def _grow(self, i: int, chosen: tuple[int, ...], forced: int,
              total: int, gs: Optional[int]) -> None:
        # the vertices closed before slot i force `forced` corners, all
        # boundary vertices `total`; gs is the slot of a new v1, if placed
        m, closing, deg, left = self.m, self.closing, self.deg, self.left
        rate = 4 * len(self.quads) + 2 * len(chosen) + (gs is not None)
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
        ok, gslot, cd = self.ok, self.gslot, _corner_demand
        for j in range(i, m):
            if j > i and closing[j]:
                forced += self._demand(closing[j])
                if forced > cut:
                    return
            # slot j is free; either placement there adds an edge at u and v
            u, v, w = self.triples[j]
            t = total - cd(deg[u], left[u]) - cd(deg[v], left[v])
            deg[u] += 1
            deg[v] += 1
            t += cd(deg[u], left[u]) + cd(deg[v], left[v])
            if gs is None and gslot[j] and forced <= 2:
                f = forced + self._demand(closing[j + 1])
                if f <= 2:
                    self._grow(j + 1, chosen, f, t, j)
            # a degree-3 vertex at the last slot also takes slot 0
            if cover and ok[j] and (j + 1 < m or 0 not in chosen[:1]
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


class _Disk:
    """The triangulated disk of one v1 choice and cover, what its records
    share.  Its outer walk, each step's type-1 edge, and every vertex's
    type (of the first) and degree are read off the cover as `built`
    makes them: a degree-3 vertex at slot i replaces walk vertex i + 1, a
    new v1 at slot i goes after walk vertex i, and added vertices are
    numbered after the fills, the cover's in slot order, then v1.  The
    built walk starts at its dart of least id, at the least skeleton
    vertex v on it: at the step into v if that step's reverse is v's
    least dart (first in v's row), else at v."""

    __slots__ = ("comp", "choice", "cover", "rate", "vt", "v1", "walk",
                 "steps", "pairs", "_built")

    def __init__(self, comp: _Completer, choice: Choice,
                 cover: tuple[int, ...]):
        self.comp, self.choice, self.cover = comp, choice, cover
        self._built = None
        g, walk, m, org = comp.g, comp.walk, comp.m, comp.g.org
        gs = choice[1] if choice[0] == "g" else None
        self.rate = 4 * len(comp.quads) + 2 * len(cover) + (gs is not None)
        self.vt = comp.vt0 + (1,) * (len(cover) + (gs is not None))
        deg = comp.deg0 + [3] * len(cover) + [2] * (gs is not None)
        new = dict(zip(sorted(cover), count(len(comp.vt0))))
        ends = [v for i in cover for v in comp.triples[i]]
        self.v1 = choice[1]
        if gs is not None:
            new[gs] = self.v1 = len(deg) - 1
            ends += comp.triples[gs][:2]
        for v in ends:
            deg[v] += 1
        cut = {(i + 1) % m for i in cover}
        verts, steps = [], []
        least = start = None
        for i, x in enumerate(walk):
            if i in cut:
                continue
            v = org[x]
            if least is None or v < least:
                least = v
                start = len(verts) - (walk[i - 1] ^ 1 == g.darts_at(v)[0])
            verts.append(v)
            if i in new:
                verts.append(new[i])
                steps += (None, None)
            else:
                steps.append(x >> 1)
        self.walk = tuple(verts[start:] + verts[:start])
        self.steps = tuple(steps[start:] + steps[:start])
        self.pairs = walk_corner_pairs(self.walk, self.vt, deg.__getitem__,
                                       self.v1)

    @property
    def built(self) -> tuple[PlaneGraph, tuple[int, ...], tuple[int, ...]]:
        """The map, with the vertex and edge types of the first."""
        if self._built is None:
            self._built = self._build()
        return self._built

    def _build(self) -> tuple[PlaneGraph, tuple[int, ...], tuple[int, ...]]:
        comp, choice, cover = self.comp, self.choice, self.cover
        g, walk, m = comp.g, comp.walk, comp.m
        rows = [list(g.darts_at(v)) for v in range(g.n)]
        fresh = count(0, 2)

        def attach(targets: list[tuple[int, int, bool]]) -> int:
            new = []     # new dart x is the token ~x, as in maps.freeze
            for v, anchor, after in targets:
                t = ~next(fresh)
                rows[v].insert(rows[v].index(anchor) + after, t)
                new.append(t ^ 1)
            rows.append(new)
            return len(rows) - 1

        for f in comp.quads:
            # walk dart x = (u -> v): fill edge enters at v, before x^1
            attach([(g.org[x ^ 1], x ^ 1, False) for x in g.faces[f]])
        for i in sorted(cover):
            d1, d2 = walk[i], walk[(i + 1) % m]
            u, v, w = g.org[d1], g.org[d2], g.org[d2 ^ 1]
            attach([(u, d1, True), (v, d2, True), (w, d2 ^ 1, False)])
        covered = {walk[j % m] for i in cover for j in (i, i + 1)}
        if choice[0] == "g":
            d = walk[choice[1]]
            covered.add(d)
            attach([(g.org[d], d, True), (g.org[d ^ 1], d ^ 1, False)])
        # fully covered boundary: the outer walk runs through the first
        # host token of the last attachment (u -> the new vertex)
        outer_token = next((d for d in walk if d not in covered),
                           rows[-1][0] ^ 1)
        built, _ = freeze(rows, outer_token)
        vt, org = self.vt, built.org
        et = tuple(3 - vt[a] - vt[b] for a, b in zip(org[::2], org[1::2]))
        return built, vt, et


class Record:
    """A completion record: one decoration as the completer makes it, from
    a disk, its corners and the verdict cell of its family; a first, or
    the 0 <-> 2 flipped twin of a first (`first`).  Its rate and class-1
    facts need no map; its Decoration is built when a sink reads the
    graph: `decoration`, or g, vt and et, which the gluing reads."""

    __slots__ = ("disk", "corners", "verdict", "first", "_facts", "_built")

    def __init__(self, disk: _Disk, corners: tuple[int, int, int],
                 verdict: list, first: Optional[Record] = None):
        self.disk, self.corners = disk, corners
        self.verdict, self.first = verdict, first
        self._facts = self._built = None

    @property
    def rate(self) -> int:
        return self.disk.rate

    def twin(self) -> Record:
        """The twin of a first."""
        return Record(self.disk, self.corners, self.verdict, self)

    @property
    def facts(self) -> Facts:
        if self._facts is None:
            disk, edges = self.disk, self.disk.comp.t1
            if self.first is not None:
                edges = [(e, y, a) for e, a, y in edges]
            self._facts = Facts(disk.walk, disk.steps, tuple(edges),
                                self.corners, disk.choice[0] == "g")
        return self._facts

    @property
    def decoration(self) -> Decoration:
        if self._built is None:
            self._built = (
                Decoration(*self.disk.built, self.corners, self.verdict)
                if self.first is None
                else swap02(self.first.decoration, self.verdict))
        return self._built

    g = property(lambda self: self.decoration.g)
    vt = property(lambda self: self.decoration.vt)
    et = property(lambda self: self.decoration.et)


def complete(p: Predecoration, k: int = 1, rmin: int = 1,
             rmax: Optional[int] = None,
             visitor: Optional[Callable[[Decoration], None]] = None,
             stats: Optional[CompletionStats] = None,
             tally: Optional[dict[int, int]] = None) -> int:
    """Counts every decoration with this type-1 skeleton exactly once
    (connectivity class >= k, rate within [rmin, rmax]), by rate into
    `tally` if given, and visits it if a visitor is given; returns the
    count and adds the funnel to `stats`.  Without a visitor nothing is
    built at k <= 2.

    A chiral skeleton hosts two disjoint mirror families of decorations;
    both its embeddings are completed, from one cover search and, since
    a mirror image keeps the class, one verdict cell per mirror pair.
    """
    if rmax is None:
        rmax = p.hi
    stats = stats if stats is not None else CompletionStats()
    tally = tally if tally is not None else {}
    comp = _Completer(p, k, rmin, rmax)
    choices = comp.v1_choices()
    mirror = comp.mirrored() if is_chiral(p) else None
    pre = mirror.pre.values() if mirror else ()
    covers = comp._covers(choices + [c for c in pre if c not in choices])
    stats.searches += 1
    count = comp.run(choices, covers, visitor, stats, tally)
    if mirror is not None:
        stats.mirrored += 1
        reflected = {c: sorted(tuple(sorted(mirror.slot[i] for i in cover))
                               for cover in covers[pc])
                     for c, pc in mirror.pre.items()}
        count += mirror.run(list(mirror.pre), reflected, visitor, stats,
                            tally)
    if k > 1:   # the filter fills each cell when the first record asks
        stats.classified += len(comp.cells)
    return count


def is_chiral(p: Predecoration) -> bool:
    """True when the predecoration has no orientation-reversing symmetry."""
    return not any(rev for _, rev in p.automorphisms())
