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

Before it enters a branch, and before each slot it leaves empty, the
search asks a per-skeleton bound (`_bounds`) for the least number of
corners that the boundary vertices still open there must end with,
whatever the later slots take, and gives the branch up when the forced
corners and the bound exceed what it allows.  The bound is a backward
pass over the slots (one with slot 0 free, one with it taken) whose
state is what the slots before slot s add to walk vertices s and s + 1:
nothing, an edge at s, or a degree-3 vertex at s - 1 that cuts s off
and takes slot s; with and without a new v1 still to place, which then
counts as a corner.  It only relaxes the search, so it never gives up
a branch that files a cover: a vertex repeated on the outer walk counts
no corner, walk vertices 0 and 1 (which take edges from both ends of
the search) get the most that slots 0 and 1 can add, and the pass
ignores the rate, placing as many vertices as it likes.  Two checks
cover the repeated vertices: each must have all its occurrences but at
most one cut off, by one degree-3 vertex each, so the cuts still
needed must fit in the rate window, and each must keep enough slots
that can cut it off (`_stuck`).  The rate window stays with `_grow`.

The symmetry is the skeleton's rotations of its outer walk
(`Predecoration.moves`), each a shift r of walk positions.  A chiral
skeleton has no reflection, and its mirror embedding is completed from
the same search.  Mirroring keeps dart ids and reverses the walk: the
mirror's is q[j] = walk[c - j] ^ 1 with c = pos(q[0] ^ 1), so rotation r
is -r there, the mirror's slot j (darts q[j], q[j + 1]) is skeleton slot
c - 1 - j, its ("g", j) is ("g", c - j), and ("v", x) stays.  The search
also files covers under the preimages of its v1 choices, which it sorts
in its own coordinates.  The records of one v1 choice, cover (in the
skeleton's coordinates) and corner pair, the mirror's and the 0 <-> 2
twin among them, share one verdict cell, which the classifier fills
when asked.
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
from .maps import PlaneGraph, freeze
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
    at k); and the searches' nodes entered (`grown`) and children their
    bound refused (`cut`)."""
    searches: int = 0
    mirrored: int = 0
    covers: int = 0
    built: int = 0
    emitted: int = 0
    classified: int = 0
    grown: int = 0
    cut: int = 0


def _corner_demand(deg: int, left: int, is_v1: bool = False) -> int:
    """The corners besides v1 that a screened boundary vertex of degree
    `deg`, with `left` outer-walk occurrences not cut off, must be: one
    if its degree is <= 3; 4 (more than any branch allows) if it is left
    twice on the outer walk (a cut vertex), if it is cut off with degree
    <= 4 or as v1, or if it is v1 of degree <= 2."""
    if left > 1:
        return 4
    if left == 0:
        return 4 if deg <= 4 or is_v1 else 0
    if is_v1:
        return 4 if deg <= 2 else 0
    return 1 if deg <= 3 else 0


class _Completer:
    """Completes one skeleton.  Search state: ``deg[v]``, the degree of v
    so far, fills included; ``left[v]``, its outer-walk occurrences not
    cut off by a degree-3 vertex; ``closing[b]``, the boundary vertices
    whose last slot (for a degree-3 vertex, or for v1 at a "g" choice) is
    b - 1; ``filed``, the covers found for each v1 choice."""

    def __init__(self, p: Predecoration, k: int, rmin: int, rmax: int,
                 rots: Optional[list[int]] = None):
        self.g = g = p.g
        self.k, self.rmin, self.rmax = k, rmin, rmax
        self.walk = walk = p.walk
        self.m = m = len(walk)
        # orientation-reversing symmetries must not be quotiented out:
        # they relate mirror completions, which are distinct decorations;
        # rotation r moves walk position i to (i + r) % m
        self.rots = rots if rots is not None else [0] + [
            r for r, reflect in p.moves() if not reflect]
        # a walk position of each boundary vertex
        self.at = {g.org[d]: i for i, d in enumerate(walk)}
        self.col = bipartition(g)
        self.occ = outer_vertex_occurrences(g)
        self.quads = [f for f in range(len(g.faces)) if f != g.outer]
        # the boundary vertices a degree-3 vertex at slot i attaches to;
        # the middle one is cut off from the outer face
        self.triples = [(g.org[walk[i]], g.org[walk[(i + 1) % m]],
                         g.org[walk[(i + 1) % m] ^ 1]) for i in range(m)]
        # each vertex's degree and type (of the first) once the fills are
        # in; the vertices that covers add are numbered from len(vt0)
        self.deg0 = [2 * g.deg[v] - self.occ.get(v, 0)
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

    def _choice_image(self, choice: Choice, r: int) -> Choice:
        kind, x = choice
        if kind == "v":
            return ("v", self.g.org[self.walk[(self.at[x] + r) % self.m]])
        return ("g", (x + r) % self.m)

    def v1_choices(self) -> list[Choice]:
        cands: list[Choice] = [("v", v) for v in sorted(self.occ)]
        cands += [("g", i) for i in range(self.m)]
        reps, seen = [], set()
        for c in cands:
            key = min(self._choice_image(c, r) for r in self.rots)
            if key not in seen:
                seen.add(key)
                reps.append(c)
        return reps

    def mirrored(self) -> _Completer:
        """The mirror embedding's completer, with the verdict cells here.
        Its walk is this one reversed, q[j] = walk[c - j] ^ 1, so rotation
        r here is -r there.  Its `back` maps its slot j (darts q[j],
        q[j + 1]) to slot c - 1 - j here, its own inverse, and its `pre`
        its v1 choice ("g", j) to ("g", c - j) here."""
        m = self.m
        mirror = _Completer(Predecoration(self.g.mirrored()), self.k,
                            self.rmin, self.rmax, [-r % m for r in self.rots])
        mirror.cells = self.cells
        c = self.walk.index(mirror.walk[0] ^ 1)
        mirror.back = [(c - 1 - j) % m for j in range(m)]
        mirror.pre = {x: x if x[0] == "v" else ("g", (c - x[1]) % m)
                      for x in mirror.v1_choices()}
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
            stab = [r for r in self.rots
                    if self._choice_image(choice, r) == choice]
            covers_seen = set()
            stats.covers += len(covers[choice])
            for cover in covers[choice]:
                if len(stab) > 1:
                    key = min(tuple(sorted((i + r) % self.m for i in cover))
                              for r in stab)
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
        self.bounds = self._bounds(last)
        self.stuck = self._stuck(last)
        self.filed = {c: [] for c in choices}
        self.grown = self.cut = 0
        self._grow(0, (), self._demand(closing[0]), self._demand(occ), None,
                   sum(n - 1 for n in occ.values()))
        return {c: sorted(found) for c, found in self.filed.items()}

    def _bounds(self, last: dict[int, int]) -> tuple[tuple[list, list], ...]:
        """For each slot c, lower bounds on the corners that the boundary
        vertices still open at c must end with, whatever the slots from c
        on take: `bound` when the last placement ended at slot c - 1 and
        gave walk vertex c one edge, `skip` when slot c - 1 is left empty.
        Each is a pair (v1 placed, v1 open); a new v1 counts as a corner
        in the second.  One backward pass over the slots with slot 0
        free, one with slot 0 taken; the state at slot s is what the
        slots before s add to walk vertices s and s + 1: nothing, one
        edge at s, or a degree-3 vertex at s - 1 (s cut off, one edge at
        s + 1, slot s taken)."""
        m, org, occ, deg0 = self.m, self.g.org, self.occ, self.deg0
        ok, gslot = self.ok, self.gslot
        walk = [org[d] for d in self.walk]
        ends = [last.get(v, -1) for v in walk]
        # walk vertex p's demand with 0, 1 or 2 edges added, or cut off;
        # nothing for a vertex the pass leaves out: a repeated one, or one
        # closed before the slots next to it (for 0 and 1: before m - 1)
        terms = []
        for p, v in enumerate(walk):
            x, shut = deg0[v], ends[p] < (p - 1 if p > 1 else m - 1)
            terms.append((0, 0, 0, 0) if occ[v] > 1 or shut
                         else (x < 4, x < 3, x < 2, 4 * (x < 4)))
        # walk vertices 0 and 1 take edges from both ends of the search:
        # the pass starts, in each of its states at slot m, from the most
        # that slots 0 and 1 can add to them.  With slot 0 free, slot 1
        # may add an edge at 1; taken, slot 0 holds a degree-3 vertex
        # (cutting 1 off) or a new v1 (an edge at 1, and slot 1 may add
        # one), and either adds an edge at 0.
        w0, w1 = terms[0], terms[1]
        add = int(ok[1] or gslot[1])
        free = (w0[0] + w1[add], w0[1] + w1[add], w0[3] + w1[add + 1])
        one = min([w1[3]] * ok[0] + [w1[1 + ok[1]]] * gslot[0], default=0)
        taken = (w0[1] + one, w0[2] + one, 0)
        tables = []
        # with slot 0 taken, slot m - 1 cannot hold a degree-3 vertex
        for (e0, e1, ec), wraps in ((free, True), (taken, False)):
            if m < 4:
                e0 = e1 = ec = 0
            bound = [(0, 0)] * (m + 2)
            skip = bound[:]
            s0p = s0o = e0      # the states' values at slot c + 1
            s1p = s1o = e1
            scp = sco = ec
            for c in range(m - 1, -1, -1):
                t0, t1, t2, tc = terms[c] if c > 1 else (0, 0, 0, 0)
                p0, o0, p1, o1 = t0 + s0p, t0 + s0o, t1 + s0p, t1 + s0o
                if ok[c] and (wraps or c < m - 1):
                    p0 = p0 if p0 < t1 + scp else t1 + scp
                    o0 = o0 if o0 < t1 + sco else t1 + sco
                    p1 = p1 if p1 < t2 + scp else t2 + scp
                    o1 = o1 if o1 < t2 + sco else t2 + sco
                if gslot[c]:
                    o0 = o0 if o0 < t1 + 1 + s1p else t1 + 1 + s1p
                    o1 = o1 if o1 < t2 + 1 + s1p else t2 + 1 + s1p
                if ends[c] >= c:
                    bound[c], skip[c] = (p1, o1), (p0, o0)
                else:   # no slot from c on touches it: closed, and counted
                    bound[c] = skip[c] = (s0p, s0o)
                scp, sco = tc + s1p, tc + s1o
                s0p, s0o, s1p, s1o = p0, o0, p1, o1
            tables.append((bound, skip))
        return tuple(tables)

    def _stuck(self, last: dict[int, int]) -> tuple[list[list], list[list]]:
        """For each slot c, the vertices still open at c that the slots
        from c on might leave twice on the outer walk, each with one more
        than the number of those slots that can cut it off: with slot 0
        free, and with slot 0 taken (no degree-3 vertex at slot m - 1)."""
        m, ok, triples = self.m, self.ok, self.triples
        tables = [[] for _ in range(m + 2)], [[] for _ in range(m + 2)]
        for v, n in self.occ.items():
            if n == 1:
                continue
            cuts = [s for s in range(m) if ok[s] and triples[s][1] == v]
            for table, k in zip(tables, (len(cuts),
                                         len(cuts) - (m - 1 in cuts))):
                for c in range(last.get(v, -1) + 1):
                    k -= c - 1 in cuts
                    if k < n - 1:
                        table[c].append((v, k + 1))
        return tables

    def _grow(self, i: int, chosen: tuple[int, ...], forced: int,
              total: int, gs: Optional[int], need: int) -> None:
        # the vertices closed before slot i force `forced` corners, all
        # boundary vertices `total`; gs is the slot of a new v1, if placed;
        # `need` more degree-3 vertices must cut off repeated vertices
        self.grown += 1
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
        room = (self.rmax - rate) // 2      # degree-3 vertices still allowed
        if need > room or rate + 1 + (gs is not None) > self.rmax:
            return
        cover, cut = rate + 2 <= self.rmax, 3 if gs is None else 2
        new_v1 = gs is None and need <= (self.rmax - rate - 1) // 2
        ok, gslot, cd = self.ok, self.gslot, _corner_demand
        taken = 0 in chosen[:1] or gs == 0
        (bound, skip), stuck = self.bounds[taken], self.stuck[taken]
        open_ = int(gs is None)
        for j in range(i, m):
            if j > i:
                for x in closing[j]:
                    forced += cd(deg[x], left[x])
                # nothing this node can still reach files a cover
                if forced + skip[j][open_] > cut or stuck[j] and any(
                        left[x] > k for x, k in stuck[j]):
                    return
            v1 = new_v1 and gslot[j] and forced <= 2
            # a degree-3 vertex at the last slot also takes slot 0
            tri = cover and ok[j] and (j + 1 < m or 0 not in chosen[:1]
                                       and gs != 0)
            if not (v1 or tri):
                continue
            b = bound if j else self.bounds[True][0]     # slot 0 taken now
            # either placement at slot j adds an edge at u and v
            u, v, w = self.triples[j]
            du, dv = cd(deg[u], left[u]), cd(deg[v], left[v])
            deg[u] += 1
            deg[v] += 1
            if v1:
                f = forced
                for x in closing[j + 1]:
                    f += cd(deg[x], left[x])
                if f + b[j + 1][0] > 2 or stuck[j + 1] and any(
                        left[x] > k for x, k in stuck[j + 1]):
                    self.cut += 1
                else:
                    t = (total - du - dv + cd(deg[u], left[u])
                         + cd(deg[v], left[v]))
                    self._grow(j + 1, chosen, f, t, j, need)
            if tri:
                dw = cd(deg[w], left[w])
                deg[w] += 1
                n = need - (left[v] > 1)
                left[v] -= 1
                f = forced
                for x in closing[j + 1] + closing[j + 2]:
                    f += cd(deg[x], left[x])
                if (f + b[j + 2][open_] > cut or n >= room
                        or stuck[j + 2] and any(
                            left[x] > k for x, k in stuck[j + 2])):
                    self.cut += 1
                else:
                    t = (total - du - dv - dw + cd(deg[u], left[u])
                         + cd(deg[v], left[v]) + cd(deg[w], left[w]))
                    self._grow(j + 2, chosen + (j,), f, t, gs, n)
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
        self.pairs = walk_corner_pairs(self.walk, self.vt, deg, self.v1)

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
    stats.grown += comp.grown
    stats.cut += comp.cut
    count = comp.run(choices, covers, visitor, stats, tally)
    if mirror is not None:
        stats.mirrored += 1
        reflected = {c: sorted(tuple(sorted(mirror.back[i] for i in cover))
                               for cover in covers[pc])
                     for c, pc in mirror.pre.items()}
        count += mirror.run(list(mirror.pre), reflected, visitor, stats,
                            tally)
    if k > 1:   # the filter fills each cell when the first record asks
        stats.classified += len(comp.cells)
    return count


def is_chiral(p: Predecoration) -> bool:
    """True when the predecoration has no orientation-reversing symmetry."""
    return not any(reflect for _, reflect in p.moves())
