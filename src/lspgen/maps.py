"""Combinatorial maps for embedded graphs.

A plane (or higher-genus) embedded graph is stored as a rotation system on
darts (half-edges), built from its rows: ``rows[v]`` lists the darts at
vertex ``v`` in counterclockwise order.  Darts are the integers
``0 .. 2E-1``; the two darts of edge ``e`` are ``2e`` and ``2e+1``, so the
edge involution is ``d ^ 1``.  ``nxt[d]`` is the next dart
counterclockwise around the origin vertex of ``d``.  Faces are the orbits
of ``d -> prv[d ^ 1]``; with counterclockwise rotations this traverses
every face with the face on the *left* of each dart.  An optional
distinguished face is marked as the outer face.  A local rewrite edits a
copy of the rows and turns it into a new map with ``freeze``.

The module also provides plantri-style breadth-first canonical codes (with
optional vertex/edge label channels and an optional outer-face restriction),
with the starts that achieve them, and planar_code I/O.  A code is
read only from the starts whose first entries are least: at a vertex of
least label for a labelled code, and with the least first vertex row (for
a vertex with distinct neighbours, the least degree) for an unlabelled
one.  Each reading stops at its first vertex row larger than the best so
far, and starts that a known automorphism maps to a tested start are
skipped (see ``canonical_data``).  Start (d, mirror) sits at position
``mirror * 2E + d``, so each tie's automorphism acts on the starts by
arithmetic on its dart map, with no lookup table.  An unlabelled code is
stored on its graph.  Neighbour lists become dart rows in one walk that
finds each reverse dart on the neighbour's row.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

PLANAR_CODE_HEADER = b">>planar_code<<"
_ZERO_BASED = bytes((b - 1) % 256 for b in range(256))   # 1-based ids to 0-based


class MapError(ValueError):
    """Raised for structurally invalid rotation data."""


class PlaneGraph:
    """Immutable embedded multigraph given by a rotation system.

    ``PlaneGraph(rows, outer_dart)`` takes the darts at each vertex in
    counterclockwise order and stores each row starting at its least
    dart.  The rows must partition the darts ``0 .. 2E-1`` with no empty
    row; a loop, a disconnected graph or an impossible Euler
    characteristic is rejected too (``MapError``).  ``outer_dart`` marks
    the face on its left as the outer face.

    Attributes:
        n: number of vertices (ids ``0 .. n-1``).
        ne: number of edges; there are ``2 * ne`` darts.
        deg: tuple, vertex -> degree, built on first use.
        org: tuple, dart -> origin vertex.
        nxt: tuple, dart -> next dart counterclockwise around the origin.
        prv: tuple, inverse of ``nxt``.
        faces: tuple of dart tuples, one orbit of ``d -> prv[d ^ 1]`` each.
        face_of: tuple, dart -> face index.
        outer: index of the outer face, or None.
        genus: genus computed from the Euler formula.
    """

    __slots__ = ("n", "ne", "_deg", "org", "nxt", "prv", "faces", "face_of",
                 "outer", "genus", "_vdarts", "_readings")

    def __init__(self, rows: Sequence[Sequence[int]],
                 outer_dart: Optional[int] = None):
        nd = sum(map(len, rows))
        if nd == 0 or nd % 2:
            raise MapError("dart count must be positive and even")
        self.ne = nd // 2
        self.n = len(rows)
        org = [-1] * nd
        nxt = [0] * nd
        prv = [0] * nd
        vdarts = []
        for v, row in enumerate(rows):
            if not row:
                raise MapError(f"vertex {v} has no darts")
        try:
            for v, row in enumerate(rows):
                least = min(row)
                if least < 0:
                    raise MapError(f"negative dart {least}")
                i = row.index(least)
                row = tuple(row[i:] + row[:i])
                vdarts.append(row)
                e = least
                for d in reversed(row):
                    org[d] = v
                    nxt[d] = e
                    prv[e] = d
                    e = d
        except IndexError:
            raise MapError(f"dart out of range 0..{nd - 1}") from None
        if -1 in org:
            raise MapError("rows do not partition the darts")
        for d in range(0, nd, 2):
            if org[d] == org[d + 1]:
                raise MapError(f"loop at vertex {org[d]}")
        self.org = tuple(org)
        self.nxt = tuple(nxt)
        self.prv = tuple(prv)
        self._vdarts = tuple(vdarts)
        self._deg: Optional[tuple[int, ...]] = None

        face_of = [-1] * nd
        faces: list[tuple[int, ...]] = []
        for d in range(nd):
            if face_of[d] >= 0:
                continue
            orbit = []
            e = d
            while face_of[e] < 0:
                face_of[e] = len(faces)
                orbit.append(e)
                e = prv[e ^ 1]
            faces.append(tuple(orbit))
        self.faces = tuple(faces)
        self.face_of = tuple(face_of)

        euler = self.n - self.ne + len(faces)
        if euler % 2 or euler > 2:
            raise MapError(f"impossible Euler characteristic {euler}")
        self.genus = (2 - euler) // 2

        if not self._connected():
            raise MapError("graph is not connected")
        self.outer = None if outer_dart is None else self.face_of[outer_dart]
        self._readings = ()     # (mode, code, hits): see canonical_data

    def _connected(self) -> bool:
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for d in self._vdarts[v]:
                w = self.org[d ^ 1]
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n

    # -- basic accessors ---------------------------------------------------

    def head(self, d: int) -> int:
        return self.org[d ^ 1]

    def darts_at(self, v: int) -> tuple[int, ...]:
        return self._vdarts[v]

    @property
    def deg(self) -> tuple[int, ...]:
        if self._deg is None:
            self._deg = tuple(map(len, self._vdarts))
        return self._deg

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.org[d ^ 1] for d in self._vdarts[v])

    def edge_ends(self, e: int) -> tuple[int, int]:
        return self.org[2 * e], self.org[2 * e + 1]

    def has_edge(self, u: int, v: int) -> bool:
        return any(self.org[d ^ 1] == v for d in self._vdarts[u])

    def with_outer(self, face: Optional[int]) -> "PlaneGraph":
        return PlaneGraph(self._vdarts,
                          None if face is None else self.faces[face][0])

    def mirrored(self) -> "PlaneGraph":
        """The mirror image: all rotations reversed, same dart ids."""
        outer_dart = None
        if self.outer is not None:
            outer_dart = self.faces[self.outer][0] ^ 1
        return PlaneGraph([r[:1] + r[:0:-1] for r in self._vdarts],
                          outer_dart)

    def relabeled(self, new_of_old: Sequence[int]) -> "PlaneGraph":
        """Renames vertices; dart ids are renumbered by new vertex order."""
        order = sorted(range(2 * self.ne),
                       key=lambda d: (new_of_old[self.org[d]], d))
        # keep rev = ^1: number edges by first-seen dart
        new_id = [-1] * (2 * self.ne)
        k = 0
        for d in order:
            if new_id[d] < 0:
                new_id[d] = 2 * k
                new_id[d ^ 1] = 2 * k + 1
                k += 1
        rows: list[list[int]] = [[]] * self.n
        for v, row in enumerate(self._vdarts):
            rows[new_of_old[v]] = [new_id[d] for d in row]
        outer_dart = None
        if self.outer is not None:
            outer_dart = new_id[self.faces[self.outer][0]]
        return PlaneGraph(rows, outer_dart)

    def __repr__(self) -> str:
        return (f"PlaneGraph(n={self.n}, ne={self.ne}, "
                f"f={len(self.faces)}, genus={self.genus})")


def freeze(rows: Sequence[Sequence[int]], outer_token: int
           ) -> tuple[PlaneGraph, dict[int, int]]:
    """The map of rewritten rows and its token -> dart dict.

    ``rows[v]`` lists the dart *tokens* at vertex ``v`` counterclockwise;
    the reverse of token ``t`` is ``t ^ 1``.  A rewrite keeps each old
    dart's id as its token and writes its new dart ``x`` as ``~x``, which
    is no dart id and whose reverse is ``~x ^ 1 == ~(x ^ 1)``.  Darts are
    numbered by first appearance, row by row: the k-th token seen with
    its reverse unseen becomes dart ``2k`` and its reverse ``2k + 1``.
    The outer face is the face left of ``outer_token``.  Rows that miss
    some token's reverse raise ``MapError``.
    """
    trans: dict[int, int] = {}
    k = 0
    for row in rows:
        for t in row:
            if t not in trans:
                trans[t] = 2 * k
                trans[t ^ 1] = 2 * k + 1
                k += 1
    if 2 * k != sum(map(len, rows)):
        raise MapError("rows do not partition the darts")
    return PlaneGraph([[trans[t] for t in row] for row in rows],
                      trans[outer_token]), trans


def build_from_rotations(rotations: dict[int, Sequence[int]]) -> PlaneGraph:
    """Builds a PlaneGraph from per-vertex counterclockwise neighbor lists.

    Vertex ids may be arbitrary integers; they are densified in sorted
    order.  Each adjacency must appear on both endpoints with matching
    multiplicity.  Parallel edges are paired by the reversed-run rule
    (the k-th occurrence of ``v`` around ``u`` matches the (m-1-k)-th
    occurrence of ``u`` around ``v``), which requires the occurrences to
    be cyclically consecutive; other multi-edge patterns are rejected as
    ambiguous.  No outer face is marked.

    Args:
        rotations: mapping vertex -> neighbor list in ccw order.
    """
    ids = sorted(rotations)
    index = {u: i for i, u in enumerate(ids)}
    rots = []
    for u in ids:
        try:
            rots.append([index[w] for w in rotations[u]])
        except KeyError as exc:
            raise MapError(f"neighbor {exc.args[0]} of {u} is not a vertex")
    return _paired(rots)


def _paired(rots: Sequence[Sequence[int]]) -> PlaneGraph:
    """The map with neighbour rows ``rots`` (vertex ids ``0 .. n-1``): one
    walk over the dart positions, row by row, pairs each unpaired dart
    with its reverse on the neighbour's row as edge ``k`` (darts ``2k``,
    ``2k + 1``, edges in first-seen order).  The faults of the first row
    that has any are reported at its least neighbour."""
    if any(u in row for u, row in enumerate(rots)):
        raise MapError("loop present")
    starts = []
    total = 0
    for row in rots:
        starts.append(total)
        total += len(row)
    new_id = [-1] * total
    k = 0
    for u, row in enumerate(rots):
        s = starts[u]
        faults = []
        for i, w in enumerate(row):
            if new_id[s + i] >= 0:
                continue
            back = rots[w]
            if w > u and row.count(w) == 1 and back.count(u) == 1:
                j = starts[w] + back.index(u)
            else:
                try:
                    j = starts[w] + _parallel_mate(row, back, u, w, i)
                except MapError as exc:
                    faults.append((w, str(exc)))
                    continue
            new_id[s + i] = k
            new_id[j] = k + 1
            k += 2
        if faults:
            raise MapError(min(faults)[1])
    return PlaneGraph([new_id[s:s + len(row)]
                       for s, row in zip(starts, rots)])


def _parallel_mate(row: Sequence[int], back: Sequence[int], u: int, w: int,
                   i: int) -> int:
    """Where on ``back`` (w's row) the reverse of ``row[i]`` (u to w) is,
    by the reversed-run rule.  A dart to a smaller vertex that is still
    unpaired is one that vertex does not list."""
    m = row.count(w)
    if w < u or back.count(u) != m:
        raise MapError(f"inconsistent rotations between {u} and {w}")
    a, b = _run_start(row, w), _run_start(back, u)
    if a is None or b is None:
        raise MapError(f"ambiguous parallel edges between {u} and {w}")
    return (b + m - 1 - (i - a) % len(row)) % len(back)


def _run_start(row: Sequence[int], x: int) -> Optional[int]:
    """Where the cyclic run of ``x`` in ``row`` begins (0 when the row is
    all ``x``), or None when its occurrences are not consecutive."""
    heads = [i for i, y in enumerate(row) if y == x and row[i - 1] != x]
    return None if len(heads) > 1 else (heads or [0])[0]


def to_rotations(g: PlaneGraph) -> dict[int, list[int]]:
    """Per-vertex ccw neighbor lists with 1-based vertex ids."""
    return {v + 1: [g.org[d ^ 1] + 1 for d in g.darts_at(v)]
            for v in range(g.n)}


# -- canonical codes -------------------------------------------------------


def _bfs_code(g: PlaneGraph, d0: int, mirror: bool,
              vlab: Optional[Sequence[int]],
              elab: Optional[Sequence[int]],
              bound: Optional[list[int]] = None) -> Optional[list[int]]:
    """The BFS code from ``d0``, or None once a finished vertex row makes
    it larger than ``bound`` (all codes of one map have equal length)."""
    org = g.org
    step = g.prv if mirror else g.nxt
    lab = [0] * g.n
    entry = [0] * g.n
    order = [org[d0]]
    lab[org[d0]] = 1
    entry[org[d0]] = d0
    code = [g.n, g.ne]
    if vlab is not None:
        code.append(vlab[org[d0]])
    lo = qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        d = entry[v]
        while True:
            w = org[d ^ 1]
            if not lab[w]:
                order.append(w)
                lab[w] = len(order)
                entry[w] = d ^ 1
            code.append(lab[w])
            if elab is not None:
                code.append(elab[d >> 1])
            if vlab is not None:
                code.append(vlab[w])
            d = step[d]
            if d == entry[v]:
                break
        code.append(0)
        if bound is not None:
            new, old = code[lo:], bound[lo:len(code)]
            if new > old:
                return None
            if new < old:
                bound = None    # smaller from here on: nothing to compare
            lo = len(code)
    return code


def dart_sequence(g: PlaneGraph, d0: int, mirror: bool) -> list[int]:
    """The darts in the order the BFS code visits them (each exactly once):
    the rotation of each vertex from its entry dart, vertices in order."""
    step = g.prv if mirror else g.nxt
    seen = {g.org[d0]}
    seq = []
    entries = [d0]
    for e in entries:
        d = e
        while True:
            seq.append(d)
            if g.org[d ^ 1] not in seen:
                seen.add(g.org[d ^ 1])
                entries.append(d ^ 1)
            d = step[d]
            if d == e:
                break
    return seq


def _first_row_keys(g: PlaneGraph, order: Sequence[int]) -> list:
    """A key per position of ``order`` (see ``canonical_data``) that
    orders the starts as their first vertex rows do.  That row names the
    start vertex's neighbours by first appearance, from 2, so a vertex
    with distinct neighbours reads (2, ..., deg + 1, 0) from every start,
    and its degree is the key; only when some start vertex has a repeated
    neighbour is each start's row read."""
    nd = 2 * g.ne
    org = g.org
    at = [org[p % nd] for p in order]
    deg = {}    # 0 for a vertex with a repeated neighbour
    for v in set(at):
        row = g._vdarts[v]
        deg[v] = len(row) if len({org[d ^ 1] for d in row}) == len(row) else 0
    if all(deg.values()):
        return [deg[v] for v in at]
    return [_first_row(g, p % nd, p >= nd) for p in order]


def _first_row(g: PlaneGraph, d0: int, mirror: bool) -> tuple[int, ...]:
    """The first vertex row of the BFS code from ``d0``."""
    step = g.prv if mirror else g.nxt
    lab = {g.org[d0]: 1}
    row, d = [], d0
    while True:
        row.append(lab.setdefault(g.org[d ^ 1], len(lab) + 1))
        d = step[d]
        if d == d0:
            return (*row, 0)


def canonical_data(g: PlaneGraph, mode: str = "full",
                   vlab: Optional[Sequence[int]] = None,
                   elab: Optional[Sequence[int]] = None
                   ) -> tuple[tuple[int, ...], list[tuple[int, bool]]]:
    """Canonical code and every (start dart, mirror) pair achieving it,
    in the order the starts are read (counterclockwise ones first).

    mode "full" minimizes over both orientations, "oriented" over
    counterclockwise readings only.  When ``g.outer`` is set, start darts
    are restricted to the outer face, so equality of codes means
    isomorphism preserving the outer face.

    A code is abandoned at its first vertex row larger than the best so
    far.  Start ``(d, m)`` sits at position ``m * 2E + d``.  A start tying
    the best gives an automorphism gamma, the dart map from ``ref`` (the
    first best start) to it: on positions, gamma then gamma + 2E, halves
    swapped when it flips orientation.  A start is skipped when its orbit
    under the automorphisms found so far holds an earlier start.  Starts
    in one orbit have equal codes, and a start with the best code ties or
    lies in the orbit of one that tied, so the achieving pairs are the
    orbit of ``ref``, its first member.

    Only the starts whose code begins least are read.  With ``vlab`` a
    code begins ``[n, ne, vlab[start vertex]]``; with no labels it begins
    ``[n, ne]`` and the start's first vertex row, which ends in 0 while
    every label is at least 1, so two different first rows decide (see
    ``_first_row_keys``); with ``elab`` alone every start is read.  An
    automorphism keeps the kept starts, so the orbits, the hits and their
    order are those over every start.  A graph is immutable, so its
    unlabelled reading in each mode is computed once and stored.
    """
    if mode not in ("full", "oriented"):
        raise ValueError(f"unknown mode {mode!r}")
    unlabelled = vlab is None and elab is None
    if unlabelled:
        for m, known, hits in g._readings:
            if m == mode:
                return known, list(hits)
    nd = 2 * g.ne
    mirrors = (0, 1) if mode == "full" else (0,)
    if g.outer is None:
        order = range(len(mirrors) * nd)
    else:   # mirror readings of the outer face start on its reversed darts
        order = [m * nd + (d ^ m) for m in mirrors for d in g.faces[g.outer]]
    if vlab is not None or elab is None:    # keep the starts of least key
        keys = ([vlab[g.org[p % nd]] for p in order] if vlab is not None
                else _first_row_keys(g, order))
        least = min(keys)
        order = [p for p, key in zip(order, keys) if key == least]
    best: Optional[list[int]] = None
    ref = 0         # position of the first best start
    perms: list[list[int]] = []   # automorphisms found, on positions
    orbit: Optional[list[int]] = None   # position -> first start of orbit
    for p in order:
        if orbit is not None and orbit[p] != p:
            continue
        code = _bfs_code(g, p % nd, p >= nd, vlab, elab, best)
        if code is None:
            continue
        if best is None or code < best:
            best, ref = code, p
            continue
        gamma = _dart_map(g, (ref % nd, ref >= nd), (p % nd, p >= nd))
        shifted = [x + nd for x in gamma] if len(mirrors) == 2 else []
        perms.append(gamma + shifted if (p >= nd) == (ref >= nd)
                     else shifted + gamma)
        orbit = [-1] * len(mirrors) * nd
        for x in order:
            if orbit[x] < 0:
                orbit[x] = x
                queue = [x]
                for y in queue:
                    for q in perms:
                        z = q[y]
                        if orbit[z] < 0:
                            orbit[z] = x
                            queue.append(z)
    assert best is not None
    hits = [ref] if orbit is None else [p for p in order if orbit[p] == ref]
    canon, pairs = tuple(best), [(p % nd, p >= nd) for p in hits]
    if unlabelled:
        g._readings += ((mode, canon, tuple(pairs)),)
    return canon, pairs


def canonical_code(g: PlaneGraph, mode: str = "full",
                   vlab: Optional[Sequence[int]] = None,
                   elab: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    return canonical_data(g, mode, vlab, elab)[0]


def canonical_order(g: PlaneGraph, mode: str = "full",
                    vlab: Optional[Sequence[int]] = None,
                    elab: Optional[Sequence[int]] = None) -> list[int]:
    """new_of_old vertex relabeling induced by the canonical BFS."""
    _, hits = canonical_data(g, mode, vlab, elab)
    d0, mirror = hits[0]
    seq = dart_sequence(g, d0, mirror)
    new_of_old = [-1] * g.n
    k = 0
    for d in seq:
        v = g.org[d]
        if new_of_old[v] < 0:
            new_of_old[v] = k
            k += 1
    return new_of_old


def _dart_map(g: PlaneGraph, ref: tuple[int, bool],
              other: tuple[int, bool]) -> list[int]:
    """The dart map from the BFS visit order from the start ``ref`` to the
    one from ``other``, walking both in step (their codes are equal)."""
    gamma = [-1] * (2 * g.ne)
    sa, sb = (g.prv if mirror else g.nxt for _, mirror in (ref, other))
    seen = {g.org[ref[0]]}
    entries = [(ref[0], other[0])]
    for x, y in entries:
        while gamma[x] < 0:     # around the vertex, back to its entry
            gamma[x] = y
            if g.org[x ^ 1] not in seen:
                seen.add(g.org[x ^ 1])
                entries.append((x ^ 1, y ^ 1))
            x, y = sa[x], sb[y]
    return gamma


def random_relabeling(g: PlaneGraph, rng: random.Random) -> PlaneGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


def _articulation_or_disconnected(adj: list[list[int]],
                                  skip: int = -1) -> bool:
    """True when the graph minus `skip` is disconnected or has a cut
    vertex (iterative lowpoint computation)."""
    n = len(adj)
    left = n - (skip >= 0)
    if left <= 1:
        return False
    order = [-1] * n
    low = [0] * n
    if skip >= 0:
        order[skip] = n     # never entered, and never lowers a lowpoint
    root = 1 if skip == 0 else 0
    order[root] = 0
    count = 1
    root_children = 0
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        v, p, it = stack[-1]
        for w in it:
            if order[w] < 0:
                order[w] = low[w] = count
                count += 1
                stack.append((w, v, iter(adj[w])))
                break
            # the edge back to p lowers low[v] at most to order[p], which
            # the cut test below allows, so it needs no skipping
            if order[w] < low[v]:
                low[v] = order[w]
        else:
            stack.pop()
            if p == root:
                root_children += 1
            elif p >= 0:
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= order[p]:
                    return True
    return count != left or root_children >= 2


def vertex_connectivity_capped(g: PlaneGraph, cap: int = 3) -> int:
    """Vertex connectivity, capped (a graph is k-connected when it has
    more than k vertices and no separating set of fewer than k).

    A separating pair is looked for by removing each vertex and scanning
    the rest for a cut vertex.
    """
    n = g.n
    if n < 2:
        return 0
    adj = [list(dict.fromkeys(g.neighbors(v))) for v in range(n)]
    # a PlaneGraph is connected by construction
    if n == 2 or cap == 1 or _articulation_or_disconnected(adj):
        return min(cap, 1)
    if n == 3 or cap == 2:
        return 2
    for v in range(n):
        if _articulation_or_disconnected(adj, skip=v):
            return 2
    return 3


# -- planar_code -----------------------------------------------------------


def write_planar_code(graphs: Iterable[PlaneGraph], header: bool = True) -> bytes:
    """Encodes graphs in planar_code (unsigned bytes, ccw rotations).  A
    graph whose parallel edges `read_planar_code` cannot pair back (see
    `build_from_rotations`) raises MapError."""
    out = bytearray()
    if header:
        out += PLANAR_CODE_HEADER
    for g in graphs:
        if g.n > 255:
            raise MapError("planar_code supports at most 255 vertices")
        ends = set(zip(g.org[::2], g.org[1::2]))
        ends.update(zip(g.org[1::2], g.org[::2]))
        if len(ends) < 2 * g.ne:    # parallel edges: pair them as a reader
            try:
                _paired([[g.org[d ^ 1] for d in g.darts_at(v)]
                         for v in range(g.n)])
            except MapError as exc:
                raise MapError(f"planar_code cannot be read back: {exc}"
                               ) from None
        out.append(g.n)
        for v in range(g.n):
            for d in g.darts_at(v):
                out.append(g.org[d ^ 1] + 1)
            out.append(0)
    return bytes(out)


def read_planar_code(data: bytes) -> list[PlaneGraph]:
    """Decodes a planar_code byte stream (optional ASCII header)."""
    pos = len(PLANAR_CODE_HEADER) if data.startswith(PLANAR_CODE_HEADER) else 0
    graphs = []
    while pos < len(data):
        n = data[pos]
        pos += 1
        if n == 0:
            raise MapError("planar_code record with zero vertices")
        rows = []
        for _ in range(n):
            end = data.find(0, pos)
            row = data[pos:end] if end >= 0 else data[pos:]
            if row and max(row) > n:
                byte = next(b for b in row if b > n)
                raise MapError(f"vertex index {byte} out of range (n={n})")
            if end < 0:
                raise MapError("truncated planar_code stream")
            rows.append(row.translate(_ZERO_BASED))
            pos = end + 1
        graphs.append(_paired(rows))
    return graphs
