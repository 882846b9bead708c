"""The application of decorations to embedded graphs.

The chambers of an embedded graph are the triangles of its barycentric
subdivision, one per flag (dart, side): each has an original vertex
(type 0), an edge midpoint (type 1) and a face center (type 2) as its
corners.  Applying a decoration puts a copy of it into every chamber,
mirrored in every other one, and identifies the copies along the sides
that neighbouring chambers share (``glued_orbits``, in closed form: a
pair of a chamber and a vertex on some sides is glued to the least
chamber of its orbit under those sides' involutions).  The result is
read off that gluing alone: its vertices are the glued type-0 classes,
and each glued type-1 class joins the type-0 ends of its two type-2
edges into one edge (``_links``).  ``apply_decoration`` adds the
rotations and builds the result without the decorated chamber system;
the classifier reads the orbit tables of ``glued_orbits`` directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .maps import MapError, PlaneGraph

if TYPE_CHECKING:
    from .decorations import Decoration


def glued_orbits(g: PlaneGraph, d: Decoration
                 ) -> tuple[list[tuple[int, int, int]], dict[int, int],
                            list[tuple[list[int], dict[int, list[int]]]]]:
    """One copy of the decoration per chamber of g, glued along shared
    sides.  Chambers are flags (dart, sign), numbered ``2 * dart + sign``;
    sign 1 holds the mirror image.  The pair (ch, x) is glued across side
    k, to (``nbrs[ch][k]``, x), exactly when x lies on side k, so its
    class is named by the least chamber of the orbit of ch under the
    involutions of the sides that hold x (``_least_in_orbit``, one table
    per host and set of sides).  Returns each chamber's neighbours across
    sides 0, 1 and 2, the side of each outer-walk edge (the one side that
    holds both its ends), and each decoration vertex's orbit table."""
    nbrs, tables = _host(g)
    on = d.facts.sides
    sides_of: list[tuple[int, ...]] = [()] * d.g.n
    for k in range(3):
        for x in on[k]:
            sides_of[x] += (k,)
    orbits = []
    for ks in sides_of:
        if ks not in tables:
            tables[ks] = _least_in_orbit(nbrs, ks)
        orbits.append(tables[ks])
    walk, org = d.g.faces[d.g.outer], d.g.org
    side_of_edge = {x >> 1: k for x in walk for k in range(3)
                    if org[x] in on[k] and org[x ^ 1] in on[k]}
    return nbrs, side_of_edge, orbits


def _glue(g: PlaneGraph, d: Decoration
          ) -> tuple[list[tuple[int, int, int]], dict[int, int], list[int],
                     list[int]]:
    """``glued_orbits`` with the glued class of every (chamber,
    decoration vertex) pair, indexed ``chamber * d.g.n + vertex`` and
    named by its smallest pair, in place of the orbit tables, and the
    number of classes of each decoration vertex (one per orbit)."""
    nbrs, side_of_edge, orbits = glued_orbits(g, d)
    n = d.g.n
    cls = [0] * (len(nbrs) * n)
    for x, (least, _) in enumerate(orbits):
        cls[x::n] = [ch * n + x for ch in least]
    return nbrs, side_of_edge, cls, [len(members) for _, members in orbits]


@lru_cache(maxsize=2)   # the classifier's tetrahedron, a chain's host
def _host(g: PlaneGraph
          ) -> tuple[list[tuple[int, int, int]], dict[tuple, tuple]]:
    """The neighbours of each chamber of g across sides 0, 1 and 2, and
    its orbit tables per set of sides (filled in by ``glued_orbits``)."""
    nbrs: list[tuple[int, int, int]] = []
    for dd in range(2 * g.ne):
        nbrs.append((2 * (dd ^ 1) + 1, 2 * g.nxt[dd] + 1, 2 * dd + 1))
        nbrs.append((2 * (dd ^ 1), 2 * g.prv[dd], 2 * dd))
    return nbrs, {}


def _least_in_orbit(nbrs: list[tuple[int, int, int]], ks: tuple[int, ...]
                    ) -> tuple[list[int], dict[int, list[int]]]:
    """Chamber -> the smallest chamber of its orbit under the involutions
    ``ch -> nbrs[ch][k]`` for k in ks, and that smallest chamber -> the
    orbit's chambers."""
    least = [-1] * len(nbrs)
    members: dict[int, list[int]] = {}
    for ch in range(len(nbrs)):
        if least[ch] < 0:
            least[ch] = ch
            orbit = members[ch] = [ch]
            for c in orbit:
                row = nbrs[c]
                for k in ks:
                    if least[row[k]] < 0:
                        least[row[k]] = ch
                        orbit.append(row[k])
    return least, members


def _links(g: PlaneGraph, d: Decoration):
    """The gluing of ``_glue`` and the edges of the result read off it.

    Each edge of the result is a glued type-1 class, which joins the
    type-0 ends of its two type-2 edges.  Returns the gluing once those
    ends are checked against the classes of each type, one per orbit of
    a vertex's table; raises ``MapError`` when the result would not be a
    loop-free graph.
    """
    nbrs, side_of_edge, cls, sizes = _glue(g, d)
    dg, vt, et = d.g, d.vt, d.et
    n = dg.n
    # type-2 edges as (type-0 end, type-1 end, side or None)
    t2 = []
    for e in range(dg.ne):
        if et[e] == 2:
            a, m = dg.edge_ends(e)
            if vt[a] == 1:
                a, m = m, a
            t2.append((a, m, side_of_edge.get(e)))
    # an edge on a side is counted in the lower of its two chambers
    ends: dict[int, list[int]] = {}
    for ch, row in enumerate(nbrs):
        base = ch * n
        for a, m, k in t2:
            if k is None or ch < row[k]:
                ends.setdefault(cls[base + m], []).append(cls[base + a])

    count = [sum(s for s, t in zip(sizes, vt) if t == k) for k in (0, 1)]
    if len({a for far in ends.values() for a in far}) != count[0]:
        raise MapError("type-0 vertex without type-2 edges")
    if count[1] != len(ends) or any(len(far) != 2 for far in ends.values()):
        raise MapError("type-1 vertex without exactly two type-2 edges")
    if any(a == b for a, b in ends.values()):
        raise MapError("extraction would create a loop")
    return nbrs, side_of_edge, cls


def apply_decoration(g: PlaneGraph, d: Decoration) -> PlaneGraph:
    """The graph obtained by decorating every chamber of g.

    It is read off the gluing.  A dart of the decoration lies on an
    inner face of the even chambers, and its reverse on one of the odd
    (mirrored) chambers, except on the sides, where it lies in only one
    chamber of each glued pair.  The vertices are the glued type-0
    classes, in order of first appearance on the inner faces, chamber by
    chamber; the rotation at a vertex starts at the first dart of those
    faces that has the vertex at one of its ends.  It steps around the
    vertex with ``nxt`` in even chambers and ``prv`` in odd ones, crosses
    a side into the neighbouring chamber on the same dart, and keeps the
    type-2 darts, each standing for the edge of its type-1 end's class.
    """
    nbrs, side_of_edge, cls = _links(g, d)
    dg, vt, et = d.g, d.vt, d.et
    n, org, outer, face_of = dg.n, dg.org, dg.outer, dg.face_of
    step = (dg.nxt, dg.prv)
    # per parity and dart, the side to cross where the dart lies on the
    # outer face of that parity's copy (-1 on an inner face)
    cross = [[side_of_edge[x >> 1] if face_of[x ^ p] == outer else -1
              for x in range(2 * dg.ne)] for p in (0, 1)]

    # per inner face and parity, the first dart of its walk that has the
    # face's type-0 corner at one of its ends, leaving the corner
    inner = [w for f, w in enumerate(dg.faces) if f != outer]
    mirrored = [[x ^ 1 for x in reversed(w)] for w in inner]
    firsts = [[next(y for x in w for y in (x, x ^ 1) if vt[org[y]] == 0)
               for w in walks] for walks in (inner, mirrored)]
    start: dict[int, tuple[int, int]] = {}
    for ch in range(len(nbrs)):
        base = ch * n
        for y in firsts[ch & 1]:
            if cls[base + org[y]] not in start:
                k = cross[ch & 1][y]
                start[cls[base + org[y]]] = (ch if k < 0 else nbrs[ch][k], y)

    # the dart of an edge at the end where the edge is met first is even
    first_dart: dict[int, int] = {}
    rows = []
    for ch0, x0 in start.values():
        row = []
        ch, x = ch0, x0
        while True:
            if et[x >> 1] == 2:
                m = cls[ch * n + org[x ^ 1]]
                if m in first_dart:
                    row.append(first_dart[m] + 1)
                else:
                    row.append(first_dart.setdefault(m, 2 * len(first_dart)))
            p = ch & 1
            x = step[p][x]
            if cross[p][x] >= 0:
                ch = nbrs[ch][cross[p][x]]
            if x == x0 and ch == ch0:
                break
        rows.append(row)
    return PlaneGraph(rows)
