"""Connectivity class of a decoration.

The class of a decoration is the connectivity k in {1, 2, 3} of the
operation it defines, read off the defining tiling: the decoration
pasted into every chamber, mirrored across every side.  It is computed
as the vertex connectivity, capped at 3, of the decoration applied to
the tetrahedron (``tetrahedron_class``).  Around each of its points the
tetrahedron has the fewest chambers a polyhedron allows (six around
vertices and faces, four around edge midpoints), so a short cycle that
winds around a point in some polyhedral application also appears on it.

The type-1 subgraph of the tiling is the vertex-face incidence graph of
the result.  A type-1 2-cycle is a vertex met twice by one face, a cut
vertex; a type-1 4-cycle with vertices of type 0 or 2 on both sides is
a separating pair.  Two facts about plane graphs (Mohar & Thomassen,
*Graphs on Surfaces*, 2001, ch. 2) decide the class in the star of a
type-0 vertex a:

* in a connected plane graph, a vertex is a cut vertex exactly when it
  occurs twice on some face walk: class 1 if a has two type-1 edges to
  one face;
* in a 2-connected plane graph G, b is a cut vertex of G - a exactly
  when it occurs twice on the walk of the face that merges the faces
  around a: class 2 if (faces around a through b) - (edges a-b) >= 2.

Otherwise the class is 3.  The operation keeps every symmetry of the
tetrahedron, whose group of order 24 acts regularly on the chambers,
so every cut vertex, separating pair or loop of the result is the
image of one at a vertex of chamber 0, and only those are tried.

Class 1 is decided on the decoration alone (``_face_twice``), from
its ``facts``, which a completion record supplies without a map.  The
chambers are the elements of the tetrahedron's reflection group W; the
copies of a decoration vertex x glued into one class form a coset of
W_S(x), the parabolic subgroup of the sides S(x) through x, and those of
a type-1 edge e one of W_S(e), with S(e) = {k} along side k and empty
otherwise.  As W_I & W_J = W_(I & J) (Humphreys, *Reflection Groups and
Coxeter Groups*, 1990, 5.5), a type-1 edge a-y gives |W_(S(a) & S(y))|
/ |W_S(e)| incidences of a in chamber 0 with each face of y it meets,
and two vertices share at most one side.  So a meets a face twice
exactly when two type-1 edges join a to one y, or one joins a to a y on
its side k without lying along k (its mirror image across k is a second
edge to that face).  This counts the gluing, not the result, so it also
sees a loop at a, which puts a twice on the face beside it: no
application exists then, but the class is 1 all the same.  Class 2 is
read off the orbit tables of ``chambers.glued_orbits`` (the faces are
the glued type-2 classes, a glued type-1 class joins the ends of its
two type-2 edges), and only at cap 3: the k=2 filter needs no more
than "class 1 or not".

One calibration comes first, ``_corner_axis_branch``, fitted to the
published 2-connectivity column, not a consequence of the definition
above.  The decorations that only it puts in class 1 have no type-1
2-cycle in any application to a 2-connected plane graph with at least
three vertices (two chambers of such a host share two points only
across a common side), and their applications to the Platonic solids
have no cut vertex.  The published column counts them as 1-connected
nonetheless; the paper's own statement of its 2-connectivity test is
not in this repository.  The calibration gives the published k=2
column up to rate 12 and too few class-1 decorations from rate 13 on.

The 0 <-> 2 type flip ``decorations.swap02`` (the dual operation;
Brinkmann, Goetschalckx & Schein, Proc. R. Soc. A 473 (2017) 20170267)
keeps the class, and the two records of each flipped pair that
``lspgen.complete`` makes share one verdict.  The calibration reads
only the type-1 edges, the sides and whether v1 has type 1, which the
flip keeps.  Applying ``swap02(d)`` to the self-dual tetrahedron gives
the dual of applying d, and duality keeps 2- and 3-connectedness of
plane graphs.  Checked on all 3,160 decorations up to rate 14.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .chambers import glued_orbits
# vertex_connectivity_capped is unused here; perfbench/spans.py traces it
from .maps import PlaneGraph, build_from_rotations, vertex_connectivity_capped


@lru_cache(maxsize=1)
def _tetrahedron() -> PlaneGraph:
    return build_from_rotations(
        {1: [2, 3, 4], 2: [1, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2]})


def _corner_axis_branch(d) -> bool:
    """A corner lying between two type-1 boundary edges and carrying an
    internal type-1 edge into the interior.

    Such a corner sits on mirror axes that the type-1 structure follows
    on both sides; the published counts treat the defined operation as
    1-connected, although no 2-connected plane host with three or more
    vertices shows it a cut vertex.  The rule is calibrated against the
    count tables, not derived (exact for rates up to 12, known to be
    incomplete at 13+).  It reads ``d.facts`` (a decoration's or a
    completion record's)."""
    f = d.facts
    v0, v1, v2 = f.corners
    walk, steps = f.walk, f.steps
    outer_edges = f.outer
    on_walk = set(walk)
    neigh: dict[int, set[int]] = {}
    flank_ok = set()
    for i, v in enumerate(walk):
        if steps[i] is not None and steps[i - 1] is not None:
            flank_ok.add(v)
            neigh.setdefault(v, set()).update(
                (walk[(i + 1) % len(walk)], walk[i - 1]))

    def inner_branch(c: int) -> bool:
        return any(e not in outer_edges and (y if a == c else a) not in on_walk
                   for e, a, y in f.edges if c in (a, y))

    if not f.v1_type1:
        return (v1 in flank_ok and neigh[v1] == {v0, v2}
                and inner_branch(v1))
    for c, other in ((v0, v2), (v2, v0)):
        if c in flank_ok and other in neigh[c] and inner_branch(c):
            return True
    return False


def connectivity_class_of(d, cap: int = 3) -> int:
    """The class of a (rooted) decoration, 1, 2 or 3, capped at cap.  A
    verdict cell [v, c] on it (see ``lspgen.complete``) answers every cap
    if v < c, and caps up to c otherwise; an empty one is filled."""
    cell = d.verdict
    if cell and (cell[0] < cell[1] or cap <= cell[1]):
        return min(cell[0], cap)
    v = 1 if _corner_axis_branch(d) else tetrahedron_class(d, cap)
    if cell is not None:
        cell[:] = v, cap
    return v


def tetrahedron_class(decoration, cap: int = 3) -> int:
    """The vertex connectivity, capped at cap and at 3, of the decoration
    applied to the tetrahedron (1 where a result edge would be a loop):
    connected, with at least four vertices (a type-0 vertex of the
    decoration glues into four classes or more), so the small cases of
    ``maps.vertex_connectivity_capped`` never arise."""
    return _tetrahedron_witness(decoration, cap)[0]


def _face_twice(d) -> tuple[int, int] | None:
    """A type-0 vertex a and a type-2 vertex y such that a occurs twice
    on y's face in chamber 0 (the module docstring's rule), or None.  It
    reads ``d.facts`` (a decoration's or a completion record's)."""
    f = d.facts
    outer_edges, sides = f.outer, f.sides
    seen = set()
    for e, a, y in f.edges:
        if (a, y) in seen or e not in outer_edges and any(
                a in s and y in s for s in sides):
            return a, y
        seen.add((a, y))
    return None


def _tetrahedron_witness(d, cap: int = 3) -> tuple[int, tuple[int, ...]]:
    """The class, capped at cap, and its witness, in glued classes
    ``chamber * n + vertex`` (chamber 0's vertex x is class x): a vertex
    and a face it occurs twice on (class 1); a separating pair a, b and
    two faces through both, not joined across a-b edges (class 2); ()
    (class 3, or capped below 3, which builds no gluing)."""
    if (pair := _face_twice(d)) is not None:
        return 1, pair
    if cap < 3:
        return cap, ()
    nbrs, side_of_edge, orbits = glued_orbits(_tetrahedron(), d)
    g, n = d.g, d.g.n
    # per vertex and edge type: (far end, its least-chamber table, side)
    arms: list[tuple[list, ...]] = [([], [], []) for _ in range(n)]
    for x in range(2 * g.ne):
        y = g.org[x ^ 1]
        arms[g.org[x]][d.et[x >> 1]].append(
            (y, orbits[y][0], side_of_edge.get(x >> 1)))
    stars: dict[tuple[int, int], list[int]] = {}

    def star(v: int, t: int) -> list[int]:
        """The far end of each glued type-t edge at the glued class v; a
        side edge counts in the lower of its two chambers, both in v's."""
        if (v, t) not in stars:
            ch, x = divmod(v, n)
            stars[v, t] = [least[c] * n + y for c in orbits[x][1][ch]
                           for y, least, k in arms[x][t]
                           if k is None or c < nbrs[c][k]]
        return stars[v, t]

    t0 = [x for x in range(n) if d.vt[x] == 0]
    # result edges at each chamber-0 vertex, by far end
    edges: dict[int, dict[int, list[int]]] = {a: {} for a in t0}
    for a in t0:
        for m in set(star(a, 2)):
            p, q = star(m, 2)
            edges[a].setdefault(q if p == a else p, []).append(m)
    for a in t0:
        on_faces = Counter(b for f in star(a, 1) for b in star(f, 1))
        for b, times in on_faces.items():
            ab = edges[a].get(b, [])
            if b != a and times - len(ab) >= 2:
                faces = [f for f in star(a, 1) if b in star(f, 1)]
                run = {faces[0]}    # grows by one a-b edge per round
                for _ in ab:
                    run.update(*(star(m, 0) for m in ab
                                 if run.intersection(star(m, 0))))
                return 2, (a, b, faces[0],
                           next(f for f in faces if f not in run))
    return 3, ()
