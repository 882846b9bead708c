"""The ten boundary extensions on predecorations and their inverses.

Extensions edit the outer face of a predecoration:

  1   split an outer vertex at two outer sectors, join the halves by an edge
  2   attach a pendant vertex in an outer sector
  3   split a vertex, join the halves by a quadrangle through two new
      degree-2 vertices
  4   split a vertex into two adjacent halves carrying a quadrangle on a
      chosen side
  5   attach a quadrangle through one vertex (three new vertices)
  6   attach two quadrangles sharing an edge incident to the vertex
      (five new vertices)
  7   attach a 2x1 quadrangle strip by one corner (five new vertices,
      two chiral variants)
  8   glue a quadrangle onto an outer edge (two new vertices)
  9   close a quadrangle over an outer path of two edges (one new vertex)
  10  close a quadrangle over an outer path of three edges (no new vertex)

Each reduction (the inverse rewrite) is identified by a site, encoded as
the sorted tuple of the darts it removes; sites are compared between
graphs through canonical labelings.  The degree and occupancy conditions
mirror the extension pictures exactly: splits need both arcs non-empty,
attachments need the host vertex to keep a neighbor after reduction, and
closures need at least one vertex outside the affected quadrangle.  Each
pattern is matched in both handednesses (extension 7 builds its strip in
both), so a graph and its mirror image have as many sites of each
number; canonical codes count reflections as isomorphisms, so the
canonical reduction must not depend on the handedness.

`scan_reductions` tries the numbers in increasing order and stops at the
first that has a site, since only the smallest number takes part in the
canonical-child test: numbers 1 and 2 need one pass over the edges, the
quadrangle patterns 3-10 are searched only when no smaller one applies.

One rule applies all ten extensions (`_extend`), each from its picture
in `PICTURES`: the new darts 0 .. 2k-1, the reverse of x being x ^ 1;
the sectors, each (walk offset o, darts); and the rows of the new
vertices.  The first sector's darts go in just after walk[i], each later
one's just before walk[i+o-1] ^ 1, the dart by which the walk arrives at
position i + o; both name the same outer sector, but freezing numbers
darts by their place in the row.  A split (1, 3, 4) at (i, j), whose
sectors both have offset 0, cuts v's row after walk[i] and after
walk[j]: v keeps the run that ends at walk[j], then the first sector,
and the other run becomes a new vertex, before the picture's rows, with
the second sector.  The site is every new dart, and the outer face is
that of the first sector's last dart.  An extension over more than one
position needs distinct vertices there and one more outside them.
Extension 7's second handedness reverses every row and sector.

One rule undoes all ten extensions (`apply_reduction`): delete the site's
edges from every rotation, each touched row resuming just after its
removed darts; delete every vertex left with no darts; for a split (1, 3,
4), join the two touched vertices that remain into one, so that each row
fills the gap the other's removed darts left.  The outer face is that of
the first outer dart outside the site.

A child whose smallest reduction, 1 (an outer bridge, both ends of
degree >= 2) or 2 (a pendant edge, the other end of degree >= 2), is
below the applied number is never built; `kept_reduction` decides this
exactly from the parent.  No extension changes an inner face, and every
new edge but that of 1 and 2 is a quadrangle side.  1-7 only add darts
in outer sectors, so degrees rise (a split leaves each half degree >=
2); 8-10 at position i also make the walk darts walk[i ... i + span - 2]
quadrangle sides (`SPAN`: 2, 3 and 4 for 8, 9 and 10).  So a parent's
reduction 1 and 2 sites stay sites of 1 or 2 in the child unless 8-10
cover one of their darts (a pendant edge becomes a bridge when 2-7
attach at its leaf), no other old edge becomes one, and attaching at
one end of the base K2 leaves a pendant at the other.  Extension
  1     is never pruned;
  2     at v is pruned iff the parent has a reduction 1 site or v is the
        leaf of a reduction 2 site;
  3-7   iff the parent has a reduction 1 or 2 site or is K2;
  8-10  iff some reduction 1 or 2 site has neither dart covered.

Each extension moves the lower rate bound lo = 4*quads + 2*(len(walk) -
#outer vertices) of `rate_bounds_of` by a step read off the parent's
outer walk, so `extension_sites` never produces a site whose child lies
above the rate window.  With b, c the origins of walk[i+1], walk[i+2]
and occ(v) the occurrences of v on the walk (a vertex stays outer after
a closure iff occ >= 2):
  1, 2     +2                               walk +2, one new outer vertex
  3, 4, 5  +6                               a quad, walk +4, three new
  6, 7     +10                              two quads, walk +6, five new
  8        +4                               a quad, walk +2, two new
  9        4 - 2[occ(b)>=2]                 a quad, walk +0, one new, b may go
  10       4 - 2([occ(b)>=2] + [occ(c)>=2]) a quad, walk -2, b and c may go

An automorphism of the parent maps each site to a site whose child is
isomorphic (`site_image`).  On a walk of m positions (all mod m) it is a
rotation by r, walk[k] -> walk[k + r], or a reflection r, walk[k] ->
walk[r - k] ^ 1, which maps the outer corner at k to r - k + 1:
  rotation r     every position k -> k + r
  reflection r   one position i -> r - i + 2 - SPAN (its first corner),
                 extension 7 switching handedness;
                 a pair (i, j) -> (r - i + 1, r - j + 1), in that order
The pairs of 1 and 3 are unordered, those of 4 ordered.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Iterator, Optional

from .maps import PlaneGraph, freeze

ExtResult = tuple[PlaneGraph, tuple[int, ...]]
Applier = Callable[..., Optional[ExtResult]]


# PICTURES[num - 1] = (sectors, rows) of extension num.  Each comment
# names the new edges in dart order: edge e is darts 2e and 2e + 1, and 2e
# leaves the first-named end.  v is the host vertex (v1, v2 the halves of
# a split); 8 glues onto the edge u-v, 9 and 10 close over the outer paths
# u-b-w and a-b-c-d.
PICTURES = (
    (((0, (0,)), (0, (1,))), ()),                     # 1 v1-v2
    (((0, (0,)),), ((1,),)),                          # 2 v-x
    (((0, (0, 7)), (0, (4, 3))), ((2, 1), (6, 5))),   # 3 v1-x x-v2 v2-y y-v1
    (((0, (2, 0)), (0, (1, 7))), ((4, 3), (6, 5))),   # 4 v1-v2 v1-x x-y y-v2
    (((0, (0, 7)),), ((2, 1), (4, 3), (6, 5))),       # 5 v-x x-m m-y y-v
    (((0, (0, 6, 8)),),                               # 6 v-a a-b b-w v-w
     ((2, 1), (4, 3), (13, 7, 5), (9, 10), (11, 12))),    # v-c c-d d-w
    (((0, (0, 7)),),                                  # 7 v-p p-r r-q q-v
     ((1, 2), (8, 4, 3), (6, 5, 13), (9, 10), (11, 12))),  # r-t t-s s-q
    (((0, (0,)), (1, (5,))), ((1, 2), (3, 4))),       # 8 u-a a-b b-v
    (((0, (3,)), (2, (0,))), ((2, 1),)),              # 9 w-x x-u
    (((0, (0,)), (3, (1,))), ()),                     # 10 a-d
)
SPAN = tuple(1 + sectors[-1][0] for sectors, _ in PICTURES)   # SPAN[num - 1]


def site_image(num: int, applier: Applier, args: tuple, m: int, r: int,
               reflect: bool) -> tuple[Applier, tuple]:
    """The (applier, arguments) that the rotation or reflection r of the
    module docstring maps site (num, applier, args) to."""
    if not reflect:
        image = tuple((x + r) % m for x in args)
    elif len(args) == 2:
        image = ((r - args[0] + 1) % m, (r - args[1] + 1) % m)
    else:
        image = ((r - args[0] + 2 - SPAN[num - 1]) % m,)
        applier = _MIRRORED.get(applier, applier)
    return applier, tuple(sorted(image)) if num in (1, 3) else image


def _extend(picture: tuple, g: PlaneGraph, walk: tuple[int, ...], i: int,
            j: Optional[int] = None) -> Optional[ExtResult]:
    """The child of `picture` at walk position i, or of a split at i and
    j, by the rule of the module docstring: (child graph, inverse site in
    child darts), or None where the span's vertices are too few or not
    distinct.  New dart x is the token ~x (see `_tokens`).  Children
    still need validate_predecoration."""
    sectors, rows = picture
    m = len(walk)
    span = 1 + sectors[-1][0]
    if span > 1 and (g.n <= span or len(
            {g.org[walk[(i + t) % m]] for t in range(span)}) < span):
        return None
    rot = [list(g.darts_at(v)) for v in range(g.n)]
    if j is not None:
        row = rot[g.org[walk[i]]]
        at = row.index(walk[i]) + 1
        row[:] = row[at:] + row[:at]   # from just after walk[i] to it
        at = row.index(walk[j]) + 1
        rot.append([*row[at:], *sectors[1][1]])
        row[at:] = sectors[0][1]
    else:
        for o, darts in sectors:
            # after walk[i], or before the dart the walk arrives by
            d = walk[(i + o - 1) % m] ^ 1 if o else walk[i]
            row = rot[g.org[d]]
            at = row.index(d) + (o == 0)
            row[at:at] = darts
    child, tr = freeze([*rot, *rows], sectors[0][1][-1])
    # tr maps every token: the 2 * g.ne old darts and the new -1, -2, ...
    return child, tuple(sorted(tr[t] for t in range(2 * g.ne - len(tr), 0)))


def _tokens(picture: tuple) -> tuple:
    """The picture with each new dart x as the token ~x (see
    `maps.freeze`)."""
    sectors, rows = picture
    return (tuple((o, tuple(~x for x in darts)) for o, darts in sectors),
            tuple(tuple(~x for x in row) for row in rows))


_APPLY = {num: partial(_extend, _tokens(picture))   # by extension number
          for num, picture in enumerate(PICTURES, 1)}
# extension 7 builds its strip in both handednesses: the mirror image
# reverses every row and sector
_STRIP_FLIPPED = partial(_extend, _tokens((
    tuple((o, darts[::-1]) for o, darts in PICTURES[6][0]),
    tuple(row[::-1] for row in PICTURES[6][1]))))
_MIRRORED = {_APPLY[7]: _STRIP_FLIPPED, _STRIP_FLIPPED: _APPLY[7]}


# (number, step, applier, arguments swapped) of the sites at a pair of walk
# positions of one vertex, and (number, step, applier) of those at one walk
# position with a fixed step; 9 and 10 follow, with steps from b and c
_PAIR_SITES = ((1, 2, _APPLY[1], False), (3, 6, _APPLY[3], False),
               (4, 6, _APPLY[4], False), (4, 6, _APPLY[4], True))
_POSITION_SITES = ((2, 2, _APPLY[2]), (5, 6, _APPLY[5]), (6, 10, _APPLY[6]),
                   (7, 10, _APPLY[7]), (7, 10, _STRIP_FLIPPED),
                   (8, 4, _APPLY[8]))


def extension_sites(g: PlaneGraph, walk: tuple[int, ...], limit: int = 10
                    ) -> Iterator[tuple[int, int, Applier, tuple]]:
    """The (extension number, step in the lower rate bound, applier,
    arguments) sites of one predecoration whose step is at most
    ``limit`` (10, the largest step, keeps all `site_count` of them), in
    a fixed order; a site is built by ``applier(g, walk, *arguments)``.
    The steps are the module's table, so a site above the limit is never
    produced."""
    m = len(walk)
    by_vertex: dict[int, list[int]] = {}
    for i, d in enumerate(walk):
        by_vertex.setdefault(g.org[d], []).append(i)
    pair = [site for site in _PAIR_SITES if site[1] <= limit]
    for positions in by_vertex.values() if pair else ():
        for ii, i in enumerate(positions):
            for j in positions[ii + 1:]:
                for num, step, applier, swapped in pair:
                    yield num, step, applier, (j, i) if swapped else (i, j)
    fixed = [site for site in _POSITION_SITES if site[1] <= limit]
    cut = [2 * (len(by_vertex[g.org[d]]) >= 2) for d in walk]  # 2[occ>=2]
    for i in range(m):
        for num, step, applier in fixed:
            yield num, step, applier, (i,)
        b, c = cut[(i + 1) % m], cut[(i + 2) % m]
        if 4 - b <= limit:
            yield 9, 4 - b, _APPLY[9], (i,)
        if 4 - b - c <= limit:
            yield 10, 4 - b - c, _APPLY[10], (i,)


def site_count(g: PlaneGraph, walk: tuple[int, ...]) -> int:
    """How many sites `extension_sites` has with no limit: 8 per walk
    position and 4 per pair of walk positions at one vertex."""
    occ = Counter(g.org[d] for d in walk)
    return 8 * len(walk) + 2 * sum(c * (c - 1) for c in occ.values())


def kept_reduction(g: PlaneGraph, walk: tuple[int, ...]
                   ) -> Callable[[int, int], bool]:
    """``kept(num, i)``: whether the child of extension num at walk
    position i has a reduction 1 or 2 below num, decided from the parent
    by the table of the module docstring."""
    deg = g.deg
    bridges = {d >> 1 for d, _ in _reduction1(g, deg)}
    pendants = _reduction2(g, deg)
    leaves = {g.org[x] for site in pendants for x in site
              if deg[g.org[x]] == 1}
    sites = bridges.union(d >> 1 for d, _ in pendants)   # edge ids
    m = len(walk)

    def kept(num: int, i: int) -> bool:
        if num == 1:
            return False
        if num == 2:
            return bool(bridges) or g.org[walk[i]] in leaves
        if num <= 7:
            return bool(sites) or g.n == 2
        return bool(sites.difference(walk[(i + t) % m] >> 1
                                     for t in range(SPAN[num - 1] - 1)))
    return kept


# -- reductions -------------------------------------------------------------
# One finder per reduction number.  A finder takes g and its vertex
# degrees and returns every site of its number, in edge or face order;
# apply_reduction rebuilds the parent from a site alone.

Site = tuple[int, ...]


def _quad_faces(g: PlaneGraph) -> list[tuple[int, ...]]:
    return [darts for f, darts in enumerate(g.faces) if f != g.outer]


def _site(darts) -> Site:
    """The darts and their reverses, sorted."""
    return tuple(sorted({t for d in darts for t in (d, d ^ 1)}))


def _reduction1(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Contract an outer bridge with both endpoints of degree >= 2."""
    out = []
    for d in range(0, 2 * g.ne, 2):
        if (g.face_of[d] == g.outer and g.face_of[d ^ 1] == g.outer
                and deg[g.org[d]] >= 2 and deg[g.org[d ^ 1]] >= 2):
            out.append((d, d ^ 1))
    return out


def _reduction2(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Delete a pendant vertex whose neighbor keeps a neighbor."""
    out = []
    for d in range(0, 2 * g.ne, 2):
        for x in (d, d ^ 1):
            if deg[g.org[x ^ 1]] == 1 and deg[g.org[x]] >= 2:
                out.append((d, d ^ 1))
    return out


def _reduction3(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Quad with a degree-2 diagonal, other diagonal >= 3 and
    non-adjacent."""
    out = []
    for q in _quad_faces(g):
        for k in range(2):
            x, y = g.org[q[k]], g.org[q[k + 2]]
            v1, v2 = g.org[q[k + 1]], g.org[q[(k + 3) % 4]]
            if (deg[x] == 2 and deg[y] == 2 and deg[v1] >= 3 and deg[v2] >= 3
                    and not g.has_edge(v1, v2)):
                out.append(_site(q))
    return out


def _reduction4(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Quad over a direct edge whose far side is outer."""
    out = []
    for q in _quad_faces(g):
        for k in range(4):
            v2, v1 = g.org[q[k]], g.org[q[(k + 1) % 4]]
            x, y = g.org[q[(k + 2) % 4]], g.org[q[(k + 3) % 4]]
            if (g.face_of[q[k] ^ 1] == g.outer and deg[x] == 2 and deg[y] == 2
                    and deg[v1] >= 3 and deg[v2] >= 3):
                out.append(_site(q))
    return out


def _reduction5(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Quad with three degree-2 corners hanging at one vertex."""
    out = []
    for q in _quad_faces(g):
        for k in range(4):
            v = g.org[q[k]]
            others = [g.org[q[(k + j) % 4]] for j in (1, 2, 3)]
            if deg[v] >= 3 and all(deg[o] == 2 for o in others):
                out.append(_site(q))
    return out


def _inner_darts(g: PlaneGraph) -> list[int]:
    """Both darts of each edge between two distinct inner faces, in edge
    order."""
    out = []
    for d in range(0, 2 * g.ne, 2):
        f1, f2 = g.face_of[d], g.face_of[d ^ 1]
        if f1 != g.outer and f2 != g.outer and f1 != f2:
            out += (d, d ^ 1)
    return out


def _reduction6(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Double-quad bundle: dq = v -> w with w of degree 3 shared by both
    quads."""
    out = []
    for dq in _inner_darts(g):
        v, w = g.org[dq], g.org[dq ^ 1]
        if deg[w] != 3 or deg[v] < 4:
            continue
        q2 = g.faces[g.face_of[dq]]       # walk (v,w,d2,c2)
        q1 = g.faces[g.face_of[dq ^ 1]]   # walk (w,v,a,b)
        i1 = q1.index(dq ^ 1)
        a, b = g.org[q1[(i1 + 2) % 4]], g.org[q1[(i1 + 3) % 4]]
        i2 = q2.index(dq)
        d2, c2 = g.org[q2[(i2 + 2) % 4]], g.org[q2[(i2 + 3) % 4]]
        if (all(deg[z] == 2 for z in (a, b, c2, d2))
                and len({v, w, a, b, c2, d2}) == 6):
            out.append(_site(q1 + q2))
    return out


def _reduction7(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Quad strip: quad1 = (r,q,v,p1) hangs at v, and quad2 = (q,r,t,s)
    shares the edge dq = q -> r of two degree-3 vertices.  Extension 7
    builds the strip in both handednesses, so both are matched: quad1
    lies right of dq, or left of it in the mirror image (flip)."""
    out = []
    for dq in _inner_darts(g):
        qv_, rv = g.org[dq], g.org[dq ^ 1]
        if deg[qv_] != 3 or deg[rv] != 3:
            continue
        for flip in (False, True):
            d1, d2 = (dq, dq ^ 1) if flip else (dq ^ 1, dq)
            quad1 = g.faces[g.face_of[d1]]
            quad2 = g.faces[g.face_of[d2]]
            i1, i2 = quad1.index(d1), quad2.index(d2)
            t, sv = g.org[quad2[(i2 + 2) % 4]], g.org[quad2[(i2 + 3) % 4]]
            v7, p1 = g.org[quad1[(i1 + 2) % 4]], g.org[quad1[(i1 + 3) % 4]]
            if flip:
                v7, p1 = p1, v7
            if (deg[t] == 2 and deg[sv] == 2 and deg[p1] == 2
                    and deg[v7] >= 3
                    and len({v7, p1, qv_, rv, t, sv}) == 6):
                out.append(_site(quad1 + quad2))
    return out


def _reduction8(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Remove an adjacent degree-2 pair from a quad."""
    if g.n < 5:
        return []
    out = []
    for q in _quad_faces(g):
        for k in range(4):
            a, b = g.org[q[(k + 1) % 4]], g.org[q[(k + 2) % 4]]
            if deg[a] == 2 and deg[b] == 2:
                out.append(_site((q[k], q[(k + 1) % 4], q[(k + 2) % 4])))
    return out


def _reduction9(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Remove a degree-2 corner of a quad."""
    if g.n < 5:
        return []
    out = []
    for q in _quad_faces(g):
        for k in range(4):
            x = g.org[q[k]]
            if deg[x] == 2:
                out.append(_site(g.darts_at(x)))
    return out


def _reduction10(g: PlaneGraph, deg: tuple[int, ...]) -> list[Site]:
    """Remove a quad edge whose far side is outer."""
    if g.n < 5:
        return []
    return [_site((d,)) for q in _quad_faces(g) for d in q
            if g.face_of[d ^ 1] == g.outer]


# REDUCTIONS[num - 1] finds the sites of reduction num
REDUCTIONS = (_reduction1, _reduction2, _reduction3, _reduction4,
              _reduction5, _reduction6, _reduction7, _reduction8,
              _reduction9, _reduction10)


def scan_reductions(g: PlaneGraph) -> Optional[tuple[int, list[Site]]]:
    """The smallest applicable reduction number and all its sites, or
    None when g has no reduction (the two bases); the numbers are tried
    in increasing order, and the scan stops at the first with a site."""
    deg = g.deg
    for num, find in enumerate(REDUCTIONS, 1):
        sites = find(g, deg)
        if sites:
            return num, sites
    return None


def apply_reduction(g: PlaneGraph, num: int, site: Site) -> PlaneGraph:
    """The parent predecoration that reduction num at site leaves, by
    the rule of the module docstring."""
    cut = set(site)
    rows, touched = [], []
    for row in map(g.darts_at, range(g.n)):
        ends = [i for i, d in enumerate(row, 1) if d in cut]
        if ends:   # the removed darts are one run: resume after it
            row = [d for d in row[ends[-1]:] + row[:ends[-1]] if d not in cut]
            if not row:
                continue
            touched.append(len(rows))
        rows.append(row)
    if num in (1, 3, 4):
        a, b = touched
        rows[a] += rows.pop(b)
    parent, _ = freeze(rows, next(d for d in g.faces[g.outer] if d not in cut))
    return parent
