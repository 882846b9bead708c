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

One rule undoes all ten extensions (`apply_reduction`): delete the site's
edges from every rotation, each touched row resuming just after its
removed darts; delete every vertex left with no darts; for a split (1, 3,
4), join the two touched vertices that remain into one, so that each row
fills the gap the other's removed darts left.  The outer face is that of
the first outer dart outside the site.

A child that would keep a parent's outer bridge (reduction 1) or pendant
edge (2) is never built.  An extension at walk position i, its first
argument, adds new vertices and rewires only the old ones at positions
i ... i + span - 1 (a split at (i, j) edits only org[walk[i]]):
  extension  1-7  8  9  10      (`SPAN`)
  span       1    2  3  4
8-10 also turn the walk darts between those positions into quadrangle
sides.  A parent edge with no rewired end keeps its darts, its ends'
degrees and the outer face on both sides, so the child keeps that site,
and `generate` rejects it for every extension number above the site's.

Each extension moves the lower rate bound lo = 4*quads + 2*(len(walk) -
#outer vertices) of `rate_bounds_of` by a step read off the parent's
outer walk, so a child above the rate window is never built.  With b, c
the origins of walk[i+1], walk[i+2] and occ(v) the occurrences of v on
the walk (a vertex stays outer after a closure iff occ >= 2):
  1, 2     +2                               walk +2, one new outer vertex
  3, 4, 5  +6                               a quad, walk +4, three new
  6, 7     +10                              two quads, walk +6, five new
  8        +4                               a quad, walk +2, two new
  9        4 - 2[occ(b)>=2]                 a quad, walk +0, one new, b may go
  10       4 - 2([occ(b)>=2] + [occ(c)>=2]) a quad, walk -2, b and c may go
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .maps import PlaneGraph
from .surgery import Surgeon

ExtResult = tuple[PlaneGraph, tuple[int, ...]]
Applier = Callable[..., Optional[ExtResult]]
SPAN = (1, 1, 1, 1, 1, 1, 1, 2, 3, 4)   # SPAN[num - 1], see the docstring


def _arc_after(rot: list[int], start: int, stop: int) -> list[int]:
    """Tokens from `start` to `stop` inclusive, cyclically."""
    i = rot.index(start)
    out = []
    while True:
        out.append(rot[i])
        if rot[i] == stop:
            return out
        i = (i + 1) % len(rot)


def _split(g: PlaneGraph, walk: tuple[int, ...], i: int, j: int
           ) -> Optional[tuple[Surgeon, int, list[int], list[int]]]:
    """The vertex v met at outer positions i and j, cut between them: a
    Surgeon on g, v, and v's rotation arcs after position i and after
    position j.  None unless i and j are two sectors of one vertex."""
    pi, pj = walk[i], walk[j]
    v = g.org[pi]
    if g.org[pj] != v or pi == pj:
        return None
    s = Surgeon(g)
    rot = s.rot[v]
    return (s, v, _arc_after(rot, g.nxt[pi], pj),
            _arc_after(rot, g.nxt[pj], pi))


def _child(s: Surgeon, outer_token: int, site: tuple[int, ...]
           ) -> ExtResult:
    """The finished child, outer face at outer_token, and the site's
    tokens as sorted child darts."""
    child, tr = s.freeze(outer_token)
    return child, tuple(sorted(tr[t] for t in site))


# -- extensions -------------------------------------------------------------
# Every extension returns (child graph, inverse-reduction site in child
# darts) or None when the site is structurally inapplicable.  Children
# still need validate_predecoration.


def ext1_split(g: PlaneGraph, walk: tuple[int, ...], i: int, j: int
               ) -> Optional[ExtResult]:
    split = _split(g, walk, i, j)
    if split is None:
        return None
    s, v, arc1, arc2 = split
    n1, n2 = s.fresh_pair()
    s.rot[v] = arc1 + [n1]
    s.new_vertex(arc2 + [n2])
    return _child(s, n1, (n1, n2))


def ext2_pendant(g: PlaneGraph, walk: tuple[int, ...], i: int
                 ) -> Optional[ExtResult]:
    p = walk[i]
    v = g.org[p]
    s = Surgeon(g)
    n1, n2 = s.fresh_pair()
    s.insert_after(v, p, [n1])
    s.new_vertex([n2])
    return _child(s, n1, (n1, n2))


def ext3_split_quad(g: PlaneGraph, walk: tuple[int, ...], i: int, j: int
                    ) -> Optional[ExtResult]:
    split = _split(g, walk, i, j)
    if split is None:
        return None
    s, v, arc1, arc2 = split
    e1, e1r = s.fresh_pair()   # v1 - x
    e2, e2r = s.fresh_pair()   # x - v2
    e3, e3r = s.fresh_pair()   # v2 - y
    e4, e4r = s.fresh_pair()   # y - v1
    s.rot[v] = arc1 + [e1, e4r]        # v1
    s.new_vertex(arc2 + [e3, e2r])     # v2
    s.new_vertex([e2, e1r])            # x
    s.new_vertex([e4, e3r])            # y
    return _child(s, e4r, (e1, e1r, e2, e2r, e3, e3r, e4, e4r))


def ext4_split_edge_quad(g: PlaneGraph, walk: tuple[int, ...], a: int, b: int
                         ) -> Optional[ExtResult]:
    """Split with direct edge filling gap `a` and the quad spanning gap `b`."""
    split = _split(g, walk, a, b)
    if split is None:
        return None
    s, v, arc1, arc2 = split
    de, der = s.fresh_pair()   # v1 - v2 (direct)
    x1, x1r = s.fresh_pair()   # v1 - x
    xy, xyr = s.fresh_pair()   # x - y
    ye, yer = s.fresh_pair()   # y - v2
    s.rot[v] = arc1 + [x1, de]         # v1
    s.new_vertex(arc2 + [der, yer])    # v2
    s.new_vertex([xy, x1r])            # x
    s.new_vertex([ye, xyr])            # y
    return _child(s, de, (de, der, x1, x1r, xy, xyr, ye, yer))


def ext5_attach_quad(g: PlaneGraph, walk: tuple[int, ...], i: int
                     ) -> Optional[ExtResult]:
    p = walk[i]
    v = g.org[p]
    s = Surgeon(g)
    vx, vxr = s.fresh_pair()
    xm, xmr = s.fresh_pair()
    my, myr = s.fresh_pair()
    yv, yvr = s.fresh_pair()
    s.insert_after(v, p, [vx, yvr])
    s.new_vertex([xm, vxr])   # x
    s.new_vertex([my, xmr])   # m
    s.new_vertex([yv, myr])   # y
    return _child(s, yvr, (vx, vxr, xm, xmr, my, myr, yv, yvr))


def ext6_attach_double(g: PlaneGraph, walk: tuple[int, ...], i: int
                       ) -> Optional[ExtResult]:
    p = walk[i]
    v = g.org[p]
    s = Surgeon(g)
    va, var = s.fresh_pair()
    ab, abr = s.fresh_pair()
    bw, bwr = s.fresh_pair()
    vw, vwr = s.fresh_pair()
    vc, vcr = s.fresh_pair()
    cd, cdr = s.fresh_pair()
    dw, dwr = s.fresh_pair()
    s.insert_after(v, p, [va, vw, vc])
    s.new_vertex([ab, var])            # a
    s.new_vertex([bw, abr])            # b
    s.new_vertex([dwr, vwr, bwr])      # w
    s.new_vertex([vcr, cd])            # c
    s.new_vertex([cdr, dw])            # d
    return _child(s, vc, (va, var, ab, abr, bw, bwr, vw, vwr,
                          vc, vcr, cd, cdr, dw, dwr))


def ext7_attach_strip(g: PlaneGraph, walk: tuple[int, ...], i: int,
                      flip: bool) -> Optional[ExtResult]:
    p = walk[i]
    v = g.org[p]
    s = Surgeon(g)
    vp, vpr = s.fresh_pair()   # v - p1
    pr_, prr = s.fresh_pair()  # p1 - r
    rq, rqr = s.fresh_pair()   # r - q
    qv, qvr = s.fresh_pair()   # q - v
    rt, rtr = s.fresh_pair()   # r - t
    ts, tsr = s.fresh_pair()   # t - s
    sq, sqr = s.fresh_pair()   # s - q
    rot_p1 = [vpr, pr_]
    rot_r = [rt, rq, prr]
    rot_q = [qv, rqr, sqr]
    rot_t = [rtr, ts]
    rot_s = [tsr, sq]
    ins = [vp, qvr]
    if flip:
        rot_p1.reverse()
        rot_r.reverse()
        rot_q.reverse()
        rot_t.reverse()
        rot_s.reverse()
        ins.reverse()
    s.insert_after(v, p, ins)
    s.new_vertex(rot_p1)
    s.new_vertex(rot_r)
    s.new_vertex(rot_q)
    s.new_vertex(rot_t)
    s.new_vertex(rot_s)
    return _child(s, ins[-1], (vp, vpr, pr_, prr, rq, rqr, qv, qvr,
                               rt, rtr, ts, tsr, sq, sqr))


def ext8_glue(g: PlaneGraph, walk: tuple[int, ...], i: int
              ) -> Optional[ExtResult]:
    if g.n < 3:
        return None
    d = walk[i]
    u, v = g.org[d], g.org[d ^ 1]
    s = Surgeon(g)
    ua, uar = s.fresh_pair()
    ab, abr = s.fresh_pair()
    bv, bvr = s.fresh_pair()
    s.insert_after(u, d, [ua])
    s.insert_before(v, d ^ 1, [bvr])
    s.new_vertex([uar, ab])   # a
    s.new_vertex([abr, bv])   # b
    return _child(s, ua, (ua, uar, ab, abr, bv, bvr))


def ext9_close2(g: PlaneGraph, walk: tuple[int, ...], i: int
                ) -> Optional[ExtResult]:
    if g.n < 4:
        return None
    m = len(walk)
    d1, d2 = walk[i], walk[(i + 1) % m]
    u, v, w = g.org[d1], g.org[d2], g.org[d2 ^ 1]
    if len({u, v, w}) != 3:
        return None
    s = Surgeon(g)
    wx, wxr = s.fresh_pair()
    xu, xur = s.fresh_pair()
    s.insert_before(w, d2 ^ 1, [wx])
    s.insert_after(u, d1, [xur])
    s.new_vertex([xu, wxr])   # x
    return _child(s, xur, (wx, wxr, xu, xur))


def ext10_close3(g: PlaneGraph, walk: tuple[int, ...], i: int
                 ) -> Optional[ExtResult]:
    if g.n < 5:
        return None
    m = len(walk)
    d1, d2, d3 = walk[i], walk[(i + 1) % m], walk[(i + 2) % m]
    a, b, c, dd = g.org[d1], g.org[d2], g.org[d3], g.org[d3 ^ 1]
    if len({a, b, c, dd}) != 4:
        return None
    s = Surgeon(g)
    ad, adr = s.fresh_pair()
    s.insert_after(a, d1, [ad])
    s.insert_before(dd, d3 ^ 1, [adr])
    return _child(s, ad, (ad, adr))


def extension_sites(g: PlaneGraph, walk: tuple[int, ...]
                    ) -> Iterator[tuple[int, int, Applier, tuple]]:
    """All (extension number, step in the lower rate bound, applier,
    arguments) sites of one predecoration, in a fixed order; a site is
    built by ``applier(g, walk, *arguments)``, so a screened one costs
    nothing.  The steps are the module's table."""
    m = len(walk)
    by_vertex: dict[int, list[int]] = {}
    for i, d in enumerate(walk):
        by_vertex.setdefault(g.org[d], []).append(i)
    cut = [2 * (len(by_vertex[g.org[d]]) >= 2) for d in walk]  # 2[occ>=2]
    for positions in by_vertex.values():
        for ii, i in enumerate(positions):
            for j in positions[ii + 1:]:
                yield 1, 2, ext1_split, (i, j)
                yield 3, 6, ext3_split_quad, (i, j)
                yield 4, 6, ext4_split_edge_quad, (i, j)
                yield 4, 6, ext4_split_edge_quad, (j, i)
    for i in range(m):
        b, c = cut[(i + 1) % m], cut[(i + 2) % m]
        yield 2, 2, ext2_pendant, (i,)
        yield 5, 6, ext5_attach_quad, (i,)
        yield 6, 10, ext6_attach_double, (i,)
        yield 7, 10, ext7_attach_strip, (i, False)
        yield 7, 10, ext7_attach_strip, (i, True)
        yield 8, 4, ext8_glue, (i,)
        yield 9, 4 - b, ext9_close2, (i,)
        yield 10, 4 - b - c, ext10_close3, (i,)


def kept_reduction(g: PlaneGraph, walk: tuple[int, ...]
                   ) -> Callable[[int, int], bool]:
    """``kept(num, i)``: whether every child of extension num at walk
    position i keeps a parent's site of a smaller reduction, 1 or 2."""
    deg = [g.degree(v) for v in range(g.n)]
    ends = [[(g.org[a], g.org[b]) for a, b in find(g, deg)]
            for find in (_reduction1, _reduction2)]

    def kept(num: int, i: int) -> bool:
        rewired = {g.org[walk[(i + t) % len(walk)]]
                   for t in range(SPAN[num - 1])}
        return any(u not in rewired and v not in rewired
                   for edges in ends[:num - 1] for u, v in edges)
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


def _reduction1(g: PlaneGraph, deg: list[int]) -> list[Site]:
    """Contract an outer bridge with both endpoints of degree >= 2."""
    out = []
    for d in range(0, 2 * g.ne, 2):
        if (g.face_of[d] == g.outer and g.face_of[d ^ 1] == g.outer
                and deg[g.org[d]] >= 2 and deg[g.org[d ^ 1]] >= 2):
            out.append((d, d ^ 1))
    return out


def _reduction2(g: PlaneGraph, deg: list[int]) -> list[Site]:
    """Delete a pendant vertex whose neighbor keeps a neighbor."""
    out = []
    for d in range(0, 2 * g.ne, 2):
        for x in (d, d ^ 1):
            if deg[g.org[x ^ 1]] == 1 and deg[g.org[x]] >= 2:
                out.append((d, d ^ 1))
    return out


def _reduction3(g: PlaneGraph, deg: list[int]) -> list[Site]:
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


def _reduction4(g: PlaneGraph, deg: list[int]) -> list[Site]:
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


def _reduction5(g: PlaneGraph, deg: list[int]) -> list[Site]:
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


def _reduction6(g: PlaneGraph, deg: list[int]) -> list[Site]:
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


def _reduction7(g: PlaneGraph, deg: list[int]) -> list[Site]:
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


def _reduction8(g: PlaneGraph, deg: list[int]) -> list[Site]:
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


def _reduction9(g: PlaneGraph, deg: list[int]) -> list[Site]:
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


def _reduction10(g: PlaneGraph, deg: list[int]) -> list[Site]:
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
    deg = [g.degree(v) for v in range(g.n)]
    for num, find in enumerate(REDUCTIONS, 1):
        sites = find(g, deg)
        if sites:
            return num, sites
    return None


def apply_reduction(g: PlaneGraph, num: int, site: Site) -> PlaneGraph:
    """The parent predecoration that reduction num at site leaves, by
    the rule of the module docstring."""
    cut = set(site)
    s = Surgeon(g)
    rows, touched = [], []
    for row in s.rot:
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
    s.rot = rows
    parent, _ = s.freeze(next(d for d in g.faces[g.outer] if d not in cut))
    return parent
