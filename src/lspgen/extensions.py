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
closures need at least one vertex outside the affected quadrangle.
"""

from __future__ import annotations

from typing import Callable, Optional

from .maps import PlaneGraph
from .surgery import Surgeon

ExtResult = tuple[PlaneGraph, tuple[int, ...]]


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
                    ) -> list[tuple[int, Callable[[], Optional[ExtResult]]]]:
    """All (extension number, applier) pairs for one predecoration."""
    m = len(walk)
    by_vertex: dict[int, list[int]] = {}
    for i, d in enumerate(walk):
        by_vertex.setdefault(g.org[d], []).append(i)
    out: list[tuple[int, Callable[[], Optional[ExtResult]]]] = []
    for positions in by_vertex.values():
        for ii in range(len(positions)):
            for jj in range(ii + 1, len(positions)):
                i, j = positions[ii], positions[jj]
                out.append((1, lambda i=i, j=j: ext1_split(g, walk, i, j)))
                out.append((3, lambda i=i, j=j: ext3_split_quad(g, walk, i, j)))
                out.append((4, lambda i=i, j=j: ext4_split_edge_quad(g, walk, i, j)))
                out.append((4, lambda i=i, j=j: ext4_split_edge_quad(g, walk, j, i)))
    for i in range(m):
        out.append((2, lambda i=i: ext2_pendant(g, walk, i)))
        out.append((5, lambda i=i: ext5_attach_quad(g, walk, i)))
        out.append((6, lambda i=i: ext6_attach_double(g, walk, i)))
        out.append((7, lambda i=i: ext7_attach_strip(g, walk, i, False)))
        out.append((7, lambda i=i: ext7_attach_strip(g, walk, i, True)))
        out.append((8, lambda i=i: ext8_glue(g, walk, i)))
        out.append((9, lambda i=i: ext9_close2(g, walk, i)))
        out.append((10, lambda i=i: ext10_close3(g, walk, i)))
    return out


# -- reductions -------------------------------------------------------------

Site = tuple[int, ...]


def _quad_faces(g: PlaneGraph) -> list[tuple[int, ...]]:
    return [darts for f, darts in enumerate(g.faces) if f != g.outer]


def scan_reductions(g: PlaneGraph) -> dict[int, list[tuple[Site, tuple]]]:
    """All structurally applicable reduction sites, keyed by number.

    Each entry is (site darts, application data); the data is what
    apply_reduction needs to rebuild the parent.
    """
    deg = [g.degree(v) for v in range(g.n)]
    out: dict[int, list[tuple[Site, tuple]]] = {}

    def add(num: int, site: Site, data: tuple) -> None:
        out.setdefault(num, []).append((site, data))

    # 1: contract an outer bridge with both endpoints of degree >= 2
    for e in range(g.ne):
        d = 2 * e
        if (g.face_of[d] == g.outer and g.face_of[d ^ 1] == g.outer
                and deg[g.org[d]] >= 2 and deg[g.org[d ^ 1]] >= 2):
            add(1, (d, d ^ 1), (d,))

    # 2: delete a pendant vertex whose neighbor keeps a neighbor
    for e in range(g.ne):
        d = 2 * e
        for x in (d, d ^ 1):
            if deg[g.org[x ^ 1]] == 1 and deg[g.org[x]] >= 2:
                add(2, (d, d ^ 1), (x,))

    quads = _quad_faces(g)

    # 3: quad with a degree-2 diagonal, other diagonal >= 3 and non-adjacent
    for q in quads:
        for k in range(2):
            x, y = g.org[q[k]], g.org[q[k + 2]]
            v1, v2 = g.org[q[k + 1]], g.org[q[(k + 3) % 4]]
            if (deg[x] == 2 and deg[y] == 2 and deg[v1] >= 3 and deg[v2] >= 3
                    and not g.has_edge(v1, v2)):
                site = tuple(sorted(t for d in q for t in (d, d ^ 1)))
                add(3, site, (q, k))

    # 4: quad over a direct edge whose far side is outer
    for q in quads:
        for k in range(4):
            v2, v1 = g.org[q[k]], g.org[q[(k + 1) % 4]]
            x, y = g.org[q[(k + 2) % 4]], g.org[q[(k + 3) % 4]]
            if (g.face_of[q[k] ^ 1] == g.outer and deg[x] == 2 and deg[y] == 2
                    and deg[v1] >= 3 and deg[v2] >= 3):
                site = tuple(sorted(t for d in q for t in (d, d ^ 1)))
                add(4, site, (q, k))

    # 5: quad with three degree-2 corners hanging at one vertex
    for q in quads:
        for k in range(4):
            v = g.org[q[k]]
            others = [g.org[q[(k + j) % 4]] for j in (1, 2, 3)]
            if deg[v] >= 3 and all(deg[o] == 2 for o in others):
                site = tuple(sorted(t for d in q for t in (d, d ^ 1)))
                add(5, site, (q, k))

    # 6 and 7: double-quad bundles over an inner edge
    for e in range(g.ne):
        d = 2 * e
        f1, f2 = g.face_of[d], g.face_of[d ^ 1]
        if f1 == g.outer or f2 == g.outer or f1 == f2:
            continue
        for dq in (d, d ^ 1):
            # 6: dq = v -> w with w of degree 3 shared by both quads
            v, w = g.org[dq], g.org[dq ^ 1]
            wv = dq ^ 1
            q2 = g.faces[g.face_of[dq]]       # walk (v,w,d2,c2)
            q1 = g.faces[g.face_of[wv]]       # walk (w,v,a,b)
            if deg[w] == 3 and deg[v] >= 4:
                i1 = q1.index(wv)
                a, b = g.org[q1[(i1 + 2) % 4]], g.org[q1[(i1 + 3) % 4]]
                i2 = q2.index(dq)
                d2, c2 = g.org[q2[(i2 + 2) % 4]], g.org[q2[(i2 + 3) % 4]]
                if (all(deg[z] == 2 for z in (a, b, c2, d2))
                        and len({v, w, a, b, c2, d2}) == 6):
                    darts = set()
                    for dz in q1 + q2:
                        darts.add(dz)
                        darts.add(dz ^ 1)
                    add(6, tuple(sorted(darts)), (dq,))
            # 7: dq = q -> r shared by the strip quads
            qv_, rv = g.org[dq], g.org[dq ^ 1]
            if deg[qv_] == 3 and deg[rv] == 3:
                quad2 = g.faces[g.face_of[dq]]     # (q,r,t,s)
                quad1 = g.faces[g.face_of[dq ^ 1]]  # (r,q,v,p1)
                i2 = quad2.index(dq)
                t, sv = g.org[quad2[(i2 + 2) % 4]], g.org[quad2[(i2 + 3) % 4]]
                i1 = quad1.index(dq ^ 1)
                v7, p1 = g.org[quad1[(i1 + 2) % 4]], g.org[quad1[(i1 + 3) % 4]]
                if (deg[t] == 2 and deg[sv] == 2 and deg[p1] == 2
                        and deg[v7] >= 3
                        and len({v7, p1, qv_, rv, t, sv}) == 6):
                    darts = set()
                    for dz in quad1 + quad2:
                        darts.add(dz)
                        darts.add(dz ^ 1)
                    add(7, tuple(sorted(darts)), (dq,))

    # 8: remove an adjacent degree-2 pair from a quad
    if g.n >= 5:
        for q in quads:
            for k in range(4):
                a, b = g.org[q[(k + 1) % 4]], g.org[q[(k + 2) % 4]]
                if deg[a] == 2 and deg[b] == 2:
                    site = tuple(sorted(
                        t for d in (q[k], q[(k + 1) % 4], q[(k + 2) % 4])
                        for t in (d, d ^ 1)))
                    add(8, site, (q, k))

    # 9: remove a degree-2 corner of a quad
    if g.n >= 5:
        for q in quads:
            for k in range(4):
                x = g.org[q[k]]
                if deg[x] == 2:
                    site = tuple(sorted(
                        t for d in g.darts_at(x) for t in (d, d ^ 1)))
                    add(9, site, (q, k))

    # 10: remove a quad edge whose far side is outer
    if g.n >= 5:
        for q in quads:
            for k in range(4):
                if g.face_of[q[k] ^ 1] == g.outer:
                    add(10, (min(q[k], q[k] ^ 1), max(q[k], q[k] ^ 1)),
                        (q[k],))
    return out


def apply_reduction(g: PlaneGraph, num: int, data: tuple) -> PlaneGraph:
    """Applies one reduction; returns the (smaller) parent predecoration."""
    s = Surgeon(g)
    removed_tokens: set[int] = set()
    dead_vertices: list[int] = []

    def merge(v_keep: int, run: list[int], v_gone: int, gone_run: list[int]
              ) -> None:
        # replace `run` inside v_keep's rotation by v_gone's rotation
        # minus `gone_run`, starting right after gone_run's end
        rot_k = s.rot[v_keep]
        i = rot_k.index(run[0])
        assert rot_k[(i + len(run) - 1) % len(rot_k)] == run[-1]
        rot_g = s.rot[v_gone]
        j = (rot_g.index(gone_run[-1]) + 1) % len(rot_g)
        arc = [rot_g[(j + t) % len(rot_g)] for t in range(len(rot_g))]
        arc = arc[:len(rot_g) - len(gone_run)]
        if i + len(run) <= len(rot_k):
            s.rot[v_keep] = rot_k[:i] + arc + rot_k[i + len(run):]
        else:
            tail = (i + len(run)) % len(rot_k)
            s.rot[v_keep] = rot_k[tail:i] + arc
        dead_vertices.append(v_gone)

    if num == 1:
        (d,) = data
        u, v = g.org[d], g.org[d ^ 1]
        merge(u, [d], v, [d ^ 1])
        removed_tokens.update((d, d ^ 1))
    elif num == 2:
        (x,) = data          # x: dart from neighbor to the leaf
        leaf = g.org[x ^ 1]
        s.remove_tokens(g.org[x], [x])
        dead_vertices.append(leaf)
        removed_tokens.update((x, x ^ 1))
    elif num == 3:
        q, k = data           # org(q[k]) = x (degree 2); walk x, B, y, A
        keep = g.org[q[(k + 1) % 4]]
        gone = g.org[q[(k + 3) % 4]]
        x = g.org[q[k]]
        y = g.org[q[(k + 2) % 4]]
        # face-corner rule: sigma(out-dart) = reverse(in-dart)
        merge(keep, [q[(k + 1) % 4], q[k] ^ 1],
              gone, [q[(k + 3) % 4], q[(k + 2) % 4] ^ 1])
        dead_vertices.extend((x, y))
        for dz in q:
            removed_tokens.update((dz, dz ^ 1))
    elif num == 4:
        q, k = data           # q[k] = v2 -> v1 direct edge
        v2, v1 = g.org[q[k]], g.org[q[(k + 1) % 4]]
        x = g.org[q[(k + 2) % 4]]
        y = g.org[q[(k + 3) % 4]]
        n_x = q[(k + 1) % 4]          # v1 -> x
        n_edge = q[k] ^ 1             # v1 -> v2
        np_edge = q[k]                # v2 -> v1
        np_y = q[(k + 3) % 4] ^ 1     # v2 -> y
        merge(v1, [n_x, n_edge], v2, [np_edge, np_y])
        dead_vertices.extend((x, y))
        for dz in q:
            removed_tokens.update((dz, dz ^ 1))
    elif num == 5:
        q, k = data           # q[k] originates at the attachment vertex
        v = g.org[q[k]]
        n1 = q[k]                      # v -> x
        n2 = q[(k + 3) % 4] ^ 1        # v -> y
        s.remove_tokens(v, [n1, n2])
        dead_vertices.extend(g.org[q[(k + j) % 4]] for j in (1, 2, 3))
        for dz in q:
            removed_tokens.update((dz, dz ^ 1))
    elif num == 6:
        (dq,) = data          # v -> w shared edge
        v, w = g.org[dq], g.org[dq ^ 1]
        q2 = g.faces[g.face_of[dq]]
        q1 = g.faces[g.face_of[dq ^ 1]]
        i1 = q1.index(dq ^ 1)
        a = g.org[q1[(i1 + 2) % 4]]
        b = g.org[q1[(i1 + 3) % 4]]
        i2 = q2.index(dq)
        d2 = g.org[q2[(i2 + 2) % 4]]
        c2 = g.org[q2[(i2 + 3) % 4]]
        va = q1[(i1 + 1) % 4]          # v -> a
        vc = q2[(i2 + 3) % 4] ^ 1      # v -> c
        s.remove_tokens(v, [va, dq, vc])
        dead_vertices.extend((w, a, b, c2, d2))
        for dz in q1 + q2:
            removed_tokens.update((dz, dz ^ 1))
    elif num == 7:
        (dq,) = data          # q -> r shared edge
        quad2 = g.faces[g.face_of[dq]]       # (q,r,t,s)
        quad1 = g.faces[g.face_of[dq ^ 1]]   # (r,q,v,p1)
        i1 = quad1.index(dq ^ 1)
        v7 = g.org[quad1[(i1 + 2) % 4]]
        p1 = g.org[quad1[(i1 + 3) % 4]]
        qv_ = g.org[dq]
        rv = g.org[dq ^ 1]
        i2 = quad2.index(dq)
        t = g.org[quad2[(i2 + 2) % 4]]
        sv = g.org[quad2[(i2 + 3) % 4]]
        # quad1 walk = (r->q, q->v, v->p1, p1->r): v's darts are
        # (v->p1) = quad1[i1+2] and (v->q) = reverse of (q->v)
        n_p = quad1[(i1 + 2) % 4]
        n_q = quad1[(i1 + 1) % 4] ^ 1
        s.remove_tokens(v7, [n_p, n_q])
        dead_vertices.extend((p1, rv, qv_, t, sv))
        for dz in quad1 + quad2:
            removed_tokens.update((dz, dz ^ 1))
    elif num == 8:
        q, k = data           # remove org(q[k+1]), org(q[k+2])
        u = g.org[q[k]]
        v = g.org[q[(k + 3) % 4]]
        a = g.org[q[(k + 1) % 4]]
        b = g.org[q[(k + 2) % 4]]
        s.remove_tokens(u, [q[k]])
        s.remove_tokens(v, [q[(k + 2) % 4] ^ 1])
        dead_vertices.extend((a, b))
        for dz in (q[k], q[(k + 1) % 4], q[(k + 2) % 4]):
            removed_tokens.update((dz, dz ^ 1))
    elif num == 9:
        q, k = data
        x = g.org[q[k]]
        for d in g.darts_at(x):
            s.remove_tokens(g.org[d ^ 1], [d ^ 1])
            removed_tokens.update((d, d ^ 1))
        dead_vertices.append(x)
    elif num == 10:
        (d,) = data
        s.remove_tokens(g.org[d], [d])
        s.remove_tokens(g.org[d ^ 1], [d ^ 1])
        removed_tokens.update((d, d ^ 1))
    else:
        raise ValueError(f"unknown reduction {num}")

    outer_token = None
    for d in g.faces[g.outer]:
        if d not in removed_tokens:
            outer_token = d
            break
    assert outer_token is not None
    if dead_vertices:
        s.delete_vertices(dead_vertices)
    parent, _ = s.freeze(outer_token)
    return parent
