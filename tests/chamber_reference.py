"""Independent references for the tests: chamber systems, the old route
from a decoration to its result (its union-find gluing is compared with
the orbit tables of ``lspgen.chambers._glue``), brute-force
isomorphisms, and the automorphism group of a map and its orbits.

``lspgen.chambers.apply_decoration`` reads the result of an operation
straight off the gluing of the chambers.  The reference here takes the
long way the construction describes: it builds the barycentric
subdivision (the chamber system) of a map, fills every chamber of a
host with a copy of the decoration, checks that the result is a chamber
system again, and extracts the graph whose chamber system it is.  It
keeps its own copy of the gluing, so it shares no code with what it
checks except ``lspgen.maps``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from lspgen.maps import MapError, PlaneGraph, automorphisms_flagged


class ChamberSystem:
    """A typed barycentric-subdivision-like triangulated map."""

    __slots__ = ("g", "vertex_type", "edge_type", "classes")

    def __init__(self, g: PlaneGraph, vertex_type, edge_type, classes=None):
        self.g = g
        self.vertex_type = tuple(vertex_type)
        self.edge_type = tuple(edge_type)
        # decorate_chambers: the glued class (chamber * n + vertex, the
        # least pair) that each vertex stands for
        self.classes = classes

    def check(self) -> None:
        g = self.g
        for f, darts in enumerate(g.faces):
            if len(darts) != 3:
                raise MapError("chamber system face is not a triangle")
            types = {self.vertex_type[g.org[d]] for d in darts}
            if types != {0, 1, 2}:
                raise MapError("chamber corners must have types 0,1,2")
        for e in range(g.ne):
            u, w = g.edge_ends(e)
            if {self.edge_type[e], self.vertex_type[u],
                    self.vertex_type[w]} != {0, 1, 2}:
                raise MapError("edge type must complete its endpoints")


def barycentric_subdivision(g: PlaneGraph) -> ChamberSystem:
    """The chamber system of a connected embedded graph."""
    nv, ne, nf = g.n, g.ne, len(g.faces)
    vid = list(range(nv))
    eid = [nv + e for e in range(ne)]
    fid = [nv + ne + f for f in range(nf)]

    # tokens: per original dart d there are three half-edge pairs
    #   type-2: org(d) -- mid(e(d))     tokens (6d, 6d+1)
    #   type-1: org(d) -- center(left)  tokens (6d+2, 6d+3)
    #   type-0: mid(e(d)) -- center(left)  tokens (6d+4, 6d+5)
    def t2(d): return 6 * d
    def t1(d): return 6 * d + 2
    def t0(d): return 6 * d + 4

    rot: list[list[int]] = [[] for _ in range(nv + ne + nf)]
    for v in range(nv):
        for d in g.darts_at(v):
            rot[vid[v]] += [t2(d), t1(d)]
    for e in range(ne):
        d, dr = 2 * e, 2 * e + 1
        rot[eid[e]] = [t2(d) + 1, t0(dr), t2(dr) + 1, t0(d)]
    for f in range(nf):
        for d in g.faces[f]:
            rot[fid[f]] += [t1(d) + 1, t0(d) + 1]

    pair: dict[int, int] = {}
    for d in range(2 * ne):
        for base in (t2(d), t1(d), t0(d)):
            pair[base] = base + 1
            pair[base + 1] = base

    trans: dict[int, int] = {}
    k = 0
    for row in rot:
        for t in row:
            if t not in trans:
                trans[t] = 2 * k
                trans[pair[t]] = 2 * k + 1
                k += 1
    # the outer face of a subdivision is not well defined, so chamber
    # systems carry no marked outer face
    cg = PlaneGraph([[trans[t] for t in row] for row in rot])

    vertex_type = [0] * nv + [1] * ne + [2] * nf
    edge_type = [0] * cg.ne
    for e2 in range(cg.ne):
        u, w = cg.edge_ends(e2)
        edge_type[e2] = 3 - vertex_type[u] - vertex_type[w]
    cs = ChamberSystem(cg, vertex_type, edge_type)
    cs.check()
    return cs


def extract_original(c: ChamberSystem) -> PlaneGraph:
    """Rebuilds the graph whose chamber system this is.

    Vertices are the type-0 vertices; each type-1 vertex carries exactly
    two type-2 edges which merge into one edge of the result.
    """
    g = c.g
    vt, et = c.vertex_type, c.edge_type
    verts = [v for v in range(g.n) if vt[v] == 0]

    # per type-0 vertex: its type-2 darts in rotation order
    half: dict[int, list[int]] = {}
    for v in verts:
        half[v] = [d for d in g.darts_at(v) if et[d >> 1] == 2]
        if not half[v]:
            raise MapError("type-0 vertex without type-2 edges")
    # pair the two type-2 darts through each type-1 vertex
    mate: dict[int, int] = {}
    for m in range(g.n):
        if vt[m] != 1:
            continue
        t2 = [d for d in g.darts_at(m) if et[d >> 1] == 2]
        if len(t2) != 2:
            raise MapError("type-1 vertex without exactly two type-2 edges")
        a, b = t2[0] ^ 1, t2[1] ^ 1   # darts from the type-0 endpoints
        mate[a] = b
        mate[b] = a
        if g.org[a] == g.org[b]:
            raise MapError("extraction would create a loop")

    dart_id: dict[int, int] = {}
    k = 0
    for v in verts:
        for d in half[v]:
            if d not in dart_id:
                dart_id[d] = 2 * k
                dart_id[mate[d]] = 2 * k + 1
                k += 1
    return PlaneGraph([[dart_id[d] for d in half[v]] for v in verts])


# -- filling the chambers of a host ------------------------------------------


def side_paths(d) -> dict[int, list[int]]:
    """Side k of a decoration as the vertex path from corner min to
    corner max index, read along the outer walk; side k joins the two
    corners other than vk."""
    g = d.g
    walk = g.faces[g.outer]
    verts = [g.org[x] for x in walk]
    m = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    v0, v1, v2 = d.corners
    sides: dict[int, list[int]] = {}
    for k, (a, b) in ((0, (v1, v2)), (1, (v0, v2)), (2, (v0, v1))):
        third = ({v0, v1, v2} - {a, b}).pop()
        path = [a]
        i = pos[a]
        while verts[i] != b:
            i = (i + 1) % m
            path.append(verts[i])
        if third in path[1:-1]:
            path = [b]
            i = pos[b]
            while verts[i] != a:
                i = (i + 1) % m
                path.append(verts[i])
            path.reverse()
        sides[k] = path
    return sides


def _glue(g: PlaneGraph, d
          ) -> tuple[list[tuple[int, int, int]], dict[int, int], list[int],
                     list[int]]:
    """One copy of the decoration per chamber (flag) of g, glued along
    shared sides: the neighbours of each chamber across sides 0, 1, 2,
    the side of each edge of the decoration's outer walk, the glued
    class of every (chamber, vertex) pair, and the number of distinct
    classes of each decoration vertex."""
    if g.ne < 1:
        raise MapError("seed graph needs at least one edge")
    nbrs: list[tuple[int, int, int]] = []
    for dd in range(2 * g.ne):
        nbrs.append((2 * (dd ^ 1) + 1, 2 * g.nxt[dd] + 1, 2 * dd + 1))
        nbrs.append((2 * (dd ^ 1), 2 * g.prv[dd], 2 * dd))
    sides = side_paths(d)
    n = d.g.n
    cls = list(range(len(nbrs) * n))

    def find(x: int) -> int:
        while cls[x] != x:
            cls[x] = cls[cls[x]]
            x = cls[x]
        return x

    for ch, row in enumerate(nbrs):
        for k, other in enumerate(row):
            if other > ch:
                for x in sides[k]:
                    a, b = find(ch * n + x), find(other * n + x)
                    if a < b:
                        cls[b] = a
                    elif b < a:
                        cls[a] = b
    for x in range(len(cls)):
        cls[x] = find(x)
    return (nbrs, _side_edges(d, sides), cls,
            [len(set(cls[x::n])) for x in range(n)])


def _side_edges(d, sides: dict[int, list[int]]) -> dict[int, int]:
    """Decoration edge -> the side it lies on, for the edges of the outer
    walk."""
    dg = d.g
    side_of_edge: dict[int, int] = {}
    for k in range(3):
        path = sides[k]
        for i in range(len(path) - 1):
            u, w = path[i], path[i + 1]
            for dd in dg.darts_at(u):
                if dg.org[dd ^ 1] == w and dg.face_of[dd] == dg.outer:
                    side_of_edge[dd >> 1] = k
                    break
            else:
                for dd in dg.darts_at(u):
                    if dg.org[dd ^ 1] == w and dg.face_of[dd ^ 1] == dg.outer:
                        side_of_edge[dd >> 1] = k
                        break
    return side_of_edge


def decorate_chambers(g: PlaneGraph, d) -> ChamberSystem:
    """The chamber system produced by filling every chamber of C_g with
    the decoration (mirrored in alternate chambers)."""
    nbrs, side_of_edge, cls, _ = _glue(g, d)
    dg = d.g

    # faces of the new chamber system: one per (chamber, inner face of d)
    face_walks: list[list[tuple[int, int]]] = []   # [(chamber, d-dart)]
    for ch in range(len(nbrs)):
        s = ch & 1
        for f, darts in enumerate(dg.faces):
            if f == dg.outer:
                continue
            if s == 0:
                face_walks.append([(ch, x) for x in darts])
            else:
                # mirror: reverse the walk and flip each dart
                face_walks.append([(ch, x ^ 1) for x in reversed(darts)])

    # edge classes: interior edges pair inside a chamber, boundary edges
    # pair with the neighbor across the side they lie on
    def edge_class(ch: int, e: int) -> tuple[int, int]:
        k = side_of_edge.get(e)
        if k is None:
            return (ch, e)
        return (min(ch, nbrs[ch][k]), e)

    # build the map from oriented face walks
    walk_flat = [dart for fw in face_walks for dart in fw]
    nd = len(walk_flat)
    fnext = [0] * nd
    i = 0
    for fw in face_walks:
        L = len(fw)
        for j in range(L):
            fnext[i + j] = i + (j + 1) % L
        i += L
    # reverse pairing: group darts by edge class
    by_edge: dict[tuple[int, int], list[int]] = {}
    for idx, (ch, x) in enumerate(walk_flat):
        by_edge.setdefault(edge_class(ch, x >> 1), []).append(idx)
    rev = [0] * nd
    for key, idxs in by_edge.items():
        if len(idxs) != 2:
            raise MapError(f"edge class {key} has {len(idxs)} sides")
        a, b = idxs
        rev[a] = b
        rev[b] = a

    # sigma = alpha o fprev; renumber with rev = ^1
    fprev = [0] * nd
    for x in range(nd):
        fprev[fnext[x]] = x
    sigma = [rev[fprev[x]] for x in range(nd)]

    new_id = [-1] * nd
    k2 = 0
    for x in range(nd):
        if new_id[x] < 0:
            new_id[x] = 2 * k2
            new_id[rev[x]] = 2 * k2 + 1
            k2 += 1

    # glued vertex classes, numbered densely
    cls_id: dict[int, int] = {}

    def vclass(ch: int, x: int) -> int:
        root = cls[ch * dg.n + dg.org[x]]
        if root not in cls_id:
            cls_id[root] = len(cls_id)
        return cls_id[root]

    # one row per sigma cycle, all of whose darts lie in one glued class
    rows: dict[int, list[int]] = {}
    seen = [False] * nd
    for x in range(nd):
        if seen[x]:
            continue
        v = vclass(*walk_flat[x])
        if v in rows:
            raise MapError("glued vertex with two rotation cycles")
        row = rows[v] = []
        y = x
        while not seen[y]:
            if vclass(*walk_flat[y]) != v:
                raise MapError("rotation cycle through two glued vertices")
            seen[y] = True
            row.append(new_id[y])
            y = sigma[y]
    cg = PlaneGraph(list(rows.values()))

    vertex_type = [0] * cg.n
    for x in range(nd):
        ch, dd = walk_flat[x]
        vertex_type[cg.org[new_id[x]]] = d.vt[dg.org[dd]]
    edge_type = [0] * cg.ne
    for x in range(nd):
        ch, dd = walk_flat[x]
        edge_type[new_id[x] >> 1] = d.et[dd >> 1]
    cs = ChamberSystem(cg, vertex_type, edge_type, list(cls_id))
    cs.check()
    return cs


def apply_decoration(g: PlaneGraph, d) -> PlaneGraph:
    """The graph obtained by decorating every chamber of g, extracted from
    the decorated chamber system."""
    return extract_original(decorate_chambers(g, d))


# -- connectivity from the chamber system ------------------------------------


def connectivity_of_chamber_system(c: ChamberSystem) -> int:
    """1, 2 or 3 from the type-1 cycle structure (plane case only)."""
    g = c.g
    if g.genus != 0:
        raise MapError("type-1 cycle test is only valid at genus 0")
    et = c.edge_type
    pairs: dict[tuple[int, int], int] = {}
    for e in range(g.ne):
        if et[e] != 1:
            continue
        key = tuple(sorted(g.edge_ends(e)))
        if key in pairs:
            return 1
        pairs[key] = e

    # type-1 4-cycles: v - f - w - g alternating between the two color
    # classes of the bipartite type-1 subgraph
    nbrs: dict[int, dict[int, int]] = {}
    for key, e in pairs.items():
        u, w = key
        nbrs.setdefault(u, {})[w] = e
        nbrs.setdefault(w, {})[u] = e
    sub_vertices = set(nbrs)
    verts = sorted(nbrs)
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if w in nbrs[u]:
                continue
            common = sorted(set(nbrs[u]) & set(nbrs[w]))
            for ai in range(len(common)):
                for bi in range(ai + 1, len(common)):
                    a, b = common[ai], common[bi]
                    cyc = (nbrs[u][a], nbrs[a][w], nbrs[w][b], nbrs[b][u])
                    if _nonempty_cycle(g, cyc, sub_vertices):
                        return 2
    return 3


def _nonempty_cycle(g: PlaneGraph, cycle_edges, sub_vertices) -> bool:
    cyc = set(cycle_edges)
    cyc_verts = set()
    for e in cycle_edges:
        cyc_verts.update(g.edge_ends(e))
    d0 = 2 * cycle_edges[0]
    for start in (d0, d0 ^ 1):
        seen = {g.face_of[start]}
        stack = [g.face_of[start]]
        verts = set()
        while stack:
            f = stack.pop()
            for dd in g.faces[f]:
                verts.add(g.org[dd])
                if (dd >> 1) in cyc:
                    continue
                f2 = g.face_of[dd ^ 1]
                if f2 not in seen:
                    seen.add(f2)
                    stack.append(f2)
        if not (verts - cyc_verts) & sub_vertices:
            return False
    return True


# -- brute-force isomorphisms (small graphs) ---------------------------------


def isomorphisms_brute(a: PlaneGraph, b: PlaneGraph, mode: str = "full"
                       ) -> Iterator[list[int]]:
    """All vertex bijections a -> b compatible with the rotation systems.

    Exponential; intended as an independent oracle for graphs with at
    most ~8 vertices.  Ignores outer faces and labels.
    """
    if a.n != b.n or a.ne != b.ne:
        return
    dega = sorted(a.degree(v) for v in range(a.n))
    degb = sorted(b.degree(v) for v in range(b.n))
    if dega != degb:
        return
    mirrors = (False, True) if mode == "full" else (False,)
    seen = set()
    for mirror in mirrors:
        d0 = 0
        for e0 in range(2 * b.ne):
            m = _try_map(a, b, d0, e0, mirror)
            if m is not None and tuple(m) not in seen:
                seen.add(tuple(m))
                yield m


def _try_map(a: PlaneGraph, b: PlaneGraph, d0: int, e0: int,
             mirror: bool) -> Optional[list[int]]:
    stepb = b.prv if mirror else b.nxt
    dart_map = [-1] * (2 * a.ne)
    vmap = [-1] * a.n
    stack = [(d0, e0)]
    while stack:
        d, e = stack.pop()
        if dart_map[d] >= 0:
            if dart_map[d] != e:
                return None
            continue
        va, vb = a.org[d], b.org[e]
        if vmap[va] >= 0 and vmap[va] != vb:
            return None
        if a.degree(va) != b.degree(vb):
            return None
        vmap[va] = vb
        dart_map[d] = e
        stack.append((d ^ 1, e ^ 1))
        stack.append((a.nxt[d], stepb[e]))
    if any(x < 0 for x in dart_map):
        # disconnected never happens (graphs are connected)
        return None
    return vmap


def automorphisms(g: PlaneGraph, mode: str = "full",
                  vlab: Optional[Sequence[int]] = None,
                  elab: Optional[Sequence[int]] = None,
                  fixed: Optional[Iterable[int]] = None
                  ) -> list[tuple[int, ...]]:
    """The automorphism group as dart permutations.

    Respects labels and the outer face; ``fixed`` vertices must be mapped
    to themselves.  The identity is always included.
    """
    # a map that equals its own mirror has each permutation in both
    # orientations
    perms = list(dict.fromkeys(
        p for p, _ in automorphisms_flagged(g, mode, vlab, elab)))
    if fixed is not None:
        fix = list(fixed)
        perms = [p for p in perms
                 if all(g.org[p[g.darts_at(v)[0]]] == v for v in fix)]
    return perms


def automorphism_orbits(g: PlaneGraph, mode: str = "full",
                        fixed: Optional[list[int]] = None
                        ) -> tuple[list[list[int]], int]:
    """Orbits of the automorphism group (fixing the vertices in `fixed`)
    on darts, plus the group order."""
    perms = automorphisms(g, mode, fixed=fixed)
    parent = list(range(2 * g.ne))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for d in range(2 * g.ne):
            a, b = find(d), find(p[d])
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for d in range(2 * g.ne):
        groups.setdefault(find(d), []).append(d)
    return list(groups.values()), len(perms)
