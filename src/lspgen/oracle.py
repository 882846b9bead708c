"""Brute-force enumeration of decorations, independent of the generator.

All triangulated disks with a given number of triangles are built by
shelling (gluing one triangle at a time along one or two consecutive
boundary edges), every admissible edge 3-coloring is enumerated, and the
valid rooted decorations are collected by identity code.  Only the core
map machinery, the validator and the classifier are shared with the main
pipeline.  The construction path is disjoint from the generator and the
completion search, and neither of them calls the validator.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Optional

from .classify import connectivity_class_of
from .complete import complete
from .decorations import Decoration, corner_pairs, decoration_identity, validate
from .generate import GenerationTask, generate
from .maps import PlaneGraph, build_from_rotations, canonical_code
from .predecorations import outer_vertex_occurrences
from .surgery import Surgeon


def _triangle() -> PlaneGraph:
    g = build_from_rotations({1: [2, 3], 2: [3, 1], 3: [1, 2]})
    return g.with_outer(0)


def _apex_glue(g: PlaneGraph, d: int) -> PlaneGraph:
    u, v = g.org[d], g.org[d ^ 1]
    s = Surgeon(g)
    ux, uxr = s.fresh_pair()
    xv, xvr = s.fresh_pair()
    s.insert_after(u, d, [ux])
    s.insert_before(v, d ^ 1, [xvr])
    s.new_vertex([uxr, xv])
    child, tr = s.freeze(ux)
    return child


def _fold(g: PlaneGraph, d1: int, d2: int) -> Optional[PlaneGraph]:
    u, v, w = g.org[d1], g.org[d2], g.org[d2 ^ 1]
    if len({u, v, w}) != 3 or g.has_edge(u, w):
        return None
    s = Surgeon(g)
    uw, uwr = s.fresh_pair()
    s.insert_after(u, d1, [uw])
    s.insert_before(w, d2 ^ 1, [uwr])
    child, tr = s.freeze(uw)
    return child


def _useless(g: PlaneGraph) -> bool:
    """Inner vertices of degree < 4 can never appear in a decoration."""
    on_outer = {g.org[d] for d in g.faces[g.outer]}
    return any(g.degree(v) < 4 for v in range(g.n) if v not in on_outer)


def triangulated_disks(r: int) -> list[PlaneGraph]:
    """All triangulated disks with r triangles and no inner vertex of
    degree below 4, up to isomorphism."""
    level = {canonical_code(_triangle(), "full"): _triangle()}
    for _ in range(r - 1):
        nxt: dict[tuple, PlaneGraph] = {}
        for g in level.values():
            walk = g.faces[g.outer]
            m = len(walk)
            children = [_apex_glue(g, d) for d in walk]
            children += [_fold(g, walk[i], walk[(i + 1) % m])
                         for i in range(m)]
            for child in children:
                if child is None:
                    continue
                if _useless(child):
                    continue
                code = canonical_code(child, "full")
                if code not in nxt:
                    nxt[code] = child
        level = nxt
    return list(level.values())


def _edge_colorings(g: PlaneGraph) -> Iterable[tuple[int, ...]]:
    """Edge types making every inner face rainbow and every vertex
    incident to at most two type values."""
    inner = [f for f in range(len(g.faces)) if f != g.outer]
    order: list[int] = []
    seen_edges: set[int] = set()
    seen_faces: set[int] = set()
    # faces in an adjacency-respecting order
    stack = [inner[0]]
    seen_faces.add(inner[0])
    while stack:
        f = stack.pop()
        order.append(f)
        for d in g.faces[f]:
            f2 = g.face_of[d ^ 1]
            if f2 != g.outer and f2 not in seen_faces:
                seen_faces.add(f2)
                stack.append(f2)
    et = [-1] * g.ne
    vtypes: list[set[int]] = [set() for _ in range(g.n)]

    def assign(e: int, t: int) -> Optional[list[tuple[int, int]]]:
        for x in g.edge_ends(e):
            if t not in vtypes[x] and len(vtypes[x]) == 2:
                return None
        et[e] = t
        changed = [(e, t)]
        for x in g.edge_ends(e):
            if t not in vtypes[x]:
                vtypes[x].add(t)
                changed.append((-1 - x, t))
        return changed

    def undo(changed) -> None:
        for key, t in changed:
            if key >= 0:
                et[key] = -1
            else:
                vtypes[-1 - key].discard(t)

    out: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == len(order):
            out.append(tuple(et))
            return
        f = order[i]
        edges = [d >> 1 for d in g.faces[f]]
        fixed = [e for e in edges if et[e] >= 0]
        free = [e for e in edges if et[e] < 0]
        used = {et[e] for e in fixed}
        if len(used) < len(fixed):
            return
        rest = [t for t in (0, 1, 2) if t not in used]
        if not free:
            rec(i + 1)
            return
        for perm in permutations(rest):
            done = []
            ok = True
            for e, t in zip(free, perm):
                ch = assign(e, t)
                if ch is None:
                    ok = False
                    break
                done.append(ch)
            if ok:
                rec(i + 1)
            for ch in reversed(done):
                undo(ch)

    rec(0)
    return out


def decorations_brute(r: int) -> dict[tuple, Decoration]:
    """All rooted decorations with inflation rate r, by identity code."""
    found: dict[tuple, Decoration] = {}
    disks = triangulated_disks(r)
    # decorations are chiral objects: enumerate both embeddings
    for g in [g for d in disks for g in (d, d.mirrored())]:
        outer_vertices = list(outer_vertex_occurrences(g))
        for et in _edge_colorings(g):
            vt = [0] * g.n
            bad = False
            for v in range(g.n):
                ts = {et[d >> 1] for d in g.darts_at(v)}
                if len(ts) > 2:
                    bad = True
                    break
                vt[v] = ({0, 1, 2} - ts).pop() if len(ts) == 2 else -1
            if bad or -1 in vt:
                continue
            vt_t = tuple(vt)
            for v1 in outer_vertices:
                deg = g.degree(v1)
                if (vt_t[v1] == 1 and deg != 2) or (vt_t[v1] != 1 and deg <= 2):
                    continue
                if validate(g, vt_t, et, v1):
                    continue
                for v0, v2 in corner_pairs(g, vt_t, v1):
                    d = Decoration(g, vt_t, et, (v0, v1, v2))
                    code = decoration_identity(d)
                    if code not in found:
                        found[code] = d
    return found


def _brute_by_code(r: int, k: int) -> dict[tuple, Decoration]:
    if not 1 <= r <= 8:
        raise ValueError("brute force supports rates 1..8")
    return {code: d for code, d in decorations_brute(r).items()
            if k == 1 or connectivity_class_of(d) >= k}


def bruteforce_decorations(r: int, k: int = 1) -> set[tuple]:
    """Identity codes of all decorations with rate r and class >= k."""
    return set(_brute_by_code(r, k))


def cross_check(r: int, k: int = 1) -> dict:
    """Comparison of the brute-force and main pipelines by identity code;
    the decorations found on one side only are listed in code order."""
    main: dict[tuple, Decoration] = {}

    def visit(p):
        complete(p, k, r, r,
                 lambda d: main.setdefault(decoration_identity(d), d))

    generate(GenerationTask(r, r, k), visitor=visit)
    brute = _brute_by_code(r, k)
    return {
        "rate": r,
        "k": k,
        "main": len(main),
        "brute": len(brute),
        "only_main": [main[c] for c in sorted(main.keys() - brute.keys())],
        "only_brute": [brute[c] for c in sorted(brute.keys() - main.keys())],
        "equal": main.keys() == brute.keys(),
    }
