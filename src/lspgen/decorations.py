"""Decorations: typed triangulated disks that act on embedded graphs.

A decoration is a 2-connected plane graph with a marked outer face, a
type function on vertices and edges with values in {0, 1, 2}, and corner
vertices v0, v1, v2 on the outer face.  All inner faces are triangles,
every edge sees all three types across itself and its endpoints, edge
types alternate around each vertex, and the degree rules distinguish
inner vertices, outer non-corners, and the corners.

Two decorations are considered the same when there is an orientation-
preserving, type-preserving isomorphism fixing the outer face, mapping v1
to v1 and the unordered corner pair {v0, v2} onto itself.  This is the
unique reading consistent with the published per-rate counts: identity
and dual are distinct, mirror images of chiral decorations are distinct,
symmetric ones are not doubled, and placements of {v0, v2} that differ
beyond the forced corners are counted (and classified) separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

from . import classify
from .maps import (MapError, PlaneGraph, build_from_rotations,
                   canonical_code, canonical_order,
                   vertex_connectivity_capped)
from .predecorations import Predecoration, outer_vertex_occurrences


class Facts:
    """What the class-1 rules of lspgen.classify read: the outer walk's
    vertices in order; for each step walk[i] -> walk[i + 1] the id of its
    edge if that has type 1, else None; the type-1 edges as (id, type-0
    end, type-2 end); the corners; whether v1 has type 1.  A Decoration
    reads them off its map, a completion record (lspgen.complete) off its
    skeleton and cover.  Derived: `outer`, the type-1 edges on the walk,
    and `sides`, the vertices of sides 0, 1 and 2 (side k is the stretch
    of the walk between the two corners other than vk), which the gluing
    reads too."""

    __slots__ = ("walk", "steps", "edges", "corners", "v1_type1", "outer",
                 "sides")

    def __init__(self, walk: tuple[int, ...], steps: tuple[Optional[int], ...],
                 edges: tuple[tuple[int, int, int], ...],
                 corners: tuple[int, int, int], v1_type1: bool):
        self.walk, self.steps, self.edges = walk, steps, edges
        self.corners, self.v1_type1 = corners, v1_type1
        self.outer = frozenset(steps) - {None}
        pos = {v: i for i, v in enumerate(walk)}

        def arc(a: int, b: int) -> tuple[int, ...]:
            i, j = pos[a], pos[b]
            return walk[i:j + 1] if i <= j else walk[i:] + walk[:j + 1]

        v0, v1, v2 = corners
        sides = []
        for vk, a, b in ((v0, v1, v2), (v1, v0, v2), (v2, v0, v1)):
            path = arc(a, b)
            sides.append(frozenset(arc(b, a) if vk in path else path))
        self.sides = tuple(sides)


@dataclass(frozen=True)
class Decoration:
    g: PlaneGraph
    vt: tuple[int, ...]
    et: tuple[int, ...]
    corners: tuple[int, int, int]   # (v0, v1, v2); v1 is identity-relevant
    # [class, cap] once classified; lspgen.complete shares one per family
    verdict: Optional[list] = field(default=None, compare=False, repr=False)

    def rate(self) -> int:
        return len(self.g.faces) - 1

    @cached_property
    def facts(self) -> Facts:
        g, vt, et = self.g, self.vt, self.et
        walk = g.faces[g.outer]
        edges = []
        for e, t in enumerate(et):
            if t == 1:
                a, y = g.edge_ends(e)
                edges.append((e, y, a) if vt[a] else (e, a, y))
        return Facts(tuple([g.org[x] for x in walk]),
                     tuple([x >> 1 if et[x >> 1] == 1 else None
                            for x in walk]),
                     tuple(edges), self.corners, vt[self.corners[1]] == 1)


def _noncorner_ok(t: int, deg: int, outer: bool) -> bool:
    """The degree rule of a non-corner vertex of type t."""
    if outer:
        return deg == 3 if t == 1 else deg > 3
    return deg == 4 if t == 1 else deg > 4


def validate(g: PlaneGraph, vt, et, v1: int,
             v0: Optional[int] = None, v2: Optional[int] = None) -> list[str]:
    """All violations of the decoration conditions (empty if valid).

    Without v0 and v2, some valid placement of them is required to exist;
    with both given, that rooting itself is checked.
    """
    problems: list[str] = []
    if g.genus != 0:
        problems.append("not a plane graph")
    if g.outer is None:
        return problems + ["no outer face marked"]
    if vertex_connectivity_capped(g, 2) < 2:
        problems.append("not 2-connected")
    for f, darts in enumerate(g.faces):
        if f != g.outer and len(darts) != 3:
            problems.append(f"inner face {f} has size {len(darts)}")
    for e in range(g.ne):
        u, w = g.edge_ends(e)
        if {et[e], vt[u], vt[w]} != {0, 1, 2}:
            problems.append(f"edge {e} types {{{et[e]},{vt[u]},{vt[w]}}}")
    for v in range(g.n):
        others = {0, 1, 2} - {vt[v]}
        for d in g.darts_at(v):
            if et[d >> 1] not in others:
                problems.append(f"edge type {et[d >> 1]} at vertex {v}")
            nd = g.nxt[d]
            if g.face_of[d] != g.outer and et[d >> 1] == et[nd >> 1]:
                problems.append(f"equal types around inner face at {v}")
    if problems:
        return problems

    outer_set = set(outer_vertex_occurrences(g))
    if v1 not in outer_set:
        return [f"v1={v1} not on the outer face"]
    deg = g.degree(v1)
    if vt[v1] == 1 and deg != 2:
        problems.append(f"v1 of type 1 must have degree 2, has {deg}")
    if vt[v1] != 1 and deg <= 2:
        problems.append(f"v1 of type {vt[v1]} must have degree > 2")
    for v in range(g.n):
        if v in (v0, v1, v2):
            continue
        if v in outer_set:
            if (v0 is None or v2 is None) and vt[v] != 1:
                continue    # could still become v0 or v2
            if not _noncorner_ok(vt[v], g.degree(v), outer=True):
                problems.append(f"outer vertex {v} violates degree rule")
        elif not _noncorner_ok(vt[v], g.degree(v), outer=False):
            problems.append(f"inner vertex {v} violates degree rule")
    if problems:
        return problems

    if v0 is not None and v2 is not None:
        if len({v0, v1, v2}) != 3:
            problems.append("corners not distinct")
        elif vt[v0] == 1 or vt[v2] == 1:
            problems.append("v0 and v2 must not have type 1")
        elif not {v0, v2} <= outer_set:
            problems.append("corners must lie on the outer face")
        return problems
    return [] if corner_pairs(g, vt, v1) else ["no valid v0/v2 assignment"]


def corner_pairs(g: PlaneGraph, vt, v1: int) -> list[tuple[int, int]]:
    """All valid {v0, v2} assignments for a fixed v1."""
    return walk_corner_pairs(outer_vertex_occurrences(g), vt, g.degree, v1)


def walk_corner_pairs(outer: Iterable[int], vt, degree: Callable[[int], int],
                      v1: int) -> list[tuple[int, int]]:
    """All valid {v0, v2} assignments for a fixed v1, given the outer
    walk's vertices in order, each once, the vertex types and degrees."""
    forced = [v for v in outer
              if v != v1 and not _noncorner_ok(vt[v], degree(v), outer=True)]
    if len(forced) > 2 or any(vt[v] == 1 for v in forced):
        return []
    cands = [v for v in outer if v != v1 and vt[v] != 1]
    return [(a, b) for i, a in enumerate(cands) for b in cands[i + 1:]
            if (a in forced) + (b in forced) == len(forced)]


# -- connectivity class -----------------------------------------------------


def connectivity_class(d: Decoration, cap: int = 3) -> int:
    """Highest k in {1,2,3} for which this is a k-connected decoration,
    or cap if smaller (a filter for class >= k needs no more than cap k).

    The class belongs to the rooted decoration (it depends on where the
    corners are placed); see lspgen.classify for the procedure.
    """
    return classify.connectivity_class_of(d, cap)


# -- transforms and identity -------------------------------------------------


def swap02(d: Decoration, verdict: Optional[list] = None) -> Decoration:
    """Exchanges types 0 and 2 everywhere (identity <-> dual pairing); the
    result carries the verdict cell given, none by default."""
    return Decoration(d.g, tuple([2 - t for t in d.vt]),
                      tuple([2 - t for t in d.et]), d.corners, verdict)


def mirror(d: Decoration) -> Decoration:
    """The mirror image; vertex ids, types and corners are unchanged."""
    return Decoration(d.g.mirrored(), d.vt, d.et, d.corners)


def _identity_labels(d: Decoration) -> tuple[int, ...]:
    """Vertex labels of the identity code: 3 * type + corner mark, the
    mark 1 at v1 and 2 at v0 and v2 ({v0, v2} is an unordered pair)."""
    v0, v1, v2 = d.corners
    vlab = [3 * t for t in d.vt]
    vlab[v0] = 3 * d.vt[v0] + 2
    vlab[v2] = 3 * d.vt[v2] + 2
    vlab[v1] = 3 * d.vt[v1] + 1
    return tuple(vlab)


def decoration_identity(d: Decoration) -> tuple[int, ...]:
    return canonical_code(d.g, "oriented", vlab=_identity_labels(d),
                          elab=d.et)


def type1_subgraph(d: Decoration) -> tuple[Predecoration, dict[int, int]]:
    """The predecoration of type-1 edges, plus old->new vertex mapping."""
    g, et = d.g, d.et
    keep_darts = [dd for dd in range(2 * g.ne) if et[dd >> 1] == 1]
    verts = sorted({g.org[dd] for dd in keep_darts})
    vmap = {v: i for i, v in enumerate(verts)}
    # merge faces across removed edges to find the new outer face
    parent = list(range(len(g.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in range(g.ne):
        if et[e] != 1:
            a, b = find(g.face_of[2 * e]), find(g.face_of[2 * e + 1])
            if a != b:
                parent[a] = b
    outer_class = find(g.outer)

    dart_id = {dd: i for i, dd in enumerate(keep_darts)}
    rows = [[dart_id[dd] for dd in g.darts_at(v) if et[dd >> 1] == 1]
            for v in verts]
    outer_dart = next(dart_id[dd] for dd in keep_darts
                      if find(g.face_of[dd]) == outer_class)
    return Predecoration(PlaneGraph(rows, outer_dart)), vmap


def canonicalized(d: Decoration) -> Decoration:
    """Relabels vertices into canonical-code order.  Only the vertex
    order is canonical: each row keeps the cyclic dart order it was built
    with, starting at its least dart, so two isomorphic decorations built
    differently may still differ in where their rows start."""
    order = canonical_order(d.g, "oriented", vlab=_identity_labels(d),
                            elab=d.et)
    g2 = d.g.relabeled(order)
    vt2 = [0] * d.g.n
    for v in range(d.g.n):
        vt2[order[v]] = d.vt[v]
    # an edge's type is the one its two ends leave (see ``validate``)
    et2 = [3 - vt2[a] - vt2[b] for a, b in map(g2.edge_ends, range(g2.ne))]
    corners = tuple(order[c] for c in d.corners)
    return Decoration(g2, tuple(vt2), tuple(et2), corners)  # type: ignore


# -- .deco text format -------------------------------------------------------


def write_deco(d: Decoration) -> str:
    k = connectivity_class(d)       # before relabelling drops the cell
    d = canonicalized(d)
    g = d.g
    # rotate v0's list so that its first dart lies on the outer face
    rows = []
    for v in range(g.n):
        darts = list(g.darts_at(v))
        if v == d.corners[0]:
            for i, dd in enumerate(darts):
                if g.face_of[dd] == g.outer:
                    darts = darts[i:] + darts[:i]
                    break
        rows.append(darts)
    lines = [
        "deco 1",
        f"n {g.n} rate {d.rate()} k {k}",
        f"corners {d.corners[0] + 1} {d.corners[1] + 1} {d.corners[2] + 1}",
        "types " + " ".join(str(t) for t in d.vt),
    ]
    for v in range(g.n):
        nbrs = " ".join(str(g.org[dd ^ 1] + 1) for dd in rows[v])
        lines.append(f"rot {v + 1}: {nbrs}")
    done = set()
    for v in range(g.n):
        for dd in rows[v]:
            e = dd >> 1
            if e not in done:
                done.add(e)
                u, w = g.org[dd] + 1, g.org[dd ^ 1] + 1
                lines.append(f"et {u} {w} {d.et[e]}")
    return "\n".join(lines) + "\n"


class DecoFormatError(ValueError):
    pass


def _ints(parts: list[str], line: str) -> list[int]:
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise DecoFormatError(f"not a number in line: {line}") from None


def read_deco(text: str) -> Decoration:
    """Parses one .deco record; any malformed input raises DecoFormatError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("deco "):
        raise DecoFormatError("missing deco header")
    if lines[0].split() != ["deco", "1"]:
        raise DecoFormatError(f"unsupported version: {lines[0]}")
    if len(lines) < 4:
        raise DecoFormatError("truncated deco record")
    head = lines[1].split()
    if (len(head) != 6 or head[0] != "n" or head[2] != "rate"
            or head[4] != "k"):
        raise DecoFormatError(f"bad size line: {lines[1]}")
    n, rate, kcls = _ints(head[1::2], lines[1])
    if not 1 <= kcls <= 3:
        raise DecoFormatError(f"connectivity class not in 1..3: {lines[1]}")
    cor = lines[2].split()
    if len(cor) != 4 or cor[0] != "corners":
        raise DecoFormatError("missing corners line")
    corners = tuple(c - 1 for c in _ints(cor[1:], lines[2]))
    if not all(0 <= c < n for c in corners):
        raise DecoFormatError(f"corner is not a vertex: {lines[2]}")
    typ = lines[3].split()
    if typ[0] != "types" or len(typ) != n + 1:
        raise DecoFormatError("bad types line")
    vt = tuple(_ints(typ[1:], lines[3]))
    rot: dict[int, list[int]] = {}
    etypes: list[tuple[int, int, int]] = []
    for ln in lines[4:]:
        parts = ln.split()
        if parts[0] == "rot" and len(parts) > 1:
            v, *nbrs = _ints([parts[1].rstrip(":")] + parts[2:], ln)
            if v in rot:
                raise DecoFormatError(f"second rotation line: {ln}")
            rot[v] = nbrs
        elif parts[0] == "et" and len(parts) == 4:
            u, w, t = _ints(parts[1:], ln)
            etypes.append((u, w, t))
        else:
            raise DecoFormatError(f"unexpected line: {ln}")
    if sorted(rot) != list(range(1, n + 1)):
        raise DecoFormatError("rotation lines missing")
    try:
        g0 = build_from_rotations(rot)
    except MapError as exc:
        raise DecoFormatError(f"bad rotations: {exc}") from None
    # outer face: traversed from the first listed dart of v0
    v0 = corners[0]
    first_nbr = rot[v0 + 1][0] - 1
    d0 = next(dd for dd in g0.darts_at(v0) if g0.org[dd ^ 1] == first_nbr)
    g = g0.with_outer(g0.face_of[d0])
    # edge types: multi-edges are listed in rotation order
    pools: dict[tuple[int, int], list[int]] = {}
    for u, w, t in etypes:
        pools.setdefault(tuple(sorted((u - 1, w - 1))), []).append(t)
    et = [0] * g.ne
    seen = set()
    for v in range(g.n):
        for dd in g.darts_at(v):
            e = dd >> 1
            if e not in seen:
                seen.add(e)
                key = tuple(sorted(g.edge_ends(e)))
                if key not in pools or not pools[key]:
                    raise DecoFormatError(f"edge type missing for {key}")
                et[e] = pools[key].pop(0)
    for (u, w), left in pools.items():
        if left:
            raise DecoFormatError(f"edge type for no edge: et {u + 1} {w + 1}")
    d = Decoration(g, vt, tuple(et), corners)  # type: ignore
    problems = validate(g, vt, tuple(et), corners[1], corners[0], corners[2])
    if problems:
        raise DecoFormatError("invalid decoration: " + "; ".join(problems))
    if d.rate() != rate:
        raise DecoFormatError(f"rate mismatch: {d.rate()} != {rate}")
    if connectivity_class(d) < kcls:
        raise DecoFormatError("connectivity class below declared value")
    return d
