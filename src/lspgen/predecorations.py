"""Predecorations: plane graphs whose completions are decorations.

A predecoration is a connected plane graph with a marked outer face such
that all inner faces are quadrangles, every inner vertex has degree at
least 3, and the boundary-defect counters satisfy n_A <= 2 and
n_A + n_B + n_C <= 3.
"""

from __future__ import annotations

from .maps import (PlaneGraph, automorphisms_flagged, build_from_rotations,
                   canonical_order)


class Predecoration:
    """A predecoration with cached derived data.

    The constructor does not check g: callers pass a graph that
    `validate_predecoration` accepts (`generate` checks each child once,
    before it is built into one of these).
    """

    __slots__ = ("g", "lo", "hi", "walk", "_automorphisms")

    def __init__(self, g: PlaneGraph):
        self.g = g
        self.walk = outer_walk(g)
        self.lo, self.hi = rate_bounds_of(g)
        self._automorphisms = None

    def automorphisms(self) -> list[tuple[tuple[int, ...], bool]]:
        """`automorphisms_flagged(g, "full")`, computed once."""
        if self._automorphisms is None:
            self._automorphisms = automorphisms_flagged(self.g, "full")
        return self._automorphisms

    def __repr__(self) -> str:
        return (f"Predecoration(n={self.g.n}, ne={self.g.ne}, "
                f"lo={self.lo}, hi={self.hi})")


def outer_walk(g: PlaneGraph) -> tuple[int, ...]:
    if g.outer is None:
        raise ValueError("no outer face marked")
    return g.faces[g.outer]


def outer_vertex_occurrences(g: PlaneGraph) -> dict[int, int]:
    occ: dict[int, int] = {}
    for d in outer_walk(g):
        v = g.org[d]
        occ[v] = occ.get(v, 0) + 1
    return occ


def counters(g: PlaneGraph) -> tuple[int, int, int]:
    """The boundary-defect counters (n_A, n_B, n_C).

    n_A: degree-1 vertices whose neighbor has degree 2.
    n_B: remaining degree-1 vertices.
    n_C: inner quadrangles with at least three degree-2 corners.
    """
    n_a = n_b = n_c = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            if g.degree(g.head(g.darts_at(v)[0])) == 2:
                n_a += 1
            else:
                n_b += 1
    for f, darts in enumerate(g.faces):
        if f == g.outer:
            continue
        deg2 = sum(1 for d in darts if g.degree(g.org[d]) == 2)
        if deg2 >= 3:
            n_c += 1
    return n_a, n_b, n_c


def validate_predecoration(g: PlaneGraph) -> list[str]:
    """All violations of the predecoration conditions (empty if valid)."""
    problems = []
    if g.genus != 0:
        problems.append(f"genus {g.genus} != 0")
    if g.outer is None:
        problems.append("no outer face marked")
        return problems
    for f, darts in enumerate(g.faces):
        if f == g.outer:
            continue
        if len(darts) != 4:
            problems.append(f"inner face {f} has size {len(darts)}")
        elif len({g.org[d] for d in darts}) != 4:
            problems.append(f"inner face {f} repeats a vertex")
    on_outer = {g.org[d] for d in g.faces[g.outer]}
    for v in range(g.n):
        if v not in on_outer and g.degree(v) < 3:
            problems.append(f"inner vertex {v} has degree {g.degree(v)}")
    if not problems:
        n_a, n_b, n_c = counters(g)
        if n_a > 2:
            problems.append(f"n_A = {n_a} > 2")
        if n_a + n_b + n_c > 3:
            problems.append(f"n_A + n_B + n_C = {n_a + n_b + n_c} > 3")
    return problems


def rate_bounds_of(g: PlaneGraph) -> tuple[int, int]:
    """Lower and upper bounds on the inflation rate of any completion.

    lower = 4 * (number of quadrangles)
            + 2 * sum over cut vertices of (outer-walk occurrences - 1);
    upper = 2 * (number of edges).
    """
    quads = sum(1 for f in range(len(g.faces)) if f != g.outer)
    extra = sum(c - 1 for c in outer_vertex_occurrences(g).values())
    return 4 * quads + 2 * extra, 2 * g.ne


def normalized_for_export(p: Predecoration) -> PlaneGraph:
    """Relabels so the outer face is the one left of the first listed
    dart of vertex 0 (vertex 1 in external 1-based ids), the planar_code
    convention for serialized predecorations."""
    g = p.g.relabeled(canonical_order(p.g, "oriented"))
    rows = {}
    for v in range(g.n):
        darts = list(g.darts_at(v))
        if v == 0:
            pivot = next(i for i, d in enumerate(darts)
                         if g.face_of[d] == g.outer)
            darts = darts[pivot:] + darts[:pivot]
        rows[v + 1] = [g.org[d ^ 1] + 1 for d in darts]
    out = build_from_rotations(rows)
    return out.with_outer(out.face_of[out.darts_at(0)[0]])
