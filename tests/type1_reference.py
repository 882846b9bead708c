"""The type-1 subgraph of a decoration: the skeleton that completes to
it, read back off the built map.  The oracle's predecoration column and
the round-trip tests use it; the pipeline reports its skeletons itself
(`run_pipeline`'s `on_skeleton`)."""

from __future__ import annotations

from lspgen.decorations import Decoration
from lspgen.maps import PlaneGraph
from lspgen.predecorations import Predecoration


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
