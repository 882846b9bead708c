"""The classifier's tetrahedron step against the route it replaced.

The step reads the decorated tetrahedron's graph off the gluing of the
chambers and tries one vertex per symmetry orbit when it looks for a
separating pair.  The reference builds the whole chamber system with
apply_decoration and tries every vertex.
"""

import re
from collections import Counter

import pytest

from chamber_reference import apply_decoration
from lspgen.catalog import OPERATION_NAMES, SEED_NAMES, lookup, seed
from lspgen.chambers import decorated_adjacency
from lspgen.classify import _tetrahedron, tetrahedron_class
from lspgen.maps import MapError, PlaneGraph, vertex_connectivity_capped
from lspgen.pipeline import run_pipeline


def simple_degrees(g: PlaneGraph) -> list[int]:
    return sorted(len(set(g.neighbors(v))) for v in range(g.n))


@pytest.fixture(scope="module")
def decorations_to_rate_10():
    out = []
    run_pipeline(1, 10, 1, on_decoration=out.append)
    assert len(out) == 378
    return out


def test_tetrahedron_step_matches_apply_decoration(decorations_to_rate_10):
    tetra = _tetrahedron()
    verdicts = Counter()
    for d in decorations_to_rate_10:
        applied = apply_decoration(tetra, d)
        reference = min(3, vertex_connectivity_capped(applied, 3))
        verdict = tetrahedron_class(d)
        assert verdict == reference, d
        verdicts[verdict] += 1
        adj, _ = decorated_adjacency(tetra, d)
        assert sorted(map(len, adj)) == simple_degrees(applied), d
    assert verdicts[2] and verdicts[3]


def test_orbit_scan_equals_full_scan(decorations_to_rate_10):
    tetra = _tetrahedron()
    for d in decorations_to_rate_10:
        adj, chamber0 = decorated_adjacency(tetra, d)
        assert 0 < len(chamber0) < len(adj)
        assert (vertex_connectivity_capped(adj, 3, chamber0)
                == vertex_connectivity_capped(adj, 3)), d


@pytest.mark.parametrize("host", SEED_NAMES)
def test_gluing_adjacency_agrees_with_extraction(host):
    g = seed(host)
    for name in OPERATION_NAMES:
        d = lookup(name)
        try:
            applied = apply_decoration(g, d)
        except MapError as exc:
            with pytest.raises(MapError, match=re.escape(str(exc))):
                decorated_adjacency(g, d)
            continue
        adj, _ = decorated_adjacency(g, d)
        assert sorted(map(len, adj)) == simple_degrees(applied), name
