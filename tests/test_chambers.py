import random

import pytest

from chamber_reference import _glue as union_find_glue
from chamber_reference import (ChamberSystem, automorphism_orbits,
                               barycentric_subdivision,
                               connectivity_of_chamber_system,
                               decorate_chambers, extract_original)
from lspgen.catalog import OPERATION_NAMES, SEED_NAMES, lookup, seed
from lspgen.chambers import _glue, apply_decoration
from lspgen.decorations import Decoration
from lspgen.maps import (MapError, PlaneGraph, build_from_rotations,
                         canonical_code, random_relabeling,
                         vertex_connectivity_capped, write_planar_code)
from lspgen.pipeline import run_pipeline

# theta graph embedded on the torus: both rotations in the same order
THETA = PlaneGraph([[0, 2, 4], [1, 3, 5]])


def test_barycentric_cube():
    cs = barycentric_subdivision(seed("cube"))
    assert (cs.g.n, cs.g.ne, len(cs.g.faces)) == (26, 72, 48)
    assert cs.g.n - cs.g.ne + len(cs.g.faces) == 2
    cs.check()   # every chamber has corner types {0,1,2}


def test_barycentric_single_edge():
    cs = barycentric_subdivision(seed("k2"))
    assert cs.g.n == 4
    assert len(cs.g.faces) == 4


def test_barycentric_triangle_count_is_4e():
    for name in ("tetrahedron", "cube", "bowtie", "k4-minus-edge"):
        g = seed(name)
        cs = barycentric_subdivision(g)
        assert len(cs.g.faces) == 4 * g.ne


def test_extract_round_trip():
    for name in ("cube", "tetrahedron", "bowtie", "k2", "icosahedron"):
        g = seed(name)
        cs = barycentric_subdivision(g)
        assert canonical_code(extract_original(cs)) == canonical_code(g)


def test_connectivity_classification():
    assert connectivity_of_chamber_system(
        barycentric_subdivision(seed("cube"))) == 3
    assert connectivity_of_chamber_system(
        barycentric_subdivision(seed("bowtie"))) == 1
    assert connectivity_of_chamber_system(
        barycentric_subdivision(seed("k4-minus-edge"))) == 2


def test_connectivity_matches_cut_search_on_small_seeds():
    graphs = {
        "path3": {1: [2], 2: [1, 3], 3: [2, 4], 4: [3]},
        "square": {1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]},
        "k4": {1: [2, 3, 4], 2: [1, 4, 3], 3: [1, 2, 4], 4: [1, 3, 2]},
        "two-triangles": {1: [2, 3, 4, 5], 2: [3, 1], 3: [1, 2],
                          4: [5, 1], 5: [1, 4]},
    }
    for name in ("tetrahedron", "cube", "octahedron", "k4-minus-edge",
                 "bowtie", "icosahedron"):
        graphs[name] = None
    for name, rot in graphs.items():
        g = seed(name) if rot is None else build_from_rotations(rot)
        if g.n > 12:
            continue
        expect = min(3, vertex_connectivity_capped(g))
        assert connectivity_of_chamber_system(
            barycentric_subdivision(g)) == expect, name


def test_apply_identity_and_dual():
    cube = seed("cube")
    assert canonical_code(apply_decoration(cube, lookup("identity"))) \
        == canonical_code(cube)
    assert canonical_code(apply_decoration(cube, lookup("dual"))) \
        == canonical_code(seed("octahedron"))


def test_apply_ambo_cuboctahedron():
    res = apply_decoration(seed("cube"), lookup("ambo"))
    assert (res.n, res.ne, len(res.faces)) == (12, 24, 14)
    sizes = sorted(len(f) for f in res.faces)
    assert sizes.count(3) == 8 and sizes.count(4) == 6


def test_decorated_chambers_form_chamber_system():
    cs = decorate_chambers(seed("tetrahedron"), lookup("truncate"))
    cs.check()
    assert len(cs.g.faces) == 4 * seed("tetrahedron").ne * 3


def test_edge_inflation_law():
    for name in ("identity", "ambo", "truncate", "chamfer"):
        d = lookup(name)
        for s in ("tetrahedron", "cube", "bowtie"):
            g = seed(s)
            assert apply_decoration(g, d).ne == d.rate() * g.ne
    # a single edge works whenever the result stays loop-free
    assert apply_decoration(seed("k2"), lookup("identity")).ne == 1


def test_degenerate_seed_rejected():
    # ambo of a single edge would identify both endpoints of each new
    # edge; the loop-free contract turns this into an error
    with pytest.raises(MapError):
        apply_decoration(seed("k2"), lookup("ambo"))


def test_symmetry_preservation():
    for name in ("ambo", "truncate", "kiss"):
        d = lookup(name)
        for s in ("tetrahedron", "cube"):
            g = seed(s)
            res = apply_decoration(g, d)
            _, aut_g = automorphism_orbits(g, "full")
            _, aut_res = automorphism_orbits(res, "full")
            assert aut_res % aut_g == 0


def test_connectivity_preservation():
    seeds = {"bowtie": 1, "k4-minus-edge": 2, "cube": 3}
    for name in ("identity", "ambo", "truncate", "chamfer"):
        d = lookup(name)
        for s, k in seeds.items():
            res = apply_decoration(seed(s), d)
            assert vertex_connectivity_capped(res, k) >= k, (name, s)


def test_genus_guard():
    assert THETA.genus == 1
    with pytest.raises(MapError):
        connectivity_of_chamber_system(barycentric_subdivision(THETA))


# -- the gluing route against the chamber-system route -----------------------


def _hosts():
    """Every catalog seed and the torus theta graph, each as is, randomly
    relabelled and mirrored."""
    rng = random.Random(7)
    out = []
    for name, g in [(s, seed(s)) for s in SEED_NAMES] + [("theta", THETA)]:
        relabelled = random_relabeling(g, rng)
        out += [pytest.param(g, id=name),
                pytest.param(relabelled, id=f"{name}-relabelled"),
                pytest.param(g.mirrored(), id=f"{name}-mirrored")]
    return out


@pytest.fixture(scope="module")
def operations():
    """The catalog operations and every decoration up to rate 7."""
    out = [lookup(name) for name in OPERATION_NAMES]
    run_pipeline(1, 7, 1, on_decoration=out.append)
    assert len(out) == 78
    return out


def _outcome(route, g, d):
    try:
        return write_planar_code([route(g, d)])
    except MapError as exc:
        return f"MapError: {exc}"


@pytest.mark.parametrize("host", _hosts())
def test_apply_matches_chamber_system_route(host, operations):
    def reference(g, d):
        cs = decorate_chambers(g, d)
        cs.check()
        return extract_original(cs)

    for d in operations:
        assert _outcome(apply_decoration, host, d) \
            == _outcome(reference, host, d), d


@pytest.mark.parametrize("host", ["tetrahedron", "cube"])
def test_retyped_edge_trips_the_count_checks(host, monkeypatch):
    """A type-2 edge of a catalog decoration retyped 0 or 1 leaves a
    type-0 vertex without type-2 edges or a type-1 vertex with only one.
    The counts per orbit say which, as the chamber-system route's
    extraction does; its chamber-system check, which rejects every
    retyping before extraction, is switched off."""
    monkeypatch.setattr(ChamberSystem, "check", lambda self: None)
    seen = set()
    for name in OPERATION_NAMES:
        d = lookup(name)
        for e in (e for e in range(d.g.ne) if d.et[e] == 2):
            for t in (0, 1):
                bad = Decoration(d.g, d.vt, d.et[:e] + (t,) + d.et[e + 1:],
                                 d.corners)
                got = _outcome(apply_decoration, seed(host), bad)
                assert got == _outcome(
                    lambda g, d: extract_original(decorate_chambers(g, d)),
                    seed(host), bad), (name, e, t)
                seen.add(got)
    assert seen == {"MapError: type-0 vertex without type-2 edges",
                    "MapError: type-1 vertex without exactly two type-2 edges"}


# -- the closed-form gluing against the union-find of the reference ---------


def test_closed_form_gluing_equals_union_find():
    """``_glue`` names each glued class by the least chamber of an orbit
    table; the reference unites the pairs across every shared side."""
    for name in OPERATION_NAMES:
        for host in SEED_NAMES:
            assert _glue(seed(host), lookup(name)) \
                == union_find_glue(seed(host), lookup(name)), (name, host)
    tetrahedron = seed("tetrahedron")
    decorations = []
    run_pipeline(1, 12, 1, on_decoration=decorations.append)
    assert len(decorations) == 1078
    for d in decorations:
        assert _glue(tetrahedron, d) == union_find_glue(tetrahedron, d), d
