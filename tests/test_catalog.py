import pytest

from lspgen.catalog import (CONWAY_SYMBOL, OPERATION_NAMES, SEED_NAMES,
                            lookup, seed)
from lspgen.chambers import apply_decoration
from lspgen.complete import complete
from lspgen.decorations import (connectivity_class, decoration_identity,
                                swap02, validate)
from lspgen.generate import GenerationTask, generate
from lspgen.maps import vertex_connectivity_capped

EXPECTED_RATES = {"identity": 1, "dual": 1, "ambo": 2, "join": 2,
                  "truncate": 3, "zip": 3, "needle": 3, "kiss": 3,
                  "chamfer": 4, "subdivide": 4}


def test_names_and_symbols():
    assert set(OPERATION_NAMES) == set(EXPECTED_RATES)
    assert set(CONWAY_SYMBOL) == set(EXPECTED_RATES)


def test_lookup_unknown():
    with pytest.raises(KeyError):
        lookup("gyro")
    with pytest.raises(KeyError):
        seed("klein-bottle")


def test_entries_validate_with_expected_rate_and_class():
    for name, rate in EXPECTED_RATES.items():
        d = lookup(name)
        assert validate(d.g, d.vt, d.et, d.corners[1],
                        d.corners[0], d.corners[2]) == []
        assert d.rate() == rate
        assert connectivity_class(d) == 3


def test_dual_is_swap_of_identity():
    assert decoration_identity(lookup("dual")) \
        == decoration_identity(swap02(lookup("identity")))
    assert decoration_identity(lookup("join")) \
        == decoration_identity(swap02(lookup("ambo")))
    assert decoration_identity(lookup("subdivide")) \
        == decoration_identity(swap02(lookup("chamfer")))


def test_seed_shapes():
    expect = {"tetrahedron": (4, 6, 4), "cube": (8, 12, 6),
              "octahedron": (6, 12, 8), "dodecahedron": (20, 30, 12),
              "icosahedron": (12, 30, 20), "k2": (2, 1, 1),
              "bowtie": (5, 6, 3), "k4-minus-edge": (4, 5, 3)}
    for name in SEED_NAMES:
        g = seed(name)
        assert (g.n, g.ne, len(g.faces)) == expect[name]


def test_seed_connectivity():
    assert vertex_connectivity_capped(seed("bowtie")) == 1
    assert vertex_connectivity_capped(seed("k4-minus-edge")) == 2
    for name in ("tetrahedron", "cube", "octahedron", "dodecahedron",
                 "icosahedron"):
        assert vertex_connectivity_capped(seed(name)) == 3


def test_classical_results_on_cube():
    cube = seed("cube")
    shapes = {
        "ambo": (12, 24, 14), "join": (14, 24, 12),
        "truncate": (24, 36, 14), "zip": (24, 36, 14),
        "kiss": (14, 36, 24), "needle": (14, 36, 24),
        "chamfer": (32, 48, 18), "subdivide": (18, 48, 32),
    }
    for name, shape in shapes.items():
        res = apply_decoration(cube, lookup(name))
        assert (res.n, res.ne, len(res.faces)) == shape, name
    trunc = apply_decoration(cube, lookup("truncate"))
    assert max(len(f) for f in trunc.faces) == 8     # octagons
    z = apply_decoration(cube, lookup("zip"))
    assert max(len(f) for f in z.faces) == 6         # truncated octahedron
    kis = apply_decoration(cube, lookup("kiss"))
    assert max(kis.deg[v] for v in range(kis.n)) == 6
    nee = apply_decoration(cube, lookup("needle"))
    assert max(nee.deg[v] for v in range(nee.n)) == 8


def test_catalog_appears_in_generator_output():
    codes = set()
    generate(GenerationTask(1, 4, 3),
             visitor=lambda p: complete(
                 p, 3, 1, 4, lambda d: codes.add(decoration_identity(d))))
    for name in OPERATION_NAMES:
        assert decoration_identity(lookup(name)) in codes, name
