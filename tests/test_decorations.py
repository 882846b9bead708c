import functools
import os
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lspgen.catalog import lookup
from lspgen.cli import main
from lspgen.complete import complete
from lspgen.decorations import (DecoFormatError, Decoration, canonicalized,
                                connectivity_class, corner_pairs,
                                decoration_identity, mirror, read_deco,
                                swap02, type1_subgraph, validate, write_deco)
from lspgen.generate import GenerationTask, generate
from lspgen.oracle import decorations_brute
from lspgen.pipeline import run_pipeline


def _collect(rmin, rmax, k=1):
    out = []
    generate(GenerationTask(rmin, rmax, k),
             visitor=lambda p: complete(p, k, rmin, rmax, out.append))
    return out


def _fresh(d):
    """d without the verdict cell the completer gave it, so that the
    classifier computes its class instead of reading a shared one."""
    return Decoration(d.g, d.vt, d.et, d.corners)


def test_identity_is_valid():
    d = lookup("identity")
    assert validate(d.g, d.vt, d.et, d.corners[1]) == []
    assert d.rate() == 1


def test_ambo_is_valid_rate_2():
    d = lookup("ambo")
    assert validate(d.g, d.vt, d.et, d.corners[1]) == []
    assert d.rate() == 2


def test_degree_violation_detected():
    # triangle with the type-1 vertex relabeled to type 0: the corner
    # degree rules must flag it
    d = lookup("identity")
    bad_vt = tuple(0 if t == 1 else t for t in d.vt)
    assert validate(d.g, bad_vt, d.et, d.corners[1]) != []


def test_rates_of_named_operations():
    assert lookup("identity").rate() == 1
    assert lookup("ambo").rate() == 2
    assert lookup("truncate").rate() == 3


def test_small_rates_are_3_connected():
    for d in _collect(1, 4):
        assert connectivity_class(_fresh(d)) == 3


def test_rate5_has_a_2_connected_decoration():
    classes = sorted(connectivity_class(_fresh(d)) for d in _collect(5, 5))
    assert classes == [2, 2, 3, 3, 3, 3]


def test_swap02_identity_is_dual():
    assert decoration_identity(swap02(lookup("identity"))) \
        == decoration_identity(lookup("dual"))
    assert decoration_identity(swap02(swap02(lookup("ambo")))) \
        == decoration_identity(lookup("ambo"))


def test_mirror_involution():
    for name in ("identity", "ambo", "truncate", "chamfer"):
        d = lookup(name)
        assert decoration_identity(mirror(mirror(d))) == decoration_identity(d)


def _assert_closed_under_mirror_and_swap(rate_min, rate_max):
    # closure audit: mirror and the 0/2 swap (duality) keep the rate and
    # the connectivity class, so every image of an emitted decoration is
    # emitted too, with the same rate and class; an image without its
    # partner is a decoration the generator missed or emitted wrongly
    decos = []
    run_pipeline(rate_min, rate_max, 1, on_decoration=decos.append)
    emitted = {decoration_identity(d): (d.rate(), connectivity_class(d))
               for d in decos}
    assert len(emitted) == len(decos)
    for d in decos:
        for t in (mirror(d), swap02(d)):
            assert emitted.get(decoration_identity(t)) \
                == emitted[decoration_identity(d)], write_deco(d)


def test_closure_under_mirror_and_swap():
    _assert_closed_under_mirror_and_swap(1, 12)


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for the rates 13-17 audit")
def test_closure_under_mirror_and_swap_stretch():
    # a decoration missing at rate 17 (k=3 gives 2768 against the
    # published 2769) would show up as an image without its partner
    _assert_closed_under_mirror_and_swap(13, 17)


def test_identity_code_is_relabeling_invariant():
    d = lookup("truncate")
    rng = random.Random(5)
    base = decoration_identity(d)
    for _ in range(50):
        perm = list(range(d.g.n))
        rng.shuffle(perm)
        g2 = d.g.relabeled(perm)
        vt2 = [0] * d.g.n
        for v in range(d.g.n):
            vt2[perm[v]] = d.vt[v]
        et2 = [0] * d.g.ne
        pools = {}
        for e in range(d.g.ne):
            key = tuple(sorted((perm[d.g.org[2 * e]], perm[d.g.org[2 * e + 1]])))
            pools.setdefault(key, []).append(d.et[e])
        for e in range(g2.ne):
            et2[e] = pools[tuple(sorted(g2.edge_ends(e)))].pop()
        d2 = Decoration(g2, tuple(vt2), tuple(et2),
                        tuple(perm[c] for c in d.corners))
        assert decoration_identity(d2) == base


def test_chiral_rate3_mirror_differs():
    decos = _collect(3, 3)
    assert len(decos) == 4
    for d in decos:
        assert decoration_identity(mirror(d)) != decoration_identity(d)


def test_type1_subgraph_of_identity_is_k2():
    p, _ = type1_subgraph(lookup("identity"))
    assert (p.g.n, p.g.ne) == (2, 1)


def test_type1_subgraph_of_ambo_is_path():
    p, _ = type1_subgraph(lookup("ambo"))
    assert (p.g.n, p.g.ne) == (3, 2)
    assert sorted(p.g.degree(v) for v in range(3)) == [1, 1, 2]


def test_type1_subgraph_round_trip_via_completion():
    for name in ("truncate", "chamfer", "kiss"):
        d = lookup(name)
        p, _ = type1_subgraph(d)
        codes = set()
        complete(p, 1, d.rate(), d.rate(),
                 lambda x: codes.add(decoration_identity(x)))
        assert decoration_identity(d) in codes


def test_deco_round_trip():
    for name in ("identity", "ambo", "truncate", "chamfer", "needle"):
        d = lookup(name)
        back = read_deco(write_deco(d))
        assert decoration_identity(back) == decoration_identity(d)


def test_deco_round_trip_of_generated_decorations():
    generated = _collect(1, 10)
    assert len(generated) == 378
    for d in generated:
        back = read_deco(write_deco(d))
        assert decoration_identity(back) == decoration_identity(d)
        assert connectivity_class(back) == connectivity_class(d)


@functools.cache
def _by_rate_r12():
    by_rate = {}
    for d in _collect(1, 12):
        by_rate.setdefault(d.rate(), []).append(d)
    return by_rate


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_deco_round_trip_keeps_identity_and_class(rate, rng):
    # a rate first, so the few decorations of the low rates are drawn too
    d = rng.choice(_by_rate_r12()[rate])
    back = read_deco(write_deco(d))
    assert decoration_identity(back) == decoration_identity(d)
    assert connectivity_class(back) == connectivity_class(d)


def test_deco_rejects_garbage():
    with pytest.raises(DecoFormatError):
        read_deco("nonsense\n")
    with pytest.raises(DecoFormatError):
        read_deco("deco 2\nn 3 rate 1 k 3\n")
    good = write_deco(lookup("identity"))
    with pytest.raises(DecoFormatError):
        read_deco(good.replace("rate 1", "rate 2"))


@pytest.mark.parametrize("old, new", [
    (" k 3", " k 0"),
    (" k 3", " k -5"),
    ("rot 2: 4 1", "rot 2: 4 1\nrot 2: 4 1"),
    ("et 3 4 0", "et 3 4 0\net 2 3 0"),     # not an edge
    ("et 3 4 0", "et 3 4 0\net 1 2 1"),     # a second type for an edge
    ("et 3 4 0", "et 3 4 0\net 1 99 1"),    # not a vertex
], ids=["k0", "k-5", "second-rot", "non-edge", "repeated-edge", "range"])
def test_deco_rejects_malformed_records(old, new, tmp_path, capsys):
    text = write_deco(lookup("ambo"))
    assert old in text
    with pytest.raises(DecoFormatError):
        read_deco(text.replace(old, new))
    deco = tmp_path / "op.deco"
    deco.write_text(text.replace(old, new))
    assert main(["apply", "--op-file", str(deco), "--seed", "cube"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_deco_corner_outside_the_vertices():
    text = write_deco(lookup("ambo"))
    corners = next(ln for ln in text.splitlines()
                   if ln.startswith("corners"))
    with pytest.raises(DecoFormatError, match="corner"):
        read_deco(text.replace(corners, "corners 99 1 3"))


def test_deco_mutated_records_raise_only_format_errors():
    rng = random.Random(5)
    names = ("ambo", "truncate", "chamfer", "needle", "kiss")
    texts = [write_deco(lookup(name)) for name in names]
    for _ in range(600):
        toks = rng.choice(texts).split(" ")
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(toks))
            op = rng.randrange(3)
            if op == 0:
                toks[i] = str(rng.randint(-1, 12))
            elif op == 1 and len(toks) > 1:
                del toks[i]
            else:
                j = rng.randrange(len(toks))
                toks[i], toks[j] = toks[j], toks[i]
        try:
            read_deco(" ".join(toks))
        except DecoFormatError:
            pass


def test_corner_pairs_of_identity():
    d = lookup("identity")
    pairs = corner_pairs(d.g, d.vt, d.corners[1])
    assert len(pairs) == 1
    assert set(pairs[0]) == {d.corners[0], d.corners[2]}


def test_canonicalized_preserves_identity():
    for name in ("ambo", "zip", "subdivide"):
        d = lookup(name)
        assert decoration_identity(canonicalized(d)) == decoration_identity(d)


def test_class_matches_chamber_connectivity_on_cube():
    # class agrees with the chamber-system connectivity of the applied
    # result, capped at the seed's connectivity (cube: 3)
    from lspgen.catalog import seed
    from chamber_reference import (apply_decoration, barycentric_subdivision,
                                   connectivity_of_chamber_system)
    cube = seed("cube")
    for d in _collect(1, 5):
        res = apply_decoration(cube, d)
        got = connectivity_of_chamber_system(barycentric_subdivision(res))
        assert got == min(3, connectivity_class(_fresh(d)))


CLASS_BOUNDARY = Path(__file__).parent / "data" / "class_boundary.deco"


def _boundary_records():
    """(id, .deco text) for each record of the class-boundary file; a
    record starts at its "## id: description" line."""
    out = []
    for block in CLASS_BOUNDARY.read_text().split("\n## ")[1:]:
        head, _, body = block.partition("\n")
        out.append(pytest.param(body, id=head.split(":")[0]))
    return out


@pytest.mark.parametrize("text", _boundary_records())
def test_class_boundary_regressions(text):
    # each record stands for its orbit under mirror and 0/2 swap, which
    # keep the class; the class is also the connectivity of an
    # application to the cube, which the classifier does not use
    from lspgen.catalog import seed
    from chamber_reference import (apply_decoration, barycentric_subdivision,
                                   connectivity_of_chamber_system)
    cube = seed("cube")
    d = read_deco(text)
    expect = int(text.split()[7])     # "deco 1 n <n> rate <r> k <class>"
    for t in (d, mirror(d), swap02(d), mirror(swap02(d))):
        assert connectivity_class(t) == expect
        res = apply_decoration(cube, t)
        assert connectivity_of_chamber_system(
            barycentric_subdivision(res)) == expect


# -- the verdict cell --------------------------------------------------------

def test_a_verdict_cell_serves_one_mirror_twin_family():
    # the completer shares one cell among the builds of a decoration, its
    # 0 <-> 2 twin and, for a chiral skeleton, their mirror images
    cells = {}
    for d in _collect(1, 10):
        cells.setdefault(id(d.verdict), []).append(d)
    for first, *rest in cells.values():
        family = {decoration_identity(t) for t in (
            first, mirror(first), swap02(first), mirror(swap02(first)))}
        assert {decoration_identity(t) for t in rest} <= family
    assert Counter(map(len, cells.values())) == {2: 165, 4: 12}


def test_only_the_completer_gives_a_verdict_cell():
    d = _collect(5, 5)[0]
    assert d.verdict == []
    write_deco(d)       # prints the class, and so fills the cell
    assert d.verdict == [connectivity_class(_fresh(d)), 3]
    for t in (swap02(d), mirror(d), canonicalized(d), read_deco(write_deco(d)),
              *decorations_brute(4).values()):
        assert t.verdict is None


def test_the_verdict_cell_is_not_compared():
    d = lookup("ambo")
    filled = replace(d, verdict=[3, 3])
    assert filled == d and hash(filled) == hash(d) and repr(filled) == repr(d)
    assert replace(d, verdict=[]) == replace(d, verdict=[1, 3])
