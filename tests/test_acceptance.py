"""Acceptance criteria, one test (or parametrized family) each.

Every expected value is pinned here; run with `pytest tests/test_acceptance.py -v`
for one pass/fail line per criterion.  Set LSPGEN_STRETCH=1 to include the
rates 15-20 stretch check (several minutes).
"""

import hashlib
import os
import time
from collections import Counter
from pathlib import Path

import pytest

from chamber_reference import (automorphism_orbits, decorate_chambers,
                               extract_original)
from lspgen.catalog import lookup, seed
from lspgen.chambers import apply_decoration
from lspgen.classify import connectivity_class_of
from lspgen.complete import complete, is_chiral
from lspgen.decorations import (Decoration, decoration_identity, mirror,
                                swap02, type1_subgraph)
from lspgen.generate import GenerationTask, generate
from lspgen.maps import (build_from_rotations, canonical_code,
                         vertex_connectivity_capped)
from lspgen.oracle import bruteforce_decorations, decorations_brute
from lspgen.predecorations import Predecoration

# published counts: rate -> (k=1, k=2, k=3)
COUNTS = {
    1: (2, 2, 2), 2: (2, 2, 2), 3: (4, 4, 4), 4: (6, 6, 6), 5: (6, 6, 4),
    6: (20, 20, 20), 7: (28, 28, 20), 8: (58, 58, 54), 9: (82, 82, 64),
    10: (170, 168, 144), 11: (204, 200, 132), 12: (496, 492, 404),
    13: (650, 640, 396), 14: (1432, 1400, 1112),
}
STRETCH_COUNTS = {
    15: (1824, 1786, 1100), 16: (4114, 3952, 2958), 17: (5078, 4900, 2769),
    18: (11874, 11150, 7972), 19: (14808, 14058, 7560),
    20: (33978, 30998, 21300),
}
# completable predecorations per rate, chiral ones counted twice; rates
# 1-8 are re-derived from the brute-force oracle in criterion 2
PREDECORATIONS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 2, 8: 8, 9: 7,
                  10: 19}

R_MAX = 14

DIGESTS = dict(
    reversed(line.split())
    for line in (Path(__file__).parent / "data" / "golden.sha256")
    .read_text().splitlines())


def _class_digest(run) -> str:
    """sha256 of the sorted (identity code, class) items of a run."""
    return hashlib.sha256(
        repr(sorted(run.codes.items())).encode()).hexdigest()


class _Run:
    """One full pass: all decorations up to R_MAX with classifications.

    ``codes`` maps the identity code of every decoration to its class,
    ``rates`` to its rate;
    ``images[r]`` maps that of every decoration of each rate r in
    image_rates to the identity codes of its mirror and swap02 images."""

    def __init__(self, rmax, image_rates=()):
        t0 = time.time()
        self.by_rate_k = {r: [0, 0, 0] for r in range(1, rmax + 1)}
        self.pre = {r: 0 for r in range(1, rmax + 1)}
        self.codes = {}
        self.rates = {}
        self.images = {r: {} for r in image_rates}
        same = {}
        self.duplicates = 0
        self.sample = {r: [] for r in range(1, rmax + 1)}

        def visit(p):
            weight = 2 if is_chiral(p) else 1
            rates = set()

            def on_deco(d):
                r = d.rate()
                cls = connectivity_class_of(d)
                for k in (1, 2, 3):
                    if cls >= k:
                        self.by_rate_k[r][k - 1] += 1
                rates.add(r)
                code = decoration_identity(d)
                if r in self.images:
                    # one tuple per code: the images are decorations of
                    # the run too, and a code takes about 2 KB at rate 19
                    code = same.setdefault(code, code)
                    self.images[r][code] = tuple(
                        same.setdefault(c, c) for c in (
                            decoration_identity(mirror(d)),
                            decoration_identity(swap02(d))))
                if code in self.codes:
                    self.duplicates += 1
                self.codes[code] = cls
                self.rates[code] = r
                if len(self.sample[r]) < 6:
                    self.sample[r].append(d)

            complete(p, 1, 1, rmax, on_deco)
            for r in rates:
                self.pre[r] += weight

        generate(GenerationTask(1, rmax, 1), visitor=visit)
        self.seconds = time.time() - t0


@pytest.fixture(scope="module")
def full_run():
    return _Run(R_MAX)


# -- criterion 1: count reproduction ----------------------------------------

@pytest.mark.parametrize("rate", sorted(COUNTS))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_criterion1_counts(full_run, rate, k):
    got = full_run.by_rate_k[rate][k - 1]
    expect = COUNTS[rate][k - 1]
    print(f"criterion 1: rate={rate} k={k}: {got} (expected {expect}) "
          f"{'PASS' if got == expect else 'FAIL'}")
    assert got == expect


def test_criterion1_class_digest(full_run):
    # every class verdict up to R_MAX, recorded before the classifier
    # dropped the rules that the tetrahedron step decides anyway
    assert _class_digest(full_run) == DIGESTS["classes_r14"]


def test_criterion1_runtime(full_run):
    print(f"criterion 1 runtime: {full_run.seconds:.1f}s (target < 60s)")
    assert full_run.seconds < 600   # hard cap; the 60s figure is a target


def _check_filtered_pipeline(run, rmax):
    # a k-filtered completion emits exactly the decorations of class >= k,
    # each once; k=2 first filters something at rate 10
    for k in (2, 3):
        codes = []
        generate(GenerationTask(1, rmax, k),
                 visitor=lambda p: complete(
                     p, k, 1, rmax,
                     lambda d: codes.append(decoration_identity(d))))
        assert len(set(codes)) == len(codes), k
        assert set(codes) == {c for c, cls in run.codes.items()
                              if cls >= k and run.rates[c] <= rmax}, k


def test_criterion1_matches_filtered_pipeline(full_run):
    _check_filtered_pipeline(full_run, R_MAX)


stretch = pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                             reason="set LSPGEN_STRETCH=1 for rates 15-20")


@pytest.fixture(scope="module")
def stretch_run():
    return _Run(20, image_rates=(15, 17, 19))


@stretch
@pytest.mark.parametrize("rate", sorted(STRETCH_COUNTS))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_criterion1_stretch_counts(stretch_run, rate, k):
    got = stretch_run.by_rate_k[rate][k - 1]
    expect = STRETCH_COUNTS[rate][k - 1]
    print(f"stretch: rate={rate} k={k}: {got} (expected {expect}) "
          f"{'PASS' if got == expect else 'FAIL'}")
    assert got == expect


@stretch
def test_criterion1_stretch_class_digest(stretch_run):
    assert _class_digest(stretch_run) == DIGESTS["classes_r20"]


@stretch
def test_criterion1_stretch_runtime(stretch_run):
    print(f"stretch runtime: {stretch_run.seconds:.1f}s (gate 600s)")
    assert stretch_run.seconds < 600


@stretch
def test_criterion1_stretch_matches_filtered_pipeline(stretch_run):
    _check_filtered_pipeline(stretch_run, 17)


@stretch
def test_criterion1_stretch_no_duplicates(stretch_run):
    assert stretch_run.duplicates == 0


def _orbit_sizes(images, maps):
    """Counter of orbit sizes of the group generated by the chosen maps
    (0 mirror, 1 swap02) on the identity codes of one rate."""
    sizes, done = Counter(), set()
    for code in images:
        if code in done:
            continue
        orbit, todo = {code}, [code]
        while todo:
            for image in (images[todo.pop()][i] for i in maps):
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        done |= orbit
        sizes[len(orbit)] += 1
    return sizes


@stretch
def test_criterion1_stretch_unreachable_cells(stretch_run):
    # mirror and swap02 keep the class, so every class rule counts whole
    # orbits: with four members each, the k=2 count at rates 15 and 19 is
    # divisible by 4 (published 1786 and 14058 are not), and with two
    # members each, the k=3 count at rate 17 is even (published 2769)
    images = stretch_run.images
    assert STRETCH_COUNTS[15][1] % 4 == STRETCH_COUNTS[19][1] % 4 == 2
    assert STRETCH_COUNTS[17][2] % 2 == 1
    assert _orbit_sizes(images[15], (0, 1)) == {4: 456}
    assert _orbit_sizes(images[19], (0, 1)) == {4: 3702}
    assert _orbit_sizes(images[17], (0,)) == {2: 2539}


# -- criterion 2: predecoration column ---------------------------------------

@pytest.mark.parametrize("rate", sorted(PREDECORATIONS))
def test_criterion2_predecorations(full_run, rate):
    got = full_run.pre[rate]
    expect = PREDECORATIONS[rate]
    print(f"criterion 2: rate={rate}: {got} completable predecorations "
          f"(expected {expect}) {'PASS' if got == expect else 'FAIL'}")
    assert got == expect


def _oracle_predecoration_column(rmax):
    """The predecoration column from the brute-force oracle alone.

    A skeleton counts at rate r when some rate-r decoration has it as its
    type-1 subgraph; skeletons are compared up to isomorphisms that keep
    the outer face (mirror images included) and a chiral one counts twice.
    Neither the generator nor the completion search is involved.
    """
    column = {}
    for r in range(1, rmax + 1):
        skeletons = {}
        for d in decorations_brute(r).values():
            p, _ = type1_subgraph(d)
            skeletons.setdefault(canonical_code(p.g, "full"), p.g)
        column[r] = sum(
            1 if canonical_code(g, "oriented")
            == canonical_code(g.mirrored(), "oriented") else 2
            for g in skeletons.values())
    return column


def test_criterion2_pins_match_oracle():
    """The pins agree with the suite's own counting applied to the oracle.

    This is a check of internal consistency: it shares the counting,
    `type1_subgraph` and `canonical_code` with the pipeline.  Whether the
    published column (arXiv:1908.11622) counts the same way is not
    verified; the paper's table is not in this repository.
    """
    oracle = _oracle_predecoration_column(8)
    print(f"criterion 2: oracle predecoration column for rates 1-8: "
          f"{[oracle[r] for r in range(1, 9)]}")
    assert {r: PREDECORATIONS[r] for r in range(1, 9)} == oracle


# -- criterion 3: oracle equivalence ------------------------------------------

PLATONIC = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")


def _class_by_hosts():
    """A class function for the oracle that shares no code with
    lspgen.classify or lspgen.chambers: the least vertex connectivity,
    capped at 3, of the decoration applied to the five Platonic solids
    through tests/chamber_reference, once per identity code.  Only the
    calibration `_corner_axis_branch` could make the classifier differ,
    and it puts no decoration in class 1 up to rate 9."""
    classes = {}

    def class_of(d):
        code = decoration_identity(d)
        if code not in classes:
            classes[code] = min(vertex_connectivity_capped(
                extract_original(decorate_chambers(seed(name), d)), 3)
                for name in PLATONIC)
        return classes[code]

    return class_of


def _check_host_route_equals_classifier(rmin, rmax):
    """The host route of `_class_by_hosts` gives every decoration of
    rates rmin to rmax the class `connectivity_class_of` gives a cell-less
    copy of it; returns how many decorations were compared."""
    class_of, compared = _class_by_hosts(), [0]

    def check(d):
        fresh = Decoration(d.g, d.vt, d.et, d.corners)
        assert class_of(d) == connectivity_class_of(fresh), d
        compared[0] += 1

    generate(GenerationTask(rmin, rmax, 1), visitor=lambda p: complete(
        p, 1, rmin, rmax, check))
    return compared[0]


def test_host_route_equals_classifier():
    assert _check_host_route_equals_classifier(1, 7) == sum(
        COUNTS[r][0] for r in range(1, 8))


@stretch
def test_host_route_equals_classifier_stretch():
    assert _check_host_route_equals_classifier(8, 9) == 58 + 82


@pytest.mark.parametrize("rate", range(1, 9))
def test_criterion3_oracle_equivalence(rate):
    # the oracle classifies by the host route; at rate 8 that route takes
    # about 3 s against 1.3 s with the classifier, so tier-1 runs it up
    # to rate 7, and rate 8 with the classifier unless LSPGEN_STRETCH
    by_hosts = rate <= 7 or os.environ.get("LSPGEN_STRETCH")
    class_of = _class_by_hosts() if by_hosts else connectivity_class_of
    t0 = time.time()
    main_codes = {1: set(), 2: set(), 3: set()}

    def visit(p):
        def on_deco(d):
            cls = connectivity_class_of(d)
            code = decoration_identity(d)
            for k in (1, 2, 3):
                if cls >= k:
                    main_codes[k].add(code)
        complete(p, 1, rate, rate, on_deco)

    generate(GenerationTask(rate, rate, 1), visitor=visit)
    for k in (1, 2, 3):
        brute = set(bruteforce_decorations(rate, k, class_of))
        assert main_codes[k] == brute, (
            f"rate {rate} k {k}: main {len(main_codes[k])} "
            f"vs brute {len(brute)}")
    print(f"criterion 3: rate={rate}: identity-code sets equal for "
          f"k=1,2,3, oracle classes by {'hosts' if by_hosts else 'classifier'}"
          f" ({time.time()-t0:.1f}s) PASS")


# -- criterion 4: classical operation regression ------------------------------

CUBE = {1: [2, 4, 5], 2: [3, 1, 6], 3: [4, 2, 7], 4: [1, 3, 8],
        5: [8, 6, 1], 6: [5, 7, 2], 7: [6, 8, 3], 8: [7, 5, 4]}


def _hand_cuboctahedron():
    edges = {}
    for u, nbrs in CUBE.items():
        for v in nbrs:
            edges.setdefault(tuple(sorted((u, v))), len(edges) + 1)

    def around(u, v, step):
        r = CUBE[u]
        return tuple(sorted((u, r[(r.index(v) + step) % 3])))

    rot = {}
    for (u, v), idx in edges.items():
        rot[idx] = [edges[around(u, v, +1)], edges[around(u, v, -1)],
                    edges[around(v, u, +1)], edges[around(v, u, -1)]]
    return build_from_rotations(rot)


def _hand_truncated_cube():
    darts = {}
    for u, nbrs in CUBE.items():
        for v in nbrs:
            darts[(u, v)] = len(darts) + 1
    rot = {}
    for (u, v), idx in darts.items():
        r = CUBE[u]
        i = r.index(v)
        rot[idx] = [darts[(u, r[(i + 1) % 3])], darts[(u, r[(i - 1) % 3])],
                    darts[(v, u)]]
    return build_from_rotations(rot)


def _hand_chamfered_cube():
    g0 = build_from_rotations(CUBE)
    faces = [tuple(g0.org[d] + 1 for d in f) for f in g0.faces]
    nv = {}
    for fi, fverts in enumerate(faces):
        for u in fverts:
            nv[(fi, u)] = len(nv) + 9
    left = {}
    for d in range(2 * g0.ne):
        left[(g0.org[d] + 1, g0.org[d ^ 1] + 1)] = g0.face_of[d]
    rot = {}
    for u in range(1, 9):
        rot[u] = [nv[(left[(u, v)], u)] for v in CUBE[u]]
    for (fi, u), idx in nv.items():
        fverts = faces[fi]
        i = fverts.index(u)
        rot[idx] = [u, nv[(fi, fverts[(i + 1) % 4])],
                    nv[(fi, fverts[(i - 1) % 4])]]
    return build_from_rotations(rot)


def test_criterion4_classical_regressions():
    cube = seed("cube")
    amb = apply_decoration(cube, lookup("ambo"))
    assert (amb.n, amb.ne, len(amb.faces)) == (12, 24, 14)
    assert canonical_code(amb) == canonical_code(_hand_cuboctahedron())

    dl = apply_decoration(cube, lookup("dual"))
    assert canonical_code(dl) == canonical_code(seed("octahedron"))

    tr = apply_decoration(cube, lookup("truncate"))
    assert (tr.n, tr.ne, len(tr.faces)) == (24, 36, 14)
    assert canonical_code(tr) == canonical_code(_hand_truncated_cube())

    ch = apply_decoration(cube, lookup("chamfer"))
    assert ch.ne == 48
    assert canonical_code(ch) == canonical_code(_hand_chamfered_cube())
    print("criterion 4: ambo/dual/truncate/chamfer on the cube match "
          "hand-built rotation systems PASS")


# -- criterion 5: property suites ---------------------------------------------

PROPERTY_SEEDS = ("tetrahedron", "cube", "octahedron", "bowtie",
                  "k4-minus-edge")


def _decorations_upto(rmax, k=1):
    out = []
    generate(GenerationTask(1, rmax, k),
             visitor=lambda p: complete(p, k, 1, rmax, out.append))
    return out


@pytest.fixture(scope="module")
def small_decorations():
    return _decorations_upto(6)


def test_criterion5_edge_inflation(small_decorations):
    checked = 0
    for d in small_decorations:
        r = d.rate()
        for name in PROPERTY_SEEDS:
            g = seed(name)
            try:
                res = apply_decoration(g, d)
            except Exception:
                continue      # loop-degenerate seed/operation pairs
            assert res.ne == r * g.ne
            assert res.n - res.ne + len(res.faces) == 2
            checked += 1
    assert checked == 5 * 40   # every pair applies cleanly
    print(f"criterion 5a: edge-inflation law on {checked} "
          f"(decoration, seed) pairs PASS")


def test_criterion5_connectivity_preservation():
    targets = {"bowtie": 1, "k4-minus-edge": 2, "cube": 3}
    checked = 0
    for d in _decorations_upto(5):
        # a cell-less copy: the class is computed, not shared
        cls = connectivity_class_of(Decoration(d.g, d.vt, d.et, d.corners))
        for name, k in targets.items():
            if cls < k:
                continue
            res = apply_decoration(seed(name), d)
            assert vertex_connectivity_capped(res, k) >= k, (name, k)
            checked += 1
    print(f"criterion 5b: connectivity preserved on {checked} pairs PASS")
    assert checked == 20 + 20 + 18


def test_criterion5_symmetry_divisibility(small_decorations):
    checked = 0
    for d in small_decorations[::7]:
        for name in ("tetrahedron", "cube"):
            g = seed(name)
            res = apply_decoration(g, d)
            _, aut_g = automorphism_orbits(g, "full")
            _, aut_res = automorphism_orbits(res, "full")
            assert aut_res % aut_g == 0
            checked += 1
    print(f"criterion 5c: |Aut(G)| divides |Aut(O(G))| on {checked} pairs PASS")


def test_criterion5_skeleton_roundtrip_and_bounds(small_decorations):
    for d in small_decorations:
        p, _ = type1_subgraph(d)
        assert p.lo <= d.rate() <= p.hi
    print(f"criterion 5d: skeleton round-trip and rate bounds on "
          f"{len(small_decorations)} decorations PASS")


def test_criterion5_no_duplicates_r12(full_run):
    assert full_run.duplicates == 0
    total = sum(full_run.by_rate_k[r][0] for r in range(1, 13))
    assert len({c for c in full_run.codes}) >= total
    print(f"criterion 5e: zero duplicate identity codes across "
          f"{len(full_run.codes)} decorations PASS")


# -- criterion 6: regressions -------------------------------------------------

def test_criterion6_uncompletable_predecoration():
    rot = {1: [2, 4, 7], 2: [3, 1], 3: [4, 2], 4: [1, 3],
           5: [6], 6: [5, 7], 7: [1, 6, 8], 8: [7, 9], 9: [8]}
    g = build_from_rotations(rot)
    face = max(range(len(g.faces)), key=lambda f: len(g.faces[f]))
    p = Predecoration(g.with_outer(face))
    assert complete(p, 1, 1, p.hi) == 0
    print("criterion 6a: the quadrangle-plus-path predecoration has "
          "zero completions PASS")


@pytest.mark.parametrize("k", (2, 3))
def test_criterion6_ext10_pruning_equivalence(k):
    for rate in range(1, 9):
        pruned = Counter()
        posthoc = Counter()
        generate(GenerationTask(rate, rate, k),
                 visitor=lambda p: complete(
                     p, k, rate, rate, lambda d: pruned.update([d.rate()])))
        # a k=1 task refuses no extension 10
        generate(GenerationTask(rate, rate, 1),
                 visitor=lambda p: complete(
                     p, k, rate, rate, lambda d: posthoc.update([d.rate()])))
        assert pruned == posthoc, (k, rate)
    print(f"criterion 6b: extension-10 pruning equals post-hoc filtering "
          f"for k={k} at rates 1-8 PASS")
