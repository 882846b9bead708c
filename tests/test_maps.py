import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chamber_reference import (automorphism_orbits, automorphisms,
                               automorphisms_flagged, isomorphisms_brute)
from lspgen import maps
from lspgen.catalog import OPERATION_NAMES, SEED_NAMES, lookup, seed
from lspgen.chambers import apply_decoration
from lspgen.complete import complete
from lspgen.decorations import _identity_labels
from lspgen.generate import GenerationTask, generate
from lspgen.maps import (MapError, PlaneGraph, build_from_rotations, freeze,
                         canonical_code, canonical_data, read_planar_code,
                         random_relabeling, to_rotations,
                         vertex_connectivity_capped, write_planar_code)

CUBE = {1: [2, 4, 5], 2: [3, 1, 6], 3: [4, 2, 7], 4: [1, 3, 8],
        5: [8, 6, 1], 6: [5, 7, 2], 7: [6, 8, 3], 8: [7, 5, 4]}
OCTA = {1: [2, 3, 4, 5], 2: [1, 5, 6, 3], 3: [1, 2, 6, 4],
        4: [1, 3, 6, 5], 5: [1, 4, 6, 2], 6: [2, 5, 4, 3]}


def cube():
    return build_from_rotations(CUBE)


def test_cube_counts():
    g = cube()
    assert (g.n, g.ne, len(g.faces)) == (8, 12, 6)
    assert g.genus == 0
    assert all(len(f) == 4 for f in g.faces)


def test_single_edge():
    g = build_from_rotations({1: [2], 2: [1]})
    assert (g.n, g.ne, len(g.faces), g.genus) == (2, 1, 1, 0)


def test_inconsistent_rotations_rejected():
    with pytest.raises(MapError):
        build_from_rotations({1: [2], 2: []})
    with pytest.raises(MapError):
        build_from_rotations({1: [2, 3], 2: [1], 3: []})


def test_loop_rejected():
    with pytest.raises(MapError):
        build_from_rotations({1: [1, 2], 2: [1]})


@pytest.mark.parametrize("rows", [     # each spoils [[0, 2, 4], [1, 3, 5]]
    [[0, 2, 4], [], [1, 3, 5]],         # an empty row
    [[0, 2, 4], [1, 3, 3]],             # a dart listed twice
    [[0, 2, 4], [1, 3, 7]],             # a missing dart (5), 7 in its place
    [[0, -2, 4], [1, 3, 5]],            # a negative dart
    [[0, 2, 4], [1, 3, 5, 6, 9]],       # a dart >= 2E
    [[0, 2, 4], [1, 3]],                # an odd dart count
], ids=["empty", "twice", "missing", "negative", "too-large", "odd"])
def test_malformed_rows_rejected(rows):
    with pytest.raises(MapError):
        PlaneGraph(rows)


# dart tokens of an apex x glued onto the edge u-v (old darts 0, 1): new
# edges u-x (tokens ~0, ~1) and x-v (~2, ~3)
APEX = [[0, ~0], [~3, 1], [~1, ~2]]


def test_freeze_numbers_darts_by_first_appearance():
    g, trans = freeze(APEX, ~0)
    # ~3 is seen before its reverse ~2, so ~3 takes the even dart
    assert trans == {0: 0, 1: 1, ~0: 2, ~1: 3, ~3: 4, ~2: 5}
    assert all(trans[t ^ 1] == trans[t] ^ 1 for t in trans)
    assert [g.darts_at(v) for v in range(g.n)] == [(0, 2), (1, 4), (3, 5)]


@pytest.mark.parametrize("token, walk", [
    (~0, (~0, ~2, 1)),      # u -> x -> v -> u
    (0, (0, ~3, ~1)),       # u -> v -> x -> u
])
def test_freeze_outer_face_is_left_of_the_token(token, walk):
    g, trans = freeze(APEX, token)
    assert sorted(g.faces[g.outer]) == sorted(trans[t] for t in walk)


@pytest.mark.parametrize("rows", [
    [[0, ~0], [1], [~1, ~2]],           # ~3 missing
    [[0, ~0], [~4, 1], [~1, ~2]],       # ~3 and ~5 missing
])
def test_freeze_rejects_a_missing_reverse(rows):
    with pytest.raises(MapError, match="rows do not partition the darts"):
        freeze(rows, 0)


def test_two_vertices_never_merge_into_one():
    # renaming cube vertices 6 and 7 to 0 and 1 would give vertices 0
    # and 1 two rotation cycles each
    with pytest.raises(MapError, match="has no darts"):
        cube().relabeled([0, 1, 2, 3, 4, 5, 0, 1])


def test_face_size_sum_is_dart_count():
    for rot in (CUBE, OCTA, {1: [2], 2: [1, 3], 3: [2]}):
        g = build_from_rotations(rot)
        assert sum(len(f) for f in g.faces) == 2 * g.ne
        assert g.n - g.ne + len(g.faces) == 2 - 2 * g.genus


def test_canonical_code_class_function():
    g = cube()
    rng = random.Random(42)
    base = canonical_code(g)
    for _ in range(1000):
        assert canonical_code(random_relabeling(g, rng)) == base


def test_canonical_code_distinguishes():
    assert canonical_code(cube()) != canonical_code(build_from_rotations(OCTA))


def test_cube_automorphisms_vs_bruteforce():
    g = cube()
    _, order_full = automorphism_orbits(g, "full")
    _, order_op = automorphism_orbits(g, "oriented")
    assert order_full == 48
    assert order_op == 24
    assert sum(1 for _ in isomorphisms_brute(g, g, "full")) == 48
    assert sum(1 for _ in isomorphisms_brute(g, g, "oriented")) == 24


def test_small_graph_groups_match_bruteforce():
    graphs = [
        {1: [2], 2: [1, 3], 3: [2]},                       # path
        {1: [2, 3], 2: [1, 3], 3: [1, 2]},                 # triangle
        {1: [2, 3, 4], 2: [1], 3: [1], 4: [1]},            # star
        OCTA,
    ]
    for rot in graphs:
        g = build_from_rotations(rot)
        _, order = automorphism_orbits(g, "full")
        assert order == sum(1 for _ in isomorphisms_brute(g, g, "full"))


def test_path_orbits():
    g = build_from_rotations({1: [2], 2: [1, 3], 3: [2]})
    orbits, order = automorphism_orbits(g, "full")
    assert order == 2
    end_darts = {d for d in range(2 * g.ne)
                 if g.deg[g.org[d]] == 1 or g.deg[g.org[d ^ 1]] == 1}
    assert end_darts == set(range(4))
    assert len(orbits) == 2


def test_fixed_vertices_restrict_group():
    g = cube()
    perms = automorphism_orbits(g, "full", fixed=[0])[1]
    assert perms == 6    # stabilizer of a cube vertex


def test_planar_code_round_trip():
    gs = [cube(), build_from_rotations(OCTA),
          build_from_rotations({1: [2], 2: [1, 3], 3: [2]})]
    data = write_planar_code(gs)
    back = read_planar_code(data)
    assert len(back) == 3
    for a, b in zip(gs, back):
        assert canonical_code(a) == canonical_code(b)


def test_planar_code_no_header():
    data = write_planar_code([cube()], header=False)
    assert canonical_code(read_planar_code(data)[0]) == canonical_code(cube())


PLANAR_CODE_ERRORS = [
    (bytes([0]), "zero vertices"),
    (bytes([3, 2, 0, 1]), "truncated"),
    (bytes([2, 9, 0, 1, 0]), r"vertex index 9 out of range \(n=2\)"),
    (bytes([2, 1, 0, 1, 0]), "loop present"),
    (bytes([3, 2, 3, 0, 1, 0, 0]), "inconsistent rotations between 0 and 2"),
    # a one-sided adjacency from the larger vertex names it first
    (bytes([2, 0, 1, 0]), "inconsistent rotations between 1 and 0"),
    (bytes([3, 2, 3, 2, 3, 0, 1, 1, 0, 1, 1, 0]),
     "ambiguous parallel edges between 0 and 1"),
]


def test_planar_code_errors():
    for data, message in PLANAR_CODE_ERRORS:
        with pytest.raises(MapError, match=message):
            read_planar_code(data)


def _mates(g):
    """Each dart's reverse, by (vertex, position in its rotation)."""
    return [[(g.org[x ^ 1], g.darts_at(g.org[x ^ 1]).index(x ^ 1))
             for x in g.darts_at(v)] for v in range(g.n)]


def test_planar_code_writes_only_what_reads_back():
    # the 82 decorations of rate 9 applied to the cube: 8 results have
    # parallel edges that are not consecutive around both ends, which a
    # reader cannot pair back; the writer refuses those
    decorations = []
    generate(GenerationTask(9, 9, 1), visitor=lambda p: complete(
        p, 1, 9, 9, decorations.append))
    read = refused = 0
    for d in decorations:
        h = apply_decoration(seed("cube"), d)
        try:
            data = write_planar_code([h])
        except MapError as exc:
            assert str(exc).startswith("planar_code cannot be read back: "
                                       "ambiguous parallel edges")
            refused += 1
            continue
        back, = read_planar_code(data)
        assert _mates(back) == _mates(h)
        read += 1
    assert (read, refused) == (74, 8)


def test_multigraph_round_trip():
    theta = build_from_rotations({1: [2, 2, 2], 2: [1, 1, 1]})
    assert (theta.n, theta.ne, len(theta.faces)) == (2, 3, 3)
    back = read_planar_code(write_planar_code([theta]))[0]
    assert canonical_code(back) == canonical_code(theta)


@pytest.mark.parametrize("rot, org, nxt", [
    (CUBE,
     (0, 1, 0, 3, 0, 4, 1, 5, 1, 2, 2, 6, 2, 3, 3, 7, 4, 7, 4, 5, 5, 6, 6, 7),
     (2, 6, 4, 13, 0, 16, 8, 19, 1, 10, 12, 21, 9, 14, 3, 23, 18, 15, 5, 20,
      7, 22, 11, 17)),
    ({1: [2, 2, 2], 2: [1, 1, 1]}, (0, 1, 0, 1, 0, 1), (2, 5, 4, 1, 0, 3)),
    # the double edge's darts at vertex 2 wrap around the end of its row
    ({1: [2, 2, 3], 2: [3, 1, 1], 3: [1, 2]},
     (0, 1, 0, 1, 0, 2, 1, 2), (2, 6, 4, 1, 0, 7, 3, 5)),
], ids=["cube", "theta", "reversed-run"])
def test_planar_code_read_back_darts(rot, org, nxt):
    # dart ids number the edges in first-seen order along the rows, and
    # parallel edges pair by the reversed-run rule
    back = read_planar_code(write_planar_code([build_from_rotations(rot)]))[0]
    assert (back.org, back.nxt) == (org, nxt)


# the cube with vertex 6's rotation mutated: 6 lists 1, which does not
# list 6
CUBE_ONE_SIDED = bytes.fromhex(
    "080204050001060300020704000103080001080600020501000306080004070500")


def test_planar_code_one_sided_adjacency():
    with pytest.raises(MapError, match="inconsistent rotations"):
        read_planar_code(CUBE_ONE_SIDED)


def test_planar_code_mutated_records_raise_only_map_errors():
    rng = random.Random(3)
    good = write_planar_code([cube(), build_from_rotations(OCTA)])
    for _ in range(2000):
        data = bytearray(good)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.choice(
                (0, rng.randint(1, 9), rng.randint(0, 255)))
        try:
            read_planar_code(bytes(data))
        except MapError:
            pass


def test_connectivity_caps():
    assert vertex_connectivity_capped(cube()) == 3
    assert vertex_connectivity_capped(build_from_rotations({1: [2], 2: [1]})) == 1
    k4e = build_from_rotations({1: [2, 4, 3], 2: [1, 3, 4], 3: [1, 2], 4: [2, 1]})
    assert vertex_connectivity_capped(k4e) == 2


def _brute_connectivity(adj, cap):
    """Smallest number of removed vertices (below cap) that leaves the
    graph disconnected or with one vertex, by trying every vertex set."""
    from itertools import combinations
    n = len(adj)
    for k in range(cap):
        for gone in combinations(range(n), k):
            rest = [v for v in range(n) if v not in gone]
            if len(rest) <= 1:
                return k
            seen, stack = {rest[0]}, [rest[0]]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in gone and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) < len(rest):
                return k
    return cap


def test_connectivity_matches_brute_force():
    # every skeleton generated up to rate 10, and the catalog
    # operation x seed results of at most 40 vertices
    graphs = []
    generate(GenerationTask(1, 10, 1), lambda p: graphs.append(p.g))
    failed = 0
    for op in OPERATION_NAMES:
        for name in SEED_NAMES:
            try:
                res = apply_decoration(seed(name), lookup(op))
            except MapError:    # five operations glue k2 into a loop
                failed += 1
                continue
            if res.n <= 40:
                graphs.append(res)
    assert failed == 5
    found = set()
    for g in graphs:
        adj = [list(g.neighbors(v)) for v in range(g.n)]
        k = vertex_connectivity_capped(g, 3)
        assert k == _brute_connectivity(adj, 3), to_rotations(g)
        found.add(k)
    assert found == {1, 2, 3}


def test_to_rotations_round_trip():
    g = cube()
    assert canonical_code(build_from_rotations(to_rotations(g))) == canonical_code(g)


# -- canonical codes against an unpruned reference --------------------------

PLATONIC = ("tetrahedron", "cube", "octahedron", "dodecahedron",
            "icosahedron")
MULTIGRAPHS = ("k2", "bowtie", "k4-minus-edge")


def _reference_bfs_code(g, d0, mirror, vlab, elab):
    """The whole BFS code from ``d0``, with no bound."""
    org = g.org
    step = g.prv if mirror else g.nxt
    lab = [0] * g.n
    entry = [0] * g.n
    order = [org[d0]]
    lab[org[d0]] = 1
    entry[org[d0]] = d0
    code = [g.n, g.ne]
    if vlab is not None:
        code.append(vlab[org[d0]])
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        d = entry[v]
        while True:
            w = org[d ^ 1]
            if not lab[w]:
                order.append(w)
                lab[w] = len(order)
                entry[w] = d ^ 1
            code.append(lab[w])
            if elab is not None:
                code.append(elab[d >> 1])
            if vlab is not None:
                code.append(vlab[w])
            d = step[d]
            if d == entry[v]:
                break
        code.append(0)
    return tuple(code)


def reference_canonical_data(g, mode="full", vlab=None, elab=None):
    """The least code over every start, and every start reaching it in
    reading order: the definition of ``maps.canonical_data``."""
    best, hits = None, []
    for mirror in (False, True) if mode == "full" else (False,):
        if g.outer is None:
            darts = range(2 * g.ne)
        elif mirror:
            darts = [d ^ 1 for d in g.faces[g.outer]]
        else:
            darts = g.faces[g.outer]
        for d0 in darts:
            code = _reference_bfs_code(g, d0, mirror, vlab, elab)
            if best is None or code < best:
                best, hits = code, [(d0, mirror)]
            elif code == best:
                hits.append((d0, mirror))
    return best, hits


def _catalog_results(seeds):
    out = []
    for name in seeds:
        for op in OPERATION_NAMES:
            try:
                out.append(apply_decoration(seed(name), lookup(op)))
            except MapError:    # extraction would make a loop
                pass
    return out


@lru_cache(maxsize=None)
def _skeletons():
    """Every skeleton up to rate 14."""
    skeletons = []
    generate(GenerationTask(1, 14, 1), skeletons.append)
    return tuple(skeletons)


@lru_cache(maxsize=None)
def _skeleton_graphs():
    """Every skeleton up to rate 14, with and without its outer face."""
    return tuple(g for p in _skeletons() for g in (p.g, p.g.with_outer(None)))


def test_canonical_data_matches_reference_on_catalog_results():
    graphs = _catalog_results(PLATONIC + MULTIGRAPHS)
    assert len(graphs) > 70
    for g in graphs:
        for mode in ("full", "oriented"):
            assert canonical_data(g, mode) == \
                reference_canonical_data(g, mode), (to_rotations(g), mode)


def test_canonical_data_matches_reference_on_skeletons():
    for g in _skeleton_graphs():
        for mode in ("full", "oriented"):
            assert canonical_data(g, mode) == \
                reference_canonical_data(g, mode), (to_rotations(g), mode)


def _chain_results(seeds):
    """Every result of two catalog operations applied in turn."""
    out = []
    for name in seeds:
        for first in OPERATION_NAMES:
            host = apply_decoration(seed(name), lookup(first))
            out += [apply_decoration(host, lookup(op))
                    for op in OPERATION_NAMES]
    return out


def test_canonical_data_matches_reference_on_operation_chains():
    # the hosts keep the seeds' groups (orders 24 and 48): each one takes
    # three ties in mode "full" and two in "oriented"
    graphs = _chain_results(("tetrahedron", "cube"))
    assert len(graphs) == 200
    for g in graphs:
        for mode in ("full", "oriented"):
            assert canonical_data(g, mode) == \
                reference_canonical_data(g, mode), (to_rotations(g), mode)


def test_canonical_data_matches_reference_on_identity_codes():
    decorations = []
    for p in _skeletons():
        if p.lo <= 12:
            complete(p, 1, 1, 12, decorations.append)
    assert len(decorations) > 1000
    for d in decorations:
        vlab = _identity_labels(d)
        assert canonical_data(d.g, "oriented", vlab, d.et) == \
            reference_canonical_data(d.g, "oriented", vlab, d.et)


def _count_codes(monkeypatch, starts=None):
    """Wraps the BFS-code kernel; returns one entry per call, True when
    the call built its code in full.  Each call's start (d0, mirror) is
    appended to ``starts`` when given."""
    built = []
    kernel = maps._bfs_code

    def counted(*args):
        code = kernel(*args)
        built.append(code is not None)
        if starts is not None:
            starts.append(args[1:3])
        return code

    monkeypatch.setattr(maps, "_bfs_code", counted)
    return built


def test_symmetric_map_builds_few_codes(monkeypatch):
    g = apply_decoration(seed("icosahedron"), lookup("ambo"))
    built = _count_codes(monkeypatch)
    _, hits = canonical_data(g, "full")
    assert 4 * g.ne == 240 and len(hits) == 120
    assert sum(built) <= 8
    assert len(built) <= 24


def test_chain_host_builds_few_codes(monkeypatch):
    # kiss after truncate: 1,080 starts, one orbit of 120 achieves the code
    g = apply_decoration(apply_decoration(seed("icosahedron"),
                                          lookup("truncate")), lookup("kiss"))
    built = _count_codes(monkeypatch)
    _, hits = canonical_data(g, "full")
    assert 4 * g.ne == 1080 and len(hits) == 120
    assert sum(built) <= 9
    assert len(built) <= 40


def _first_rows(g):
    """Every start's first vertex row, read off the rotations: the start
    vertex's neighbours from the start dart on, counterclockwise (or
    clockwise for a mirror start), named by first appearance from 2."""
    rows = {}
    for v, nbrs in to_rotations(g).items():
        for i, d in enumerate(g.darts_at(v - 1)):
            ccw = nbrs[i:] + nbrs[:i]
            for mirror, seq in ((False, ccw), (True, ccw[:1] + ccw[:0:-1])):
                lab = {}
                rows[d, mirror] = tuple(lab.setdefault(w, len(lab) + 2)
                                        for w in seq) + (0,)
    return rows


def _starts(g, mode):
    """Every start of ``g``'s codes in mode, in reading order."""
    mirrors = (False, True) if mode == "full" else (False,)
    if g.outer is None:
        return [(d, m) for m in mirrors for d in range(2 * g.ne)]
    return [(d ^ m, m) for m in mirrors for d in g.faces[g.outer]]


def test_asymmetric_map_reads_every_least_first_row_start(monkeypatch):
    # a code begins [n, ne] + its start's first row, and with no
    # automorphism no start is skipped: exactly the starts with the least
    # first row are read, in order
    g = next(g for g in _skeleton_graphs() if g.outer is not None
             and len(reference_canonical_data(g)[1]) == 1)
    g = g.with_outer(g.outer)   # a copy with no stored readings
    starts = []
    _count_codes(monkeypatch, starts)
    canonical_data(g, "full")
    rows = _first_rows(g)
    least = min(rows[s] for s in _starts(g, "full"))
    assert starts == [s for s in _starts(g, "full") if rows[s] == least]
    assert len(starts) < 2 * len(g.faces[g.outer])


@pytest.mark.parametrize("outer", [None, 0])
def test_repeated_neighbour_row_wins(monkeypatch, outer):
    # u has neighbours a, a, b: from its first parallel dart it reads
    # [2, 2, 3, 0], which beats the degree-2 rows [2, 3, 0] of b and e
    # and a's [2, 2, 3, 4, 0]; face 0 is the digon of u and a
    g = build_from_rotations({"u": ["a", "a", "b"], "a": ["u", "u", "c", "e"],
                              "b": ["u", "c"], "c": ["a", "b", "e"],
                              "e": ["a", "c"]})
    assert g.genus == 0 and len(g.faces[0]) == 2
    g = g.with_outer(outer)
    rows = _first_rows(g)
    for mode in ("full", "oriented"):
        h = g.with_outer(g.outer)   # a copy with no stored readings
        starts = []
        _count_codes(monkeypatch, starts)
        assert canonical_data(h, mode) == reference_canonical_data(h, mode)
        least = min(rows[s] for s in _starts(h, mode))
        assert least == (2, 2, 3, 0)
        assert starts and all(rows[s] == least for s in starts)
        assert len(starts) < len(_starts(h, mode))


def test_unlabelled_readings_are_stored(monkeypatch):
    g = apply_decoration(seed("cube"), lookup("ambo"))
    built = _count_codes(monkeypatch)
    first = canonical_data(g, "full")
    calls = len(built)
    assert canonical_data(g, "full") == first
    assert len(built) == calls      # the second call builds no code
    canonical_data(g, "full")[1].clear()    # each call has its own hits
    assert canonical_data(g, "full") == first
    vlab = [v % 2 for v in range(g.n)]
    assert canonical_data(g, "full", vlab) == \
        reference_canonical_data(g, "full", vlab)
    assert len(built) > calls       # a labelled call is never stored
    calls = len(built)
    canonical_data(g, "full", vlab)
    assert len(built) > calls


def test_identity_codes_read_least_label_starts(monkeypatch):
    decorations = []
    for p in _skeletons():
        if p.lo <= 9:
            complete(p, 1, 1, 9, decorations.append)
    starts = []
    _count_codes(monkeypatch, starts)
    skipped = 0
    for d in decorations:
        vlab = _identity_labels(d)
        starts.clear()
        canonical_data(d.g, "oriented", vlab, d.et)
        least = min(vlab[d.g.org[e]] for e in d.g.faces[d.g.outer])
        assert starts
        assert all(vlab[d.g.org[e]] == least for e, _ in starts)
        skipped += len(d.g.faces[d.g.outer]) - len(starts)
    assert skipped > 0


# -- properties of canonical codes on random maps ---------------------------

PROPERTIES = settings(derandomize=True, database=None, deadline=None,
                      max_examples=40)
catalog_results = st.builds(
    lambda name, op: apply_decoration(seed(name), lookup(op)),
    st.sampled_from(PLATONIC), st.sampled_from(OPERATION_NAMES))
skeletons = st.deferred(lambda: st.sampled_from(_skeleton_graphs()))
plane_maps = st.one_of(catalog_results, skeletons)


@PROPERTIES
@given(plane_maps, st.randoms(use_true_random=False))
def test_canonical_code_ignores_vertex_names(g, rng):
    h = random_relabeling(g, rng)
    for mode in ("full", "oriented"):
        assert canonical_code(h, mode) == canonical_code(g, mode)


@PROPERTIES
@given(plane_maps)
def test_full_canonical_code_ignores_mirroring(g):
    assert canonical_code(g.mirrored(), "full") == canonical_code(g, "full")


@PROPERTIES
@given(plane_maps, st.sampled_from(("full", "oriented")))
def test_automorphism_count_matches_reference(g, mode):
    hits = reference_canonical_data(g, mode)[1]
    assert len(automorphisms_flagged(g, mode)) == len(hits)
    # with every rotation its own inverse, the identity may also reverse
    # orientation, and each permutation then occurs with both flags
    if g.nxt != g.prv:
        assert len(automorphisms(g, mode)) == len(hits)


@PROPERTIES
@given(plane_maps, st.randoms(use_true_random=False))
def test_rows_give_the_same_map_from_any_start(g, rng):
    rows = [g.darts_at(v) for v in range(g.n)]
    turned = [r[i:] + r[:i] for r in rows for i in [rng.randrange(len(r))]]
    h = PlaneGraph(turned, None if g.outer is None else g.faces[g.outer][0])
    assert (h.org, h.nxt, h.faces, h.outer) == (g.org, g.nxt, g.faces, g.outer)
    assert [h.darts_at(v) for v in range(h.n)] == rows
