import gc
import types

from lspgen import complete as complete_module
from lspgen import predecorations
from lspgen.complete import _Completer, complete, is_chiral
from lspgen.decorations import decoration_identity, type1_subgraph, validate
from lspgen.generate import GenerationTask, base_c4, base_k2, generate
from lspgen.maps import build_from_rotations, canonical_code
from lspgen.pipeline import run_pipeline
from lspgen.predecorations import Predecoration, outer_vertex_occurrences


# k=2 counts at rates 1-12 (criterion 1 of tests/test_acceptance.py)
K2_PINS = [2, 2, 4, 6, 6, 20, 28, 58, 82, 168, 200, 492]


def _pre(rot):
    g = build_from_rotations(rot)
    face = max(range(len(g.faces)), key=lambda f: len(g.faces[f]))
    return Predecoration(g.with_outer(face))


def test_k2_completions_are_identity_and_dual():
    out = []
    n = complete(base_k2(), 1, 1, 8, out.append)
    assert n == 2
    assert {d.rate() for d in out} == {1}
    codes = {decoration_identity(d) for d in out}
    from lspgen.catalog import lookup
    assert codes == {decoration_identity(lookup("identity")),
                     decoration_identity(lookup("dual"))}


def test_path2_completion_rates():
    p = _pre({1: [2], 2: [1, 3], 3: [2]})
    by_rate = {}
    complete(p, 1, 1, 10,
             lambda d: by_rate.__setitem__(d.rate(),
                                           by_rate.get(d.rate(), 0) + 1))
    assert by_rate == {2: 2, 3: 4}


def test_c4_only_completes_at_rate_5():
    by_rate = {}
    complete(base_c4(), 1, 1, 10,
             lambda d: by_rate.__setitem__(d.rate(),
                                           by_rate.get(d.rate(), 0) + 1))
    assert by_rate == {5: 2}


def test_rate5_k3_total_is_4():
    total = [0]
    generate(GenerationTask(5, 5, 3),
             visitor=lambda p: total.__setitem__(
                 0, total[0] + complete(p, 3, 5, 5)))
    assert total[0] == 4


def test_uncompletable_predecoration():
    # quadrangle plus a path of four edges through a cut vertex
    rot = {1: [2, 4, 7], 2: [3, 1], 3: [4, 2], 4: [1, 3],
           5: [6], 6: [5, 7], 7: [1, 6, 8], 8: [7, 9], 9: [8]}
    p = _pre(rot)
    assert complete(p, 1, 1, p.hi) == 0


def test_round_trip_and_bounds():
    seen = []
    generate(GenerationTask(1, 8, 1), visitor=seen.append)
    for p in seen:
        code = canonical_code(p.g, "full")
        emitted = []
        complete(p, 1, 1, 8, emitted.append)
        for d in emitted:
            assert validate(d.g, d.vt, d.et, d.corners[1],
                            d.corners[0], d.corners[2]) == []
            assert p.lo <= d.rate() <= p.hi
            back, _ = type1_subgraph(d)
            assert canonical_code(back.g, "full") == code


def test_no_duplicate_identity_codes():
    codes = set()
    def dv(d):
        c = decoration_identity(d)
        assert c not in codes
        codes.add(c)
    generate(GenerationTask(1, 9, 1),
             visitor=lambda p: complete(p, 1, 1, 9, dv))
    assert len(codes) == 2 + 2 + 4 + 6 + 6 + 20 + 28 + 58 + 82


def test_chirality_detection():
    assert not is_chiral(base_k2())
    assert not is_chiral(base_c4())
    # quadrangle with a tail at one corner and a pendant at the adjacent
    # corner admits no reflection
    p = _pre({1: [5, 7], 2: [7, 3, 6], 3: [2, 4], 4: [3, 7],
              5: [1], 6: [2], 7: [1, 4, 2]})
    assert is_chiral(p)


def test_chiral_skeleton_yields_mirror_pairs():
    from lspgen.decorations import mirror
    p = _pre({1: [5, 7], 2: [7, 3, 6], 3: [2, 4], 4: [3, 7],
              5: [1], 6: [2], 7: [1, 4, 2]})
    out = []
    complete(p, 1, 10, 10, out.append)
    codes = {decoration_identity(d) for d in out}
    assert codes
    for d in out:
        assert decoration_identity(mirror(d)) in codes


def test_inner_vertices_have_even_degree():
    seen = []
    generate(GenerationTask(1, 7, 1), visitor=seen.append)
    for p in seen:
        emitted = []
        complete(p, 1, 1, 7, emitted.append)
        for d in emitted:
            g = d.g
            on_outer = {g.org[x] for x in g.faces[g.outer]}
            for v in range(g.n):
                if v not in on_outer:
                    assert g.degree(v) % 2 == 0
                    if d.vt[v] == 1:
                        assert g.degree(v) == 4


def decorations_from_state(p: Predecoration, v1_choice,
                           cover: frozenset) -> list:
    """Builds the decorations determined by one completion state.

    The state names the v1 choice (existing vertex or a boundary slot
    for the new degree-2 vertex) and the set of slots that receive
    degree-3 boundary vertices; quadrangle fills are implied.  Both type
    assignments and all corner placements are returned; an invalid state
    yields the empty list.
    """
    comp = _Completer(p, 1, 1, p.hi)
    comp._start(v1_choice)
    for i in cover:
        comp._place(i, 1)
    feasible = comp._demand(comp.occ) <= 2
    return list(comp._build(v1_choice, cover)) if feasible else []


def test_decorations_from_state():
    out = decorations_from_state(base_k2(), ("g", 0), frozenset())
    assert len(out) == 2
    assert all(d.rate() == 1 for d in out)
    # an impossible state yields nothing: v1 at a leaf of the 2-path
    p = _pre({1: [2], 2: [1, 3], 3: [2]})
    assert decorations_from_state(p, ("v", 0), frozenset()) == []


# -- the pruned cover search against the unpruned one ------------------------

def _reference_covers(comp, choice, budget):
    """Every cover set of at most `budget` slots, in depth-first order of
    increasing slots, with no screen: the enumeration the pruned search
    replaces."""
    g, walk, m = comp.g, comp.walk, comp.m
    blocked = {choice[1]} if choice[0] == "g" else set()
    ok_pair = []
    for i in range(m):
        j = (i + 1) % m
        u, v, w = g.org[walk[i]], g.org[walk[j]], g.org[walk[j] ^ 1]
        ok_pair.append(i not in blocked and j not in blocked
                       and len({u, v, w}) == 3)
    out = []
    stack = [(0, ())]
    while stack:
        i, chosen = stack.pop()
        out.append(chosen)
        if len(chosen) >= budget:
            continue
        used = {s for c in chosen for s in (c, (c + 1) % m)}
        for j in reversed(range(i, m)):
            if ok_pair[j] and j not in used and (j + 1) % m not in used:
                stack.append((j + 2, chosen + (j,)))
    return out if budget >= 0 else []


def _reference_screen(comp, choice, cover):
    """The degree screen, written out on its own, with the cut-vertex
    rule: a vertex left twice on the outer walk fails."""
    g, walk, m = comp.g, comp.walk, comp.m
    added = [0] * g.n
    mid_cut = [0] * g.n
    for i in cover:
        j = (i + 1) % m
        for v in (g.org[walk[i]], g.org[walk[j]], g.org[walk[j] ^ 1]):
            added[v] += 1
        mid_cut[g.org[walk[j]]] += 1
    if choice[0] == "g":
        added[g.org[walk[choice[1]]]] += 1
        added[g.org[walk[choice[1]] ^ 1]] += 1
    v1 = choice[1] if choice[0] == "v" else None
    corners = 0
    for v, cnt in outer_vertex_occurrences(g).items():
        fills = g.degree(v) - cnt
        deg = g.degree(v) + fills + added[v]
        if cnt - mid_cut[v] > 1:
            return False
        if cnt == mid_cut[v]:
            if deg <= 4 or v == v1:
                return False
        elif v == v1:
            if deg <= 2:
                return False
        elif deg <= 3:
            corners += 1
    return corners <= 2


def test_cover_search_equals_screened_reference():
    skeletons = []
    generate(GenerationTask(1, 12, 1), visitor=skeletons.append)
    checked = 0
    for p in skeletons:
        windows = [(1, p.hi)] + [(r, r) for r in range(1, p.hi + 1)]
        probe = _Completer(p, 1, 1, p.hi)
        choices = [("v", v) for v in sorted(probe.occ)]
        choices += [("g", i) for i in range(probe.m)]
        for choice in choices:
            base = 4 * len(probe.quads) + (choice[0] == "g")
            ref = [c for c in _reference_covers(probe, choice,
                                                (p.hi - base) // 2)
                   if _reference_screen(probe, choice, c)]
            for rmin, rmax in windows:
                comp = _Completer(p, 1, rmin, rmax)
                want = [c for c in ref
                        if rmin <= base + 2 * len(c) <= rmax]
                assert list(comp._cover_sets(choice)) == want
                checked += len(want)
    assert checked > 1000


def test_cover_funnel_below_five_per_decoration(monkeypatch):
    enumerated = [0]
    search = _Completer._cover_sets

    def counted(self, choice):
        for cover in search(self, choice):
            enumerated[0] += 1
            yield cover

    monkeypatch.setattr(_Completer, "_cover_sets", counted)
    total = sum(run_pipeline(1, 12, 2).decorations.values())
    assert total == sum(K2_PINS)
    assert enumerated[0] < 5 * total


def test_cover_search_equals_full_validator():
    # the unscreened covers whose disks pass the full validator are
    # exactly the covers the search yields; a disk with no corner
    # placement builds no decoration and fails the validator too
    skeletons = []
    generate(GenerationTask(1, 10, 1), visitor=skeletons.append)
    checked = 0
    for p in skeletons:
        comp = _Completer(p, 1, 1, p.hi)
        choices = [("v", v) for v in sorted(comp.occ)]
        choices += [("g", i) for i in range(comp.m)]
        for choice in choices:
            base = 4 * len(comp.quads) + (choice[0] == "g")
            want = []
            for cover in _reference_covers(comp, choice,
                                           (p.hi - base) // 2):
                if base + 2 * len(cover) < 1:
                    continue
                valid = {not validate(d.g, d.vt, d.et, d.corners[1])
                         for d in comp._build(choice, cover)}
                assert len(valid) <= 1
                if valid == {True}:
                    want.append(cover)
            assert list(comp._cover_sets(choice)) == want
            checked += len(want)
    assert checked > 400


def test_completion_calls_no_validator_and_no_identity_code(monkeypatch):
    def forbidden(*args):
        raise AssertionError("completion must not call this")

    monkeypatch.setattr(complete_module, "validate", forbidden)
    monkeypatch.setattr(complete_module, "decoration_identity", forbidden)
    res = run_pipeline(1, 12, 2)
    assert [res.decorations[r] for r in range(1, 13)] == K2_PINS


def test_completion_leaves_no_cyclic_functions():
    skeletons = []
    generate(GenerationTask(12, 12, 1), visitor=skeletons.append)
    p = max(skeletons, key=lambda q: complete(q, 1, 12, 12))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert complete(p, 1, 12, 12) > 0
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, types.FunctionType)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_chirality_is_computed_once_per_skeleton(monkeypatch):
    calls = []
    real = predecorations.automorphisms_flagged
    monkeypatch.setattr(predecorations, "automorphisms_flagged",
                        lambda *a: calls.append(a) or real(*a))
    p = _pre({1: [5, 7], 2: [7, 3, 6], 3: [2, 4], 4: [3, 7],
              5: [1], 6: [2], 7: [1, 4, 2]})
    assert isinstance(complete(p, 1, 10, 10), int)
    assert is_chiral(p)
    # one for the skeleton, one for its mirror image
    assert len(calls) == 2
