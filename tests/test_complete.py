import gc
import os
import types

import pytest

from chamber_reference import automorphisms_flagged
from cover_reference import ReferenceSearch
from type1_reference import type1_subgraph
from lspgen import complete as complete_module
from lspgen import predecorations
from lspgen.classify import (_corner_axis_branch, _face_twice,
                             connectivity_class_of)
from lspgen.complete import _Completer, complete, is_chiral
from lspgen.decorations import (Decoration, corner_pairs,
                                decoration_identity, validate)
from lspgen.generate import GenerationTask, base_c4, base_k2, generate
from lspgen.maps import build_from_rotations, canonical_code
from lspgen.pipeline import run_pipeline
from lspgen.predecorations import Predecoration, outer_vertex_occurrences


# k=2 counts at rates 1-12 (criterion 1 of tests/test_acceptance.py)
K2_PINS = [2, 2, 4, 6, 6, 20, 28, 58, 82, 168, 200, 492]
# k=1 counts at rates 1-14, and the k=2 counts the program gives at rates
# 13 and 14, 644 and 1418 against the published 640 and 1400 (the known
# deviations of criterion 1)
K1_PINS = [2, 2, 4, 6, 6, 20, 28, 58, 82, 170, 204, 496, 650, 1432]
K2_GIVEN = K2_PINS + [644, 1418]


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
                    assert g.deg[v] % 2 == 0
                    if d.vt[v] == 1:
                        assert g.deg[v] == 4


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
    feasible = _reference_screen(comp, v1_choice, cover)
    return _decorations(comp, v1_choice, cover) if feasible else []


def _decorations(comp, choice, cover) -> list:
    """The decorations of one cover's records, in emission order: the
    firsts, then their 0 <-> 2 twins."""
    firsts = comp.records(choice, tuple(sorted(cover)))
    return [r.decoration for r in firsts + [r.twin() for r in firsts]]


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
        fills = g.deg[v] - cnt
        deg = g.deg[v] + fills + added[v]
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
        refs = {}
        for choice in choices:
            base = 4 * len(probe.quads) + (choice[0] == "g")
            refs[choice] = base, [
                c for c in _reference_covers(probe, choice,
                                             (p.hi - base) // 2)
                if _reference_screen(probe, choice, c)]
        for rmin, rmax in windows:
            got = _Completer(p, 1, rmin, rmax)._covers(choices)
            for choice, (base, ref) in refs.items():
                want = [c for c in ref
                        if rmin <= base + 2 * len(c) <= rmax]
                assert got[choice] == want
                checked += len(want)
    assert checked > 1000


def test_cover_funnel_below_five_per_decoration(monkeypatch):
    enumerated = [0]
    search = _Completer._covers

    def counted(self, choices):
        filed = search(self, choices)
        enumerated[0] += sum(map(len, filed.values()))
        return filed

    monkeypatch.setattr(_Completer, "_covers", counted)
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
        got = comp._covers(choices)
        for choice in choices:
            base = 4 * len(comp.quads) + (choice[0] == "g")
            want = []
            for cover in _reference_covers(comp, choice,
                                           (p.hi - base) // 2):
                if base + 2 * len(cover) < 1:
                    continue
                valid = {not validate(d.g, d.vt, d.et, d.corners[1])
                         for d in _decorations(comp, choice, cover)}
                assert len(valid) <= 1
                if valid == {True}:
                    want.append(cover)
            assert got[choice] == want
            checked += len(want)
    assert checked > 400


# -- the bounded cover search against the unbounded one --------------------

def _check_bound_against_reference(monkeypatch, rmax, k):
    """Completes every skeleton up to rmax at k.  Each cover search must
    file exactly the covers of the unbounded reference search, list by
    list in the same depth-first order; returns the nodes the bounded
    searches entered, the covers they filed, and the completion funnel."""
    counts = {"grown": 0, "filed": 0}
    search = _Completer._covers

    def checked(self, choices):
        covers = search(self, choices)
        assert self.filed == ReferenceSearch(self, choices).filed
        counts["grown"] += self.grown
        counts["filed"] += sum(map(len, covers.values()))
        return covers

    monkeypatch.setattr(_Completer, "_covers", checked)
    funnel = run_pipeline(1, rmax, k).completion
    assert funnel.grown == counts["grown"]
    return counts["grown"], counts["filed"], funnel


@pytest.mark.parametrize("k", (1, 2))
def test_bounded_search_files_the_reference_covers(monkeypatch, k):
    # the unbounded search enters 15,254 nodes for these 907 covers
    grown, filed, _ = _check_bound_against_reference(monkeypatch, 14, k)
    assert filed == 907
    assert grown <= 3 * filed


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for rates 15-17")
def test_bounded_search_files_the_reference_covers_stretch(monkeypatch):
    # the unbounded search enters 59,973 nodes, 11.8 per cover of the
    # funnel (5,066: a chiral skeleton's covers count again for its
    # mirror); per cover the searches file (3,415) the bound enters 3.3
    grown, filed, funnel = _check_bound_against_reference(monkeypatch, 17, 1)
    assert (filed, funnel.covers) == (3415, 5066)
    assert grown <= 3 * funnel.covers


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
    # `Predecoration.moves` reads the stored canonical hits once; the
    # mirror completer takes the skeleton's rotations, not its own moves
    calls = []
    real = predecorations.canonical_data
    monkeypatch.setattr(predecorations, "canonical_data",
                        lambda *a: calls.append(a) or real(*a))
    p = _pre({1: [5, 7], 2: [7, 3, 6], 3: [2, 4], 4: [3, 7],
              5: [1], 6: [2], 7: [1, 4, 2]})
    assert isinstance(complete(p, 1, 10, 10), int)
    assert is_chiral(p)
    assert len(calls) == 1


def _check_choice_images(comp, perms):
    """The completer's rotations and v1 choice images, read by arithmetic
    on its walk, against the dart permutations: rotation r is
    pos[perm[walk[0]]], ("g", i) goes to pos[perm[walk[i]]] and ("v", x)
    to the origin of perm[d] for a dart d at x."""
    walk, org = comp.walk, comp.g.org
    pos = {d: i for i, d in enumerate(walk)}
    rots = [pos[perm[walk[0]]] for perm in perms]
    assert sorted(comp.rots) == sorted(rots)
    for r, perm in zip(rots, perms):
        for i, d in enumerate(walk):
            assert comp._choice_image(("g", i), r) == ("g", pos[perm[d]])
            assert comp._choice_image(("v", org[d]), r) == \
                ("v", org[perm[d]])


def test_rotations_and_mirror_slots_match_the_dart_lookups():
    """Every completer up to rate 14, and the mirror completer of each
    chiral skeleton, against the orientation-preserving dart permutations
    of the reference `automorphisms_flagged`, and the mirror's slots and
    "g" choices against dart lookups: its slot j is
    pos[q[(j + 1) % m] ^ 1] here, its ("g", j) is ("g", pos[q[j] ^ 1])."""
    skeletons = []
    generate(GenerationTask(1, 14, 1), visitor=skeletons.append)
    mirrors = 0
    for p in skeletons:
        perms = [perm for perm, reflect in automorphisms_flagged(p.g, "full")
                 if not reflect]
        comp = _Completer(p, 1, 1, 14)
        _check_choice_images(comp, perms)
        if not is_chiral(p):
            continue
        mirror, m = comp.mirrored(), comp.m
        _check_choice_images(mirror, perms)
        pos, q = {d: i for i, d in enumerate(comp.walk)}, mirror.walk
        assert mirror.back == [pos[q[(j + 1) % m] ^ 1] for j in range(m)]
        assert mirror.pre == {c: c if c[0] == "v" else ("g", pos[q[c[1]] ^ 1])
                              for c in mirror.v1_choices()}
        mirrors += 1
    assert (len(skeletons), mirrors) == (165, 84)


# -- the mirror embedding, completed from the skeleton's search ---------------

def _check_mirror_sharing(monkeypatch, rmax, k=2):
    """Completes every skeleton up to rmax at k.  Each mirror's v1
    choices and reflected covers must be what its own automorphisms and
    search give, and each class read from a verdict cell (the
    skeleton's, in a mirror) what the classifier gives a cell-less copy
    of the record's decoration, capped at k as the completer asks for
    it; returns the numbers of mirrors and shared verdicts."""
    counts = {"mirrors": 0, "shared": 0}
    run = _Completer.run
    classed = complete_module.connectivity_class

    def run_checked(self, choices, covers, *rest):
        if self.pre is not None:
            own = _Completer(Predecoration(self.g), self.k, self.rmin,
                             self.rmax)
            assert choices == own.v1_choices()
            assert covers == own._covers(choices)
            counts["mirrors"] += 1
        return run(self, choices, covers, *rest)

    def class_checked(r, cap):
        known = bool(r.verdict)
        cls = classed(r, cap)
        if known:
            fresh = Decoration(r.g, r.vt, r.et, r.corners)
            assert cls == min(connectivity_class_of(fresh), k)
            counts["shared"] += r.disk.comp.pre is not None
        return cls

    monkeypatch.setattr(_Completer, "run", run_checked)
    monkeypatch.setattr(complete_module, "connectivity_class", class_checked)
    run_pipeline(1, rmax, k)
    return counts["mirrors"], counts["shared"]


def test_mirror_takes_reflected_covers_and_verdicts(monkeypatch):
    assert _check_mirror_sharing(monkeypatch, 14) == (84, 400)


def test_mirror_shares_full_verdicts_at_k3(monkeypatch):
    # at k=3 the verdicts are not capped below 3, so each shared one is
    # compared with the full class
    assert _check_mirror_sharing(monkeypatch, 14, 3) == (84, 400)


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for rates 15-17")
def test_mirror_takes_reflected_covers_and_verdicts_stretch(monkeypatch):
    assert _check_mirror_sharing(monkeypatch, 17) == (284, 2181)


# -- completion records: counted without building ------------------------------

def _plain(facts):
    """The class-1 facts with each type-1 edge named by its ends, not by
    its id (a record numbers the skeleton's edges, a map its own)."""
    return (facts.walk, tuple(e is not None for e in facts.steps),
            tuple((a, y, e in facts.outer) for e, a, y in facts.edges),
            facts.corners, facts.v1_type1)


def _check_records_against_builds(monkeypatch, rmax):
    """Every record up to rmax, first and twin, against the decoration it
    builds: the same rate, the same corner pairs in the same order (the
    disk's pairs are its records' corners), the same class-1 facts and
    the same class-1 rules' answers.  Returns the number of records."""
    checked = [0]
    records = _Completer.records

    def checked_records(self, choice, cover):
        firsts = records(self, choice, cover)
        assert firsts, "a screened cover has a corner pair"
        for r in firsts + [r.twin() for r in firsts]:
            d = r.decoration
            assert r.rate == d.rate()
            assert r.disk.pairs == corner_pairs(d.g, d.vt, r.disk.v1)
            assert _plain(r.facts) == _plain(d.facts)
            assert _corner_axis_branch(r) == _corner_axis_branch(d)
            assert _face_twice(r) == _face_twice(d)
            checked[0] += 1
        return firsts

    monkeypatch.setattr(_Completer, "records", checked_records)
    run_pipeline(1, rmax, 1)
    return checked[0]


def test_records_match_their_builds(monkeypatch):
    assert _check_records_against_builds(monkeypatch, 14) == sum(K1_PINS)


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for rates 15-17")
def test_records_match_their_builds_stretch(monkeypatch):
    assert _check_records_against_builds(monkeypatch, 17) == 14176


@pytest.mark.parametrize("k, column", [(1, K1_PINS), (2, K2_GIVEN)])
def test_count_builds_nothing(monkeypatch, k, column):
    # modelled on test_class_capped_at_2_builds_no_gluing
    def no_build(*args):
        raise AssertionError("the count built a map")

    monkeypatch.setattr(complete_module, "freeze", no_build)
    res = run_pipeline(1, 14, k)
    assert [res.decorations[r] for r in range(1, 15)] == column


def _check_count_equals_emitting_path(rmax, k):
    counted = run_pipeline(1, rmax, k)
    seen = dict.fromkeys(range(1, rmax + 1), 0)
    emitted = run_pipeline(1, rmax, k, on_decoration=lambda d:
                           seen.__setitem__(d.rate(), seen[d.rate()] + 1))
    for r in range(1, rmax + 1):
        assert counted.decorations[r] == seen[r] == emitted.decorations[r]
        assert counted.predecorations[r] == emitted.predecorations[r]
    assert counted.completion == emitted.completion


@pytest.mark.parametrize("k", (1, 2, 3))
def test_count_equals_emitting_path(k):
    _check_count_equals_emitting_path(13, k)


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for rates 14-17")
def test_count_equals_emitting_path_stretch():
    _check_count_equals_emitting_path(17, 2)
