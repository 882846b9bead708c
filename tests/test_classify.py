"""The classifier's tetrahedron step against the routes it replaced.

The step decides class 1 by a rule on the decoration alone, and class 2
from the faces and edges around each type-0 vertex of chamber 0, read
off the orbit tables of the gluing.  The rule is checked against the
gluing-based face-twice test it replaced (``_face_twice_by_paste``).
The reference builds the whole chamber system, extracts the decorated
tetrahedron and computes its vertex connectivity; the step's witness
(a cut vertex, or a separating pair) must separate that graph.
"""

import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from chamber_reference import decorate_chambers, extract_original
from lspgen import classify
from lspgen.chambers import apply_decoration, glued_orbits
from lspgen.classify import (_face_twice, _tetrahedron, _tetrahedron_witness,
                             connectivity_class_of, tetrahedron_class)
from lspgen.catalog import lookup
from lspgen.decorations import (Decoration, connectivity_class, mirror,
                                read_deco, swap02)
from lspgen.maps import MapError, PlaneGraph, vertex_connectivity_capped
from lspgen.pipeline import run_pipeline

DATA = Path(__file__).parent / "data"


def _records(name):
    """The decorations of a file of records that each start at a "## id:
    description" line."""
    return [read_deco(block.partition("\n")[2])
            for block in (DATA / name).read_text().split("\n## ")[1:]]


def _incidences(cs):
    """The number of type-1 edges (vertex-face incidences) between each
    pair of glued classes of the chamber system cs."""
    g, classes = cs.g, cs.classes
    return Counter(frozenset(classes[v] for v in g.edge_ends(e))
                   for e in range(g.ne) if cs.edge_type[e] == 1)


def _reference(d):
    """The reference application of d to the tetrahedron, the result
    vertex of each glued type-0 class, and the type-1 incidences."""
    cs = decorate_chambers(_tetrahedron(), d)
    # extract_original numbers the type-0 vertices in order
    t0 = [v for v in range(cs.g.n) if cs.vertex_type[v] == 0]
    return (extract_original(cs), {cs.classes[v]: i for i, v in enumerate(t0)},
            _incidences(cs))


@pytest.fixture(scope="module")
def applied_to_rate_12():
    out = []
    run_pipeline(1, 12, 1, on_decoration=lambda d: out.append(
        (d, *_reference(d))))
    assert len(out) == 1078
    return out


def test_tetrahedron_step_matches_apply_decoration(applied_to_rate_12):
    verdicts = Counter()
    for d, applied, _, _ in applied_to_rate_12:
        reference = min(3, vertex_connectivity_capped(applied, 3))
        verdict = tetrahedron_class(d)
        assert verdict == reference, d
        verdicts[verdict] += 1
    assert verdicts[2] and verdicts[3]


def _separates(g: PlaneGraph, removed: set[int]) -> bool:
    """Whether g minus the removed vertices is disconnected."""
    rest = [v for v in range(g.n) if v not in removed]
    seen, stack = {rest[0]}, [rest[0]]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return len(seen) < len(rest)


def _check_witness(d, applied, vertex, incidences):
    verdict, witness = _tetrahedron_witness(d)
    if verdict == 1:
        a, f = witness
        assert incidences[frozenset((a, f))] >= 2, d
        assert _separates(applied, {vertex[a]}), d
    elif verdict == 2:
        a, b, f1, f2 = witness
        assert a != b and f1 != f2, d
        assert all(incidences[frozenset((v, f))]
                   for v in (a, b) for f in (f1, f2)), d
        assert _separates(applied, {vertex[a], vertex[b]}), d
    else:
        assert witness == (), d
    return verdict


def test_tetrahedron_witness_separates(applied_to_rate_12):
    # every decoration up to rate 12, and the class-boundary records,
    # whose class-1 cases come from rate 13 on
    verdicts = Counter()
    for d, *reference in applied_to_rate_12:
        verdicts[_check_witness(d, *reference)] += 1
    assert verdicts[2] and verdicts[3]
    for d in _records("class_boundary.deco"):
        verdicts[_check_witness(d, *_reference(d))] += 1
    assert verdicts[1]


def test_loop_is_class_1():
    # no application to the tetrahedron exists, but the loop's vertex
    # occurs twice on the face beside the loop
    [d] = _records("loop_r15.deco")
    for t in (d, mirror(d)):
        with pytest.raises(MapError):
            apply_decoration(_tetrahedron(), t)
        assert connectivity_class(t) == 1
        verdict, (a, f) = _tetrahedron_witness(t)
        cs = decorate_chambers(_tetrahedron(), t)
        assert verdict == 1 and _incidences(cs)[frozenset((a, f))] >= 2
        # the dual operation applies, to a graph with a bridge
        assert _check_witness(swap02(t), *_reference(swap02(t))) == 1


# -- the face-twice rule against the paste ----------------------------------

def _face_twice_by_paste(d):
    """The pairs (a, f) of a type-0 vertex a of chamber 0 and a glued face
    f that a occurs on twice, read off the orbit tables as the classifier
    did before the rule: the far end of each glued type-1 edge at a, with
    a side edge counted in the lower of its two chambers."""
    nbrs, side_of_edge, orbits = glued_orbits(_tetrahedron(), d)
    g, n = d.g, d.g.n
    faces = Counter()
    for x in range(2 * g.ne):
        a, y, k = g.org[x], g.org[x ^ 1], side_of_edge.get(x >> 1)
        if d.et[x >> 1] == 1 and d.vt[a] == 0:
            faces.update((a, orbits[y][0][c] * n + y)
                         for c in orbits[a][1][0]
                         if k is None or c < nbrs[c][k])
    return {af for af, times in faces.items() if times > 1}


def _check_rule_against_paste(rmax):
    """The rule finds a vertex twice on a face exactly when the paste does,
    on every decoration up to rmax, and its witness is one the paste
    finds; returns how many decorations it puts in class 1."""
    found = []

    def check(d):
        witness, twice = _face_twice(d), _face_twice_by_paste(d)
        assert (witness is not None) == bool(twice), d
        if witness is not None:
            assert witness in twice, d
            found.append(witness)

    run_pipeline(1, rmax, 1, on_decoration=check)
    return len(found)


def test_face_twice_rule_matches_paste():
    # none of the 20 decorations of the calibration is among the 10
    assert _check_rule_against_paste(14) == 10


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for rates 15-20")
def test_face_twice_rule_matches_paste_to_rate_20():
    assert _check_rule_against_paste(20) == 2662


def test_face_twice_rule_matches_chamber_reference():
    # the class-boundary records and the loop, with their mirror and dual
    # images, against the incidences of the independent chamber system
    records = _records("class_boundary.deco") + _records("loop_r15.deco")
    found = 0
    for d in records:
        for t in (d, mirror(d), swap02(d)):
            witness = _face_twice(t)
            twice = {pair for pair, times in _incidences(
                decorate_chambers(_tetrahedron(), t)).items() if times > 1}
            assert (witness is not None) == bool(twice), t
            if witness is not None:
                assert frozenset(witness) in twice, t
                found += 1
    assert found == 12


def test_class_capped_at_2_builds_no_gluing(monkeypatch):
    # cell-less copies: each classification is computed, none shared
    decorations = []
    run_pipeline(1, 14, 1, on_decoration=lambda d: decorations.append(
        Decoration(d.g, d.vt, d.et, d.corners)))

    def no_gluing(*args):
        raise AssertionError("cap 2 built the gluing")

    monkeypatch.setattr(classify, "glued_orbits", no_gluing)
    capped = [connectivity_class_of(d, 2) for d in decorations]
    monkeypatch.undo()
    full = [connectivity_class_of(d) for d in decorations]
    assert capped == [min(c, 2) for c in full]
    assert set(capped) == {1, 2}


# -- verdicts shared through the completer's cells ---------------------------

def _check_shared_verdicts(monkeypatch, rmax):
    """Classifies every decoration up to rmax at k=1 as it is emitted, as
    a sink that wants every class does.  The class read through its
    verdict cell, at cap 3 and then at cap 2, must equal a fresh
    classification of a cell-less copy; returns the numbers of
    decorations and of classifier evaluations (one `_corner_axis_branch`
    call each), which the cap-2 reads must not add to."""
    evaluations = [0]
    real = classify._corner_axis_branch

    def counted(d):
        evaluations[0] += 1
        return real(d)

    monkeypatch.setattr(classify, "_corner_axis_branch", counted)
    emitted = []
    run_pipeline(1, rmax, 1, on_decoration=lambda d: emitted.append(
        (d, connectivity_class_of(d))))
    capped = [connectivity_class_of(d, 2) for d, _ in emitted]
    monkeypatch.undo()
    for (d, cls), cls2 in zip(emitted, capped):
        fresh = Decoration(d.g, d.vt, d.et, d.corners)
        assert cls == connectivity_class_of(fresh), d
        assert cls2 == connectivity_class_of(fresh, 2) == min(cls, 2), d
    return len(emitted), evaluations[0]


def test_shared_verdicts_match_fresh_classification(monkeypatch):
    assert _check_shared_verdicts(monkeypatch, 14) == (3160, 1180)


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for rates 15-17")
def test_shared_verdicts_match_fresh_classification_stretch(monkeypatch):
    assert _check_shared_verdicts(monkeypatch, 17) == (14176, 4907)


def test_capped_verdict_never_answers_a_higher_cap():
    d = replace(lookup("ambo"), verdict=[])     # class 3
    assert connectivity_class_of(d, 2) == 2 and d.verdict == [2, 2]
    assert connectivity_class_of(d, 1) == 1 and d.verdict == [2, 2]
    assert connectivity_class_of(d) == 3 and d.verdict == [3, 3]
    assert connectivity_class_of(d, 2) == 2 and d.verdict == [3, 3]
    # a class below the cap it was computed at is exact and answers every
    # cap; a planted verdict shows that it is read, not recomputed
    [loop] = _records("loop_r15.deco")
    t = replace(loop, verdict=[])
    assert connectivity_class_of(t, 2) == 1 and t.verdict == [1, 2]
    assert connectivity_class_of(t) == 1 and t.verdict == [1, 2]
    assert connectivity_class_of(replace(d, verdict=[2, 3])) == 2
