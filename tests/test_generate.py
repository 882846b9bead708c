import hashlib
import os
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from chamber_reference import automorphisms_flagged
import lspgen.generate as genmod
from lspgen.extensions import (REDUCTIONS, extension_sites, kept_reduction,
                               scan_reductions, site_count, site_image)
from lspgen.generate import (GenerationStats, GenerationTask, _site_keys,
                             base_c4, base_k2, canonical_parent, generate,
                             is_canonical_child)
from lspgen.maps import (build_from_rotations, canonical_code, canonical_data,
                         read_planar_code)
from lspgen.predecorations import (Predecoration, outer_walk,
                                   validate_predecoration)

DIGESTS = dict(
    reversed(line.split())
    for line in (Path(__file__).parent / "data" / "golden.sha256")
    .read_text().splitlines())


@lru_cache(maxsize=None)
def _skeletons(rmax):
    """The skeletons generate visits up to rmax (k=1), in visit order,
    and its stats: built once per rate and shared by the tests here."""
    seen = []
    stats = generate(GenerationTask(1, rmax, 1), visitor=seen.append)
    return tuple(seen), stats


def _pre(rot):
    g = build_from_rotations(rot)
    face = max(range(len(g.faces)), key=lambda f: len(g.faces[f]))
    return Predecoration(g.with_outer(face))


def all_reductions(g):
    """Every reduction number of g with its sites, from every finder."""
    found = {num: find(g, g.deg) for num, find in enumerate(REDUCTIONS, 1)}
    return {num: sites for num, sites in found.items() if sites}


def applicable_reductions(g):
    """All (reduction number, site) pairs; errors on the base graphs."""
    sites = all_reductions(g)
    if not sites:
        raise ValueError("base predecoration has no reduction")
    return [(num, site) for num in sorted(sites)
            for site in sites[num]]


def test_bases_have_no_reduction():
    assert scan_reductions(base_k2().g) is None
    assert scan_reductions(base_c4().g) is None
    with pytest.raises(ValueError):
        applicable_reductions(base_k2().g)


def test_canonical_parent_of_path2_is_k2():
    p = _pre({1: [2], 2: [1, 3], 3: [2]})
    parent, num, _ = canonical_parent(p)
    assert num == 2
    assert canonical_code(parent.g, "full") == canonical_code(base_k2().g, "full")


def test_canonical_parent_of_path3_uses_reduction_1():
    p = _pre({1: [2], 2: [1, 3], 3: [2, 4], 4: [3]})
    parent, num, _ = canonical_parent(p)
    assert num == 1
    assert canonical_code(parent.g, "full") \
        == canonical_code(_pre({1: [2], 2: [1, 3], 3: [2]}).g, "full")


def test_canonical_parent_of_pendant_quad_uses_reduction_2():
    p = _pre({1: [2, 5, 4], 2: [1, 3], 3: [2, 4], 4: [1, 3], 5: [1]})
    parent, num, _ = canonical_parent(p)
    assert num == 2
    assert canonical_code(parent.g, "full") == canonical_code(base_c4().g, "full")


def test_canonical_parent_is_relabeling_invariant():
    import random
    rng = random.Random(2)
    p = _pre({1: [2, 5, 4], 2: [1, 3], 3: [2, 4], 4: [1, 3], 5: [1]})
    _, num0, key0 = canonical_parent(p)
    for _ in range(10):
        perm = list(range(p.g.n))
        rng.shuffle(perm)
        g2 = p.g.relabeled(perm)
        _, num, key = canonical_parent(Predecoration(g2))
        assert (num, key) == (num0, key0)


def test_visited_counts_small_windows():
    seen = []
    generate(GenerationTask(1, 4, 1), visitor=seen.append)
    assert len(seen) == 5      # K2, 2-path, 3-path, star, C4
    seen8 = []
    generate(GenerationTask(1, 8, 1), visitor=seen8.append)
    assert len(seen8) == 16


def test_soundness_and_isomorph_freeness():
    seen = []
    generate(GenerationTask(1, 10, 1), visitor=seen.append)
    codes = [canonical_code(p.g, "full") for p in seen]
    assert len(set(codes)) == len(codes)
    for p in seen:
        assert validate_predecoration(p.g) == []


def test_parent_child_consistency():
    seen = []
    generate(GenerationTask(1, 8, 1), visitor=seen.append)
    bases = {canonical_code(base_k2().g, "full"),
             canonical_code(base_c4().g, "full")}
    roots = 0
    for p in seen:
        if canonical_code(p.g, "full") in bases:
            roots += 1
            continue
        parent, num, _ = canonical_parent(p)
        assert validate_predecoration(parent.g) == []
        assert parent.g.n <= p.g.n
    assert roots == 2


def test_rate_bound_pruning_consistency():
    # a narrow window visits exactly the in-window subset of a wide one
    narrow, wide = [], []
    generate(GenerationTask(1, 6, 1), visitor=narrow.append)
    generate(GenerationTask(1, 12, 1), visitor=wide.append)
    inwin = {canonical_code(p.g, "full") for p in wide if p.lo <= 6}
    assert {canonical_code(p.g, "full") for p in narrow} == inwin


def test_lower_bound_monotone_under_extensions():
    from lspgen.predecorations import rate_bounds_of
    seen = []
    generate(GenerationTask(1, 8, 1), visitor=seen.append)
    for p in seen[:8]:
        for _, _, apply_ext, args in extension_sites(p.g, p.walk):
            result = apply_ext(p.g, p.walk, *args)
            if result is None:
                continue
            child, _ = result
            if validate_predecoration(child):
                continue
            assert rate_bounds_of(child)[0] >= p.lo


def test_extension_steps_are_exact():
    # the step extension_sites reports is the exact change of the lower
    # rate bound for every valid child, so generate may screen on it
    from lspgen.predecorations import rate_bounds_of
    checked = set()
    for p in _skeletons(14)[0]:
        for num, step, apply_ext, args in extension_sites(p.g, p.walk):
            result = apply_ext(p.g, p.walk, *args)
            if result is None or validate_predecoration(result[0]):
                continue
            assert rate_bounds_of(result[0])[0] == p.lo + step, num
            checked.add(num)
    assert checked == set(range(1, 11))


def _funnel(stats):
    return (stats.visited, stats.screened, stats.pruned, stats.refused,
            stats.equivalent, stats.built, stats.invalid, stats.rejected)


def _sites_and_stages(seen, stats):
    """The number of extension sites of the visited skeletons, and the
    sum of the five site stages (screened, pruned, refused, equivalent,
    built): equal when every site ends in exactly one of them."""
    assert len(seen) == stats.visited
    return (sum(site_count(p.g, p.walk) for p in seen),
            stats.screened + stats.pruned + stats.refused
            + stats.equivalent + stats.built)


def test_funnel_counters():
    # 16,598 built before the rate screen; 2,498 before the parent-side
    # prune, 1,059 when it asked a parent's reduction 1 or 2 site to keep
    # both ends off the rewired positions; 576 before the equivalent
    # sites were skipped; at k=1 a site is refused only when its applier
    # builds nothing
    seen, stats = _skeletons(14)
    assert _funnel(stats) == (165, 14800, 2211, 26, 219, 376, 24, 189)
    # every built child ends in exactly one funnel stage; the two bases
    # are visited without being built
    assert stats.built == stats.invalid + stats.rejected + stats.visited - 2
    assert _sites_and_stages(seen, stats) == (17632, 17632)


def _refused_and_equivalent(rmax, k):
    seen = []
    stats = generate(GenerationTask(1, rmax, k), visitor=seen.append)
    sites, stages = _sites_and_stages(seen, stats)
    assert sites == stages
    return sites, stats.refused, stats.equivalent


@pytest.mark.parametrize("k", [2, 3])
def test_every_site_ends_in_one_stage_at_k(k):
    # extension 10 is refused at k >= 2, so a refused site's images are
    # refused, not equivalent, and `equivalent` falls with k
    assert _refused_and_equivalent(14, k) == {2: (17632, 32, 213),
                                              3: (17632, 54, 206)}[k]


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for the rate-18 check")
@pytest.mark.parametrize("k", [2, 3])
def test_every_site_ends_in_one_stage_at_k_to_rate_18(k):
    assert _refused_and_equivalent(18, k) == {2: (163596, 124, 721),
                                              3: (163596, 152, 709)}[k]


def test_funnel_counters_to_rate_18():
    # the screened sites are never produced (140,908 of 163,596), but
    # counted exactly; 3,930 built before the equivalent sites were skipped
    seen = []
    stats = generate(GenerationTask(1, 18, 1), visitor=seen.append)
    assert _funnel(stats) == (1237, 140908, 18604, 118, 727, 3239, 376,
                              1628)
    assert _sites_and_stages(seen, stats) == (163596, 163596)


def test_bulk_screen_produces_exactly_the_sites_within_the_limit():
    for p in _skeletons(14)[0]:
        every = list(extension_sites(p.g, p.walk))
        assert len(every) == site_count(p.g, p.walk)
        for limit in range(-1, 11):
            assert list(extension_sites(p.g, p.walk, limit)) == \
                [site for site in every if site[1] <= limit]


def test_one_site_children_skip_the_site_keys(monkeypatch):
    # a child whose applied reduction number has one site, the applied
    # one, is accepted without its site keys: 55 of the 285 children to
    # rate 14 that reach that stage; a skeleton's moves are read in
    # lspgen.predecorations, so they call nothing counted here
    expected = _funnel(_skeletons(14)[1])   # generated before counting
    counts = Counter()

    def counted(name):
        original = getattr(genmod, name)

        def call(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(genmod, name, call)

    counted("canonical_data")
    counted("_site_keys")
    assert _funnel(generate(GenerationTask(1, 14, 1))) == expected
    assert counts == {"canonical_data": 285, "_site_keys": 230}


def _pruned_sites(rmax):
    """Builds every extension site up to rmax that passes the rate screen
    and checks that generate's parent-side prune is exact: a pruned
    site's child has a reduction number smaller than the extension's, so
    the canonical-child test would reject it, and no other child has a
    reduction 1 or 2 below the extension's.  Returns the pruned sites per
    extension number."""
    seen, stats = _skeletons(rmax)
    pruned = Counter()
    for p in seen:
        kept = kept_reduction(p.g, p.walk)
        for num, step, apply_ext, args in extension_sites(p.g, p.walk):
            if p.lo + step > rmax:
                continue
            cut = kept(num, args[0])
            if cut:
                pruned[num] += 1
            result = apply_ext(p.g, p.walk, *args)
            if result is None:
                continue
            least = scan_reductions(result[0])[0]
            if cut:
                assert least < num, (num, args)
            else:
                assert least >= min(num, 3), (num, args)
    assert sum(pruned.values()) == stats.pruned
    return dict(pruned)


def test_parent_side_prune_is_sound():
    # exact for reductions 1 and 2; the K2 base prunes 2 sites each of
    # extensions 5 and 6 and 4 of 7 (both handednesses)
    assert _pruned_sites(14) == {2: 490, 3: 37, 4: 74, 5: 102, 6: 18, 7: 36,
                                 8: 226, 9: 433, 10: 795}


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for the rate-18 check")
def test_parent_side_prune_is_sound_to_rate_18():
    assert _pruned_sites(18) == {2: 4315, 3: 225, 4: 450, 5: 646, 6: 102,
                                 7: 204, 8: 1798, 9: 3653, 10: 7211}


def _reference_decision(child, ext_num, inv_site):
    """The canonical-child test with every stage run: all reductions,
    then the validator, then the site keys."""
    sites = all_reductions(child)
    problems = validate_predecoration(child)
    if problems or not sites or min(sites) != ext_num:
        return None
    code, labelings = canonical_data(child, "full")
    keys = _site_keys(child, [inv_site] + sites[ext_num], labelings)
    return code if keys[0] == min(keys[1:]) else None


def test_staged_canonical_child_test_equals_full_reference():
    # every child generate builds up to rate 14, through the staged test
    # (which stops the scan at the first number with a site) and through
    # a reference that runs every stage
    children = accepted = 0
    for p in _skeletons(14)[0]:
        for num, step, apply_ext, args in extension_sites(p.g, p.walk):
            result = (apply_ext(p.g, p.walk, *args) if p.lo + step <= 14
                      else None)
            if result is None:
                continue
            child, inv_site = result
            children += 1
            # the reduction scan runs before validation, which is safe
            # because every inner face of a built child is a quadrangle
            assert all(len(f) == 4 for i, f in enumerate(child.faces)
                       if i != child.outer)
            staged = is_canonical_child(child, num, inv_site,
                                        GenerationStats())
            assert staged == _reference_decision(child, num, inv_site)
            accepted += staged is not None
            if validate_predecoration(child):
                continue
            sites = all_reductions(child)
            ref_num = min(sites)
            _, labelings = canonical_data(child, "full")
            ref_key = min(_site_keys(child, sites[ref_num], labelings))
            _, got_num, got_key = canonical_parent(Predecoration(child))
            assert (got_num, got_key) == (ref_num, ref_key)
    assert children == 2498
    # visited less bases, plus 89 accepted at sites that an automorphism
    # of the parent maps onto an earlier site (generate skips those)
    assert accepted == 165 - 2 + 89


def _inversions(rmax):
    """For every child that passes the canonical-child test up to rmax,
    checks that the canonical parent undoes the applied extension: same
    number, and a parent isomorphic to the extended skeleton.  Sites
    that generate prunes are skipped, since their children are rejected
    (see `_pruned_sites`).  Returns the number of children per
    extension number."""
    checked = Counter()
    for p in _skeletons(rmax)[0]:
        kept = kept_reduction(p.g, p.walk)
        code = canonical_code(p.g, "full")
        for num, step, apply_ext, args in extension_sites(p.g, p.walk):
            if p.lo + step > rmax or kept(num, args[0]):
                continue
            result = apply_ext(p.g, p.walk, *args)
            if result is None:
                continue
            child, inv_site = result
            if is_canonical_child(child, num, inv_site,
                                  GenerationStats()) is None:
                continue
            parent, got, _ = canonical_parent(Predecoration(child))
            assert got == num, (num, args)
            assert canonical_code(parent.g, "full") == code, (num, args)
            checked[num] += 1
    return checked


def test_reductions_invert_their_extensions():
    checked = _inversions(18)
    assert sorted(checked) == list(range(1, 10))
    assert sum(checked.values()) == 1543


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for the rate-22 check")
def test_reductions_invert_their_extensions_to_rate_22():
    checked = _inversions(22)
    assert sorted(checked) == list(range(1, 11))
    assert sum(checked.values()) == 11940


def _visit_digest(seen):
    """Each visited graph as generated, in visit order."""
    h = hashlib.sha256()
    for p in seen:
        h.update((repr((p.g.org, p.g.nxt, p.g.outer)) + "\n").encode())
    return h.hexdigest()


def test_visit_sequence_matches_digest():
    # recorded before the canonical-child test was staged
    assert _visit_digest(_skeletons(14)[0]) == DIGESTS["visits_r14"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_visit_sequence_to_rate_18_matches_digest(k):
    # recorded while generate still built every site and kept one child
    # per isomorphism class of each (parent, extension) batch; the
    # extension 10 refusal at k >= 2 cuts no visited skeleton here
    seen = []
    if k == 1:
        seen = _skeletons(18)[0]
    else:
        generate(GenerationTask(1, 18, k), visitor=seen.append)
    assert _visit_digest(seen) == DIGESTS["visits_r18"]


def _distinct_skeletons(rmax):
    seen = _skeletons(rmax)[0]
    return len(seen), len({canonical_code(p.g, "full") for p in seen})


def test_visited_skeletons_are_pairwise_non_isomorphic():
    # no per-batch code set backs this up: two children of one parent
    # are isomorphic only when their sites are equivalent
    assert _distinct_skeletons(18) == (1237, 1237)


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for the rate-22 check")
def test_visited_skeletons_are_pairwise_non_isomorphic_to_rate_22():
    assert _distinct_skeletons(22) == (10921, 10921)


def _moves_of_automorphisms(p):
    """(r, reflect) of each non-identity automorphism of the reference
    `automorphisms_flagged`, checked against its dart permutation on every
    outer walk position: walk[k] goes to walk[k + r], or to
    walk[r - k] ^ 1 when it reverses orientation."""
    walk, m = p.walk, len(p.walk)
    pos = {d: k for k, d in enumerate(walk)}
    moves = []
    for perm, reflect in automorphisms_flagged(p.g, "full"):
        if reflect:
            r = pos[perm[walk[0]] ^ 1]
            assert all(perm[walk[k]] == walk[(r - k) % m] ^ 1
                       for k in range(m))
        else:
            r = pos[perm[walk[0]]]
            assert all(perm[walk[k]] == walk[(k + r) % m] for k in range(m))
        if reflect or r:
            moves.append((r, reflect))
    return moves


def _child_code(p, applier, args):
    result = applier(p.g, p.walk, *args)
    return result and canonical_code(result[0], "full")


def _site_images(rmax):
    """Checks, for every skeleton up to rmax, that `p.moves()`, read off
    the canonical hits, are the moves of its automorphisms' dart
    permutations, and that each move maps every site to a produced site
    whose child is isomorphic (or to one that builds nothing, as the site
    does).  Returns the number of (site, non-identity automorphism)
    pairs."""
    pairs = 0
    for p in _skeletons(rmax)[0]:
        moves = p.moves()
        assert sorted(moves) == sorted(_moves_of_automorphisms(p))
        if not moves:
            continue
        sites = {(applier, args): num
                 for num, _, applier, args in extension_sites(p.g, p.walk)}
        codes = {site: _child_code(p, *site) for site in sites}
        for (applier, args), num in sites.items():
            for move in moves:
                image = site_image(num, applier, args, len(p.walk), *move)
                assert sites.get(image) == num, (num, args, move)
                assert codes[image] == codes[applier, args], (num, args)
                pairs += 1
    return pairs


def test_site_images_follow_the_automorphisms():
    assert _site_images(14) == 11748


@pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                    reason="set LSPGEN_STRETCH=1 for the rate-18 check")
def test_site_images_follow_the_automorphisms_to_rate_18():
    assert _site_images(18) == 43840


def _site_counts(g):
    return {num: len(sites) for num, sites in all_reductions(g).items()}


def _mirror_pairs(rmax, moves):
    """(moves(g, True), moves(mirror image of g, False)) for every
    skeleton g up to rmax; the two agree when the moves commute with
    taking mirror images."""
    return [(moves(p.g, True), moves(p.g.mirrored(), False))
            for p in _skeletons(rmax)[0]]


def test_reductions_are_mirror_equivariant():
    # canonical codes count reflections as isomorphisms, so the canonical
    # reduction must map to a reduction of the same number on the mirror
    # image; reduction 7 once matched its strip in one handedness only
    pairs = _mirror_pairs(14, lambda g, _: _site_counts(g))
    for counts, mirror_counts in pairs:
        assert mirror_counts == counts
    assert sum(counts.get(7, 0) for counts, _ in pairs) > 0


def _children(g, flip):
    """(number, oriented code) of every child of every extension site of
    g, each child mirrored when flip is set."""
    walk = outer_walk(g)
    out = Counter()
    for num, _, apply_ext, args in extension_sites(g, walk):
        result = apply_ext(g, walk, *args)
        if result is not None:
            child = result[0].mirrored() if flip else result[0]
            out[num, canonical_code(child, "oriented")] += 1
    return out


def test_extensions_are_mirror_equivariant():
    # the mirror image of every child is a child of the mirror image, by
    # the same number; extension 7 builds its strip in both handednesses
    pairs = _mirror_pairs(10, _children)
    assert len(pairs) == 30
    for mirrored_children, children_of_mirror in pairs:
        assert children_of_mirror == mirrored_children


def test_mirror_pair_at_rate_18_has_one_canonical_parent():
    # this skeleton (rate bounds 18-28) was visited twice, once per mirror
    # image, when its image showed reductions {8, 9, 10} and its mirror
    # {7, 8, 9, 10}; saved with the outer face left of vertex 0's first dart
    data = (Path(__file__).parent / "data" / "mirror_pair_r18.pc").read_bytes()
    (g,) = read_planar_code(data)
    p = Predecoration(g.with_outer(g.face_of[g.darts_at(0)[0]]))
    q = Predecoration(p.g.mirrored())
    assert (p.lo, p.hi) == (18, 28)
    assert _site_counts(p.g) == _site_counts(q.g)
    parent_p, num_p, key_p = canonical_parent(p)
    parent_q, num_q, key_q = canonical_parent(q)
    assert (num_p, key_p) == (num_q, key_q) and num_p == 7
    assert canonical_code(parent_p.g, "full") \
        == canonical_code(parent_q.g, "full")
