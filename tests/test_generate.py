import pytest

from lspgen.extensions import scan_reductions
from lspgen.generate import (GenerationTask, base_c4, base_k2,
                             canonical_parent, generate)
from lspgen.maps import build_from_rotations, canonical_code
from lspgen.predecorations import Predecoration, validate_predecoration


def _pre(rot):
    g = build_from_rotations(rot)
    face = max(range(len(g.faces)), key=lambda f: len(g.faces[f]))
    return Predecoration(g.with_outer(face))


def applicable_reductions(g):
    """All (reduction number, site) pairs; errors on the base graphs."""
    sites = scan_reductions(g)
    if not sites:
        raise ValueError("base predecoration has no reduction")
    return [(num, site) for num in sorted(sites)
            for site, _ in sites[num]]


def test_bases_have_no_reduction():
    assert scan_reductions(base_k2().g) == {}
    assert scan_reductions(base_c4().g) == {}
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
    from lspgen.extensions import extension_sites
    from lspgen.predecorations import rate_bounds_of
    seen = []
    generate(GenerationTask(1, 8, 1), visitor=seen.append)
    for p in seen[:8]:
        for _, _, apply_ext in extension_sites(p.g, p.walk):
            result = apply_ext()
            if result is None:
                continue
            child, _ = result
            if validate_predecoration(child):
                continue
            assert rate_bounds_of(child)[0] >= p.lo


def test_extension_steps_are_exact():
    # the step extension_sites reports is the exact change of the lower
    # rate bound for every valid child, so generate may screen on it
    from lspgen.extensions import extension_sites
    from lspgen.predecorations import rate_bounds_of
    seen = []
    generate(GenerationTask(1, 14, 1), visitor=seen.append)
    checked = set()
    for p in seen:
        for num, step, apply_ext in extension_sites(p.g, p.walk):
            result = apply_ext()
            if result is None or validate_predecoration(result[0]):
                continue
            assert rate_bounds_of(result[0])[0] == p.lo + step, num
            checked.add(num)
    assert checked == set(range(1, 11))


def test_funnel_counters():
    stats = generate(GenerationTask(1, 14, 1))
    assert stats.visited == 165
    assert stats.built <= 3000       # 16,598 before the rate screen
    assert stats.screened > 0
    # every built child ends in exactly one funnel stage; the two bases
    # are visited without being built
    assert stats.built == (stats.invalid + stats.rejected
                           + stats.duplicates + stats.visited - 2)
