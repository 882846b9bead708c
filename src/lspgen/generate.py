"""Isomorph-free generation of predecorations.

Children are produced by the ten boundary extensions and kept only when
the applied extension inverts the canonical reduction of the child: the
smallest applicable reduction number, applied at the site orbit whose
canonically relabeled dart tuple is minimal.  Together with one child per
isomorphism class per (parent, extension) batch this visits every
predecoration exactly once up to isomorphism.

Each extension site passes the checks cheapest first, and the first
that fails ends its way:
  1. screened: the child's lower rate bound would exceed the target
     (each extension moves the bound by an exact step, see `extensions`),
     so `extension_sites` never produces the site; the screened sites
     are counted as `site_count` minus the sites produced;
  2. pruned: the child would have a reduction 1 or 2 below the applied
     extension, decided exactly from the parent's outer bridges and
     pendant edges and the walk darts the extension covers (see
     `extensions`);
  3. rejected: the child's smallest reduction number is not the applied
     extension (`scan_reductions` stops at that number);
  4. invalid: the child is not a predecoration (`validate_predecoration`);
  5. rejected: the applied site is not the canonical one among the sites
     of that number (the only check that takes a canonical code; a site
     alone in its number is canonical without its site keys);
  6. duplicate: an isomorphic child came from the same extension of the
     same parent.
Completion is skipped (but extension continues) while the upper bound is
below the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .maps import PlaneGraph, build_from_rotations, canonical_data, dart_sequence
from .predecorations import Predecoration, validate_predecoration
from .extensions import (apply_reduction, extension_sites, kept_reduction,
                         scan_reductions, site_count)


def base_k2() -> Predecoration:
    return Predecoration(build_from_rotations({1: [2], 2: [1]}).with_outer(0))


def base_c4() -> Predecoration:
    g = build_from_rotations({1: [2, 4], 2: [3, 1], 3: [4, 2], 4: [1, 3]})
    # either face may serve as the outer one; they are equivalent
    return Predecoration(g.with_outer(0))


@dataclass
class GenerationTask:
    rate_min: int
    rate_max: int
    k: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.rate_min <= self.rate_max:
            raise ValueError("need 1 <= rate_min <= rate_max")
        if self.k not in (1, 2, 3):
            raise ValueError("k must be 1, 2 or 3")


@dataclass
class GenerationStats:
    """The funnel of the module docstring, in its order: screened and
    pruned sites are never built, and each built child ends in exactly
    one of the later stages or is visited, so
    built = rejected + invalid + duplicates + visited - 2 (the bases)."""
    visited: int = 0
    screened: int = 0
    pruned: int = 0
    built: int = 0
    invalid: int = 0
    rejected: int = 0
    duplicates: int = 0


def _site_keys(g: PlaneGraph, sites: list[tuple[int, ...]],
               labelings: list[tuple[int, bool]]
               ) -> list[tuple[int, ...]]:
    index_maps = []
    for d0, mirror in labelings:
        seq = dart_sequence(g, d0, mirror)
        idx = [0] * len(seq)
        for pos, d in enumerate(seq):
            idx[d] = pos
        index_maps.append(idx)
    return [min(tuple(sorted(idx[d] for d in site)) for idx in index_maps)
            for site in sites]


def is_canonical_child(child: PlaneGraph, ext_num: int,
                       inv_site: tuple[int, ...], stats: GenerationStats
                       ) -> Optional[tuple[int, ...]]:
    """Canonical-construction-path acceptance test, cheapest check first.

    Returns the child's canonical code when the child is a predecoration
    and the applied extension ext_num, at inv_site, inverts the child's
    canonical reduction; else None, counting the check that failed in
    stats.rejected or stats.invalid (stages 3-5 of the module docstring).
    """
    # Extensions add only quadrangles to a predecoration, so every inner
    # face of a built child is a quadrangle: the reduction scan is safe
    # before the child is validated.
    found = scan_reductions(child)
    if found is None or found[0] != ext_num:
        stats.rejected += 1
        return None
    if validate_predecoration(child):
        stats.invalid += 1
        return None
    code, labelings = canonical_data(child, "full")
    if found[1] == [inv_site]:      # the one site of its number
        return code
    sites = [inv_site] + found[1]
    keys = _site_keys(child, sites, labelings)
    if keys[0] != min(keys[1:]):
        stats.rejected += 1
        return None
    return code


def canonical_parent(p: Predecoration
                     ) -> tuple[Predecoration, int, tuple[int, ...]]:
    """The canonical parent, reduction number, and canonical site key."""
    found = scan_reductions(p.g)
    if found is None:
        raise ValueError("base predecoration has no parent")
    num, sites = found
    _, labelings = canonical_data(p.g, "full")
    keys = _site_keys(p.g, sites, labelings)
    best = min(range(len(keys)), key=keys.__getitem__)
    parent = apply_reduction(p.g, num, sites[best])
    return Predecoration(parent), num, keys[best]


def generate(task: GenerationTask,
             visitor: Optional[Callable[[Predecoration], None]] = None
             ) -> GenerationStats:
    """Visits every predecoration relevant to the task exactly once.

    The visitor sees each predecoration whose rate bounds overlap the
    window.  For k >= 2 extension 10 is refused on an outer face of size
    4, and for k = 3 also on one of size 6.
    """
    stats = GenerationStats()

    def explore(p: Predecoration) -> None:
        stats.visited += 1
        if p.hi >= task.rate_min and p.lo <= task.rate_max and visitor:
            visitor(p)
        walk = p.walk
        kept = kept_reduction(p.g, walk)
        batches: dict[int, set] = {}
        stats.screened += site_count(p.g, walk)
        for num, _, apply_ext, args in extension_sites(
                p.g, walk, task.rate_max - p.lo):
            stats.screened -= 1     # produced, so not screened
            if num == 10 and (len(walk), task.k) in (
                    (4, 2), (4, 3), (6, 3)):
                continue
            if kept(num, args[0]):
                stats.pruned += 1
                continue
            result = apply_ext(p.g, walk, *args)
            if result is None:
                continue
            stats.built += 1
            child_g, inv_site = result
            code = is_canonical_child(child_g, num, inv_site, stats)
            if code is None:
                continue
            seen = batches.setdefault(num, set())
            if code in seen:
                stats.duplicates += 1
                continue
            seen.add(code)
            explore(Predecoration(child_g))

    for base in (base_k2(), base_c4()):
        if base.lo <= task.rate_max:
            explore(base)
    return stats
