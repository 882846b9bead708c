"""End-to-end driver: generate skeletons, complete them, aggregate counts.

Completion jobs for distinct predecorations are independent; they can be
dispatched to a thread pool and merged in generation order, so results
are identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from .complete import complete, is_chiral
from .decorations import Decoration
from .generate import GenerationTask, generate
from .predecorations import Predecoration


@dataclass
class PipelineResult:
    task: GenerationTask
    decorations: dict[int, int] = field(default_factory=dict)
    predecorations: dict[int, int] = field(default_factory=dict)
    visited: int = 0

    def decoration_total(self) -> int:
        return sum(self.decorations.values())


def run_pipeline(rate_min: int, rate_max: int, k: int = 1,
                 on_decoration: Optional[Callable[[Decoration], None]] = None,
                 threads: int = 1) -> PipelineResult:
    """Counts (and optionally streams) all k-connected decorations with
    inflation rate in [rate_min, rate_max].

    The per-rate predecoration counts treat chiral skeletons as two
    (mirror) predecorations, matching the published counting.
    """
    task = GenerationTask(rate_min, rate_max, k)
    result = PipelineResult(task)
    for r in range(rate_min, rate_max + 1):
        result.decorations[r] = 0
        result.predecorations[r] = 0

    candidates: list[Predecoration] = []
    stats = generate(task, visitor=candidates.append)
    result.visited = stats.visited

    def job(p: Predecoration) -> tuple[dict[int, int], list[Decoration], int]:
        counts: dict[int, int] = {}
        emitted: list[Decoration] = []

        def visit(d: Decoration) -> None:
            counts[d.rate()] = counts.get(d.rate(), 0) + 1
            if on_decoration:
                emitted.append(d)

        complete(p, k, rate_min, rate_max, visit)
        return counts, emitted, 2 if is_chiral(p) else 1

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(job, candidates))
    else:
        outputs = [job(p) for p in candidates]

    for counts, emitted, weight in outputs:
        for r, n in counts.items():
            result.decorations[r] += n
            result.predecorations[r] += weight
        if on_decoration:
            for d in emitted:
                on_decoration(d)
    return result
