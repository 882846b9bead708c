"""End-to-end driver: generate skeletons, complete them, aggregate counts.

Each skeleton is completed as soon as the generator visits it, so
decorations are counted and streamed in generation order and nothing is
kept between skeletons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .complete import CompletionStats, complete, is_chiral
from .decorations import Decoration
from .generate import GenerationStats, GenerationTask, generate
from .predecorations import Predecoration


@dataclass
class PipelineResult:
    task: GenerationTask
    decorations: dict[int, int] = field(default_factory=dict)
    predecorations: dict[int, int] = field(default_factory=dict)
    stats: GenerationStats = field(default_factory=GenerationStats)
    completion: CompletionStats = field(default_factory=CompletionStats)


def run_pipeline(rate_min: int, rate_max: int, k: int = 1,
                 on_decoration: Optional[Callable[[Decoration], None]] = None,
                 on_skeleton: Optional[Callable[[Predecoration], None]] = None
                 ) -> PipelineResult:
    """Counts (and optionally streams) all k-connected decorations with
    inflation rate in [rate_min, rate_max].

    The per-rate predecoration counts treat chiral skeletons as two
    (mirror) predecorations, matching the published counting, and
    `on_skeleton` sees each of them, after its decorations, if it has
    any in the window.
    """
    task = GenerationTask(rate_min, rate_max, k)
    result = PipelineResult(task)
    for r in range(rate_min, rate_max + 1):
        result.decorations[r] = 0
        result.predecorations[r] = 0

    def visit(p: Predecoration) -> None:
        tally: dict[int, int] = {}
        complete(p, k, rate_min, rate_max, on_decoration, result.completion,
                 tally)
        chiral = is_chiral(p)
        for r, n in tally.items():
            result.decorations[r] += n
            result.predecorations[r] += 2 if chiral else 1
        if tally and on_skeleton is not None:
            on_skeleton(p)
            if chiral:
                on_skeleton(Predecoration(p.g.mirrored()))

    result.stats = generate(task, visitor=visit)
    return result
