"""Isomorph-free generation and application of local symmetry-preserving
operations on embedded graphs."""

from .maps import (PlaneGraph, build_from_rotations, canonical_code,
                   read_planar_code, write_planar_code)
from .chambers import apply_decoration
from .decorations import (Decoration, connectivity_class, decoration_identity,
                          mirror, read_deco, swap02, validate, write_deco)
from .predecorations import Predecoration, counters, validate_predecoration
from .generate import GenerationTask
from .catalog import lookup, seed
from .oracle import bruteforce_decorations, cross_check
from .pipeline import run_pipeline

__all__ = [
    "PlaneGraph", "build_from_rotations", "canonical_code",
    "read_planar_code", "write_planar_code",
    "apply_decoration",
    "Decoration", "connectivity_class", "decoration_identity",
    "mirror", "read_deco", "swap02", "validate", "write_deco",
    "Predecoration", "counters", "validate_predecoration",
    "GenerationTask",
    "lookup", "seed", "bruteforce_decorations", "cross_check",
    "run_pipeline",
]
