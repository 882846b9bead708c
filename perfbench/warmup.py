"""Loads lspgen from the checkout's ``src`` and warms its lazy state.

Run as a script, it does the set-up once and prints ``ready`` and the CPU
seconds the process has used so far, which the benchmark reports as
``setup_s``; it also times such child processes from spawn to that line.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"

# the submodules the benchmark drives; ``lspgen.generate`` and
# ``lspgen.complete`` must be reached through sys.modules, because the
# package attributes of those names are the re-exported functions
MODULES = ("maps", "chambers", "decorations", "predecorations", "classify",
           "generate", "complete", "pipeline", "catalog", "cli")


class PackageMissing(RuntimeError):
    pass


def load_package() -> SimpleNamespace:
    """Imports lspgen from SRC (never from an installed copy) and returns
    its submodules by short name."""
    sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("lspgen")
        for name in MODULES:
            importlib.import_module(f"lspgen.{name}")
    except ImportError as exc:
        raise PackageMissing(f"cannot import lspgen from {SRC}: {exc}")
    if Path(pkg.__file__).resolve().parent != SRC / "lspgen":
        raise PackageMissing(f"lspgen was imported from {pkg.__file__}, "
                             f"not from {SRC}")
    return SimpleNamespace(**{n: sys.modules[f"lspgen.{n}"]
                              for n in MODULES})


def warm(L: SimpleNamespace) -> None:
    """Fills the lazy caches: every catalog operation, every seed, and the
    classifier's tetrahedron (reached by classifying chamfer)."""
    for name in L.catalog.OPERATION_NAMES:
        L.classify.connectivity_class_of(L.catalog.lookup(name))
    for name in L.catalog.SEED_NAMES:
        L.catalog.seed(name)


if __name__ == "__main__":
    try:
        warm(load_package())
    except PackageMissing as exc:
        print(exc, file=sys.stderr)
        sys.exit(2)
    print(f"ready {time.process_time()}", flush=True)
