"""Per-rate census of the step that decides each decoration's class.

Every decoration of rate 1 to RMAX (default 14) is classified, and the
step that decided it is counted:

* ``calibration``: ``classify._corner_axis_branch``, class 1;
* ``paste 1``: the face-twice rule ``classify._face_twice``, class 1
  (a vertex twice on one face walk of the paste); ``loops`` counts those
  among them whose application to the tetrahedron fails because a
  result edge would be a loop;
* ``paste 2`` and ``class 3``: the tetrahedron step, classes 2 and 3.

Run from a checkout (rate 20 takes about 80 s on a 2 vCPU host)::

    PYTHONPATH=src python tests/class_census.py 20
"""

import sys
from collections import Counter

from lspgen.chambers import apply_decoration
from lspgen.classify import (_corner_axis_branch, _face_twice, _tetrahedron,
                             tetrahedron_class)
from lspgen.maps import MapError
from lspgen.pipeline import run_pipeline

COLUMNS = ("calibration", "paste 1", "loops", "paste 2", "class 3")


def deciding_steps(d) -> tuple[str, ...]:
    """The census columns that count d."""
    if _corner_axis_branch(d):
        return ("calibration",)
    if _face_twice(d) is not None:
        try:
            apply_decoration(_tetrahedron(), d)
        except MapError:
            return ("paste 1", "loops")
        return ("paste 1",)
    return (("paste 2", "class 3")[tetrahedron_class(d) - 2],)


def census(rmax: int) -> dict[int, Counter]:
    rows = {r: Counter() for r in range(1, rmax + 1)}
    run_pipeline(1, rmax, 1, on_decoration=lambda d: rows[d.rate()].update(
        deciding_steps(d)))
    return rows


def main(argv: list[str]) -> None:
    rows = census(int(argv[0]) if argv else 14)
    rows["total"] = sum(rows.values(), Counter())
    print(f"{'rate':>5}" + "".join(f"{c:>12}" for c in COLUMNS))
    for r, row in rows.items():
        print(f"{r:>5}" + "".join(f"{row[c]:>12}" for c in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1:])
