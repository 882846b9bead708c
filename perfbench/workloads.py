"""The benchmark's workloads: inputs, one timed pass, and its checks.

A pass returns one Check per output item.  A wrong item is counted in
``wrong_share`` whether or not it is a known deviation; ``known`` lists
the deviations the program shows at the commit that recorded them, each
with its value then, so that the result stays ``correct`` only while every
wrong item is one of those at exactly that value.  Known deviations are
never folded into the pins.

Every call into lspgen goes through a module attribute (``L.maps.x``),
looked up at call time, so that the traced pass sees the wrapped function.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# published counts, copied from tests/test_acceptance.py:
# rate -> (k=1, k=2, k=3)
COUNTS = {
    1: (2, 2, 2), 2: (2, 2, 2), 3: (4, 4, 4), 4: (6, 6, 6), 5: (6, 6, 4),
    6: (20, 20, 20), 7: (28, 28, 20), 8: (58, 58, 54), 9: (82, 82, 64),
    10: (170, 168, 144), 11: (204, 200, 132), 12: (496, 492, 404),
    13: (650, 640, 396), 14: (1432, 1400, 1112),
}
# completable predecorations per rate, chiral ones counted twice
PREDECORATIONS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 7, 8: 8, 9: 7,
                  10: 19}

# isomorph-free skeletons with lower rate bound <= 18 (recorded value:
# the generator visits 1238, one of them twice as a mirror pair)
SKELETONS_R18 = 1237

PLATONIC = ("tetrahedron", "cube", "octahedron", "dodecahedron",
            "icosahedron")
# The other catalog seeds are multigraphs and are left out: on k2 five of
# the operations raise MapError (extraction would create a loop), and
# some results on bowtie and k4-minus-edge have parallel edges between
# the same two vertices, which planar_code cannot encode unambiguously
# (read_planar_code raises MapError).
CHAIN_DIGESTS = Path(__file__).resolve().parent / "reference" / \
    "apply_chains.json"

Wrap = Callable[[Callable, str], Callable]


@dataclass(frozen=True)
class Check:
    key: str
    got: object
    want: object

    @property
    def ok(self) -> bool:
        return self.got == self.want


class Workload:
    name = ""
    why = ""
    size = 0                       # items one pass checks
    known: dict[str, object] = {}  # item key -> value it is known to have

    def inputs(self, L: SimpleNamespace, seed: int):
        """The pass's inputs, made from the seed before any timing."""
        return None

    def run(self, L: SimpleNamespace, inputs, wrap: Wrap
            ) -> tuple[list[Check], object]:
        """One pass: its checks, and details for ``diagnose``."""
        raise NotImplementedError

    def diagnose(self, L: SimpleNamespace, details) -> list[str]:
        """Report lines on the pass's defects, computed after timing."""
        return []


class Enumerate(Workload):
    """generate + complete at k=1, then every emitted decoration goes
    through connectivity_class_of and decoration_identity."""

    why = ("classification dominates, done twice: inside completion, "
           "where k=1 filters nothing, and by the caller")

    def __init__(self, name: str, rmax: int, counts=COUNTS,
                 predecorations=PREDECORATIONS, known=None):
        self.name, self.rmax = name, rmax
        self.counts, self.predecorations = counts, predecorations
        self.pre_rates = [r for r in sorted(predecorations) if r <= rmax]
        self.size = 3 * rmax + len(self.pre_rates)
        self.known = known or {}

    def run(self, L, inputs, wrap):
        rmax = self.rmax
        cells = {r: [0, 0, 0] for r in range(1, rmax + 1)}
        pre = dict.fromkeys(range(1, rmax + 1), 0)
        codes = set()
        dups: Counter = Counter()

        def visit(p):
            rates = set()

            def on_decoration(d):
                r = d.rate()
                for k in range(L.classify.connectivity_class_of(d)):
                    cells[r][k] += 1
                code = L.decorations.decoration_identity(d)
                if code in codes:
                    dups[r] += 1
                codes.add(code)
                rates.add(r)

            L.complete.complete(p, 1, 1, rmax,
                                wrap(on_decoration, "bench.visit"))
            weight = 2 if L.complete.is_chiral(p) else 1
            for r in rates:
                pre[r] += weight

        L.generate.generate(L.generate.GenerationTask(1, rmax, 1),
                            visitor=wrap(visit, "bench.visit"))
        checks = []
        for r in range(1, rmax + 1):
            for k in (1, 2, 3):
                got = cells[r][k - 1]
                if k == 1 and dups[r]:
                    got = f"{got} with {dups[r]} duplicates"
                checks.append(Check(f"k{k} r{r}", got, self.counts[r][k - 1]))
        checks += [Check(f"pre r{r}", pre[r], self.predecorations[r])
                   for r in self.pre_rates]
        return checks, None


class CountCli(Workload):
    """``lspgen generate --rate 1-R -k 2 --count`` in-process, stdout
    captured and parsed."""

    why = ("the north-star command: classification is a needed filter "
           "inside completion, with extension-10 pruning on")

    def __init__(self, name: str, rmax: int, counts=COUNTS, known=None):
        self.name, self.rmax, self.counts = name, rmax, counts
        self.size = rmax
        self.known = known or {}

    def run(self, L, inputs, wrap):
        out = io.StringIO()
        argv = ["generate", "--rate", f"1-{self.rmax}", "-k", "2", "--count"]
        with contextlib.redirect_stdout(out):
            status = L.cli.main(argv)
        if status != 0:
            raise RuntimeError(f"lspgen {' '.join(argv)} exited {status}")
        got = {}
        for line in out.getvalue().splitlines():
            rate, k, count = (int(x) for x in line.split())
            if k != 2:
                raise RuntimeError(f"unexpected output line {line!r}")
            got[rate] = count
        return [Check(f"k2 r{r}", got.get(r), self.counts[r][1])
                for r in range(1, self.rmax + 1)], None


class Skeletons(Workload):
    """generate alone, with a visitor that takes the full canonical code of
    each skeleton and validates it."""

    why = ("skeleton generation (extensions, canonical-child test, rooted "
           "codes) does almost all the work; elsewhere it is under 5%")

    def __init__(self, name: str, rmax: int, distinct: int, known=None):
        self.name, self.rmax, self.distinct = name, rmax, distinct
        self.size = distinct
        self.known = known or {}

    def run(self, L, inputs, wrap):
        first: dict[tuple, tuple[int, object]] = {}   # code -> (visit, p)
        checks: list[Check] = []
        repeats = []

        def visit(p):
            i = len(checks)
            code = L.maps.canonical_code(p.g, "full")
            problems = L.predecorations.validate_predecoration(p.g)
            if problems:
                checks.append(Check(f"skeleton {p.lo}-{p.hi}",
                                    "; ".join(problems), "valid"))
            elif code in first:
                repeats.append((*first[code], i, p))
                checks.append(Check(f"repeat {p.lo}-{p.hi}", "repeated",
                                    "new"))
            else:
                first[code] = (i, p)
                checks.append(Check(f"skeleton {p.lo}-{p.hi}", "new", "new"))

        L.generate.generate(L.generate.GenerationTask(1, self.rmax, 1),
                            visitor=wrap(visit, "bench.visit"))
        # each skeleton missing from, or extra to, the reference is wrong
        off = abs(len(first) - self.distinct)
        checks += [Check("distinct skeletons", len(first), self.distinct)] * off
        return checks, repeats

    def diagnose(self, L, details):
        lines = []
        for a, p, b, q in details:
            same_oriented = (L.maps.canonical_code(p.g, "oriented")
                             == L.maps.canonical_code(q.g, "oriented"))
            lines.append(
                f"isomorph-freeness defect: visit {b} repeats visit {a} "
                f"(rate bounds {q.lo}-{q.hi}): equal 'full' codes, "
                f"{'equal' if same_oriented else 'different'} 'oriented' "
                f"codes; canonical_parent picks reduction "
                f"{L.generate.canonical_parent(p)[1]} for the first image "
                f"and {L.generate.canonical_parent(q)[1]} for the second; "
                f"completions at rate <= 20: "
                f"{L.complete.complete(p, 1, 1, 20)} and "
                f"{L.complete.complete(q, 1, 1, 20)}")
        return lines


def chain_digest(code: tuple) -> str:
    return hashlib.sha256(repr(code).encode()).hexdigest()[:16]


def chain_key(seed_name: str, first: str, second: str) -> str:
    return f"{seed_name}:{first},{second}"


class ApplyChains(Workload):
    """Every ordered pair of catalog operations, applied in turn to each
    Platonic seed after a random relabelling made from the workload seed."""

    why = ("apply_decoration on large hosts with small decorations, "
           "unrooted canonical codes and planar_code I/O")

    def __init__(self, name: str, seeds=PLATONIC, digests=None):
        self.name, self.seeds, self.digests = name, seeds, digests
        self.known = {}
        self.size = 0       # set once the catalog is known, in inputs()

    def inputs(self, L, seed):
        if self.digests is None:
            with open(CHAIN_DIGESTS, encoding="ascii") as fh:
                self.digests = json.load(fh)
        rng = random.Random(seed)
        ops = L.catalog.OPERATION_NAMES
        self.size = len(self.seeds) * len(ops) ** 2
        return [(name, L.maps.random_relabeling(L.catalog.seed(name), rng))
                for name in self.seeds]

    def run(self, L, hosts, wrap):
        ops = [(name, L.catalog.lookup(name))
               for name in L.catalog.OPERATION_NAMES]
        checks = []
        for seed_name, g in hosts:
            for a, da in ops:
                for b, db in ops:
                    h = L.chambers.apply_decoration(
                        L.chambers.apply_decoration(g, da), db)
                    bad = []
                    if h.ne != da.rate() * db.rate() * g.ne:
                        bad.append("edge law")
                    if h.n - h.ne + len(h.faces) != 2:
                        bad.append("euler")
                    if h.n <= 255:
                        back, = L.maps.read_planar_code(
                            L.maps.write_planar_code([h]))
                        if (L.maps.to_rotations(back)
                                != L.maps.to_rotations(h)):
                            bad.append("planar_code round trip")
                    key = chain_key(seed_name, a, b)
                    digest = chain_digest(L.maps.canonical_code(h, "full"))
                    if digest != self.digests.get(key):
                        bad.append("canonical code")
                    checks.append(Check(key, ", ".join(bad) or "ok", "ok"))
        return checks, None


WORKLOADS = {w.name: w for w in (
    Enumerate("enum_k1_r13", 13,
              known={"k2 r13": 644, "pre r7": 2}),
    CountCli("count_k2_r14", 14,
             known={"k2 r13": 644, "k2 r14": 1418}),
    Skeletons("skeletons_r18", 18, SKELETONS_R18,
              known={"repeat 18-28": "repeated"}),
    ApplyChains("apply_chains"),
)}
