"""Span recording around lspgen's public functions, from outside the package.

A span is (name, start, end, parent).  The recorder replaces a function in
the namespace of each module that calls it (its *import site*), so calls
the package makes to itself open spans too.  Spans are kept in flat
arrays and written out once, at the end of a run.  A span's self time is
its duration minus the time its child spans cover; with one thread,
children never overlap, so the self times of all spans under a root add
up to the root's duration.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

BENCH_PREFIX = "bench."     # spans around the benchmark's own code
ROOT = "bench.pass"         # the span around one whole pass


def _canonical(g, *args, **kwargs) -> str:
    return ("maps.canonical.unrooted" if g.outer is None
            else "maps.canonical.rooted")


# after-hooks: update counters from a call's arguments and result
def _visited(c, args, ret):
    c["generate.visited"] += ret.visited


def _accepted(c, args, ret):
    c["generate.canonical_child.accepted"] += ret is not None


def _emitted(c, args, ret):
    c["complete.emitted"] += ret


def _host_chambers(c, args, ret):
    c["chambers.apply.host_chambers"] += 4 * args[0].ne


def _written(c, args, ret):
    c["maps.planar_code.bytes"] += len(ret)


def _read(c, args, ret):
    c["maps.planar_code.bytes"] += len(args[0])


# (module, attribute, span name or function of the call's arguments,
#  after-hook).  No site calls another site of the same span name, so
# summing a name's durations never counts time twice.
SITES = (
    ("cli", "main", "cli", None),
    ("cli", "run_pipeline", "pipeline", None),
    ("generate", "generate", "generate", _visited),
    ("pipeline", "generate", "generate", _visited),
    ("generate", "is_canonical_child", "generate.canonical_child", _accepted),
    ("generate", "validate_predecoration", "predecorations.validate", None),
    ("predecorations", "validate_predecoration", "predecorations.validate",
     None),
    ("generate", "scan_reductions", "extensions.scan_reductions", None),
    ("generate", "canonical_data", _canonical, None),
    ("maps", "canonical_data", _canonical, None),
    ("complete", "complete", "complete", _emitted),
    ("pipeline", "complete", "complete", _emitted),
    ("complete", "validate", "complete.validate", None),
    ("complete", "connectivity_class", "complete.classify", None),
    ("complete", "decoration_identity", "decorations.identity", None),
    ("decorations", "decoration_identity", "decorations.identity", None),
    ("classify", "connectivity_class_of", "classify", None),
    ("classify", "vertex_connectivity_capped", "maps.vconn", None),
    ("decorations", "vertex_connectivity_capped", "maps.vconn", None),
    ("chambers", "apply_decoration", "chambers.apply", _host_chambers),
    ("cli", "apply_decoration", "chambers.apply", _host_chambers),
    ("maps", "write_planar_code", "maps.planar_code", _written),
    ("maps", "read_planar_code", "maps.planar_code", _read),
    ("cli", "write_planar_code", "maps.planar_code", _written),
    ("cli", "read_planar_code", "maps.planar_code", _read),
)

# per-layer metric -> unit, in report order
PER_LAYER = {
    "generate.self_s": "s",
    "generate.visited": "count",
    "generate.canonical_child.calls": "count",
    "generate.canonical_child.accept_ratio": "ratio",
    "predecorations.validate.s": "s",
    "extensions.scan_reductions.s": "s",
    "complete.self_s": "s",
    "complete.calls": "count",
    "complete.emitted": "count",
    "complete.validate.calls": "count",
    "complete.emit_ratio": "ratio",
    "complete.classify.calls": "count",
    "complete.classify.s": "s",
    "classify.calls": "count",
    "classify.s": "s",
    "classify.tetra_share": "ratio",
    "maps.vconn.s": "s",
    "chambers.apply.calls": "count",
    "chambers.apply.s": "s",
    "chambers.apply.host_chambers": "count",
    "maps.canonical.rooted_s": "s",
    "maps.canonical.unrooted_s": "s",
    "decorations.identity.s": "s",
    "maps.planar_code.s": "s",
    "maps.planar_code.bytes": "count",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
}


def untraced(fn: Callable, name: str) -> Callable:
    """The recorder's ``wrap`` for untraced passes: no span at all."""
    return fn


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name, after: Optional[Callable] = None
             ) -> Callable:
        """fn, recording one span per call; ``name`` is a string or a
        function of the call's arguments."""
        sid, parent, start, end = self.sid, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            i = len(start)
            sid.append(fixed if fixed is not None
                       else self._id(name(*args, **kwargs)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                ret = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, ret)
            return ret

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, L: SimpleNamespace):
        """Wraps every site in SITES for the duration of the block."""
        saved = []
        try:
            for mod, attr, name, after in SITES:
                module = getattr(L, mod)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, after))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self) -> tuple[dict[str, list], int]:
        """name -> [calls, total seconds, self seconds], and the number of
        chambers.apply spans called from the classifier."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        per = [[0, 0.0, 0.0] for _ in self.names]
        apply_id = self._ids.get("chambers.apply")
        classify_id = self._ids.get("classify")
        tetra = 0
        for i in range(n):
            k, p = self.sid[i], self.parent[i]
            if p >= 0 and self.sid[p] == k:
                raise ValueError(f"span {self.names[k]} nests in itself")
            row = per[k]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            if k == apply_id and p >= 0 and self.sid[p] == classify_id:
                tetra += 1
        return dict(zip(self.names, per)), tetra

    def dump(self, path: Path) -> None:
        """Writes a JSON header line, then the four span arrays raw."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["sid", "i"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                  "counts": dict(self.counts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.sid, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: Path) -> tuple[dict, dict[str, array]]:
    """Reads a file written by Recorder.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[name] = arr
    return header, arrays


def per_layer(rec: Recorder, untraced_wall: float
              ) -> tuple[dict[str, float], dict[str, float]]:
    """Every PER_LAYER metric from one traced pass, whose root span is
    ROOT, and the self seconds of every span name, largest first."""
    per, tetra = rec.summary()
    c = rec.counts
    traced_wall = per[ROOT][1]

    def calls(name):
        return per.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return per.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return per.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    bench_self = sum(row[2] for name, row in per.items()
                     if name.startswith(BENCH_PREFIX))
    m = {
        "generate.self_s": self_s("generate"),
        "generate.visited": c["generate.visited"],
        "generate.canonical_child.calls": calls("generate.canonical_child"),
        "generate.canonical_child.accept_ratio": ratio(
            c["generate.canonical_child.accepted"],
            calls("generate.canonical_child")),
        "predecorations.validate.s": total("predecorations.validate"),
        "extensions.scan_reductions.s": total("extensions.scan_reductions"),
        "complete.self_s": self_s("complete"),
        "complete.calls": calls("complete"),
        "complete.emitted": c["complete.emitted"],
        "complete.validate.calls": calls("complete.validate"),
        "complete.emit_ratio": ratio(c["complete.emitted"],
                                     calls("complete.validate")),
        "complete.classify.calls": calls("complete.classify"),
        "complete.classify.s": total("complete.classify"),
        "classify.calls": calls("classify"),
        "classify.s": total("classify"),
        "classify.tetra_share": ratio(tetra, calls("classify")),
        "maps.vconn.s": total("maps.vconn"),
        "chambers.apply.calls": calls("chambers.apply"),
        "chambers.apply.s": total("chambers.apply"),
        "chambers.apply.host_chambers": c["chambers.apply.host_chambers"],
        "maps.canonical.rooted_s": total("maps.canonical.rooted"),
        "maps.canonical.unrooted_s": total("maps.canonical.unrooted"),
        "decorations.identity.s": total("decorations.identity"),
        "maps.planar_code.s": total("maps.planar_code"),
        "maps.planar_code.bytes": c["maps.planar_code.bytes"],
        "pipeline.self_s": self_s("pipeline"),
        "cli.self_s": self_s("cli"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_share": ratio(bench_self, traced_wall),
        "trace.spans": len(rec.start),
    }
    selfs = sorted(((name, row[2]) for name, row in per.items()),
                   key=lambda kv: -kv[1])
    return m, dict(selfs)
