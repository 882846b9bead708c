"""Quick self-test of the benchmark on a tiny window (rates 1-6, one seed).

    python3 perfbench/selftest.py

It drives every check and metric path of run.py through small versions of
the four workloads, including deliberately wrong pins that must raise
``wrong_share``, a crashing pass, the traced run and the span file, and a
run in a directory without the package.  Exits 1 at the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from spans import PER_LAYER, load, untraced
from warmup import load_package, warm
from workloads import (COUNTS, ApplyChains, CountCli, Enumerate, Skeletons,
                       WORKLOADS)

HERE = Path(__file__).resolve().parent
SEED = 7
R = 6
SKELETONS_R6 = 8        # distinct skeletons with lower rate bound <= 6


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAILED: {what}")
        raise SystemExit(1)
    print(f"ok  {what}")


def wrong_items(L, workload):
    """(pass, wrong checks, unexpected wrong checks) of one untraced pass."""
    p = run.run_pass(L, workload, workload.inputs(L, SEED), untraced)
    wrong, unexpected = run.judge(workload, p.checks)
    return p, wrong, unexpected


def main_output(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(argv)
    return status, out.getvalue().splitlines()


def main() -> int:
    L = load_package()
    warm(L)
    expect(L.classify._tetrahedron.cache_info().currsize == 1,
           "warm-up fills the classifier's tetrahedron cache")

    small = [Enumerate("enum", R), CountCli("count", R),
             Skeletons("skeletons", R, SKELETONS_R6),
             ApplyChains("chains", seeds=("tetrahedron",))]
    for w in small:
        p, wrong, _ = wrong_items(L, w)
        expect(not p.crashed and not wrong and len(p.checks) == w.size,
               f"{w.name}: 0/{w.size} wrong at rates 1-{R}")

    # deliberately wrong pins raise wrong_share
    bad = dict(COUNTS)
    bad[5] = (7,) + COUNTS[5][1:]
    _, wrong, unexpected = wrong_items(L, Enumerate("enum", R, counts=bad))
    expect([c.key for c in wrong] == ["k1 r5"] and unexpected == wrong,
           "a wrong k=1 pin is one unexpected wrong item")
    _, wrong, unexpected = wrong_items(
        L, Enumerate("enum", R, counts=bad, known={"k1 r5": 6}))
    expect(len(wrong) == 1 and not unexpected,
           "a known deviation at its recorded value is wrong but expected")
    _, wrong, unexpected = wrong_items(
        L, Enumerate("enum", R, counts=bad, known={"k1 r5": 5}))
    expect(len(unexpected) == 1,
           "a known deviation at another value is unexpected")
    _, wrong, _ = wrong_items(L, CountCli("count", R, counts=bad))
    expect([c.key for c in wrong] == [], "k=2 cells ignore the k=1 pin")
    bad[3] = (4, 5, 4)
    _, wrong, _ = wrong_items(L, CountCli("count", R, counts=bad))
    expect([c.key for c in wrong] == ["k2 r3"], "a wrong k=2 pin is wrong")
    for distinct in (SKELETONS_R6 - 1, SKELETONS_R6 + 2):
        _, wrong, _ = wrong_items(L, Skeletons("skeletons", R, distinct))
        expect(len(wrong) == abs(distinct - SKELETONS_R6),
               f"a skeleton reference of {distinct} is off by {len(wrong)}")
    chains = ApplyChains("chains", seeds=("tetrahedron",))
    chains.inputs(L, SEED)
    chains.digests = dict(chains.digests, **{"tetrahedron:ambo,kiss": "0"})
    _, wrong, _ = wrong_items(L, chains)
    expect([(c.key, c.got) for c in wrong]
           == [("tetrahedron:ambo,kiss", "canonical code")],
           "a wrong canonical-code digest is one wrong chain")

    class Crashing(CountCli):
        def run(self, L, inputs, wrap):
            raise RuntimeError("deliberate crash (traceback expected)")

    p, wrong, unexpected = wrong_items(L, Crashing("crash", R))
    expect(p.crashed and len(wrong) == len(unexpected) == R,
           "a crashed pass counts all its items as wrong")

    # the whole run, untraced and traced, through run.main
    run.WORKLOADS = {w.name: w for w in small}
    status, lines = main_output(["--workload", "enum", "--seed", str(SEED),
                                 "--seconds", "1", "--trace", "0"])
    result = json.loads(lines[-1])
    expect(status == 0 and set(result) == {"correct", "attempted",
                                           "failed", "metrics"},
           "the result line has exactly its four keys")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] % small[0].size == 0,
           "attempted counts every checked item")
    expect({k: m["unit"] for k, m in result["metrics"].items()}
           == run.END_TO_END_UNITS
           and all(m["value"] > 0 for m in result["metrics"].values()),
           "untraced runs report every end-to-end metric, none of them 0")
    seen = dict.fromkeys([*run.RUN_LAYER, *PER_LAYER], 0.0)
    for w in small:
        status, lines = main_output(["--workload", w.name, "--seed",
                                     str(SEED), "--seconds", "0",
                                     "--trace", "1"])
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        expect(status == 0 and result["correct"]
               and list(metrics) == [*run.RUN_LAYER, *PER_LAYER],
               f"{w.name}: the traced run reports every per-layer metric")
        account = next(line for line in lines
                       if line.startswith("accounting"))
        selfs = sum(float(line.split()[-2]) for line in lines
                    if line.startswith("  self "))
        expect(abs(selfs - metrics["trace.wall_s"]["value"]) < 1e-3,
               f"{w.name}: self times account for the traced wall time "
               f"({account})")
        header, arrays = load(HERE / "out" / f"{w.name}-seed{SEED}.spans")
        expect(header["spans"] == metrics["trace.spans"]["value"]
               == len(arrays["end"]),
               f"{w.name}: the span file holds every span")
        for name, m in metrics.items():
            seen[name] = max(seen[name], abs(m["value"]))
    zero = [name for name, v in seen.items() if not v]
    expect(not zero, f"every per-layer metric is non-zero on some "
                     f"workload {zero or ''}")
    run.WORKLOADS = WORKLOADS

    # the benchmark's description matches the code
    with open(HERE.parent / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json lists the workloads with their reasons")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END_UNITS
           and {m["name"]: m["unit"] for m in spec["per_layer"]}
           == {**run.RUN_LAYER, **PER_LAYER},
           "BENCHMARK.json lists every metric with its unit")

    # without the package the run fails fast and prints no result
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    child = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "apply_chains", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(child.returncode == 2 and not child.stdout,
           f"a checkout without src/ exits 2 with no result "
           f"({child.stderr.strip()})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
