"""lspgen benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # each in a fresh process

Runs from the root of a checkout and imports lspgen from its ``src``; it
exits with code 2, printing no result, when that package is missing.

A run repeats whole passes of the workload, single-threaded, while the
next one is expected to end within ``--seconds`` (always at least one).
Each pass includes checking its outputs, so its time is the time to a
checked solution.  With ``--trace 1`` one more pass runs with spans
recorded at the package's import sites (see spans.py); its per-layer
metrics replace the end-to-end ones, and its spans are written to
``perfbench/out/``.  The last line of stdout is the result as JSON.

The end-to-end times are CPU times of this single-threaded process and
of the set-up children, scaled to a reference host speed measured next
to them (see calibrate.py): on a shared host the wall and CPU times of
the same run varied by up to 40%.  The raw CPU and wall times are printed
alongside, and reported as per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Sampler, kernel_samples, scaled
from spans import PER_LAYER, Recorder, ROOT, per_layer, untraced
from warmup import PackageMissing, load_package, warm
from workloads import WORKLOADS, Check, Workload

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 21
END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# per-layer metrics of the untraced passes in a traced run
RUN_LAYER = {"pass.cpu_s": "s", "pass.wall_s": "s", "host.kernel_s": "s"}
MAX_WRONG_LINES = 20


@dataclass
class Pass:
    seconds: float
    cpu: float
    checks: list[Check]
    crashed: bool
    details: object
    kernel: list[float] = field(default_factory=list)  # during and after it

    @property
    def scaled(self) -> float:
        return scaled(self.cpu, self.kernel)


def probe_setup() -> tuple[float, float]:
    """Wall seconds from spawning a fresh interpreter until warmup.py
    reports lspgen imported and warm, and the CPU seconds the child had
    used by then."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "warmup.py")],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - t0
        _, err = child.communicate(timeout=120)
    word, _, cpu = line.partition(" ")
    if word != "ready" or child.returncode != 0:
        raise PackageMissing(f"set-up probe failed: {err.strip()}")
    return seconds, float(cpu)


def measure_setup() -> tuple[list[tuple[float, float]], list[float]]:
    """The set-up probes, and kernel samples taken after each of them."""
    probes, kernel = [], []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup())
        kernel += kernel_samples()
    return probes, kernel


def run_pass(L, workload: Workload, inputs, wrap) -> Pass:
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        checks, details = wrap(workload.run, ROOT)(L, inputs, wrap)
        crashed = False
    except Exception:
        # a crashed pass is reported, and all its items count as wrong
        traceback.print_exc()
        checks = [Check("pass", "crashed", "completed")] * workload.size
        details, crashed = None, True
    return Pass(time.perf_counter() - t0, time.process_time() - c0,
                checks, crashed, details)


def calibrated_pass(L, workload: Workload, inputs) -> Pass:
    """An untraced pass with the reference kernel sampled during it (and
    a few times after it, so that a short pass has samples too); its
    times leave the kernel's out."""
    with Sampler() as sampler:
        p = run_pass(L, workload, inputs, untraced)
    p.seconds -= sampler.wall
    p.cpu -= sampler.cpu
    p.kernel = sampler.samples + kernel_samples()
    return p


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_passes(L, workload: Workload, inputs, seconds: float
                 ) -> tuple[list[Pass], float]:
    """The calibrated passes, and the peak RSS after the first of them
    (later passes can only add allocator fragmentation)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        p = calibrated_pass(L, workload, inputs)
        passes.append(p)
        if len(passes) == 1:
            rss = peak_rss_mib()
        if p.crashed or time.perf_counter() - t0 + p.seconds > seconds:
            return passes, rss


def judge(workload: Workload, checks: list[Check]
          ) -> tuple[list[Check], list[Check]]:
    """The wrong checks, and those of them that are not known deviations
    (each known deviation excuses one item, at its recorded value)."""
    wrong = [c for c in checks if not c.ok]
    allowance = dict(workload.known)
    unexpected = []
    for c in wrong:
        if c.key in allowance and allowance[c.key] == c.got:
            del allowance[c.key]
        else:
            unexpected.append(c)
    return wrong, unexpected


def timing(values: list[float]) -> str:
    """Median, the highest percentile with ten samples above it, and the
    sample count."""
    s = sorted(values)
    n = len(s)
    text = f"median {statistics.median(s):.6f}"
    if n >= 11:
        text += f", p{100 * (n - 10) / n:.0f} {s[n - 11]:.6f}"
    else:
        text += ", no tail percentile under 11 samples"
    return f"{text}, n={n}"


def report_checks(workload: Workload, passes: list[Pass]) -> bool:
    """Prints the wrong items and wrong_share; True when no pass crashed
    and every wrong item is a known deviation at its recorded value."""
    correct = True
    printed = None
    for i, p in enumerate(passes):
        wrong, unexpected = judge(workload, p.checks)
        correct &= not p.crashed and not unexpected
        if wrong == printed:
            continue
        printed = wrong
        for c in wrong[:MAX_WRONG_LINES]:
            tag = "UNEXPECTED" if c in unexpected else "known deviation"
            print(f"  pass {i}: wrong {c.key}: got {c.got}, "
                  f"want {c.want} ({tag})")
        if len(wrong) > MAX_WRONG_LINES:
            print(f"  pass {i}: ... and {len(wrong) - MAX_WRONG_LINES} more")
    shares = ", ".join(f"{sum(not c.ok for c in p.checks)}/{len(p.checks)}"
                       for p in passes)
    print(f"wrong_share per pass: {shares}")
    return correct


def run_one(args) -> int:
    try:
        L = load_package()
        setup, setup_kernel = measure_setup() if not args.trace else ([], [])
    except PackageMissing as exc:
        print(exc, file=sys.stderr)
        return 2
    warm(L)
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(L, args.seed)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{workload.why}")
    passes, rss = timed_passes(L, workload, inputs, args.seconds)
    wall = [p.seconds for p in passes]
    cpu = [p.cpu for p in passes]
    kernel = [k for p in passes for k in p.kernel]
    at_reference = [p.scaled for p in passes]
    rec = None
    if args.trace and not passes[-1].crashed:
        rec = Recorder()
        with rec.installed(L):
            passes.append(run_pass(L, workload, inputs, rec.wrap))
    correct = report_checks(workload, passes)
    if not passes[0].crashed:
        for line in workload.diagnose(L, passes[0].details):
            print(line)

    print(f"pass wall time in s: {timing(wall)}")
    print(f"pass CPU time in s: {timing(cpu)}")
    print(f"reference kernel CPU time in s: mean "
          f"{statistics.fmean(kernel):.6f}, {timing(kernel)}")
    print(f"pass_s (CPU time at reference speed) in s: "
          f"{timing(at_reference)}")
    if args.trace:
        if rec is None:
            metrics = {}
        else:
            layers, selfs = per_layer(rec, statistics.median(wall))
            path = HERE / "out" / f"{workload.name}-seed{args.seed}.spans"
            rec.dump(path)
            print(f"spans written to {path}")
            for name, seconds in selfs.items():
                if seconds:
                    print(f"  self {name}: {seconds:.6f} s")
            print(f"accounting: layer self times {sum(selfs.values()):.6f} s"
                  f" = traced wall {layers['trace.wall_s']:.6f} s, of which "
                  f"{layers['trace.unattributed_share']:.4%} unattributed "
                  f"(benchmark code)")
            values = {"pass.cpu_s": statistics.median(cpu),
                      "pass.wall_s": statistics.median(wall),
                      "host.kernel_s": statistics.fmean(kernel), **layers}
            units = {**RUN_LAYER, **PER_LAYER}
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in values.items()}
    else:
        setup_cpu = [c for _, c in setup]
        print(f"set-up wall time in s: {timing([w for w, _ in setup])}")
        print(f"set-up CPU time in s: {timing(setup_cpu)}")
        print(f"reference kernel CPU time around set-up in s: mean "
              f"{statistics.fmean(setup_kernel):.6f}, {timing(setup_kernel)}")
        values = {"pass_s": statistics.median(at_reference),
                  "setup_s": scaled(statistics.median(setup_cpu),
                                    setup_kernel),
                  "peak_rss_mib": rss}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": correct and bool(metrics),
        "attempted": sum(len(p.checks) for p in passes),
        "failed": sum(not c.ok for p in passes for c in p.checks),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the last line maps workload names
    to their results."""
    results = {}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        print(child.stdout, end="")
        if child.returncode != 0:
            return child.returncode
        results[name] = json.loads(child.stdout.splitlines()[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
