"""How fast the host runs the interpreter right now.

The benchmark runs on virtual machines that share their cores and caches
with other tenants, and there the same single-threaded pass costs up to
40% more CPU time while a neighbour is busy: CPU time leaves out the
time the hypervisor gives the virtual CPU away, but not a slower core.
Such a slowdown lasts minutes, longer than a run.  So the benchmark times
a fixed pure-Python kernel in between the work it measures, every
``INTERVAL`` CPU seconds from a profiling timer, and scales the work's CPU
time by ``REFERENCE_S / mean kernel time``: to CPU seconds at the speed
the host had when the kernel took ``REFERENCE_S``.  The kernel does not
call lspgen, so a change to the package does not change the scale.

The mean, not the median: a neighbour's load comes in bursts, and the
work's time grows with the slowdown averaged over the pass, which the
mean of samples spread evenly over its CPU time estimates.  The median
jumps to the slow speed as soon as bursts cover half the pass.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# about the kernel's mean CPU time on a quiet 2-vCPU Xeon VM, CPython 3.11
REFERENCE_S = 0.005
SAMPLES = 5
INTERVAL = 0.1

_N = 400
# a fixed cubic graph: a ring with chords
_ADJ = [((v + 1) % _N, (v - 1) % _N, (v + _N // 2) % _N if v % 2 else
         (v * 7 + 3) % _N) for v in range(_N)]


def _kernel() -> tuple:
    """The least breadth-first code of the graph over a set of start
    vertices: dicts, lists, tuples and sorting, as in canonical codes."""
    best = None
    for s in range(0, _N, 32):
        label = {s: 0}
        order = [s]
        i = 0
        while i < len(order):
            for w in _ADJ[order[i]]:
                if w not in label:
                    label[w] = len(order)
                    order.append(w)
            i += 1
        code = tuple(sorted(tuple(sorted(label[w] for w in _ADJ[v]))
                            for v in order))
        if best is None or code < best:
            best = code
    return best


def timed_kernel() -> tuple[float, float]:
    """CPU and wall seconds of one run of the kernel, with the garbage
    collector off so that the heap of the work around it does not matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the thread's clock: the process's one reads in whole scheduler
        # ticks while the profiling timer is armed
        w0, c0 = time.perf_counter(), time.thread_time()
        _kernel()
        return time.thread_time() - c0, time.perf_counter() - w0
    finally:
        if enabled:
            gc.enable()


def kernel_samples(n: int = SAMPLES) -> list[float]:
    """CPU seconds of n runs of the kernel."""
    return [timed_kernel()[0] for _ in range(n)]


class Sampler:
    """Runs the kernel every INTERVAL CPU seconds of this process while
    installed; the work's own times are the totals minus ``cpu`` and
    ``wall``."""

    def __init__(self):
        self.samples: list[float] = []
        self.cpu = self.wall = 0.0

    def _sample(self, signum, frame) -> None:
        cpu, wall = timed_kernel()
        self.samples.append(cpu)
        self.cpu += cpu
        self.wall += wall

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)


def scaled(cpu_seconds: float, samples: list[float]) -> float:
    """CPU seconds at the reference speed, from the kernel samples taken
    around them."""
    return cpu_seconds * REFERENCE_S / statistics.fmean(samples)
