"""Machine-speed calibration for the benchmark's timings.

Small cloud VMs share their cores with other tenants, and their speed
drifts by tens of percent within seconds: on a 2-core VM the same serial
study took 5.2 s and 7.7 s back to back, with CPU time varying as much, and
no frequency control was available.  So while a run measures, threads of
the bench's parent process, one pinned to each CPU, time a fixed kernel
(a Python loop of scipy log-gamma calls on small arrays) every 50 ms, in
thread CPU time, which the bench's own processes cannot inflate by taking
the core away.  The samplers take about 2% of each CPU, the same on every
commit.
Every duration is then reported in *reference seconds*: multiplied by
``NOMINAL_S`` over the kernel's mean time around that duration.  A change
to the package cannot move the kernel, so the ratio keeps the effect of
code changes and cancels the drift.  Raw durations stay in the result file
next to the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np
from scipy.special import gammaln

NOMINAL_S = 0.0005  # the kernel's CPU time at reference speed
PERIOD_S = 0.05
PAD_S = 0.25  # samples this close to a duration count for it
_X = np.arange(1.0, 126.0)


def _kernel() -> float:
    # the package's hot path: a Python loop of log-gamma and exp calls on
    # arrays of about a hundred elements
    total = 0.0
    for i in range(30):
        v = gammaln(_X + i) - gammaln(_X) - gammaln(i + 1.0)
        total += float(np.exp(v - v.max()).sum())
    return total


def pin(cpu: int | None) -> int | None:
    """Pin the calling thread (and the children it starts) to ``cpu``.

    Returns the CPU, or None where the platform refuses.
    """
    if cpu is None:
        return None
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


class SpeedSampler:
    """Kernel timings every ``PERIOD_S`` from one thread pinned to each CPU.

    A single-threaded measured process is pinned to one CPU, and its
    durations are scaled by that CPU's samples: the speed of the other CPU
    tracks it much worse.  A process pool spreads over every CPU, so its
    durations are scaled by the samples of all of them.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: dict[int, list[tuple[float, float]]] = {c: [] for c in self.cpus}
        self._stop_event = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(c,), daemon=True) for c in self.cpus
        ]
        for thread in self._threads:
            thread.start()

    def _run(self, cpu: int) -> None:
        pin(cpu)
        out = self.samples[cpu]
        while not self._stop_event.is_set():
            c0 = time.thread_time()
            _kernel()
            out.append((time.monotonic(), time.thread_time() - c0))
            self._stop_event.wait(PERIOD_S)

    def stop(self) -> None:
        self._stop_event.set()
        for thread in self._threads:
            thread.join()

    def factor(self, t0: float, t1: float, cpu: int | None = None) -> float:
        """Reference seconds per second for a duration from ``t0`` to ``t1``.

        Both ends are ``time.monotonic()`` readings, which every process on
        the machine shares.  ``cpu`` None means the duration ran on all CPUs.
        """
        cpus = [cpu] if cpu in self.samples else self.cpus
        samples = [s for c in cpus for s in self.samples[c]]
        near = [d for t, d in samples if t0 - PAD_S <= t <= t1 + PAD_S]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - (t0 + t1) / 2))[1]]
        return NOMINAL_S / statistics.fmean(near)
