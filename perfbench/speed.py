"""Machine speed, from a fixed reference work timed next to the timed work.

The 2-vCPU virtual machine the baseline comes from changes speed by up to 2x,
in phases that last from under a second to minutes: the same fixed work took
4 to 8 ms per block, with CPU time equal to wall time and little steal time,
so neither CPU time nor longer runs remove it. The runner therefore times a
fixed reference work in the gap before every timed piece of work (operation
or set-up) and once more after the last, and reports each time scaled to a
machine on which the reference takes its ``reference_s``: the duration times
``reference_s`` over the median sample of the gaps just before and just after
it. The reference work does not call gencusp, so no change to the program
moves it.

Two reference works, one per kind of timed work:

- ``compute``: small dense algebra and Python loops, the mix of the
  library's hot paths, for the in-process workloads.
- ``startup``: a fresh interpreter that imports numpy, for the ``cli``
  workload, whose commands are mostly interpreter start-up and imports. The
  compute reference slows down more than start-up does in a slow phase, so
  it over-corrects there.

In five 40 s runs, wall-clock medians spread (interquartile range over
median) 0.42 on ``forward`` and 0.26 on ``cli``; scaled as here they spread
0.025 and 0.022.
"""

import os
import statistics
import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.25  # inside a long operation, at most one sample per this much time

_MATS = [np.random.default_rng(k).standard_normal((k, k)) / k for k in (3, 4, 5, 6, 7, 8)]


def _compute():
    """Small dense algebra and interpreter-level loops: a Taylor-series
    exponential, determinants and Python arithmetic on matrix entries."""
    acc = 0.0
    for _ in range(10):
        for a in _MATS:
            k = a.shape[0]
            e = np.eye(k)
            s = a / 4.0
            for j in range(14, 0, -1):
                e = np.eye(k) + (s @ e) / j
            e = e @ e
            e = e @ e
            acc += float(np.trace(e)) + float(np.linalg.det(a))
            acc += sum(float(x) * float(y) for x, y in zip(a[0], a[1]))
    return acc


# the interpreter sees neither the program's sources nor the checkout
_STARTUP_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def _startup():
    subprocess.run([sys.executable, "-c", "import numpy"], env=_STARTUP_ENV, cwd=os.sep,
                   check=True, capture_output=True, timeout=120)


# name -> (work, seconds it takes on the reference machine, samples per gap)
REFERENCES = {
    "compute": (_compute, 0.0075, 2),
    "startup": (_startup, 0.15, 1),
}


class Speed:
    """Samples of one reference work's duration, taken in gaps between
    timed pieces of work."""

    def __init__(self, reference="compute"):
        self.work, self.reference_s, self.per_gap = REFERENCES[reference]
        self.samples = []  # (start, seconds)
        self.spent = 0.0  # seconds spent sampling
        self.gaps = []  # index into samples where each gap of this series starts
        self.work()  # the first call pays one-time set-up

    def sample(self):
        t0 = time.perf_counter()
        self.work()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def maybe_sample(self):
        """A sample inside a long operation, at most every EVERY_S."""
        if time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def begin(self):
        """Start a new series of timed pieces of work."""
        self.gaps = []

    def gap(self):
        """Sample the reference before a timed piece of work; after the last
        one of a series, once more."""
        self.gaps.append(len(self.samples))
        for _ in range(self.per_gap):
            self.sample()

    def scaled(self, durations):
        """Duration k of the series, timed between gap k and gap k + 1, in
        reference-machine seconds: times ``reference_s`` over the median of
        the samples from the start of gap k to the end of gap k + 1 (with
        any taken inside the piece of work)."""
        bounds = self.gaps + [len(self.samples)]
        if len(bounds) < len(durations) + 2:
            raise ValueError("each duration needs a gap before and after it")
        return [d * self.reference_s
                / statistics.median(dt for _, dt in self.samples[bounds[k]:bounds[k + 2]])
                for k, d in enumerate(durations)]

    def factors(self):
        return [self.reference_s / dt for _, dt in self.samples]
