"""Host-speed calibration and the summary statistics of the benchmark.

The benchmark runs on shared hosts whose CPU speed drifts in phases that
last from a fraction of a second to several seconds, so a raw wall-clock
reading of the same operation can move by half between two repetitions.
Every timing is therefore expressed in *calibrated seconds*: the raw time
scaled by how much slower or faster the host ran a fixed reference kernel
than the kernel's fixed nominal time::

    calibrated = raw * NOMINAL_SAMPLE_S / mean(kernel samples)

:class:`HostClock` samples the kernel right before an operation, right
after it, and every ``SAMPLE_EVERY_S`` of process CPU time during it (from
a ``SIGPROF`` handler), so the samples follow the host's speed through the
operation; the time spent sampling is taken out of the operation's time.

The kernel is dict and sort work in pure Python, the same kind of work the
simulator does, and belongs to the benchmark: a change to the program
cannot change it.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: Keys inserted per kernel sample.
SAMPLE_KEYS = 30_000
#: Fixed nominal duration of one kernel sample, in seconds.  It only sets
#: the scale of calibrated seconds (roughly the host seconds of an
#: unloaded 2-CPU host); it is a constant, never measured.
NOMINAL_SAMPLE_S = 0.010
#: Process CPU seconds between two samples inside an operation.
SAMPLE_EVERY_S = 0.2

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


@functools.lru_cache(maxsize=None)
def _kernel_data(size: int) -> Tuple[List[int], dict]:
    rng = random.Random(20140715)
    keys = [rng.getrandbits(24) for _ in range(size)]
    return keys, dict.fromkeys(keys, 0)


def reference_kernel(size: int = SAMPLE_KEYS) -> int:
    """Fixed dict-and-sort work; the result only keeps it from being skipped.

    The keys and the table are made once per process and updated in
    place, so a run of the kernel allocates little: a sample taken while
    the program holds its peak memory does not raise that peak.
    """
    keys, table = _kernel_data(size)
    for i, key in enumerate(keys):
        table[key] = (table[key] + i) & 0xFFFF
    order = sorted(table, key=table.__getitem__)
    return len(order) ^ order[0]


def sample_host() -> float:
    """Wall seconds of one kernel run, with the collector paused so that
    garbage left by the program is never collected inside the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(raw_s: float, samples: Sequence[float]) -> float:
    """Scale a raw duration to the nominal host speed."""
    if not samples or min(samples) <= 0:
        raise ValueError("need positive kernel samples")
    return raw_s * NOMINAL_SAMPLE_S / statistics.fmean(samples)


class HostClock:
    """Context manager timing one interval in calibrated seconds.

    After the ``with`` block, ``wall_s`` is the wall time of the block,
    ``raw_s`` the wall time minus the time spent sampling, ``cal_s`` its
    calibrated value and ``samples`` every kernel sample taken (before,
    during and after).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.wall_s = self.raw_s = self.cal_s = 0.0
        self._spent = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append(sample_host())
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        self.samples = []
        self._sample()
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.raw_s = self.wall_s - self._spent
        self._sample()
        self.cal_s = calibrate(self.raw_s, self.samples)


def iqr_ratio(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail_percentile(n: int) -> Tuple[int, int]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples
    beyond it, and its nearest rank, for ``n`` samples.

    With the nearest-rank rule the ``p``-th percentile is the sample of
    rank ``ceil(p * n / 100)``; ``n - rank`` samples lie beyond it.  Below
    ``2 * TAIL_BEYOND + 1`` samples no percentile above the median
    qualifies and the median is returned.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    p = 50
    for candidate in range(99, 50, -1):
        if n - math.ceil(candidate * n / 100) >= TAIL_BEYOND:
            p = candidate
            break
    return p, max(1, math.ceil(p * n / 100))


def tail_value(samples: Sequence[float]) -> Tuple[float, int]:
    """``(value, percentile)`` of the tail rule over ``samples``."""
    ordered: List[float] = sorted(samples)
    p, rank = tail_percentile(len(ordered))
    return ordered[rank - 1], p
