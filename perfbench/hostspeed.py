"""Host-speed sampler for the dyckpeaks benchmark.

The benchmark runs on a few CPUs of a shared host whose speed flips by up to
2x in phases lasting from seconds to minutes (other tenants' load), so a
wall-clock time says as much about the host as about the program. While a
run measures, this module runs as a separate process on the same CPU as the
operations and times a fixed kernel every ``PERIOD_S``:

    python3 perfbench/hostspeed.py <samples-file>

Each sample is one line ``<monotonic start time> <kernel ms>``. The kernel
is a convolution of two fixed lists of big integers, the kind of work the
series layer does; on the 2-vCPU host the benchmark was written on, it
slows by about as much in a slow phase as the workloads do (1.7x against 1.8x), where a small-integer loop slows by
only 1.4x. Its time is the sampler's CPU time, so the time the sampler
waits while an operation holds the CPU is not counted; on that host the CPU
time of fixed work grows in a slow phase as its wall time does. The kernel
imports nothing from ``dyckpeaks``, so no change to the library can change
it.

``factor`` turns the samples around an operation into the ratio of
``REFERENCE_MS`` to the kernel's time, averaged over the operation and a
margin on each side (the host's phases last seconds): a wall time
multiplied by it is the time the operation would have taken on a host where
the kernel takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import bisect
import os
import signal
import sys
import time
from pathlib import Path

PERIOD_S = 0.1
MARGIN_S = 0.25
# The kernel's time on the 2-vCPU host the benchmark was written on, in a
# phase without neighbour load (Python 3.11).
REFERENCE_MS = 1.2

_A = [(3**i) * (7 ** (i % 13)) for i in range(60)]
_B = [(5**i) + (11 ** (i % 17)) for i in range(60)]


def kernel() -> list[int]:
    out = [0] * (len(_A) + len(_B))
    for _ in range(3):
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] += a * b
    return out


def probe_ms() -> float:
    start = time.thread_time()
    kernel()
    return (time.thread_time() - start) * 1000.0


def load(path: Path) -> list[tuple[float, float]]:
    samples = []
    for line in path.read_text().splitlines():
        fields = line.split()
        if len(fields) == 2:  # the last line may be cut short by the stop
            samples.append((float(fields[0]), float(fields[1])))
    return samples


def factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean of REFERENCE_MS / kernel ms over the samples taken from
    MARGIN_S before ``start`` to MARGIN_S after ``end``; the nearest sample
    when none falls there."""
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, start - MARGIN_S)
    hi = bisect.bisect_right(times, end + MARGIN_S)
    window = samples[lo:hi]
    if not window:
        nearest = min(range(len(samples)), key=lambda i: abs(times[i] - (start + end) / 2))
        window = [samples[nearest]]
    return sum(REFERENCE_MS / ms for _, ms in window) / len(window)


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    with open(sys.argv[1], "w", buffering=1) as out:
        while os.getppid() == parent:  # end with the benchmark, even if it is killed
            time.sleep(PERIOD_S)
            start = time.monotonic()
            out.write(f"{start!r} {probe_ms()!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
