"""Host-speed probes: fixed kernels timed between ops.

The benchmark runs on a few vCPUs of a shared host whose speed flips between
levels up to 2x apart as other tenants come and go, often within a second
and unevenly across vCPUs; the flips affect every run in a set differently
and would swamp any change to the program.  At times the host also takes
the vCPU away for milliseconds at a time (steal, up to a quarter of the
time), which stretches long ops far more than a short probe; every time is
therefore taken as ``busy_time``, which leaves steal out.  A probe is a
fixed kernel of this file, independent of the program, whose work resembles
a workload's hot path.  Timed next to ops, it tells how slow the host is at
that moment as ``slowness = measured / nominal``; an op's busy time divided
by the slowness interpolated at the op's time is its time at nominal host
speed.  The nominal times are the medians measured on the baseline machine (2 vCPU
x86_64, Python 3.11, numpy 2.4), so at a typical moment of that host the
scaled and the raw figures agree.

Which kernel follows which workload was chosen by running each workload in
12-second blocks, rotating through them for ten minutes with all kernels
timed after every 0.4 s of op time: the spread of the block medians
((Q3 - Q1) / median) fell from 0.20 to 0.03 on trace-paper (large-FFT
probe), from 0.44 to 0.02 on interfere-single-segment (small-FFT + Python
probes) and from 0.21 to 0.07 on set-up (Python probe after the import;
timing it before the import as well and taking the mean brought the spread
of 7-start medians from 0.07 to 0.04).  On analytic-scan, whose ops take a
few milliseconds, a short Python probe after every op brought it from 0.20
to 0.09 over ten blocks.
"""
from __future__ import annotations

import csv
import io
import time

# numpy is imported inside the FFT kernels: set-up children time the Python
# probe before importing the program, and numpy is part of what they time.


def fft_small() -> None:
    """Short FFT round trips: per-call overhead of numpy on small arrays."""
    import numpy as np

    x = np.random.Generator(np.random.Philox(7)).standard_normal(1 << 15)
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(x))


def fft_large() -> None:
    """One trace-paper sweep in miniature: Philox normals, a 2**17-point
    shaping round trip and windowed 5000-point segment spectra."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(7))
    window = np.hanning(5000)
    for _ in range(3):
        x = rng.standard_normal(105_000)
        y = np.fft.irfft(np.fft.rfft(x, 1 << 17) * 0.5, 1 << 17)[:100_000]
        np.abs(np.fft.rfft(y.reshape(-1, 5000) * window, axis=1)) ** 2


def python(rows: int = 3000) -> None:
    """Interpreter-bound work: CSV formatting and dict inserts."""
    writer = csv.writer(io.StringIO())
    for i in range(rows):
        writer.writerow([repr(i * 0.37), repr(i / 7.0), "label"])
    table = {}
    for i in range(rows * 20 // 3):
        table[str(i)] = i


def python_short() -> None:
    """``python`` at a tenth of the size, cheap enough to follow every op of
    a few milliseconds: the host's speed flips within a second, so only a
    probe next to each short op tracks it."""
    python(300)


# kernel -> nominal seconds (median on the baseline machine)
NOMINAL_S = {fft_small: 0.0167, fft_large: 0.0292, python: 0.0149, python_short: 0.00149}


def busy_time(wall: float, cpu: float) -> float:
    """Time a single-threaded piece of work held a vCPU: the wall time less
    what the host took away (steal, which the process CPU time leaves out),
    so ``min(wall, cpu)``.  When threads run in parallel, CPU time exceeds
    wall time and the wall time counts."""
    return min(wall, cpu)


def slowness(kernels) -> float:
    """Host slowness now: busy time of ``kernels`` over their nominal time."""
    t0, c0 = time.perf_counter(), time.process_time()
    for kernel in kernels:
        kernel()
    busy = busy_time(time.perf_counter() - t0, time.process_time() - c0)
    return busy / sum(NOMINAL_S[k] for k in kernels)


def median_slowness(kernels, repeats: int = 3) -> float:
    return sorted(slowness(kernels) for _ in range(repeats))[repeats // 2]
