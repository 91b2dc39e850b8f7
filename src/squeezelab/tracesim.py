"""Time-domain photocurrent synthesis and spectrum-analyzer-style PSD estimation.

Noise traces are drawn in the frequency domain as the rFFT of white Gaussian
samples, scaled so their one-sided PSD matches a target spectrum (in
shot-noise units) plus an optional white electronic floor, which is part of
the gain rather than a second draw, and brought to the time domain by one
single-precision irFFT of the gain's shape, scaled in double precision; a
deterministic modulation tone may be added.  Float32 rounding fills a notch
from the rest of the band: the estimate resolves about 90 dB of target span
(0.005 dB off at 90 dB); the paper's spectra span under 30 dB.  The estimator
is Welch's averaged periodogram with a periodic Hann window at 50 % overlap,
whose segment length is set so the window's noise-equivalent bandwidth
equals the requested RBW; the video bandwidth is a post-detection moving
average in the power domain.

Everything is reproducible: the pseudorandom source is a counter-based
Philox generator keyed by the config seed whose counter's top 128 bits are
the sweep index, the same stream as `jumped(sweep_index)`, so identical
configs give bit-identical traces and spectra on one numpy build and SIMD
dispatch target.  A sweep makes one draw for every reference shaped from
it and takes one irFFT and one periodogram per reference.  A call's
sweeps are cut into tasks, even runs of consecutive sweeps, and one loop
runs them on the calling thread and on a helper thread per further thread:
thread t runs task t, then the next task nobody has taken.  One rule sets
the threads: one if a sweep synthesizes fewer than `SPLIT_SWEEP_SAMPLES`
samples; else one per CPU if the tasks of `MIN_TASK_SAMPLES` synthesized
samples times references outnumber the CPUs; else one per task, the tasks
then one per `MIN_TASK_SAMPLES / 4` of the work and at most one per CPU.
The periodograms are summed in sweep order, so the result does not depend
on the tasks or the number of threads.  Each thread reuses one
workspace, sized from the config, holding the Hann window and the draw,
spectrum, trace and one block of segments: Welch transforms as many
segments at a time as their spectra fit in the draw's bins (20 of the
preset's 39), which halves a thread's Welch buffers (to 1.6 MB at the
preset) and keeps the bits of one sum over all.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import db_to_ratio
from .spectrum import SpectrumTrace, TraceLabel

RNG_ALGORITHM = "philox4x64"

# Noise-equivalent bandwidth of the Hann window, in frequency bins.
HANN_NENB_BINS = 1.5

# Most samples one sweep may synthesize, `TraceConfig.synthesized_samples`
# (0.1 s at 100 MS/s).  Each sweep thread's buffers and a call's shaping gains
# peak at about 29 bytes per synthesized sample for one shaped reference and 45
# for two with a tone (tracemalloc), 0.29 and 0.45 GB per thread at this cap.
MAX_SAMPLES_PER_SWEEP = 10_000_000

# Most samples one run may synthesize, sweeps x `synthesized_samples` x shaped
# references.  On one CPU of a 2-vCPU host a sweep costs about 34 ns per
# synthesized sample and reference at the preset (20 sweeps in 72 ms) and
# 56-84 ns for sweeps of 1000 samples (2000 sweeps of two references in
# 224-335 ms), so this cap is 9-23 hours of one CPU: a run past it (2**128
# sweeps, say) would not finish and is refused.
MAX_RUN_SAMPLES = 10**12

# Least work, in synthesized samples times shaped references, of one task of
# consecutive sweeps in `averaged_psd`.  On a 2-vCPU host a task run on a pool
# thread cost about 0.6 ms of CPU beyond its sweeps, half a sweep of 2 x 10 000
# samples: 10 such sweeps took 19.0 ms of CPU as one task each on two threads
# and 13.1 ms on the calling thread.  2**18 was picked from 2**16..2**20 on the
# benchmark's two tracesim workloads (BENCH_task_grouping.json).  A run of at
# most one such task per CPU is cut into one task per thread, of
# MIN_TASK_SAMPLES / 4 or more on average.
MIN_TASK_SAMPLES = 1 << 18

# Least synthesized samples per sweep for which `averaged_psd` runs a call on
# more than one thread.  On a 2-vCPU host (two references; median wall ratio
# over the calling thread alone): an even split of one task per CPU (15-25
# alternating blocks of 20 calls; BENCH_short_split.json) lost 1.44-1.55x on
# sweeps of 1000 samples at 10 to 131 sweeps and 1.07-1.31x on 4000-4096, and
# from 2**13 samples runs of 2 x MIN_TASK_SAMPLES / 4 or more gained: 0.87-0.89
# at 2**13, 0.72-0.82 at 2**14 and 0.74 on the benchmark's 10 sweeps of 2 x
# 10 000 samples, for 1.13x the CPU.  Smaller runs of such sweeps read
# 0.93-1.15 at 2 to 4 sweeps and 0.77-0.80 at 5 and 6, so the share errs on
# the side of the calling thread.  Runs of more tasks than CPUs read alike
# (two sets of medians of 15 calls; BENCH_one_dispatch.json): a pool of two
# threads lost 1.52-1.82x at 400 and 2000 sweeps of 1000 samples and
# 1.11-1.44x at 4000, read 0.91-0.98 at 6000, and two threads gained 0.73-0.86
# from 2**13 to 15 500 samples.
SPLIT_SWEEP_SAMPLES = 1 << 13


@dataclass(frozen=True)
class TraceConfig:
    sample_rate: float = 100e6  # S/s
    duration: float = 1e-3  # s per sweep
    sweeps: int = 100
    rbw: float = 30e3  # Hz, resolution bandwidth
    vbw: float | None = 10e3  # Hz, video bandwidth; None = no video filter
    seed: int = 0
    electronic_floor_db: float | None = None  # dB rel. shot; None = no electronic noise

    def __post_init__(self):
        for name in ("sweeps", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        for name in ("sample_rate", "duration", "rbw", "vbw"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:  # None: no video filter
                raise ValueError(f"{name} must be {'> 0' if math.isfinite(value) else 'finite'}, got {value}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if not 0 <= self.seed < 2**128:  # the Philox key is 128 bits
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        # compared as floats first: the integer sample counts overflow on inf
        if HANN_NENB_BINS * self.sample_rate / self.rbw > MAX_SAMPLES_PER_SWEEP:
            raise ValueError(f"rbw too narrow: one segment would exceed {MAX_SAMPLES_PER_SWEEP} samples")
        if self.sample_rate * self.duration + self.segment_length > MAX_SAMPLES_PER_SWEEP:
            raise ValueError(f"duration gives more than {MAX_SAMPLES_PER_SWEEP} synthesized samples per sweep")
        if self.samples_per_sweep < self.segment_length:
            raise ValueError(
                "duration too short for the requested RBW: "
                f"{self.samples_per_sweep} samples < segment of {self.segment_length}"
            )
        # compared as floats: rbw/vbw is inf for a subnormal vbw
        if self.vbw is not None and self.rbw / self.vbw > self.psd_bins:
            raise ValueError(
                f"vbw too narrow: rbw/vbw = {self.rbw / self.vbw:g} exceeds the {self.psd_bins} PSD bins"
            )
        self.check_run(1)
        if self.electronic_floor_db is not None:
            self.check_level(self.electronic_floor_db, "electronic_floor_db")

    def check_run(self, references: int) -> None:
        """Refuse a run of `references` shaped references that synthesizes more than MAX_RUN_SAMPLES."""
        most = MAX_RUN_SAMPLES // (self.synthesized_samples * references)
        if self.sweeps > most:
            raise ValueError(f"sweeps must be <= {most} at {references} reference(s) of {self.synthesized_samples} "
                             f"synthesized samples a sweep ({MAX_RUN_SAMPLES:.0e} in all), got {self.sweeps}")

    def check_level(self, db: float, name: str) -> None:
        """Refuse the level `name` (the floor, a target's top, the tone) at `db` dB rel. shot unless its ratio times
        segment_length**2, synthesized_samples (squared gain) and segment_length * sweeps (sweep sum) is finite."""
        try:
            ratio = db_to_ratio(db)
        except ValueError:
            raise ValueError(f"{name} must give a finite power ratio, got {db} dB") from None
        n = self.segment_length
        if not math.isfinite(ratio * float(max(n * n, self.synthesized_samples, n * self.sweeps))):
            raise ValueError(f"{name} must keep the periodogram finite, got {db} dB")

    def check_frequency(self, freq: float, name: str) -> None:
        """Refuse the frequency `name` unless it lies in (0, Nyquist)."""
        nyquist = self.sample_rate / 2.0
        if not 0.0 < freq < nyquist:
            raise ValueError(f"{name} = {freq:g} Hz must lie in (0, Nyquist), and "
                             f"Nyquist = trace.sample_rate / 2 = {nyquist:g} Hz")

    @cached_property  # the config is frozen: each size is computed once per instance
    def samples_per_sweep(self) -> int:
        return int(round(self.sample_rate * self.duration))

    @cached_property
    def synthesized_samples(self) -> int:
        """Samples a sweep synthesizes: the retained ones and one discarded warm-up segment."""
        return self.samples_per_sweep + self.segment_length

    @cached_property
    def segment_length(self) -> int:
        """Periodogram segment length such that Hann NENB = RBW."""
        n = int(round(HANN_NENB_BINS * self.sample_rate / self.rbw))
        return max(n, 8)

    @property
    def psd_bins(self) -> int:
        """Bins of the estimated PSD: the segment's rFFT bins less DC and the last."""
        return self.segment_length // 2 - 1

    @property
    def vbw_bins(self) -> int:
        """Width of the video-bandwidth moving average, in frequency bins."""
        return 1 if self.vbw is None else max(1, int(round(self.rbw / self.vbw)))


@dataclass
class PhotocurrentTrace:
    """Shot-noise-normalized photocurrent samples (unit white variance = shot)."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.isfinite(self.samples).all():
            raise ValueError("trace contains non-finite samples")


def sweep_rng(cfg: TraceConfig, sweep_index: int) -> np.random.Generator:
    """Independent, reproducible generator for one sweep: Philox keyed by the seed, the sweep
    index the counter's top 128 bits, the stream of `Philox(key=seed).jumped(sweep_index)`."""
    try:
        k = operator.index(sweep_index)
    except TypeError:
        raise ValueError(f"sweep_index must be an integer, got {sweep_index!r}") from None
    if not 0 <= k < 1 << 128:
        raise ValueError(f"sweep_index must be in [0, 2**128), got {k}")
    return np.random.Generator(np.random.Philox(key=cfg.seed, counter=k << 128))


def tone_amplitude_for_db(db_rel_shot: float, cfg: TraceConfig) -> float:
    """Sinusoid amplitude whose peak sits `db_rel_shot` above (or below, if
    negative) the shot-noise floor in one RBW bin, before the VBW mean.

    Welch reads a bin-centred tone of amplitude a at a**2 * segment_length / 6, so with
    `vbw=None` it displays at this level for every segment length.  The default 3-bin VBW
    mean spreads the Hann main lobe (1/4, 1, 1/4) over 3 bins: +10 dB displays 6.99 dB.
    """
    cfg.check_level(db_rel_shot, "tone")
    return math.sqrt(db_to_ratio(db_rel_shot) / (cfg.segment_length / 6.0))


def _sweep_invariants(
    cfg: TraceConfig, targets: list[SpectrumTrace | None], tone: tuple[float, float] | None
) -> list[tuple[np.ndarray | np.complex64, float, np.ndarray | None]]:
    """Per target, what every sweep shares over the block of
    `total = cfg.synthesized_samples` samples.  The gain
    sqrt(total/2 * (target + floor)) on its rFFT grid turns a `_draw_spectrum`
    draw into the block's shaped rFFT; it is kept as its shape, gain / max
    gain in complex64 (the scalar 1 for a white target), and its
    float64 scale, the max gain.  Last comes the tone waveform, one array for
    all (None: no tone)."""
    total = cfg.synthesized_samples
    half = total / 2
    floor = 0.0 if cfg.electronic_floor_db is None else db_to_ratio(cfg.electronic_floor_db)
    shapes, wave = [], None
    for target in targets:
        if target is not None:
            if not target.frequencies.size:
                raise ValueError("the target spectrum must have at least one point")
            cfg.check_frequency(target.frequencies[-1], "the target spectrum top")
            cfg.check_level(target.values_db.max(), "the target spectrum")
        # > 0: ratio_at reads 1 above the target's top, which lies below Nyquist
        ratio = 1.0 if target is None else target.ratio_at(np.fft.rfftfreq(total, d=1.0 / cfg.sample_rate))
        gain = np.sqrt(half * (ratio + floor))
        scale = gain.max()
        shapes.append(((gain / scale).astype(np.complex64), scale))
    if tone is not None:
        freq, amplitude = tone
        cfg.check_frequency(freq, "the tone")
        if amplitude:  # the level it stands for, by tone_amplitude_for_db's law; 0 is no tone
            cfg.check_level(20.0 * math.log10(abs(amplitude)) + 10.0 * math.log10(cfg.segment_length / 6.0),
                            "the tone amplitude")
        t = np.arange(cfg.segment_length, total) / cfg.sample_rate  # the retained samples' times
        wave = amplitude * np.cos(2.0 * np.pi * freq * t)
    return [(shape, scale, wave) for shape, scale in shapes]


class _Workspace:
    """One sweep thread's state for `samples` retained samples of `cfg`, reused
    by every sweep it runs: the periodic Hann window of `segment_length` points,
    scaled by 2**-j with 4**j >= the segment count so the Welch sum over segments
    stays within the largest segment's power (a power of two scales every
    rounding exactly, and the sum of squares it is divided by carries the same
    4**-j, so the PSD's bits do not change), and its sum of squares; the draw, the rFFT bins of the `samples +
    segment_length` synthesized ones; one complex buffer, `spectrum`, of as
    many bins, that holds a reference's float32 irFFT block and then one block
    of segment spectra; the trace, `time`, whose buffer first holds the
    complex64 shaped spectrum; and one block of windowed segments, as many as
    their spectra fit in `spectrum`, at least one and at most the sweep's
    (in every mode).  For one reference the draw is `spectrum`, consumed by the
    cast into `time`; for more it has its own, kept for the next.  No
    `references` leaves out the draw and trace (Welch only), no `welch` the
    segments (synthesis only)."""

    def __init__(self, cfg: TraceConfig, samples: int | None = None, references: int = 1, welch: bool = True):
        n = cfg.segment_length
        samples = cfg.samples_per_sweep if samples is None else samples
        total = samples + n
        nseg = 1 + (samples - n) // (n - n // 2) if welch else 0
        bins = total // 2 + 1
        j = -(-(nseg - 1).bit_length() // 2) if welch else 0
        self.window = np.ldexp(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n), -j)
        self.window_sum_sq = np.sum(self.window**2)
        self.spectrum = np.empty(bins, dtype=complex)
        self.draw = self.spectrum if references == 1 else np.empty(bins if references else 0, dtype=complex)
        self.time = np.empty(total if references else 0)
        self.segments = np.empty((min(nseg, bins // (n // 2 + 1)), n))  # one block; bins > n // 2 as samples >= n


def _draw_spectrum(cfg: TraceConfig, sweep_index: int, draw: np.ndarray) -> None:
    """Fill `draw`, the rFFT bins of the sweep's synthesized block, with that
    block's white noise drawn as its rFFT over sqrt(total/2): each bin's real
    and imaginary parts unit normals, the real DC and (for an even block)
    Nyquist bins of variance 2, whose imaginary parts irFFT ignores."""
    sweep_rng(cfg, sweep_index).standard_normal(2 * draw.size, out=draw.view(float))
    draw[0] *= math.sqrt(2.0)
    if cfg.synthesized_samples % 2 == 0:
        draw[-1] *= math.sqrt(2.0)


def synthesize_trace(
    cfg: TraceConfig,
    target_spectrum: SpectrumTrace | None = None,
    tone: tuple[float, float] | None = None,
    sweep_index: int = 0,
    *,
    invariants: tuple[np.ndarray | np.complex64, float, np.ndarray | None] | None = None,
    workspace: _Workspace | None = None,
) -> PhotocurrentTrace:
    """One sweep of noise shaped to the target plus the electronic floor, and a tone.

    `target_spectrum` is the wanted one-sided PSD in shot-noise units (None
    means flat shot noise); `tone` is (frequency_hz, amplitude) of a
    deterministic sinusoid.  One warm-up segment is irFFT'd, but neither scaled
    nor toned, and discarded so the retained block is free of the circular-shaping seam.
    A caller synthesizing many sweeps passes `invariants`, an item of
    `_sweep_invariants`, in place of those two, and a `_Workspace` for `cfg`
    whose `draw` holds the sweep's `_draw_spectrum` draw (a call without one
    makes a synthesis-only workspace and draws into it).  The shape's irFFT
    runs in single precision, which resolves about 90 dB of target span; the
    scale and tone are applied in double precision, so levels past float32's
    range stay finite.  The returned samples are a view of the workspace's
    `time`.
    """
    if invariants is None:
        invariants = _sweep_invariants(cfg, [target_spectrum], tone)[0]
    shape, scale, wave = invariants
    total = cfg.synthesized_samples
    if workspace is None:
        workspace = _Workspace(cfg, welch=False)
        _draw_spectrum(cfg, sweep_index, workspace.draw)
    spec = workspace.time.view(np.complex64)[: total // 2 + 1]
    np.multiply(workspace.draw, shape, out=spec, dtype=np.complex64, casting="same_kind")
    low = np.fft.irfft(spec, n=total, out=workspace.spectrum.view(np.float32)[:total])
    n = cfg.segment_length  # the warm-up, which nothing reads
    out = np.multiply(low[n:], scale, out=workspace.time[n:], dtype=float)
    if wave is not None:
        out += wave
    return PhotocurrentTrace(out)


def _welch_ratio(x: np.ndarray, cfg: TraceConfig, workspace: _Workspace | None = None) -> np.ndarray:
    """One-sided Welch PSD normalized so unit-variance white noise reads 1.

    Periodic Hann segments of `segment_length` at 50 % overlap, no detrend,
    with the window and buffers of `workspace` (a `_Workspace` for `x.size`
    samples; a fresh one if None); a trailing part shorter than one step is
    not used.  Each block of `workspace.segments` rows is windowed,
    transformed as one 2-D rFFT and squared, and its power rows summed by one
    reduce whose first row holds the running sum, so the additions run in the
    segment order, and give the bits, of one reduce over every segment.
    """
    n = cfg.segment_length
    if x.ndim != 1 or x.size < n:  # the strided view below trusts x.strides[0] as the sample stride
        raise ValueError(f"need a 1-D trace of at least one segment of {n} samples, got shape {x.shape}")
    ws = _Workspace(cfg, x.size, references=0) if workspace is None else workspace
    step = n - n // 2  # the 50 %-overlap segments as one read-only view, cheaper than sliding_window_view
    segments = np.lib.stride_tricks.as_strided(
        x, (1 + (x.size - n) // step, n), (step * x.strides[0], x.strides[0]), writeable=False)
    power = None
    for start in range(0, len(segments), len(ws.segments)):
        block = segments[start : start + len(ws.segments)]
        shape = (len(block), n // 2 + 1)
        spec = np.fft.rfft(np.multiply(block, ws.window, out=ws.segments[: shape[0]]), axis=1,
                           out=ws.spectrum[: shape[0] * shape[1]].reshape(shape))
        # |X|^2 in place through the float view: square, then add the re and im columns
        parts = spec.view(float)
        np.square(parts, out=parts)
        rows = np.add(parts[:, 0::2], parts[:, 1::2], out=parts[:, 0::2])
        if power is not None:  # the running sum goes first, so the reduce adds in one-block order
            rows[0] += power
        power = np.add.reduce(rows, axis=0)
    # np.mean's sum / count; a one-sided density 2|X|^2 / (fs sum w^2) reads 2/fs for
    # unit-variance white noise; drop the DC and last bins, whose one-sided scaling differs
    return (power / len(segments))[1:-1] / ws.window_sum_sq


def _ratio_to_trace(ratio: np.ndarray, cfg: TraceConfig, label: TraceLabel) -> SpectrumTrace:
    """VBW-smooth a `_welch_ratio` PSD; return it on its grid in dB relative to shot noise."""
    # moving mean of m bins, the edge bins repeated beyond either end; m = 1 returns the same bits
    m = cfg.vbw_bins
    padded = np.concatenate((np.full(m // 2, ratio[0]), ratio, np.full((m - 1) // 2, ratio[-1])))
    ratio = np.convolve(padded, np.ones(m), "valid") / m
    # clamp for the log: a zero-power bin reads -3000 dB rather than -inf
    ratio = np.maximum(ratio, 1e-300)
    freqs = np.fft.rfftfreq(cfg.segment_length, d=1.0 / cfg.sample_rate)[1:-1]
    return SpectrumTrace(freqs, 10.0 * np.log10(ratio), label)


def estimate_psd(trace: PhotocurrentTrace, cfg: TraceConfig) -> SpectrumTrace:
    """Averaged-periodogram PSD of one trace, sampled at `cfg.sample_rate`, in dB relative to shot noise."""
    return _ratio_to_trace(_welch_ratio(trace.samples, cfg), cfg, TraceLabel.SHOT_NOISE)


def averaged_psd(
    cfg: TraceConfig,
    target_spectrum: SpectrumTrace | None | list[tuple[SpectrumTrace | None, TraceLabel]] = None,
    tone: tuple[float, float] | None = None,
    label: TraceLabel = TraceLabel.SHOT_NOISE,
) -> SpectrumTrace | list[SpectrumTrace]:
    """Sweep-averaged PSD: `cfg.sweeps` independently synthesized traces,
    periodogram-averaged in the power domain, then VBW-smoothed.

    Given a list of (target, label) references for `target_spectrum`, it returns
    one PSD per reference, each bit-identical to a one-reference call: a sweep
    makes one draw and takes one irFFT and one periodogram per reference.

    The sweeps are cut into tasks, even runs of consecutive sweeps, as many
    as it takes runs of the fewest sweeps that hold `MIN_TASK_SAMPLES`
    synthesized samples times references to cover them.  One loop runs the
    tasks on the calling thread and on `threads - 1` helper threads: thread t
    runs task t, then the next task nobody has taken, at most two tasks per
    thread ahead of the fold.  Finished tasks' periodograms are folded in task
    order, hence summed in sweep order, so the result is bit-identical for any
    tasks and any number of threads.  `threads` is 1 when a sweep synthesizes
    fewer than `SPLIT_SWEEP_SAMPLES` samples, else the CPU count when the
    tasks outnumber the CPUs, else one per task, the run then cut into one
    task per `MIN_TASK_SAMPLES / 4` of its work, at most one per CPU and per
    sweep.  A thread's error is raised here once every helper has joined.  A
    run that synthesizes more than `MAX_RUN_SAMPLES` samples times references
    is refused.
    """
    single = not isinstance(target_spectrum, list)
    references = [(target_spectrum, label)] if single else target_spectrum
    if not references:
        raise ValueError("target_spectrum must list at least one (target, label) reference, got []")
    cfg.check_run(len(references))
    invariants = _sweep_invariants(cfg, [target for target, _ in references], tone)

    per_sweep = cfg.synthesized_samples * len(invariants)
    per_task = -(-MIN_TASK_SAMPLES // per_sweep)  # the fewest sweeps that hold MIN_TASK_SAMPLES
    ntasks = -(-cfg.sweeps // per_task)
    # the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cfg.synthesized_samples < SPLIT_SWEEP_SAMPLES:
        threads = 1
    elif ntasks > cpus:
        threads = cpus
    else:  # one task per MIN_TASK_SAMPLES / 4 of the run's work, at most one per CPU and per sweep
        threads = ntasks = max(1, min(cpus, cfg.sweeps, cfg.sweeps * per_sweep // (MIN_TASK_SAMPLES // 4)))
    accs = [0.0] * len(invariants)
    done: dict[int, list[list[np.ndarray]]] = {}  # finished tasks' per-sweep periodograms, until folded
    cond = threading.Condition()
    # tasks handed out, thread t's first task t and at most two a thread ahead of the fold, and tasks folded
    taken, folded, error = threads, 0, None

    def fail(exc: BaseException) -> None:
        nonlocal error
        with cond:
            error = exc if error is None else error
            cond.notify_all()

    def work(i: int) -> None:
        nonlocal accs, taken, folded
        try:
            ws = _Workspace(cfg, references=len(invariants))
            while True:
                ratios = []
                for k in range(cfg.sweeps * i // ntasks, cfg.sweeps * (i + 1) // ntasks):
                    _draw_spectrum(cfg, k, ws.draw)
                    ratios.append([_welch_ratio(synthesize_trace(cfg, invariants=inv, workspace=ws).samples,
                                                cfg, ws) for inv in invariants])
                with cond:
                    done[i] = ratios
                    while folded in done:  # in task order, so the sums run in sweep order
                        for sweep_ratios in done.pop(folded):
                            accs = [acc + ratio for acc, ratio in zip(accs, sweep_ratios)]
                        folded += 1
                    cond.notify_all()
                    cond.wait_for(lambda: error is not None or not folded + 2 * threads <= taken < ntasks)
                    if error is not None or taken == ntasks:
                        return
                    i, taken = taken, taken + 1
        except BaseException as exc:  # raised by the caller once every helper has joined
            fail(exc)

    helpers = []
    try:
        for t in range(1, threads):
            helper = threading.Thread(target=work, args=(t,))
            helper.start()
            helpers.append(helper)
        work(0)
    except BaseException as exc:  # a helper that did not start: the started ones stop after their task
        fail(exc)
    for helper in helpers:
        helper.join()
    if error is not None:
        raise error
    psds = [_ratio_to_trace(a / cfg.sweeps, cfg, lab) for a, (_, lab) in zip(accs, references)]
    return psds[0] if single else psds
