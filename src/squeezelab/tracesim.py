"""Time-domain photocurrent synthesis and spectrum-analyzer-style PSD estimation.

Noise traces are white Gaussian samples shaped in the frequency domain so
their one-sided PSD matches a target spectrum (in shot-noise units), with an
optional white electronic floor and a deterministic modulation tone.  The
estimator is Welch's averaged periodogram with a periodic Hann window at 50 %
overlap, whose segment length is set so the window's noise-equivalent
bandwidth equals the requested RBW; the video bandwidth is a post-detection
moving average in the power domain.

Everything is reproducible: the pseudorandom source is a counter-based
Philox generator keyed by the config seed, with one jump per sweep, so
identical configs give bit-identical traces and spectra.  Sweeps run on a
thread pool and their periodograms are summed in sweep order, so the result
does not depend on the number of threads.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gaussian import db_to_ratio
from .spectrum import SpectrumTrace, TraceLabel

RNG_ALGORITHM = "philox4x64"

# Noise-equivalent bandwidth of the Hann window, in frequency bins.
HANN_NENB_BINS = 1.5

# Most samples one sweep may synthesize (0.1 s at 100 MS/s); a sweep's
# working arrays peak at about 45 bytes per sample, 0.45 GB at this cap.
MAX_SAMPLES_PER_SWEEP = 10_000_000


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
        if self.sample_rate <= 0.0 or self.duration <= 0.0:
            raise ValueError("sample_rate and duration must be > 0")
        if self.rbw <= 0.0:
            raise ValueError("rbw must be > 0")
        if self.vbw is not None and self.vbw <= 0.0:
            raise ValueError("vbw must be > 0")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # compared as floats first: the integer sample counts overflow on inf
        if self.sample_rate * self.duration > MAX_SAMPLES_PER_SWEEP:
            raise ValueError(f"duration gives more than {MAX_SAMPLES_PER_SWEEP} samples per sweep")
        if HANN_NENB_BINS * self.sample_rate / self.rbw > MAX_SAMPLES_PER_SWEEP:
            raise ValueError(f"rbw too narrow: one segment would exceed {MAX_SAMPLES_PER_SWEEP} samples")
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
        if self.electronic_floor_db is not None:
            try:
                db_to_ratio(self.electronic_floor_db)
            except ValueError as exc:
                raise ValueError(f"electronic_floor_db {exc}") from None

    @property
    def samples_per_sweep(self) -> int:
        return int(round(self.sample_rate * self.duration))

    @property
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
        if self.vbw is None or self.vbw >= self.rbw:
            return 1
        return max(1, int(round(self.rbw / self.vbw)))


@dataclass
class PhotocurrentTrace:
    """Shot-noise-normalized photocurrent samples (unit white variance = shot)."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("trace contains non-finite samples")


def sweep_rng(cfg: TraceConfig, sweep_index: int) -> np.random.Generator:
    """Independent, reproducible generator for one sweep."""
    return np.random.Generator(np.random.Philox(key=cfg.seed).jumped(sweep_index))


def tone_amplitude_for_db(db_rel_shot: float, cfg: TraceConfig) -> float:
    """Sinusoid amplitude whose displayed peak sits `db_rel_shot` above (or
    below, if negative) the shot-noise floor in one RBW bin."""
    return 2.0 * np.sqrt(10.0 ** (db_rel_shot / 10.0) * cfg.rbw / cfg.sample_rate)


def _sweep_invariants(
    cfg: TraceConfig, target: SpectrumTrace | None, tone: tuple[float, float] | None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """What every sweep of one config shares, over the synthesized block of
    `samples_per_sweep + segment_length` samples: the shaping gain on its rFFT
    grid (None: white) and the tone waveform (None: no tone)."""
    nyquist = cfg.sample_rate / 2.0
    total = cfg.samples_per_sweep + cfg.segment_length
    gain = wave = None
    if target is not None:
        if target.frequencies.size and target.frequencies[-1] >= nyquist:
            raise ValueError(
                "under-sampled configuration: target spectrum extends to "
                f"{target.frequencies[-1]:g} Hz, Nyquist is {nyquist:g} Hz"
            )
        gain = np.sqrt(target.ratio_at(np.fft.rfftfreq(total, d=1.0 / cfg.sample_rate)))
    if tone is not None:
        freq, amplitude = tone
        if freq >= nyquist:
            raise ValueError(f"tone at {freq:g} Hz is above Nyquist ({nyquist:g} Hz)")
        t = np.arange(total) / cfg.sample_rate
        wave = amplitude * np.cos(2.0 * np.pi * freq * t)
    return gain, wave


def synthesize_trace(
    cfg: TraceConfig,
    target_spectrum: SpectrumTrace | None = None,
    tone: tuple[float, float] | None = None,
    sweep_index: int = 0,
    *,
    invariants: tuple[np.ndarray | None, np.ndarray | None] | None = None,
) -> PhotocurrentTrace:
    """One sweep of shaped Gaussian noise, electronic floor and optional tone.

    `target_spectrum` is the wanted one-sided PSD in shot-noise units (None
    means flat shot noise); `tone` is (frequency_hz, amplitude) of a
    deterministic sinusoid.  One segment of warm-up samples is synthesized
    and discarded so the retained block is free of the circular-shaping seam.
    A caller synthesizing many sweeps passes `invariants`, the result of
    `_sweep_invariants(cfg, target_spectrum, tone)`, in place of those two.
    """
    if invariants is None:
        invariants = _sweep_invariants(cfg, target_spectrum, tone)
    gain, wave = invariants
    warmup = cfg.segment_length
    total = cfg.samples_per_sweep + warmup
    rng = sweep_rng(cfg, sweep_index)

    x = rng.standard_normal(total)
    if gain is not None:
        spec = np.fft.rfft(x)
        spec *= gain
        x = np.fft.irfft(spec, n=total)
    # drawn after the white noise, from the same generator
    if cfg.electronic_floor_db is not None:
        x += np.sqrt(db_to_ratio(cfg.electronic_floor_db)) * rng.standard_normal(total)
    if wave is not None:
        x += wave
    return PhotocurrentTrace(x[warmup:], cfg.sample_rate)


def _welch_ratio(x: np.ndarray, cfg: TraceConfig) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch PSD normalized so unit-variance white noise reads 1.

    Periodic Hann segments of `segment_length` at 50 % overlap, no detrend,
    transformed as one 2-D rFFT; a trailing part shorter than one step is
    not used.
    """
    n = cfg.segment_length
    if x.size < n:
        raise ValueError(f"insufficient samples: {x.size} < segment of {n}")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    segments = np.lib.stride_tricks.sliding_window_view(x, n)[:: n - n // 2]
    spec = np.fft.rfft(segments * window, axis=1)
    power = np.mean(spec.real**2 + spec.imag**2, axis=0)
    # a one-sided density 2|X|^2 / (fs sum w^2) reads 2/fs for unit-variance
    # white noise; drop the DC and last bins, whose one-sided scaling differs
    freqs = np.fft.rfftfreq(n, d=1.0 / cfg.sample_rate)
    return freqs[1:-1], power[1:-1] / np.sum(window**2)


def _ratio_to_trace(
    freqs: np.ndarray, ratio: np.ndarray, cfg: TraceConfig, label: TraceLabel
) -> SpectrumTrace:
    """VBW-smooth a PSD ratio and return it in dB relative to shot noise."""
    m = cfg.vbw_bins
    if m > 1:
        # moving mean of m bins, the edge bins repeated beyond either end
        padded = np.pad(ratio, (m // 2, (m - 1) // 2), mode="edge")
        ratio = np.convolve(padded, np.ones(m), "valid") / m
    # clamp for the log: a zero-power bin reads -3000 dB rather than -inf
    ratio = np.maximum(ratio, 1e-300)
    return SpectrumTrace(freqs, 10.0 * np.log10(ratio), label)


def estimate_psd(
    trace: PhotocurrentTrace,
    cfg: TraceConfig,
    label: TraceLabel = TraceLabel.SHOT_NOISE,
) -> SpectrumTrace:
    """Averaged-periodogram PSD of one trace, in dB relative to shot noise."""
    freqs, ratio = _welch_ratio(trace.samples, cfg)
    return _ratio_to_trace(freqs, ratio, cfg, label)


def averaged_psd(
    cfg: TraceConfig,
    target_spectrum: SpectrumTrace | None = None,
    tone: tuple[float, float] | None = None,
    label: TraceLabel = TraceLabel.SHOT_NOISE,
) -> SpectrumTrace:
    """Sweep-averaged PSD: `cfg.sweeps` independently synthesized traces,
    periodogram-averaged in the power domain, then VBW-smoothed.

    Sweeps run on one thread per CPU; their periodograms are summed in sweep
    order, so the result is bit-identical for any number of threads.
    """
    invariants = _sweep_invariants(cfg, target_spectrum, tone)

    def sweep(k: int) -> tuple[np.ndarray, np.ndarray]:
        trace = synthesize_trace(cfg, sweep_index=k, invariants=invariants)
        return _welch_ratio(trace.samples, cfg)

    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(min(cpus, cfg.sweeps)) as ex:
        periodograms = ex.map(sweep, range(cfg.sweeps))
        freqs, acc = next(periodograms)
        for _, ratio in periodograms:
            acc += ratio
    return _ratio_to_trace(freqs, acc / cfg.sweeps, cfg, label)
