"""Time-domain photocurrent synthesis and spectrum-analyzer-style PSD estimation.

Noise traces are white Gaussian samples shaped in the frequency domain so
their one-sided PSD matches a target spectrum (in shot-noise units), with an
optional white electronic floor and a deterministic modulation tone.  The
estimator is an averaged Hann-windowed periodogram whose segment length is
set so the window's noise-equivalent bandwidth equals the requested RBW; the
video bandwidth is a post-detection moving average in the power domain.

Everything is reproducible: the pseudorandom source is a counter-based
Philox generator keyed by the config seed, with one jump per sweep, so
identical configs give bit-identical traces and spectra.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal
from scipy.ndimage import uniform_filter1d

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

    @property
    def samples_per_sweep(self) -> int:
        return int(round(self.sample_rate * self.duration))

    @property
    def segment_length(self) -> int:
        """Periodogram segment length such that Hann NENB = RBW."""
        n = int(round(HANN_NENB_BINS * self.sample_rate / self.rbw))
        return max(n, 8)

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


def _validate_band(cfg: TraceConfig, target: SpectrumTrace | None, tone) -> None:
    nyquist = cfg.sample_rate / 2.0
    if target is not None and target.frequencies.size:
        if target.frequencies[-1] >= nyquist:
            raise ValueError(
                "under-sampled configuration: target spectrum extends to "
                f"{target.frequencies[-1]:g} Hz, Nyquist is {nyquist:g} Hz"
            )
    if tone is not None:
        freq, _ = tone
        if freq >= nyquist:
            raise ValueError(f"tone at {freq:g} Hz is above Nyquist ({nyquist:g} Hz)")


def synthesize_trace(
    cfg: TraceConfig,
    target_spectrum: SpectrumTrace | None = None,
    tone: tuple[float, float] | None = None,
    sweep_index: int = 0,
) -> PhotocurrentTrace:
    """One sweep of shaped Gaussian noise, electronic floor and optional tone.

    `target_spectrum` is the wanted one-sided PSD in shot-noise units (None
    means flat shot noise); `tone` is (frequency_hz, amplitude) of a
    deterministic sinusoid.  One segment of warm-up samples is synthesized
    and discarded so the retained block is free of the circular-shaping seam.
    """
    _validate_band(cfg, target_spectrum, tone)
    n = cfg.samples_per_sweep
    warmup = cfg.segment_length
    total = n + warmup
    rng = sweep_rng(cfg, sweep_index)

    white = rng.standard_normal(total)
    if target_spectrum is not None:
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(total, d=1.0 / cfg.sample_rate)
        spec *= np.sqrt(target_spectrum.ratio_at(freqs))
        x = np.fft.irfft(spec, n=total)
    else:
        x = white

    if cfg.electronic_floor_db is not None:
        sigma = np.sqrt(10.0 ** (cfg.electronic_floor_db / 10.0))
        x = x + sigma * rng.standard_normal(total)

    if tone is not None:
        freq, amplitude = tone
        t = np.arange(total) / cfg.sample_rate
        x = x + amplitude * np.cos(2.0 * np.pi * freq * t)

    return PhotocurrentTrace(x[warmup:], cfg.sample_rate)


def _welch_ratio(x: np.ndarray, cfg: TraceConfig) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch PSD normalized so unit-variance white noise reads 1."""
    nperseg = cfg.segment_length
    if x.size < nperseg:
        raise ValueError(f"insufficient samples: {x.size} < segment of {nperseg}")
    freqs, pxx = sp_signal.welch(
        x,
        fs=cfg.sample_rate,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
        scaling="density",
    )
    # unit-variance white noise has one-sided density 2/fs; drop the DC and
    # Nyquist bins, whose one-sided scaling convention differs from the rest
    return freqs[1:-1], pxx[1:-1] * cfg.sample_rate / 2.0


def _ratio_to_trace(
    freqs: np.ndarray, ratio: np.ndarray, cfg: TraceConfig, label: TraceLabel
) -> SpectrumTrace:
    """VBW-smooth a PSD ratio and return it in dB relative to shot noise."""
    m = cfg.vbw_bins
    if m > 1:
        ratio = uniform_filter1d(ratio, size=m, mode="nearest")
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
    periodogram-averaged in the power domain, then VBW-smoothed."""
    acc = None
    freqs = None
    for sweep in range(cfg.sweeps):
        trace = synthesize_trace(cfg, target_spectrum, tone, sweep_index=sweep)
        freqs, ratio = _welch_ratio(trace.samples, cfg)
        acc = ratio if acc is None else acc + ratio
    return _ratio_to_trace(freqs, acc / cfg.sweeps, cfg, label)
