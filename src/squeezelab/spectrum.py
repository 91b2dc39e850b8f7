"""Analytic squeezing/antisqueezing spectrum of the below-threshold OPA.

The intracavity parametric interaction produces a negative-Lorentzian
squeezing spectrum centered at zero sideband frequency,

    S-(w) = 1 - 4x / [(1+x)^2 + (w/g)^2]   (squeezed quadrature)
    S+(w) = 1 + 4x / [(1-x)^2 + (w/g)^2]   (antisqueezed quadrature)

with x = sqrt(P_pump / P_threshold) and g the cavity half linewidth (HWHM).
The detected spectrum degrades the ideal one by cavity escape efficiency,
detection losses and residual phase jitter.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import gaussian

# Fig.-2-style default analysis grid: 1-25 MHz in 30 kHz steps.
DEFAULT_GRID_START = 1e6
DEFAULT_GRID_STOP = 25e6
DEFAULT_GRID_STEP = 30e3
CSV_CHUNK_ROWS = 4096  # rows formatted per write, so memory does not grow with the row count


class TraceLabel(enum.Enum):
    SQUEEZED_QUADRATURE = "squeezed_quadrature"
    ANTISQUEEZED_QUADRATURE = "antisqueezed_quadrature"
    SHOT_NOISE = "shot_noise"
    ELECTRONIC_NOISE = "electronic_noise"


@dataclass(frozen=True)
class OpaOperatingPoint:
    """Below-threshold operating point of the parametric amplifier."""

    pump_power: float  # W
    threshold_power: float  # W
    cavity_hwhm: float  # Hz, half the cavity FWHM

    def __post_init__(self):
        if self.threshold_power <= 0.0:
            raise ValueError("threshold_power must be > 0")
        if not (0.0 <= self.pump_power < self.threshold_power):
            raise ValueError(
                "pump_power must satisfy 0 <= P_p < P_th (below-threshold), "
                f"got P_p={self.pump_power}, P_th={self.threshold_power}"
            )
        if self.cavity_hwhm <= 0.0:
            raise ValueError("cavity_hwhm must be > 0")

    @property
    def pump_ratio_x(self) -> float:
        """Normalized pump amplitude x = sqrt(P_p / P_th), in [0, 1)."""
        return math.sqrt(self.pump_power / self.threshold_power)


@dataclass(frozen=True)
class DetectionChain:
    """Loss and phase-jitter budget between the OPA output and the detector."""

    quantum_efficiency: float = 0.95
    homodyne_contrast: float = 0.96
    propagation_efficiency: float = 0.94
    escape_efficiency: float = 1.0
    phase_jitter_rms: float = 0.0  # radians

    def __post_init__(self):
        for name in ("quantum_efficiency", "homodyne_contrast", "propagation_efficiency", "escape_efficiency"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        # the antisqueezed quadrature sits pi/2 - sigma from the squeezed axis
        if not (0.0 <= self.phase_jitter_rms <= math.pi / 2):
            raise ValueError(f"phase_jitter_rms must be in [0, pi/2], got {self.phase_jitter_rms}")
        if not self.total_efficiency > 0.0:
            raise ValueError("quantum_efficiency, homodyne_contrast, propagation_efficiency and "
                             "escape_efficiency must give a total_efficiency > 0; their product underflows")

    @property
    def detection_efficiency(self) -> float:
        """eta = QE * contrast^2 * propagation; the fringe contrast enters squared (mode overlap)."""
        return self.quantum_efficiency * self.homodyne_contrast**2 * self.propagation_efficiency

    @property
    def total_efficiency(self) -> float:
        return self.escape_efficiency * self.detection_efficiency


@dataclass
class SpectrumTrace:
    """Frequency-indexed noise power relative to shot noise, in dB."""

    frequencies: np.ndarray
    values_db: np.ndarray
    label: TraceLabel

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.values_db = np.asarray(self.values_db, dtype=float)
        if self.frequencies.shape != self.values_db.shape:
            raise ValueError("frequencies and values_db must have equal length")
        if self.frequencies.size and np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    def ratio(self) -> np.ndarray:
        """Linear power ratio relative to shot noise."""
        return 10.0 ** (self.values_db / 10.0)

    def ratio_at(self, freqs) -> np.ndarray:
        """Linear ratio interpolated onto `freqs`.

        Holds the low-frequency edge value below the grid and returns to
        shot noise (ratio 1) above it.
        """
        return np.interp(np.asarray(freqs, float), self.frequencies, self.ratio(), right=1.0)


def write_csv(path, header, blocks) -> None:
    """The one CSV format: the header row, then each block of equal-length
    columns as rows, floats as repr, NaN as an empty cell, "\\r\\n" line ends,
    and no quoting, since each cell is a number or a fixed name.  Cells are
    formatted a column chunk at a time, to the same bytes as a cell at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
                cells = []
                for a in (np.asarray(c[start:start + CSV_CHUNK_ROWS]) for c in columns):
                    text = a.dtype.kind == "U"
                    col = a.tolist() if text else list(map(repr, a.tolist()))
                    cells.append(["" if v == "nan" else v for v in col] if not text and "nan" in col else col)
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_traces_csv(path, traces) -> None:
    """Write several traces into one CSV (shared schema, one row per point)."""
    write_csv(path, ("frequency_hz", "value_db", "label"), [
        (t.frequencies, t.values_db, np.broadcast_to(t.label.value, t.frequencies.shape)) for t in traces])


def read_traces_csv(path) -> list[SpectrumTrace]:
    """Traces in file order.  A new trace starts wherever the label changes or
    the frequency stops increasing, so two traces may share a label."""
    blocks: list[tuple[str, list[float], list[float]]] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            f = float(row["frequency_hz"])
            if not blocks or blocks[-1][0] != row["label"] or f <= blocks[-1][1][-1]:
                blocks.append((row["label"], [], []))
            blocks[-1][1].append(f)
            blocks[-1][2].append(float(row["value_db"]))
    return [SpectrumTrace(np.array(f), np.array(v), TraceLabel(label)) for label, f, v in blocks]


def default_frequency_grid(
    start=DEFAULT_GRID_START, stop=DEFAULT_GRID_STOP, step=DEFAULT_GRID_STEP
) -> np.ndarray:
    return np.arange(start, stop + 0.5 * step, step)


def flat_trace(level_db: float, frequencies, label=TraceLabel.SHOT_NOISE) -> SpectrumTrace:
    freqs = np.asarray(frequencies, float)
    return SpectrumTrace(freqs, np.full_like(freqs, float(level_db)), label)


def ideal_spectrum(op: OpaOperatingPoint, omega, quadrature: TraceLabel):
    """Lossless OPA output spectrum at sideband frequency omega (Hz, scalar or array)."""
    x = op.pump_ratio_x
    # a tiny cavity_hwhm overflows w2 to inf, which gives the exact limit S = 1
    with np.errstate(over="ignore"):
        w2 = (np.asarray(omega, dtype=float) / op.cavity_hwhm) ** 2
    if quadrature is TraceLabel.SQUEEZED_QUADRATURE:
        return 1.0 - 4.0 * x / ((1.0 + x) ** 2 + w2)
    if quadrature is TraceLabel.ANTISQUEEZED_QUADRATURE:
        return 1.0 + 4.0 * x / ((1.0 - x) ** 2 + w2)
    raise ValueError(f"not an OPA quadrature: {quadrature}")


def detected_variance(
    op: OpaOperatingPoint,
    chain: DetectionChain,
    omega,
    quadrature: TraceLabel = TraceLabel.SQUEEZED_QUADRATURE,
):
    """Detected quadrature variance at sideband frequency omega (scalar or array).

    Applies the chain's one loss, total_efficiency (escape times detection),
    then the residual phase-jitter mix of the two (equally degraded)
    quadratures at the same frequency.  Jitter rotates the squeezed quadrature
    by sigma away from the squeezed axis and the antisqueezed one by pi/2 - sigma.
    """
    if quadrature is TraceLabel.SQUEEZED_QUADRATURE:
        angle = chain.phase_jitter_rms
    elif quadrature is TraceLabel.ANTISQUEEZED_QUADRATURE:
        angle = math.pi / 2 - chain.phase_jitter_rms
    else:
        raise ValueError(f"not an OPA quadrature: {quadrature}")
    loss = gaussian.LossModel(chain.total_efficiency)
    v_sq = gaussian.apply_loss(ideal_spectrum(op, omega, TraceLabel.SQUEEZED_QUADRATURE), loss)
    v_anti = gaussian.apply_loss(ideal_spectrum(op, omega, TraceLabel.ANTISQUEEZED_QUADRATURE), loss)
    return gaussian.apply_phase_jitter(v_sq, v_anti, angle)


def detected_spectrum(
    op: OpaOperatingPoint,
    chain: DetectionChain,
    omega_grid,
    quadrature: TraceLabel = TraceLabel.SQUEEZED_QUADRATURE,
) -> SpectrumTrace:
    """Detected spectrum over a frequency grid, in dB relative to shot noise."""
    freqs = np.asarray(omega_grid, dtype=float)
    values = gaussian.ratio_to_db(detected_variance(op, chain, freqs, quadrature))
    return SpectrumTrace(freqs, values, quadrature)
