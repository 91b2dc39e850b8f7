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
from .gaussian import _require

# Fig.-2-style default analysis grid: 1-25 MHz in 30 kHz steps.
DEFAULT_GRID_START = 1e6
DEFAULT_GRID_STOP = 25e6
DEFAULT_GRID_STEP = 30e3
SQUEEZING_BAND_STOP = 20e6  # Hz, the paper's squeezing bandwidth; below the grid top, so below Nyquist
MAX_GRID_POINTS = 1_000_000  # most points default_frequency_grid gives: 8 MB a float64 array
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
        for name in ("threshold_power", "cavity_hwhm"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be > 0" if value <= 0.0 else f"{name} must be finite, got {value}")
        if not (0.0 <= self.pump_power < self.threshold_power):
            raise ValueError(
                "pump_power must satisfy 0 <= P_p < P_th (below-threshold), "
                f"got P_p={self.pump_power}, P_th={self.threshold_power}"
            )

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
        if self.frequencies.ndim != 1 or self.frequencies.shape != self.values_db.shape:
            raise ValueError("frequencies and values_db must be 1-D arrays of equal length")
        for name in ("frequencies", "values_db"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.frequencies[1:] <= self.frequencies[:-1]):
            raise ValueError("frequencies must be strictly increasing")

    def ratio(self) -> np.ndarray:
        """Linear power ratio relative to shot noise."""
        with np.errstate(over="ignore"):  # values_db above about 3082.5 overflow: refused by name below
            ratio = 10.0 ** (self.values_db / 10.0)
        _require(ratio < math.inf, self.values_db, "values_db must give a finite power ratio")
        return ratio

    def ratio_at(self, freqs) -> np.ndarray:
        """Linear ratio interpolated onto `freqs`.

        Holds the low-frequency edge value below the grid and returns to
        shot noise (ratio 1) above it.
        """
        if not self.frequencies.size:
            raise ValueError("frequencies must hold at least one point to interpolate from")
        return np.interp(np.asarray(freqs, float), self.frequencies, self.ratio(), right=1.0)


def _cells(a: np.ndarray) -> list[str]:
    """A 1-D chunk's cells: text as given, numbers as repr, NaN as "" (floats by orjson: see write_csv)."""
    if a.dtype.kind == "U":
        return a.tolist()
    if a.dtype.kind != "f" or a.size < 16:  # below about 16 cells, orjson's fixed cost exceeds repr's
        cells = list(map(repr, a.tolist()))
        return ["" if v == "nan" else v for v in cells] if "nan" in cells else cells
    import orjson  # here, not at module level, so importing the CLI does not load it
    a = np.ascontiguousarray(a, dtype=np.float64)  # float64 digits, in the native order orjson reads
    cells = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    odd = (~((mag >= 1e-4) & (mag < 1e16)) & (a != 0)).nonzero()[0]  # NaN and ±inf included
    for k, v in zip(odd.tolist(), a[odd].tolist()):
        cells[k] = "" if math.isnan(v) else repr(v)
    return cells


def write_csv(path, header, blocks) -> None:
    """The one CSV format: the header row, then each block of equal-length
    columns as rows, floats as repr, NaN as an empty cell, "\\r\\n" line ends,
    and no quoting, since each cell is a number or a fixed name.  A plain
    `str` column stands for that name on every row of its block.  A block
    needs one column per header name, at least one array column, and its
    array columns 1-D and of one length; otherwise ValueError names the block
    and column.

    Cells are formatted a column chunk at a time, to the same bytes as a cell
    at a time.  A float chunk of 16 or more cells is cast to float64 and
    written by one orjson call: its shortest round-trip digits are repr's,
    and repr itself writes only the cells where orjson's layout differs (NaN,
    ±inf, and nonzero |x| < 1e-4 or >= 1e16, where repr uses an exponent).
    A constant chunk (a `str`, or one whose bytes repeat its first element's)
    is one cell folded into the text between the varying columns, and each
    chunk is one join of those texts and the varying cells.  A chunk whose
    dtype and bytes equal those of the chunk last formatted in its column
    position (blocks often share a grid) reuses its cells."""
    last = {}  # column position -> ((dtype, bytes), cells) of its last formatted chunk
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for b, columns in enumerate(blocks):
            if len(columns) != len(header):
                raise ValueError(f"block {b} has {len(columns)} columns for {len(header)} header names")
            columns = [c if isinstance(c, str) else np.asarray(c) for c in columns]
            shapes = [(name, c.shape) for name, c in zip(header, columns) if not isinstance(c, str)]
            if not shapes:
                raise ValueError(f"block {b} has only str columns, so it has no row count")
            for name, shape in shapes:
                if len(shape) != 1 or shape != shapes[0][1]:
                    raise ValueError(f"block {b} column {name!r} has shape {shape}; its array columns must be "
                                     f"1-D and as long as column {shapes[0][0]!r}, of shape {shapes[0][1]}")
            rows = shapes[0][1][0]
            for start in range(0, rows, CSV_CHUNK_ROWS):
                n = min(CSV_CHUNK_ROWS, rows - start)
                texts, varying = [""], []  # texts[j] precedes varying column j; texts[-1] ends the row
                for i, c in enumerate(columns):
                    texts[-1] += "," if i else ""
                    if isinstance(c, str):
                        texts[-1] += c
                        continue
                    a = c[start:start + CSV_CHUNK_ROWS]
                    # object cells are compared by address, so only plain dtypes are folded or reused
                    key = None if a.dtype.hasobject else (a.dtype.str, a.tobytes())
                    if key is not None and key[1] == key[1][:a.itemsize] * n:
                        texts[-1] += _cells(a[:1])[0]
                        continue
                    if key is None or last.get(i, (None,))[0] != key:
                        last[i] = key, _cells(a)
                    varying.append(last[i][1])
                    texts.append("")
                texts[-1] += "\r\n"
                m = len(varying)
                if not m:
                    fh.write(texts[0] * n)
                    continue
                # row-major cells, each followed by the text up to the next varying cell:
                # after a row's last one, the row end and the next row's start
                flat = [texts[m] + texts[0]] * (2 * m * n)
                for j, cells in enumerate(varying):
                    flat[2 * j::2 * m] = cells
                for j in range(1, m):
                    flat[2 * j - 1::2 * m] = [texts[j]] * n
                flat[-1] = texts[m]
                fh.write(texts[0] + "".join(flat))


def write_traces_csv(path, traces) -> None:
    """Write several traces into one CSV (shared schema, one row per point)."""
    write_csv(path, ("frequency_hz", "value_db", "label"), [
        (t.frequencies, t.values_db, t.label.value) for t in traces])


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
    """start, start + step, ... through stop (within half a step): 1 to MAX_GRID_POINTS points."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        _require(abs(value) < math.inf, value, f"{name} must be finite")
    _require(step > 0.0, step, "step must be > 0")
    _require(start <= stop, stop, f"stop must be >= start = {start}")
    _require((stop + 0.5 * step - start) / step <= MAX_GRID_POINTS, step,
             f"step must give at most {MAX_GRID_POINTS} points from start to stop")
    return np.arange(start, stop + 0.5 * step, step)


def flat_trace(level_db: float, frequencies, label=TraceLabel.SHOT_NOISE) -> SpectrumTrace:
    _require(abs(level_db) < math.inf, level_db, "level_db must be finite")
    freqs = np.asarray(frequencies, float)
    return SpectrumTrace(freqs, np.full_like(freqs, float(level_db)), label)


def ideal_spectrum(op: OpaOperatingPoint, omega, quadrature: TraceLabel):
    """Lossless OPA output spectrum at sideband frequency omega (Hz, scalar or array)."""
    omega = np.asarray(omega, dtype=float)
    _require(np.isfinite(omega), omega, "omega must be finite")
    x = op.pump_ratio_x
    # a tiny cavity_hwhm overflows w2 to inf, which gives the exact limit S = 1
    with np.errstate(over="ignore"):
        w2 = (omega / op.cavity_hwhm) ** 2
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
    omega,
    quadrature: TraceLabel = TraceLabel.SQUEEZED_QUADRATURE,
) -> SpectrumTrace:
    """Detected spectrum over the frequency grid omega, in dB relative to shot noise."""
    freqs = np.asarray(omega, dtype=float)
    if freqs.ndim != 1 or np.any(freqs[1:] <= freqs[:-1]):
        raise ValueError("omega must be a strictly increasing 1-D grid")
    values = gaussian.ratio_to_db(detected_variance(op, chain, freqs, quadrature))
    return SpectrumTrace(freqs, values, quadrature)
