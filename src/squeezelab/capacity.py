"""Gaussian channel capacities versus mean photon number.

Covers coherent-state encoding, squeezed-enhanced detection of a coherent
signal, signal-encoded squeezed beams, and the Holevo bound.  Capacities are
in bits per channel use; variances in shot-noise units.  The four bounds take
a scalar or an array of mean photon numbers.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _require


@dataclass(frozen=True)
class ChannelSpec:
    signal_variance_VS: float
    noise_variance_VN: float
    squeeze_r: float = 0.0

    def __post_init__(self):
        if self.signal_variance_VS < 0.0:
            raise ValueError("signal variance must be >= 0")
        if self.noise_variance_VN <= 0.0:
            raise ValueError("noise variance must be > 0")


class BoundKind(enum.Enum):
    COHERENT = "coherent"
    COHERENT_WITH_SQUEEZED_DETECTION = "coherent_with_squeezed_detection"
    SQUEEZED_ENCODING = "squeezed_encoding"
    HOLEVO = "holevo"


@dataclass
class CapacityCurve:
    nbar_grid: np.ndarray
    capacities: np.ndarray  # NaN marks points outside a bound's domain
    bound_kind: BoundKind

    def __post_init__(self):
        self.nbar_grid = np.asarray(self.nbar_grid, dtype=float)
        self.capacities = np.asarray(self.capacities, dtype=float)
        if self.nbar_grid.shape != self.capacities.shape:
            raise ValueError("grid and capacities must be aligned")


def capacity_generic(spec: ChannelSpec) -> float:
    """Shannon capacity (1/2) log2(1 + V_S/V_N) of a Gaussian channel."""
    return 0.5 * math.log2(1.0 + spec.signal_variance_VS / spec.noise_variance_VN)


def nbar_from_variances(V0: float, Vpi2: float) -> float:
    """Mean photon number (V0 + V_pi/2)/4 - 1/2 from the two quadrature variances."""
    if V0 < 0.0 or Vpi2 < 0.0:
        raise ValueError("variances must be >= 0")
    nbar = 0.25 * (V0 + Vpi2) - 0.5
    if nbar < 0.0:
        raise ValueError(f"non-physical variance pair: nbar = {nbar} < 0")
    return nbar


def capacity_coherent(nbar):
    """Coherent-encoding, coherent-detection capacity (1/2) log2(1 + 4 nbar)."""
    n = np.asarray(nbar, dtype=float)
    _require(n >= 0.0, n, "nbar must be >= 0")
    return 0.5 * np.log2(1.0 + 4.0 * n)


def capacity_coherent_squeezed_detection(nbar, r: float):
    """Coherent signal read out with a squeezed reference: (1/2) log2(1 + 4 e^{2r} nbar)."""
    n = np.asarray(nbar, dtype=float)
    _require(n >= 0.0, n, "nbar must be >= 0")
    _require(r >= 0.0, r, "r must be >= 0")
    return 0.5 * np.log2(1.0 + 4.0 * math.exp(2.0 * r) * n)


def capacity_squeezed_encoding(nbar, r: float):
    """Signal-encoded squeezed beam: (1/2) log2[1 + 4 e^{2r} (nbar - sinh^2 r)].

    The squeezing itself costs sinh^2(r) photons, so nbar must exceed that.
    """
    _require(r >= 0.0, r, "r must be >= 0")
    cost = math.sinh(r) ** 2
    n = np.asarray(nbar, dtype=float)
    _require(n > cost, n, f"nbar must exceed the squeezing photon cost sinh^2(r) = {cost}")
    return 0.5 * np.log2(1.0 + 4.0 * math.exp(2.0 * r) * (n - cost))


def holevo_bound(nbar):
    """Holevo capacity (1+n)log2(1+n) - n log2 n, continuously extended to 0 at n=0."""
    n = np.asarray(nbar, dtype=float)
    _require(n >= 0.0, n, "nbar must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = (1.0 + n) * np.log2(1.0 + n) - n * np.log2(n)
    return np.where(n == 0.0, 0.0, bits)[()]


def default_nbar_grid(start: float = 0.01, stop: float = 10.0, points: int = 200):
    return np.geomspace(start, stop, points)


def curve_suite(nbar_grid, r: float) -> list[CapacityCurve]:
    """All four capacity curves over a common photon-number grid.

    Squeezed-encoding points below the sinh^2(r) photon cost are emitted as
    NaN so plots show a gap rather than a spurious zero.
    """
    grid = np.asarray(nbar_grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0):
        raise ValueError("nbar grid must be positive and strictly increasing")
    coh = capacity_coherent(grid)
    det = capacity_coherent_squeezed_detection(grid, r)
    enc = np.full_like(grid, math.nan)
    above = grid > math.sinh(r) ** 2
    enc[above] = capacity_squeezed_encoding(grid[above], r)
    hol = holevo_bound(grid)
    return [
        CapacityCurve(grid, coh, BoundKind.COHERENT),
        CapacityCurve(grid, det, BoundKind.COHERENT_WITH_SQUEEZED_DETECTION),
        CapacityCurve(grid, enc, BoundKind.SQUEEZED_ENCODING),
        CapacityCurve(grid, hol, BoundKind.HOLEVO),
    ]


def write_curves_csv(path, curves) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nbar", "capacity_bits", "bound_kind"])
        for curve in curves:
            for n, c in zip(curve.nbar_grid, curve.capacities):
                writer.writerow([repr(float(n)), "" if math.isnan(c) else repr(float(c)), curve.bound_kind.value])
