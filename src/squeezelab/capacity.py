"""Gaussian channel capacities versus mean photon number.

Covers coherent encoding, squeezed-enhanced detection of a coherent signal,
signal-encoded squeezed beams and the Holevo bound, in bits per channel use.
Each takes a scalar or an array of mean photon numbers and refuses nbar = inf;
the detection law refuses any gain 4 e^{2r} nbar that is not finite.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _require
from .spectrum import write_csv

MAX_NBAR_POINTS = 100_000  # most grid points a capacity run may ask for; curve_suite keeps several


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
        if not (np.isfinite(self.nbar_grid).all() and not np.isinf(self.capacities).any()):
            raise ValueError("nbar_grid must be finite and capacities finite or NaN")


def capacity_coherent(nbar):
    """Coherent-encoding, coherent-detection capacity (1/2) log2(1 + 4 nbar): squeezed detection at r = 0."""
    return capacity_coherent_squeezed_detection(nbar, 0.0)


def capacity_coherent_squeezed_detection(nbar, r: float):
    """Coherent signal read out with a squeezed reference: (1/2) log2(1 + 4 e^{2r} nbar)."""
    n = np.asarray(nbar, dtype=float)
    _require(n >= 0.0, n, "nbar must be >= 0")
    _require(r >= 0.0, r, "r must be >= 0")
    top = float(n.max(initial=1.0))  # the gain grows with nbar; the cap: 4 e^{2r} overflows past 2r = 709
    _require(math.isfinite(4.0 * math.exp(min(2.0 * r, 709.0)) * top), r,
             f"r must keep 4 exp(2r) nbar finite at nbar = {top:g}")
    return 0.5 * np.log2(1.0 + 4.0 * math.exp(2.0 * r) * n)


def capacity_squeezed_encoding(nbar, r: float):
    """Signal-encoded squeezed beam: (1/2) log2[1 + 4 e^{2r} (nbar - sinh^2 r)].

    The squeezing itself costs sinh^2(r) photons, so nbar must exceed that.
    """
    capacity_coherent_squeezed_detection(0.0, r)  # the law's checks on r, before sinh(r) can overflow
    cost = math.sinh(r) ** 2
    n = np.asarray(nbar, dtype=float)
    _require(n > cost, n, f"nbar must exceed the squeezing photon cost sinh^2(r) = {cost}")
    return capacity_coherent_squeezed_detection(n - cost, r)


def holevo_bound(nbar):
    """Holevo capacity (1+n)log2(1+n) - n log2 n, continuously extended to 0 at n=0."""
    n = np.asarray(nbar, dtype=float)
    _require((n >= 0.0) & (n < math.inf), n, "nbar must be finite and >= 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # as log2(1+n) + n log2(1 + 1/n), which does not cancel at large n; below
        # n = 1, where 1/n may overflow, ln(1 + 1/n) is log1p(n) - ln n
        tail = n * np.where(n < 1.0, np.log1p(n) - np.log(n), np.log1p(1.0 / n))
        bits = np.log2(1.0 + n) + tail / math.log(2.0)
    return np.where(n == 0.0, 0.0, bits)[()]


def default_nbar_grid(start: float, stop: float, points: int):
    for name, value in (("start", start), ("stop", stop)):
        _require(0.0 < value < math.inf, value, f"{name} must be finite and > 0")
    if not (isinstance(points, (int, np.integer)) and 0 <= points <= MAX_NBAR_POINTS):
        raise ValueError(f"points must be an int in [0, {MAX_NBAR_POINTS}], got {points!r}")
    return np.geomspace(start, stop, points)


def curve_suite(nbar_grid, r: float) -> list[CapacityCurve]:
    """All four capacity curves over a common photon-number grid.

    Squeezed-encoding points below the sinh^2(r) photon cost are emitted as
    NaN so plots show a gap rather than a spurious zero.
    """
    grid = np.asarray(nbar_grid, dtype=float)
    if grid.ndim != 1 or not (grid.size and np.all((0.0 < grid) & (grid < math.inf)) and np.all(np.diff(grid) > 0)):
        raise ValueError("nbar_grid must be a 1-D array, finite, positive and strictly increasing")
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
    write_csv(path, ("nbar", "capacity_bits", "bound_kind"), [
        (c.nbar_grid, c.capacities, c.bound_kind.value) for c in curves])
