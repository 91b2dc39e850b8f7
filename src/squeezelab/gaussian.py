"""Linearized Gaussian field-mode statistics.

All quadrature variances are expressed in shot-noise units: a coherent or
vacuum state has variance 1 in every quadrature.  The loss, jitter and dB
maps take scalars or numpy arrays and apply elementwise.  The phase-squeezed
convention is used throughout: for a phase-squeezed state the analysis angle
theta = pi/2 returns the squeezed variance exp(-2r) and theta = 0 the
antisqueezed variance exp(+2r).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Quadrature(enum.Enum):
    """Which quadrature carries the reduced (exp(-2r)) variance."""

    PHASE = "phase"
    AMPLITUDE = "amplitude"


@dataclass(frozen=True)
class QuadratureState:
    """A bright Gaussian mode: mean amplitude plus squeezed fluctuations.

    mean_amplitude is the dimensionless field amplitude (sqrt photon flux);
    squeeze_r >= 0 is the squeezing parameter; phase_offset_theta is the
    LO-relative quadrature angle of the mode.
    """

    mean_amplitude: float
    squeeze_r: float = 0.0
    squeezed_quadrature: Quadrature = Quadrature.PHASE
    phase_offset_theta: float = 0.0

    def __post_init__(self):
        if not (self.squeeze_r >= 0.0):
            raise ValueError(f"squeeze_r must be >= 0, got {self.squeeze_r}")

    def variance(self) -> float:
        """Quadrature variance at this state's own analysis angle."""
        return variance_at(self, self.phase_offset_theta)


@dataclass(frozen=True)
class LossModel:
    """A passive loss channel of power transmission efficiency_eta."""

    efficiency_eta: float

    def __post_init__(self):
        if not (0.0 < self.efficiency_eta <= 1.0):
            raise ValueError(
                f"efficiency_eta must be in (0, 1], got {self.efficiency_eta}"
            )


def variance_at(state: QuadratureState, theta: float) -> float:
    """Quadrature variance of `state` at analysis angle theta (radians).

    Phase-squeezed: V(theta) = exp(-2r) sin^2(theta) + exp(+2r) cos^2(theta),
    so theta = pi/2 reads the squeezed quadrature.  Amplitude-squeezed swaps
    the two axes.
    """
    r = state.squeeze_r
    s2 = math.sin(theta) ** 2
    c2 = math.cos(theta) ** 2
    if state.squeezed_quadrature is Quadrature.PHASE:
        return math.exp(-2.0 * r) * s2 + math.exp(2.0 * r) * c2
    return math.exp(-2.0 * r) * c2 + math.exp(2.0 * r) * s2


def _require(ok, values, message: str) -> None:
    """Raise ValueError naming the first element of `values` where `ok` is False."""
    ok = np.asarray(ok)
    if not ok.all():
        bad = np.broadcast_to(values, ok.shape)[~ok].flat[0]
        raise ValueError(f"{message}, got {bad}")


def apply_loss(state_variance, loss: LossModel):
    """Beam-splitter loss map V -> eta*V + (1 - eta).

    Mixes in vacuum through the loss port; shot noise (V = 1) is a fixed
    point for every efficiency.
    """
    v = np.asarray(state_variance, dtype=float)
    _require(v > 0.0, v, "variance must be > 0")
    eta = loss.efficiency_eta
    return eta * v + (1.0 - eta)


def apply_phase_jitter(v_min, v_max, jitter_rms):
    """Mix the two principal variances by a fixed quadrature misalignment.

    Returns v_min*cos^2(sigma) + v_max*sin^2(sigma) for sigma = jitter_rms.
    Models residual drift of the unstabilized LO phase as a deterministic
    rotation away from the squeezed axis.
    """
    v_min = np.asarray(v_min, dtype=float)
    v_max = np.asarray(v_max, dtype=float)
    sigma = np.asarray(jitter_rms, dtype=float)
    _require(v_min >= 0.0, v_min, "variances must be non-negative")
    _require(v_max >= 0.0, v_max, "variances must be non-negative")
    _require(v_min <= v_max, v_min, "v_min must not exceed v_max")
    _require(sigma >= 0.0, sigma, "jitter_rms must be >= 0")
    s2 = np.sin(sigma) ** 2
    return v_min * (1.0 - s2) + v_max * s2


def ratio_to_db(v):
    """Power ratio -> decibels, 10*log10(v)."""
    v = np.asarray(v, dtype=float)
    _require(v > 0.0, v, "ratio must be > 0")
    return 10.0 * np.log10(v)


def db_to_ratio(d: float) -> float:
    """Decibels -> power ratio, inverse of ratio_to_db.

    Raises ValueError when the ratio overflows a float.
    """
    try:
        return math.pow(10.0, d / 10.0)
    except OverflowError:
        raise ValueError(f"must give a finite power ratio, got {d} dB") from None


def composite_detection_efficiency(
    quantum_efficiency: float,
    homodyne_contrast: float,
    propagation_efficiency: float,
) -> float:
    """Total detection efficiency eta = QE * contrast^2 * propagation.

    The homodyne fringe contrast enters squared (mode-overlap convention).
    """
    for name, val in (
        ("quantum_efficiency", quantum_efficiency),
        ("homodyne_contrast", homodyne_contrast),
        ("propagation_efficiency", propagation_efficiency),
    ):
        if not (0.0 < val <= 1.0):
            raise ValueError(f"{name} must be in (0, 1], got {val}")
    return quantum_efficiency * homodyne_contrast**2 * propagation_efficiency
