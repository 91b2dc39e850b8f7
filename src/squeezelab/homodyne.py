"""Shot-noise calibration of balanced homodyne detection of a bright squeezed beam.

Because the measured beam is bright (not a squeezed vacuum), its mean field
adds a shot-noise offset p = alpha^2 / beta^2 = P_OPA / P_LO to the
difference-photocurrent variance.  One correction, observed - p, recovers the
true squeezed variance exp(-2r) when the shot-noise reference was taken with
the bright beam blocked.  An equal-power classical reference beam raises that
reference by 1 + p, so its observed ratio is the blocked one divided by 1 + p.
The forward maps and corrections take scalars or numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _require


@dataclass(frozen=True)
class HomodyneConfig:
    opa_power: float  # W, bright squeezed beam
    lo_power: float  # W, local oscillator

    def __post_init__(self):
        if self.opa_power < 0.0:
            raise ValueError(f"opa_power must be >= 0, got {self.opa_power}")
        if not 0.0 < self.lo_power < math.inf:
            raise ValueError(f"lo_power must be {'> 0' if self.lo_power <= 0.0 else 'finite'}, got {self.lo_power}")
        if not math.isfinite(self.power_ratio):
            raise ValueError(f"opa_power / lo_power must be finite, got {self.power_ratio}")

    @property
    def power_ratio(self) -> float:
        """alpha^2 / beta^2 = P_OPA / P_LO."""
        return self.opa_power / self.lo_power


def blocked_shot_noise_ratio(squeezed_variance, power_ratio):
    """Forward map: observed ratio when shot noise is taken with the beam blocked.

    V_sq/V_sn = P_OPA/P_LO + exp(-2r).
    """
    v, p = np.asarray(squeezed_variance, dtype=float), np.asarray(power_ratio, dtype=float)
    _require((0.0 < v) & (v < math.inf), v, "squeezed_variance must be finite and > 0")
    _require((0.0 <= p) & (p < math.inf), p, "power_ratio must be finite and >= 0")
    with np.errstate(over="ignore"):
        ratio = p + v
    _require(ratio < math.inf, ratio, "squeezed_variance + power_ratio must be finite")
    return ratio


def correct_blocked_shot_noise(observed_ratio, power_ratio):
    """Recover exp(-2r) when the shot-noise reference had the bright beam blocked."""
    p = np.asarray(power_ratio, dtype=float)
    _require((0.0 <= p) & (p < math.inf), p, "power_ratio must be finite and >= 0")
    with np.errstate(over="ignore"):  # a difference that overflows is refused below
        result = np.asarray(observed_ratio, dtype=float) - p
    _require((0.0 < result) & (result < math.inf), result,
             "observed_ratio and power_ratio must give a corrected variance in (0, inf)")
    return result


def equal_power_shot_noise_ratio(squeezed_variance, power_ratio):
    """Forward map for an equal-power classical reference beam.

    V_sq/V_sn = (alpha^2 + beta^2 exp(-2r)) / (alpha^2 + beta^2).
    """
    return blocked_shot_noise_ratio(squeezed_variance, power_ratio) / (1.0 + power_ratio)


def correct_equal_power_shot_noise(observed_ratio, power_ratio):
    """Recover exp(-2r) when the reference was an equal-power classical beam."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below: an infinite power_ratio or product
        blocked = observed_ratio * (1.0 + power_ratio)
    return correct_blocked_shot_noise(blocked, power_ratio)
