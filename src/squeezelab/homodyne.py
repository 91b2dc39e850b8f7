"""Shot-noise calibration of balanced homodyne detection of a bright squeezed beam.

Because the measured beam is bright (not a squeezed vacuum), its mean field
adds a shot-noise offset alpha^2 to the difference-photocurrent variance.
Two correction formulas recover the true squeezed variance exp(-2r) from the
observed noise ratio, depending on how the shot-noise reference was taken:
with the bright beam blocked, or with an equal-power classical beam
substituted for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HomodyneConfig:
    opa_power: float  # W, bright squeezed beam
    lo_power: float  # W, local oscillator

    def __post_init__(self):
        if self.opa_power < 0.0:
            raise ValueError(f"opa_power must be >= 0, got {self.opa_power}")
        if self.lo_power <= 0.0:
            raise ValueError(f"lo_power must be > 0, got {self.lo_power}")
        if not math.isfinite(self.power_ratio):
            raise ValueError(f"opa_power / lo_power must be finite, got {self.power_ratio}")

    @property
    def power_ratio(self) -> float:
        """alpha^2 / beta^2 = P_OPA / P_LO."""
        return self.opa_power / self.lo_power


def blocked_shot_noise_ratio(squeezed_variance: float, power_ratio: float) -> float:
    """Forward map: observed ratio when shot noise is taken with the beam blocked.

    V_sq/V_sn = P_OPA/P_LO + exp(-2r).
    """
    if squeezed_variance <= 0.0 or power_ratio < 0.0:
        raise ValueError("need squeezed_variance > 0 and power_ratio >= 0")
    return power_ratio + squeezed_variance


def correct_blocked_shot_noise(observed_ratio: float, power_ratio: float) -> float:
    """Recover exp(-2r) when the shot-noise reference had the bright beam blocked."""
    if power_ratio < 0.0:
        raise ValueError("power_ratio must be >= 0")
    if observed_ratio <= power_ratio:
        raise ValueError(
            "non-physical input: observed ratio must exceed the beam power ratio "
            f"({observed_ratio} <= {power_ratio})"
        )
    return observed_ratio - power_ratio


def equal_power_shot_noise_ratio(squeezed_variance: float, power_ratio: float) -> float:
    """Forward map for an equal-power classical reference beam.

    V_sq/V_sn = (alpha^2 + beta^2 exp(-2r)) / (alpha^2 + beta^2).
    """
    if squeezed_variance <= 0.0 or power_ratio < 0.0:
        raise ValueError("need squeezed_variance > 0 and power_ratio >= 0")
    return (power_ratio + squeezed_variance) / (1.0 + power_ratio)


def correct_equal_power_shot_noise(observed_ratio: float, power_ratio: float) -> float:
    """Recover exp(-2r) when the reference was an equal-power classical beam."""
    if power_ratio < 0.0:
        raise ValueError("power_ratio must be >= 0")
    result = observed_ratio * (1.0 + power_ratio) - power_ratio
    if not 0.0 < result < math.inf:
        raise ValueError(f"non-physical input: corrected variance would be {result}, outside (0, inf)")
    return result
