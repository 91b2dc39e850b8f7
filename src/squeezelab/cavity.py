"""Linear-cavity resonator quantities for the degenerate parametric amplifier.

Free spectral range, finesse, linewidth, escape efficiency and an
oscillation-threshold estimate, all derived from the geometric and mirror
description of the resonator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0  # m/s

# KTP, 1064 nm, z-polarized; used when no index is configured.
DEFAULT_CRYSTAL_INDEX = 1.830


@dataclass(frozen=True)
class CavityParams:
    geometric_length: float  # mirror separation, m
    crystal_length: float  # m
    mirror_R1: float  # output coupler power reflectivity at 1064 nm
    mirror_R2: float  # input mirror power reflectivity at 1064 nm
    crystal_index: float = DEFAULT_CRYSTAL_INDEX
    intracavity_loss: float = 0.0  # round-trip fractional loss excluding mirrors
    shg_efficiency: float = 3.83e-3  # single-pass nonlinear efficiency, 1/W

    def __post_init__(self):
        if self.geometric_length <= 0.0:
            raise ValueError("geometric_length must be > 0")
        if self.crystal_length < 0.0 or self.crystal_length > self.geometric_length:
            raise ValueError("crystal_length must be in [0, geometric_length]")
        if self.crystal_length > 0.0 and self.crystal_index < 1.0:
            raise ValueError("crystal_index must be >= 1")
        for name in ("mirror_R1", "mirror_R2"):
            r = getattr(self, name)
            if not (0.0 < r < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {r}")
        if not finesse(self) > 0.0:
            raise ValueError("mirror_R1 * mirror_R2 underflows to a finesse of 0")
        if not 0.0 < fwhm(self) < math.inf:  # the optical length overflows or the FSR does
            raise ValueError(
                "geometric_length, crystal_length and crystal_index must give a "
                f"linewidth fwhm in (0, inf) Hz, got {fwhm(self)}"
            )
        if not (0.0 <= self.intracavity_loss < 1.0):
            raise ValueError("intracavity_loss must be in [0, 1)")
        if not (self.shg_efficiency > 0.0 and math.isfinite(threshold_power(self))):
            raise ValueError(
                f"shg_efficiency must be > 0 with a finite threshold_power, got {self.shg_efficiency}"
            )


def optical_length(c: CavityParams) -> float:
    """One-way optical path length including the crystal's index."""
    return (c.geometric_length - c.crystal_length) + c.crystal_index * c.crystal_length


def free_spectral_range(c: CavityParams) -> float:
    """FSR of the linear (double-pass) cavity, Hz."""
    return SPEED_OF_LIGHT / (2.0 * optical_length(c))


def finesse(c: CavityParams) -> float:
    """Mirror-limited finesse pi*(R1*R2)^(1/4) / (1 - sqrt(R1*R2))."""
    rr = c.mirror_R1 * c.mirror_R2
    return math.pi * rr**0.25 / (1.0 - math.sqrt(rr))


def fwhm(c: CavityParams) -> float:
    """Cavity linewidth FSR/finesse, Hz."""
    return free_spectral_range(c) / finesse(c)


def threshold_power(c: CavityParams) -> float:
    """Oscillation-threshold pump power (T1 + L)^2 / (4 E_NL), W.

    Standard degenerate-OPO estimate from the output-coupler transmission,
    the round-trip loss and the single-pass nonlinear efficiency.
    """
    t1 = 1.0 - c.mirror_R1
    return (t1 + c.intracavity_loss) ** 2 / (4.0 * c.shg_efficiency)


def escape_efficiency(c: CavityParams) -> float:
    """Fraction of intracavity light leaving through the output coupler."""
    t1 = 1.0 - c.mirror_R1
    return t1 / (t1 + c.intracavity_loss)
