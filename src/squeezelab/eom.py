"""Electro-optic phase modulation in an RTA crystal (mm2 symmetry).

Driving a field along the Z principal axis phase-shifts both the Z- and
Y-polarized passes, giving a total single-tone modulation depth

    delta_theta0 = (n_Z^3 r33 E_Z + n_Y^3 r23 E_Z) * l * pi / lambda.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .cavity import SPEED_OF_LIGHT

PLANCK = 6.62607015e-34  # J s

# Literature-typical RTA indices near 1064 nm; the crystal data sheet did not
# accompany the coefficients, so these are configurable defaults.
DEFAULT_N_Z = 1.90
DEFAULT_N_Y = 1.81


@dataclass(frozen=True)
class EomParams:
    field_E_Z: float  # V/m
    crystal_length_l: float  # m
    n_Z: float = DEFAULT_N_Z
    n_Y: float = DEFAULT_N_Y
    r33: float = 36.7e-12  # m/V
    r23: float = 15.7e-12  # m/V
    wavelength_lambda: float = 1.064e-6  # m
    modulation_frequency: float = 4.5e6  # Hz

    def __post_init__(self):
        if self.n_Z <= 1.0 or self.n_Y <= 1.0:
            raise ValueError("refractive indices must be > 1")
        if self.r33 <= 0.0 or self.r23 <= 0.0:
            raise ValueError("electro-optic coefficients must be > 0")
        if self.crystal_length_l <= 0.0 or self.wavelength_lambda <= 0.0:
            raise ValueError("crystal length and wavelength must be > 0")
        if self.modulation_frequency <= 0.0:
            raise ValueError("modulation_frequency must be > 0")


def phase_shift_amplitude(p: EomParams) -> float:
    """Peak phase shift delta_theta0 in radians; linear in E_Z and l."""
    return (
        (p.n_Z**3 * p.r33 * p.field_E_Z + p.n_Y**3 * p.r23 * p.field_E_Z)
        * p.crystal_length_l
        * math.pi
        / p.wavelength_lambda
    )


def tone_power_rel_shot(
    delta_theta0: float, cfg, rbw: float, wavelength: float = 1.064e-6
) -> float:
    """Sideband tone power in one RBW bin, dB relative to the shot-noise floor.

    The phase tone modulates the homodyne fringe with photocurrent power
    2 alpha^2 beta^2 delta_theta0^2; referenced to the LO shot-noise power
    beta^2 per unit bandwidth this leaves 2 alpha^2 delta_theta0^2 / rbw,
    with alpha^2 the bright-beam photon flux.
    """
    if rbw <= 0.0:
        raise ValueError("rbw must be > 0")
    if delta_theta0 < 0.0:
        raise ValueError("delta_theta0 must be >= 0")
    if delta_theta0 > 0.1:
        warnings.warn(
            f"delta_theta0 = {delta_theta0} rad exceeds the small-modulation "
            "regime; linearized tone power is questionable",
            stacklevel=2,
        )
    if delta_theta0 == 0.0:
        return -math.inf
    photon_energy = PLANCK * SPEED_OF_LIGHT / wavelength
    alpha2 = cfg.opa_power / photon_energy  # photons/s
    ratio = 2.0 * alpha2 * delta_theta0**2 / rbw
    return 10.0 * math.log10(ratio)


class ToneVisibility(enum.Enum):
    HIDDEN = "hidden"
    REVEALED_BY_SQUEEZING = "revealed_by_squeezing"
    VISIBLE_CLASSICALLY = "visible_classically"


def classify_tone(
    tone_db_rel_shot: float,
    squeezed_floor_db_rel_shot: float,
    shot_floor_db: float = 0.0,
) -> ToneVisibility:
    """Classify a tone against the classical and squeezed noise floors."""
    if tone_db_rel_shot >= shot_floor_db:
        return ToneVisibility.VISIBLE_CLASSICALLY
    if tone_db_rel_shot >= squeezed_floor_db_rel_shot:
        return ToneVisibility.REVEALED_BY_SQUEEZING
    return ToneVisibility.HIDDEN
