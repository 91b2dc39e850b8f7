"""Scenario configuration: one flat record of every parameter a run reads.

Each value has one source: its section default, the preset's departure from
it, or a file or `--set` in the plain `section.key = value` format (`#` comments).
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import get_type_hints

from . import cavity as cavity_mod
from .capacity import MAX_NBAR_POINTS, capacity_coherent_squeezed_detection
from .cavity import CavityParams
from .homodyne import HomodyneConfig
from .spectrum import DEFAULT_GRID_STOP, DetectionChain, OpaOperatingPoint
from .tracesim import TraceConfig, tone_amplitude_for_db


class ScenarioError(ValueError):
    """Configuration refusal; from_flat names the dotted keys it concerns."""


@dataclass(frozen=True)
class CapacityConfig:
    nbar_min: float = 0.01
    nbar_max: float = 10.0
    points: int = 200
    squeeze_r: float = 0.3776  # exp(-2r) = 0.47, the -3.2 dB operating point

    def __post_init__(self):
        if not (2 <= self.points <= MAX_NBAR_POINTS):
            raise ValueError(f"points must be in [2, {MAX_NBAR_POINTS}], got {self.points}")
        if not (0.0 < self.nbar_min < self.nbar_max):
            raise ValueError("nbar_min must satisfy 0 < nbar_min < nbar_max")
        capacity_coherent_squeezed_detection(self.nbar_max, self.squeeze_r)  # the law's own checks
        # geomspace rounds its values by ~1e-13 relative: far larger steps keep them increasing
        if math.log(self.nbar_max) - math.log(self.nbar_min) < 1e-9 * (self.points - 1):
            raise ValueError(f"the {self.points}-point grid from nbar_min to nbar_max steps by < 1e-9")


@dataclass(frozen=True)
class InterfereConfig:
    """Settings for the coherent-vs-squeezed modulation-detection comparison."""

    tone_frequency: float = 4.5e6  # Hz
    # tone level in one RBW bin, dB rel. shot noise; the default 3-bin VBW
    # displays it 3.01 dB lower (see tracesim.tone_amplitude_for_db)
    tone_db_rel_shot: float = -1.0
    squeezed_floor_db: float = -3.2  # dB rel. shot, from 0 Hz up to spectrum.SQUEEZING_BAND_STOP (20 MHz)

    def __post_init__(self):
        if not -90.0 <= self.squeezed_floor_db < 0.0:  # the float32 shaping resolves about 90 dB of span
            raise ValueError(f"squeezed_floor_db must lie in [-90, 0) dB rel. shot, got {self.squeezed_floor_db}")


@dataclass(frozen=True)
class OpaConfig:
    """Pump and oscillation threshold; the limit 0 <= pump < threshold is OpaOperatingPoint's."""

    pump_power: float  # W
    threshold_power: float  # W; measured value, may differ from the model estimate


@dataclass(frozen=True)
class Scenario:
    cavity: CavityParams
    opa: OpaConfig
    chain: DetectionChain
    homodyne: HomodyneConfig
    trace: TraceConfig
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    interfere: InterfereConfig = field(default_factory=InterfereConfig)

    def operating_point(self) -> OpaOperatingPoint:
        """Operating point with the cavity half-linewidth from the cavity model."""
        return OpaOperatingPoint(
            pump_power=self.opa.pump_power,
            threshold_power=self.opa.threshold_power,
            cavity_hwhm=cavity_mod.fwhm(self.cavity) / 2.0,
        )

    def __post_init__(self):
        """Cross-section consistency checks beyond per-section invariants."""
        self.operating_point()
        for name, freq in (("interfere.tone_frequency", self.interfere.tone_frequency),
                           ("the spectrum and trace grid top", DEFAULT_GRID_STOP)):
            self.trace.check_frequency(freq, name)
        tone_amplitude_for_db(self.interfere.tone_db_rel_shot, self.trace)  # the tone's own level checks


# Scenario parameters that are not stated in the source experiment and are
# filled with documented assumptions by the paper preset.
PRESET_ASSUMPTIONS = (
    "cavity.crystal_index",
    "chain.phase_jitter_rms",
    "trace.electronic_floor_db",
)


def paper_preset() -> Scenario:
    """The experiment's values where they differ from the section defaults."""
    return Scenario(
        cavity=CavityParams(
            geometric_length=0.052, crystal_length=0.005, mirror_R1=0.95, mirror_R2=0.99992
        ),
        opa=OpaConfig(pump_power=0.130, threshold_power=0.145),
        chain=DetectionChain(phase_jitter_rms=0.0131),
        homodyne=HomodyneConfig(opa_power=0.16e-3, lo_power=4.2e-3),
        trace=TraceConfig(electronic_floor_db=-12.0),
    )


def finite_float(value) -> float:
    """A finite float from text or a number."""
    result = float(value)
    if not math.isfinite(result):
        raise ValueError(f"not finite: {value!r}")
    return result


def _typed(kind, value):
    """`value`, as text or a number, converted to the declared field type `kind`."""
    if kind is int:  # must be whole: '3.0' and 2.5 are refused
        return int(value) if isinstance(value, str) else operator.index(value)
    if kind == float | None and str(value).strip().lower() == "none":  # also None
        return None
    return finite_float(value) + 0.0  # -0.0 -> 0.0: equal values serialize equally


# what a value of each declared field type must be, as error messages say it
_EXPECTED = {int: "int", float: "finite float", float | None: "finite float or none"}


# dotted key -> (section, field, declared type), in declaration order
_KEYS = {f"{section}.{name}": (section, name, kind)
         for section, hint in get_type_hints(Scenario).items()
         for name, kind in get_type_hints(hint).items()}


def to_flat(scenario: Scenario) -> dict[str, object]:
    """Scenario as an ordered flat mapping of dotted keys to values."""
    return {
        key: getattr(getattr(scenario, section), name)
        for key, (section, name, _) in _KEYS.items()
    }


# built and checked once: every section is frozen, so each from_flat call may share it
_PRESET = paper_preset()
_PRESET_FLAT = to_flat(_PRESET)


def from_flat(flat: dict[str, object]) -> Scenario:
    """Validated Scenario from dotted keys over the paper preset.

    Each value, text or number, takes its field's declared type: a whole int,
    a finite float, or `none` for None.  Every refusal raises ScenarioError
    that begins with dotted keys, the one place they are named: a bad value or
    unknown key names itself; a section's refusal, the keys changed from the
    preset in that section; and a cross-section rule of `Scenario`,
    every changed key.  The preset is valid, so each refusal names a key.
    """
    changes: dict[str, dict[str, object]] = {}
    changed: list[str] = []
    for key, value in flat.items():
        if key not in _KEYS:
            raise ScenarioError(f"{key}: unknown configuration key")
        section, name, kind = _KEYS[key]
        try:
            typed = _typed(kind, value)
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{key}: expected {_EXPECTED[kind]}, got {value!r}") from None
        changes.setdefault(section, {})[name] = typed
        if typed != _PRESET_FLAT[key]:
            changed.append(key)
    sections = {}
    for section, values in changes.items():
        try:
            sections[section] = replace(getattr(_PRESET, section), **values)
        except ValueError as exc:
            keys = [key for key in changed if _KEYS[key][0] == section]
            raise ScenarioError(f"{', '.join(keys)}: {exc}") from None
    try:
        return replace(_PRESET, **sections)
    except ValueError as exc:
        raise ScenarioError(f"{', '.join(changed)}: {exc}") from None


def serialize(scenario: Scenario) -> str:
    # typed values: repr gives ints as ints and floats exactly, None is `none`
    lines = [f"{k} = {'none' if v is None else repr(v)}" for k, v in to_flat(scenario).items()]
    return "\n".join(lines) + "\n"


def parse(text: str, overrides: Iterable[str] = ()) -> Scenario:
    """Scenario from `key = value` lines, then `key=value` overrides in order,
    checked once as one mapping; a line without a value is refused by key."""
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
    flat: dict[str, str] = {}
    for pair in [line for line in lines if line.strip()] + list(overrides):
        key, _, value = pair.partition("=")
        flat[key.strip()] = value.strip()
    return from_flat(flat)
