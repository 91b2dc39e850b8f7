"""Scenario configuration: one flat record of every physical parameter.

The on-disk format is deliberately plain: one `section.key = value` per
line, `#` comments, no nesting.  It round-trips exactly and diffs cleanly.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, is_dataclass, replace
from typing import get_type_hints

from . import cavity as cavity_mod
from .cavity import CavityParams
from .homodyne import HomodyneConfig
from .spectrum import DetectionChain, OpaOperatingPoint
from .tracesim import TraceConfig


class ScenarioError(ValueError):
    """Configuration validation failure; message names the offending field."""


@dataclass(frozen=True)
class CapacityConfig:
    nbar_min: float = 0.01
    nbar_max: float = 10.0
    points: int = 200
    squeeze_r: float = 0.3776  # exp(-2r) = 0.47, the -3.2 dB operating point

    def __post_init__(self):
        if not (0.0 < self.nbar_min < self.nbar_max):
            raise ValueError("nbar_min must satisfy 0 < nbar_min < nbar_max")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.squeeze_r < 0.0:
            raise ValueError("squeeze_r must be >= 0")


@dataclass(frozen=True)
class InterfereConfig:
    """Settings for the coherent-vs-squeezed modulation-detection comparison."""

    tone_frequency: float = 4.5e6  # Hz
    tone_db_rel_shot: float = -1.0  # displayed tone level, dB rel. shot noise
    squeezed_floor_db: float = -3.2  # broadband squeezed floor, dB rel. shot
    band_min: float = 1e6  # Hz, analysis band of the squeezed floor
    band_max: float = 20e6

    def __post_init__(self):
        if self.tone_frequency <= 0.0:
            raise ValueError("tone_frequency must be > 0")
        if self.squeezed_floor_db >= 0.0:
            raise ValueError("squeezed_floor_db must be below shot noise (< 0)")
        if not (0.0 < self.band_min < self.band_max):
            raise ValueError("band_min must satisfy 0 < band_min < band_max")


@dataclass(frozen=True)
class Scenario:
    cavity: CavityParams
    opa_pump_power: float  # W
    opa_threshold_power: float  # W; measured value, may differ from the model estimate
    chain: DetectionChain
    homodyne: HomodyneConfig
    trace: TraceConfig
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    interfere: InterfereConfig = field(default_factory=InterfereConfig)

    def operating_point(self) -> OpaOperatingPoint:
        """Operating point with the cavity half-linewidth from the cavity model."""
        return OpaOperatingPoint(
            pump_power=self.opa_pump_power,
            threshold_power=self.opa_threshold_power,
            cavity_hwhm=cavity_mod.fwhm(self.cavity) / 2.0,
        )

    def validate(self) -> None:
        """Cross-field consistency checks beyond per-type invariants."""
        if not (0.0 <= self.opa_pump_power < self.opa_threshold_power):
            raise ScenarioError(
                "opa.pump_power: must be below opa.threshold_power "
                f"({self.opa_pump_power} >= {self.opa_threshold_power})"
            )
        nyquist = self.trace.sample_rate / 2.0
        if self.interfere.tone_frequency >= nyquist:
            raise ScenarioError(
                "interfere.tone_frequency: above Nyquist "
                f"({self.interfere.tone_frequency:g} >= {nyquist:g})"
            )
        if self.interfere.band_max >= nyquist:
            raise ScenarioError(
                f"interfere.band_max: above Nyquist ({self.interfere.band_max:g} >= {nyquist:g})"
            )


# Scenario parameters that are not stated in the source experiment and are
# filled with documented assumptions by the paper preset.
PRESET_ASSUMPTIONS = (
    "cavity.crystal_index",
    "chain.phase_jitter_rms",
    "trace.electronic_floor_db",
)


def paper_preset(seed: int = 0) -> Scenario:
    """Scenario populated with the measured constants of the experiment."""
    return Scenario(
        cavity=CavityParams(
            geometric_length=0.052,
            crystal_length=0.005,
            mirror_R1=0.95,
            mirror_R2=0.99992,
            crystal_index=1.830,
            intracavity_loss=0.0,
            shg_efficiency=3.83e-3,
        ),
        opa_pump_power=0.130,
        opa_threshold_power=0.145,
        chain=DetectionChain(
            quantum_efficiency=0.95,
            homodyne_contrast=0.96,
            propagation_efficiency=0.94,
            escape_efficiency=1.0,
            phase_jitter_rms=0.0131,
        ),
        homodyne=HomodyneConfig(
            opa_power=0.16e-3,
            lo_power=4.2e-3,
        ),
        trace=TraceConfig(
            sample_rate=100e6,
            duration=1e-3,
            sweeps=100,
            rbw=30e3,
            vbw=10e3,
            seed=seed,
            electronic_floor_db=-12.0,
        ),
        capacity=CapacityConfig(),
        interfere=InterfereConfig(),
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
    return finite_float(value)


# what a value of each declared field type must be, as error messages say it
_EXPECTED = {int: "int", float: "finite float", float | None: "finite float or none"}


def _schema() -> dict[str, tuple[str | None, str, object]]:
    """Dotted key -> (section, or None for an `opa_*` field, field, declared type)."""
    keys = {}
    for attr, hint in get_type_hints(Scenario).items():
        if is_dataclass(hint):
            keys.update({f"{attr}.{k}": (attr, k, t) for k, t in get_type_hints(hint).items()})
        else:
            keys[attr.replace("_", ".", 1)] = (None, attr, hint)  # opa_x -> opa.x
    return keys


_KEYS = _schema()


def to_flat(scenario: Scenario) -> dict[str, object]:
    """Scenario as an ordered flat mapping of dotted keys to values."""
    return {
        key: getattr(getattr(scenario, section) if section else scenario, name)
        for key, (section, name, _) in _KEYS.items()
    }


def from_flat(flat: dict[str, object]) -> Scenario:
    """Validated Scenario from dotted keys over the paper preset.

    Each value, text or number, takes its field's declared type: a whole int,
    a finite float, or `none` for None.  Every refusal raises ScenarioError
    naming the dotted key (section checks name their field first).
    """
    changes: dict[str | None, dict[str, object]] = {}
    for key, value in flat.items():
        if key not in _KEYS:
            raise ScenarioError(f"{key}: unknown configuration key")
        section, name, kind = _KEYS[key]
        try:
            changes.setdefault(section, {})[name] = _typed(kind, value)
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"{key}: expected {_EXPECTED[kind]}, got {value!r}") from None
    base = paper_preset()
    top = changes.pop(None, {})
    for section, values in changes.items():
        try:
            top[section] = replace(getattr(base, section), **values)
        except ValueError as exc:
            raise ScenarioError(f"{section}.{exc}") from exc
    scenario = replace(base, **top)
    scenario.validate()
    return scenario


def serialize(scenario: Scenario) -> str:
    # typed values: repr gives ints as ints and floats exactly, None is `none`
    lines = [f"{k} = {'none' if v is None else repr(v)}" for k, v in to_flat(scenario).items()]
    return "\n".join(lines) + "\n"


def parse(text: str) -> Scenario:
    """Scenario from `key = value` lines; a line without a value is refused by key."""
    flat: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        if line.strip():
            key, _, value = line.partition("=")
            flat[key.strip()] = value.strip()
    return from_flat(flat)


def load(path) -> Scenario:
    with open(path) as fh:
        return parse(fh.read())


def save(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(scenario))
