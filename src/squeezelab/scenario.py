"""Scenario configuration: one flat record of every physical parameter.

The on-disk format is deliberately plain: one `section.key = value` per
line, `#` comments, no nesting.  It round-trips exactly and diffs cleanly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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
            raise ValueError("need 0 < nbar_min < nbar_max")
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
            raise ValueError("need 0 < band_min < band_max")


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
            lo_phase_theta=math.pi / 2,
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


_SECTIONS = {
    "cavity": (CavityParams, "cavity"),
    "chain": (DetectionChain, "chain"),
    "homodyne": (HomodyneConfig, "homodyne"),
    "trace": (TraceConfig, "trace"),
    "capacity": (CapacityConfig, "capacity"),
    "interfere": (InterfereConfig, "interfere"),
}

_OPA_KEYS = {"pump_power": "opa_pump_power", "threshold_power": "opa_threshold_power"}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text: str):
    text = text.strip()
    if text.lower() == "none":
        return None
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def to_flat(scenario: Scenario) -> dict[str, object]:
    """Scenario as an ordered flat mapping of dotted keys to values."""
    flat: dict[str, object] = {}
    for section, (_, attr) in _SECTIONS.items():
        obj = getattr(scenario, attr)
        for f in fields(obj):
            flat[f"{section}.{f.name}"] = getattr(obj, f.name)
        if section == "cavity":
            flat["opa.pump_power"] = scenario.opa_pump_power
            flat["opa.threshold_power"] = scenario.opa_threshold_power
    return flat


def from_flat(flat: dict[str, object]) -> Scenario:
    """Build a Scenario from dotted keys; unknown keys are rejected."""
    by_section: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    opa: dict[str, object] = {}
    for key, value in flat.items():
        if "." not in key:
            raise ScenarioError(f"{key}: expected a dotted section.key name")
        section, _, name = key.partition(".")
        if section == "opa":
            if name not in _OPA_KEYS:
                raise ScenarioError(f"{key}: unknown configuration key")
            opa[_OPA_KEYS[name]] = value
            continue
        if section not in _SECTIONS:
            raise ScenarioError(f"{key}: unknown configuration section")
        cls, _ = _SECTIONS[section]
        if name not in {f.name for f in fields(cls)}:
            raise ScenarioError(f"{key}: unknown configuration key")
        by_section[section][name] = value

    base = paper_preset()
    kwargs = {}
    for section, (cls, attr) in _SECTIONS.items():
        defaults = {f.name: getattr(getattr(base, attr), f.name) for f in fields(cls)}
        defaults.update(by_section[section])
        try:
            kwargs[attr] = cls(**defaults)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{section}: {exc}") from exc
    kwargs["opa_pump_power"] = opa.get("opa_pump_power", base.opa_pump_power)
    kwargs["opa_threshold_power"] = opa.get("opa_threshold_power", base.opa_threshold_power)
    scenario = Scenario(**kwargs)
    scenario.validate()
    return scenario


def serialize(scenario: Scenario) -> str:
    lines = [f"{key} = {_format_value(value)}" for key, value in to_flat(scenario).items()]
    return "\n".join(lines) + "\n"


def parse(text: str) -> Scenario:
    flat: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        flat[key.strip()] = _parse_value(value)
    return from_flat(flat)


def load(path) -> Scenario:
    with open(path) as fh:
        return parse(fh.read())


def save(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(scenario))
