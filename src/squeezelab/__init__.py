"""Simulation and analysis toolkit for a bright phase-squeezed OPA beam."""

# not `cli`: `python -m squeezelab.cli` warns when the package imported it first
from . import capacity, cavity, gaussian, homodyne, scenario, spectrum, tracesim

__all__ = [
    "capacity",
    "cavity",
    "cli",
    "gaussian",
    "homodyne",
    "scenario",
    "spectrum",
    "tracesim",
]

__version__ = "0.1.0"
