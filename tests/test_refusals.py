"""Library maps refuse a non-finite, empty or out-of-range input with a ValueError that names
the argument, instead of returning inf or NaN or raising some other error."""
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezelab import capacity, cavity, gaussian, homodyne, spectrum, tracesim
from squeezelab.gaussian import LossModel, QuadratureState

OP = spectrum.OpaOperatingPoint(pump_power=0.05, threshold_power=0.145, cavity_hwhm=10.9e6)


@pytest.mark.parametrize("name, call", [
    pytest.param("state_variance", lambda: gaussian.apply_loss(math.inf, LossModel(0.5)), id="apply_loss(inf)"),
    pytest.param("v_max", lambda: gaussian.apply_phase_jitter(0.5, math.inf, 0.1), id="apply_phase_jitter(v_max=inf)"),
    pytest.param("jitter_rms", lambda: gaussian.apply_phase_jitter(0.5, 1.0, math.inf),
                 id="apply_phase_jitter(jitter_rms=inf)"),
    pytest.param("ratio", lambda: gaussian.ratio_to_db(math.inf), id="ratio_to_db(inf)"),
    pytest.param("squeezed_variance", lambda: homodyne.blocked_shot_noise_ratio(math.inf, 0.03),
                 id="blocked_shot_noise_ratio(inf, p)"),
    pytest.param("power_ratio", lambda: homodyne.blocked_shot_noise_ratio(0.5, math.inf),
                 id="blocked_shot_noise_ratio(v, inf)"),
    pytest.param("power_ratio", lambda: homodyne.equal_power_shot_noise_ratio(0.5, math.inf),
                 id="equal_power_shot_noise_ratio(v, inf)"),
    pytest.param("power_ratio", lambda: homodyne.correct_blocked_shot_noise(0.5, math.inf),
                 id="correct_blocked_shot_noise(obs, inf)"),
    pytest.param("power_ratio", lambda: homodyne.correct_equal_power_shot_noise(0.5, math.inf),
                 id="correct_equal_power_shot_noise(obs, inf)"),
    pytest.param("theta", lambda: gaussian.variance_at(QuadratureState(1.0, 0.3), math.nan), id="variance_at(nan)"),
    pytest.param("theta", lambda: gaussian.variance_at(QuadratureState(1.0, 0.3), math.inf), id="variance_at(inf)"),
    pytest.param("theta", lambda: gaussian.variance_at(QuadratureState(1.0, 0.3), [0.1, math.nan]),
                 id="variance_at([0.1, nan])"),
    pytest.param("squeeze_r", lambda: gaussian.variance_at(QuadratureState(1.0, 400.0), 0.3),
                 id="QuadratureState(r=400)"),
    pytest.param("omega", lambda: spectrum.ideal_spectrum(OP, math.nan, spectrum.TraceLabel.SQUEEZED_QUADRATURE),
                 id="ideal_spectrum(nan)"),
    pytest.param("start", lambda: capacity.default_nbar_grid(math.nan, 1.0, 3), id="default_nbar_grid(nan, ...)"),
    pytest.param("stop", lambda: capacity.default_nbar_grid(0.01, math.inf, 3), id="default_nbar_grid(..., inf)"),
    pytest.param("target_spectrum", lambda: tracesim.averaged_psd(tracesim.TraceConfig(duration=1e-4, sweeps=2), []),
                 id="averaged_psd(cfg, [])"),
    pytest.param(r"squeezed_variance \+ power_ratio", lambda: homodyne.blocked_shot_noise_ratio(1e308, 1e308),
                 id="blocked_shot_noise_ratio(1e308, 1e308)"),
    pytest.param(r"squeezed_variance \+ power_ratio", lambda: homodyne.equal_power_shot_noise_ratio(1e308, 1e308),
                 id="equal_power_shot_noise_ratio(1e308, 1e308)"),
    pytest.param("points", lambda: capacity.default_nbar_grid(1.0, 10.0, 2.5), id="default_nbar_grid(points=2.5)"),
    pytest.param("points", lambda: capacity.default_nbar_grid(1.0, 10.0, -1), id="default_nbar_grid(points=-1)"),
    pytest.param("step", lambda: spectrum.default_frequency_grid(step=0.0), id="default_frequency_grid(step=0)"),
    pytest.param("step", lambda: spectrum.default_frequency_grid(step=-1.0), id="default_frequency_grid(step=-1)"),
    pytest.param("start", lambda: spectrum.default_frequency_grid(start=math.nan),
                 id="default_frequency_grid(start=nan)"),
    pytest.param("sweep_index", lambda: tracesim.sweep_rng(tracesim.TraceConfig(), -1), id="sweep_rng(cfg, -1)"),
    pytest.param("sweep_index", lambda: tracesim.sweep_rng(tracesim.TraceConfig(), 2**128),
                 id="sweep_rng(cfg, 2**128)"),
    pytest.param("sweep_index", lambda: tracesim.sweep_rng(tracesim.TraceConfig(), 1.5), id="sweep_rng(cfg, 1.5)"),
    pytest.param("sweep_index", lambda: tracesim.sweep_rng(tracesim.TraceConfig(), math.nan),
                 id="sweep_rng(cfg, nan)"),
    # a trace is accepted at any finite level and at no points, which its readers cannot read
    pytest.param("values_db", lambda: spectrum.flat_trace(3090.0, [1.0]).ratio(), id="flat_trace(3090 dB).ratio()"),
    pytest.param("frequencies",
                 lambda: spectrum.SpectrumTrace([], [], spectrum.TraceLabel.SHOT_NOISE).ratio_at([1.0]),
                 id="empty SpectrumTrace.ratio_at"),
])
def test_non_finite_input_is_refused_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call()


def test_largest_squeeze_r_still_gives_finite_variances():
    r = math.log(1.7976931348623157e308) / 2  # e^(2r) is the largest finite float
    assert math.isfinite(gaussian.variance_at(QuadratureState(1.0, r), 0.3))


# ROADMAP item 8's property: each public function and dataclass of these modules, fed NaN,
# ±inf, ±0, ±1e308 and small arrays of them, returns a finite result or raises a ValueError
# whose message names one of its arguments
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308)
CAVITY = dict(geometric_length=0.052, crystal_length=0.005, mirror_R1=0.95, mirror_R2=0.99992,
              crystal_index=1.83, intracavity_loss=0.0, shg_efficiency=3.83e-3)
CHAIN = spectrum.DetectionChain(phase_jitter_rms=0.0131)
SQ = spectrum.TraceLabel.SQUEEZED_QUADRATURE


def edge_or(valid):
    return st.one_of(st.just(valid), st.sampled_from(EDGES))


def scalar(valid):
    """`valid` or an edge, whatever the length `n` of the call's arrays."""
    return lambda n: edge_or(valid)


def array(valid):
    """`valid`, an edge, or an array of `n` of them: a call's arrays share one length."""
    return lambda n: st.one_of(edge_or(valid), st.lists(edge_or(valid), min_size=n, max_size=n).map(np.array))


def fixed(value):
    return lambda n: st.just(value)


# per callable, each argument's strategy given the length of the call's arrays
CALLS = {
    gaussian.QuadratureState: dict(mean_amplitude=scalar(1.0), squeeze_r=scalar(0.3)),
    gaussian.LossModel: dict(efficiency_eta=scalar(0.9)),
    gaussian.variance_at: dict(state=fixed(QuadratureState(1.0, 0.3)), theta=array(0.3)),
    gaussian.apply_loss: dict(state_variance=array(0.5), loss=fixed(LossModel(0.9))),
    gaussian.apply_phase_jitter: dict(v_min=array(0.5), v_max=array(2.0), jitter_rms=array(0.1)),
    gaussian.ratio_to_db: dict(ratio=array(0.5)),
    gaussian.db_to_ratio: dict(d=scalar(-3.0)),
    homodyne.HomodyneConfig: dict(opa_power=scalar(0.16e-3), lo_power=scalar(4.2e-3)),
    homodyne.blocked_shot_noise_ratio: dict(squeezed_variance=array(0.5), power_ratio=array(0.04)),
    homodyne.equal_power_shot_noise_ratio: dict(squeezed_variance=array(0.5), power_ratio=array(0.04)),
    homodyne.correct_blocked_shot_noise: dict(observed_ratio=array(0.6), power_ratio=array(0.04)),
    homodyne.correct_equal_power_shot_noise: dict(observed_ratio=array(0.6), power_ratio=array(0.04)),
    cavity.CavityParams: {name: scalar(value) for name, value in CAVITY.items()},
    capacity.CapacityCurve: dict(nbar_grid=array(1.0), capacities=array(0.5),
                                 bound_kind=fixed(capacity.BoundKind.COHERENT)),
    capacity.capacity_coherent: dict(nbar=array(1.0)),
    capacity.capacity_coherent_squeezed_detection: dict(nbar=array(1.0), r=scalar(0.3776)),
    capacity.capacity_squeezed_encoding: dict(nbar=array(1.0), r=scalar(0.3776)),
    capacity.holevo_bound: dict(nbar=array(1.0)),
    capacity.default_nbar_grid: dict(
        start=scalar(0.01), stop=scalar(10.0),
        points=lambda n: st.sampled_from((5, 0, -1, 2.5, capacity.MAX_NBAR_POINTS + 1, *EDGES))),
    capacity.curve_suite: dict(nbar_grid=array(1.0), r=scalar(0.3776)),
    spectrum.OpaOperatingPoint: dict(pump_power=scalar(0.13), threshold_power=scalar(0.145),
                                     cavity_hwhm=scalar(10.9e6)),
    spectrum.DetectionChain: dict(quantum_efficiency=scalar(0.95), homodyne_contrast=scalar(0.96),
                                  propagation_efficiency=scalar(0.94), escape_efficiency=scalar(1.0),
                                  phase_jitter_rms=scalar(0.0131)),
    spectrum.SpectrumTrace: dict(frequencies=array(1e6), values_db=array(-3.0), label=fixed(SQ)),
    spectrum.default_frequency_grid: dict(start=scalar(1e6), stop=scalar(25e6), step=scalar(30e3)),
    spectrum.flat_trace: dict(level_db=scalar(-3.0), frequencies=array(1e6)),
    spectrum.ideal_spectrum: dict(op=fixed(OP), omega=array(1e6), quadrature=fixed(SQ)),
    spectrum.detected_variance: dict(op=fixed(OP), chain=fixed(CHAIN), omega=array(1e6)),
    spectrum.detected_spectrum: dict(op=fixed(OP), chain=fixed(CHAIN), omega=array(1e6)),
}


def finite_values(result):
    """Every number `result` holds or derives: its own, a dataclass's fields and properties
    (a cavity's every quantity), a list's items."""
    if isinstance(result, list):
        return [v for item in result for v in finite_values(item)]
    if isinstance(result, cavity.CavityParams):
        return [f(result) for f in (cavity.optical_length, cavity.free_spectral_range, cavity.finesse,
                                    cavity.fwhm, cavity.threshold_power, cavity.escape_efficiency)]
    if isinstance(result, capacity.CapacityCurve):  # NaN marks a point outside the bound's domain
        return [result.nbar_grid, result.capacities[~np.isnan(result.capacities)]]
    if dataclasses.is_dataclass(result):
        names = [f.name for f in dataclasses.fields(result)]
        names += [n for n, v in vars(type(result)).items() if isinstance(v, property)]
        return [v for n in names if isinstance(v := getattr(result, n), (int, float, np.ndarray))]
    return [result]


@pytest.mark.parametrize("call", list(CALLS), ids=lambda call: call.__name__)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_public_call_is_finite_or_refused_by_name(call, data):
    n = data.draw(st.integers(0, 3))
    kwargs = data.draw(st.fixed_dictionaries({name: arg(n) for name, arg in CALLS[call].items()}))
    try:
        result = call(**kwargs)
    except ValueError as exc:
        message = str(exc)
        names = [p for p in inspect.signature(call).parameters if re.search(rf"\b{p}\b", message)]
        assert names, message
    else:
        for v in finite_values(result):
            assert np.isfinite(v).all(), (kwargs, result)
