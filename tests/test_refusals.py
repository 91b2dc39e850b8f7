"""Library maps refuse a non-finite or empty input with a ValueError that names
the argument, instead of returning inf or NaN or raising some other error."""
import math

import pytest

from squeezelab import capacity, gaussian, homodyne, spectrum, tracesim
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
])
def test_non_finite_input_is_refused_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call()


def test_largest_squeeze_r_still_gives_finite_variances():
    r = math.log(1.7976931348623157e308) / 2  # e^(2r) is the largest finite float
    assert math.isfinite(gaussian.variance_at(QuadratureState(1.0, r), 0.3))
