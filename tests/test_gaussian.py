import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squeezelab.gaussian import (
    LossModel,
    Quadrature,
    QuadratureState,
    apply_loss,
    apply_phase_jitter,
    composite_detection_efficiency,
    db_to_ratio,
    ratio_to_db,
    variance_at,
)

ETA_TOTAL = 0.95 * 0.96**2 * 0.94  # composite detection efficiency, ~0.823


def phase_state(r):
    return QuadratureState(mean_amplitude=1.0, squeeze_r=r, squeezed_quadrature=Quadrature.PHASE)


class TestVarianceAt:
    def test_coherent_state_is_shot_limited(self):
        state = phase_state(0.0)
        for theta in (0.0, 0.3, math.pi / 2, 2.0):
            assert variance_at(state, theta) == pytest.approx(1.0)

    def test_squeezed_quadrature_value(self):
        # e^{-2r} = 0.3837 for r = 0.479, read at theta = pi/2
        state = phase_state(0.479)
        v = variance_at(state, math.pi / 2)
        assert v == pytest.approx(math.exp(-2 * 0.479), rel=1e-12)
        assert v == pytest.approx(0.3837, abs=2e-4)
        assert ratio_to_db(v) == pytest.approx(-4.16, abs=5e-3)

    def test_antisqueezed_quadrature_value(self):
        state = phase_state(0.3776)
        assert variance_at(state, 0.0) == pytest.approx(1.0 / 0.47, abs=2e-3)
        assert variance_at(state, 0.0) == pytest.approx(2.1277, abs=1e-3)

    def test_amplitude_convention_swaps_axes(self):
        state = QuadratureState(1.0, 0.5, Quadrature.AMPLITUDE)
        assert variance_at(state, 0.0) == pytest.approx(math.exp(-1.0))
        assert variance_at(state, math.pi / 2) == pytest.approx(math.exp(1.0))

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            QuadratureState(1.0, -0.1)

    @given(
        r=st.floats(0.0, 3.0),
        theta=st.floats(-10.0, 10.0),
    )
    def test_positive_and_pi_periodic(self, r, theta):
        state = phase_state(r)
        v = variance_at(state, theta)
        assert v > 0.0
        assert variance_at(state, theta + math.pi) == pytest.approx(v, rel=1e-9)

    @given(r=st.floats(0.0, 3.0), theta=st.floats(0.0, math.pi))
    def test_uncertainty_product(self, r, theta):
        state = phase_state(r)
        product = variance_at(state, theta) * variance_at(state, theta + math.pi / 2)
        assert product >= 1.0 - 1e-9

    @given(r=st.floats(1e-3, 3.0))
    def test_uncertainty_equality_on_principal_axes(self, r):
        state = phase_state(r)
        product = variance_at(state, 0.0) * variance_at(state, math.pi / 2)
        assert product == pytest.approx(1.0, rel=1e-9)


class TestApplyLoss:
    def test_shot_noise_fixed_point(self):
        for eta in (0.1, 0.5, 0.823, 1.0):
            assert apply_loss(1.0, LossModel(eta)) == pytest.approx(1.0)

    def test_paper_loss_budget(self):
        # deep squeezing of 0.0006 degraded through the full detection chain
        assert ETA_TOTAL == pytest.approx(0.823, abs=5e-4)
        assert apply_loss(0.0006, LossModel(0.823)) == pytest.approx(0.1775, abs=1e-4)

    def test_midpoint(self):
        assert apply_loss(2.0, LossModel(0.5)) == pytest.approx(1.5)

    def test_rejects_bad_efficiency(self):
        for eta in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                LossModel(eta)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            apply_loss(0.0, LossModel(0.5))

    @given(
        eta=st.floats(0.01, 1.0),
        v1=st.floats(1e-6, 100.0),
        v2=st.floats(1e-6, 100.0),
    )
    def test_affine_and_monotone(self, eta, v1, v2):
        loss = LossModel(eta)
        lo, hi = sorted((v1, v2))
        assert apply_loss(lo, loss) <= apply_loss(hi, loss) + 1e-12
        mid = 0.5 * (v1 + v2)
        assert apply_loss(mid, loss) == pytest.approx(
            0.5 * (apply_loss(v1, loss) + apply_loss(v2, loss)), rel=1e-9
        )


class TestPhaseJitter:
    def test_no_jitter_returns_v_min(self):
        assert apply_phase_jitter(0.3, 5.0, 0.0) == 0.3

    def test_full_swap(self):
        assert apply_phase_jitter(0.3, 5.0, math.pi / 2) == pytest.approx(5.0)

    def test_fitted_jitter_reproduces_observed_squeezing(self):
        # invert sin^2(sigma) = (0.3837 - v_min)/(v_max - v_min), then forward
        v_min, v_max = 0.1775, 1202.0
        sigma = math.asin(math.sqrt((0.3837 - v_min) / (v_max - v_min)))
        assert sigma == pytest.approx(0.0131, abs=1e-4)
        assert apply_phase_jitter(v_min, v_max, 0.0131) == pytest.approx(0.3837, abs=1e-3)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            apply_phase_jitter(-0.1, 1.0, 0.0)

    @given(v=st.floats(1e-6, 100.0), sigma=st.floats(0.0, 10.0))
    def test_identity_when_variances_equal(self, v, sigma):
        assert apply_phase_jitter(v, v, sigma) == pytest.approx(v, rel=1e-9)


class TestDbConversions:
    def test_anchor_values(self):
        assert ratio_to_db(1.0) == 0.0
        assert ratio_to_db(0.4217) == pytest.approx(-3.75, abs=5e-3)
        assert ratio_to_db(0.47) == pytest.approx(-3.28, abs=5e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ratio_to_db(0.0)
        with pytest.raises(ValueError):
            ratio_to_db(-1.0)

    @given(v=st.floats(1e-12, 1e12))
    def test_round_trip(self, v):
        assert db_to_ratio(ratio_to_db(v)) == pytest.approx(v, rel=1e-12)


class TestArrays:
    V = np.array([1e-6, 0.2, 1.0, 7.5])

    def test_loss_matches_scalar(self):
        loss = LossModel(0.823)
        assert np.array_equal(apply_loss(self.V, loss), [apply_loss(v, loss) for v in self.V])

    def test_jitter_matches_scalar(self):
        v_max = self.V * 3.0
        for sigma in (0.0, 0.0131, np.array([0.0, 0.1, 0.5, 1.5])):
            expected = [
                apply_phase_jitter(lo, hi, s)
                for lo, hi, s in zip(self.V, v_max, np.broadcast_to(sigma, self.V.shape))
            ]
            assert np.array_equal(apply_phase_jitter(self.V, v_max, sigma), expected)

    def test_db_matches_scalar(self):
        assert np.array_equal(ratio_to_db(self.V), [ratio_to_db(v) for v in self.V])

    def test_any_invalid_element_raises(self):
        bad = np.array([0.5, 1.0, -0.1])
        with pytest.raises(ValueError, match="-0.1"):
            apply_loss(bad, LossModel(0.5))
        with pytest.raises(ValueError):
            ratio_to_db(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            apply_phase_jitter(bad, 2.0, 0.0)
        with pytest.raises(ValueError):
            apply_phase_jitter(np.array([0.5, 3.0]), np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            apply_phase_jitter(0.5, 1.0, np.array([0.1, -0.1]))


def test_composite_efficiency_validates_factors():
    with pytest.raises(ValueError):
        composite_detection_efficiency(1.1, 0.96, 0.94)
    with pytest.raises(ValueError):
        composite_detection_efficiency(0.95, 0.0, 0.94)
