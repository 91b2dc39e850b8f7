import math

import pytest
from hypothesis import assume, given, strategies as st

from squeezelab.gaussian import QuadratureState, ratio_to_db
from squeezelab.homodyne import (
    HomodyneConfig,
    blocked_shot_noise_ratio,
    correct_blocked_shot_noise,
    correct_equal_power_shot_noise,
    difference_photocurrent_stats,
    equal_power_shot_noise_ratio,
)

POWER_RATIO = 0.038  # P_OPA / P_LO = 0.16 mW / 4.2 mW


def paper_config():
    return HomodyneConfig(opa_power=0.16e-3, lo_power=4.2e-3)


class TestDifferenceStats:
    def test_fringe_null_at_quadrature(self):
        mean, _ = difference_photocurrent_stats(
            paper_config(), QuadratureState(1.0), QuadratureState(1.0)
        )
        assert mean == pytest.approx(0.0, abs=1e-15)

    def test_fringe_maximum(self):
        cfg = paper_config()
        mean, _ = difference_photocurrent_stats(
            cfg, QuadratureState(1.0), QuadratureState(1.0), theta=0.0
        )
        assert mean == pytest.approx(2 * math.sqrt(cfg.opa_power * cfg.lo_power), rel=1e-12)

    def test_paper_squeezed_variance(self):
        cfg = paper_config()
        assert cfg.power_ratio == pytest.approx(POWER_RATIO, abs=2e-4)
        _, var = difference_photocurrent_stats(
            cfg, QuadratureState(1.0, squeeze_r=0.479), QuadratureState(1.0)
        )
        ratio = var / cfg.lo_power
        assert ratio == pytest.approx(cfg.power_ratio + math.exp(-2 * 0.479), rel=1e-12)
        assert ratio_to_db(ratio) == pytest.approx(-3.75, abs=0.01)

    def test_coherent_beams_give_both_shot_noises(self):
        cfg = paper_config()
        _, var = difference_photocurrent_stats(
            cfg, QuadratureState(1.0), QuadratureState(1.0), theta=0.7
        )
        assert var == pytest.approx(cfg.opa_power + cfg.lo_power, rel=1e-12)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            HomodyneConfig(opa_power=-1e-3, lo_power=4.2e-3)

    def test_blocked_beam_consistency(self):
        # coherent bright beam = blocked beam plus the alpha^2 offset, exactly
        cfg = paper_config()
        _, var_bright = difference_photocurrent_stats(
            cfg, QuadratureState(1.0), QuadratureState(1.0)
        )
        blocked = HomodyneConfig(opa_power=0.0, lo_power=cfg.lo_power)
        _, var_blocked = difference_photocurrent_stats(
            blocked, QuadratureState(1.0), QuadratureState(1.0)
        )
        assert var_bright == pytest.approx(var_blocked + cfg.opa_power, rel=1e-12)


class TestBlockedCorrection:
    def test_paper_value(self):
        corrected = correct_blocked_shot_noise(10 ** (-0.375), POWER_RATIO)
        assert ratio_to_db(corrected) == pytest.approx(-4.16, abs=0.005)

    def test_zero_ratio_is_identity(self):
        assert correct_blocked_shot_noise(0.7, 0.0) == pytest.approx(0.7)

    def test_coherent_forward(self):
        observed = blocked_shot_noise_ratio(1.0, POWER_RATIO)
        assert observed == pytest.approx(1.038, rel=1e-12)
        assert ratio_to_db(observed) == pytest.approx(0.16, abs=0.005)

    def test_rejects_nonphysical(self):
        with pytest.raises(ValueError):
            correct_blocked_shot_noise(0.03, 0.038)

    @given(vn=st.floats(1e-4, 2.0), ratio=st.floats(0.0, 1.0))
    def test_round_trip(self, vn, ratio):
        observed = blocked_shot_noise_ratio(vn, ratio)
        assert correct_blocked_shot_noise(observed, ratio) == pytest.approx(vn, rel=1e-12)

    @given(obs=st.floats(0.1, 2.0), ratio=st.floats(0.0, 0.0999))
    def test_correction_never_increases(self, obs, ratio):
        assert correct_blocked_shot_noise(obs, ratio) <= obs


class TestEqualPowerCorrection:
    def test_paper_value(self):
        corrected = correct_equal_power_shot_noise(10 ** (-0.300), POWER_RATIO)
        assert corrected == pytest.approx(0.4822, abs=5e-4)
        assert ratio_to_db(corrected) == pytest.approx(-3.17, abs=0.005)
        # the quoted rounded value
        assert ratio_to_db(corrected) == pytest.approx(-3.2, abs=0.05)

    def test_zero_ratio_is_identity(self):
        assert correct_equal_power_shot_noise(0.7, 0.0) == pytest.approx(0.7)

    def test_coherent_substitution_is_exact(self):
        for ratio in (0.0, 0.038, 0.5):
            assert equal_power_shot_noise_ratio(1.0, ratio) == pytest.approx(1.0)

    def test_rejects_nonphysical(self):
        with pytest.raises(ValueError):
            correct_equal_power_shot_noise(0.03, 0.038)

    @given(vn=st.floats(1e-4, 2.0), ratio=st.floats(0.0, 1.0))
    def test_round_trip(self, vn, ratio):
        observed = equal_power_shot_noise_ratio(vn, ratio)
        assert correct_equal_power_shot_noise(observed, ratio) == pytest.approx(vn, rel=1e-12)

    @given(obs=st.floats(0.05, 2.0), ratio=st.floats(1e-4, 1.0))
    def test_reduces_iff_squeezed(self, obs, ratio):
        # skip pairs where the observed level is impossible at this ratio
        assume(obs * (1.0 + ratio) - ratio > 1e-6)
        corrected = correct_equal_power_shot_noise(obs, ratio)
        if obs < 1.0 - 1e-9:
            assert corrected < obs
        elif obs > 1.0 + 1e-9:
            assert corrected > obs

    @given(vn=st.floats(0.1, 1.5))
    def test_corrections_agree_as_ratio_vanishes(self, vn):
        for ratio in (1e-3, 1e-5):
            blocked = correct_blocked_shot_noise(blocked_shot_noise_ratio(vn, ratio), ratio)
            equal = correct_equal_power_shot_noise(equal_power_shot_noise_ratio(vn, ratio), ratio)
            assert blocked == pytest.approx(equal, rel=1e-9)
            assert blocked == pytest.approx(vn, rel=1e-9)
