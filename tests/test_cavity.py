import pytest
from hypothesis import given, strategies as st

from squeezelab.cavity import (
    SPEED_OF_LIGHT,
    CavityParams,
    escape_efficiency,
    finesse,
    free_spectral_range,
    fwhm,
    threshold_power,
)

# Measured regression constants for the physical resonator (not model outputs):
# finesse 125(3), FWHM 21.3(5) MHz, FSR 2.66(2) GHz, threshold 145 mW.
MEASURED_FINESSE = 125.0
MEASURED_FWHM = 21.3e6
MEASURED_FSR = 2.66e9
MEASURED_THRESHOLD = 0.145


def paper_cavity(**overrides):
    kwargs = dict(
        geometric_length=0.052,
        crystal_length=0.005,
        mirror_R1=0.95,
        mirror_R2=0.99992,
        crystal_index=1.830,
        intracavity_loss=0.0,
        shg_efficiency=3.83e-3,
    )
    kwargs.update(overrides)
    return CavityParams(**kwargs)


class TestFreeSpectralRange:
    def test_paper_geometry(self):
        fsr = free_spectral_range(paper_cavity())
        # c / (2 * 0.05615 m) by hand
        assert fsr == pytest.approx(SPEED_OF_LIGHT / (2 * 0.05615), rel=1e-12)
        assert fsr == pytest.approx(2.67e9, rel=2e-3)
        # within the measured 2.66(2) GHz
        assert abs(fsr - MEASURED_FSR) < 0.02e9

    def test_empty_cavity(self):
        c = paper_cavity(geometric_length=0.15, crystal_length=0.0)
        assert free_spectral_range(c) == pytest.approx(SPEED_OF_LIGHT / 0.3)

    def test_index_one_crystal_is_vacuum(self):
        with_crystal = paper_cavity(crystal_index=1.0)
        empty = paper_cavity(crystal_length=0.0)
        assert free_spectral_range(with_crystal) == pytest.approx(
            free_spectral_range(empty)
        )


class TestFinesse:
    def test_paper_mirrors(self):
        assert finesse(paper_cavity()) == pytest.approx(122.3, abs=0.05)

    def test_symmetric_mirrors(self):
        c = paper_cavity(mirror_R1=0.99, mirror_R2=0.99)
        import math

        expected = math.pi * 0.99**0.5 / (1 - 0.99)
        assert finesse(c) == pytest.approx(expected, rel=1e-12)
        assert finesse(c) == pytest.approx(312.6, abs=0.1)

    def test_low_reflectivity_limit_small(self):
        c = paper_cavity(mirror_R1=1e-4, mirror_R2=1e-4)
        assert finesse(c) < 0.05

    @given(
        r1=st.floats(0.01, 0.9999),
        r2=st.floats(0.01, 0.9999),
        bump=st.floats(1e-5, 1e-4),
    )
    def test_monotone_in_reflectivity(self, r1, r2, bump):
        base = paper_cavity(mirror_R1=r1, mirror_R2=r2)
        if r1 + bump < 1.0:
            assert finesse(paper_cavity(mirror_R1=r1 + bump, mirror_R2=r2)) > finesse(base)
        if r2 + bump < 1.0:
            assert finesse(paper_cavity(mirror_R1=r1, mirror_R2=r2 + bump)) > finesse(base)


class TestFwhm:
    def test_measured_values_consistent(self):
        assert MEASURED_FSR / MEASURED_FINESSE == pytest.approx(MEASURED_FWHM, abs=0.2e6)

    def test_model_fwhm(self):
        c = paper_cavity()
        assert fwhm(c) == pytest.approx(free_spectral_range(c) / finesse(c), rel=1e-12)
        assert fwhm(c) == pytest.approx(21.83e6, rel=1e-2)

    @given(r1=st.floats(0.5, 0.999), r2=st.floats(0.5, 0.999))
    def test_product_identity(self, r1, r2):
        c = paper_cavity(mirror_R1=r1, mirror_R2=r2)
        assert fwhm(c) * finesse(c) == pytest.approx(free_spectral_range(c), rel=1e-12)


class TestThresholdPower:
    def test_paper_constants(self):
        p = threshold_power(paper_cavity())
        assert p == pytest.approx(0.0025 / (4 * 3.83e-3), rel=1e-12)
        assert p == pytest.approx(0.163, abs=1e-3)
        # model-level agreement with the measured 145 mW, within 15%
        assert abs(p - MEASURED_THRESHOLD) / MEASURED_THRESHOLD < 0.15

    def test_with_intracavity_loss(self):
        p = threshold_power(paper_cavity(intracavity_loss=0.01))
        assert p == pytest.approx(0.06**2 / (4 * 3.83e-3), rel=1e-12)
        assert p == pytest.approx(0.235, abs=1e-3)

    def test_inverse_in_nonlinearity(self):
        base = threshold_power(paper_cavity())
        doubled = threshold_power(paper_cavity(shg_efficiency=2 * 3.83e-3))
        assert doubled == pytest.approx(base / 2, rel=1e-12)

    @given(
        enl=st.floats(1e-4, 1e-1),
        loss=st.floats(0.0, 0.2),
        extra=st.floats(1e-4, 0.05),
    )
    def test_monotonicity(self, enl, loss, extra):
        base = threshold_power(paper_cavity(shg_efficiency=enl, intracavity_loss=loss))
        assert threshold_power(
            paper_cavity(shg_efficiency=enl * 1.5, intracavity_loss=loss)
        ) < base
        assert threshold_power(
            paper_cavity(shg_efficiency=enl, intracavity_loss=loss + extra)
        ) > base


class TestEscapeEfficiency:
    def test_lossless(self):
        assert escape_efficiency(paper_cavity()) == 1.0

    def test_small_loss(self):
        assert escape_efficiency(paper_cavity(intracavity_loss=0.005)) == pytest.approx(
            0.05 / 0.055, rel=1e-12
        )

    def test_symmetric_split(self):
        assert escape_efficiency(paper_cavity(intracavity_loss=0.05)) == pytest.approx(0.5)

    @given(loss=st.floats(0.0, 0.5))
    def test_bounded(self, loss):
        eta = escape_efficiency(paper_cavity(intracavity_loss=loss))
        assert 0.0 < eta <= 1.0
        if loss == 0.0:
            assert eta == 1.0
        elif loss > 1e-6:
            assert eta < 1.0


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            paper_cavity(geometric_length=-1.0)
        with pytest.raises(ValueError):
            paper_cavity(mirror_R1=1.0)
        with pytest.raises(ValueError):
            paper_cavity(intracavity_loss=1.0)
        with pytest.raises(ValueError):
            paper_cavity(shg_efficiency=0.0)
        with pytest.raises(ValueError):
            paper_cavity(crystal_length=0.06)
        with pytest.raises(ValueError, match="^crystal_index must be >= 1$"):
            paper_cavity(crystal_index=0.5)
