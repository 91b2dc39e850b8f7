import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squeezelab.gaussian import LossModel, apply_loss, apply_phase_jitter
from squeezelab.spectrum import (
    DetectionChain,
    OpaOperatingPoint,
    SpectrumTrace,
    TraceLabel,
    default_frequency_grid,
    detected_spectrum,
    detected_variance,
    flat_trace,
    ideal_spectrum,
    read_traces_csv,
    write_traces_csv,
)

GAMMA = 10.65e6  # cavity HWHM, Hz (half the measured 21.3 MHz FWHM)


def paper_op(pump=0.130, threshold=0.145, hwhm=GAMMA):
    return OpaOperatingPoint(pump_power=pump, threshold_power=threshold, cavity_hwhm=hwhm)


def lossless_chain(jitter=0.0):
    return DetectionChain(
        quantum_efficiency=1.0,
        homodyne_contrast=1.0,
        propagation_efficiency=1.0,
        escape_efficiency=1.0,
        phase_jitter_rms=jitter,
    )


def paper_chain(jitter=0.0131):
    return DetectionChain(phase_jitter_rms=jitter)


class TestOperatingPoint:
    def test_pump_ratio(self):
        assert paper_op().pump_ratio_x == pytest.approx(math.sqrt(0.130 / 0.145), rel=1e-12)
        # the quoted operating point P_p/P_th = 0.90 within rounding
        assert paper_op().pump_ratio_x**2 == pytest.approx(0.90, abs=4e-3)

    def test_rejects_at_or_above_threshold(self):
        with pytest.raises(ValueError):
            paper_op(pump=0.145)
        with pytest.raises(ValueError):
            paper_op(pump=0.2)


class TestIdealSpectrum:
    def test_unpumped_is_shot_limited(self):
        op = paper_op(pump=0.0)
        for omega in (0.0, 1e6, 50e6):
            for quad in (TraceLabel.SQUEEZED_QUADRATURE, TraceLabel.ANTISQUEEZED_QUADRATURE):
                assert ideal_spectrum(op, omega, quad) == pytest.approx(1.0)

    def test_zero_frequency_squeezing_at_paper_point(self):
        op = paper_op()
        x = op.pump_ratio_x
        expected = 1.0 - 4 * x / (1 + x) ** 2
        s = ideal_spectrum(op, 0.0, TraceLabel.SQUEEZED_QUADRATURE)
        assert s == pytest.approx(expected, rel=1e-12)
        assert s == pytest.approx(7.45e-4, abs=2e-5)

    def test_lorentzian_half_width(self):
        op = paper_op()
        x = op.pump_ratio_x
        s0 = ideal_spectrum(op, 0.0, TraceLabel.SQUEEZED_QUADRATURE)
        half = ideal_spectrum(op, GAMMA * (1 + x), TraceLabel.SQUEEZED_QUADRATURE)
        assert half == pytest.approx(0.5 * (s0 + 1.0), rel=1e-12)

    def test_returns_to_shot_noise(self):
        op = paper_op()
        assert ideal_spectrum(op, 1e12, TraceLabel.SQUEEZED_QUADRATURE) == pytest.approx(
            1.0, abs=1e-6
        )

    @given(
        ratio=st.floats(0.01, 0.99),
        omega=st.floats(0.0, 100e6),
    )
    def test_ordering_and_purity(self, ratio, omega):
        op = paper_op(pump=0.145 * ratio)
        s_minus = ideal_spectrum(op, omega, TraceLabel.SQUEEZED_QUADRATURE)
        s_plus = ideal_spectrum(op, omega, TraceLabel.ANTISQUEEZED_QUADRATURE)
        assert 0.0 < s_minus < 1.0 < s_plus
        # intracavity parametric output is pure at every sideband
        assert s_minus * s_plus == pytest.approx(1.0, rel=1e-9)

    @given(ratio=st.floats(0.05, 0.99), w1=st.floats(0.0, 50e6), dw=st.floats(1e3, 50e6))
    def test_deviation_decreases_with_frequency(self, ratio, w1, dw):
        op = paper_op(pump=0.145 * ratio)
        for quad in (TraceLabel.SQUEEZED_QUADRATURE, TraceLabel.ANTISQUEEZED_QUADRATURE):
            near = abs(ideal_spectrum(op, w1, quad) - 1.0)
            far = abs(ideal_spectrum(op, w1 + dw, quad) - 1.0)
            assert far < near


class TestDetectedSpectrum:
    def test_lossless_matches_ideal(self):
        op = paper_op()
        grid = default_frequency_grid(1e6, 10e6, 1e6)
        trace = detected_spectrum(op, lossless_chain(), grid)
        expected = [
            10 * math.log10(ideal_spectrum(op, w, TraceLabel.SQUEEZED_QUADRATURE))
            for w in grid
        ]
        assert np.allclose(trace.values_db, expected, atol=1e-12)

    def test_composition_matches_manual_chain(self):
        # oracle: compose the loss and jitter maps by hand at one frequency
        op = paper_op()
        chain = paper_chain()
        omega = 3.2e6
        v_sq = ideal_spectrum(op, omega, TraceLabel.SQUEEZED_QUADRATURE)
        v_anti = ideal_spectrum(op, omega, TraceLabel.ANTISQUEEZED_QUADRATURE)
        loss = LossModel(chain.detection_efficiency)
        expected = apply_phase_jitter(
            apply_loss(v_sq, loss), apply_loss(v_anti, loss), 0.0131
        )
        assert detected_variance(op, chain, omega) == pytest.approx(expected, rel=1e-12)

    def test_zero_frequency_with_fitted_jitter_reproduces_corrected_squeezing(self):
        # at zero sideband frequency the full chain lands on the loss-plus-
        # jitter working point of the observed -4.16 dB corrected squeezing
        v = detected_variance(paper_op(), paper_chain(), 0.0)
        assert 10 * math.log10(v) == pytest.approx(-4.35, abs=0.05)

    def test_returns_to_shot_noise_at_high_frequency(self):
        trace = detected_spectrum(paper_op(), paper_chain(), [1e12])
        assert trace.values_db[0] == pytest.approx(0.0, abs=1e-4)

    def test_never_below_loss_bound(self):
        chain = paper_chain()
        trace = detected_spectrum(paper_op(), chain, default_frequency_grid())
        bound_db = 10 * math.log10(1.0 - chain.total_efficiency)
        assert np.all(trace.values_db >= bound_db)

    def test_both_quadratures_match_closed_form(self):
        grid = default_frequency_grid()
        for pump in (0.0, 0.05, 0.130, 0.1449):
            for jitter in (0.0, 0.0131, 0.3):
                op = paper_op(pump=pump)
                chain = DetectionChain(escape_efficiency=0.9, phase_jitter_rms=jitter)
                x = op.pump_ratio_x
                w2 = (grid / GAMMA) ** 2
                eta = chain.total_efficiency
                v_sq = eta * (1.0 - 4.0 * x / ((1.0 + x) ** 2 + w2)) + 1.0 - eta
                v_anti = eta * (1.0 + 4.0 * x / ((1.0 - x) ** 2 + w2)) + 1.0 - eta
                for quad, angle in (
                    (TraceLabel.SQUEEZED_QUADRATURE, jitter),
                    (TraceLabel.ANTISQUEEZED_QUADRATURE, math.pi / 2 - jitter),
                ):
                    s2 = math.sin(angle) ** 2
                    expected = 10.0 * np.log10(v_sq * (1.0 - s2) + v_anti * s2)
                    got = detected_spectrum(op, chain, grid, quad).values_db
                    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_array_matches_pointwise(self):
        op, chain = paper_op(), paper_chain()
        grid = default_frequency_grid(0.0, 30e6, 1e6)
        for quad in (TraceLabel.SQUEEZED_QUADRATURE, TraceLabel.ANTISQUEEZED_QUADRATURE):
            points = [detected_variance(op, chain, w, quad) for w in grid]
            assert np.array_equal(detected_variance(op, chain, grid, quad), points)
            assert np.array_equal(ideal_spectrum(op, grid, quad), [ideal_spectrum(op, w, quad) for w in grid])

    def test_rejects_non_opa_quadrature(self):
        with pytest.raises(ValueError):
            detected_variance(paper_op(), paper_chain(), 1e6, TraceLabel.SHOT_NOISE)

    @given(eta=st.floats(0.1, 0.999))
    def test_loss_bound_property(self, eta):
        chain = DetectionChain(
            quantum_efficiency=eta,
            homodyne_contrast=1.0,
            propagation_efficiency=1.0,
        )
        v = detected_variance(paper_op(), chain, 0.0)
        assert v >= (1.0 - eta) - 1e-12


class TestSpectrumTrace:
    def test_rejects_unsorted_frequencies(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([2.0, 1.0]), np.array([0.0, 0.0]), TraceLabel.SHOT_NOISE)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([1.0]), np.array([0.0, 1.0]), TraceLabel.SHOT_NOISE)

    def test_ratio_extrapolates_to_shot_noise_above_band(self):
        trace = flat_trace(-3.0, [1e6, 2e6])
        assert trace.ratio_at([3e6])[0] == pytest.approx(1.0)
        assert trace.ratio_at([1.5e6])[0] == pytest.approx(10 ** (-0.3))

    def test_csv_round_trip(self, tmp_path):
        grid = default_frequency_grid(1e6, 5e6, 1e6)
        traces = [
            detected_spectrum(paper_op(), paper_chain(), grid),
            flat_trace(0.0, grid, TraceLabel.SHOT_NOISE),
        ]
        path = tmp_path / "traces.csv"
        write_traces_csv(path, traces)
        back = read_traces_csv(path)
        by_label = {t.label: t for t in back}
        assert set(by_label) == {TraceLabel.SQUEEZED_QUADRATURE, TraceLabel.SHOT_NOISE}
        for original in traces:
            restored = by_label[original.label]
            assert np.array_equal(restored.frequencies, original.frequencies)
            assert np.array_equal(restored.values_db, original.values_db)

    def test_csv_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_traces_csv(path, [flat_trace(0.0, [1e6])])
        assert path.read_text().splitlines()[0] == "frequency_hz,value_db,label"

    def test_csv_splits_traces_that_share_a_label(self, tmp_path):
        # an estimate and its target carry one label; order and values survive
        grid = default_frequency_grid(1e6, 5e6, 1e6)
        first = flat_trace(-3.0, grid, TraceLabel.SQUEEZED_QUADRATURE)
        second = detected_spectrum(paper_op(), paper_chain(), grid[1:])
        path = tmp_path / "traces.csv"
        write_traces_csv(path, [first, second])
        back = read_traces_csv(path)
        assert [t.label for t in back] == [first.label, second.label]
        for original, restored in zip((first, second), back):
            assert np.array_equal(restored.frequencies, original.frequencies)
            assert np.array_equal(restored.values_db, original.values_db)
