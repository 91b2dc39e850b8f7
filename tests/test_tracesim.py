import threading

import numpy as np
import pytest

from squeezelab import scenario
from squeezelab.spectrum import TraceLabel, default_frequency_grid, detected_spectrum, flat_trace
from squeezelab.tracesim import (
    PhotocurrentTrace,
    TraceConfig,
    _ratio_to_trace,
    _welch_ratio,
    averaged_psd,
    estimate_psd,
    synthesize_trace,
    tone_amplitude_for_db,
)


def cfg_with(**overrides):
    kwargs = dict(
        sample_rate=100e6,
        duration=2e-4,
        sweeps=4,
        rbw=30e3,
        vbw=10e3,
        seed=12345,
        electronic_floor_db=None,
    )
    kwargs.update(overrides)
    return TraceConfig(**kwargs)


class TestConfig:
    def test_segment_length_from_rbw(self):
        # Hann noise-equivalent bandwidth 1.5*fs/nperseg = RBW
        assert cfg_with().segment_length == 5000

    def test_vbw_bins(self):
        assert cfg_with().vbw_bins == 3
        assert cfg_with(vbw=30e3).vbw_bins == 1

    def test_rejects_sweep_shorter_than_segment(self):
        with pytest.raises(ValueError):
            cfg_with(duration=1e-5)

    def test_rejects_nonpositive_rbw(self):
        with pytest.raises(ValueError):
            cfg_with(rbw=0.0)

    @pytest.mark.parametrize("overrides, field", [
        ({"duration": 10.0}, "duration"),  # 1e9 samples: refused before any allocation
        ({"duration": float("inf")}, "duration"),
        ({"rbw": 1e-300}, "rbw"),
        ({"seed": -1}, "seed"),
    ])
    def test_rejects_sweeps_too_large_and_negative_seed(self, overrides, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            cfg_with(**overrides)


class TestSynthesize:
    def test_white_trace_has_unit_variance(self):
        cfg = cfg_with(duration=1e-3)
        trace = synthesize_trace(cfg)
        assert trace.samples.size == cfg.samples_per_sweep
        assert np.var(trace.samples) == pytest.approx(1.0, rel=0.02)

    def test_shaped_trace_follows_target(self):
        cfg = cfg_with(duration=1e-3)
        target = flat_trace(-6.0, default_frequency_grid(1e5, 49.9e6, 1e5))
        trace = synthesize_trace(cfg, target)
        assert np.var(trace.samples) == pytest.approx(10 ** (-0.6), rel=0.05)

    def test_zero_amplitude_tone_is_identical(self):
        cfg = cfg_with()
        plain = synthesize_trace(cfg, None, None)
        with_null_tone = synthesize_trace(cfg, None, (4.5e6, 0.0))
        assert np.array_equal(plain.samples, with_null_tone.samples)

    def test_rejects_tone_above_nyquist(self):
        with pytest.raises(ValueError):
            synthesize_trace(cfg_with(), None, (60e6, 0.1))

    def test_rejects_undersampled_target(self):
        target = flat_trace(0.0, [1e6, 60e6])
        with pytest.raises(ValueError):
            synthesize_trace(cfg_with(), target)

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValueError):
            PhotocurrentTrace(np.array([1.0, np.inf]), 1e6)


class TestEstimate:
    def test_white_noise_reads_zero_db(self):
        cfg = cfg_with(duration=2e-3)
        psd = estimate_psd(synthesize_trace(cfg), cfg)
        assert np.abs(np.mean(psd.values_db)) < 0.05
        assert np.max(np.abs(psd.values_db)) < 2.0

    def test_insufficient_samples(self):
        cfg = cfg_with()
        trace = PhotocurrentTrace(np.zeros(100), cfg.sample_rate)
        with pytest.raises(ValueError):
            estimate_psd(trace, cfg)

    def test_tone_peak_at_rbw_width(self):
        cfg = cfg_with(duration=1e-3, vbw=30e3)
        amp = tone_amplitude_for_db(20.0, cfg)
        trace = synthesize_trace(cfg, None, (10e6, amp))
        psd = estimate_psd(trace, cfg)
        peak_idx = np.argmax(psd.values_db)
        assert psd.frequencies[peak_idx] == pytest.approx(10e6, abs=cfg.rbw)
        # leakage confined near the window main lobe: 2 RBW away it is floor-like
        far = np.abs(psd.frequencies - 10e6) > 2 * cfg.rbw
        assert np.max(psd.values_db[far]) < 10.0

    def test_tone_level_calibration(self):
        cfg = cfg_with(duration=1e-3, sweeps=20, vbw=30e3)
        amp = tone_amplitude_for_db(10.0, cfg)
        psd = averaged_psd(cfg, None, (10e6, amp))
        assert np.max(psd.values_db) == pytest.approx(
            10 * np.log10(10.0 + 1.0), abs=0.3
        )

    def test_tone_changes_psd_only_locally(self):
        cfg = cfg_with(sweeps=2)
        amp = tone_amplitude_for_db(5.0, cfg)
        without = averaged_psd(cfg, None, None)
        with_tone = averaged_psd(cfg, None, (10e6, amp))
        far = np.abs(without.frequencies - 10e6) > 2 * cfg.rbw
        np.testing.assert_allclose(
            with_tone.values_db[far], without.values_db[far], atol=1e-6
        )


class TestWelch:
    @pytest.mark.parametrize("rbw, samples", [
        (30e3, 5000),  # exactly one segment
        (30e3, 7500),  # two segments
        (1.5e8 / 4999, 200_000),  # odd segment length, 79 segments and a leftover
    ])
    def test_matches_scipy_welch(self, rbw, samples):
        signal = pytest.importorskip("scipy.signal")
        cfg = cfg_with(rbw=rbw, duration=samples / 100e6)
        n = cfg.segment_length
        x = np.random.default_rng(3).standard_normal(samples)
        freqs, ratio = _welch_ratio(x, cfg)
        ref_f, ref_p = signal.welch(x, fs=cfg.sample_rate, window="hann", nperseg=n,
                                    noverlap=n // 2, detrend=False, scaling="density")
        np.testing.assert_array_equal(freqs, ref_f[1:-1])
        np.testing.assert_allclose(ratio, ref_p[1:-1] * cfg.sample_rate / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("vbw", [10e3, 7.5e3, 300.0])  # 3, 4 and 100 bins
    def test_vbw_is_edge_clamped_moving_mean(self, vbw):
        cfg = cfg_with(vbw=vbw)
        m = cfg.vbw_bins
        ratio = np.random.default_rng(5).exponential(size=cfg.psd_bins)
        freqs = np.arange(ratio.size, dtype=float)
        got = _ratio_to_trace(freqs, ratio, cfg, TraceLabel.SHOT_NOISE).ratio()
        clamp = lambda i: ratio[min(max(i, 0), ratio.size - 1)]
        want = [np.mean([clamp(j) for j in range(i - m // 2, i - m // 2 + m)])
                for i in range(ratio.size)]
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestParseval:
    def test_integrated_psd_matches_variance(self):
        cfg = cfg_with(duration=2e-3, vbw=None)
        trace = synthesize_trace(cfg)
        psd = estimate_psd(trace, cfg)
        density = psd.ratio() * 2.0 / cfg.sample_rate  # back to per-Hz units
        integrated = np.trapezoid(density, psd.frequencies)
        assert integrated == pytest.approx(np.var(trace.samples), rel=0.01)

    def test_shaped_noise_parseval(self):
        cfg = cfg_with(duration=2e-3, vbw=None)
        target = flat_trace(-3.2, default_frequency_grid(1e6, 45e6, 1e6))
        trace = synthesize_trace(cfg, target)
        psd = estimate_psd(trace, cfg)
        density = psd.ratio() * 2.0 / cfg.sample_rate
        integrated = np.trapezoid(density, psd.frequencies)
        assert integrated == pytest.approx(np.var(trace.samples), rel=0.01)


class TestAveraging:
    def test_estimator_spread_shrinks_as_inverse_sqrt_sweeps(self):
        spreads = []
        for sweeps in (1, 4, 16, 64):
            cfg = cfg_with(duration=5e-5, sweeps=sweeps, vbw=None, seed=7)
            psd = averaged_psd(cfg)
            spreads.append(np.std(psd.ratio()))
        for i in range(len(spreads) - 1):
            # each 4x sweep increase should halve the spread, within tolerance
            assert spreads[i] / spreads[i + 1] == pytest.approx(2.0, rel=0.25)

    def test_self_consistency_against_analytic_target(self):
        scn = scenario.paper_preset()
        op = scn.operating_point()
        target = detected_spectrum(op, scn.chain, default_frequency_grid())
        cfg = cfg_with(duration=1e-3, sweeps=25)
        psd = averaged_psd(cfg, target, None, TraceLabel.SQUEEZED_QUADRATURE)
        band = (psd.frequencies >= 3e6) & (psd.frequencies <= 20e6)
        analytic_db = 10 * np.log10(target.ratio_at(psd.frequencies[band]))
        assert np.max(np.abs(psd.values_db[band] - analytic_db)) < 0.5


class TestDeterminism:
    def test_traces_bit_identical_under_fixed_seed(self):
        cfg = cfg_with()
        a = synthesize_trace(cfg, None, (4.5e6, 0.01), sweep_index=3)
        b = synthesize_trace(cfg, None, (4.5e6, 0.01), sweep_index=3)
        assert np.array_equal(a.samples, b.samples)

    def test_sweeps_are_independent_streams(self):
        cfg = cfg_with()
        a = synthesize_trace(cfg, sweep_index=0)
        b = synthesize_trace(cfg, sweep_index=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_psd_bit_identical_under_fixed_seed(self):
        cfg = cfg_with(sweeps=3)
        target = flat_trace(-3.2, default_frequency_grid(1e6, 45e6, 1e6))
        first = averaged_psd(cfg, target, (4.5e6, 0.01))
        second = averaged_psd(cfg, target, (4.5e6, 0.01))
        assert np.array_equal(first.values_db, second.values_db)

    def test_psd_equals_serial_fold_in_sweep_order(self):
        scn = scenario.paper_preset()
        target = detected_spectrum(scn.operating_point(), scn.chain, default_frequency_grid())
        cfg = cfg_with(sweeps=3, electronic_floor_db=-12.0)
        tone = (4.5e6, tone_amplitude_for_db(-1.0, cfg))
        threads = threading.active_count()
        pooled = averaged_psd(cfg, target, tone, TraceLabel.SQUEEZED_QUADRATURE)
        assert threading.active_count() == threads
        acc = 0.0
        for k in range(cfg.sweeps):
            freqs, ratio = _welch_ratio(synthesize_trace(cfg, target, tone, k).samples, cfg)
            acc = acc + ratio
        serial = _ratio_to_trace(freqs, acc / cfg.sweeps, cfg, TraceLabel.SQUEEZED_QUADRATURE)
        assert np.array_equal(pooled.frequencies, serial.frequencies)
        assert np.array_equal(pooled.values_db, serial.values_db)

    def test_seed_changes_trace(self):
        a = synthesize_trace(cfg_with(seed=1))
        b = synthesize_trace(cfg_with(seed=2))
        assert not np.array_equal(a.samples, b.samples)


class TestElectronicFloor:
    def test_floor_raises_total_power(self):
        cfg_off = cfg_with(duration=1e-3)
        cfg_on = cfg_with(duration=1e-3, electronic_floor_db=-6.0)
        var_off = np.var(synthesize_trace(cfg_off).samples)
        var_on = np.var(synthesize_trace(cfg_on).samples)
        assert var_on == pytest.approx(var_off + 10 ** (-0.6), rel=0.05)
