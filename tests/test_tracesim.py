import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from squeezelab import cli, scenario, tracesim
from squeezelab.gaussian import db_to_ratio
from squeezelab.spectrum import (
    SQUEEZING_BAND_STOP, SpectrumTrace, TraceLabel, default_frequency_grid, detected_spectrum, flat_trace,
)
from squeezelab.tracesim import (
    PhotocurrentTrace,
    TraceConfig,
    _ratio_to_trace,
    _welch_ratio,
    averaged_psd,
    estimate_psd,
    sweep_rng,
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


# (vbw, displayed dB, rbw, a bin-centred tone) on the preset trace; rbw 30 and 45 MHz clamp the segment to 8 samples
DISPLAYED_TONES = [
    (10e3, 10.0 - 10 * np.log10(2.0), 30e3, 4.5e6),
    (None, 10.0, 30e3, 4.5e6),
    (None, 10.0, 30e6, 12.5e6),
    (None, 10.0, 45e6, 12.5e6),
]


def use_cpus(monkeypatch, n):
    """Let averaged_psd see `n` CPUs: it runs min(n, tasks) threads."""
    monkeypatch.setattr(tracesim.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def serial_fold(cfg, reference, tone, label):
    """The sweep-averaged PSD as one loop: each sweep's periodogram added in sweep order."""
    acc = 0.0
    for k in range(cfg.sweeps):
        acc = acc + _welch_ratio(synthesize_trace(cfg, reference, tone, k).samples, cfg)
    return _ratio_to_trace(acc / cfg.sweeps, cfg, label)


def float64_psds(cfg, references, tone):
    """The sweep-averaged PSDs of `references` shaped in double precision: the library's
    draw, a float64 gain, a float64 irFFT, and the library's Welch and sweep-order fold."""
    total = cfg.synthesized_samples
    floor = 0.0 if cfg.electronic_floor_db is None else db_to_ratio(cfg.electronic_floor_db)
    freqs = np.fft.rfftfreq(total, d=1.0 / cfg.sample_rate)
    gains = [np.sqrt(total / 2 * ((1.0 if target is None else target.ratio_at(freqs)) + floor))
             for target, _ in references]
    wave = 0.0 if tone is None else tone[1] * np.cos(2.0 * np.pi * tone[0] * np.arange(total) / cfg.sample_rate)
    draw = np.empty(total // 2 + 1, dtype=complex)
    accs = [0.0] * len(references)
    for k in range(cfg.sweeps):
        tracesim._draw_spectrum(cfg, k, draw)
        for i, gain in enumerate(gains):
            x = np.fft.irfft(draw * gain, n=total) + wave
            accs[i] = accs[i] + _welch_ratio(x[cfg.segment_length:], cfg)
    return [_ratio_to_trace(acc / cfg.sweeps, cfg, label) for acc, (_, label) in zip(accs, references)]


def one_block_welch(x, cfg):
    """`_welch_ratio` as one block: window every segment, take one rFFT, square, then one reduce."""
    n = cfg.segment_length
    step = n - n // 2
    count = 1 + (x.size - n) // step
    window = np.ldexp(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n), -(-(count - 1).bit_length() // 2))
    segments = np.stack([x[i * step : i * step + n] for i in range(count)]) * window
    spec = np.fft.rfft(segments, axis=1)
    power = np.add.reduce(np.square(spec.real) + np.square(spec.imag), axis=0) / count
    return power[1:-1] / np.sum(window**2)


def tasks_of(monkeypatch, sweeps, cfg, references):
    """Let averaged_psd group `sweeps` sweeps of `cfg` with `references` shaped references per task."""
    work = cfg.synthesized_samples * references
    monkeypatch.setattr(tracesim, "MIN_TASK_SAMPLES", sweeps * work)


class Dispatch:
    """Where averaged_psd runs its sweeps: `started` counts the threads started and `drawn`
    maps each thread to the sweeps it drew, in order, from the last `clear()` on."""

    def __init__(self, monkeypatch):
        self.lock = threading.Lock()
        self.clear()
        draw, start = tracesim._draw_spectrum, threading.Thread.start

        def recording_draw(cfg, k, out):
            with self.lock:
                self.drawn.setdefault(threading.current_thread(), []).append(k)
            draw(cfg, k, out)

        def counting_start(thread):
            with self.lock:
                self.started += 1
            start(thread)

        monkeypatch.setattr(tracesim, "_draw_spectrum", recording_draw)
        monkeypatch.setattr(threading.Thread, "start", counting_start)

    def clear(self):
        self.started, self.drawn = 0, {}

    def shares(self):
        """The sweeps each thread drew: the calling thread's, then the other threads' by first sweep."""
        me = threading.current_thread()
        return [self.drawn.get(me, []), *sorted((k for t, k in self.drawn.items() if t is not me), key=min)]


def runs(*bounds):
    """The shares of sweeps [bounds[0], bounds[1]), [bounds[1], bounds[2]), ... as `Dispatch.shares` lists them."""
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


class TestConfig:
    def test_segment_length_from_rbw(self):
        # Hann noise-equivalent bandwidth 1.5*fs/nperseg = RBW
        cfg = cfg_with()
        assert (cfg.segment_length, cfg.synthesized_samples) == (5000, 25000)
        # each instance computes its own sizes once: a replaced config reports its fields' sizes
        other = replace(cfg, rbw=60e3, duration=1e-4)
        assert (other.segment_length, other.synthesized_samples) == (2500, 12500)
        # the cached sizes are no fields: equal configs stay equal, hash equally and serialize the same
        assert cfg == cfg_with() and hash(cfg) == hash(cfg_with())
        preset = scenario.paper_preset()
        text = scenario.serialize(preset)
        assert (preset.trace.segment_length, preset.trace.synthesized_samples) == (5000, 105000)
        assert scenario.serialize(preset) == text == scenario.serialize(scenario.paper_preset())

    def test_vbw_bins(self):
        assert cfg_with().vbw_bins == 3
        assert cfg_with(vbw=30e3).vbw_bins == 1
        assert cfg_with(vbw=100e3).vbw_bins == 1  # a video filter wider than the RBW averages nothing

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
        ({"sweeps": 0}, "sweeps"),
        ({"sweeps": 2**128 + 1}, "sweeps"),
        ({"vbw": 0.0}, "vbw"),
        ({"vbw": -1.0}, "vbw"),
        ({"duration": 0.0}, "duration"),  # each field is refused by its own name
        ({"sample_rate": 0.0}, "sample_rate"),
    ])
    def test_rejects_sweeps_too_large_and_negative_seed(self, overrides, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            cfg_with(**overrides)

    @pytest.mark.parametrize("field, value", [
        ("sweeps", 2.0), ("sweeps", 2.5), ("sweeps", float("nan")), ("seed", 1.5), ("seed", 1.0),
    ])
    def test_refuses_non_integer_sweeps_and_seed(self, field, value):
        # seed=1.5 used to give seed 1's stream, and a float sweep count failed in averaged_psd
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}"):
            cfg_with(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["sample_rate", "duration", "rbw", "vbw"])
    def test_refuses_non_finite_fields_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}"):
            cfg_with(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["sample_rate", "duration", "rbw", "vbw"])
    def test_refuses_non_positive_fields_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be > 0, got {value}$"):
            cfg_with(**{field: value})

    def test_level_must_keep_the_periodogram_finite(self):
        # ratio * segment_length**2: 1e300 * 2.5e7 is finite, 1e304 * 2.5e7 is not
        assert cfg_with(electronic_floor_db=3000.0).electronic_floor_db == 3000.0
        with pytest.raises(ValueError, match="^electronic_floor_db must keep the periodogram finite"):
            cfg_with(electronic_floor_db=3040.0)
        with pytest.raises(ValueError, match="^tone must give a finite power ratio"):
            cfg_with().check_level(4000.0, "tone")
        # 8-sample segments, 100 008 synthesized samples: the squared shaping gain
        # 1e305 * 100 008 overflows, though 1e305 * 8**2 does not
        with pytest.raises(ValueError, match="^electronic_floor_db must keep the periodogram finite"):
            cfg_with(rbw=18.75e6, vbw=None, electronic_floor_db=3050.0)

    def test_tone_amplitude_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="4000"):
            tone_amplitude_for_db(4000.0, cfg_with())

    @settings(max_examples=40, deadline=None)
    @example(rbw=18.75e6, span=0.0, sweeps=1000, margin_db=-12.0)  # 8-sample sweeps: the sweep sum binds
    @example(rbw=440529.0, span=1.0, sweeps=2, margin_db=1.0)  # tone on the floor near the bound: the segment sum binds
    @given(rbw=st.floats(30e3, 18.75e6), span=st.floats(0.0, 1.0), sweeps=st.integers(1, 5000),
           margin_db=st.one_of(st.none(), st.floats(-20.0, 20.0), st.sampled_from([np.nan, np.inf, -np.inf])))
    def test_each_geometry_runs_finite_or_names_its_field(self, rbw, span, sweeps, margin_db):
        # durations from one segment to 1 ms and 1 to 5000 sweeps of at most 3e6 samples in all;
        # floors within 20 dB of check_level's bound, past which a bound without one of its factors
        # let the shaping gain or the sweep sum overflow, and NaN and +-inf, with a tone at the
        # floor's level; the suite turns an overflow warning into an error
        segment = TraceConfig(rbw=rbw, vbw=None).segment_length / 100e6
        try:
            cfg = cfg_with(rbw=rbw, vbw=None, duration=segment * (1e-3 / segment) ** span, sweeps=1)
        except ValueError as exc:
            assert str(exc).startswith(("rbw ", "duration ")), exc
            return
        cfg = replace(cfg, sweeps=max(1, min(sweeps, 3_000_000 // cfg.synthesized_samples)))
        tone = None
        if margin_db is not None:
            n = cfg.segment_length
            bound_db = 10.0 * np.log10(sys.float_info.max / max(n * n, cfg.synthesized_samples, n * cfg.sweeps))
            try:
                cfg = replace(cfg, electronic_floor_db=bound_db - margin_db)
            except ValueError as exc:
                assert str(exc).startswith("electronic_floor_db "), exc
                return
            tone = (4.5e6, tone_amplitude_for_db(cfg.electronic_floor_db, cfg))
        assert cfg.synthesized_samples <= 2_000_000
        target = flat_trace(-3.2, default_frequency_grid(1e6, 45e6, 1e6))
        try:
            psds = averaged_psd(cfg, [(None, TraceLabel.SHOT_NOISE), (target, TraceLabel.SQUEEZED_QUADRATURE)], tone)
        except ValueError as exc:  # the amplitude's level read back within rounding of the bound
            assert str(exc).startswith("the tone amplitude "), exc
            return
        for psd in psds:
            assert np.all(np.isfinite(psd.values_db))

    @pytest.mark.parametrize("target, tone, name, cfg", [
        (flat_trace(3040.0, default_frequency_grid(1e6, 45e6, 1e6)), None, "the target spectrum",
         TraceConfig(sweeps=1, duration=1e-4)),
        *[(None, (4.5e6, amplitude), "the tone amplitude", TraceConfig(sweeps=1, duration=1e-4))
          for amplitude in (1e160, np.inf, np.nan)],
        # 8-sample segments at a tiny sample rate: Welch reads the tone at a**2 * 8/6, 3201.2 dB
        pytest.param(None, (1e-301, 1e160), r"the tone amplitude must give a finite power ratio, got 3201\.2\d*",
                     TraceConfig(sample_rate=1e-300, duration=1e301, rbw=1e300, vbw=None, sweeps=1),
                     id="tone-amplitude-at-8-sample-segments"),
        # refused before numpy's interpolation, whose "array of sample points is empty" names nothing
        pytest.param(flat_trace(0.0, []), None, "the target spectrum must have at least one",
                     TraceConfig(sweeps=1, duration=1e-4), id="empty-target"),
    ])
    def test_each_level_the_synthesis_meets_is_refused_by_name(self, target, tone, name, cfg):
        # the overflow warnings and the unnamed "values_db must be finite" or "trace contains
        # non-finite samples" that these gave come first or not at all
        with pytest.raises(ValueError, match=f"^{name} "):
            averaged_psd(cfg, target, tone)


class TestSynthesize:
    def test_white_trace_has_unit_variance(self):
        cfg = cfg_with(duration=1e-3)
        trace = synthesize_trace(cfg)
        assert trace.samples.size == cfg.samples_per_sweep
        assert np.var(trace.samples) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("duration", [1e-4, 1.0001e-4], ids=["even-block", "odd-block"])
    def test_drawn_spectrum_has_the_law_of_white_noise(self, duration):
        # 15 000 synthesized samples have a real Nyquist bin, 15 001 none; both draw 7 501 bins
        cfg = cfg_with(duration=duration)
        traces = np.array([synthesize_trace(cfg, sweep_index=k).samples for k in range(400)])
        samples = traces.shape[1]
        assert np.mean(traces**2) == pytest.approx(1.0, abs=0.005)
        assert np.mean(traces[:, 1:] * traces[:, :-1]) == pytest.approx(0.0, abs=0.005)
        # a sweep's mean and alternating-sign mean have variance 1/samples; they weigh the DC
        # and Nyquist bins heavily, and read 0.58 and 0.71 on the even block without their sqrt(2)
        for pattern in (np.ones(samples), (-1.0) ** np.arange(samples)):
            assert samples * np.mean(np.mean(traces * pattern, axis=1) ** 2) == pytest.approx(1.0, abs=0.2)
        psd = np.mean([_welch_ratio(trace, cfg) for trace in traces], axis=0)
        assert np.max(np.abs(psd - 1.0)) < 0.2
        assert np.mean(psd.reshape(7, -1), axis=1) == pytest.approx(np.ones(7), abs=0.01)

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
        # the one rule is 0 < f < Nyquist, so a tone at 0 Hz is refused too
        with pytest.raises(ValueError, match="the tone = 0 Hz must lie in \\(0, Nyquist\\)"):
            synthesize_trace(cfg_with(), None, (0.0, 0.1))

    def test_rejects_undersampled_target(self):
        target = flat_trace(0.0, [1e6, 60e6])
        with pytest.raises(ValueError):
            synthesize_trace(cfg_with(), target)
        with pytest.raises(ValueError, match="^the target spectrum must have at least one point$"):
            synthesize_trace(cfg_with(), flat_trace(0.0, []))

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValueError):
            PhotocurrentTrace(np.array([1.0, np.inf]))


class TestEstimate:
    def test_white_noise_reads_zero_db(self):
        cfg = cfg_with(duration=2e-3)
        psd = estimate_psd(synthesize_trace(cfg), cfg)
        assert np.abs(np.mean(psd.values_db)) < 0.05
        assert np.max(np.abs(psd.values_db)) < 2.0

    def test_insufficient_samples(self):
        cfg = cfg_with()
        trace = PhotocurrentTrace(np.zeros(100))
        with pytest.raises(ValueError):
            estimate_psd(trace, cfg)

    def test_refuses_a_trace_that_is_not_1d(self):
        cfg = cfg_with()
        for samples in (np.zeros((2, 12 * cfg.segment_length)), np.zeros((12 * cfg.segment_length, 1))):
            with pytest.raises(ValueError, match="need a 1-D trace"):
                estimate_psd(PhotocurrentTrace(samples), cfg)

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

    @pytest.mark.parametrize("vbw, displayed_db, rbw, freq", DISPLAYED_TONES,
                             ids=[f"{vbw}-{db}" + (f"-rbw{rbw / 1e6:g}MHz" if rbw != 30e3 else "")
                                  for vbw, db, rbw, _ in DISPLAYED_TONES])
    def test_displayed_tone_level(self, vbw, displayed_db, rbw, freq):
        # a bin-centred pure tone: the preset's 3-bin VBW mean spreads the Hann
        # main lobe (1/4, 1, 1/4) over 3 bins, so its peak reads 3.01 dB low
        cfg = replace(scenario.paper_preset().trace, vbw=vbw, rbw=rbw)
        t = np.arange(cfg.samples_per_sweep) / cfg.sample_rate
        tone = tone_amplitude_for_db(10.0, cfg) * np.cos(2 * np.pi * freq * t)
        psd = estimate_psd(PhotocurrentTrace(tone), cfg)
        assert psd.frequencies[np.argmax(psd.values_db)] == freq
        assert np.max(psd.values_db) == pytest.approx(displayed_db, abs=1e-9)

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
        ref_f, ref_p = signal.welch(x, fs=cfg.sample_rate, window="hann", nperseg=n,
                                    noverlap=n // 2, detrend=False, scaling="density")
        freqs = estimate_psd(PhotocurrentTrace(x), cfg).frequencies
        np.testing.assert_array_equal(freqs, ref_f[1:-1])
        np.testing.assert_allclose(_welch_ratio(x, cfg), ref_p[1:-1] * cfg.sample_rate / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("vbw", [10e3, 7.5e3, 300.0, None])  # 3, 4, 100 and 1 bins
    def test_vbw_is_edge_clamped_moving_mean(self, vbw):
        cfg = cfg_with(vbw=vbw)
        m = cfg.vbw_bins
        ratio = np.random.default_rng(5).exponential(size=cfg.psd_bins)
        trace = _ratio_to_trace(ratio, cfg, TraceLabel.SHOT_NOISE)
        clamp = lambda i: ratio[min(max(i, 0), ratio.size - 1)]
        want = [np.mean([clamp(j) for j in range(i - m // 2, i - m // 2 + m)])
                for i in range(ratio.size)]
        np.testing.assert_allclose(trace.ratio(), want, rtol=1e-12)
        # bit for bit against np.pad's edge mode, the reference for the concatenated edge bins
        padded = np.pad(ratio, (m // 2, (m - 1) // 2), mode="edge")
        smoothed = np.maximum(np.convolve(padded, np.ones(m), "valid") / m, 1e-300)
        assert np.array_equal(trace.values_db, 10.0 * np.log10(smoothed))

    @pytest.mark.parametrize("rbw", [30e3, 1.5e8 / 4999])  # segments of 5000 and 4999 samples
    @pytest.mark.parametrize("layout", ["every_other", "reversed", "element_offset", "unaligned"])
    def test_strided_inputs_match_contiguous(self, rbw, layout):
        cfg = cfg_with(rbw=rbw)
        samples = 3 * cfg.segment_length + 7  # five segments and a leftover shorter than a step
        base = np.random.default_rng(11).standard_normal(2 * samples + 3)
        if layout == "every_other":
            x = base[::2][:samples]
        elif layout == "reversed":
            x = base[::-1][:samples]
        elif layout == "element_offset":
            x = base[3:3 + samples]
        else:  # float64s starting one byte past an aligned address
            buf = bytearray(8 * samples + 1)
            x = np.frombuffer(buf, dtype=float, count=samples, offset=1)
            x[:] = base[:samples]
            assert not x.flags.aligned
        assert np.array_equal(_welch_ratio(x, cfg), _welch_ratio(np.ascontiguousarray(x), cfg))

    # 200-sample sweeps: 49 segments of 8 samples in blocks of 21, 21 and 7, or 39 of 9 in blocks of
    # 21 and 18.  An odd segment's spectrum is as wide as its step, so odd segments span two blocks at most.
    @pytest.mark.parametrize("rbw, n, blocks", [(18.75e6, 8, 3), (1.5e8 / 9, 9, 2)], ids=["even", "odd"])
    def test_blocks_sum_in_one_block_order(self, rbw, n, blocks):
        cfg = cfg_with(rbw=rbw, duration=2e-6, vbw=None, sweeps=3)
        count = 1 + (cfg.samples_per_sweep - n) // (n - n // 2)
        block = len(tracesim._Workspace(cfg).segments)
        assert cfg.segment_length == n and -(-count // block) == blocks and count % block  # a partial last block
        target = flat_trace(-3.2, default_frequency_grid(1e6, 45e6, 1e6))
        references = [(None, TraceLabel.SHOT_NOISE), (target, TraceLabel.SQUEEZED_QUADRATURE)]
        for refs in (references[1:], references):  # one and two references
            for psd, (reference, label) in zip(averaged_psd(cfg, refs), refs):
                acc = 0.0
                for k in range(cfg.sweeps):
                    acc = acc + one_block_welch(synthesize_trace(cfg, reference, None, k).samples, cfg)
                assert np.array_equal(psd.values_db, _ratio_to_trace(acc / cfg.sweeps, cfg, label).values_db)
        x = np.random.default_rng(13).standard_normal(2 * cfg.samples_per_sweep)[::2]  # strided
        want = _ratio_to_trace(one_block_welch(x, cfg), cfg, TraceLabel.SHOT_NOISE)
        assert np.array_equal(estimate_psd(PhotocurrentTrace(x), cfg).values_db, want.values_db)


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
        # without and with an electronic floor, which adds to the target's ratio
        for floor_db in (None, -12.0):
            cfg = cfg_with(duration=1e-3, sweeps=25, electronic_floor_db=floor_db)
            psd = averaged_psd(cfg, target, None, TraceLabel.SQUEEZED_QUADRATURE)
            band = (psd.frequencies >= 3e6) & (psd.frequencies <= 20e6)
            e = 0.0 if floor_db is None else db_to_ratio(floor_db)
            analytic_db = 10 * np.log10(target.ratio_at(psd.frequencies[band]) + e)
            assert np.max(np.abs(psd.values_db[band] - analytic_db)) < 0.5, floor_db


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2**128 - 1])
    @pytest.mark.parametrize("k", [0, 1, 7, 2**20, np.int64(7)])
    def test_sweep_stream_is_the_jumped_stream(self, seed, k):
        got = sweep_rng(cfg_with(seed=seed), k)
        # a numpy index gets its int's stream (jumped itself overflows on one)
        want = np.random.Generator(np.random.Philox(key=seed).jumped(int(k)))
        got_state, want_state = got.bit_generator.state, want.bit_generator.state
        for state in (got_state, want_state):
            state.update(state.pop("state"))  # the counter and key arrays sit one level down
        assert got_state.keys() == want_state.keys()
        for name in want_state:
            assert np.array_equal(got_state[name], want_state[name]), name
        assert np.array_equal(got.standard_normal(1001), want.standard_normal(1001))

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
        references = [(None, TraceLabel.SHOT_NOISE), (target, TraceLabel.SQUEEZED_QUADRATURE)]
        threads = threading.active_count()
        single = averaged_psd(cfg, target, tone, TraceLabel.SQUEEZED_QUADRATURE)
        coherent, squeezed = averaged_psd(cfg, references, tone)
        assert threading.active_count() == threads
        assert [coherent.label, squeezed.label] == [label for _, label in references]
        for pooled, reference in [(single, target), (coherent, None), (squeezed, target)]:
            serial = serial_fold(cfg, reference, tone, pooled.label)
            assert np.array_equal(pooled.frequencies, serial.frequencies)
            assert np.array_equal(pooled.values_db, serial.values_db)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_grouped_tasks_equal_serial_fold(self, monkeypatch, cpus):
        # 7 sweeps, three tasks of even runs of 2, 2 and 3 sweeps: on 2 CPUs the caller runs
        # the first, one helper the second and whichever is free first the third; on 3, one
        # task per CPU, the caller and two helper threads run one each
        scn = scenario.paper_preset()
        target = detected_spectrum(scn.operating_point(), scn.chain, default_frequency_grid())
        cfg = cfg_with(sweeps=7, electronic_floor_db=-12.0)
        tone = (4.5e6, tone_amplitude_for_db(-1.0, cfg))
        references = [(None, TraceLabel.SHOT_NOISE), (target, TraceLabel.SQUEEZED_QUADRATURE)]
        tasks_of(monkeypatch, 3, cfg, len(references))
        use_cpus(monkeypatch, cpus)
        dispatch = Dispatch(monkeypatch)
        psds = averaged_psd(cfg, references, tone)
        assert dispatch.started == cpus - 1
        if cpus == 2:
            assert dispatch.shares() in ([[0, 1, 4, 5, 6], [2, 3]], [[0, 1], [2, 3, 4, 5, 6]])
        else:
            assert dispatch.shares() == runs(0, 2, 4, 7)
        for pooled, (reference, label) in zip(psds, references):
            serial = serial_fold(cfg, reference, tone, label)
            assert np.array_equal(pooled.values_db, serial.values_db)

    def test_one_task_runs_on_the_calling_thread(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        dispatch = Dispatch(monkeypatch)
        # the single-segment interfere run: 10 sweeps of one segment, both references in one
        # task, whose first share the calling thread runs and whose second one helper runs
        cfg = replace(scenario.paper_preset().trace, duration=5e-5, sweeps=10)
        references = [(None, TraceLabel.SHOT_NOISE), (flat_trace(-3.2, default_frequency_grid()),
                                                      TraceLabel.SQUEEZED_QUADRATURE)]
        assert 10 * 2 * (cfg.samples_per_sweep + cfg.segment_length) <= tracesim.MIN_TASK_SAMPLES
        tone = (4.5e6, tone_amplitude_for_db(-1.0, cfg))
        threads = threading.active_count()
        psds = averaged_psd(cfg, references, tone)
        assert threading.active_count() == threads
        assert dispatch.shares() == runs(0, 5, 10)
        assert dispatch.started == 1
        for psd, (reference, label) in zip(psds, references):
            assert np.array_equal(psd.values_db, serial_fold(cfg, reference, tone, label).values_db)
        # one CPU: several tasks, all on the calling thread
        use_cpus(monkeypatch, 1)
        cfg = cfg_with(sweeps=5)
        tasks_of(monkeypatch, 2, cfg, 1)
        dispatch.clear()
        psd = averaged_psd(cfg)
        assert dispatch.shares() == runs(0, 5)
        assert dispatch.started == 0
        assert np.array_equal(psd.values_db, serial_fold(cfg, None, None, TraceLabel.SHOT_NOISE).values_db)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_short_run_splits_between_caller_and_helpers(self, monkeypatch, cpus):
        # the benchmark's single-segment interfere run: 2 x 10 000 samples a sweep, 10 sweeps,
        # one task, hence one share per CPU in even runs of sweeps, the caller's first
        use_cpus(monkeypatch, cpus)
        dispatch = Dispatch(monkeypatch)
        cfg = replace(scenario.paper_preset().trace, duration=5e-5, sweeps=10)
        references = [(None, TraceLabel.SHOT_NOISE), (flat_trace(-3.2, default_frequency_grid()),
                                                      TraceLabel.SQUEEZED_QUADRATURE)]
        tone = (4.5e6, tone_amplitude_for_db(-1.0, cfg))
        threads = threading.active_count()
        psds = averaged_psd(cfg, references, tone)
        assert threading.active_count() == threads
        assert dispatch.started == cpus - 1
        assert dispatch.shares() == runs(*(10 * i // cpus for i in range(cpus + 1)))
        for psd, (reference, label) in zip(psds, references):
            assert np.array_equal(psd.values_db, serial_fold(cfg, reference, tone, label).values_db)

    @pytest.mark.parametrize("rbw, duration, sweeps", [
        (300e3, 5e-6, 40),  # 500-point segments: 1000 samples a sweep
        (300e3, 5e-6, 131),  # the most such sweeps of two references in one task
        (300e3, 5e-6, 2000),  # 16 tasks, more than CPUs: short sweeps, so still the caller alone
        (30e3, 5e-5, 2),  # two one-segment sweeps: 2 x 2 x 10 000 samples
    ])
    def test_short_runs_that_a_split_slows_start_no_thread(self, monkeypatch, rbw, duration, sweeps):
        use_cpus(monkeypatch, 2)
        dispatch = Dispatch(monkeypatch)
        cfg = replace(scenario.paper_preset().trace, rbw=rbw, vbw=rbw / 3, duration=duration, sweeps=sweeps)
        references = [(None, TraceLabel.SHOT_NOISE), (flat_trace(-3.2, default_frequency_grid()),
                                                      TraceLabel.SQUEEZED_QUADRATURE)]
        psds = averaged_psd(cfg, references, None)
        assert dispatch.started == 0
        assert dispatch.shares() == runs(0, sweeps)
        for psd, (reference, label) in zip(psds, references):
            assert np.array_equal(psd.values_db, serial_fold(cfg, reference, None, label).values_db)

    def test_threads_wait_two_tasks_a_thread_ahead_of_the_fold(self, monkeypatch):
        # 24 one-sweep tasks on 3 threads, switching every microsecond: each thread starts on
        # its own task and takes the rest from the shared counter; while sweep 3 is held back,
        # the others may run only up to task 3 + 2 x 3 - 1 = 8, then wait for the fold
        use_cpus(monkeypatch, 3)
        cfg = cfg_with(duration=6e-5, sweeps=24)
        tasks_of(monkeypatch, 1, cfg, 1)
        dispatch = Dispatch(monkeypatch)
        record, ahead = tracesim._draw_spectrum, []

        def slow_draw(cfg, k, out):
            if k == 3:
                time.sleep(0.3)
                with dispatch.lock:
                    ahead.append(max(s for sweeps in dispatch.drawn.values() for s in sweeps))
            record(cfg, k, out)

        monkeypatch.setattr(tracesim, "_draw_spectrum", slow_draw)
        psds = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=lambda: psds.append(averaged_psd(cfg)))
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and len(psds) == 1
        assert ahead == [8]
        assert dispatch.started == 3  # the caller's own thread and two helpers
        assert sorted(k for sweeps in dispatch.drawn.values() for k in sweeps) == list(range(24))
        assert dispatch.drawn[caller][0] == 0
        assert sorted(sweeps[0] for sweeps in dispatch.drawn.values()) == [0, 1, 2]
        assert np.array_equal(psds[0].values_db, serial_fold(cfg, None, None, TraceLabel.SHOT_NOISE).values_db)

    def test_helper_error_is_raised_in_the_caller(self, monkeypatch):
        class Sentinel(Exception):
            pass

        use_cpus(monkeypatch, 3)
        draw = tracesim._draw_spectrum

        def failing_draw(cfg, k, out):
            if k == 7:  # in the last helper's share, sweeps 6 to 9
                raise Sentinel
            draw(cfg, k, out)

        monkeypatch.setattr(tracesim, "_draw_spectrum", failing_draw)
        dispatch = Dispatch(monkeypatch)
        cfg = replace(scenario.paper_preset().trace, duration=5e-5, sweeps=10)
        threads = threading.active_count()
        with pytest.raises(Sentinel):
            averaged_psd(cfg, [(None, TraceLabel.SHOT_NOISE), (None, TraceLabel.SHOT_NOISE)])
        assert threading.active_count() == threads
        assert dispatch.started == 2
        assert dispatch.shares() == runs(0, 3, 6, 8)  # the last share stopped at sweep 7

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_largest_sweep_count_runs_its_first_sweep(self, monkeypatch, cpus):
        # the most sweeps a run may synthesize start at once: nothing is sized by the sweep count
        class Sentinel(Exception):
            pass

        def failing_draw(cfg, k, out):
            raise Sentinel

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(tracesim, "_draw_spectrum", failing_draw)
        most = tracesim.MAX_RUN_SAMPLES // cfg_with().synthesized_samples
        with pytest.raises(Sentinel):
            averaged_psd(cfg_with(sweeps=most))
        # one reference more, or one sweep more, is refused before anything runs
        with pytest.raises(ValueError, match=f"^sweeps must be <= {most // 2} at 2 reference"):
            averaged_psd(cfg_with(sweeps=most), [(None, TraceLabel.SHOT_NOISE)] * 2)
        with pytest.raises(ValueError, match=f"^sweeps must be <= {most} at 1 reference"):
            cfg_with(sweeps=most + 1)

    def test_memory_does_not_grow_with_sweeps(self, monkeypatch):
        # 500-sample sweeps: what grows with the sweep count is the window of finished tasks
        # not yet folded.  Tasks of 4 sweeps of 1000 synthesized samples (2 for two
        # references), run by two threads as if they were long sweeps, put both counts past
        # one task, so results in flight are part of both peaks, and an unbounded window of
        # 1000 tasks shows.
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(tracesim, "SPLIT_SWEEP_SAMPLES", 0)
        monkeypatch.setattr(tracesim, "MIN_TASK_SAMPLES", 4000)
        target = flat_trace(-3.2, default_frequency_grid(1e6, 45e6, 1e6))
        references = [(None, TraceLabel.SHOT_NOISE), (target, TraceLabel.SQUEEZED_QUADRATURE)]

        def two_references(cfg):
            averaged_psd(replace(cfg, electronic_floor_db=-12.0), references, (4.5e6, 0.01))

        def peak(psd, sweeps):
            # the lesser of two runs: numpy keeps about 1 MB once a process, on some ten-thousandth
            # as_strided call, which one run of either count may hold; growth shows in both
            peaks = []
            for _ in range(2):
                tracemalloc.start()
                try:
                    psd(cfg_with(duration=5e-6, rbw=300e3, vbw=100e3, sweeps=sweeps))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return min(peaks)

        for psd in (averaged_psd, two_references):
            peak(psd, 20)  # warm-up: caches filled on first use are not per-sweep memory
            assert peak(psd, 2000) - peak(psd, 200) < 1e6

    @pytest.mark.parametrize("duration", [2e-4, 6e-5], ids=["segments", "single-segment"])
    def test_psd_bit_identical_for_1_2_3_threads(self, monkeypatch, duration):
        scn = scenario.paper_preset()
        target = detected_spectrum(scn.operating_point(), scn.chain, default_frequency_grid())
        cfg = cfg_with(duration=duration, sweeps=5, electronic_floor_db=-12.0)
        if duration == 6e-5:
            # one segment: the shaping spectrum is longer than the segment spectra sharing its buffer
            n = cfg.segment_length
            assert cfg.samples_per_sweep < n + (n - n // 2)
            assert (cfg.samples_per_sweep + n) // 2 + 1 > n // 2 + 1
        tone = (4.5e6, tone_amplitude_for_db(-1.0, cfg))
        references = [(None, TraceLabel.SHOT_NOISE), (target, TraceLabel.SQUEEZED_QUADRATURE)]
        tasks_of(monkeypatch, 2, cfg, len(references))  # three tasks: even runs of 1, 2 and 2 sweeps
        dispatch = Dispatch(monkeypatch)
        runs_by_cpus, dispatched = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches: a buffer shared between workers shows
        try:
            for cpus in (1, 2, 3):  # 3: more workers than cores on a 2-core machine
                use_cpus(monkeypatch, cpus)
                dispatch.clear()
                runs_by_cpus.append(averaged_psd(cfg, references, tone))
                dispatched.append((dispatch.started, dispatch.shares()))
        finally:
            sys.setswitchinterval(interval)
        # one CPU runs the tasks on the calling thread; two run them on the caller and one
        # helper, the third task on whichever is free first; three, one task each, on the
        # caller and two helpers
        assert dispatched[0] == (0, runs(0, 5))
        assert dispatched[1] in ((1, [[0, 3, 4], [1, 2]]), (1, [[0], [1, 2, 3, 4]]))
        assert dispatched[2] == (2, runs(0, 1, 3, 5))
        for psds in runs_by_cpus[1:]:
            for first, other in zip(runs_by_cpus[0], psds):
                assert np.array_equal(first.values_db, other.values_db)

    def test_trace_csv_bytes_same_for_1_and_2_threads(self, monkeypatch, tmp_path):
        # 12 sweeps of 25 000 synthesized samples: two tasks, so two CPUs split the sweeps
        # between the calling thread and one helper
        dispatch = Dispatch(monkeypatch)
        csvs, dispatched = [], []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            dispatch.clear()
            out = tmp_path / str(cpus)
            assert cli.main(["trace", "--out", str(out), "--set", "trace.sweeps=12", "--set", "trace.duration=2e-4"]) == 0
            csvs.append(next(out.glob("trace-*.csv")).read_bytes())
            dispatched.append((dispatch.started, dispatch.shares()))
        assert dispatched == [(0, runs(0, 12)), (1, runs(0, 6, 12))]
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("duration", [1e-3, 1e-2])
    def test_memory_per_worker(self, monkeypatch, duration):
        # one worker thread: its reused buffers plus the call's shaping gains and tone
        # waveform, in bytes per synthesized sample
        use_cpus(monkeypatch, 1)
        target = flat_trace(-3.2, default_frequency_grid(1e6, 45e6, 1e6))
        references = [(None, TraceLabel.SHOT_NOISE), (target, TraceLabel.SQUEEZED_QUADRATURE)]
        cfg = cfg_with(duration=duration, sweeps=2)
        averaged_psd(cfg_with(duration=1e-4, sweeps=1), target)  # warm-up: numpy's lazy random and fft imports

        def peak_per_sample(psd):
            tracemalloc.start()
            try:
                psd()
                return tracemalloc.get_traced_memory()[1] / cfg.synthesized_samples
            finally:
                tracemalloc.stop()

        assert peak_per_sample(lambda: averaged_psd(cfg, target)) <= 32
        floor_cfg = replace(cfg, electronic_floor_db=-12.0)
        assert peak_per_sample(lambda: averaged_psd(floor_cfg, references, (4.5e6, 0.01))) <= 50

    def test_one_off_calls_allocate_only_their_buffers(self):
        # a call without a workspace holds only its own buffers, in bytes
        cfg = scenario.paper_preset().trace
        n, total = cfg.segment_length, cfg.synthesized_samples
        bins = total // 2 + 1
        # the draw's complex bins, the trace and its finiteness mask
        synthesis = 16 * bins + 8 * total + cfg.samples_per_sweep
        # one block of windowed segments, as many as their spectra fit in the bins, and the bins
        welch = 8 * (bins // (n // 2 + 1)) * n + 16 * bins
        trace = synthesize_trace(cfg)  # warm-up: numpy's lazy random and fft imports

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: synthesize_trace(cfg)) <= 1.1 * synthesis
        assert peak(lambda: estimate_psd(trace, cfg)) <= 1.1 * welch

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


class TestSinglePrecision:
    """The shaping irFFT runs in float32; the PSDs agree with a float64 one."""

    def test_preset_trace_matches_double_precision(self):
        scn = scenario.paper_preset()
        target = detected_spectrum(scn.operating_point(), scn.chain, default_frequency_grid())
        cfg = scn.trace  # 100 sweeps of 1 ms, with the electronic floor
        references = [(target, TraceLabel.SQUEEZED_QUADRATURE)]
        psd = averaged_psd(cfg, target, None, TraceLabel.SQUEEZED_QUADRATURE)
        (want,) = float64_psds(cfg, references, None)
        assert np.max(np.abs(psd.values_db - want.values_db)) < 1e-4

    def test_single_segment_interfere_matches_double_precision(self):
        # the paper script's interfere run: two references and the tone
        scn = scenario.paper_preset()
        cfg = replace(scn.trace, seed=2, sweeps=10, duration=5e-5)
        icfg = scn.interfere
        squeezed = flat_trace(icfg.squeezed_floor_db, [SQUEEZING_BAND_STOP], TraceLabel.SQUEEZED_QUADRATURE)
        references = [(None, TraceLabel.SHOT_NOISE), (squeezed, TraceLabel.SQUEEZED_QUADRATURE)]
        tone = (icfg.tone_frequency, tone_amplitude_for_db(icfg.tone_db_rel_shot, cfg))
        for psd, want in zip(averaged_psd(cfg, references, tone), float64_psds(cfg, references, tone)):
            assert np.max(np.abs(psd.values_db - want.values_db)) < 1e-4

    def test_resolves_a_90_db_notch(self):
        # float32 rounding fills a notch from the rest of the band: at 90 dB it reads
        # 0.005 dB off, at 120 dB about 0.1-0.2 dB
        cfg = cfg_with(duration=1e-3, sweeps=4, seed=3)
        grid = default_frequency_grid(1e5, 49.9e6, 1e5)
        notch = (grid >= 10e6) & (grid <= 15e6)
        target = SpectrumTrace(grid, np.where(notch, -90.0, 0.0), TraceLabel.SQUEEZED_QUADRATURE)
        psd = averaged_psd(cfg, target)
        (want,) = float64_psds(cfg, [(target, TraceLabel.SHOT_NOISE)], None)
        inside = (psd.frequencies >= 10e6) & (psd.frequencies <= 15e6)
        assert np.median(want.values_db[inside]) < -89.0
        assert np.max(np.abs(psd.values_db - want.values_db)[inside]) < 0.01

    def test_levels_past_float32_range_stay_finite(self):
        # the scale is applied in float64: a floor that check_level accepts, far past
        # float32's 3.4e38, synthesizes finite samples and reads back at its level
        cfg = cfg_with(electronic_floor_db=3000.0, sweeps=1)
        target = flat_trace(-3.2, default_frequency_grid(1e6, 45e6, 1e6))
        for reference in (None, target):
            assert np.var(synthesize_trace(cfg, reference).samples) == pytest.approx(1e300, rel=0.05)
            assert np.median(averaged_psd(cfg, reference).values_db) == pytest.approx(3000.0, abs=0.1)
