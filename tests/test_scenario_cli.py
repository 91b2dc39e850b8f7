import csv
import hashlib
import inspect
import io
import json
import math
import os
import pkgutil
import runpy
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.introspect import opt_func_info

import squeezelab
from squeezelab import capacity, cli, scenario, tracesim
from squeezelab.gaussian import db_to_ratio
from squeezelab.scenario import ScenarioError, paper_preset
from squeezelab.spectrum import TraceLabel, read_traces_csv


class TestPaperPreset:
    def test_pump_ratio(self):
        scn = paper_preset()
        assert scn.operating_point().pump_ratio_x == pytest.approx(math.sqrt(0.130 / 0.145))
        assert scn.opa.pump_power / scn.opa.threshold_power == pytest.approx(0.90, abs=4e-3)

    def test_trace_settings(self):
        trace = paper_preset().trace
        assert trace.sweeps == 100
        assert trace.rbw == 30e3
        assert trace.vbw == 10e3

    def test_homodyne_power_ratio(self):
        assert paper_preset().homodyne.power_ratio == pytest.approx(0.038, abs=2e-4)

    def test_detection_chain_budget(self):
        chain = paper_preset().chain
        assert chain.quantum_efficiency == 0.95
        assert chain.homodyne_contrast == 0.96
        assert chain.propagation_efficiency == 0.94
        assert chain.detection_efficiency == pytest.approx(0.823, abs=5e-4)

    def test_preset_validates(self):
        paper_preset()

    def test_preset_takes_no_arguments(self):
        # trace.seed has one route: from_flat / --set
        assert inspect.signature(paper_preset).parameters == {}

    def test_every_key_is_read_by_a_subcommand(self):
        # the EOM settings and the LO phase are library parameters, and the
        # squeezing band's top is the paper's constant, not scenario keys
        flat = scenario.to_flat(paper_preset())
        assert len(flat) == 30
        assert not any(key.startswith("eom.") for key in flat)
        assert "homodyne.lo_phase_theta" not in flat
        assert "interfere.band_min" not in flat
        assert "interfere.band_max" not in flat
        with pytest.raises(ScenarioError, match="eom.n_Z"):
            scenario.parse("eom.n_Z = 1.9\n")


KEYS = list(scenario.to_flat(paper_preset()))
# value text over a small alphabet: numbers, malformed numbers, nan, inf, none
VALUE_TEXT = st.lists(
    st.sampled_from([*"0123456789.-e", "nan", "inf", "none"]), max_size=8
).map("".join)


class TestConfigFormat:
    def test_round_trip_is_idempotent(self):
        scn = scenario.from_flat({"trace.seed": 42})
        text = scenario.serialize(scn)
        assert scenario.parse(text) == scn
        assert scenario.serialize(scenario.parse(text)) == text

    def test_comments_and_blank_lines(self):
        text = scenario.serialize(paper_preset())
        text = "# scenario\n\n" + text + "\ntrace.seed = 9  # override\n"
        assert scenario.parse(text).trace.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="cavity.bogus"):
            scenario.parse("cavity.bogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="laser.power"):
            scenario.parse("laser.power = 1\n")

    def test_line_without_value_names_key(self):
        with pytest.raises(ScenarioError, match="trace.seed"):
            scenario.parse("trace.seed\n")

    def test_invalid_value_names_section(self):
        with pytest.raises(ScenarioError, match="cavity.mirror_R1"):
            scenario.parse("cavity.mirror_R1 = 1.5\n")

    def test_cross_field_validation(self):
        with pytest.raises(ScenarioError, match="opa.pump_power"):
            scenario.parse("opa.pump_power = 0.2\n")

    def test_from_flat_checks_cross_section_rules_once(self, monkeypatch):
        # the preset it starts from is built and checked once, not per call
        calls = []
        operating_point = scenario.Scenario.operating_point
        monkeypatch.setattr(scenario.Scenario, "operating_point",
                            lambda self: calls.append(self) or operating_point(self))
        scn = scenario.from_flat({"trace.seed": 3})
        assert calls == [scn]

    def test_replace_checks_cross_section_rules(self):
        # a Scenario is checked when it is built, not when a caller remembers to
        with pytest.raises(ValueError, match="pump_power"):
            replace(paper_preset(), opa=scenario.OpaConfig(0.2, 0.145))

    @pytest.mark.parametrize("key, value, names", [
        ("trace.sample_rate", 50e6, "the spectrum and trace grid top"),
        ("interfere.tone_frequency", 60e6, "interfere.tone_frequency"),
    ])
    def test_nyquist_names_sample_rate_and_the_frequency(self, key, value, names):
        with pytest.raises(ScenarioError, match="trace.sample_rate") as exc:
            scenario.from_flat({key: value})
        assert names in str(exc.value)

    def test_capacity_points_ceiling(self):
        top = capacity.MAX_NBAR_POINTS
        assert scenario.from_flat({"capacity.points": top}).capacity.points == top
        with pytest.raises(ScenarioError, match="capacity.points"):
            scenario.from_flat({"capacity.points": top + 1})

    def test_levels_that_keep_the_periodogram_finite_are_accepted(self):
        scn = scenario.from_flat(
            {"trace.electronic_floor_db": 3000, "interfere.tone_db_rel_shot": 3000}
        )
        assert scn.trace.electronic_floor_db == scn.interfere.tone_db_rel_shot == 3000

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        scn = scenario.from_flat({"trace.seed": 5})
        path.write_text(scenario.serialize(scn))
        assert scenario.parse(path.read_text()) == scn

    @given(st.dictionaries(st.sampled_from(KEYS), VALUE_TEXT))
    def test_any_value_text_is_typed_or_refused(self, flat):
        try:
            scn = scenario.from_flat(flat)
        except ScenarioError:
            return
        text = scenario.serialize(scn)
        assert scenario.serialize(scenario.parse(text)) == text


def run_cli(*argv):
    return cli.main(list(argv))


def exit_code(*argv):
    """Exit code of a CLI run, including argparse's exit on a bad flag."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


# Values refused before anything runs: exit 2, naming the key or flag.
CONFIG_ERRORS = [
    (["spectrum", "--set", "chain.phase_jitter_rms=nan"], "chain.phase_jitter_rms"),
    (["spectrum", "--set", "trace.electronic_floor_db=nan"], "trace.electronic_floor_db"),
    (["cavity", "--set", "trace.sweeps=2.5"], "trace.sweeps"),
    (["cavity", "--set", "trace.seed=-1"], "trace.seed"),
    (["trace", "--set", "trace.seed=340282366920938463463374607431768211456", "--set", "trace.sweeps=1",
      "--set", "trace.duration=1e-4"], "trace.seed"),  # 2**128: beyond the Philox key
    (["cavity", "--set", "trace.duration=inf"], "trace.duration"),
    (["cavity", "--set", "trace.duration=10"], "trace.duration"),
    # runs that would not finish: one sweep of 105 000 samples past MAX_RUN_SAMPLES, at one
    # reference and at interfere's two, and 2**128 sweeps
    (["trace", "--set", f"trace.sweeps={tracesim.MAX_RUN_SAMPLES // 105_000 + 1}"], "trace.sweeps"),
    (["interfere", "--set", f"trace.sweeps={tracesim.MAX_RUN_SAMPLES // 210_000 + 1}"], "trace.sweeps"),
    (["trace", "--set", f"trace.sweeps={2**128}"], "trace.sweeps"),
    (["capacity", "--set", "capacity.points=3.0"], "capacity.points"),
    (["cavity", "--set", "trace.vbw=abc"], "trace.vbw"),
    (["trace", "--set", "trace.vbw=1e-300"], "trace.vbw"),  # rbw/vbw beyond the PSD bins
    (["trace", "--set", "trace.vbw=5e-324"], "trace.vbw"),  # rbw/vbw = inf
    (["trace", "--set", "trace.electronic_floor_db=4000"], "trace.electronic_floor_db"),
    (["correct", "--observed-db", "inf"], "--observed-db"),
    (["correct", "--observed-db", "nan"], "--observed-db"),
    (["correct", "--observed-db", "4000"], "--observed-db"),  # power ratio overflows
    (["correct", "--observed-db", "-3", "--power-ratio", "nan"], "--power-ratio"),  # no such flag
    (["correct", "--observed-db", "-3", "--set", "homodyne.lo_power=0"], "homodyne.lo_power"),
    (["trace", "--set", "trace.sample_rate=50e6"], "trace.sample_rate"),  # Nyquist on the grid top
    (["interfere", "--set", "interfere.tone_db_rel_shot=3080"], "interfere.tone_db_rel_shot"),
    (["interfere", "--set", "interfere.tone_db_rel_shot=4000"], "interfere.tone_db_rel_shot"),
    (["interfere", "--set", "interfere.tone_db_rel_shot=3020"],
     "interfere.tone_db_rel_shot"),  # a finite amplitude past the level bound
    (["trace", "--set", "trace.electronic_floor_db=3040"], "trace.electronic_floor_db"),
    (["trace", "--set", "trace.rbw=18.75e6", "--set", "trace.vbw=none", "--set", "trace.electronic_floor_db=3050",
      "--set", "trace.sweeps=1"], "trace.electronic_floor_db"),  # the squared shaping gain overflows
    (["trace", "--set", "trace.rbw=18.75e6", "--set", "trace.duration=8e-8", "--set", "trace.vbw=none",
      "--set", "trace.electronic_floor_db=3064", "--set", "trace.sweeps=1000"],
     "trace.electronic_floor_db"),  # the sum over sweeps overflows
    (["cavity", "--set", "trace.duration=0.1", "--set", "trace.rbw=15"],
     "trace.duration"),  # 1e7 retained and 1e7 warm-up samples: twice the cap
    (["interfere", "--set", "interfere.squeezed_floor_db=-150"],
     "interfere.squeezed_floor_db"),  # past the float32 shaping's 90 dB span
    (["interfere", "--set", "interfere.band_max=2e7"], "interfere.band_max"),  # the band's top is a constant
    (["capacity", "--set", "capacity.squeeze_r=355"], "capacity.squeeze_r"),
    (["capacity", "--set", "capacity.nbar_max=1e308"], "capacity.nbar_max"),
    (["capacity", "--set", "capacity.squeeze_r=-1"], "capacity.squeeze_r"),
    (["capacity", "--set", "capacity.nbar_min=1", "--set", "capacity.nbar_max=1.0000000000000002",
      "--set", "capacity.points=50"], "capacity.nbar_max"),  # geomspace repeats a value
    (["cavity", "--cavity.mirror_R1", "0.99"], "--cavity.mirror_R1"),
    (["spectrum", "--set", "chain.phase_jitter_rms=2"], "chain.phase_jitter_rms"),  # above pi/2
    (["cavity", "--set", "cavity.shg_efficiency=1e-320"], "cavity.shg_efficiency"),  # threshold inf
    (["cavity", "--observed-db", "-3"], "--observed-db"),  # flags that only correct takes
    (["spectrum", "--mode", "blocked"], "--mode"),
    (["correct"], "--observed-db"),
    (["cavity", "--set", "cavity.mirror_R1=1e-320", "--set", "cavity.mirror_R2=1e-320"],
     "cavity.mirror_R2"),  # R1*R2 underflows: finesse 0
    (["spectrum", "--set", "cavity.mirror_R1=1e-320", "--set", "cavity.mirror_R2=1e-320"],
     "cavity.mirror_R1"),
    (["cavity", "--set", "cavity.geometric_length=1e308"], "cavity.geometric_length"),  # FSR 0
    (["trace", "--set", "cavity.geometric_length=1e308"], "cavity.geometric_length"),
    (["cavity", "--set", "cavity.crystal_length=0", "--set", "cavity.geometric_length=5e-324"],
     "cavity.geometric_length"),  # FSR inf
    (["spectrum", "--set", "chain.quantum_efficiency=1.5"], "chain.quantum_efficiency"),
    (["spectrum", "--set", "chain.propagation_efficiency=0"], "chain.propagation_efficiency"),
    (["spectrum", "--set", "chain.homodyne_contrast=1e-200"], "chain.homodyne_contrast"),  # eta 0
    (["spectrum", "--set", "chain.escape_efficiency=5e-324", "--set", "chain.homodyne_contrast=0.5"],
     "chain.escape_efficiency"),  # escape * detection underflows to 0
    (["cavity", "--set", "opa.threshold_power=0"], "opa.threshold_power"),
    (["correct", "--observed-db", "-3.75", "--set", "homodyne.lo_power=1e-320"],
     "homodyne.lo_power"),  # power ratio inf
    # observed ratios the corrections cannot undo: at most p, or p / (1 + p) for equal-power
    (["correct", "--observed-db", "-300"], "--observed-db"),
    (["correct", "--observed-db", "-3.75", "--set", "homodyne.opa_power=100"], "homodyne.opa_power"),
    (["correct", "--observed-db", "-300", "--mode", "equal-power"], "homodyne.lo_power"),
    (["correct", "--observed-db", "3000", "--mode", "equal-power", "--set", "homodyne.opa_power=1e10"],
     "--observed-db"),  # the corrected variance overflows to inf
    # a refusal names the key that was set, whatever field its message is about
    (["cavity", "--set", "trace.duration=0"], "trace.duration"),
    (["cavity", "--set", "trace.sample_rate=1"], "trace.sample_rate"),  # fewer samples than a segment
    (["cavity", "--set", "trace.rbw=1e6"], "trace.rbw"),  # rbw/vbw beyond the PSD bins
    (["cavity", "--set", "opa.threshold_power=1e-300"], "opa.threshold_power"),  # pump above it
    (["capacity", "--set", "capacity.nbar_max=-1"], "capacity.nbar_max"),  # below nbar_min
    (["cavity", "--set", "cavity.geometric_length=1e-300"], "cavity.geometric_length"),  # below the crystal
]


@pytest.mark.parametrize("argv, name", CONFIG_ERRORS, ids=[" ".join(a) for a, _ in CONFIG_ERRORS])
def test_bad_value_exits_2_naming_it(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert exit_code(*argv, "--out", str(out)) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_equal_scenarios_share_output_names(tmp_path):
    assert run_cli("cavity", "--out", str(tmp_path)) == 0
    assert run_cli("cavity", "--set", "trace.sample_rate=100000000", "--out", str(tmp_path)) == 0
    assert len(list(tmp_path.glob("cavity-*.csv"))) == 1
    # -0 equals 0, so it must serialize as 0.0 too
    for value in ("0", "-0", "-0.0"):
        assert run_cli("cavity", "--set", f"chain.phase_jitter_rms={value}", "--out", str(tmp_path)) == 0
    assert len(list(tmp_path.glob("cavity-*.csv"))) == 2


def test_largest_philox_seed_runs(tmp_path):
    argv = ["trace", "--set", f"trace.seed={2**128 - 1}", "--set", "trace.sweeps=1",
            "--set", "trace.duration=1e-4", "--out", str(tmp_path)]
    assert run_cli(*argv) == 0


def test_tone_within_the_level_bound_at_8_sample_segments_runs_finite(tmp_path):
    # 3020 dB passes check_level at 8-sample segments, so the tone's amplitude and the run must
    # stay finite; the suite turns an overflow warning into an error
    argv = ["interfere", "--set", "trace.rbw=18.75e6", "--set", "trace.vbw=none", "--set",
            "interfere.tone_db_rel_shot=3020", "--set", "trace.sweeps=1", "--out", str(tmp_path)]
    assert run_cli(*argv) == 0
    traces = read_traces_csv(next(tmp_path.glob("interfere-*.csv")))  # a SpectrumTrace refuses non-finite values
    assert [trace.values_db.size for trace in traces] == [3, 3]


def src_env() -> dict[str, str]:
    """Environment of a child interpreter that imports the squeezelab under test."""
    src = str(Path(squeezelab.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_runs_without_warning(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "squeezelab.cli",
         "cavity", "--out", str(tmp_path)],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_all_lists_every_submodule():
    names = {m.name for m in pkgutil.iter_modules(squeezelab.__path__)}
    assert sorted(squeezelab.__all__) == sorted(names)
    exec("from squeezelab import *", {})  # a stale entry raises here


def test_cli_import_loads_no_scipy():
    # nor orjson, which only a CSV write imports, so the CLI's import time does not pay for it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import squeezelab.cli, sys; squeezelab.scenario.paper_preset(); "
         "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy')); "
         "assert 'orjson' not in sys.modules"],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_runs_without_a_pool_import_no_thread_pool(tmp_path):
    # concurrent.futures, and logging with it, is imported only where a pool starts
    code = """import sys
from squeezelab import cli
for argv in (["cavity"], ["spectrum"], ["correct", "--observed-db", "-3"], ["capacity"],
             ["interfere", "--set", "trace.duration=5e-5", "--set", "trace.sweeps=10"]):
    assert cli.main([*argv, "--out", sys.argv[1]]) == 0, argv
assert "concurrent.futures" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestCli:
    def test_cavity_report(self, tmp_path, capsys):
        assert run_cli("cavity", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "finesse = 122.301" in out
        csvs = list(tmp_path.glob("cavity-*.csv"))
        metas = list(tmp_path.glob("cavity-*.meta"))
        assert len(csvs) == 1 and len(metas) == 1
        meta = metas[0].read_text()
        assert "rng.algorithm = philox4x64" in meta
        assert "cavity.mirror_R1 = 0.95" in meta

    def test_correct_blocked(self, tmp_path, capsys):
        code = run_cli(
            "correct", "--observed-db", "-3.75",
            "--mode", "blocked", "--out", str(tmp_path),
        )
        assert code == 0
        assert "-4.16 dB" in capsys.readouterr().out

    def test_correct_equal_power(self, tmp_path, capsys):
        code = run_cli(
            "correct", "--observed-db", "-3.00",
            "--mode", "equal-power", "--out", str(tmp_path),
        )
        assert code == 0
        assert "-3.17 dB" in capsys.readouterr().out

    def test_correct_nonphysical_is_configuration_error(self, tmp_path):
        code = run_cli(
            "correct", "--observed-db", "-20",
            "--mode", "blocked", "--out", str(tmp_path),
        )
        assert code == 2

    def test_capacity_r_zero_collapses(self, tmp_path):
        assert run_cli("capacity", "--set", "capacity.squeeze_r=0", "--out", str(tmp_path)) == 0
        csv_path = next(tmp_path.glob("capacity-*.csv"))
        rows = csv_path.read_text().splitlines()[1:]
        by_kind = {}
        for row in rows:
            nbar, bits, kind = row.split(",")
            by_kind.setdefault(kind, []).append(bits)
        assert by_kind["coherent"] == by_kind["coherent_with_squeezed_detection"]
        assert by_kind["coherent"] == by_kind["squeezed_encoding"]

    def test_spectrum_writes_traces(self, tmp_path):
        assert run_cli("spectrum", "--out", str(tmp_path)) == 0
        csv_path = next(tmp_path.glob("spectrum-*.csv"))
        header = csv_path.read_text().splitlines()[0]
        assert header == "frequency_hz,value_db,label"

    def test_invalid_override_exits_2(self, tmp_path):
        code = run_cli("cavity", "--set", "cavity.mirror_R1=1.5", "--out", str(tmp_path))
        assert code == 2

    def test_unknown_key_exits_2(self, tmp_path):
        code = run_cli("cavity", "--set", "cavity.nope=1", "--out", str(tmp_path))
        assert code == 2

    def test_config_line_with_the_removed_band_key_exits_2(self, tmp_path, capsys):
        # a scenario file serialized while the band's top was a key still sets it
        cfg = tmp_path / "old.cfg"
        cfg.write_text(scenario.serialize(paper_preset()) + "interfere.band_max = 20000000.0\n")
        assert run_cli("interfere", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        assert "interfere.band_max: unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_set_without_value_exits_2(self, tmp_path, capsys):
        assert run_cli("cavity", "--set", "trace.seed", "--out", str(tmp_path)) == 2
        assert "trace.seed" in capsys.readouterr().err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "scn.cfg"
        cfg.write_text(scenario.serialize(scenario.from_flat({"trace.seed": 11})))
        assert run_cli("cavity", "--config", str(cfg), "--out", str(tmp_path)) == 0
        meta = next(tmp_path.glob("cavity-*.meta")).read_text()
        assert "trace.seed = 11" in meta

    def test_undecodable_config_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"trace.seed = 1\xff\n")
        out = tmp_path / "out"
        assert run_cli("cavity", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(cfg) in err
        assert not out.exists()

    def test_failed_output_write_exits_1(self, tmp_path, capsys):
        assert run_cli("cavity", "--out", str(tmp_path / "a")) == 0
        meta = next((tmp_path / "a").glob("cavity-*.meta")).name
        (tmp_path / "b" / meta).mkdir(parents=True)  # the .meta cannot be written
        assert run_cli("cavity", "--out", str(tmp_path / "b")) == 1
        assert meta in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_tiny_linewidth_gives_shot_noise_without_warning(self, tmp_path):
        # fwhm ~ 1e-300 Hz: (omega / hwhm)**2 overflows to inf, the exact S = 1 limit
        assert run_cli("spectrum", "--set", "cavity.crystal_index=1e308", "--out", str(tmp_path)) == 0
        traces = {t.label: t for t in read_traces_csv(next(tmp_path.glob("spectrum-*.csv")))}
        for label in (TraceLabel.SQUEEZED_QUADRATURE, TraceLabel.ANTISQUEEZED_QUADRATURE):
            assert np.all(traces[label].values_db == 0.0)

    def test_output_reproducible_from_own_metadata(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("capacity", "--out", str(out_a), "--set", "trace.seed=3") == 0
        meta = next(out_a.glob("capacity-*.meta"))
        # strip the metadata preamble back into a loadable scenario
        lines = [
            line for line in meta.read_text().splitlines()
            if "." in line.split(" = ")[0] and not line.startswith("rng.")
        ]
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert run_cli("capacity", "--config", str(cfg), "--out", str(out_b)) == 0
        csv_a = next(out_a.glob("capacity-*.csv"))
        csv_b = next(out_b.glob("capacity-*.csv"))
        assert csv_a.name == csv_b.name
        assert csv_a.read_text() == csv_b.read_text()

    def test_interfere_writes_two_traces(self, tmp_path):
        code = run_cli(
            "interfere", "--out", str(tmp_path),
            "--set", "trace.sweeps=2", "--set", "trace.duration=1e-4",
        )
        assert code == 0
        text = next(tmp_path.glob("interfere-*.csv")).read_text()
        assert "shot_noise" in text
        assert "squeezed_quadrature" in text

    def test_trace_subcommand(self, tmp_path):
        code = run_cli(
            "trace", "--out", str(tmp_path),
            "--set", "trace.sweeps=2", "--set", "trace.duration=1e-4",
        )
        assert code == 0
        assert next(tmp_path.glob("trace-*.csv")).exists()

    def test_trace_output_reads_back_as_two_traces(self, tmp_path):
        code = run_cli(
            "trace", "--out", str(tmp_path),
            "--set", "trace.sweeps=2", "--set", "trace.duration=1e-4",
        )
        assert code == 0
        estimate, target = read_traces_csv(next(tmp_path.glob("trace-*.csv")))
        assert estimate.label is target.label is TraceLabel.SQUEEZED_QUADRATURE
        assert target.frequencies[0] == 1e6 and target.frequencies.size == 801
        assert estimate.frequencies[0] < target.frequencies[-1]


class TestParserReuse:
    """One parser is built per process; each build_parser call returns a copy of it."""

    def test_each_call_returns_a_new_parser(self):
        first = cli.build_parser()
        assert first is not cli.build_parser()
        first.marker = "set on one copy"
        assert not hasattr(cli.build_parser(), "marker")

    def test_set_pairs_do_not_leak_into_the_next_run(self, tmp_path):
        argv = ["cavity", "--set", "trace.seed=7", "--set", "opa.pump_power=0.05"]
        assert run_cli(*argv, "--out", str(tmp_path / "set")) == 0
        assert run_cli("cavity", "--out", str(tmp_path / "bare")) == 0
        assert [p.stem for p in (tmp_path / "bare").glob("*.csv")] == [
            stem for stem, pinned in META_STEMS.items() if pinned == ["cavity"]]
        assert cli.build_parser().parse_args(["cavity"]).set == []

    def test_correct_flags_do_not_leak_into_the_next_run(self, tmp_path):
        assert run_cli("correct", "--observed-db", "-3", "--mode", "equal-power", "--out", str(tmp_path)) == 0
        assert run_cli("cavity", "--out", str(tmp_path)) == 0

    def test_wrapping_each_parser_does_not_stack(self, tmp_path, monkeypatch):
        # a tracer wraps parse_known_args on every parser it is given; on a
        # shared parser the wrappers would nest until the recursion limit
        build_parser = cli.build_parser

        def wrapping_build_parser():
            parser = build_parser()
            parse_known_args = parser.parse_known_args
            parser.parse_known_args = lambda *args, **kwargs: parse_known_args(*args, **kwargs)
            return parser

        monkeypatch.setattr(cli, "build_parser", wrapping_build_parser)
        monkeypatch.setattr(cli, "write_outputs", lambda out_dir, *args: out_dir)  # no file churn
        for _ in range(3000):
            assert run_cli("cavity", "--out", str(tmp_path)) == 0


class TestOptionPosition:
    def test_options_before_subcommand_take_effect(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "results"
        assert run_cli("--set", "trace.seed=7", "--out", str(out), "cavity") == 0
        assert list(tmp_path.glob("cavity-*")) == []
        assert "trace.seed = 7" in next(out.glob("cavity-*.meta")).read_text()

    def test_set_on_both_sides_applies_in_order(self, tmp_path):
        code = run_cli(
            "--set", "trace.seed=7", "--set", "trace.sweeps=3", "cavity",
            "--out", str(tmp_path), "--set", "trace.seed=8",
        )
        assert code == 0
        meta = next(tmp_path.glob("cavity-*.meta")).read_text()
        assert "trace.seed = 8" in meta and "trace.sweeps = 3" in meta

    def test_correct_flags_before_subcommand(self, tmp_path):
        after, before = tmp_path / "after", tmp_path / "before"
        flags = ["--observed-db", "-3.75", "--mode", "equal-power"]
        assert run_cli("correct", *flags, "--out", str(after)) == 0
        assert run_cli(*flags, "--out", str(before), "correct") == 0
        csv_after = next(after.glob("correct-*.csv"))
        assert csv_after.read_bytes() == (before / csv_after.name).read_bytes()

    def test_config_and_set_are_checked_as_one_overlay(self, tmp_path):
        # the file alone puts the pump above threshold; the --set mends it
        cfg = tmp_path / "scn.cfg"
        cfg.write_text("opa.pump_power = 0.2\n")
        code = run_cli("cavity", "--config", str(cfg), "--set", "opa.threshold_power=1", "--out", str(tmp_path))
        assert code == 0
        meta = next(tmp_path.glob("cavity-*.meta")).read_text()
        assert "opa.pump_power = 0.2\n" in meta and "opa.threshold_power = 1.0\n" in meta

    @pytest.mark.parametrize("in_file", [True, False])
    def test_section_refusal_names_its_changed_keys_only(self, tmp_path, capsys, in_file):
        # the file states every key; only the changed one of the refused section is named
        text = scenario.serialize(paper_preset())
        cfg = tmp_path / "scn.cfg"
        cfg.write_text(text.replace("mirror_R1 = 0.95", "mirror_R1 = 2") if in_file else text)
        sets = [] if in_file else ["--set", "cavity.mirror_R1=2"]
        out = tmp_path / "out"
        assert run_cli("cavity", "--config", str(cfg), *sets, "--set", "trace.seed=5", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "configuration error: cavity.mirror_R1: mirror_R1 must be in (0, 1), got 2" in err
        assert "trace.seed" not in err and "cavity.mirror_R2" not in err and not out.exists()

    def test_cross_section_refusal_names_every_changed_key(self, tmp_path, capsys):
        argv = ["cavity", "--set", "opa.pump_power=0.2", "--set", "trace.seed=0", "--set", "trace.sweeps=3"]
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        # trace.seed = 0 is the preset's value, so it is not a change
        assert "configuration error: opa.pump_power, trace.sweeps: pump_power" in capsys.readouterr().err

    def test_config_before_subcommand(self, tmp_path):
        cfg = tmp_path / "scn.cfg"
        cfg.write_text(scenario.serialize(scenario.from_flat({"trace.seed": 11})))
        assert run_cli("--config", str(cfg), "cavity", "--out", str(tmp_path)) == 0
        assert "trace.seed = 11" in next(tmp_path.glob("cavity-*.meta")).read_text()


class TestCorrectOutputs:
    def run_correct(self, out, observed, mode):
        return run_cli("correct", "--observed-db", observed, "--mode", mode, "--out", str(out))

    def test_distinct_runs_keep_distinct_files(self, tmp_path):
        assert self.run_correct(tmp_path, "-3.75", "blocked") == 0
        assert self.run_correct(tmp_path, "-3.00", "equal-power") == 0
        assert len(list(tmp_path.glob("correct-*.csv"))) == 2
        assert len(list(tmp_path.glob("correct-*.meta"))) == 2

    def test_equal_runs_share_a_name(self, tmp_path):
        assert self.run_correct(tmp_path, "-3.75", "blocked") == 0
        assert self.run_correct(tmp_path, "-3.75", "blocked") == 0
        assert len(list(tmp_path.glob("correct-*.csv"))) == 1

    def test_corrected_db_is_a_plain_number(self, tmp_path):
        assert self.run_correct(tmp_path, "-3.75", "blocked") == 0
        row = next(tmp_path.glob("correct-*.csv")).read_text().splitlines()[1].split(",")
        power_ratio = paper_preset().homodyne.power_ratio
        assert float(row[3]) == pytest.approx(10 * math.log10(10 ** -0.375 - power_ratio), abs=1e-12)


# arguments that make each subcommand run; trace and interfere with one short sweep
RUN_ARGS = {
    "cavity": [],
    "spectrum": [],
    "correct": ["--observed-db", "-3.75"],
    "interfere": ["--set", "trace.sweeps=1", "--set", "trace.duration=1e-4"],
    "trace": ["--set", "trace.sweeps=1", "--set", "trace.duration=1e-4"],
    "capacity": [],
}


class TestOutputWriter:
    @pytest.mark.parametrize("subcommand", list(cli._RUNNERS))
    def test_runner_writes_and_prints_nothing(self, tmp_path, monkeypatch, capsys, subcommand):
        monkeypatch.chdir(tmp_path)
        args = cli.build_parser().parse_args([subcommand, *RUN_ARGS[subcommand]])
        cli._RUNNERS[subcommand](cli.resolve_scenario(args), args)
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("subcommand", list(cli._RUNNERS))
    def test_run_leaves_one_csv_and_its_meta(self, tmp_path, capsys, subcommand):
        assert run_cli(subcommand, *RUN_ARGS[subcommand], "--out", str(tmp_path)) == 0
        csv_path = next(tmp_path.glob(f"{subcommand}-*.csv"))
        assert sorted(tmp_path.iterdir()) == [csv_path, csv_path.with_suffix(".meta")]
        assert capsys.readouterr().out.endswith(f" -> {csv_path}\n")

    @pytest.mark.parametrize("blocked", [".csv", ".meta"])
    def test_failed_write_leaves_neither_file(self, tmp_path, capsys, blocked):
        assert run_cli("cavity", "--out", str(tmp_path / "a")) == 0
        name = next((tmp_path / "a").glob("cavity-*.csv")).with_suffix(blocked).name
        out = tmp_path / "b"
        (out / name).mkdir(parents=True)  # this file cannot be written
        assert run_cli("cavity", "--out", str(out)) == 1
        assert name in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]

    def test_failed_write_keeps_an_earlier_runs_csv(self, tmp_path):
        assert run_cli("cavity", "--out", str(tmp_path)) == 0
        meta = next(tmp_path.glob("cavity-*.meta"))
        meta.unlink()
        meta.mkdir()
        assert run_cli("cavity", "--out", str(tmp_path)) == 1
        assert meta.with_suffix(".csv").is_file()

    def test_numeric_failure_leaves_no_out(self, tmp_path, monkeypatch, capsys):
        def fail(scn, args):
            raise ValueError("overflow in the model")

        monkeypatch.setitem(cli._RUNNERS, "cavity", fail)
        out = tmp_path / "out"
        assert run_cli("cavity", "--out", str(out)) == 1
        assert "error: overflow in the model" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_2_after_the_compute(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert run_cli("cavity", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and str(out) in err


SCRIPT = Path(__file__).parents[1] / "scripts" / "reproduce_paper.py"


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_meta(csv_path: Path) -> dict[str, str]:
    """The `.meta` sidecar of `csv_path` as a mapping of its `key = value` lines."""
    return dict(line.split(" = ", 1) for line in csv_path.with_suffix(".meta").read_text().splitlines())


def check_squeezing_outputs(out: Path) -> None:
    # criteria 1 and 5: the cavity's finesse and threshold
    cavity = {row["quantity"]: float(row["value"]) for row in read_rows(next(out.glob("cavity-*.csv")))}
    assert cavity["finesse"] == pytest.approx(122.3, abs=0.5)
    assert cavity["threshold_power_w"] == pytest.approx(0.163, abs=0.001)
    # criteria 3 and 4: both bright-beam corrections
    corrected = {row["mode"]: float(row["corrected_db"])
                 for path in out.glob("correct-*.csv") for row in read_rows(path)}
    assert corrected["blocked"] == pytest.approx(-4.16, abs=0.01)
    assert corrected["equal-power"] == pytest.approx(-3.17, abs=0.005)
    # criterion 6: the estimate against what it was shaped to, the target
    # column plus the electronic floor (the column omits the floor)
    trace_csv = next(out.glob("trace-*.csv"))
    estimate, target = read_traces_csv(trace_csv)
    e = db_to_ratio(float(read_meta(trace_csv)["trace.electronic_floor_db"]))
    f = estimate.frequencies
    band = (f >= 3e6) & (f <= 20e6)
    shaped_db = 10 * np.log10(target.ratio_at(f[band]) + e)
    assert np.max(np.abs(estimate.values_db[band] - shaped_db)) < 0.3


def check_capacity_outputs(out: Path) -> None:
    # criterion 8 at the paper's r; the r = 0 collapse is test_capacity_r_zero_collapses
    [curves_csv] = [p for p in out.glob("capacity-*.csv") if read_meta(p)["capacity.squeeze_r"] == "0.3776"]
    bits: dict[str, list[float]] = {}
    for row in read_rows(curves_csv):
        bits.setdefault(row["bound_kind"], []).append(float(row["capacity_bits"] or "nan"))  # a gap is empty
    coh, det, hol = (np.array(bits[kind]) for kind in ("coherent", "coherent_with_squeezed_detection", "holevo"))
    assert np.all(coh <= det) and np.all(det <= hol)


def check_modulation_output(interfere_csv: Path) -> None:
    # criterion 7: the tone is buried under shot noise and resolved under squeezing
    coherent, squeezed = read_traces_csv(interfere_csv)
    assert coherent.label is TraceLabel.SHOT_NOISE
    assert squeezed.label is TraceLabel.SQUEEZED_QUADRATURE
    f = coherent.frequencies
    near_tone = np.abs(f - 4.5e6) <= 3 * (f[1] - f[0])
    floor_bins = (f >= 3e6) & (f <= 20e6) & ~near_tone
    coh, sq = coherent.ratio(), squeezed.ratio()
    floor_coh, floor_sq = np.mean(coh[floor_bins]), np.mean(sq[floor_bins])
    assert np.max(coh[near_tone]) <= floor_coh + 3 * np.std(coh[floor_bins])
    assert 10 * np.log10(np.max(sq[near_tone]) / floor_sq) >= 2.0
    e = db_to_ratio(paper_preset().trace.electronic_floor_db)
    expected_db = 10 * np.log10((1 + e) / (db_to_ratio(-3.2) + e))
    assert 10 * np.log10(floor_coh / floor_sq) == pytest.approx(expected_db, abs=0.3)


def interfere_argv() -> list[str]:
    """The paper script's interfere run, read without running the script."""
    return runpy.run_path(str(SCRIPT))["INTERFERE"]


@pytest.fixture(scope="module")
def script_out(tmp_path_factory) -> Path:
    """The directory that one run of the paper script wrote: eight CSVs, each with its .meta."""
    out = tmp_path_factory.mktemp("paper")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(out)],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    stems = sorted(p.stem for p in out.glob("*.csv"))
    assert len(stems) == 8
    assert stems == sorted(p.stem for p in out.glob("*.meta"))
    return out


def check_interfere_output(out: Path) -> None:
    check_modulation_output(next(out.glob("interfere-*.csv")))


# the script's outputs in the three parts that reproduce_squeezing_spectrum.py,
# reproduce_modulation_detection.py and reproduce_capacity_curves.py wrote before one script
# replaced them; each part's CSVs, each with its .meta, read back against the criteria they reproduce
@pytest.mark.parametrize("part, pairs, commands, check", [
    ("reproduce_squeezing_spectrum.py", 5, ("cavity", "spectrum", "trace", "correct"), check_squeezing_outputs),
    ("reproduce_modulation_detection.py", 1, ("interfere",), check_interfere_output),
    ("reproduce_capacity_curves.py", 2, ("capacity",), check_capacity_outputs),
], ids=["reproduce_squeezing_spectrum.py-5", "reproduce_modulation_detection.py-1", "reproduce_capacity_curves.py-2"])
def test_script_writes_its_outputs(script_out, part, pairs, commands, check):
    stems = [p.stem for p in script_out.glob("*.csv") if p.stem.split("-")[0] in commands]
    assert len(stems) == pairs, part
    assert all((script_out / f"{stem}.meta").is_file() for stem in stems)
    check(script_out)


def test_modulation_script_buries_the_tone_only_classically(tmp_path):
    # the criterion-7 checks, on the CSV the script's own interfere arguments write
    assert run_cli("--out", str(tmp_path), *interfere_argv()) == 0
    check_modulation_output(next(tmp_path.glob("interfere-*.csv")))


NO_FLOOR = ["--set", "trace.electronic_floor_db=none"]


def log10_target() -> str:
    """The SIMD dispatch target of numpy's float64 log10 loop in this interpreter."""
    (loops,) = opt_func_info(func_name="log10", signature="float64").values()
    (loop,) = loops.values()
    return loop["current"]


def csv_digest(out, argv) -> str:
    """sha256 of the one CSV that the CLI run `argv` writes into the empty directory `out`."""
    if not argv or argv[0].startswith("-"):  # no subcommand: the paper script's interfere run
        argv = interfere_argv() + argv
    assert run_cli("--out", str(out), *argv) == 0
    return hashlib.sha256(next(Path(out).glob("*.csv")).read_bytes()).hexdigest()


# numpy's float64 log10, log2, log, log1p, exp and power loops round differently on its AVX-512
# target X86_V4 than on its baseline.  A CSV that goes through them is pinned per target of
# float64 log10, by the target names of numpy >= 2.4 (older numpy names them otherwise, e.g.
# AVX512F, and has no pins).  The baseline pins were measured on an AVX-512 host with NO_AVX512
# set; no host without AVX-512 has checked them yet.
X86_V4, BASELINE = "X86_V4", "baseline(X86_V2)"
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# sha256 of CSV outputs: the analytic ones unchanged since the electronic floor became
# part of the shaping gain; the synthesized ones since each sweep's noise is shaped in single
# precision, so they also pin numpy's float32 irFFT
PINNED = [
    # the paper script's interfere arguments
    ([], {X86_V4: "e9ab1c5a5cdc129cdffde62f68781683e1d0208c2b3d868225e280420c9d5595",
          BASELINE: "955adf0c2eace80feb58678303f7dcf33adf9b344e6cb014ee944cd44cc8f3a1"}),
    (NO_FLOOR, {X86_V4: "12164f2b05cbce709a53bd54aaf6024689eec65084aa9b2d182a1f00653dc616",
                BASELINE: "35a62137f7e89ccfc67e95d7c35c8abaf61ee707d929360e3d651052cb7fe075"}),
    # three sweeps, with and without the preset's electronic floor
    (["trace", "--set", "trace.sweeps=3"],
     {X86_V4: "71abb787153b11d62cd54fbf8e04083072e57bad76968b41200e807edee29ab1",
      BASELINE: "e3135e3c297d2a00601a8c1fa28f88c2c2cf787fc1c9e5833a5758a9adeb05b4"}),
    (["trace", "--set", "trace.sweeps=3", *NO_FLOOR],
     {X86_V4: "34890876cc127cae9609ab796914af1398e32ed634ab7655631cbc9229e24da7",
      BASELINE: "59e3e47fdbe97cde4c2160546e55af53466c0e3d25e923812aa75ffc3e903000"}),
    # the analytic subcommands on the preset
    (["cavity"], "0ee52fa4998ea5b265ed0dce383e23de2942019f3f833a075153df952e15720f"),
    (["spectrum"], {X86_V4: "6abfe948d2408de55bcb5e60f9c9d0b3c09786bd10b7d6cf340e168173f12bae",
                    BASELINE: "fc827d11e10e036be60d19481c4dfe3ae511c9dcf7b22b83da38689fb2b36d80"}),
    (["capacity"], {X86_V4: "32de8e914c2120699a4b032310bbde6c6765a36fc7c7a45a49bed62db43b57da",
                    BASELINE: "e4bea95747f08c4466495b5a1f0d72640172a967d56117360f17f208695fef42"}),
    (["correct", "--observed-db", "-3.75"], "6e50c867656beb3ad2a04fc4838324b67214a99b7bd9c49285dd597671adfbc4"),
    (["correct", "--observed-db", "-3.0", "--mode", "equal-power"],
     "b7ba6ab466a4a8871d72222696930532695afc176504fac9340a93b19d46fac9"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[
    "script", "script-no-floor", "trace", "trace-no-floor", "cavity", "spectrum", "capacity",
    "correct-blocked", "correct-equal-power"])
def test_csv_bytes_are_pinned(tmp_path, argv, digest):
    # pins the random stream, the shaping, the periodogram fold, the physics and the format
    if isinstance(digest, dict):
        target = log10_target()
        assert target in digest, f"no digest pinned for numpy's float64 log10 dispatch target {target}"
        digest = digest[target]
    assert csv_digest(tmp_path, argv) == digest


@pytest.mark.skipif(log10_target() != X86_V4, reason="switching AVX-512 off reaches the baseline "
                    "loops only from the X86_V4 target; test_csv_bytes_are_pinned covers the others")
def test_baseline_loops_give_the_baseline_pins():
    # the pins that a host without AVX-512 reads: one child interpreter runs the per-target
    # cases with numpy's AVX-512 loops switched off
    cases = [(argv, digest[BASELINE]) for argv, digest in PINNED if isinstance(digest, dict)]
    code = """import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import test_scenario_cli as t
digests = []
for argv in json.loads(sys.argv[2]):
    with tempfile.TemporaryDirectory() as out:
        digests.append(t.csv_digest(out, argv))
print(json.dumps([t.log10_target(), digests]))
"""
    argvs = json.dumps([argv for argv, _ in cases])
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), argvs],
                          capture_output=True, text=True, env={**src_env(), **NO_AVX512}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    target, digests = json.loads(proc.stdout.splitlines()[-1])
    assert target == BASELINE, f"numpy's float64 log10 ran on {target} with {NO_AVX512}"
    assert digests == [digest for _, digest in cases]


# the stem names the files by a hash of the whole `.meta` record, so it pins that record
META_STEMS = {
    "cavity-7d930a92e620": ["cavity"],
    "spectrum-db5cb74c6151": ["spectrum"],
    "capacity-99106801bf7c": ["capacity"],
    "correct-818f12484383": ["correct", "--observed-db", "-3.75"],
    "correct-e847b4adbcfd": ["correct", "--observed-db", "-3.0", "--mode", "equal-power"],
    "trace-6db956592b36": ["trace", "--set", "trace.sweeps=5"],
    "interfere-1432f019e3a8": ["interfere", "--set", "trace.sweeps=5"],
}


@pytest.mark.parametrize("stem", list(META_STEMS))
def test_meta_record_is_pinned(tmp_path, stem):
    assert run_cli(*META_STEMS[stem], "--out", str(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}.csv", f"{stem}.meta"]


# values at the edges of each type: subnormal, huge, a dB level that nearly overflows
EXTREMES = ["0", "5e-324", "-5e-324", "1e308", "-1e308", "1e-300", "none", str(2**128 - 1),
            "3000", "-3000", "1", "-1", "0.5", "2", "1e6", "nan", "inf"]
TINY_TRACE = {"trace.sweeps": "1", "trace.duration": "1e-4"}


def small_enough(subcommand, sets) -> bool:
    """Whether the resolved run synthesizes at most 2 sweeps of about 2e6 samples."""
    if subcommand not in ("trace", "interfere"):
        return True
    try:
        trace = scenario.from_flat({**TINY_TRACE, **sets}).trace
    except ScenarioError:
        return True  # refused before anything runs
    return trace.sweeps <= 2 and trace.samples_per_sweep + trace.segment_length <= 2e6


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(cli._RUNNERS)), st.sampled_from(["blocked", "equal-power"]),
       st.sampled_from(["-3.75", "-300", "300", "3000"]),
       st.dictionaries(st.sampled_from(KEYS), st.sampled_from(EXTREMES), min_size=1, max_size=2))
def test_any_extreme_key_value_runs_or_exits_2(subcommand, mode, observed, sets):
    assume(small_enough(subcommand, sets))
    flags = ["--observed-db", observed, "--mode", mode] if subcommand == "correct" else []
    pairs = [arg for key, value in {**TINY_TRACE, **sets}.items() for arg in ("--set", f"{key}={value}")]
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "out"
        code = exit_code(subcommand, *flags, *pairs, "--out", str(out))
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            # a refused value names its key; a refused --observed-db names the flag
            assert any(name in err.getvalue() for name in [*sets, *flags[:1]]), err.getvalue()
            return
        for row in next(out.glob("*.csv")).read_text().splitlines()[1:]:
            for cell in row.split(","):
                if cell == "":
                    assert subcommand == "capacity"  # a point outside a bound's domain
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a label
                assert math.isfinite(value), row


class CountedGenerator:
    """A sweep's generator that records the size of each normal draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, size, out=None):
        self.sizes.append(size)
        return self.rng.standard_normal(size, out=out)


def test_interfere_draws_each_sweep_once(tmp_path, monkeypatch):
    drawn = {}
    sweep_rng = tracesim.sweep_rng

    def counted(cfg, sweep_index):
        drawn[sweep_index] = CountedGenerator(sweep_rng(cfg, sweep_index))
        return drawn[sweep_index]

    monkeypatch.setattr(tracesim, "sweep_rng", counted)
    code = run_cli("interfere", "--out", str(tmp_path), "--set", "trace.sweeps=3", "--set", "trace.duration=1e-4")
    assert code == 0
    assert sorted(drawn) == [0, 1, 2]
    # one draw per sweep, the real and imaginary parts of the synthesized block's rFFT
    # bins, with the preset's electronic floor in the shaping gain
    cfg = replace(paper_preset().trace, duration=1e-4)
    assert cfg.electronic_floor_db is not None
    total = cfg.samples_per_sweep + cfg.segment_length
    assert [rng.sizes for rng in drawn.values()] == [[2 * (total // 2 + 1)]] * 3
