import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import squeezelab
from squeezelab import cli, scenario
from squeezelab.scenario import ScenarioError, paper_preset
from squeezelab.spectrum import TraceLabel, read_traces_csv


class TestPaperPreset:
    def test_pump_ratio(self):
        scn = paper_preset()
        assert scn.operating_point().pump_ratio_x == pytest.approx(math.sqrt(0.130 / 0.145))
        assert scn.opa_pump_power / scn.opa_threshold_power == pytest.approx(0.90, abs=4e-3)

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
        paper_preset().validate()

    def test_every_key_is_read_by_a_subcommand(self):
        # the EOM settings and the LO phase are library parameters, not scenario keys
        flat = scenario.to_flat(paper_preset())
        assert len(flat) == 32
        assert not any(key.startswith("eom.") for key in flat)
        assert "homodyne.lo_phase_theta" not in flat
        with pytest.raises(ScenarioError, match="eom.n_Z"):
            scenario.parse("eom.n_Z = 1.9\n")


KEYS = list(scenario.to_flat(paper_preset()))
# value text over a small alphabet: numbers, malformed numbers, nan, inf, none
VALUE_TEXT = st.lists(
    st.sampled_from([*"0123456789.-e", "nan", "inf", "none"]), max_size=8
).map("".join)


class TestConfigFormat:
    def test_round_trip_is_idempotent(self):
        scn = paper_preset(seed=42)
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

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        scn = paper_preset(seed=5)
        scenario.save(scn, path)
        assert scenario.load(path) == scn

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
    (["cavity", "--set", "trace.duration=inf"], "trace.duration"),
    (["cavity", "--set", "trace.duration=10"], "trace.duration"),
    (["capacity", "--set", "capacity.points=3.0"], "capacity.points"),
    (["cavity", "--set", "trace.vbw=abc"], "trace.vbw"),
    (["trace", "--set", "trace.vbw=1e-300"], "trace.vbw"),  # rbw/vbw beyond the PSD bins
    (["trace", "--set", "trace.vbw=5e-324"], "trace.vbw"),  # rbw/vbw = inf
    (["trace", "--set", "trace.electronic_floor_db=4000"], "trace.electronic_floor_db"),
    (["correct", "--observed-db", "inf"], "--observed-db"),
    (["correct", "--observed-db", "nan"], "--observed-db"),
    (["correct", "--observed-db", "4000"], "--observed-db"),  # power ratio overflows
    (["correct", "--observed-db", "-3", "--power-ratio", "nan"], "--power-ratio"),
    (["correct", "--observed-db", "-3", "--set", "homodyne.lo_power=0"], "homodyne.lo_power"),
    (["cavity", "--cavity.mirror_R1", "0.99"], "--cavity.mirror_R1"),
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


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import squeezelab.cli, sys; squeezelab.scenario.paper_preset(); "
         "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))"],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
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
            "correct", "--observed-db", "-3.75", "--power-ratio", "0.038",
            "--mode", "blocked", "--out", str(tmp_path),
        )
        assert code == 0
        assert "-4.16 dB" in capsys.readouterr().out

    def test_correct_equal_power(self, tmp_path, capsys):
        code = run_cli(
            "correct", "--observed-db", "-3.00", "--power-ratio", "0.038",
            "--mode", "equal-power", "--out", str(tmp_path),
        )
        assert code == 0
        assert "-3.17 dB" in capsys.readouterr().out

    def test_correct_nonphysical_is_runtime_failure(self, tmp_path):
        code = run_cli(
            "correct", "--observed-db", "-20", "--power-ratio", "0.038",
            "--mode", "blocked", "--out", str(tmp_path),
        )
        assert code == 1

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

    def test_set_without_value_exits_2(self, tmp_path, capsys):
        assert run_cli("cavity", "--set", "trace.seed", "--out", str(tmp_path)) == 2
        assert "trace.seed" in capsys.readouterr().err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "scn.cfg"
        scenario.save(paper_preset(seed=11), cfg)
        assert run_cli("cavity", "--config", str(cfg), "--out", str(tmp_path)) == 0
        meta = next(tmp_path.glob("cavity-*.meta")).read_text()
        assert "trace.seed = 11" in meta

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

    def test_config_before_subcommand(self, tmp_path):
        cfg = tmp_path / "scn.cfg"
        scenario.save(paper_preset(seed=11), cfg)
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
