"""Command-line front end.

Subcommands:
  cavity     resonator report (FSR, finesse, FWHM, threshold, escape efficiency)
  spectrum   analytic detected squeezing spectrum
  correct    bright-beam shot-noise corrections of an observed dB value
  interfere  coherent-vs-squeezed modulation-detection comparison (two PSDs)
  trace      PSD of a synthesized photocurrent trace against the analytic target
  capacity   channel-capacity curves versus mean photon number

Every output CSV gets a sidecar `.meta` file with the fully resolved
scenario, the seed and the RNG algorithm, so any result is reproducible
from its own metadata.  Exit codes: 0 success, 1 runtime numeric failure,
2 configuration/validation failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

from . import capacity as capacity_mod
from . import cavity as cavity_mod
from . import gaussian, homodyne, scenario, spectrum, tracesim
from .scenario import PRESET_ASSUMPTIONS, Scenario, ScenarioError
from .spectrum import TraceLabel


def write_metadata(out_dir: Path, scn: Scenario, subcommand: str, extra: dict | None = None) -> Path:
    """Write the `.meta` sidecar and return the path of its CSV.

    Both files are named by a hash of the whole record, so runs that differ
    in any recorded input (scenario or subcommand option) never share a name,
    and equal runs always do.
    """
    lines = [f"subcommand = {subcommand}", f"rng.algorithm = {tracesim.RNG_ALGORITHM}"]
    if extra:
        lines += [f"{k} = {v}" for k, v in extra.items()]
    lines.append(f"assumptions = {','.join(PRESET_ASSUMPTIONS)}")
    lines.append(scenario.serialize(scn).rstrip("\n"))
    record = "\n".join(lines) + "\n"
    stem = f"{subcommand}-{hashlib.sha256(record.encode()).hexdigest()[:12]}"
    (out_dir / f"{stem}.meta").write_text(record)
    return out_dir / f"{stem}.csv"


def run_cavity(scn: Scenario, out_dir: Path, args) -> Path:
    c = scn.cavity
    rows = [
        ("free_spectral_range_hz", cavity_mod.free_spectral_range(c)),
        ("finesse", cavity_mod.finesse(c)),
        ("fwhm_hz", cavity_mod.fwhm(c)),
        ("threshold_power_w", cavity_mod.threshold_power(c)),
        ("escape_efficiency", cavity_mod.escape_efficiency(c)),
    ]
    csv_path = write_metadata(out_dir, scn, "cavity")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "value"])
        for name, value in rows:
            writer.writerow([name, repr(value)])
            print(f"{name} = {value:.6g}")
    return csv_path


def run_spectrum(scn: Scenario, out_dir: Path, args) -> Path:
    op = scn.operating_point()
    grid = spectrum.default_frequency_grid()
    traces = [
        spectrum.detected_spectrum(op, scn.chain, grid, TraceLabel.SQUEEZED_QUADRATURE),
        spectrum.detected_spectrum(op, scn.chain, grid, TraceLabel.ANTISQUEEZED_QUADRATURE),
        spectrum.flat_trace(0.0, grid, TraceLabel.SHOT_NOISE),
    ]
    if scn.trace.electronic_floor_db is not None:
        traces.append(
            spectrum.flat_trace(scn.trace.electronic_floor_db, grid, TraceLabel.ELECTRONIC_NOISE)
        )
    csv_path = write_metadata(out_dir, scn, "spectrum")
    spectrum.write_traces_csv(csv_path, traces)
    print(f"wrote {len(traces)} traces, {grid.size} points each -> {csv_path}")
    return csv_path


def run_correct(scn: Scenario, out_dir: Path, args) -> Path:
    observed_ratio = gaussian.db_to_ratio(args.observed_db)
    power_ratio = args.power_ratio if args.power_ratio is not None else scn.homodyne.power_ratio
    if args.mode == "blocked":
        corrected = homodyne.correct_blocked_shot_noise(observed_ratio, power_ratio)
    else:
        corrected = homodyne.correct_equal_power_shot_noise(observed_ratio, power_ratio)
    corrected_db = float(gaussian.ratio_to_db(corrected))
    print(f"corrected squeezing: {corrected_db:.2f} dB")
    csv_path = write_metadata(
        out_dir, scn, "correct",
        {"observed_db": args.observed_db, "power_ratio": power_ratio, "mode": args.mode},
    )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["observed_db", "power_ratio", "mode", "corrected_db"])
        writer.writerow([args.observed_db, power_ratio, args.mode, repr(corrected_db)])
    return csv_path


def _interfere_targets(scn: Scenario):
    cfg = scn.trace
    icfg = scn.interfere
    grid = spectrum.default_frequency_grid(icfg.band_min, icfg.band_max, scn.trace.rbw)
    squeezed = spectrum.flat_trace(icfg.squeezed_floor_db, grid, TraceLabel.SQUEEZED_QUADRATURE)
    tone = (icfg.tone_frequency, tracesim.tone_amplitude_for_db(icfg.tone_db_rel_shot, cfg))
    return squeezed, tone


def run_interfere(scn: Scenario, out_dir: Path, args) -> Path:
    cfg = scn.trace
    squeezed_target, tone = _interfere_targets(scn)
    coherent_psd = tracesim.averaged_psd(cfg, None, tone, TraceLabel.SHOT_NOISE)
    squeezed_psd = tracesim.averaged_psd(cfg, squeezed_target, tone, TraceLabel.SQUEEZED_QUADRATURE)
    csv_path = write_metadata(
        out_dir, scn, "interfere",
        {"tone_frequency_hz": scn.interfere.tone_frequency,
         "tone_db_rel_shot": scn.interfere.tone_db_rel_shot},
    )
    spectrum.write_traces_csv(csv_path, [coherent_psd, squeezed_psd])
    print(f"wrote coherent and squeezed reference PSDs -> {csv_path}")
    return csv_path


def run_trace(scn: Scenario, out_dir: Path, args) -> Path:
    op = scn.operating_point()
    grid = spectrum.default_frequency_grid()
    target = spectrum.detected_spectrum(op, scn.chain, grid, TraceLabel.SQUEEZED_QUADRATURE)
    psd = tracesim.averaged_psd(scn.trace, target, None, TraceLabel.SQUEEZED_QUADRATURE)
    csv_path = write_metadata(out_dir, scn, "trace")
    spectrum.write_traces_csv(csv_path, [psd, target])
    print(f"wrote estimated and analytic spectra -> {csv_path}")
    return csv_path


def run_capacity(scn: Scenario, out_dir: Path, args) -> Path:
    cap = scn.capacity
    grid = capacity_mod.default_nbar_grid(cap.nbar_min, cap.nbar_max, cap.points)
    curves = capacity_mod.curve_suite(grid, cap.squeeze_r)
    csv_path = write_metadata(out_dir, scn, "capacity", {"squeeze_r": cap.squeeze_r})
    capacity_mod.write_curves_csv(csv_path, curves)
    print(f"wrote {len(curves)} capacity curves -> {csv_path}")
    return csv_path


_RUNNERS = {
    "cavity": run_cavity,
    "spectrum": run_spectrum,
    "correct": run_correct,
    "interfere": run_interfere,
    "trace": run_trace,
    "capacity": run_capacity,
}


def _common_options(after_subcommand: bool) -> argparse.ArgumentParser:
    """--config, --out and --set, accepted before and after the subcommand.

    After the subcommand they default to SUPPRESS, so an option given only
    before it is not overwritten; --set after it is collected separately and
    applied after the --set given before it.
    """
    def default(value):
        return argparse.SUPPRESS if after_subcommand else value

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=default(None),
                        help="scenario file (default: built-in preset)")
    common.add_argument("--out", type=Path, default=default(Path(".")), help="output directory")
    common.add_argument(
        "--set", action="append", default=default([]), metavar="KEY=VALUE",
        dest="set_after" if after_subcommand else "set",
        help="override a scenario key, e.g. --set trace.seed=7",
    )
    return common


def finite_db(text: str) -> float:
    """A finite dB value whose power ratio is finite too (an argparse type)."""
    value = scenario.finite_float(text)
    gaussian.db_to_ratio(value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Bright phase-squeezed beam simulation and analysis toolkit",
        parents=[_common_options(after_subcommand=False)],
    )
    parser.set_defaults(set_after=[])
    common = _common_options(after_subcommand=True)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("cavity", "spectrum", "interfere", "trace", "capacity"):
        sub.add_parser(name, parents=[common])
    p_correct = sub.add_parser("correct", parents=[common])
    p_correct.add_argument("--observed-db", type=finite_db, required=True)
    p_correct.add_argument("--power-ratio", type=scenario.finite_float, default=None,
                           help="P_OPA/P_LO (default: from scenario)")
    p_correct.add_argument("--mode", choices=["blocked", "equal-power"], default="blocked")
    return parser


def resolve_scenario(args) -> Scenario:
    """Preset or --config scenario with the --set overrides applied, in order."""
    scn = scenario.load(args.config) if args.config is not None else scenario.paper_preset()
    flat = scenario.to_flat(scn)
    for pair in args.set + args.set_after:
        key, _, value = pair.partition("=")  # no `=`: the empty value is refused
        flat[key.strip()] = value
    return scenario.from_flat(flat)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = resolve_scenario(args)
        args.out.mkdir(parents=True, exist_ok=True)
    except (ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[args.subcommand](scn, args.out, args)
    except (ScenarioError, ValueError) as exc:
        # value errors after validation are runtime numeric failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
