"""Command-line front end.

Subcommands:
  cavity     resonator report (FSR, finesse, FWHM, threshold, escape efficiency)
  spectrum   analytic detected squeezing spectrum
  correct    bright-beam shot-noise corrections of an observed dB value, at the
             scenario's power ratio homodyne.opa_power / homodyne.lo_power
  interfere  tone PSDs under a coherent and a squeezed floor (to the 20 MHz band edge)
  trace      PSD of a synthesized photocurrent trace against the analytic target
  capacity   channel-capacity curves versus mean photon number

Each option may come before or after the subcommand; --observed-db (required)
and --mode go only with correct.  The --config lines and then the --set pairs,
in command-line order, form one overlay on the preset that scenario.from_flat
checks once; a refusal names the dotted keys it concerns, and run_correct names
its flags.

A runner only computes, returning (CSV writer, its arguments after the path,
report, `.meta` extras), and runs before --out is made, so a refusal or a
numeric failure leaves nothing behind; write_outputs then writes the CSV, then
a `.meta` sidecar with the resolved scenario, seed and RNG algorithm, so any
result is reproducible from its own metadata.
Exit codes: 0 success, 1 runtime numeric or write failure, 2 configuration error
(an unwritable --out is one too, found after the compute).

The argument parser is built once per process, on first use, since building
costs several times what parsing does; build_parser returns a shallow copy,
so an attribute set on it (a tracer wrapping parse_known_args) does not stack
up over later calls.  Parsing writes nothing to the shared parser: --set
appends to a copy of its default list.
"""
from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import sys
from pathlib import Path

from . import capacity as capacity_mod
from . import cavity as cavity_mod
from . import gaussian, homodyne, scenario, spectrum, tracesim
from .scenario import PRESET_ASSUMPTIONS, Scenario, ScenarioError
from .spectrum import TraceLabel


def write_metadata(path: Path, record: str) -> None:
    """Write the `.meta` sidecar: the run's record (its own function, so a tracer can time it)."""
    path.write_text(record)


def write_outputs(out_dir: Path, scn: Scenario, subcommand: str, write_csv, csv_args, extra) -> Path:
    """Write the run's CSV, then its `.meta` sidecar; return the CSV path.

    Both files are named by a hash of the whole record, so runs that differ
    in any recorded input (scenario or subcommand option) never share a name,
    and equal runs always do.  If a write fails, the files this run created
    are removed, so neither file is left without the other.
    """
    lines = [f"subcommand = {subcommand}", f"rng.algorithm = {tracesim.RNG_ALGORITHM}"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    lines.append(f"assumptions = {','.join(PRESET_ASSUMPTIONS)}")
    record = "\n".join(lines) + "\n" + scenario.serialize(scn)
    stem = f"{subcommand}-{hashlib.sha256(record.encode()).hexdigest()[:12]}"
    csv_path, meta_path = out_dir / f"{stem}.csv", out_dir / f"{stem}.meta"
    created = [path for path in (csv_path, meta_path) if not path.exists()]
    try:
        write_csv(csv_path, *csv_args)
        write_metadata(meta_path, record)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise
    return csv_path


def run_cavity(scn: Scenario, args):
    c = scn.cavity
    rows = [
        ("free_spectral_range_hz", cavity_mod.free_spectral_range(c)),
        ("finesse", cavity_mod.finesse(c)),
        ("fwhm_hz", cavity_mod.fwhm(c)),
        ("threshold_power_w", cavity_mod.threshold_power(c)),
        ("escape_efficiency", cavity_mod.escape_efficiency(c)),
    ]
    report = "\n".join(f"{name} = {value:.6g}" for name, value in rows)
    names, values = zip(*rows)
    return spectrum.write_csv, (("quantity", "value"), [(names, values)]), report, {}


def run_spectrum(scn: Scenario, args):
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
    report = f"wrote {len(traces)} traces, {grid.size} points each"
    return spectrum.write_traces_csv, (traces,), report, {}


def run_correct(scn: Scenario, args):
    power_ratio = scn.homodyne.power_ratio
    mode = args.mode or "blocked"
    correct = (homodyne.correct_blocked_shot_noise if mode == "blocked"
               else homodyne.correct_equal_power_shot_noise)
    try:
        corrected_db = float(gaussian.ratio_to_db(correct(gaussian.db_to_ratio(args.observed_db), power_ratio)))
    except ValueError as exc:
        raise ScenarioError(f"--observed-db {args.observed_db} is uncorrectable at p = homodyne.opa_power / "
                            f"homodyne.lo_power = {power_ratio:g}: {exc}") from None
    header = ("observed_db", "power_ratio", "mode", "corrected_db")
    columns = ([args.observed_db], [power_ratio], [mode], [corrected_db])
    report = f"corrected squeezing: {corrected_db:.2f} dB"
    return spectrum.write_csv, (header, [columns]), report, {"observed_db": args.observed_db, "mode": mode}


def run_interfere(scn: Scenario, args):
    cfg = scn.trace
    icfg = scn.interfere
    # ratio_at holds the one point's floor below the band's top and is shot noise above it
    squeezed_target = spectrum.flat_trace(
        icfg.squeezed_floor_db, [spectrum.SQUEEZING_BAND_STOP], TraceLabel.SQUEEZED_QUADRATURE
    )
    tone = (icfg.tone_frequency, tracesim.tone_amplitude_for_db(icfg.tone_db_rel_shot, cfg))
    # one sweep loop for both references: each sweep's noise is drawn once
    references = [(None, TraceLabel.SHOT_NOISE), (squeezed_target, TraceLabel.SQUEEZED_QUADRATURE)]
    try:
        cfg.check_run(len(references))
    except ValueError as exc:
        raise ScenarioError(f"trace.sweeps: {exc}") from None
    psds = tracesim.averaged_psd(cfg, references, tone)
    report = "wrote coherent and squeezed reference PSDs"
    return spectrum.write_traces_csv, (psds,), report, {}


def run_trace(scn: Scenario, args):
    op = scn.operating_point()
    grid = spectrum.default_frequency_grid()
    target = spectrum.detected_spectrum(op, scn.chain, grid, TraceLabel.SQUEEZED_QUADRATURE)
    psd = tracesim.averaged_psd(scn.trace, target, None, TraceLabel.SQUEEZED_QUADRATURE)
    return spectrum.write_traces_csv, ([psd, target],), "wrote estimated and analytic spectra", {}


def run_capacity(scn: Scenario, args):
    cap = scn.capacity
    grid = capacity_mod.default_nbar_grid(cap.nbar_min, cap.nbar_max, cap.points)
    curves = capacity_mod.curve_suite(grid, cap.squeeze_r)
    report = f"wrote {len(curves)} capacity curves"
    return capacity_mod.write_curves_csv, (curves,), report, {"squeeze_r": cap.squeeze_r}


_RUNNERS = {
    "cavity": run_cavity,
    "spectrum": run_spectrum,
    "correct": run_correct,
    "interfere": run_interfere,
    "trace": run_trace,
    "capacity": run_capacity,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Bright phase-squeezed beam simulation and analysis toolkit",
    )
    parser.add_argument("subcommand", choices=_RUNNERS)
    parser.add_argument("--config", type=Path, help="scenario file (default: built-in preset)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a scenario key, e.g. --set trace.seed=7")
    parser.add_argument("--observed-db", type=scenario.finite_float, help="correct: observed squeezing in dB")
    parser.add_argument("--mode", choices=["blocked", "equal-power"],
                        help="correct: shot-noise reference (default: blocked)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser on each call, copied from the one built per process."""
    return copy.copy(_shared_parser())


def resolve_scenario(args) -> Scenario:
    """The preset overlaid with the --config lines, then the --set pairs in order, checked once."""
    return scenario.parse(args.config.read_text() if args.config is not None else "", args.set)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    correct = args.subcommand == "correct"
    if correct != (args.observed_db is not None) or (args.mode is not None and not correct):
        parser.error("correct requires --observed-db" if correct
                     else "--observed-db and --mode go only with the correct subcommand")
    try:
        scn = resolve_scenario(args)
        write_csv, csv_args, report, extra = _RUNNERS[args.subcommand](scn, args)
        args.out.mkdir(parents=True, exist_ok=True)
    except (ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # only --config is read as text
        print(f"configuration error: {args.config}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # after validation, a numeric failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        csv_path = write_outputs(args.out, scn, args.subcommand, write_csv, csv_args, extra)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{report} -> {csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
