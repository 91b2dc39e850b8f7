"""Workload definitions: the CLI arguments each op sends, and the check of its outputs.

An op is one in-process ``squeezelab.cli.main(argv)`` call.  The benchmark
hands the program only the generated arguments; every expected value a check
compares against is computed here from closed forms and from the resolved
scenario the op itself wrote into its ``.meta`` sidecar.

Three known defects are worked around here, not fixed:

* ``--out DIR`` given before the subcommand is ignored (the subparser's
  default ``.`` wins), so ``--out`` always follows the subcommand and each
  check asserts the outputs landed in the op's own directory.
* ``spectrum.read_traces_csv`` cannot read a ``trace`` CSV, whose estimate
  and target share one label, so ``read_blocks`` splits rows where the
  frequency column resets.
* ``correct`` writes ``corrected_db`` as ``np.float64(<value>)`` (the repr
  of a numpy scalar under numpy 2), not as a number.  ``check_correct``
  unwraps it, checks the value, and reports each such op as
  ``Outcome.defect`` so every run prints how many ops showed it.
"""
from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probe

SPEED_OF_LIGHT = 299792458.0

# Analysis band of the PSD checks and of psd_err_db.
BAND_HZ = (3e6, 20e6)
# Analytic grid of spectrum and of the trace target: 1-25 MHz in 30 kHz steps.
ANALYTIC_GRID = np.arange(1e6, 25e6 + 15e3, 30e3)

# trace-paper: tolerance on max |PSD - (target + electronic floor)| over the
# band.  The worst case over seeds 0..24 is 0.15-0.22 dB (std 0.018 dB).
TRACE_TOL_DB = 0.3

# interfere-single-segment (10 sweeps x one RBW segment).  Over 600 seeds the
# band-mean floor of each trace has a std of 0.066 dB about its expectation,
# so 0.5 dB is 7.5 sigma.  The tone peak sits 2.47 dB above the squeezed
# floor with a std of 0.89 dB per op: one op only has to show it above
# floor - 5 sigma, and the run's median excess must lie within
# 5 sigma_median of 2.47 dB, which an estimate without the tone (about
# +1 dB) misses.
FLOOR_TOL_DB = 0.5
TONE_EXCESS_DB = 2.47
TONE_EXCESS_STD_DB = 0.89
TONE_BINS = 3  # bins either side of the tone excluded from floors and psd_err_db


@dataclass
class Op:
    kind: str
    argv_tail: list[str]  # arguments after "<subcommand> --out DIR"
    expect_exit: int = 0
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    psd_err_db: float | None = None
    tone_excess_db: float | None = None
    defect: str | None = None  # a known open defect the check worked around


# --------------------------------------------------------------------------
# output readers


def read_meta(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_blocks(path: Path) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Trace CSV as (label, frequencies, values_db) blocks, split where the
    frequency stops increasing (labels may repeat across blocks)."""
    header, rows = read_rows(path)
    if header != ["frequency_hz", "value_db", "label"]:
        raise ValueError(f"unexpected header {header}")
    freqs = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    labels = [r[2] for r in rows]
    cuts = [0] + [i + 1 for i in np.flatnonzero(np.diff(freqs) <= 0)] + [len(rows)]
    blocks = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if len(set(labels[a:b])) != 1:
            raise ValueError(f"mixed labels in rows {a}..{b}")
        blocks.append((labels[a], freqs[a:b], vals[a:b]))
    return blocks


def outputs(op_dir: Path, stem: str) -> tuple[Path, dict[str, str]]:
    """The single CSV + .meta pair the op wrote into its own directory."""
    csvs = sorted(op_dir.glob(f"{stem}-*.csv"))
    metas = sorted(op_dir.glob(f"{stem}-*.meta"))
    names = sorted(p.name for p in op_dir.iterdir())
    if len(csvs) != 1 or len(metas) != 1 or len(names) != 2:
        raise ValueError(f"expected one {stem} CSV and .meta in the op directory, found {names}")
    if csvs[0].stem != metas[0].stem:
        raise ValueError(f"CSV and .meta stems differ: {names}")
    meta = read_meta(metas[0])
    if meta.get("subcommand") != stem:
        raise ValueError(f".meta names subcommand {meta.get('subcommand')!r}")
    return csvs[0], meta


def fnum(meta: dict[str, str], key: str) -> float:
    return float(meta[key])


# --------------------------------------------------------------------------
# closed forms


def total_efficiency(meta) -> float:
    return (fnum(meta, "chain.escape_efficiency") * fnum(meta, "chain.quantum_efficiency")
            * fnum(meta, "chain.homodyne_contrast") ** 2 * fnum(meta, "chain.propagation_efficiency"))


def cavity_figures(meta) -> dict[str, float]:
    L, lc = fnum(meta, "cavity.geometric_length"), fnum(meta, "cavity.crystal_length")
    n = fnum(meta, "cavity.crystal_index")
    r1, r2 = fnum(meta, "cavity.mirror_R1"), fnum(meta, "cavity.mirror_R2")
    loss = fnum(meta, "cavity.intracavity_loss")
    fsr = SPEED_OF_LIGHT / (2.0 * ((L - lc) + n * lc))
    fin = math.pi * (r1 * r2) ** 0.25 / (1.0 - math.sqrt(r1 * r2))
    t1 = 1.0 - r1
    return {
        "free_spectral_range_hz": fsr,
        "finesse": fin,
        "fwhm_hz": fsr / fin,
        "threshold_power_w": (t1 + loss) ** 2 / (4.0 * fnum(meta, "cavity.shg_efficiency")),
        "escape_efficiency": t1 / (t1 + loss),
    }


def detected_db(meta, freqs: np.ndarray, angle: float) -> np.ndarray:
    """Lossy, jitter-rotated OPA quadrature variance in dB; angle 0 reads the
    squeezed quadrature, pi/2 the antisqueezed one."""
    x = math.sqrt(fnum(meta, "opa.pump_power") / fnum(meta, "opa.threshold_power"))
    w2 = (freqs / (cavity_figures(meta)["fwhm_hz"] / 2.0)) ** 2
    eta = total_efficiency(meta)
    v_sq = eta * (1.0 - 4.0 * x / ((1.0 + x) ** 2 + w2)) + 1.0 - eta
    v_anti = eta * (1.0 + 4.0 * x / ((1.0 - x) ** 2 + w2)) + 1.0 - eta
    s2 = math.sin(angle) ** 2
    return 10.0 * np.log10(v_sq * (1.0 - s2) + v_anti * s2)


def floor_ratio(meta) -> float:
    value = meta["trace.electronic_floor_db"]
    return 0.0 if value == "none" else 10.0 ** (float(value) / 10.0)


def close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= abs_ + rel * np.abs(b)))


def band_mask(freqs: np.ndarray) -> np.ndarray:
    return (freqs >= BAND_HZ[0]) & (freqs <= BAND_HZ[1])


# --------------------------------------------------------------------------
# checks, one per subcommand


def check_trace(op_dir: Path, op: Op) -> Outcome:
    path, meta = outputs(op_dir, "trace")
    if int(meta["trace.seed"]) != op.params["seed"]:
        return Outcome(False, "meta seed differs from the requested one")
    blocks = read_blocks(path)
    if [b[0] for b in blocks] != ["squeezed_quadrature", "squeezed_quadrature"]:
        return Outcome(False, f"expected estimate + target blocks, got {[b[0] for b in blocks]}")
    (_, f_est, v_est), (_, f_tgt, v_tgt) = blocks
    if f_tgt.size != ANALYTIC_GRID.size or not close(f_tgt, ANALYTIC_GRID):
        return Outcome(False, f"target grid has {f_tgt.size} points, expected {ANALYTIC_GRID.size}")
    if not close(v_tgt, detected_db(meta, f_tgt, fnum(meta, "chain.phase_jitter_rms"))):
        return Outcome(False, "analytic target differs from the closed form")
    band = band_mask(f_est)
    # the CSV target omits the electronic floor; the estimate includes it
    expected = 10.0 * np.log10(np.interp(f_est[band], f_tgt, 10.0 ** (v_tgt / 10.0)) + floor_ratio(meta))
    err = float(np.max(np.abs(v_est[band] - expected)))
    if not err <= TRACE_TOL_DB:
        return Outcome(False, f"PSD off target by {err:.3f} dB > {TRACE_TOL_DB} dB", err)
    return Outcome(True, psd_err_db=err)


def check_interfere(op_dir: Path, op: Op) -> Outcome:
    path, meta = outputs(op_dir, "interfere")
    if int(meta["trace.seed"]) != op.params["seed"]:
        return Outcome(False, "meta seed differs from the requested one")
    blocks = read_blocks(path)
    if [b[0] for b in blocks] != ["shot_noise", "squeezed_quadrature"]:
        return Outcome(False, f"expected coherent + squeezed blocks, got {[b[0] for b in blocks]}")
    (_, f, v_coh), (_, f_sq, v_sq) = blocks
    if not np.array_equal(f, f_sq):
        return Outcome(False, "coherent and squeezed PSDs are on different grids")
    tone_f = fnum(meta, "interfere.tone_frequency")
    near = np.abs(f - tone_f) <= TONE_BINS * (f[1] - f[0])
    floor_bins = band_mask(f) & ~near
    el = floor_ratio(meta)
    exp_coh = 10.0 * math.log10(1.0 + el)
    exp_sq = 10.0 * math.log10(10.0 ** (fnum(meta, "interfere.squeezed_floor_db") / 10.0) + el)
    r_coh, r_sq = 10.0 ** (v_coh / 10.0), 10.0 ** (v_sq / 10.0)
    floor_coh = 10.0 * math.log10(np.mean(r_coh[floor_bins]))
    floor_sq = 10.0 * math.log10(np.mean(r_sq[floor_bins]))
    err = float(max(np.max(np.abs(v_coh[floor_bins] - exp_coh)), np.max(np.abs(v_sq[floor_bins] - exp_sq))))
    excess = 10.0 * math.log10(np.max(r_sq[near])) - floor_sq
    if abs(floor_coh - exp_coh) > FLOOR_TOL_DB:
        return Outcome(False, f"coherent floor {floor_coh:.3f} dB, expected {exp_coh:.3f}", err)
    if abs(floor_sq - exp_sq) > FLOOR_TOL_DB:
        return Outcome(False, f"squeezed floor {floor_sq:.3f} dB, expected {exp_sq:.3f}", err)
    if excess < TONE_EXCESS_DB - 5.0 * TONE_EXCESS_STD_DB:
        return Outcome(False, f"tone peak {excess:.2f} dB above the squeezed floor", err)
    return Outcome(True, psd_err_db=err, tone_excess_db=excess)


def check_spectrum(op_dir: Path, op: Op) -> Outcome:
    path, meta = outputs(op_dir, "spectrum")
    blocks = read_blocks(path)
    labels = [b[0] for b in blocks]
    want = ["squeezed_quadrature", "antisqueezed_quadrature", "shot_noise"]
    if floor_ratio(meta):
        want.append("electronic_noise")
    if labels != want:
        return Outcome(False, f"labels {labels}, expected {want}")
    grid = ANALYTIC_GRID
    if any(b[1].size != grid.size or not close(b[1], grid) for b in blocks):
        return Outcome(False, f"each trace should have {grid.size} grid points")
    jitter = fnum(meta, "chain.phase_jitter_rms")
    if jitter != op.params["jitter"] or fnum(meta, "opa.pump_power") != op.params["pump"]:
        return Outcome(False, "meta scenario differs from the requested overrides")
    if not close(blocks[0][2], detected_db(meta, grid, jitter)):
        return Outcome(False, "squeezed spectrum differs from the closed form")
    if not close(blocks[1][2], detected_db(meta, grid, math.pi / 2 - jitter)):
        return Outcome(False, "antisqueezed spectrum differs from the closed form")
    if np.any(blocks[2][2] != 0.0):
        return Outcome(False, "shot-noise trace is not 0 dB")
    if len(blocks) == 4 and np.any(blocks[3][2] != float(meta["trace.electronic_floor_db"])):
        return Outcome(False, "electronic-noise trace is not at the configured floor")
    return Outcome(True)


def check_capacity(op_dir: Path, op: Op) -> Outcome:
    path, meta = outputs(op_dir, "capacity")
    header, rows = read_rows(path)
    points, r = op.params["points"], op.params["r"]
    if header != ["nbar", "capacity_bits", "bound_kind"] or len(rows) != 4 * points:
        return Outcome(False, f"{len(rows)} rows, expected {4 * points}")
    if fnum(meta, "squeeze_r") != r:
        return Outcome(False, "meta squeeze_r differs from the requested one")
    n = np.geomspace(fnum(meta, "capacity.nbar_min"), fnum(meta, "capacity.nbar_max"), points)
    budget = n - math.sinh(r) ** 2
    expected = {
        "coherent": 0.5 * np.log2(1.0 + 4.0 * n),
        "coherent_with_squeezed_detection": 0.5 * np.log2(1.0 + 4.0 * math.exp(2.0 * r) * n),
        "squeezed_encoding": np.where(
            budget > 0.0, 0.5 * np.log2(1.0 + 4.0 * math.exp(2.0 * r) * np.maximum(budget, 0.0)), np.nan),
        "holevo": (1.0 + n) * np.log2(1.0 + n) - n * np.log2(n),
    }
    for k, (kind, want) in enumerate(expected.items()):
        block = rows[k * points:(k + 1) * points]
        if any(row[2] != kind for row in block):
            return Outcome(False, f"rows {k * points}.. are not all {kind}")
        got = np.array([float(row[1]) if row[1] else np.nan for row in block])
        nbar = np.array([float(row[0]) for row in block])
        if not close(nbar, n) or not np.array_equal(np.isnan(got), np.isnan(want)):
            return Outcome(False, f"{kind}: grid or domain gap differs")
        ok = ~np.isnan(want)
        if not close(got[ok], want[ok]):
            return Outcome(False, f"{kind}: values differ from the closed form")
    return Outcome(True)


def check_cavity(op_dir: Path, op: Op) -> Outcome:
    path, meta = outputs(op_dir, "cavity")
    header, rows = read_rows(path)
    want = cavity_figures(meta)
    if header != ["quantity", "value"] or [r[0] for r in rows] != list(want):
        return Outcome(False, f"rows {[r[0] for r in rows]}, expected {list(want)}")
    if not close([float(r[1]) for r in rows], list(want.values())):
        return Outcome(False, "cavity figures differ from the closed forms")
    return Outcome(True)


NUMPY_SCALAR_REPR = re.compile(r"np\.float64\((.+)\)")


def check_correct(op_dir: Path, op: Op) -> Outcome:
    path, meta = outputs(op_dir, "correct")
    header, rows = read_rows(path)
    if header != ["observed_db", "power_ratio", "mode", "corrected_db"] or len(rows) != 1:
        return Outcome(False, f"expected one result row, got {len(rows)}")
    observed, mode = op.params["observed_db"], op.params["mode"]
    p = fnum(meta, "homodyne.opa_power") / fnum(meta, "homodyne.lo_power")
    obs = 10.0 ** (observed / 10.0)
    corrected = obs - p if mode == "blocked" else obs * (1.0 + p) - p
    row = rows[0]
    if float(row[0]) != observed or row[2] != mode or not close(float(row[1]), p):
        return Outcome(False, f"echoed inputs differ: {row[:3]}")
    wrapped = NUMPY_SCALAR_REPR.fullmatch(row[3])
    if not close(float(wrapped.group(1) if wrapped else row[3]), 10.0 * math.log10(corrected)):
        return Outcome(False, "corrected dB differs from the closed form")
    return Outcome(True, defect="correct CSV writes corrected_db as np.float64(...)" if wrapped else None)


def check_rejected(op_dir: Path, stderr: str) -> Outcome:
    """Out-of-range config: exit 2 (checked by the caller), a message naming
    the field, and no output."""
    if "opa.pump_power" not in stderr:
        return Outcome(False, f"error message does not name opa.pump_power: {stderr!r}")
    if any(op_dir.iterdir()):
        return Outcome(False, "a rejected config wrote output")
    return Outcome(True)


CHECKS = {
    "trace": check_trace,
    "interfere": check_interfere,
    "spectrum": check_spectrum,
    "capacity": check_capacity,
    "cavity": check_cavity,
    "correct": check_correct,
}


def check(op_dir: Path, op: Op, exit_code: int, stderr: str) -> Outcome:
    if exit_code != op.expect_exit:
        return Outcome(False, f"exit {exit_code}, expected {op.expect_exit}: {stderr.strip()[-200:]}")
    if op.expect_exit == 2:
        return check_rejected(op_dir, stderr)
    try:
        return CHECKS[op.kind](op_dir, op)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return Outcome(False, f"unreadable output: {exc}")


# --------------------------------------------------------------------------
# op generators: the same seed gives the same op sequence


def _seeded_op(kind: str, tail: list[str], rng: random.Random) -> Op:
    seed = rng.randrange(2**31)
    return Op(kind, tail + ["--set", f"trace.seed={seed}"], params={"seed": seed})


def trace_paper_ops(rng: random.Random):
    while True:
        yield _seeded_op("trace", [], rng)


def interfere_single_segment_ops(rng: random.Random):
    # one RBW-length segment (1.5 fs / rbw = 5000 samples) per sweep, 10 sweeps
    tail = ["--set", "trace.duration=5e-05", "--set", "trace.sweeps=10"]
    while True:
        yield _seeded_op("interfere", tail, rng)


# cavity and correct take about 2.5 ms, capacity 5-12 ms and spectrum 30 ms.
# With each kind once per cycle, the fast kinds plus the rejections make up
# 55 % of ops, which puts the median latency at the edge of the fast cluster,
# where a few slow ops move it by 20 % between runs; twice per cycle they
# make up 70 %, and the median sits inside the cluster.
ANALYTIC_KINDS = ("spectrum", "cavity", "correct", "capacity", "cavity", "correct")
# Every REJECT_EVERY-th analytic op pumps at or above threshold.  A fixed
# share keeps the mix of cheap and costly ops, and so the median latency,
# the same for every seed.
REJECT_EVERY = 10
THRESHOLD_W = 0.145  # preset opa.threshold_power


def analytic_scan_ops(rng: random.Random):
    i = 0
    while True:
        kind = ANALYTIC_KINDS[i % len(ANALYTIC_KINDS)]
        i += 1
        rejected = i % REJECT_EVERY == 0
        pump = round(rng.uniform(1.0, 1.4) * THRESHOLD_W if rejected else rng.uniform(0.01, 0.14), 6)
        jitter = round(rng.uniform(0.0, 0.05), 6)
        tail = ["--set", f"opa.pump_power={pump!r}", "--set", f"chain.phase_jitter_rms={jitter!r}"]
        params = {"pump": pump, "jitter": jitter}
        if kind == "capacity":
            params["r"] = round(rng.uniform(0.0, 1.2), 6)
            params["points"] = rng.randint(50, 400)
            tail += ["--set", f"capacity.squeeze_r={params['r']!r}",
                     "--set", f"capacity.points={params['points']}"]
        elif kind == "correct":
            params["observed_db"] = round(rng.uniform(-6.0, -0.5), 4)
            params["mode"] = rng.choice(("blocked", "equal-power"))
            tail += [f"--observed-db={params['observed_db']!r}", "--mode", params["mode"]]
        yield Op(kind, tail, expect_exit=2 if rejected else 0, params=params)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: object  # rng -> iterator of Op
    warmup: int  # untimed ops before measuring
    probe: tuple  # host-speed kernels of probe.py timed between ops ...
    probe_every_s: float  # ... after this much op time (0: after every op)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trace-paper",
            "trace on the paper preset: 100 sweeps of 105k samples, where nearly all time is "
            "bulk FFT, RNG and Welch in tracesim",
            trace_paper_ops, 1, (probe.fft_large,), 0.4,
        ),
        Workload(
            "interfere-single-segment",
            "interfere with one RBW segment and 10 sweeps per op: tracesim per-sweep fixed "
            "overheads dominate, not FFT throughput",
            interfere_single_segment_ops, 1, (probe.fft_small, probe.python), 0.4,
        ),
        Workload(
            "analytic-scan",
            "spectrum, capacity, cavity and correct over seeded scenarios, 1 in 10 rejected: "
            "physics, config and CSV layers, no tracesim",
            analytic_scan_ops, len(ANALYTIC_KINDS), (probe.python_short,), 0.0,
        ),
    )
}
