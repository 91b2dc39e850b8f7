"""squeezelab benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload trace-paper --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is imported from
``./src``.  An op is one in-process ``squeezelab.cli.main(argv)`` call with
arguments generated from ``--seed`` (see ``workloads.py``).  The loop is
closed with one client: each op starts after the previous one returned and
its outputs were checked.  Ops are timed after untimed warm-up ops, and the
run measures until the ops themselves have taken ``--seconds``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters importing ``squeezelab.cli`` and building the paper preset),
ops per second of op time, median op latency and peak RSS.  Every timing in
the result line is a busy time (``probe.busy_time``: wall time less the time
the host took the vCPU away) scaled to nominal host speed: a fixed kernel of
``probe.py`` is timed right before and right after an op whenever 0.4 s of
op time have passed since the last probed op (around every op on
analytic-scan), and each op's busy time is divided by the host's slowness
interpolated at the op's time (set-up starts time the Python probe in the
child right before and right after the import).  The shared host's speed
flips between levels up to 2x apart, often within a second, so raw times of
the same code spread past any useful bound; the raw figures and the measured
slowness are printed next to the scaled ones.  ``--trace 1`` measures half
the time untraced and half with spans attached to the layers
(``tracer.py``) and reports the per-layer metrics, per traced op, together
with the tracing overhead and the import-time breakdown from
``python -X importtime``.  Both also print ``failed_ratio``, ``psd_err_db``
(median over ops of the worst PSD deviation from its analytic expectation,
on the tracesim workloads) and ``op_s.p90`` where at least ten samples lie
beyond it; these are not in the result line, because they are zero or
undefined on some workloads.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run (machine, seed, workload, failures and, when traced, every
span) is written to ``.bench_out/``.  Cache sizes are read from
``/sys/devices/system/cpu``; nothing else outside the checkout is touched.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import probe
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 5
IMPORTTIME_STARTS = 3
CHILD_TIMEOUT_S = 60

# Prints the set-up wall and CPU time, the mean host slowness just before and
# just after it, and where the CLI was imported from.  Besides ``probe`` itself only csv
# is imported ahead of the timed part; the bench directory leaves sys.path
# again so it does not slow the program's imports.
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import probe; del sys.path[0]; "
    "before = probe.median_slowness((probe.python,)); "
    "t, c = time.perf_counter(), time.process_time(); "
    "import squeezelab.cli as cli, squeezelab.scenario as scenario; scenario.paper_preset(); "
    "t, c = time.perf_counter() - t, time.process_time() - c; "
    "after = probe.median_slowness((probe.python,)); "
    "print(t, c, (before + after) / 2, cli.__file__, sep='\\n')"
)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_seconds() -> list[tuple[float, float, float]]:
    """Fresh-process import of the CLI plus the paper preset, one per start,
    as (wall seconds, CPU seconds, host slowness)."""
    starts = []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(BENCH)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 4 or not under_src(lines[3]):
            raise RuntimeError(f"set-up start failed: {proc.stderr.strip()[-300:]}")
        starts.append(tuple(float(v) for v in lines[:3]))
    return starts


def import_breakdown() -> dict[str, float]:
    """Median over fresh starts of the self import time of each top-level package."""
    runs: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import squeezelab.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import start failed: {proc.stderr.strip()[-300:]}")
        totals: Counter = Counter()
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                totals[parts[2].strip().split(".")[0]] += int(parts[0]) * 1e-6
        for pkg in ("numpy", "scipy", "squeezelab"):
            runs.setdefault(pkg, []).append(totals[pkg])
    return {pkg: statistics.median(v) for pkg, v in runs.items()}


def machine_info() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Loop:
    """Closed-loop op runner: runs, times and checks ops from one iterator."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        from squeezelab import cli

        self.main = cli.main
        self.ops = workload.ops(random.Random(seed))
        self.probe = workload.probe
        self.probe_every_s = workload.probe_every_s
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.psd_err_db: list[float] = []
        self.tone_excess_db: list[float] = []
        self.defects: Counter = Counter()
        self.bytes_written = 0

    def one(self, tracer=None, probes=None) -> tuple[float, float, float]:
        """Run, time and check one op; with a ``probes`` list, probe the host
        right before the op and right after it, ahead of the check."""
        op = next(self.ops)
        op_dir = self.work / f"op-{self.attempted}"
        op_dir.mkdir(parents=True)
        argv = [op.kind, "--out", str(op_dir.relative_to(ROOT))] + op.argv_tail
        err = io.StringIO()
        if probes is not None:
            probes.append(self.probe_now())
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.begin_op(self.attempted)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed op, not a failed run
                code = f"raised {exc!r}"
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.end_op()
        if probes is not None:
            probes.append(self.probe_now())
        self.attempted += 1
        self.bytes_written += sum(p.stat().st_size for p in op_dir.iterdir())
        outcome = workloads.check(op_dir, op, code, err.getvalue())
        shutil.rmtree(op_dir)
        if not outcome.ok:
            self.failed += 1
            self.failures.append(f"op {self.attempted - 1} {' '.join(argv)}: {outcome.reason}")
        if outcome.psd_err_db is not None:
            self.psd_err_db.append(outcome.psd_err_db)
        if outcome.tone_excess_db is not None:
            self.tone_excess_db.append(outcome.tone_excess_db)
        if outcome.defect is not None:
            self.defects[outcome.defect] += 1
        return t0, t1 - t0, c1 - c0

    def probe_now(self) -> tuple[float, float]:
        """(mid time, host slowness) of one probe."""
        t0 = time.perf_counter()
        slow = probe.slowness(self.probe)
        return (t0 + time.perf_counter()) / 2, slow

    def measure(self, seconds: float, tracer=None) -> dict:
        """Time ops until they have taken ``seconds``; checks and probes are
        not timed.  ``scaled`` holds each op's busy time (``probe.busy_time``)
        at nominal host speed."""
        lat, busy, mid, probes, cpu = [], [], [], [], 0.0
        since_probe = self.probe_every_s  # the first op is probed
        deadline = time.perf_counter() + seconds + 60.0  # bounds time spent checking
        bytes0 = self.bytes_written
        while sum(lat) < seconds and time.perf_counter() < deadline:
            probed = since_probe >= self.probe_every_s
            t0, wall, c = self.one(tracer, probes if probed else None)
            lat.append(wall)
            busy.append(probe.busy_time(wall, c))
            mid.append(t0 + wall / 2)
            cpu += c
            since_probe = 0.0 if probed else since_probe + wall
        if since_probe:
            probes.append(self.probe_now())
        at, slow = zip(*probes)
        scaled = list(np.array(busy) / np.interp(mid, at, slow))
        return {"lat": lat, "scaled": scaled, "busy": sum(lat), "scaled_busy": sum(scaled),
                "cpu": cpu, "bytes": self.bytes_written - bytes0, "slowness": list(slow)}


def layer_metrics(tracer, traced: dict, untraced: dict, imports: dict) -> dict:
    from tracer import summarize

    s = summarize(tracer.spans)
    n = len(traced["lat"])
    inc, own, counts = s["inclusive_s"], s["self_s"], tracer.counts

    def per_op(v):
        return v / n

    synthesized = counts["tracesim.synthesized_samples"]
    return {
        "tracesim.psd_s": (per_op(inc.get("tracesim.psd", 0.0)), "s/op"),
        "tracesim.sweeps": (per_op(counts["tracesim.sweeps"]), "count/op"),
        "tracesim.synth_s": (per_op(own.get("tracesim.synth", 0.0)), "s/op"),
        "tracesim.rng_s": (per_op(inc.get("tracesim.rng", 0.0)), "s/op"),
        "tracesim.rng_samples": (per_op(counts["tracesim.rng_samples"]), "count/op"),
        "tracesim.shape_fft_s": (per_op(inc.get("tracesim.shape_fft", 0.0)), "s/op"),
        "tracesim.fft_points": (per_op(counts["tracesim.fft_points"]), "count/op"),
        "tracesim.welch_s": (per_op(inc.get("tracesim.welch", 0.0)), "s/op"),
        "tracesim.segments": (per_op(counts["tracesim.segments"]), "count/op"),
        "tracesim.useful_sample_ratio": (
            counts["tracesim.retained_samples"] / synthesized if synthesized else 0.0, "ratio"),
        "tracesim.op_share": (s["tracesim_s"] / s["op_s"], "ratio"),
        "proc.cpu_util": (untraced["cpu"] / untraced["busy"], "ratio"),
        "spectrum.detected_s": (per_op(inc.get("spectrum.detected", 0.0)), "s/op"),
        "spectrum.points": (per_op(counts["spectrum.points"]), "count/op"),
        "gaussian.calls": (per_op(counts["gaussian.calls"]), "count/op"),
        "capacity.suite_s": (per_op(inc.get("capacity.suite", 0.0)), "s/op"),
        "capacity.points": (per_op(counts["capacity.points"]), "count/op"),
        "cli.parse_s": (per_op(inc.get("cli.parse", 0.0)), "s/op"),
        "cli.resolve_s": (per_op(inc.get("cli.resolve", 0.0)), "s/op"),
        "cli.write_s": (per_op(inc.get("cli.write", 0.0)), "s/op"),
        "cli.bytes_written": (per_op(traced["bytes"]), "B/op"),
        "cavity.calls": (per_op(counts["cavity.calls"]), "count/op"),
        "homodyne.calls": (per_op(counts["homodyne.calls"]), "count/op"),
        "setup.import_s.numpy": (imports["numpy"], "s"),
        "setup.import_s.scipy": (imports["scipy"], "s"),
        "setup.import_s.squeezelab": (imports["squeezelab"], "s"),
        "trace.uncovered_share": (1.0 - s["covered_s"] / s["op_s"], "ratio"),
        "trace.overhead": (1.0 - (n / traced["scaled_busy"])
                           / (len(untraced["lat"]) / untraced["scaled_busy"]), "ratio"),
    }, s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "squeezelab" / "cli.py").is_file():
        print(f"benchmark error: no squeezelab source under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import squeezelab.cli

    import_s = time.perf_counter() - t0
    if not under_src(squeezelab.cli.__file__):
        print(f"benchmark error: squeezelab imported from {squeezelab.cli.__file__}", file=sys.stderr)
        return 2

    before = set(os.listdir(ROOT))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    loop = Loop(workload, args.seed, work)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_info(),
        "in_process_import_s": import_s,
    }
    lines: list[str] = []
    info: dict[str, tuple[float, str]] = {}  # printed, not part of the result line
    try:
        for _ in range(workload.warmup):
            loop.one()
        loop.probe_now()  # warm-up
        if args.trace == 0:
            setup = setup_seconds()
            run = loop.measure(args.seconds)
            lat, scaled = run["lat"], run["scaled"]
            metrics = {
                "setup_s": (statistics.median(
                    probe.busy_time(t, c) / slow for t, c, slow in setup), "s"),
                "ops_per_s": (len(lat) / run["scaled_busy"], "1/s"),
                "op_s.p50": (statistics.median(scaled), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            # a percentile is reported only with at least ten samples beyond it
            beyond = len(lat) - math.ceil(0.9 * len(lat))
            if beyond >= 10:
                info["op_s.p90"] = (statistics.quantiles(scaled, n=10, method="inclusive")[-1], "s")
            info.update({
                "raw.setup_s": (statistics.median(t for t, _, _ in setup), "s"),
                "raw.ops_per_s": (len(lat) / run["busy"], "1/s"),
                "raw.op_s.p50": (statistics.median(lat), "s"),
                "host.slowness": (statistics.median(run["slowness"]), "ratio"),
            })
            lines.append(f"op latency samples: {len(lat)} ({beyond} beyond p90); "
                         f"probes: {len(run['slowness'])}, slowness "
                         f"{min(run['slowness']):.3f}-{max(run['slowness']):.3f}; set-up starts "
                         f"(wall s, CPU s, slowness): "
                         f"{[tuple(round(v, 4) for v in start) for start in setup]}")
            record["op_s"] = lat
            record["op_s_scaled"] = scaled
            record["slowness"] = run["slowness"]
            record["setup_starts"] = setup
        else:
            from tracer import Tracer, install

            imports = import_breakdown()
            untraced = loop.measure(args.seconds / 2)
            tracer = Tracer()
            undo = install(tracer)
            try:
                traced = loop.measure(args.seconds / 2, tracer)
            finally:
                undo()
            metrics, summary = layer_metrics(tracer, traced, untraced, imports)
            lines.append(f"traced ops: {len(traced['lat'])}, untraced ops: {len(untraced['lat'])}")
            for name in sorted(summary["self_s"], key=lambda k: -summary["self_s"][k]):
                lines.append(f"self time {name}: {summary['self_s'][name] / len(traced['lat']):.6g} s/op "
                             f"(inclusive {summary['inclusive_s'][name] / len(traced['lat']):.6g})")
            record["span_summary"] = summary
            record["counts"] = dict(tracer.counts)
            record["spans"] = tracer.spans
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stray = sorted(set(os.listdir(ROOT)) - before - {OUT.name})
    if stray:
        loop.failures.append(f"outputs written to the working directory: {stray}")
    run_ok = not stray
    if loop.tone_excess_db:
        median_excess = statistics.median(loop.tone_excess_db)
        tol = 5.0 * 1.2533 * workloads.TONE_EXCESS_STD_DB / math.sqrt(len(loop.tone_excess_db))
        lines.append(f"tone excess over the squeezed floor: median {median_excess:.3f} dB "
                     f"(expected {workloads.TONE_EXCESS_DB} +- {tol:.3f})")
        if abs(median_excess - workloads.TONE_EXCESS_DB) > tol:
            run_ok = False
            loop.failures.append(f"median tone excess {median_excess:.3f} dB outside {tol:.3f} dB of expectation")
    failed = loop.failed
    info["failed_ratio"] = (failed / loop.attempted, "ratio")
    if loop.psd_err_db:
        info["psd_err_db"] = (statistics.median(loop.psd_err_db), "dB")

    print(f"# squeezelab benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {workload.why}")
    print(f"# machine: {json.dumps(record['machine'], sort_keys=True)}")
    for line in lines:
        print(f"# {line}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} = {value:.6g} {unit}")
    for defect, count in loop.defects.items():
        print(f"# KNOWN OPEN DEFECT in {count} of {loop.attempted} ops: {defect}")
    for reason in loop.failures[:10]:
        print(f"# FAILED {reason}")

    record.update(metrics={k: v for k, (v, _) in {**metrics, **info}.items()},
                  attempted=loop.attempted, failed=failed, failures=loop.failures,
                  known_defects=dict(loop.defects))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and run_ok,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
