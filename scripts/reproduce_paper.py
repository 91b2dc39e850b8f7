#!/usr/bin/env python3
"""Regenerate the paper's outputs into results/ (or the directory given as the first argument).

  * the cavity report, the analytic spectra over 1-25 MHz, a 100-sweep
    synthesized PSD next to its analytic target, and the corrected squeezing
    for both bright-beam shot-noise calibrations;
  * a weak 4.5 MHz tone, 1 dB below shot noise, against a coherent and a
    -3.2 dB squeezed reference: buried in the first PSD, resolved in the second;
  * the capacity bounds over nbar in [0.01, 10] at r = 0.3776 and at r = 0.

Exits with the first non-zero code of a run.
"""
import sys

from squeezelab.cli import main

# 1.5 fs / rbw = 5000 samples = 50 us: one segment per sweep, so the PSD has one
# analyzer sweep's spread.  With 1 ms sweeps each averages 39 segments and the
# tone shows above shot noise too.
INTERFERE = ["interfere", "--set", "trace.seed=2", "--set", "trace.sweeps=10",
             "--set", "trace.duration=5e-05"]
RUNS = [["cavity"], ["spectrum"], ["trace", "--set", "trace.seed=1"],
        ["correct", "--observed-db", "-3.75", "--mode", "blocked"],
        ["correct", "--observed-db", "-3.00", "--mode", "equal-power"],
        INTERFERE, ["capacity"], ["capacity", "--set", "capacity.squeeze_r=0.0"]]

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "results"
    for argv in RUNS:
        if code := main(["--out", out, *argv]):
            sys.exit(code)
