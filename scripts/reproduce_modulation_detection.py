#!/usr/bin/env python3
"""Regenerate the sub-shot-noise modulation-detection comparison.

Synthesizes a weak phase-modulation tone at 4.5 MHz, 1 dB below shot noise,
against two reference fields: a coherent beam (shot-noise-limited floor) and
a phase-squeezed beam with a -3.2 dB floor.  Each sweep is one RBW segment
long, so the PSD has the spread of a single analyzer sweep: the tone is
buried in the first PSD and resolved in the second.  Output CSVs land in
results/ (or the directory given as the first argument).
"""
import sys

from squeezelab.cli import main

# 1.5 fs / rbw = 5000 samples = 50 us: one segment per sweep.  With 1 ms
# sweeps each averages 39 segments and the tone shows above shot noise too.
ARGV = ["interfere", "--set", "trace.seed=2", "--set", "trace.sweeps=10",
        "--set", "trace.duration=5e-05"]

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "results"
    sys.exit(main(["--out", out, *ARGV]))
